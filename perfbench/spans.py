"""Span recorder for the traced benchmark run, and the wrappers that feed it.

A span is one call into a layer's public function: ``(id, name, start, end,
parent)``, recorded by the process that made the call and tagged with that
process's role and the run id.  Spans stay in memory and are written out
once, when the run (or the traced subprocess) ends.  Parents are tracked
with a :class:`contextvars.ContextVar`, so spans opened by different
asyncio tasks in a server never adopt each other as parents.

Nothing here edits the program: :func:`instrument` replaces public
functions and methods of already-imported ``repro`` modules with timing
wrappers that call the original and return its result unchanged.  The same
function installs the wrappers in the benchmark process (``hh_offline``)
and, through ``hook/sitecustomize.py``, in the server, router and shard
subprocesses of the served workloads.

All clocks are :func:`time.perf_counter`, which on Linux reads
``CLOCK_MONOTONIC`` and is therefore comparable across processes.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span",
                                                          default=None)

#: spans that mostly wait on someone else rather than work: they are
#: reported, but never count as covering the blocking path
WAIT_SPANS = frozenset({"framing.read", "transport.shm.wait",
                        "transport.send"})

#: prefix of the benchmark's own root spans (the measured windows)
ROOT_PREFIX = "bench."


class SpanRecorder:
    """In-memory span and counter store for one process of one run."""

    def __init__(self, run_id: str, role: str) -> None:
        self.run_id = run_id
        self.role = role
        self.pid = os.getpid()
        #: (id, name, start, end, parent)
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        #: name -> summed amount (counts, bytes), or a running maximum
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def _open(self) -> Tuple[int, Optional[int], contextvars.Token]:
        sid = next(self._ids)
        parent = _CURRENT.get()
        return sid, parent, _CURRENT.set(sid)

    def to_dict(self) -> Dict[str, object]:
        return {"run_id": self.run_id, "role": self.role, "pid": self.pid,
                "spans": list(self.spans), "counters": dict(self.counters)}

    def dump(self, path: str) -> None:
        """Write atomically: a reader sees the whole file or none."""
        with open(path + ".tmp", "w") as handle:
            json.dump(self.to_dict(), handle)
        os.replace(path + ".tmp", path)


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self._sid, self._parent, self._token = self.recorder._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        _CURRENT.reset(self._token)
        self.recorder.spans.append(
            (self._sid, self.name, self.start, end, self._parent))


# ----- wrappers ----------------------------------------------------------------------

OnResult = Callable[[SpanRecorder, tuple, object], None]


def _wrap(recorder: SpanRecorder, name: str, fn: Callable,
          on_result: Optional[OnResult] = None) -> Callable:
    if getattr(fn, "__perfbench_wrapped__", False):
        return fn
    spans = recorder.spans

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid, parent, token = recorder._open()
            start = time.perf_counter()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                spans.append((sid, name, start, end, parent))
            if on_result is not None:
                on_result(recorder, args, result)
            return result
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, token = recorder._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                spans.append((sid, name, start, end, parent))
            if on_result is not None:
                on_result(recorder, args, result)
            return result
    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _rebind_function(recorder: SpanRecorder, module_name: str, attr: str,
                     name: str, on_result: Optional[OnResult] = None) -> None:
    """Wrap a module-level function everywhere ``repro`` modules bound it.

    ``from x import f`` copies the reference, so every loaded ``repro``
    module holding the original object gets the wrapper.
    """
    original = getattr(sys.modules[module_name], attr)
    wrapper = _wrap(recorder, name, original, on_result)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _wrap_method(recorder: SpanRecorder, cls: type, attr: str, name: str,
                 on_result: Optional[OnResult] = None) -> None:
    """Wrap ``cls.attr`` if ``cls`` itself defines it (not inherited)."""
    if attr in vars(cls):
        setattr(cls, attr, _wrap(recorder, name, vars(cls)[attr], on_result))


def _all_subclasses(cls: type) -> List[type]:
    out, stack = [], [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                stack.append(sub)
    return out


def _count_candidates(recorder: SpanRecorder, _args: tuple, result) -> None:
    recorder.add("codes.candidates", len(result))


def _count_state_bytes(recorder: SpanRecorder, _args: tuple, result) -> None:
    recorder.maximum("protocol.state_bytes", len(result))


def _count_frame(recorder: SpanRecorder, _args: tuple, result) -> None:
    if result is not None:
        recorder.add("framing.frames_read", 1)


def _count_shm_bytes(recorder: SpanRecorder, _args: tuple, result) -> None:
    recorder.add("transport.shm.bytes", int(result))


def instrument(recorder: SpanRecorder) -> None:
    """Install span wrappers on every public layer function the bench reads.

    Imports the layer modules first so that every ``from x import f``
    binding exists before it is rebound.  Idempotent per function.
    """
    import repro.cluster.journal as journal
    import repro.cluster.router  # noqa: F401  (binds framing/binary names)
    import repro.codes.list_recoverable as list_recoverable
    import repro.codes.reed_solomon as reed_solomon
    import repro.core.results as results
    import repro.engine  # noqa: F401
    import repro.frequency  # noqa: F401
    import repro.hashing.kwise as kwise
    import repro.protocol  # noqa: F401  (registers every wire protocol)
    import repro.protocol.wire as wire
    import repro.server.service  # noqa: F401
    import repro.server.snapshot as snapshot
    import repro.server.window as window
    import repro.transport.shm as shm
    from repro.frequency.base import FrequencyOracle

    _wrap_method(recorder, kwise.KWiseHash, "__call__", "hashing.eval")
    _wrap_method(recorder, reed_solomon.ReedSolomonCode, "encode_batch",
                 "codes.encode")
    _wrap_method(recorder, list_recoverable.UniqueListRecoverableCode,
                 "decode", "codes.decode", _count_candidates)
    for cls in _all_subclasses(wire.ClientEncoder):
        _wrap_method(recorder, cls, "encode_batch", "protocol.encode")
    _wrap_method(recorder, wire.ServerAggregator, "absorb_batch",
                 "protocol.absorb")
    _wrap_method(recorder, wire.ServerAggregator, "merge", "protocol.merge")
    for cls in [wire.ServerAggregator, *_all_subclasses(wire.ServerAggregator)]:
        _wrap_method(recorder, cls, "finalize", "protocol.finalize")
    for cls in [FrequencyOracle, *_all_subclasses(FrequencyOracle)]:
        _wrap_method(recorder, cls, "estimate_many", "protocol.estimate")
    _wrap_method(recorder, results.HeavyHitterResult, "estimate_many",
                 "protocol.estimate")
    _wrap_method(recorder, window.WindowedAggregator, "absorb_batch",
                 "window.absorb")
    _wrap_method(recorder, window.WindowedAggregator, "snapshot",
                 "server.snapshot")
    _wrap_method(recorder, snapshot.SnapshotStore, "save", "server.snapshot")
    _wrap_method(recorder, journal.FrameJournal, "append", "cluster.journal")
    _wrap_method(recorder, journal.FrameJournal, "barrier", "cluster.journal")
    _rebind_function(recorder, "repro.protocol.binary",
                     "decode_reports_payload", "binary.decode")
    _rebind_function(recorder, "repro.protocol.binary", "pack_state",
                     "binary.pack_state", _count_state_bytes)
    _rebind_function(recorder, "repro.protocol.binary", "unpack_state",
                     "binary.unpack_state")
    _rebind_function(recorder, "repro.server.framing", "read_frame_payload",
                     "framing.read", _count_frame)
    _rebind_function(recorder, "repro.server.framing", "decode_frame",
                     "framing.decode")
    _wrap_method(recorder, shm._Ring, "push", "transport.shm.push",
                 _count_shm_bytes)
    _wrap_method(recorder, shm.RingWriter, "drain", "transport.shm.wait")


# ----- analysis ----------------------------------------------------------------------

def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(intervals: Iterable[Tuple[float, float]], start: float,
          end: float) -> List[Tuple[float, float]]:
    out = []
    for s, e in intervals:
        s, e = max(s, start), min(e, end)
        if e > s:
            out.append((s, e))
    return out


def layer_times(dumps: Sequence[Dict[str, object]]
                ) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive and self seconds, over all dumps.

    A span's self time is its duration minus the part of it covered by its
    own child spans (same process, ``parent`` pointing at it).
    """
    out: Dict[str, Dict[str, float]] = {}
    for dump in dumps:
        spans = dump["spans"]
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _sid, _name, start, end, parent in spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        for sid, name, start, end, _parent in spans:
            covered = _union_length(_clip(children.get(sid, ()), start, end))
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - covered
    return out


def unattributed_s(dumps: Sequence[Dict[str, object]]) -> float:
    """Wall time of the bench's root windows that no layer span covers.

    The roots are the ``bench.*`` spans (the measured end-to-end windows);
    coverage is the union of every working (non-wait) layer span from every
    process, so "end-to-end = sum of stages" holds exactly when this is 0.
    """
    roots: List[Tuple[float, float]] = []
    busy: List[Tuple[float, float]] = []
    for dump in dumps:
        for _sid, name, start, end, _parent in dump["spans"]:
            if name.startswith(ROOT_PREFIX):
                roots.append((start, end))
            elif name not in WAIT_SPANS:
                busy.append((start, end))
    total = 0.0
    for start, end in roots:
        total += (end - start) - _union_length(_clip(busy, start, end))
    return total


def counters(dumps: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Counters summed over processes (``protocol.state_bytes``: maximum)."""
    out: Dict[str, float] = {}
    for dump in dumps:
        for name, value in dump["counters"].items():
            if name == "protocol.state_bytes":
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    return out


#: per-layer metric -> (span name, which ``layer_times`` figure to report)
SPAN_METRICS = {
    "protocol.encode_s": ("protocol.encode", "self_s"),
    "codes.encode_s": ("codes.encode", "self_s"),
    "hashing.eval_calls": ("hashing.eval", "calls"),
    "hashing.eval_s": ("hashing.eval", "self_s"),
    "protocol.absorb_s": ("protocol.absorb", "self_s"),
    "protocol.absorb_calls": ("protocol.absorb", "calls"),
    "window.absorb_s": ("window.absorb", "total_s"),
    "window.backup_s": ("window.absorb", "self_s"),
    "binary.decode_s": ("binary.decode", "self_s"),
    "framing.read_s": ("framing.read", "self_s"),
    "framing.decode_s": ("framing.decode", "self_s"),
    "transport.shm.wait_s": ("transport.shm.wait", "total_s"),
    "server.snapshot_s": ("server.snapshot", "self_s"),
    "cluster.journal_s": ("cluster.journal", "self_s"),
    "protocol.merge_s": ("protocol.merge", "self_s"),
    "protocol.finalize_s": ("protocol.finalize", "self_s"),
    "protocol.estimate_s": ("protocol.estimate", "self_s"),
    "codes.decode_s": ("codes.decode", "self_s"),
    "binary.pack_state_s": ("binary.pack_state", "self_s"),
    "binary.unpack_state_s": ("binary.unpack_state", "self_s"),
}

#: per-layer metrics read straight from the recorders' counters
COUNTER_METRICS = ("framing.frames_read", "transport.shm.bytes",
                   "codes.candidates", "protocol.state_bytes")


def layer_metrics(dumps: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Every span- and counter-derived per-layer metric (0 where unused)."""
    times = layer_times(dumps)
    out: Dict[str, float] = {}
    for metric, (span, key) in SPAN_METRICS.items():
        out[metric] = float(times.get(span, {}).get(key, 0.0))
    summed = counters(dumps)
    for metric in COUNTER_METRICS:
        out[metric] = float(summed.get(metric, 0.0))
    out["trace.unattributed_s"] = unattributed_s(dumps)
    return out


def self_time_report(dumps: Sequence[Dict[str, object]]
                     ) -> Dict[str, float]:
    """Self seconds per ``role:span`` (the blocking-path breakdown)."""
    out: Dict[str, float] = {}
    for dump in dumps:
        for name, entry in layer_times([dump]).items():
            key = f"{dump['role']}:{name}"
            out[key] = out.get(key, 0.0) + entry["self_s"]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def load_dumps(directory: str, run_id: str) -> List[Dict[str, object]]:
    """Every complete span file of ``run_id`` written into ``directory``."""
    dumps = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as handle:
                dump = json.load(handle)
            if dump.get("run_id") == run_id:
                dumps.append(dump)
    return dumps
