"""Regenerate the committed replies corpus (``replies.json``).

Every case is one request frame sent on a fresh connection, first to an
in-process :class:`~repro.server.service.AggregationServer` and then to an
in-process :class:`~repro.cluster.router.ClusterRouter` in front of two
in-process shard servers.  The request list covers:

* every message type with valid fields, and again with one malformed or
  extra field;
* an unknown type, a missing type, and a non-string type;
* kind-2 frames a side must refuse, and a JSON ``reports`` frame;
* every payload of ``tests/data/wire_corpus/corpus.json``.

Each request is followed on the same connection by a ``hello`` probe.  A
case records the replies that came before the probe's ``params`` reply, and
``open``: whether the probe was answered at all (``false`` means the peer
closed the connection).  Fields that vary from run to run (paths, host,
port, ``drain_s``) are masked; everything else, including every count and
estimate, is deterministic.  Running

    PYTHONPATH=src python tests/data/dispatch_corpus/generate.py

rewrites ``replies.json``; ``tests/test_dispatch_corpus.py`` compares a
fresh run against the committed file.
"""

from __future__ import annotations

import asyncio
import base64
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "src"))

from repro.cluster import ClusterRouter  # noqa: E402
from repro.protocol import ExplicitHistogramParams, HashtogramParams  # noqa: E402
from repro.server import AggregationServer  # noqa: E402
from repro.server.framing import (  # noqa: E402
    encode_frame,
    encode_reports_frame,
    encode_state_frame,
    frame_bytes,
    read_frame,
)
from repro.server.window import WindowedAggregator  # noqa: E402

OUT = Path(__file__).parent / "replies.json"
WIRE_CORPUS = Path(__file__).parents[1] / "wire_corpus" / "corpus.json"

#: reply fields whose values differ between runs
MASKED = frozenset({"path", "paths", "host", "port", "drain_s"})

#: the wire corpus's batches come from these parameters, so its valid
#: payloads are valid input here too
PARAMS = HashtogramParams.create(1 << 10, 1.0, num_buckets=16, rng=0)

HELLO = encode_frame({"type": "hello"})


def _json_reports(batch) -> bytes:
    """A ``reports`` frame in the retired JSON form (base64 columns)."""
    columns = {key: {"dtype": col.dtype.str,
                     "shape": [int(n) for n in col.shape],
                     "data": base64.b64encode(
                         np.ascontiguousarray(col).tobytes()).decode("ascii")}
               for key, col in batch.columns.items()}
    return encode_frame({"type": "reports", "epoch": 0,
                         "batch": {"protocol": batch.protocol,
                                   "encoding": "b64",
                                   "num_reports": len(batch),
                                   "columns": columns}})


def _cases() -> List[Tuple[str, bytes]]:
    gen = np.random.default_rng(5)
    batch = PARAMS.make_encoder().encode_batch(
        gen.integers(0, PARAMS.domain_size, size=48), gen)
    foreign = ExplicitHistogramParams(64, 1.0).make_encoder().encode_batch(
        gen.integers(0, 64, size=16), gen)
    pushed = WindowedAggregator(PARAMS)
    pushed.absorb_batch(batch, 7)
    state = pushed.capture()
    wire = json.loads(WIRE_CORPUS.read_text())["cases"]

    def msg(**fields) -> bytes:
        return encode_frame(fields)

    cases = [
        ("reports-binary", encode_reports_frame(batch, 0)),
        ("reports-binary-routed", encode_reports_frame(batch, 1, route=12345)),
        ("reports-foreign-protocol", encode_reports_frame(foreign, 0)),
        ("reports-json", _json_reports(batch)),
    ]
    cases += [(f"wire-{case['name']}",
               frame_bytes(base64.b64decode(case["payload_b64"])))
              for case in wire]
    cases += [
        ("sync", msg(type="sync")),
        ("sync-extra-field", msg(type="sync", window="x")),
        ("hello", msg(type="hello")),
        ("hello-extra-field", msg(type="hello", window="x")),
        ("query", msg(type="query", items=[0, 1, 2, 3, 1023])),
        ("query-window", msg(type="query", items=[0, 1], window=1)),
        ("query-bad-items", msg(type="query", items=["a"])),
        ("query-bad-window", msg(type="query", items=[0], window="x")),
        ("state", msg(type="state")),
        ("state-min-epoch", msg(type="state", min_epoch=0)),
        ("state-bad-window", msg(type="state", window="x")),
        ("state-window-and-min-epoch", msg(type="state", window=1,
                                           min_epoch=0)),
        ("snapshot", msg(type="snapshot")),
        ("snapshot-extra-field", msg(type="snapshot", window="x")),
        ("stats", msg(type="stats")),
        ("stats-extra-field", msg(type="stats", window="x")),
        ("health", msg(type="health")),
        ("health-extra-field", msg(type="health", window="x")),
        ("shard_map", msg(type="shard_map")),
        ("shard_map-extra-field", msg(type="shard_map", window="x")),
        ("add_shard", msg(type="add_shard")),
        ("add_shard-extra-field", msg(type="add_shard", window="x")),
        ("rolling_restart", msg(type="rolling_restart")),
        ("rolling_restart-extra-field", msg(type="rolling_restart",
                                            window="x")),
        ("unknown-type", msg(type="subscribe")),
        ("missing-type", msg()),
        ("non-string-type", msg(type=["hello"])),
        ("kind2-state", encode_state_frame({"type": "state",
                                            "epochs": [1]})),
        ("kind2-garbage", frame_bytes(b"\xb1\x01\x02\x00\x00\x00\x00")),
        ("absorb_state-json", msg(type="absorb_state", handoff=9,
                                  state="not-a-state")),
        ("absorb_state", encode_state_frame({"type": "absorb_state",
                                             "handoff": 9, "state": state})),
        ("absorb_state-retried", encode_state_frame(
            {"type": "absorb_state", "handoff": 9, "state": state})),
        ("absorb_state-bad-state", encode_state_frame(
            {"type": "absorb_state", "handoff": 10, "state": [1, 2]})),
        ("absorb_state-bad-handoff", encode_state_frame(
            {"type": "absorb_state", "handoff": "x", "state": state})),
        ("handoff-bad-id", msg(type="handoff", handoff="x")),
        ("drain_shard-missing-shard", msg(type="drain_shard")),
        ("drain_shard-bad-shard", msg(type="drain_shard", shard="x")),
        ("drain_shard-bad-target", msg(type="drain_shard", shard=1,
                                       target=7)),
        ("handoff", msg(type="handoff", handoff=3)),
        ("reports-after-handoff", encode_reports_frame(batch, 2)),
        ("drain_shard", msg(type="drain_shard", shard=1)),
        ("drain_shard-retried", msg(type="drain_shard", shard=1)),
        ("sync-final", msg(type="sync")),
        ("stats-final", msg(type="stats")),
        ("health-final", msg(type="health")),
        ("query-final", msg(type="query", items=[0, 1, 2, 3, 1023])),
        ("shutdown", msg(type="shutdown")),
    ]
    return cases


def _is_hello(frame: bytes) -> bool:
    try:
        return json.loads(frame[4:]).get("type") == "hello"
    except (ValueError, AttributeError):
        return False


def _plain(value):
    """A reply as plain JSON values, with the run-dependent fields masked."""
    if isinstance(value, dict):
        return {key: "<masked>" if key in MASKED else _plain(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


async def _exchange(host: str, port: int, frame: bytes) -> Dict[str, object]:
    """Send one request plus the ``hello`` probe; collect what comes back.

    Both frames go out in one write, so a peer that closes after answering
    has already read the probe: the close is a FIN, never a reset.
    """
    reader, writer = await asyncio.open_connection(host, port)
    probes = 2 if _is_hello(frame) else 1
    replies: List[Dict[str, object]] = []
    is_open = False
    try:
        writer.write(frame + HELLO)
        await writer.drain()
        while True:
            reply: Optional[Dict[str, object]] = await asyncio.wait_for(
                read_frame(reader), 60)
            if reply is None:
                break
            if reply.get("type") == "params":
                probes -= 1
                if probes == 0:
                    is_open = True
                    break
            replies.append(reply)
    except ConnectionError:
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return {"replies": _plain(replies), "open": is_open}


async def _run(host: str, port: int,
               cases: List[Tuple[str, bytes]]) -> List[Dict[str, object]]:
    out = []
    for name, frame in cases:
        out.append({"case": name, **await _exchange(host, port, frame)})
    return out


async def _collect(base: Path) -> Dict[str, object]:
    cases = _cases()
    server = AggregationServer(PARAMS, snapshot_dir=base / "server")
    host, port = await server.start()
    try:
        served = await _run(host, port, cases)
    finally:
        await server.stop()
    shards = [AggregationServer(PARAMS, snapshot_dir=base / f"shard-{i}")
              for i in range(2)]
    endpoints = [await shard.start() for shard in shards]
    router = ClusterRouter(PARAMS, endpoints=endpoints, rng=0)
    try:
        host, port = await router.start()
        routed = await _run(host, port, cases)
    finally:
        await router.stop()
        for shard in shards:
            await shard.stop()
    return {"server": served, "router": routed}


def collect() -> Dict[str, object]:
    """Run every case against a fresh server and a fresh router."""
    with tempfile.TemporaryDirectory() as tmp:
        return asyncio.run(_collect(Path(tmp)))


def main() -> None:
    payload = {"_comment": "replies of a server and a 2-shard router to a "
                           "fixed request list; regenerate with "
                           "`PYTHONPATH=src python tests/data/"
                           "dispatch_corpus/generate.py`",
               **collect()}
    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({len(payload['server'])} cases per side)")


if __name__ == "__main__":
    main()
