"""Shared helpers: statistics, /proc readers, host metadata, workload record."""

from __future__ import annotations

import contextlib
import os
import platform
import statistics
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----- statistics --------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def lower_quartile(values: Sequence[float]) -> float:
    """The first quartile (linear interpolation between order statistics).

    The benchmark's figure for a repeated timing.  On a small shared host
    a run alternates between a fast and a slow state lasting seconds, with
    interpreter-bound work up to ~1.8x slower in the slow one.  How much
    of a run falls in the slow state changes from run to run, so a median
    jumps between the two speeds; the lower quartile reads the fast state
    as long as a quarter of the run had it.  Every sample stays in the
    run's ``meta.samples``.
    """
    ordered = sorted(values)
    pos = 0.25 * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (pos - low))


# ----- /proc -------------------------------------------------------------------------

def _status_kb(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def children(pid: int) -> List[int]:
    """Direct child pids of a live process."""
    out: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(x) for x in handle.read().split())
    except FileNotFoundError:
        return []
    return out


def host_metadata() -> Dict[str, object]:
    import numpy as np
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform()}


# ----- results -----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one workload run measured, checked and counted."""

    #: end-to-end metric name -> value (tracing off)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: per-layer metric name -> value (traced run only)
    layers: Dict[str, float] = field(default_factory=dict)
    #: operations attempted (reports handed to the system + queries sent)
    attempted: int = 0
    #: operations that failed: reports not absorbed, queries that errored
    #: or timed out, and the operations behind a wrong answer
    failed: int = 0
    #: one line per correctness check that did not hold
    mismatches: List[str] = field(default_factory=list)
    #: sizes, sample counts, percentile labels, faults seen
    meta: Dict[str, object] = field(default_factory=dict)
    #: per-layer self seconds along the blocking path, for the trace report
    self_times: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str, operations: int = 0) -> bool:
        """Record one correctness check; a miss fails ``operations`` ops."""
        if not ok:
            self.mismatches.append(what)
            self.failed += operations
        return ok


def log(message: str) -> None:
    """Progress line on stderr (stdout's last line is the result)."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def no_span(_name: str) -> contextlib.nullcontext:
    """Stand-in for ``SpanRecorder.span`` in untraced passes."""
    return contextlib.nullcontext()


def pass_budget(seconds: float, elapsed: float, last_pass_s: Optional[float]
                ) -> bool:
    """Whether another pass fits: always a first one, then while a pass
    as long as the last one still ends inside ``seconds``."""
    return last_pass_s is None or elapsed + last_pass_s <= seconds
