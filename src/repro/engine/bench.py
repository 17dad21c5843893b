"""Engine scaling benchmark: ingest throughput versus worker count.

Produces the payload that ``python -m repro.cli bench`` writes to
``BENCH_engine.json`` and that ``benchmarks/bench_engine_scaling.py`` prints:
for each protocol and worker count, the wall-clock of one full
encode → absorb → merge round, the implied reports/s, and the speedup over
the 1-worker run on the same host.  Every run is also checked for bit-exact
agreement with the 1-worker estimates — parallelism must never change the
output, only the wall-clock.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine.engine import run_simulation
from repro.protocol.wire import protocol_class
from repro.utils.rng import as_generator

__all__ = ["run_engine_bench", "DEFAULT_WORKER_COUNTS"]

DEFAULT_WORKER_COUNTS = (1, 2, 4)


def run_engine_bench(protocols: Sequence[str] = ("hashtogram",),
                     worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
                     num_users: int = 200_000, domain_size: int = 1 << 16,
                     epsilon: float = 1.0, seed: int = 0,
                     repeats: int = 1,
                     chunk_size: Optional[int] = None) -> Dict[str, object]:
    """Run the scaling sweep and return the ``BENCH_engine.json`` payload.

    For each protocol the workload and the public parameters are sampled
    once; each worker count then replays the *same* chunk plan (a fresh
    generator with the same seed is used per run, so every run draws the
    same chunk seeds).  ``elapsed_s`` is the best of ``repeats`` timings.

    The ``speedup_vs_1`` / ``identical_to_1_worker`` fields are always
    measured against a real 1-worker run: if ``worker_counts`` does not
    contain 1, a baseline run is prepended to the sweep.
    """
    from repro.workloads.distributions import zipf_workload

    worker_counts = list(worker_counts)
    if 1 not in worker_counts:
        worker_counts.insert(0, 1)
    results: List[Dict[str, object]] = []
    for protocol in protocols:
        setup_gen = as_generator(seed)
        values = zipf_workload(num_users, domain_size,
                               support=min(2_000, domain_size), rng=setup_gen)
        params = protocol_class(protocol).for_workload(
            num_users, domain_size, epsilon, rng=setup_gen)
        queries = np.random.default_rng(0).integers(0, domain_size, size=64)
        runs = []
        for workers in worker_counts:
            best: Optional[Dict[str, float]] = None
            estimates = None
            for _ in range(max(1, repeats)):
                start = time.perf_counter()
                # A fresh generator per run: every run derives the same
                # chunk seeds, so estimates must agree bit for bit.
                result = run_simulation(params, values, rng=np.random.default_rng(seed),
                                        workers=workers, chunk_size=chunk_size)
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best["elapsed_s"]:
                    best = {"elapsed_s": elapsed,
                            "ingest_s": result.ingest_s,
                            "merge_s": result.merge_s}
                    estimates = result.finalize().estimate_many(queries)
            runs.append((int(workers), best, estimates,
                         num_users / max(best["elapsed_s"], 1e-9)))
        baseline = next(run for run in runs if run[0] == 1)
        for workers, best, estimates, rate in runs:
            results.append({
                "protocol": protocol,
                "workers": workers,
                "num_users": int(num_users),
                "elapsed_s": round(best["elapsed_s"], 4),
                "ingest_s": round(best["ingest_s"], 4),
                "merge_s": round(best["merge_s"], 4),
                "reports_per_s": int(rate),
                "speedup_vs_1": round(rate / max(baseline[3], 1e-9), 3),
                "identical_to_1_worker": bool(
                    np.array_equal(estimates, baseline[2])),
            })
    return {
        "benchmark": "engine_scaling",
        "host": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "num_users": int(num_users),
            "domain_size": int(domain_size),
            "epsilon": float(epsilon),
            "seed": int(seed),
            "repeats": int(max(1, repeats)),
            "worker_counts": [int(w) for w in worker_counts],
            "protocols": list(protocols),
        },
        "results": results,
    }
