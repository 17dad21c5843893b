"""Benchmark W2: multiprocess engine scaling across worker counts.

Sweeps :func:`repro.engine.run_engine_bench` over 1/2/4 workers for the
three frequency oracles and prints the reports/s and speedup-vs-1-worker
table — the same payload ``python -m repro.cli bench`` writes to
``BENCH_engine.json``.

The asserted invariant is correctness, not speed: parallel runs must produce
estimates bit-identical to the 1-worker run (speedup is host-dependent — a
single-core CI box will even show slowdown from pool overhead, which is fine
and visible in the recorded ``cpu_count``).
"""

from conftest import report, run_once

from repro.engine.bench import run_engine_bench

NUM_USERS = 60_000
SEED = 0


def _measure():
    payload = run_engine_bench(protocols=("hashtogram", "explicit", "cms"),
                               worker_counts=(1, 2, 4),
                               num_users=NUM_USERS, domain_size=1 << 16,
                               epsilon=1.0, seed=SEED)
    return payload["results"]


def test_engine_scaling(benchmark):
    rows = run_once(benchmark, _measure)
    report(benchmark, "W2: engine ingest throughput vs worker count", rows)
    for row in rows:
        assert row["identical_to_1_worker"], row
        assert row["reports_per_s"] > 0
