#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hh_offline --seed 1 --seconds 56 --trace 0

Workloads (see ``perfbench/README.md`` and ``BENCHMARK.json``):

* ``hh_offline``     PrivateExpanderSketch, one in-process engine round +
                     finalize into the heavy-hitter list.
* ``hh_cluster_shm`` PrivateExpanderSketch through ``serve-cluster --shards 2
                     --transport shm`` on one connection, then a
                     heavy-hitter query that makes the router pull, merge
                     and finalize shard state, and a merged state read.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced and then traced, and reports the
per-layer metrics.  Every answer is checked against an offline reference;
any mismatch prints ``"correct": false`` and exits 1.  The last line of
stdout is the JSON result; progress goes to stderr.

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hh_offline", "hh_cluster_shm")


def declared_metrics() -> dict:
    """``BENCHMARK.json``'s metric declarations: name -> unit, per kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program under test at {src}/repro",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        raise SystemExit(2)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str, doctor_reference: bool):
    if name == "hh_offline":
        import offline
        return offline.run(seed, seconds, trace, size, doctor_reference)
    import served
    return served.run(seed, seconds, trace, size, doctor_reference)


def report(name: str, outcome, trace: bool, units: dict, args) -> None:
    """Human-readable lines: every metric with its unit, then metadata."""
    from common import host_metadata

    title = "per-layer (traced)" if trace else "end-to-end (tracing off)"
    print(f"== {name}  seed={args.seed}  seconds={args.seconds}  {title}")
    values = outcome.layers if trace else outcome.metrics
    for metric, unit in units.items():
        print(f"  {metric:34s} {values[metric]:>16.6g} {unit}")
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"  {'failed_frac':34s} {failed_frac:>16.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations)")
    if trace and outcome.self_times:
        print("  self time along the blocking path (process:span, s):")
        for key, value in outcome.self_times.items():
            if value >= 1e-4:
                print(f"    {key:40s} {value:10.4f}")
    for line in outcome.mismatches:
        print(f"  MISMATCH: {line}")
    meta = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": int(trace), "size": args.size,
            "failed_frac": failed_frac, "host": host_metadata(),
            **outcome.meta}
    print("meta " + json.dumps(meta, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size (tiny: the self-tests)")
    parser.add_argument("--doctor-reference", action="store_true",
                        help="perturb the offline reference (self-test of "
                             "the correctness gate: must exit 1)")
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    _bootstrap()
    # A SIGTERM unwinds like an exception, so every server, router and
    # shard this run started is stopped by the cleanup paths.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    declared = declared_metrics()
    units = declared["per_layer" if trace else "end_to_end"]

    # Everything the system under test writes (params files, cluster homes,
    # span dumps) stays inside the checkout.
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    os.environ["TMPDIR"] = work
    import tempfile
    tempfile.tempdir = work
    started = time.perf_counter()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, trace,
                               args.size, args.doctor_reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    if trace:
        # A layer this workload never enters did no work: it reads 0.
        idle = sorted(set(units) - set(outcome.layers))
        outcome.layers.update({name: 0.0 for name in idle})
        outcome.meta["idle_layers"] = idle
    values = outcome.layers if trace else outcome.metrics
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} are "
              f"not both declared and measured", file=sys.stderr)
        return 3
    outcome.meta["run_wall_s"] = time.perf_counter() - started
    report(args.workload, outcome, trace, units, args)
    correct = not outcome.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": int(max(outcome.attempted, 1)),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
