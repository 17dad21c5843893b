"""Benchmark W3: sustained wire ingest of the streaming aggregation server.

Measures what the service layer adds on top of raw ``absorb_batch``: a real
TCP round through length-prefixed frames, the bounded ingestion queue, and
the batched drain, over the binary ``reports`` frames of
``docs/wire-protocol.md`` §8 (columns bit-packed to their value widths
behind a struct header, unpacked into read-only arrays).

The protocol under test is the paper's workhorse (Hashtogram); the measured
quantity is **sustained ingest** — reports/s from the first byte sent to
the server confirming, via a ``sync`` barrier, that every report has been
absorbed into exact integer state.  One row per protocol records the exact
wire bytes and the throughput.  Against the committed
``BENCH_baseline.json`` (``--check ... --baseline ...``) CI fails if the
frames carry more bytes per report than the baseline's
``wire_bytes_per_report`` ceiling — the paper's "communication per user"
column; a ``wire`` section holds the same row for the frames of the
PrivateExpanderSketch aggregate below — or if ingest throughput drops
more than 40% below baseline
(engine numbers are gated the same way via ``--engine``).  The same
payload carries a ``finalize`` section: PrivateExpanderSketch's server
finalize at n=400k, D=2^20, ε=1, in decoded stage-1 cells per second, and
a ``checkpoint`` section: the body of a shard checkpoint on the same
aggregate (windowed array capture plus ``pack_state``), in state cells
per second, an ``encode`` section: the PrivateExpanderSketch client
encode (``encode_stream``) of the same reports, in reports per second,
and a ``state_pull`` section: a two-shard state pull of the same
aggregate (each shard's kind-2 ``state`` reply packed, then decoded and
summed into the router's merged state), in state cells per second.  All
four are gated by the same ``max_drop`` rule against the baseline's
``finalize``, ``checkpoint``, ``encode`` and ``state_pull`` floors.  The
``checkpoint`` and ``state_pull`` rows also carry ``peak_bytes``: the
tracemalloc peak of one untimed repeat, gated per state cell against the
baseline's ``peak_bytes_per_cell`` ceilings (no ``max_drop`` headroom:
what a step allocates does not depend on the host's speed).

Client-side encoding and frame serialization are done *before* the clock
starts (a deployment's clients encode on their own devices); the timed path
is socket write → frame read → decode → ``absorb_batch`` → drain
accounting, i.e. exactly the server's steady-state ingest loop.

Run as a script to (re)generate ``BENCH_server.json``::

    PYTHONPATH=src python benchmarks/bench_server_ingest.py

or under pytest-benchmark (CI smoke)::

    PYTHONPATH=src python -m pytest benchmarks/bench_server_ingest.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

NUM_USERS = 1_000_000
CHUNK_SIZE = 1 << 16
SEED = 0
#: the finalize and checkpoint floors' shape: PrivateExpanderSketch with
#: planted heavy hitters
FINALIZE_USERS = 400_000
FINALIZE_DOMAIN = 1 << 20
FINALIZE_EPSILON = 1.0
FINALIZE_HEAVY_FRACTIONS = (0.2, 0.1, 0.05)


def run_server_ingest_bench(protocols: Sequence[str] = ("hashtogram",),
                            num_users: int = NUM_USERS,
                            domain_size: int = 1 << 16,
                            epsilon: float = 1.0, seed: int = SEED,
                            chunk_size: int = CHUNK_SIZE,
                            repeats: int = 3,
                            verify_queries: int = 64
                            ) -> Dict[str, object]:
    """Measure sustained wire ingest per protocol.

    Each repeat spawns a fresh ``repro.cli serve`` subprocess, blasts the
    pre-encoded frames down one connection, and stops the clock when the
    ``sync`` barrier confirms full absorption.  ``elapsed_s`` is the best of
    ``repeats``.  Every repeat also verifies the served estimates against
    the offline engine, bit for bit — throughput that corrupts the aggregate
    would be meaningless.
    """
    from repro.cluster.supervisor import spawned_server
    from repro.engine import encode_stream, run_simulation, seeded_inputs
    from repro.server import AggregationClient, encode_reports_frame

    results: List[Dict[str, object]] = []
    for protocol in protocols:
        values, params, plan_seed = seeded_inputs(protocol, num_users,
                                                  domain_size, epsilon, seed)
        batches = list(encode_stream(params, values, rng=plan_seed,
                                     chunk_size=chunk_size))
        queries = [int(x) for x in np.random.default_rng(0).integers(
            0, domain_size, size=verify_queries)]
        expected = run_simulation(
            params, values, rng=plan_seed,
            chunk_size=chunk_size).finalize().estimate_many(queries)

        frames = b"".join(encode_reports_frame(batch, 0) for batch in batches)
        best: Optional[Dict[str, float]] = None
        identical = True
        for _ in range(max(1, repeats)):
            with spawned_server(params) as server, \
                    AggregationClient(server.host, server.port) as client:
                start = time.perf_counter()
                client.send_raw(frames)
                absorbed = client.sync()
                elapsed = time.perf_counter() - start
                served = client.query(queries)
                stats = client.stats()
                client.shutdown()
                server.stopping = True
            if absorbed != num_users:
                raise RuntimeError(f"server absorbed {absorbed} of "
                                   f"{num_users} reports")
            identical = identical and bool(np.array_equal(served, expected))
            run = {"elapsed_s": elapsed, "drain_s": float(stats["drain_s"])}
            if best is None or elapsed < best["elapsed_s"]:
                best = run
        results.append({
            "protocol": protocol,
            "wire_format": "binary",
            "num_users": int(num_users),
            "num_frames": len(batches),
            "wire_bytes": len(frames),
            "wire_bytes_per_report": round(len(frames) / num_users, 4),
            "ingest_s": round(best["elapsed_s"], 4),
            "reports_per_s": int(num_users / max(best["elapsed_s"], 1e-9)),
            "drain_s": round(best["drain_s"], 4),
            "absorb_reports_per_s": int(num_users / max(best["drain_s"], 1e-9)),
            "identical_to_offline_engine": identical,
        })
    return {
        "benchmark": "server_ingest",
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
            "chunk_size": int(chunk_size),
            "repeats": int(max(1, repeats)),
            "protocols": list(protocols),
        },
        "results": results,
    }


def _expander_workload():
    """The finalize/checkpoint/encode shape: planted values, the sketch's
    public params, and the generator positioned after both."""
    from repro.core.heavy_hitters import PrivateExpanderSketch
    from repro.workloads.distributions import planted_workload

    gen = np.random.default_rng(SEED)
    values = planted_workload(FINALIZE_USERS, FINALIZE_DOMAIN,
                              FINALIZE_HEAVY_FRACTIONS, rng=gen).values
    params = PrivateExpanderSketch(FINALIZE_DOMAIN, FINALIZE_EPSILON
                                   ).public_params(FINALIZE_USERS, rng=gen)
    return params, values, gen


def _expander_aggregate(workload):
    """The workload's windowed aggregate (one epoch), built once by
    streaming the encoded reports (untimed), plus the bytes of those
    reports as binary ``reports`` frames."""
    from repro.engine import encode_stream
    from repro.server import encode_reports_frame
    from repro.server.window import WindowedAggregator

    params, values, gen = workload
    windowed = WindowedAggregator(params)
    wire_bytes = 0
    for batch in encode_stream(params, values, rng=gen):
        windowed.absorb_batch(batch)
        wire_bytes += len(encode_reports_frame(batch, 0))
    return params, windowed, wire_bytes


def run_wire_bench(aggregate) -> Dict[str, object]:
    """The expander sketch's row of the wire ceiling: the frames of the
    aggregate's reports, in bytes per report, next to ``report_bits``."""
    params, _, wire_bytes = aggregate
    return {"protocol": "expander_sketch", "num_users": FINALIZE_USERS,
            "domain_size": FINALIZE_DOMAIN, "epsilon": FINALIZE_EPSILON,
            "report_bits": int(params.report_bits),
            "wire_bytes": int(wire_bytes),
            "wire_bytes_per_report": round(wire_bytes / FINALIZE_USERS, 4)}


def _best_s(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _traced_peak_bytes(fn) -> int:
    """Bytes ``fn()`` allocated at its worst moment (tracemalloc sees
    numpy's array buffers); run untimed, tracing slows every allocation."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def run_finalize_bench(aggregate, repeats: int = 3) -> Dict[str, object]:
    """Time ``ExpanderSketchAggregator.finalize`` in decoded cells/s.

    Each repeat finalizes the aggregate from scratch and ``finalize_s`` is
    the best of ``repeats``.  Decoded cells are the Hadamard outputs of
    every stage-1 coordinate accumulator (``num_coordinates *
    num_cells``), the work that dominates finalize.
    """
    params, windowed, _ = aggregate
    best = _best_s(windowed.merged().finalize, repeats)
    cells = params.params.num_coordinates * params.num_cells
    return {"protocol": "expander_sketch", "num_users": FINALIZE_USERS,
            "domain_size": FINALIZE_DOMAIN, "epsilon": FINALIZE_EPSILON,
            "decoded_cells": int(cells), "finalize_s": round(best, 4),
            "cells_per_s": int(cells / max(best, 1e-9))}


def run_checkpoint_bench(aggregate, repeats: int = 3) -> Dict[str, object]:
    """Time a shard checkpoint's body in state cells/s.

    The body is what the server runs per ``snapshot`` frame, on its event
    loop, before the disk write: the windowed capture of the live counts
    plus ``pack_state`` into the binary container.  ``checkpoint_s`` is
    the best of ``repeats``; ``peak_bytes`` is what one body allocates.
    """
    from repro.protocol.binary import pack_state

    _, windowed, _ = aggregate

    def body():
        return pack_state(windowed.capture())

    best = _best_s(body, repeats)
    cells = windowed.state_size
    peak = _traced_peak_bytes(body)
    return {"protocol": "expander_sketch", "num_users": FINALIZE_USERS,
            "domain_size": FINALIZE_DOMAIN, "epsilon": FINALIZE_EPSILON,
            "state_cells": int(cells), "checkpoint_s": round(best, 4),
            "cells_per_s": int(cells / max(best, 1e-9)),
            "peak_bytes": int(peak),
            "peak_bytes_per_cell": round(peak / max(cells, 1), 4)}


#: shards whose replies one ``state_pull`` repeat packs, decodes and sums
STATE_PULL_SHARDS = 2


def run_state_pull_bench(aggregate, repeats: int = 3) -> Dict[str, object]:
    """Time a cluster state pull in state cells/s.

    One repeat is the query path of a ``STATE_PULL_SHARDS``-shard cluster
    whose shards each hold the aggregate: per shard, the ``state`` reply
    packed into its kind-2 frame (what the shard runs) and the frame read
    with its counts left in the wire columns (what the router's read
    runs), then every reply summed into the router's one merged vector.
    ``state_pull_s`` is the best of ``repeats``; cells are the state cells
    of every pulled reply; ``peak_bytes`` is what one pull allocates.
    """
    from repro.protocol.binary import fold_states
    from repro.server.framing import decode_frame, encode_state_frame
    from repro.server.service import state_reply

    params, windowed, _ = aggregate
    merged = windowed.merged()
    epochs = windowed.epochs

    def pull():
        states = [decode_frame(encode_state_frame(
            state_reply(merged, epochs))[4:], arrays=False)["state"]
            for _ in range(STATE_PULL_SHARDS)]
        return fold_states(params, states)

    best = _best_s(pull, repeats)
    cells = windowed.state_size * STATE_PULL_SHARDS
    peak = _traced_peak_bytes(pull)
    return {"protocol": "expander_sketch", "num_users": FINALIZE_USERS,
            "domain_size": FINALIZE_DOMAIN, "epsilon": FINALIZE_EPSILON,
            "shards": STATE_PULL_SHARDS, "state_cells": int(cells),
            "state_pull_s": round(best, 4),
            "cells_per_s": int(cells / max(best, 1e-9)),
            "peak_bytes": int(peak),
            "peak_bytes_per_cell": round(peak / max(cells, 1), 4)}


def run_encode_bench(workload, repeats: int = 3) -> Dict[str, object]:
    """Time the PrivateExpanderSketch client encode in reports/s.

    Each repeat runs ``encode_stream`` over every report of the workload
    (the engine's chunk plan, every chunk's encoder output materialized);
    ``encode_s`` is the best of ``repeats``.
    """
    from repro.engine import encode_stream

    params, values, _ = workload

    def encode_all():
        for _batch in encode_stream(params, values,
                                    rng=np.random.default_rng(SEED)):
            pass

    best = _best_s(encode_all, repeats)
    return {"protocol": "expander_sketch", "num_users": FINALIZE_USERS,
            "domain_size": FINALIZE_DOMAIN, "epsilon": FINALIZE_EPSILON,
            "encode_s": round(best, 4),
            "reports_per_s": int(FINALIZE_USERS / max(best, 1e-9))}


def _report_rows(payload: Dict[str, object]) -> List[Dict[str, object]]:
    return list(payload["results"])


#: CI regression gate: measured throughput may drop at most this fraction
#: below the committed BENCH_baseline.json figure before the gate fails
MAX_THROUGHPUT_DROP = 0.40


def check_throughput_regression(payload: Dict[str, object],
                                baseline: Dict[str, object],
                                max_drop: float = None) -> List[str]:
    """CI gate: binary-format ingest must stay within ``max_drop`` of baseline.

    ``baseline`` is the committed ``BENCH_baseline.json``: per protocol, the
    reference ``reports_per_s`` for each wire format under ``"server"``.
    Only throughput *drops* fail — faster hosts pass trivially; the gate
    exists so a change that tanks the zero-copy ingest path (4.3× faster
    than the JSON frames it replaced) cannot land silently.  Returns the
    violations (empty = ok).
    """
    if max_drop is None:
        max_drop = float(baseline.get("max_drop", MAX_THROUGHPUT_DROP))
    measured: Dict[str, Dict[str, float]] = {}
    for row in payload["results"]:
        measured.setdefault(str(row["protocol"]), {})[
            str(row.get("wire_format", "binary"))] = float(row["reports_per_s"])
    failures = []
    for protocol, formats in dict(baseline.get("server", {})).items():
        for wire_format, reference in dict(formats).items():
            floor = (1.0 - max_drop) * float(reference)
            got = measured.get(protocol, {}).get(wire_format)
            if got is None:
                failures.append(f"{protocol}/{wire_format}: no measured row "
                                f"(baseline {reference:,.0f} reports/s)")
            elif got < floor:
                failures.append(
                    f"{protocol}/{wire_format}: ingest throughput regressed "
                    f"to {got:,.0f} reports/s (< {floor:,.0f}; baseline "
                    f"{float(reference):,.0f}, max drop {max_drop:.0%})")
    return failures


def check_engine_regression(payload: Dict[str, object],
                            baseline: Dict[str, object],
                            max_drop: float = None) -> List[str]:
    """Same gate for ``BENCH_engine.json``: 1-worker engine throughput."""
    if max_drop is None:
        max_drop = float(baseline.get("max_drop", MAX_THROUGHPUT_DROP))
    measured: Dict[str, float] = {}
    for row in payload["results"]:
        if int(row.get("workers", 0)) == 1:
            measured[str(row["protocol"])] = float(row["reports_per_s"])
    failures = []
    for protocol, reference in dict(baseline.get("engine", {})).items():
        floor = (1.0 - max_drop) * float(reference)
        got = measured.get(protocol)
        if got is None:
            failures.append(f"engine/{protocol}: no measured 1-worker row "
                            f"(baseline {float(reference):,.0f} reports/s)")
        elif got < floor:
            failures.append(
                f"engine/{protocol}: 1-worker throughput regressed to "
                f"{got:,.0f} reports/s (< {floor:,.0f}; baseline "
                f"{float(reference):,.0f}, max drop {max_drop:.0%})")
    return failures


def _check_section_regression(section: str, payload: Dict[str, object],
                              baseline: Dict[str, object],
                              max_drop: Optional[float],
                              rate_key: str = "cells_per_s",
                              unit: str = "cells/s") -> List[str]:
    """Gate the payload's ``section`` rows (``rate_key``) against the
    baseline's ``section`` floors.  A payload without the section is not
    gated on it; :func:`main` always writes one."""
    if max_drop is None:
        max_drop = float(baseline.get("max_drop", MAX_THROUGHPUT_DROP))
    measured = dict(payload.get(section, {}))
    if not measured:
        return []
    failures = []
    for protocol, reference in dict(baseline.get(section, {})).items():
        floor = (1.0 - max_drop) * float(reference)
        row = measured.get(protocol)
        if row is None:
            failures.append(f"{section}/{protocol}: no measured row "
                            f"(baseline {float(reference):,.0f} {unit})")
        elif float(row[rate_key]) < floor:
            failures.append(
                f"{section}/{protocol}: {section} throughput regressed to "
                f"{float(row[rate_key]):,.0f} {unit} (< {floor:,.0f}; "
                f"baseline {float(reference):,.0f}, max drop {max_drop:.0%})")
    return failures


def check_finalize_regression(payload: Dict[str, object],
                              baseline: Dict[str, object],
                              max_drop: float = None) -> List[str]:
    """Gate the ``finalize`` rows (decoded stage-1 cells/s)."""
    return _check_section_regression("finalize", payload, baseline, max_drop)


def check_checkpoint_regression(payload: Dict[str, object],
                                baseline: Dict[str, object],
                                max_drop: float = None) -> List[str]:
    """Gate the ``checkpoint`` rows (captured and packed state cells/s)."""
    return _check_section_regression("checkpoint", payload, baseline,
                                     max_drop)


def check_encode_regression(payload: Dict[str, object],
                            baseline: Dict[str, object],
                            max_drop: float = None) -> List[str]:
    """Gate the ``encode`` rows (client-encoded reports/s)."""
    return _check_section_regression("encode", payload, baseline, max_drop,
                                     rate_key="reports_per_s",
                                     unit="reports/s")


def check_state_pull_regression(payload: Dict[str, object],
                                baseline: Dict[str, object],
                                max_drop: float = None) -> List[str]:
    """Gate the ``state_pull`` rows (packed, decoded and summed state
    cells/s)."""
    return _check_section_regression("state_pull", payload, baseline,
                                     max_drop)


def check_peak_memory(payload: Dict[str, object],
                      baseline: Dict[str, object]) -> List[str]:
    """Gate the traced peaks of the ``checkpoint`` and ``state_pull``
    rows: ``peak_bytes`` per state cell may not pass the baseline's
    ``peak_bytes_per_cell`` ceiling for that section.  A payload without
    the section is not gated on it.  Like the wire ceiling it is absolute:
    an allocation does not depend on the host's speed."""
    failures = []
    for section, ceilings in dict(
            baseline.get("peak_bytes_per_cell", {})).items():
        measured = dict(payload.get(section, {}))
        if not measured:
            continue
        for protocol, ceiling in dict(ceilings).items():
            row = measured.get(protocol)
            if row is None or "peak_bytes" not in row:
                failures.append(f"{section}/{protocol}: no traced peak_bytes "
                                f"(ceiling {float(ceiling)} B per cell)")
                continue
            got = int(row["peak_bytes"]) / max(int(row["state_cells"]), 1)
            if got > float(ceiling):
                failures.append(
                    f"{section}/{protocol}: traced peak of {got:.3f} B per "
                    f"state cell (ceiling {float(ceiling)} B)")
    return failures


def check_transport_regression(payload: Dict[str, object],
                               baseline: Dict[str, object],
                               max_drop: float = None) -> List[str]:
    """Gate for ``BENCH_transport.json`` (the transport-matrix artifact).

    Two checks against the baseline's ``"transport"`` section: per-backend
    wire-throughput floors (``reports_per_s``, with the usual ``max_drop``
    headroom), and the headline structural claim — the same-host shm ring
    must move frames at least ``min_shm_speedup_vs_tcp`` times faster than
    TCP loopback.  The ratio is same-run shm/tcp, so host-wide noise that
    slows both backends together cannot fail it.  Returns the violations
    (empty = ok).
    """
    if max_drop is None:
        max_drop = float(baseline.get("max_drop", MAX_THROUGHPUT_DROP))
    spec = dict(baseline.get("transport", {}))
    if not spec:
        return []
    measured: Dict[str, float] = {
        str(row["transport"]): float(row["reports_per_s"])
        for row in payload["results"]}
    failures = []
    for transport, reference in dict(spec.get("reports_per_s", {})).items():
        floor = (1.0 - max_drop) * float(reference)
        got = measured.get(transport)
        if got is None:
            failures.append(f"transport/{transport}: no measured row "
                            f"(baseline {float(reference):,.0f} reports/s)")
        elif got < floor:
            failures.append(
                f"transport/{transport}: wire throughput regressed to "
                f"{got:,.0f} reports/s (< {floor:,.0f}; baseline "
                f"{float(reference):,.0f}, max drop {max_drop:.0%})")
    min_speedup = spec.get("min_shm_speedup_vs_tcp")
    if min_speedup is not None:
        if "tcp" in measured and "shm" in measured:
            speedup = measured["shm"] / max(measured["tcp"], 1e-9)
            if speedup < float(min_speedup):
                failures.append(
                    f"transport/shm: only {speedup:.2f}x faster than TCP "
                    f"loopback (required >= {float(min_speedup)}x)")
        else:
            failures.append("transport: speedup gate needs both a tcp and "
                            f"an shm row (have {sorted(measured)})")
    for row in payload["results"]:
        if not row.get("identical_to_offline_engine", False):
            failures.append(f"transport/{row['transport']}: served estimates "
                            f"diverged from the offline engine")
    return failures


def check_wire_shrink(payload: Dict[str, object],
                      baseline: Dict[str, object]) -> List[str]:
    """CI gate: per protocol, the frames may carry at most the baseline's
    ``wire_bytes_per_report`` ceiling, read from the ingest ``results``
    rows and the ``wire`` section (the expander sketch's frames).  Returns
    the violations (empty = ok).

    A report's wire size is deterministic for a fixed workload, so the
    ceiling is absolute: no ``max_drop`` headroom applies.
    """
    rows = [*payload["results"], *dict(payload.get("wire", {})).values()]
    measured = {str(row["protocol"]):
                int(row["wire_bytes"]) / max(int(row["num_users"]), 1)
                for row in rows if "wire_bytes" in row}
    failures = []
    for protocol, ceiling in dict(
            baseline.get("wire_bytes_per_report", {})).items():
        got = measured.get(protocol)
        if got is None:
            failures.append(f"{protocol}: no measured wire_bytes row "
                            f"(ceiling {float(ceiling)} B per report)")
        elif got > float(ceiling):
            failures.append(
                f"{protocol}: frames carry {got:.4f} B per report "
                f"(ceiling {float(ceiling)} B)")
    return failures


def test_server_ingest(benchmark):
    """CI smoke: served estimates stay bit-identical, ingest makes
    progress, and the frames stay under the committed wire ceiling."""
    from conftest import report, run_once

    baseline = json.loads((Path(__file__).resolve().parent.parent
                           / "BENCH_baseline.json").read_text())

    payload = run_once(benchmark, run_server_ingest_bench,
                       num_users=200_000, repeats=1)
    wire = run_wire_bench(_expander_aggregate(_expander_workload()))
    payload["wire"] = {wire["protocol"]: wire}
    rows = _report_rows(payload)
    report(benchmark, "W3: server wire-ingest throughput", rows)
    for row in rows:
        assert row["identical_to_offline_engine"], row
        assert row["reports_per_s"] > 0
    assert not check_wire_shrink(payload, baseline)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-users", type=int, default=NUM_USERS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--protocols", default="hashtogram")
    parser.add_argument("--output", default="BENCH_server.json")
    parser.add_argument("--check", metavar="BENCH_JSON", default=None,
                        help="do not run the benchmark; verify an existing "
                             "payload against the gates of --baseline and "
                             "exit")
    parser.add_argument("--baseline", metavar="BASELINE_JSON", default=None,
                        help="committed BENCH_baseline.json to gate --check "
                             "against: the wire-bytes ceiling, and "
                             "throughput, finalize, checkpoint, encode and "
                             "state-pull rates (fails on a drop larger than "
                             "the baseline's max_drop, default 40%%), and "
                             "the checkpoint and state-pull peak bytes per "
                             "state cell")
    parser.add_argument("--engine", metavar="BENCH_ENGINE_JSON", default=None,
                        help="also gate this BENCH_engine.json payload "
                             "against the baseline's engine numbers "
                             "(requires --check and --baseline)")
    parser.add_argument("--transport-matrix", metavar="BENCH_TRANSPORT_JSON",
                        default=None,
                        help="also gate this BENCH_transport.json payload "
                             "against the baseline's transport floors and "
                             "the shm-vs-tcp speedup (requires --check and "
                             "--baseline)")
    args = parser.parse_args(argv)

    if args.check is not None:
        if args.baseline is None:
            print("bench_server_ingest --check: requires --baseline",
                  file=sys.stderr)
            return 2
        payload = json.loads(Path(args.check).read_text())
        baseline = json.loads(Path(args.baseline).read_text())
        failures = check_wire_shrink(payload, baseline)
        failures += check_throughput_regression(payload, baseline)
        failures += check_finalize_regression(payload, baseline)
        failures += check_checkpoint_regression(payload, baseline)
        failures += check_encode_regression(payload, baseline)
        failures += check_state_pull_regression(payload, baseline)
        failures += check_peak_memory(payload, baseline)
        if args.engine is not None:
            engine_payload = json.loads(Path(args.engine).read_text())
            failures += check_engine_regression(engine_payload, baseline)
        if args.transport_matrix is not None:
            transport_payload = json.loads(
                Path(args.transport_matrix).read_text())
            failures += check_transport_regression(transport_payload,
                                                   baseline)
        for failure in failures:
            print(f"bench_server_ingest --check: {failure}", file=sys.stderr)
        print(f"bench_server_ingest --check: {args.check} "
              f"{'FAILED' if failures else 'ok'}")
        return 1 if failures else 0

    from repro.experiments import format_table

    payload = run_server_ingest_bench(
        protocols=[p.strip() for p in args.protocols.split(",") if p.strip()],
        num_users=args.num_users, repeats=args.repeats)
    workload = _expander_workload()
    aggregate = _expander_aggregate(workload)
    finalize = run_finalize_bench(aggregate, args.repeats)
    checkpoint = run_checkpoint_bench(aggregate, args.repeats)
    encode = run_encode_bench(workload, args.repeats)
    state_pull = run_state_pull_bench(aggregate, args.repeats)
    wire = run_wire_bench(aggregate)
    payload["wire"] = {wire["protocol"]: wire}
    payload["finalize"] = {finalize["protocol"]: finalize}
    payload["checkpoint"] = {checkpoint["protocol"]: checkpoint}
    payload["encode"] = {encode["protocol"]: encode}
    payload["state_pull"] = {state_pull["protocol"]: state_pull}
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(format_table(_report_rows(payload),
                       title=f"server ingest, n={args.num_users}, "
                             f"cpu_count={payload['host']['cpu_count']}"))
    print(format_table([finalize], title="expander-sketch finalize"))
    print(format_table([checkpoint], title="expander-sketch checkpoint"))
    print(format_table([encode], title="expander-sketch client encode"))
    print(format_table([state_pull], title="expander-sketch state pull"))
    print(format_table([wire], title="expander-sketch reports frames"))
    print(f"\nwrote {args.output}")
    if not all(row["identical_to_offline_engine"]
               for row in payload["results"]):
        print("bench_server_ingest: served estimates diverged from the "
              "offline engine", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
