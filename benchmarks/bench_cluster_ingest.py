"""Benchmark W4: sustained wire ingest through the sharded cluster tier.

Measures what the router adds on top of a single server: the routing peek
and a zero-copy check of each frame's column table, the verbatim
re-framed forward to the
owning shard, the per-shard journal append, and — on query — the
state-pull/exact-merge round across every shard.  One row per shard count
(1 = a plain ``serve`` process, the single-server reference; K > 1 = a
``serve-cluster`` router with K shard subprocesses) records end-to-end
ingest throughput and whether the served estimates stayed bit-identical to
the offline engine, which is the only regime in which the numbers mean
anything.

On a 1-core CI host every shard shares the core with the router and the
client, so the cluster rows measure *overhead*, not scaling; on a real
multicore host the shards absorb in parallel.  Run as a script to print
the table and write ``BENCH_cluster.json``::

    PYTHONPATH=src python benchmarks/bench_cluster_ingest.py

or under pytest-benchmark (CI smoke)::

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster_ingest.py --benchmark-only
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

NUM_USERS = 200_000
CHUNK_SIZE = 1 << 14
SHARD_COUNTS = (1, 2, 3)
TRANSPORTS = ("tcp", "shm")
SEED = 0


def run_cluster_ingest_bench(shard_counts: Sequence[int] = SHARD_COUNTS,
                             num_users: int = NUM_USERS,
                             domain_size: int = 1 << 16,
                             epsilon: float = 1.0, seed: int = SEED,
                             chunk_size: int = CHUNK_SIZE,
                             verify_queries: int = 64) -> Dict[str, object]:
    """Measure cluster wire ingest per shard count (1 = single server)."""
    from repro.cluster.supervisor import spawned_server
    from repro.engine import routed_stream, run_simulation, seeded_inputs
    from repro.server import AggregationClient, encode_reports_frame

    values, params, plan_seed = seeded_inputs("hashtogram", num_users,
                                              domain_size, epsilon, seed)
    batches, routes = routed_stream(params, values, rng=plan_seed,
                                    chunk_size=chunk_size)
    frames = b"".join(
        encode_reports_frame(batch, 0, route=route)
        for batch, route in zip(batches, routes, strict=True))
    queries = [int(x) for x in np.random.default_rng(0).integers(
        0, domain_size, size=verify_queries)]
    expected = run_simulation(
        params, values, rng=plan_seed,
        chunk_size=chunk_size).finalize().estimate_many(queries)

    results: List[Dict[str, object]] = []
    for shards in shard_counts:
        verb, extra = (("serve", ()) if shards == 1
                       else ("serve-cluster", ("--shards", str(shards))))
        with spawned_server(params, verb, extra) as server, \
                AggregationClient(server.host, server.port) as client:
            start_t = time.perf_counter()
            client.send_raw(frames)
            absorbed = client.sync()
            ingest_s = time.perf_counter() - start_t
            query_start = time.perf_counter()
            served = client.query(queries)
            query_s = time.perf_counter() - query_start
            client.shutdown()
            server.stopping = True
        if absorbed != num_users:
            raise RuntimeError(f"{shards} shard(s): absorbed {absorbed} of "
                               f"{num_users} reports")
        results.append({
            "shards": int(shards),
            "num_users": int(num_users),
            "num_frames": len(batches),
            "ingest_s": round(ingest_s, 4),
            "reports_per_s": int(num_users / max(ingest_s, 1e-9)),
            "merged_query_s": round(query_s, 4),
            "identical_to_offline_engine": bool(
                np.array_equal(served, expected)),
        })
    return {
        "benchmark": "cluster_ingest",
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
            "shard_counts": [int(s) for s in shard_counts],
        },
        "results": results,
    }


def _relay_main(address: str) -> int:
    """Frame-relay child for the transport matrix (internal --relay-serve).

    Serves the real frame protocol on ``address``, counts every frame it
    fully reads, and answers a ``{"type": "sync"}`` frame with the running
    totals.  No aggregation happens here on purpose: absorbing costs ~50 ns
    per report, which would drown the per-transport signal the matrix
    exists to measure.
    """
    import asyncio

    from repro import transport as transports
    from repro.server.framing import frame_bytes, read_frame_payload

    async def run() -> None:
        stop = asyncio.Event()

        async def handler(reader, writer) -> None:
            frames = 0
            received = 0
            while True:
                payload = await read_frame_payload(reader)
                if payload is None:
                    break
                if payload[:1] == b"{" and b'"sync"' in payload:
                    reply = json.dumps({"type": "synced", "frames": frames,
                                        "bytes": received}).encode()
                    writer.write(frame_bytes(reply))
                    await writer.drain()
                    continue
                frames += 1
                received += len(payload)
            stop.set()

        listener = await transports.serve(handler, address)
        print(f"RELAY {listener.address}", flush=True)
        await stop.wait()
        listener.close()
        await listener.wait_closed()

    asyncio.run(run())
    return 0


def _measure_wire(transport: str, blob: bytes, frames_per_pass: int,
                  repeats: int) -> List[float]:
    """Time ``repeats`` passes of ``blob`` through a frame-relay child."""
    import asyncio
    import subprocess

    from repro import transport as transports

    if transport == "shm":
        spec = f"shm://repro-wirebench-{os.getpid()}"
        # a ring the size of the payload never stalls mid-pass, so the
        # number measures the carrier, not this host's scheduler
        ring_bytes = 1 << max(16, (len(blob) + 65536).bit_length())
        options: Dict[str, object] = {"ring_bytes": ring_bytes}
    elif transport == "tcp":
        spec = "tcp://127.0.0.1:0"
        options = {}
    else:
        raise ValueError(f"unknown transport {transport!r} "
                         f"(expected one of {TRANSPORTS})")
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--relay-serve", spec],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        if not line.startswith("RELAY "):
            raise RuntimeError(f"relay child failed to start: {line!r}")
        address = line.split()[1]

        async def drive() -> List[float]:
            conn = await transports.dial(address, timeout=60.0, **options)
            times: List[float] = []
            try:
                for _ in range(repeats):
                    start_t = time.perf_counter()
                    conn.writer.write(blob)
                    await conn.writer.drain()
                    await conn.send(b'{"type": "sync"}')
                    reply = json.loads(await conn.recv(timeout=600.0))
                    times.append(time.perf_counter() - start_t)
                    if int(reply["frames"]) != len(times) * frames_per_pass:
                        raise RuntimeError(
                            f"{transport}: relay saw {reply['frames']} frames "
                            f"after {len(times)} passes of {frames_per_pass}")
            finally:
                conn.close()
                await conn.wait_closed()
            return times

        times = asyncio.run(drive())
        # the dial close above is the relay's EOF; let it unlink its
        # segments and exit on its own before reaching for SIGTERM
        proc.wait(timeout=10)
        return times
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=10)
        proc.stdout.close()


def run_transport_matrix_bench(transports: Sequence[str] = TRANSPORTS,
                               num_users: int = NUM_USERS,
                               domain_size: int = 1 << 16,
                               epsilon: float = 1.0, seed: int = SEED,
                               chunk_size: int = CHUNK_SIZE,
                               target_wire_mb: float = 64.0,
                               repeats: int = 5,
                               verify_queries: int = 64) -> Dict[str, object]:
    """Measure the transport data plane per backend, verified per backend.

    One row per registered backend (``tcp`` = asyncio loopback streams,
    ``shm`` = the same-host shared-memory ring pair of wire-protocol.md §9).
    Each row is two passes:

    * **verify** (untimed): the encoded report frames stream through a real
      ``serve`` process over that backend; the served estimates must be
      bit-identical to the offline engine.  Same frames, same aggregate, on
      every carrier.
    * **measure** (timed, best of ``repeats``): the same frame bytes —
      replicated up to ``target_wire_mb`` so the payload dwarfs the kernel's
      socket buffers — stream through a frame-relay child that reads every
      frame but absorbs nothing.  This times the carrier plus the framing
      layer, not the aggregation engine; it is the regime where the ring's
      no-syscall, no-context-switch design shows up (a payload that fits
      the socket buffers hides it).
    """
    import asyncio

    from repro.cluster.supervisor import spawned_server
    from repro.engine import encode_stream, run_simulation, seeded_inputs
    from repro.server import AsyncAggregationClient, encode_reports_frame

    values, params, plan_seed = seeded_inputs("hashtogram", num_users,
                                              domain_size, epsilon, seed)
    batches = list(encode_stream(params, values, rng=plan_seed,
                                 chunk_size=chunk_size))
    frames = b"".join(encode_reports_frame(batch, 0) for batch in batches)
    queries = [int(x) for x in np.random.default_rng(0).integers(
        0, domain_size, size=verify_queries)]
    expected = run_simulation(
        params, values, rng=plan_seed,
        chunk_size=chunk_size).finalize().estimate_many(queries)
    copies = max(1, -(-int(target_wire_mb * 1e6) // len(frames)))
    blob = frames * copies

    async def verify(address: str):
        client = await AsyncAggregationClient.dial(address, timeout=300.0)
        try:
            await client.send_raw(frames)
            absorbed = await client.sync()
            served = await client.query(queries)
            await client.shutdown()
        finally:
            await client.close()
        return absorbed, served

    results: List[Dict[str, object]] = []
    for transport in transports:
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r} "
                             f"(expected one of {TRANSPORTS})")
        name = f"repro-bench-{os.getpid()}-{len(results)}"
        extra = (("--transport", "shm", "--shm-name", name)
                 if transport == "shm" else ())
        with spawned_server(params, "serve", extra) as server:
            address = (f"shm://{name}" if transport == "shm"
                       else f"tcp://{server.host}:{server.port}")
            absorbed, served = asyncio.run(verify(address))
            server.stopping = True
        if absorbed != num_users:
            raise RuntimeError(f"{transport}: absorbed {absorbed} of "
                               f"{num_users} reports")
        wire_s = min(_measure_wire(transport, blob,
                                   len(batches) * copies, repeats))
        wire_reports = num_users * copies
        results.append({
            "transport": transport,
            "num_users": int(num_users),
            "num_frames": len(batches) * copies,
            "wire_mb": round(len(blob) / 1e6, 2),
            "repeats": int(repeats),
            "wire_s": round(wire_s, 4),
            "reports_per_s": int(wire_reports / max(wire_s, 1e-9)),
            "mb_per_s": round(len(blob) / 1e6 / max(wire_s, 1e-9), 1),
            "identical_to_offline_engine": bool(
                np.array_equal(served, expected)),
        })
    return {
        "benchmark": "transport_matrix",
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
            "target_wire_mb": float(target_wire_mb),
            "repeats": int(repeats),
            "transports": [str(t) for t in transports],
        },
        "results": results,
    }


def test_cluster_ingest(benchmark):
    """CI smoke: every shard count must stay bit-identical to the engine."""
    from conftest import report, run_once

    payload = run_once(benchmark, run_cluster_ingest_bench,
                       shard_counts=(1, 2), num_users=40_000)
    rows = list(payload["results"])
    report(benchmark, "W4: cluster wire-ingest throughput", rows)
    for row in rows:
        assert row["identical_to_offline_engine"], row
        assert row["reports_per_s"] > 0


def test_transport_matrix(benchmark):
    """CI smoke: every transport backend must stay bit-identical to the
    engine.  The speedup *floor* is gated separately against the committed
    baseline (``bench_server_ingest.py --check --transport-matrix``)."""
    from conftest import report, run_once

    payload = run_once(benchmark, run_transport_matrix_bench,
                       num_users=40_000, target_wire_mb=4.0, repeats=2)
    rows = list(payload["results"])
    report(benchmark, "W5: transport-matrix wire-ingest throughput", rows)
    assert [row["transport"] for row in rows] == list(TRANSPORTS)
    for row in rows:
        assert row["identical_to_offline_engine"], row
        assert row["reports_per_s"] > 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-users", type=int, default=NUM_USERS)
    parser.add_argument("--shards", default="1,2,3",
                        help="comma-separated shard counts (1 = one server)")
    parser.add_argument("--transport-matrix", action="store_true",
                        help="benchmark the transport data plane per backend "
                             "(tcp, shm) instead of shard counts; writes "
                             "BENCH_transport.json unless --output is given")
    parser.add_argument("--relay-serve", metavar="ADDRESS", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--output", default=None,
                        help="output JSON path (default BENCH_cluster.json, "
                             "or BENCH_transport.json with "
                             "--transport-matrix)")
    args = parser.parse_args(argv)

    if args.relay_serve is not None:
        return _relay_main(args.relay_serve)

    from repro.experiments import format_table

    if args.transport_matrix:
        output = args.output or "BENCH_transport.json"
        payload = run_transport_matrix_bench(num_users=args.num_users)
        Path(output).write_text(json.dumps(payload, indent=2) + "\n")
        print(format_table(list(payload["results"]),
                           title=f"transport matrix, n={args.num_users}, "
                                 f"cpu_count={payload['host']['cpu_count']}"))
        print(f"\nwrote {output}")
        if not all(row["identical_to_offline_engine"]
                   for row in payload["results"]):
            print("bench_cluster_ingest: served estimates diverged from the "
                  "offline engine", file=sys.stderr)
            return 1
        return 0

    try:
        shard_counts = [int(s) for s in args.shards.split(",") if s.strip()]
    except ValueError:
        print("bench_cluster_ingest: --shards must be a comma-separated "
              "list of integers", file=sys.stderr)
        return 2
    output = args.output or "BENCH_cluster.json"
    payload = run_cluster_ingest_bench(shard_counts=shard_counts,
                                       num_users=args.num_users)
    Path(output).write_text(json.dumps(payload, indent=2) + "\n")
    print(format_table(list(payload["results"]),
                       title=f"cluster ingest, n={args.num_users}, "
                             f"cpu_count={payload['host']['cpu_count']}"))
    print(f"\nwrote {output}")
    if not all(row["identical_to_offline_engine"]
               for row in payload["results"]):
        print("bench_cluster_ingest: served estimates diverged from the "
              "offline engine", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
