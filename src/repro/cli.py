"""Command-line interface for running the reproduction's experiments.

Usage (after ``pip install -e .``)::

    python -m repro.cli list                    # show the available experiments
    python -m repro.cli run table1              # regenerate Table 1
    python -m repro.cli run grouposition        # Section 4 experiment
    python -m repro.cli run table1 --quick      # smaller, faster configuration
    python -m repro.cli quickstart              # the README quickstart, end to end
    python -m repro.cli simulate --shards 4     # sharded wire-API aggregation
    python -m repro.cli simulate --workers 4    # multiprocess engine simulation
    python -m repro.cli bench                   # engine scaling -> BENCH_engine.json
    python -m repro.cli serve --port 7071       # asyncio report-ingestion server
    python -m repro.cli serve-cluster --shards 3    # router + 3 shard servers
    python -m repro.cli load-test --users 100000 --workers 4
    python -m repro.cli load-test --cluster 3   # sharded cluster, bit-identical
    python -m repro.cli load-test --cluster 2 --transport shm  # shm shard links
    python -m repro.cli load-test --cluster 2 --epochs 4 \
        --membership add:0.33,drain:0.66        # grow + drain mid-stream
    python -m repro.cli cluster-ctl add-shard --server 127.0.0.1:7070
    python -m repro.cli cluster-ctl drain-shard --shard 0 --server 127.0.0.1:7070
    python -m repro.cli cluster-ctl rolling-restart --server 127.0.0.1:7070
    python -m repro.cli chaos-test --membership --transport shm
    python -m repro.cli matrix list             # YAML experiment matrices
    python -m repro.cli matrix run experiments/configs/quick.yaml
    python -m repro.cli matrix render experiments/configs/paper.yaml --quick
    python -m repro.cli --list-modules          # module map (checked against docs)

``run`` prints the same tables that ``pytest benchmarks/ --benchmark-only``
produces; the quick configurations (``--quick``) are what the matrix
runner's paper config (``matrix render experiments/configs/paper.yaml
--quick``) records in EXPERIMENTS.md at the repository root.

``matrix`` is the YAML-driven sweep harness (:mod:`repro.experiments.matrix`):
a config declares axes (protocol x epsilon x domain size x distribution x
workers x shards x wire format x transport), each expanded cell runs the
offline engine and — for cells with shards >= 1 — a live server or cluster
that must answer bit-identically; committed tables land under
``docs/experiments/`` and are drift-checked in CI (see docs/experiments.md).

``simulate`` drives the client/server wire API end to end: publish public
parameters, encode one report per user, ingest the report stream, merge, and
estimate.  ``--shards K`` scatters the reports over K in-process shard
aggregators; ``--workers N`` runs the multiprocess engine
(:mod:`repro.engine`) instead — its estimates are bit-identical for every N
under the same seed.  ``bench`` sweeps the engine over worker counts and
writes the measured throughput to ``BENCH_engine.json``.

``serve`` runs the long-lived asyncio ingestion service
(:mod:`repro.server`): it publishes its parameters to any connecting client,
drains report frames through a bounded queue, answers live queries, and
checkpoints durable snapshots.  ``load-test`` spawns such a server, drives
the engine's canonical chunk stream at it over ``--workers`` concurrent
connections, and verifies the *served* estimates are bit-identical to the
offline :func:`repro.engine.run_simulation` reference under the same seed.
Reports travel as the zero-copy binary columnar frames of
``docs/wire-protocol.md`` §8.

``serve-cluster`` scales ``serve`` horizontally (:mod:`repro.cluster`): a
router process hash-partitions ``reports`` frames across ``--shards``
freshly spawned shard servers, answers queries by pulling and exactly
merging every shard's integer state, and restarts a dead shard from its
snapshot (replaying the router's frame journal).  ``load-test --cluster K``
drives such a cluster through the very same client code path and asserts
the served estimates still equal the offline engine bit for bit.

The ``--list-modules`` flag (usable without a subcommand) prints the package
module map; with ``--check docs/architecture.md`` it verifies the map
embedded in the architecture document has not drifted (CI runs this).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Every verb imports what it runs when it is dispatched, so a `serve` or
# `serve-cluster` process never loads the experiment drivers (nor scipy).


def _table1(quick: bool):
    from repro.experiments import Table1Config, run_table1

    config = Table1Config()
    if quick:
        config = Table1Config(num_users=15_000, domain_size=1 << 16,
                              scan_domain_size=1 << 10,
                              heavy_fractions=[0.35, 0.25])
    return [("T1: Table 1 (measured)", run_table1(config))]


def _error_vs_beta(quick: bool):
    from repro.experiments import ErrorCurveConfig, run_error_vs_beta

    config = ErrorCurveConfig()
    if quick:
        config = ErrorCurveConfig(num_users=15_000, domain_size=1 << 16,
                                  betas=[0.2, 0.01],
                                  probe_fractions=[0.12, 0.2, 0.3])
    return [("E1: detection threshold vs beta", run_error_vs_beta(config))]


def _error_vs_n(quick: bool):
    from repro.experiments import ErrorCurveConfig, run_error_vs_n

    config = ErrorCurveConfig()
    if quick:
        config = ErrorCurveConfig(domain_size=1 << 16,
                                  num_users_sweep=[8_000, 16_000])
    return [("E2: error vs n", run_error_vs_n(config))]


def _error_vs_epsilon(quick: bool):
    from repro.experiments import ErrorCurveConfig, run_error_vs_epsilon

    config = ErrorCurveConfig()
    if quick:
        config = ErrorCurveConfig(num_users=15_000, domain_size=1 << 16,
                                  epsilon_sweep=[2.0, 8.0])
    return [("E3: error vs epsilon", run_error_vs_epsilon(config))]


def _frequency_oracle(quick: bool):
    from repro.experiments import FrequencyOracleConfig, run_frequency_oracle

    config = FrequencyOracleConfig()
    if quick:
        config = FrequencyOracleConfig(num_users=8_000,
                                       domain_sizes=[1 << 8, 1 << 14],
                                       num_queries=60)
    return [("E4: frequency-oracle error", run_frequency_oracle(config))]


def _grouposition(quick: bool):
    from repro.experiments import GroupositionConfig, run_grouposition

    config = GroupositionConfig()
    if quick:
        config = GroupositionConfig(group_sizes=[4, 64, 256], num_samples=8_000)
    return [("E5: advanced grouposition", run_grouposition(config))]


def _max_information(quick: bool):
    from repro.experiments import MaxInformationConfig, run_max_information

    config = MaxInformationConfig()
    if quick:
        config = MaxInformationConfig(num_users_sweep=[100, 1_000],
                                      empirical_users=60,
                                      empirical_samples=500)
    return [("E6: max-information", run_max_information(config))]


def _composed_rr(quick: bool):
    from repro.experiments import ComposedRRConfig, run_composed_rr

    config = ComposedRRConfig()
    if quick:
        config = ComposedRRConfig(num_bits_sweep=[8, 32, 128])
    return [("E7: composed randomized response", run_composed_rr(config))]


def _genprot(quick: bool):
    from repro.experiments import GenProtConfig, run_genprot

    config = GenProtConfig()
    if quick:
        config = GenProtConfig(num_users=800, privacy_trials=800)
    return [("E8: GenProt transformation", run_genprot(config))]


def _lower_bound(quick: bool):
    from repro.experiments import LowerBoundConfig, run_lower_bound

    config = LowerBoundConfig()
    if quick:
        config = LowerBoundConfig(num_users=3_000, num_trials=80,
                                  betas=[0.3, 0.1], anticoncentration_bits=200)
    results = run_lower_bound(config)
    return [("E9a: counting lower bound", results["counting"]),
            ("E9b: anti-concentration", results["anti_concentration"])]


def _list_recovery(quick: bool):
    from repro.experiments import ListRecoveryConfig, run_list_recovery

    config = ListRecoveryConfig()
    if quick:
        config = ListRecoveryConfig(num_coordinates=10, num_codewords=3,
                                    corrupted_fractions=[0.0, 0.2, 0.5],
                                    num_trials=2)
    return [("E10: list recovery", run_list_recovery(config))]


def _ablation_hashing(quick: bool):
    from repro.experiments import HashingAblationConfig, run_hashing_ablation

    config = HashingAblationConfig()
    if quick:
        config = HashingAblationConfig(num_users=15_000, domain_size=1 << 16,
                                       betas=[0.2, 0.02],
                                       heavy_fractions=[0.35, 0.25])
    return [("A1: hashing-structure ablation", run_hashing_ablation(config))]


def _ablation_hashtogram(quick: bool):
    from repro.experiments import (
        HashtogramAblationConfig,
        run_hashtogram_ablation,
    )

    config = HashtogramAblationConfig()
    if quick:
        config = HashtogramAblationConfig(num_users=6_000, domain_size=1 << 14,
                                          bucket_counts=[32, 256],
                                          repetition_counts=[1, 5],
                                          num_queries=40)
    return [("A2: Hashtogram ablation", run_hashtogram_ablation(config))]


#: experiment name -> (description, runner)
EXPERIMENTS: Dict[str, Tuple[str, Callable[[bool], List[Tuple[str, list]]]]] = {
    "table1": ("Table 1 protocol comparison (T1)", _table1),
    "error-vs-beta": ("Detection threshold vs failure probability (E1)", _error_vs_beta),
    "error-vs-n": ("Estimation error vs number of users (E2)", _error_vs_n),
    "error-vs-epsilon": ("Estimation error vs privacy parameter (E3)", _error_vs_epsilon),
    "frequency-oracle": ("Frequency-oracle accuracy (E4)", _frequency_oracle),
    "grouposition": ("Advanced grouposition (E5)", _grouposition),
    "max-information": ("Max-information bounds (E6)", _max_information),
    "composed-rr": ("Composition for randomized response (E7)", _composed_rr),
    "genprot": ("GenProt approximate-to-pure transformation (E8)", _genprot),
    "lower-bound": ("Error lower bound and anti-concentration (E9)", _lower_bound),
    "list-recovery": ("Unique list recovery under corruption (E10)", _list_recovery),
    "ablation-hashing": ("Hashing-structure ablation (A1)", _ablation_hashing),
    "ablation-hashtogram": ("Hashtogram bucket/repetition ablation (A2)", _ablation_hashtogram),
}


def _cmd_list(_args) -> int:
    print("available experiments:")
    for name, (description, _) in EXPERIMENTS.items():
        print(f"  {name:<22s} {description}")
    return 0


def _cmd_run(args) -> int:
    name = args.experiment
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; use `list` to see the options",
              file=sys.stderr)
        return 2
    from repro.experiments.reporting import format_table

    _, runner = EXPERIMENTS[name]
    for title, rows in runner(args.quick):
        print()
        print(format_table(rows, title=title))
    return 0


def _cmd_simulate(args) -> int:
    """Drive the wire API: params -> encode -> (sharded | multiprocess) -> merge."""
    import time

    from repro.analysis.metrics import true_frequencies
    from repro.engine import run_simulation
    from repro.engine.bench import build_bench_params
    from repro.experiments.reporting import format_table
    from repro.protocol import merge_aggregators
    from repro.utils.rng import as_generator
    from repro.workloads.distributions import zipf_workload

    if args.shards is not None and args.workers is not None:
        print("simulate: --shards (in-process) and --workers (multiprocess "
              "engine) are mutually exclusive", file=sys.stderr)
        return 2
    shards = args.shards if args.shards is not None else 4
    if shards < 1:
        print("simulate: --shards must be at least 1", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("simulate: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.num_users < 1:
        print("simulate: --num-users must be at least 1", file=sys.stderr)
        return 2

    gen = as_generator(args.seed)
    domain_size = args.domain_size
    values = zipf_workload(args.num_users, domain_size,
                           support=min(2_000, domain_size), rng=gen)
    params = build_bench_params(args.protocol, domain_size, args.epsilon,
                                args.num_users, rng=gen)

    if args.workers is not None:
        # Multiprocess engine: the chunk plan and per-chunk seeds are drawn
        # from `gen` before any work is scheduled, so the estimates are
        # bit-identical for every --workers value.
        result = run_simulation(params, values, rng=gen, workers=args.workers)
        oracle = result.finalize()
        mode = (f"{args.workers} engine worker(s), "
                f"{result.num_chunks} chunk(s)")
        timing = (f"engine encode+ingest: {result.ingest_s:.3f}s; merge: "
                  f"{result.merge_s:.3f}s ({result.reports_per_s:,.0f} reports/s)")
    else:
        encode_start = time.perf_counter()
        batch = params.make_encoder().encode_batch(values, gen)
        encode_elapsed = time.perf_counter() - encode_start

        shard_aggs = [params.make_aggregator() for _ in range(shards)]
        ingest_start = time.perf_counter()
        for shard_agg, part in zip(shard_aggs, batch.split(shards), strict=True):
            shard_agg.absorb_batch(part)
        ingest_elapsed = time.perf_counter() - ingest_start
        oracle = merge_aggregators(shard_aggs).finalize()
        mode = f"{shards} shard(s)"
        throughput = args.num_users / max(ingest_elapsed, 1e-9)
        timing = (f"client encoding: {encode_elapsed:.3f}s; sharded ingestion: "
                  f"{ingest_elapsed:.3f}s ({throughput:,.0f} reports/s)")

    truth = true_frequencies(values)
    top = sorted(truth.items(), key=lambda kv: -kv[1])[:5]
    queries = [x for x, _ in top]
    estimates = oracle.estimate_many(queries)
    rows = [{"item": x, "true_count": truth[x], "estimate": round(float(a), 1)}
            for x, a in zip(queries, estimates, strict=True)]
    print(format_table(rows, title=(
        f"simulate: {args.protocol} over {mode}, "
        f"n={args.num_users}, |X|={domain_size}, eps={args.epsilon}")))
    print(f"\nreport size: {params.report_bits:.1f} bits/user; "
          f"server state: {oracle.server_state_size} scalars")
    print(timing)
    return 0


def _cmd_bench(args) -> int:
    """Engine scaling sweep; writes the measured payload to BENCH_engine.json."""
    import json
    from pathlib import Path

    from repro.engine.bench import BENCH_PROTOCOLS, run_engine_bench
    from repro.experiments.reporting import format_table

    try:
        worker_counts = [int(w) for w in args.workers.split(",") if w.strip()]
    except ValueError:
        print("bench: --workers must be a comma-separated list of integers",
              file=sys.stderr)
        return 2
    if not worker_counts or any(w < 1 for w in worker_counts):
        print("bench: worker counts must be positive", file=sys.stderr)
        return 2
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    unknown = [p for p in protocols if p not in BENCH_PROTOCOLS]
    if not protocols or unknown:
        print(f"bench: --protocols must be a non-empty subset of "
              f"{','.join(BENCH_PROTOCOLS)}" +
              (f" (got {','.join(unknown)})" if unknown else ""),
              file=sys.stderr)
        return 2

    payload = run_engine_bench(protocols=protocols, worker_counts=worker_counts,
                               num_users=args.num_users,
                               domain_size=args.domain_size,
                               epsilon=args.epsilon, seed=args.seed,
                               repeats=args.repeats)
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")

    print(format_table(payload["results"], title=(
        f"bench: engine scaling, n={args.num_users}, |X|={args.domain_size}, "
        f"eps={args.epsilon}, cpu_count={payload['host']['cpu_count']}")))
    print(f"\nwrote {output}")
    if not all(row["identical_to_1_worker"] for row in payload["results"]):
        print("bench: parallel estimates diverged from the 1-worker run",
              file=sys.stderr)
        return 1
    return 0


@contextlib.asynccontextmanager
async def _sigterm_stops(stop: Callable[[], None]):
    """Route SIGTERM to ``stop`` (the graceful path of a ``shutdown`` frame)
    while the block runs.

    The loop's handler is removed, and SIGTERM ignored, before the block's
    coroutine returns: ``loop.close()`` closes the loop's self-pipe before
    it removes signal handlers, so a SIGTERM in between would write to a
    closed fd.  The signal stays blocked between removing the handler
    (which restores the default action) and ignoring it.
    """
    import asyncio
    import signal

    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        loop.remove_signal_handler(signal.SIGTERM)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


def _cmd_serve(args) -> int:
    """Run the asyncio report-ingestion server until shutdown."""
    import asyncio
    import json
    from pathlib import Path

    from repro.engine.bench import build_bench_params
    from repro.protocol import PublicParams
    from repro.server import AggregationServer

    if args.window is not None and args.window < 1:
        print("serve: --window must be at least 1", file=sys.stderr)
        return 2
    if args.restore is not None:
        if args.params_file is not None:
            print("serve: --restore carries its own parameters; it cannot be "
                  "combined with --params-file", file=sys.stderr)
            return 2
        server = AggregationServer.restore(args.restore,
                                           snapshot_dir=args.snapshot_dir)
        if args.window is not None:
            # Operator override: tighten (or widen) retention on restart.
            server.windowed.set_window(args.window)
    else:
        if args.params_file is not None:
            payload = json.loads(Path(args.params_file).read_text())
            params = PublicParams.from_dict(payload)
        else:
            params = build_bench_params(args.protocol, args.domain_size,
                                        args.epsilon, args.num_users,
                                        rng=args.seed)
        server = AggregationServer(params, window=args.window,
                                   snapshot_dir=args.snapshot_dir)

    shm_name = args.shm_name
    if args.transport == "shm" and not shm_name:
        import os
        shm_name = f"repro-serve-{os.getpid()}"

    async def main() -> None:
        # SIGTERM (how a supervisor stops its shards) takes the graceful
        # path of a `shutdown` frame: drain, close, unlink shm segments.
        async with _sigterm_stops(server.request_stop):
            host, port = await server.start(args.host, args.port,
                                            transport=args.transport,
                                            shm_name=shm_name,
                                            acceptors=args.acceptors)
            # Parse-friendly readiness line: `load-test` and the tests wait
            # for it.
            print(f"LISTENING {host} {port}", flush=True)
            if not args.quiet:
                print(f"serve: protocol={server.params.protocol} "
                      f"window={server.windowed.window} "
                      f"transport={args.transport}"
                      + (f" shm_name={shm_name}" if shm_name else "") +
                      f" snapshot_dir={args.snapshot_dir} "
                      f"restored_reports={server.windowed.num_reports}",
                      flush=True)
            await server.serve_until_stopped()
        if not args.quiet:
            print(f"serve: stopped after absorbing "
                  f"{server.windowed.num_reports} reports", flush=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_serve_cluster(args) -> int:
    """Run a router in front of N freshly spawned shard servers."""
    import asyncio
    import json
    import signal
    import tempfile
    from pathlib import Path

    from repro.cluster import ClusterRouter, ClusterSupervisor
    from repro.engine.bench import build_bench_params
    from repro.protocol import PublicParams

    if args.shards < 1:
        print("serve-cluster: --shards must be at least 1", file=sys.stderr)
        return 2
    if args.window is not None and args.window < 1:
        print("serve-cluster: --window must be at least 1", file=sys.stderr)
        return 2
    if args.checkpoint_reports < 1:
        print("serve-cluster: --checkpoint-reports must be at least 1",
              file=sys.stderr)
        return 2
    if args.params_file is not None:
        payload = json.loads(Path(args.params_file).read_text())
        params = PublicParams.from_dict(payload)
    else:
        params = build_bench_params(args.protocol, args.domain_size,
                                    args.epsilon, args.num_users,
                                    rng=args.seed)

    def unwind_start(signum, frame):
        # A repeat may not cut the unwind's clean-up short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise SystemExit(0)

    ephemeral_base = args.base_dir is None
    base_dir = args.base_dir or tempfile.mkdtemp(prefix="repro-cluster-")
    previous_sigterm = signal.getsignal(signal.SIGTERM)
    supervisor = None
    try:
        # Until the event loop below owns SIGTERM, it unwinds start-up
        # through the `finally` (shards reaped, base dir removed) instead of
        # taking the default action.
        signal.signal(signal.SIGTERM, unwind_start)
        supervisor = ClusterSupervisor(params, args.shards, base_dir,
                                       window=args.window,
                                       transport=args.transport)
        supervisor.start()
        router = ClusterRouter(params, supervisor=supervisor, rng=args.seed,
                               checkpoint_reports=args.checkpoint_reports,
                               window=args.window,
                               transport=args.transport)

        async def main() -> None:
            # SIGTERM takes the graceful path of a `shutdown` frame, so the
            # `finally` below still stops the shards and removes the
            # ephemeral base directory.
            async with _sigterm_stops(router.request_stop):
                host, port = await router.start(args.host, args.port)
                # Same parse-friendly readiness line as `serve`: `load-test
                # --cluster` and the tests wait for it.
                print(f"LISTENING {host} {port}", flush=True)
                if not args.quiet:
                    endpoints = ",".join(f"{h}:{p}"
                                         for h, p in supervisor.endpoints())
                    print(f"serve-cluster: protocol={params.protocol} "
                          f"shards={args.shards} window={args.window} "
                          f"transport={args.transport} base_dir={base_dir} "
                          f"endpoints={endpoints}", flush=True)
                await router.serve_until_stopped()
            if not args.quiet:
                print(f"serve-cluster: stopped after forwarding "
                      f"{router.stats.reports_forwarded} reports "
                      f"({router.stats.shard_restarts} shard restart(s))",
                      flush=True)

        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # clean-up runs whole
        if supervisor is not None:
            supervisor.stop()
        if ephemeral_base:
            # The default base dir is a fresh temp directory; snapshots in
            # it only serve intra-run crash recovery, so remove it on exit
            # (pass --base-dir to keep the cluster home across runs).
            import shutil
            shutil.rmtree(base_dir, ignore_errors=True)
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    return 0


def _spawn_server(params, extra_args: Sequence[str] = (),
                  verb: str = "serve") -> Tuple[object, str, int]:
    """Start a ``repro.cli`` server subprocess; returns (proc, host, port).

    ``verb`` selects the service flavor (``serve`` or ``serve-cluster``);
    either way the child is waited on until its ``LISTENING`` line appears
    (see :func:`repro.cluster.supervisor.spawn_server_process`).
    """
    import json
    import os
    import tempfile

    from repro.cluster.supervisor import spawn_server_process

    with tempfile.NamedTemporaryFile("w", suffix="-params.json",
                                     delete=False) as handle:
        json.dump(params.to_dict(), handle)
        params_file = handle.name
    try:
        return spawn_server_process(verb, params_file, extra_args)
    finally:
        # The LISTENING line is printed after the child loaded the
        # parameters, so the file is safe to remove on every path.
        os.unlink(params_file)


def _parse_membership_script(text: str) -> List[Tuple[float, str, int]]:
    """Parse ``add:FRAC`` / ``drain:FRAC[:SHARD]`` comma lists.

    ``FRAC`` is the fraction of the batch stream already sent when the
    transition fires (strictly between 0 and 1).  ``drain`` defaults to
    shard 0.  Example: ``add:0.33,drain:0.66`` grows the cluster a third
    of the way in and drains shard 0 at two thirds.
    """
    script: List[Tuple[float, str, int]] = []
    for item in text.split(","):
        parts = item.strip().split(":")
        if len(parts) < 2 or parts[0] not in ("add", "drain"):
            raise ValueError(
                f"--membership entries must be add:FRAC or "
                f"drain:FRAC[:SHARD], got {item.strip()!r}")
        op = parts[0]
        try:
            fraction = float(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad fraction in {item.strip()!r}") from exc
        if not 0.0 < fraction < 1.0:
            raise ValueError(
                f"membership fractions must be strictly between 0 and 1, "
                f"got {fraction} in {item.strip()!r}")
        shard = 0
        if len(parts) > 2:
            if op != "drain":
                raise ValueError(f"only drain takes a shard id "
                                 f"({item.strip()!r})")
            shard = int(parts[2])
        script.append((fraction, op, shard))
    if not script:
        raise ValueError("--membership needs at least one transition")
    return sorted(script)


def _cmd_load_test(args) -> int:
    """Drive a live server with the engine's chunk stream; verify bit-identity."""
    import os
    import threading
    import time

    import numpy as np

    from repro.analysis.metrics import true_frequencies
    from repro.engine import encode_stream, make_plan, run_simulation
    from repro.engine.bench import build_bench_params
    from repro.experiments.reporting import format_table
    from repro.server import AggregationClient
    from repro.utils.rng import as_generator
    from repro.workloads.distributions import zipf_workload

    users = args.users
    workers = args.workers
    if args.quick:
        users = min(users, 20_000)
        workers = min(workers, 2)
    if users < 1 or workers < 1 or args.epochs < 1:
        print("load-test: --users, --workers, and --epochs must be positive",
              file=sys.stderr)
        return 2
    if args.cluster is not None and args.server is not None:
        print("load-test: --cluster spawns its own router; it cannot be "
              "combined with --server", file=sys.stderr)
        return 2
    if args.server is not None and args.transport != "tcp":
        print("load-test: --transport selects how the *spawned* server is "
              "started; it cannot be combined with --server", file=sys.stderr)
        return 2
    if args.cluster is not None and args.cluster < 1:
        print("load-test: --cluster must be at least 1", file=sys.stderr)
        return 2
    membership_script: Optional[List[Tuple[float, str, int]]] = None
    if args.membership is not None:
        if args.cluster is None:
            print("load-test: --membership scripts cluster transitions; it "
                  "requires --cluster", file=sys.stderr)
            return 2
        try:
            membership_script = _parse_membership_script(args.membership)
        except ValueError as exc:
            print(f"load-test: {exc}", file=sys.stderr)
            return 2
        if workers != 1:
            # Membership cuts are epoch-ordered; one ordered connection
            # keeps "which frames saw which map" deterministic.
            workers = 1

    # Same parameter/workload derivation as `simulate`, then one shared seed
    # for the canonical chunk plan: the wire stream and the offline engine
    # replay identical per-chunk client randomness.
    gen = as_generator(args.seed)
    domain_size = args.domain_size
    values = zipf_workload(users, domain_size,
                           support=min(2_000, domain_size), rng=gen)
    params = build_bench_params(args.protocol, domain_size, args.epsilon,
                                users, rng=gen)
    plan_seed = int(gen.integers(0, 2**63 - 1))

    # Membership mode needs stream *granularity*: the scripted transitions
    # land between two batches, so a handful of engine-default megabatches
    # would degenerate "mid-stream" to "before everything".  The explicit
    # chunk size is shared by all three derivations below, which is all
    # bit-identity requires.
    chunk_size = max(1, users // 24) if membership_script is not None else None

    offline = run_simulation(params, values,
                             rng=np.random.default_rng(plan_seed),
                             chunk_size=chunk_size).finalize()

    encode_start = time.perf_counter()
    batches = list(encode_stream(params, values,
                                 rng=np.random.default_rng(plan_seed),
                                 chunk_size=chunk_size))
    encode_s = time.perf_counter() - encode_start
    # Shard-routing keys from the canonical plan (one batch per chunk; a
    # fresh generator with the same seed replays the identical plan the
    # stream used).  A cluster router partitions on them; a single server
    # ignores them.
    routes = [chunk.route_key for chunk in
              make_plan(params, users, rng=np.random.default_rng(plan_seed),
                        chunk_size=chunk_size)]

    proc = None
    if args.server is not None:
        host, sep, port_text = args.server.rpartition(":")
        if not sep or not host or not port_text.isdigit():
            print(f"load-test: --server must be HOST:PORT "
                  f"(got {args.server!r})", file=sys.stderr)
            return 2
        port = int(port_text)
    elif args.cluster is not None:
        # The transport flag selects how the router reaches its shards
        # (shm rings vs TCP loopback); this client always drives the
        # router's TCP endpoint — the answers must be identical either way.
        proc, host, port = _spawn_server(
            params, ("--shards", str(args.cluster),
                     "--transport", args.transport), verb="serve-cluster")
    else:
        extra: Tuple[str, ...] = ()
        if args.transport != "tcp":
            extra = ("--transport", args.transport)
        proc, host, port = _spawn_server(params, extra)
    server_stopped = False
    try:
        # hello doubles as wire-format negotiation: a server that does not
        # accept binary frames fails here, not batch by silent batch.
        with AggregationClient(host, port) as probe:
            published = probe.hello()
        if published != params:
            print("load-test: the server's published parameters do not match "
                  "this run's; refusing to stream mismatched reports.  Start "
                  "the server from this run's exact parameters (`load-test` "
                  "without --server does this automatically, or use `serve "
                  "--params-file` with the same payload)", file=sys.stderr)
            return 1
        # One connection per worker; chunks round-robin over the workers and
        # (if --epochs > 1) over the epoch tags — any interleaving must
        # produce the same merged aggregate.
        failures: List[str] = []
        membership_log: List[Dict[str, object]] = []

        def send_span(worker: int) -> None:
            try:
                with AggregationClient(host, port) as client:
                    for i in range(worker, len(batches), workers):
                        client.send_batch(batches[i], epoch=i % args.epochs,
                                          route=routes[i])
                    # Per-connection barrier: frames on one connection are
                    # processed in order, so this returns only after every
                    # batch this worker sent has been absorbed.
                    client.sync()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(f"worker {worker}: {exc}")

        def send_scripted() -> None:
            """Ordered stream with mid-flight membership transitions.

            Epochs are *banded* (monotone over the stream) instead of
            round-robin: an ``add`` cuts the partition at the next unseen
            epoch, so banding is what routes post-add traffic through the
            new shard.  The transitions fire between two sends — online,
            while the stream is live — and the bit-identity check below is
            what makes them count.
            """
            ops = {}
            for fraction, op, shard in membership_script:
                index = min(len(batches) - 1, int(fraction * len(batches)))
                ops.setdefault(index, []).append((op, shard))
            try:
                with AggregationClient(host, port) as client:
                    for i in range(len(batches)):
                        for op, shard in ops.pop(i, []):
                            if op == "add":
                                membership_log.append(client.add_shard())
                            else:
                                membership_log.append(
                                    client.drain_shard(shard))
                        client.send_batch(
                            batches[i],
                            epoch=(i * args.epochs) // len(batches),
                            route=routes[i])
                    client.sync()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(f"membership stream: {exc}")

        ingest_start = time.perf_counter()
        if membership_script is not None:
            send_scripted()
        else:
            threads = [threading.Thread(target=send_span, args=(w,))
                       for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        client = AggregationClient(host, port)
        absorbed = client.sync()
        ingest_s = time.perf_counter() - ingest_start
        if failures:
            print("load-test: " + "; ".join(failures), file=sys.stderr)
            return 1
        if absorbed != users:
            print(f"load-test: server absorbed {absorbed} of {users} reports",
                  file=sys.stderr)
            return 1

        truth = true_frequencies(values)
        top = sorted(truth.items(), key=lambda kv: -kv[1])[:5]
        probe = np.random.default_rng(0).integers(0, domain_size,
                                                  size=args.queries)
        queries = [int(x) for x, _ in top] + [int(x) for x in probe]
        served = client.query(queries)
        expected = offline.estimate_many(queries)
        identical = bool(np.array_equal(served, expected))
        stats = client.stats()
        final_map: Optional[Dict[str, object]] = None
        if membership_script is not None:
            final_map = dict(client.shard_map()["map"])
        if proc is not None:
            client.shutdown()
            server_stopped = True
        client.close()

        rows = [{"item": x, "true_count": truth.get(x, 0),
                 "served_estimate": round(float(a), 1)}
                for x, a in list(zip(queries, served, strict=True))[:5]]
        target = (f"cluster of {args.cluster} shard(s) at {host}:{port}, "
                  f"{args.transport} shard links"
                  if args.cluster is not None else f"server {host}:{port}")
        print(format_table(rows, title=(
            f"load-test: {args.protocol} x {users} users over {workers} "
            f"connection(s), {args.epochs} epoch(s), {target}")))
        print(f"\nclient encoding: {encode_s:.3f}s; wire ingest+sync: "
              f"{ingest_s:.3f}s ({users / max(ingest_s, 1e-9):,.0f} reports/s "
              f"end-to-end); server drain: {stats['drain_s']:.3f}s "
              f"({int(stats['reports_absorbed']) / max(float(stats['drain_s']), 1e-9):,.0f} "
              f"reports/s absorb)")
        if membership_script is not None and final_map is not None:
            op_rows = [{"reply": entry.get("type"),
                        "shard": entry.get("shard", "-"),
                        "target": entry.get("target", "-"),
                        "cut_epoch": entry.get("cut_epoch", "-"),
                        "handoff": entry.get("handoff", "-"),
                        "map_version": entry.get("map_version", "-")}
                       for entry in membership_log]
            print(format_table(op_rows, title=(
                f"membership transitions mid-stream "
                f"(final map version {final_map.get('version')}, "
                f"retired {final_map.get('retired')})")))
        print(f"served == offline engine ({len(queries)} queries): "
              f"{'BIT-IDENTICAL' if identical else 'MISMATCH'}")
        if not identical:
            worst = int(np.argmax(np.abs(served - expected)))
            print(f"load-test: first divergence at item {queries[worst]}: "
                  f"served {served[worst]!r} != offline {expected[worst]!r}",
                  file=sys.stderr)
            return 1
        if membership_script is not None and final_map is not None:
            # The scripted transitions must all have *landed*: every
            # drained shard retired, every added shard active.
            statuses = {int(s["id"]): s["status"]
                        for s in final_map.get("shards", [])}
            retired = {int(x) for x in final_map.get("retired", [])}
            for _, op, shard in membership_script:
                if op == "drain" and shard not in retired:
                    print(f"load-test: scripted drain of shard {shard} did "
                          f"not retire it (map: {statuses}, retired: "
                          f"{sorted(retired)})", file=sys.stderr)
                    return 1
            added = sum(1 for _, op, _ in membership_script if op == "add")
            new_ids = [sid for sid, status in statuses.items()
                       if sid >= args.cluster and status == "active"]
            if len(new_ids) != added:
                print(f"load-test: scripted {added} add(s) but the final "
                      f"map activates {new_ids}", file=sys.stderr)
                return 1
        return 0
    finally:
        if proc is not None:
            # After an acknowledged `shutdown` frame, give the child a
            # grace period to exit on its own: `serve-cluster` still has
            # to stop its shards and remove its ephemeral base dir, and an
            # immediate SIGTERM would race that cleanup.
            import subprocess
            try:
                if server_stopped:
                    proc.wait(timeout=10)
                else:
                    proc.terminate()
                    proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.terminate()
                proc.wait(timeout=10)
            proc.stdout.close()


def _cmd_chaos_test(args) -> int:
    """Seeded fault-injection run; the faulted cluster must stay exact."""
    import numpy as np

    from repro.chaos import ChaosRunner, FaultSchedule
    from repro.experiments.reporting import format_table

    if args.cluster < 1:
        print("chaos-test: --cluster must be at least 1", file=sys.stderr)
        return 2
    if args.membership and args.cluster < 2:
        print("chaos-test: --membership drains a shard into a survivor; it "
              "needs --cluster >= 2", file=sys.stderr)
        return 2
    schedule = None
    if args.schedule is not None:
        schedule = FaultSchedule.load(args.schedule)
    # Membership mode fires the three membership kinds plus one kill; the
    # default floor of 5 belongs to the seven-kind wire/process schedule.
    min_kinds = args.min_kinds
    if min_kinds is None:
        min_kinds = 4 if args.membership else 5
    runner = ChaosRunner(
        protocol=args.protocol, domain_size=args.domain_size,
        epsilon=args.epsilon, num_users=args.users,
        num_shards=args.cluster, seed=args.seed,
        schedule=schedule,
        membership=args.membership, transport=args.transport,
        base_dir=args.base_dir)
    result = runner.run()
    schedule = result.schedule
    if args.schedule_out is not None:
        path = schedule.save(args.schedule_out)
        print(f"fault schedule written to {path}")
    rows = [{"target": event.target, "frame": event.frame,
             "kind": event.kind, "arg": event.arg}
            for event in result.fired]
    print(format_table(rows, title=(
        f"chaos-test: {args.protocol} x {result.num_users} users over "
        f"{args.cluster} shard(s), seed {args.seed} - faults fired")))
    print(f"\nschedule digest: {schedule.digest()} "
          f"(replay with --seed {args.seed})")
    print(f"fault kinds fired: {', '.join(result.fired_kinds)} "
          f"({len(result.fired_kinds)} distinct); shard restarts: "
          f"{result.restarts}; client retries: {result.send_retries}")
    if args.membership:
        info = result.membership
        add_reply = info.get("add") or {}
        drain_reply = info.get("drain") or {}
        final_map = info.get("final_map") or {}
        print(f"membership ({info.get('transport')} shard links): added "
              f"shard {add_reply.get('shard')} at send index "
              f"{info.get('add_frame')} (cut epoch "
              f"{add_reply.get('cut_epoch', '?')}), drained shard "
              f"{drain_reply.get('shard')} into {drain_reply.get('target')} "
              f"at {info.get('drain_frame')} (handoff "
              f"{drain_reply.get('handoff', '?')}, "
              f"{drain_reply.get('num_reports', '?')} reports); final map "
              f"version {final_map.get('version')}, retired "
              f"{final_map.get('retired')}")
        if info.get("torn_journal"):
            print(f"torn journal: {info['torn_journal']}")
        if info.get("corrupt_snapshot"):
            print(f"corrupted snapshot: {info['corrupt_snapshot']}")
    print(f"served == offline engine ({len(result.queries)} queries): "
          f"{'BIT-IDENTICAL' if result.identical else 'MISMATCH'}")
    if not result.identical:
        worst = int(np.argmax(np.abs(result.served - result.expected)))
        print(f"chaos-test: first divergence at item "
              f"{result.queries[worst]}: served {result.served[worst]!r} "
              f"!= offline {result.expected[worst]!r}", file=sys.stderr)
        return 1
    if len(result.fired_kinds) < min_kinds:
        print(f"chaos-test: only {len(result.fired_kinds)} distinct fault "
              f"kinds fired (wanted >= {min_kinds}); the schedule "
              f"barely exercised the cluster", file=sys.stderr)
        return 1
    return 0


def _cmd_cluster_status(args) -> int:
    """Render a live server's (or cluster router's) ``health`` reply."""
    from repro.experiments.reporting import format_table
    from repro.server import AggregationClient

    host, sep, port_text = args.server.rpartition(":")
    if not sep or not host or not port_text.isdigit():
        print(f"cluster-status: --server must be HOST:PORT "
              f"(got {args.server!r})", file=sys.stderr)
        return 2
    with AggregationClient(host, int(port_text),
                           timeout=args.timeout) as client:
        health = client.health()
    status = str(health.get("status", "ok"))
    print(f"{health.get('server')} at {args.server}: {status}")
    shards = health.get("shards")
    if isinstance(shards, list) and shards:
        rows = []
        for entry in shards:
            rows.append({
                "shard": entry.get("shard"),
                "status": entry.get("status"),
                "endpoint": f"{entry.get('host')}:{entry.get('port')}",
                "queue_depth": entry.get("queue_depth", "-"),
                "num_reports": entry.get("num_reports", "-"),
                "journal_reports": entry.get("journal_reports", 0),
                "seq": entry.get("seq", 0),
                "restarts": entry.get("restarts", "-"),
                "last_fault": (entry.get("last_fault") or "")[:48],
            })
        print(format_table(rows,
                           title=f"cluster-status: {len(rows)} shard(s)"))
    else:
        for key in ("protocol", "queue_depth", "epochs", "num_reports",
                    "state_size", "max_seq"):
            if key in health:
                print(f"{key}: {health[key]}")
    return 0 if status == "ok" else 1


def _cmd_cluster_ctl(args) -> int:
    """Drive a live router's elastic-membership control frames."""
    from repro.experiments.reporting import format_table
    from repro.server import AggregationClient

    host, sep, port_text = args.server.rpartition(":")
    if not sep or not host or not port_text.isdigit():
        print(f"cluster-ctl: --server must be HOST:PORT "
              f"(got {args.server!r})", file=sys.stderr)
        return 2
    if args.verb == "drain-shard" and args.shard is None:
        print("cluster-ctl: drain-shard needs --shard", file=sys.stderr)
        return 2
    with AggregationClient(host, int(port_text),
                           timeout=args.timeout) as client:
        if args.verb == "shard-map":
            reply = client.shard_map()
            shard_map = reply["map"]
            rows = [{"shard": entry["id"], "status": entry["status"]}
                    for entry in shard_map["shards"]]
            print(format_table(rows, title=(
                f"shard map version {shard_map['version']} "
                f"(retired: {shard_map['retired'] or 'none'})")))
            for entry in shard_map["entries"]:
                cut = entry.get("cut_epoch")
                shard_ids = entry["shard_ids"]
                print(f"  epochs >= {cut if cut is not None else 0}: "
                      f"{len(shard_ids)}-way partition over shards "
                      f"{shard_ids}")
            return 0
        if args.verb == "add-shard":
            reply = client.add_shard()
            print(f"added shard {reply['shard']} at "
                  f"{reply['host']}:{reply['port']}; it owns epochs >= "
                  f"{reply['cut_epoch']} (map version "
                  f"{reply['map_version']})")
            return 0
        if args.verb == "drain-shard":
            reply = client.drain_shard(args.shard, target=args.target)
            already = " (already drained)" if reply.get("already") else ""
            print(f"drained shard {reply['shard']} into shard "
                  f"{reply.get('target')}{already}: handoff "
                  f"{reply.get('handoff', '-')} moved "
                  f"{reply.get('num_reports', 0)} reports exactly "
                  f"(map version {reply['map_version']})")
            return 0
        reply = client.rolling_restart()
        print(f"rolling restart: shards {reply['shards']} checkpointed and "
              f"restarted in sequence (map version {reply['map_version']} "
              f"unchanged)")
        return 0


def _cmd_matrix(args) -> int:
    """YAML-driven experiment matrices (see repro.experiments.matrix)."""
    from repro.experiments.matrix.command import cmd_matrix

    return cmd_matrix(args)


# --------------------------------------------------------------------------------------
# module map (--list-modules)
# --------------------------------------------------------------------------------------

MODULE_MAP_BEGIN = "<!-- module-map:begin (generated by `repro.cli --list-modules`; verified in CI) -->"
MODULE_MAP_END = "<!-- module-map:end -->"


def module_map() -> List[str]:
    """One line per module: dotted name + first docstring line.

    This is the ground truth ``docs/architecture.md`` embeds; CI regenerates
    it with ``--list-modules --check`` so the document cannot silently drift
    from the package layout.
    """
    import importlib
    import pkgutil

    import repro

    names = ["repro"]
    names += sorted(info.name for info in
                    pkgutil.walk_packages(repro.__path__, prefix="repro."))
    lines = []
    for name in names:
        try:
            module = importlib.import_module(name)
            doc = (module.__doc__ or "").strip()
            summary = doc.splitlines()[0].strip() if doc else "(no docstring)"
        except Exception as exc:  # pragma: no cover - broken module
            summary = f"(import failed: {exc})"
        lines.append(f"{name:<38s} {summary}")
    return lines


def _list_modules(check_path: Optional[str]) -> int:
    lines = module_map()
    if check_path is None:
        print("\n".join(lines))
        return 0
    text = Path(check_path).read_text()
    if MODULE_MAP_BEGIN not in text or MODULE_MAP_END not in text:
        print(f"--list-modules --check: {check_path} has no "
              f"module-map markers", file=sys.stderr)
        return 1
    embedded = text.split(MODULE_MAP_BEGIN, 1)[1].split(MODULE_MAP_END, 1)[0]
    embedded_lines = [line.rstrip() for line in embedded.strip().splitlines()
                      if line.strip() and not line.startswith("```")]
    current = [line.rstrip() for line in lines]
    if embedded_lines != current:
        print(f"--list-modules --check: module map in {check_path} is stale; "
              f"regenerate with `python -m repro.cli --list-modules`",
              file=sys.stderr)
        for line in sorted(set(current) - set(embedded_lines)):
            print(f"  missing: {line}", file=sys.stderr)
        for line in sorted(set(embedded_lines) - set(current)):
            print(f"  stale:   {line}", file=sys.stderr)
        return 1
    print(f"--list-modules --check: {check_path} is up to date "
          f"({len(current)} modules)")
    return 0


def _cmd_quickstart(args) -> int:
    from repro import PrivateExpanderSketch, planted_workload
    from repro.experiments.reporting import format_table

    workload = planted_workload(num_users=args.num_users,
                                domain_size=1 << 20,
                                heavy_fractions=[0.3, 0.22, 0.15], rng=0)
    protocol = PrivateExpanderSketch(domain_size=1 << 20, epsilon=args.epsilon,
                                     beta=0.05)
    result = protocol.run(workload.values, rng=1)
    rows = [{"item": item,
             "estimate": estimate,
             "true_count": workload.true_frequency(item)}
            for item, estimate in result.top(5)]
    print(format_table(rows, title="quickstart: recovered heavy hitters"))
    print(f"\ncommunication per user: "
          f"{result.communication_bits_per_user():.1f} bits; "
          f"epsilon = {result.epsilon}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Heavy Hitters and the Structure of Local Privacy'")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments") \
        .set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment name (see `list`)")
    run_parser.add_argument("--quick", action="store_true",
                            help="use a smaller, faster configuration")
    run_parser.set_defaults(func=_cmd_run)

    quickstart_parser = subparsers.add_parser(
        "quickstart", help="run the README quickstart end to end")
    quickstart_parser.add_argument("--num-users", type=int, default=60_000)
    quickstart_parser.add_argument("--epsilon", type=float, default=4.0)
    quickstart_parser.set_defaults(func=_cmd_quickstart)

    simulate_parser = subparsers.add_parser(
        "simulate",
        help="drive the client/server wire API (sharded or multiprocess)")
    simulate_parser.add_argument("--protocol", default="hashtogram",
                                 choices=["hashtogram", "explicit", "cms"])
    simulate_parser.add_argument("--shards", type=int, default=None,
                                 help="number of in-process shard aggregators "
                                      "(default 4; exclusive with --workers)")
    simulate_parser.add_argument("--workers", type=int, default=None,
                                 help="run the multiprocess engine with this "
                                      "many workers (estimates are "
                                      "bit-identical for every value; "
                                      "exclusive with --shards)")
    simulate_parser.add_argument("--num-users", type=int, default=30_000)
    simulate_parser.add_argument("--domain-size", type=int, default=1 << 16)
    simulate_parser.add_argument("--epsilon", type=float, default=1.0)
    simulate_parser.add_argument("--seed", type=int, default=0)
    simulate_parser.set_defaults(func=_cmd_simulate)

    bench_parser = subparsers.add_parser(
        "bench",
        help="engine scaling benchmark; writes BENCH_engine.json")
    bench_parser.add_argument("--protocols", default="hashtogram",
                              help="comma-separated subset of "
                                   "hashtogram,explicit,cms")
    bench_parser.add_argument("--workers", default="1,2,4",
                              help="comma-separated worker counts to sweep")
    bench_parser.add_argument("--num-users", type=int, default=200_000)
    bench_parser.add_argument("--domain-size", type=int, default=1 << 16)
    bench_parser.add_argument("--epsilon", type=float, default=1.0)
    bench_parser.add_argument("--seed", type=int, default=0)
    bench_parser.add_argument("--repeats", type=int, default=1,
                              help="timings keep the best of this many runs")
    bench_parser.add_argument("--output", default="BENCH_engine.json")
    bench_parser.set_defaults(func=_cmd_bench)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the asyncio report-ingestion server (repro.server)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=7071,
                              help="TCP port (0 picks a free port; the bound "
                                   "port is printed on the LISTENING line)")
    serve_parser.add_argument("--protocol", default="hashtogram",
                              choices=["hashtogram", "explicit", "cms"])
    serve_parser.add_argument("--domain-size", type=int, default=1 << 16)
    serve_parser.add_argument("--epsilon", type=float, default=1.0)
    serve_parser.add_argument("--num-users", type=int, default=30_000,
                              help="population hint used to size the "
                                   "sampled parameters' bucket counts")
    serve_parser.add_argument("--seed", type=int, default=0,
                              help="seed of the sampled public randomness")
    serve_parser.add_argument("--params-file", default=None,
                              help="serve these exact public parameters "
                                   "(JSON from PublicParams.to_dict) instead "
                                   "of sampling fresh ones")
    serve_parser.add_argument("--window", type=int, default=None,
                              help="retain only the last W epochs "
                                   "(default: unbounded)")
    serve_parser.add_argument("--snapshot-dir", default=None,
                              help="directory for durable snapshots "
                                   "(enables the snapshot frame)")
    serve_parser.add_argument("--transport", default="tcp",
                              choices=["tcp", "shm"],
                              help="with 'shm', additionally bind a "
                                   "same-host shared-memory accept endpoint "
                                   "(docs/transport.md); the TCP endpoint "
                                   "and its LISTENING line are kept")
    serve_parser.add_argument("--shm-name", default=None,
                              help="shm control-segment name to bind "
                                   "(default with --transport shm: "
                                   "repro-serve-<pid>)")
    serve_parser.add_argument("--acceptors", type=int, default=1,
                              help="number of SO_REUSEPORT acceptor sockets "
                                   "sharing the TCP port (multi-core "
                                   "ingest; default 1)")
    serve_parser.add_argument("--restore", default=None,
                              help="start from this windowed snapshot file "
                                   "(parameters and window come from the "
                                   "snapshot; --window overrides retention, "
                                   "the parameter-sampling flags are unused)")
    serve_parser.add_argument("--quiet", action="store_true",
                              help="print only the LISTENING line")
    serve_parser.set_defaults(func=_cmd_serve)

    cluster_parser = subparsers.add_parser(
        "serve-cluster",
        help="run a sharded cluster: a router fronting N shard servers "
             "(repro.cluster)")
    cluster_parser.add_argument("--shards", type=int, default=3,
                                help="number of shard server subprocesses")
    cluster_parser.add_argument("--host", default="127.0.0.1")
    cluster_parser.add_argument("--port", type=int, default=7070,
                                help="router TCP port (0 picks a free port; "
                                     "shards always bind free ports)")
    cluster_parser.add_argument("--protocol", default="hashtogram",
                                choices=["hashtogram", "explicit", "cms"])
    cluster_parser.add_argument("--domain-size", type=int, default=1 << 16)
    cluster_parser.add_argument("--epsilon", type=float, default=1.0)
    cluster_parser.add_argument("--num-users", type=int, default=30_000,
                                help="population hint used to size the "
                                     "sampled parameters' bucket counts")
    cluster_parser.add_argument("--seed", type=int, default=0,
                                help="seed of the sampled public randomness "
                                     "and the published shard partition")
    cluster_parser.add_argument("--params-file", default=None,
                                help="serve these exact public parameters "
                                     "(JSON from PublicParams.to_dict)")
    cluster_parser.add_argument("--window", type=int, default=None,
                                help="per-shard epoch retention "
                                     "(default: unbounded)")
    cluster_parser.add_argument("--base-dir", default=None,
                                help="cluster home on disk (params file + "
                                     "one snapshot dir per shard; default: "
                                     "a fresh temp directory)")
    cluster_parser.add_argument("--transport", default="tcp",
                                choices=["tcp", "shm"],
                                help="router->shard transport: TCP loopback "
                                     "(default) or same-host shared-memory "
                                     "rings (docs/transport.md); answers "
                                     "are bit-identical either way")
    cluster_parser.add_argument("--checkpoint-reports", type=int,
                                default=1 << 16,
                                help="auto-checkpoint a shard once this many "
                                     "reports are journaled for it (bounds "
                                     "replay after a shard crash)")
    cluster_parser.add_argument("--quiet", action="store_true",
                                help="print only the LISTENING line")
    cluster_parser.set_defaults(func=_cmd_serve_cluster)

    load_parser = subparsers.add_parser(
        "load-test",
        help="drive a live server with the engine chunk stream and verify "
             "served == offline engine, bit for bit")
    load_parser.add_argument("--users", type=int, default=100_000)
    load_parser.add_argument("--workers", type=int, default=4,
                             help="concurrent sender connections")
    load_parser.add_argument("--protocol", default="hashtogram",
                             choices=["hashtogram", "explicit", "cms"])
    load_parser.add_argument("--domain-size", type=int, default=1 << 16)
    load_parser.add_argument("--epsilon", type=float, default=1.0)
    load_parser.add_argument("--seed", type=int, default=0)
    load_parser.add_argument("--epochs", type=int, default=1,
                             help="spread chunks over this many epoch tags")
    load_parser.add_argument("--queries", type=int, default=64,
                             help="number of sampled probe queries (the top-5 "
                                  "true heavy hitters are always queried)")
    load_parser.add_argument("--server", default=None,
                             help="HOST:PORT of an already-running server "
                                  "(default: spawn one)")
    load_parser.add_argument("--cluster", type=int, default=None, metavar="K",
                             help="spawn a serve-cluster of K shards and "
                                  "drive its router instead of a single "
                                  "server (exclusive with --server)")
    load_parser.add_argument("--transport", default="tcp",
                             choices=["tcp", "shm"],
                             help="transport of the spawned server/cluster: "
                                  "with --cluster the router dials its "
                                  "shards over shm rings instead of TCP "
                                  "loopback; the verified bit-identity must "
                                  "hold either way")
    load_parser.add_argument("--quick", action="store_true",
                             help="CI-sized run (<= 20k users, 2 workers)")
    load_parser.add_argument("--membership", default=None,
                             metavar="SCRIPT",
                             help="script online membership transitions "
                                  "mid-stream (requires --cluster): comma "
                                  "list of add:FRAC and drain:FRAC[:SHARD] "
                                  "at stream fractions, e.g. "
                                  "'add:0.33,drain:0.66'; forces one "
                                  "ordered sender connection, and the "
                                  "final answers must STILL be "
                                  "bit-identical to the offline engine")
    load_parser.set_defaults(func=_cmd_load_test)

    chaos_parser = subparsers.add_parser(
        "chaos-test",
        help="seeded fault-injection run against a real cluster; verify "
             "served == offline engine, bit for bit (repro.chaos)")
    chaos_parser.add_argument("--cluster", type=int, default=3, metavar="K",
                              help="number of shard server subprocesses")
    chaos_parser.add_argument("--users", type=int, default=12_000)
    chaos_parser.add_argument("--protocol", default="hashtogram",
                              choices=["hashtogram", "explicit", "cms"])
    chaos_parser.add_argument("--domain-size", type=int, default=4096)
    chaos_parser.add_argument("--epsilon", type=float, default=1.0)
    chaos_parser.add_argument("--seed", type=int, default=7,
                              help="seed of the workload, the cluster "
                                   "partition, AND the fault schedule - one "
                                   "integer replays the whole run")
    chaos_parser.add_argument("--schedule", default=None,
                              help="replay this saved fault-schedule JSON "
                                   "instead of generating one from --seed")
    chaos_parser.add_argument("--schedule-out", default=None,
                              help="write the fault schedule JSON here (the "
                                   "CI failure artifact)")
    chaos_parser.add_argument("--min-kinds", type=int, default=None,
                              help="fail unless at least this many distinct "
                                   "fault kinds actually fired (default: 5, "
                                   "or 4 with --membership)")
    chaos_parser.add_argument("--membership", action="store_true",
                              help="elastic-membership mode: script an "
                                   "add_shard and a drain mid-stream and "
                                   "fire the membership fault kinds "
                                   "(drain-race, torn-journal, "
                                   "corrupt-snapshot) at the transitions; "
                                   "the answers must still be bit-identical")
    chaos_parser.add_argument("--transport", default="tcp",
                              choices=["tcp", "shm"],
                              help="router->shard transport in --membership "
                                   "mode: TCP loopback or shared-memory "
                                   "rings; the invariant must hold on both")
    chaos_parser.add_argument("--base-dir", default=None,
                              help="cluster home on disk, kept after the "
                                   "run (default: a temp dir, removed) - "
                                   "CI uploads the journals and shard map "
                                   "from here when a run fails")
    chaos_parser.set_defaults(func=_cmd_chaos_test)

    status_parser = subparsers.add_parser(
        "cluster-status",
        help="probe a live server or cluster router with the health frame")
    status_parser.add_argument("--server", required=True,
                               help="HOST:PORT of the server or router")
    status_parser.add_argument("--timeout", type=float, default=10.0)
    status_parser.set_defaults(func=_cmd_cluster_status)

    ctl_parser = subparsers.add_parser(
        "cluster-ctl",
        help="drive a live router's elastic membership: add/drain shards, "
             "rolling restart, inspect the shard map")
    ctl_parser.add_argument("verb",
                            choices=["shard-map", "add-shard", "drain-shard",
                                     "rolling-restart"],
                            help="shard-map prints the epoch routing table; "
                                 "add-shard grows the cluster at the next "
                                 "epoch cut; drain-shard hands a shard's "
                                 "exact state to a survivor and retires it; "
                                 "rolling-restart checkpoints and restarts "
                                 "every shard in sequence with zero loss")
    ctl_parser.add_argument("--server", required=True,
                            help="HOST:PORT of the cluster router")
    ctl_parser.add_argument("--shard", type=int, default=None,
                            help="shard id to drain (drain-shard only)")
    ctl_parser.add_argument("--target", type=int, default=None,
                            help="survivor that absorbs the drained state "
                                 "(default: lowest active shard)")
    ctl_parser.add_argument("--timeout", type=float, default=60.0,
                            help="wire timeout; drains move whole shard "
                                 "states, so this is generous by default")
    ctl_parser.set_defaults(func=_cmd_cluster_ctl)

    matrix_parser = subparsers.add_parser(
        "matrix",
        help="YAML-driven experiment matrices: expand axes into cells, run "
             "them through the engine or live servers, render committed "
             "tables (see docs/experiments.md)")
    matrix_parser.add_argument(
        "verb", choices=["run", "list", "render"],
        help="run executes a config (cached cells are reused); list shows "
             "configs under experiments/configs/; render re-renders from "
             "the cache, executing only missing cells")
    matrix_parser.add_argument(
        "config", nargs="?", default=None,
        help="config path (required for run/render)")
    matrix_parser.add_argument(
        "configs", nargs="*",
        help="config paths for list (default: experiments/configs/*.yaml)")
    matrix_parser.add_argument(
        "--quick", action="store_true",
        help="serving configs: run the config's quick slice (outputs go to "
             "the cache, not docs/experiments/); paper configs: the "
             "deterministic committed EXPERIMENTS.md configuration")
    matrix_parser.add_argument(
        "--force", action="store_true",
        help="ignore and overwrite cached cell results")
    matrix_parser.add_argument(
        "--cache-dir", default=None,
        help="per-cell result cache (default: .matrix_cache/<config name>)")
    matrix_parser.add_argument(
        "--timings", action="store_true",
        help="also print the host-dependent timing columns")
    matrix_parser.add_argument(
        "-o", "--output", default=None,
        help="override the output path of a paper config")
    matrix_parser.set_defaults(func=_cmd_matrix)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--list-modules" in argv:
        argv.remove("--list-modules")
        check_path = None
        if "--check" in argv:
            index = argv.index("--check")
            try:
                check_path = argv[index + 1]
            except IndexError:
                print("--check requires a file path", file=sys.stderr)
                return 2
            del argv[index:index + 2]
        if argv:
            print(f"--list-modules takes no other arguments (got {argv})",
                  file=sys.stderr)
            return 2
        return _list_modules(check_path)
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    raise SystemExit(main())
