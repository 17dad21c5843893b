"""Workload ``hh_cluster_shm``: PrivateExpanderSketch through a 2-shard cluster.

This one load-generating process drives a real ``repro.cli serve-cluster
--shards 2 --transport shm`` over one connection: pre-encoded routed binary
``reports`` frames (encoded before the clock starts), ``sync`` — the absorbed
barrier — after every round, then one heavy-hitter ``query`` and one merged
``state`` read, each checked bit for bit against the offline engine.

Passes repeat while the time budget lasts.  Each pass starts a fresh cluster
(one ``setup_s`` sample) and streams the frames ``ROUNDS`` times; the rounds
together are one ingest sample.  Extra spawn-and-stop cycles follow when the
passes gave fewer than ``MIN_SETUPS`` set-up samples.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from common import (
    Outcome,
    children,
    cpu_s,
    log,
    lower_quartile,
    median,
    no_span,
    pass_budget,
    peak_rss_mb,
)

HERE = os.path.dirname(os.path.abspath(__file__))
EPSILON = 1.0

#: a quarter of hh_offline's users, so that several passes (cluster spawn,
#: two stream rounds, one heavy-hitter query, one state read: ~12 s on a
#: 2-vCPU host) fit in one run; the domain and the planted shares are the same
SIZES = {"full": {"num_users": 100_000, "domain_size": 1 << 20},
         "tiny": {"num_users": 20_000, "domain_size": 1 << 14}}
#: stream rounds per cluster, each sending every frame again, then ``sync``.
#: Two rounds put 2^17+ reports through the router, so every shard passes
#: its checkpoint threshold (2^16 journaled reports) inside the measured
#: stream, as a long-running cluster does
ROUNDS = 2
CLUSTER_ARGS = ("--shards", "2", "--transport", "shm")
#: minimum spawn count per run, so ``setup_s`` is a quartile of several
MIN_SETUPS = 5
#: seconds any single reply may take before it counts as failed
REPLY_TIMEOUT_S = 120.0


@dataclass
class Inputs:
    num_users: int
    domain_size: int
    values: np.ndarray
    #: the planted heavy hitters: the heavy-hitter query's items
    items: List[int]
    build_params: object  # () -> PublicParams, deterministic
    plan_seed: int


def make_inputs(seed: int, size: str) -> Inputs:
    """Everything the system receives, derived from ``seed`` alone."""
    import offline
    from repro.core.heavy_hitters import PrivateExpanderSketch

    off = offline.make_inputs(seed, SIZES[size])
    sketch = PrivateExpanderSketch(off.domain_size, EPSILON)

    def build_params():
        return sketch.public_params(off.num_users,
                                    rng=np.random.default_rng(off.params_seed))

    plan_seed = int(np.random.default_rng([seed, 0x5A7]).integers(0, 2**63 - 1))
    return Inputs(off.num_users, off.domain_size, off.values,
                  [int(x) for x in off.planted], build_params, plan_seed)


def encode_frames(params, inputs: Inputs) -> bytes:
    """The whole report stream as one blob of routed binary ``reports``
    frames."""
    from repro.engine import encode_stream, make_plan
    from repro.server import encode_reports_frame

    batches = encode_stream(params, inputs.values,
                            rng=np.random.default_rng(inputs.plan_seed))
    routes = [chunk.route_key for chunk in make_plan(
        params, inputs.num_users, rng=np.random.default_rng(inputs.plan_seed))]
    return b"".join(encode_reports_frame(batch, 0, "binary", route=route)
                    for batch, route in zip(batches, routes))


def offline_reference(params, inputs: Inputs):
    """The offline engine's finalized answer on the same seed and plan.

    A cluster that absorbed the stream ``ROUNDS`` times holds exactly the
    engine's integer state merged ``ROUNDS`` times with itself.
    """
    from repro.engine import run_simulation
    from repro.protocol.wire import merge_aggregators

    result = run_simulation(params, inputs.values,
                            rng=np.random.default_rng(inputs.plan_seed))
    return merge_aggregators([result.aggregator] * ROUNDS).finalize()


def _queue_depth(health: Dict[str, object]) -> int:
    """The deepest shard queue in a router ``health`` reply."""
    return max([int(s.get("queue_depth", 0)) for s in health.get("shards", [])]
               or [0])


# ----- process handling --------------------------------------------------------------

@dataclass
class System:
    proc: object
    client: object
    setup_s: float
    params: object

    @property
    def pids(self) -> Dict[str, List[int]]:
        """Role -> pids: the ``router`` and its ``shards``."""
        return {"router": [self.proc.pid], "shards": children(self.proc.pid)}


def start_system(inputs: Inputs, work: str,
                 trace_env: Optional[Dict[str, str]] = None) -> System:
    """Params construction + spawn until LISTENING + ``hello``: ``setup_s``."""
    from repro.cluster.supervisor import spawn_server_process
    from repro.server import AggregationClient

    saved = dict(os.environ)
    if trace_env:
        os.environ.update(trace_env)
    try:
        start = time.perf_counter()
        params = inputs.build_params()
        params_file = os.path.join(work, "params.json")
        with open(params_file, "w") as handle:
            json.dump(params.to_dict(), handle)
        proc, host, port = spawn_server_process("serve-cluster", params_file,
                                                CLUSTER_ARGS)
        try:
            client = AggregationClient(host, port, timeout=REPLY_TIMEOUT_S,
                                       wire_format="binary")
            client.hello()
        except BaseException:
            stop_tree(proc)
            raise
        setup_s = time.perf_counter() - start
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return System(proc, client, setup_s, params)


def shutdown_system(system: System) -> None:
    """Graceful ``shutdown`` frame, then make sure the whole tree is gone."""
    try:
        system.client.shutdown()
        system.proc.wait(timeout=60)
    except Exception as exc:  # noqa: BLE001 - fall back to signals
        log(f"graceful shutdown failed ({exc!r}); terminating")
    finally:
        system.client.close()
        stop_tree(system.proc)


def stop_tree(proc) -> None:
    """Terminate ``proc`` and any children it left, and wait for all."""
    orphans = children(proc.pid) if proc.poll() is None else []
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 - last resort
            proc.kill()
            proc.wait(timeout=30)
    if proc.stdout is not None:
        proc.stdout.close()
    for pid in orphans:
        _reap_foreign(pid)


def _reap_foreign(pid: int) -> None:
    """Stop a process that is not our child and wait until it is gone."""
    for sig, wait_s in ((signal.SIGTERM, 10.0), (signal.SIGKILL, 10.0)):
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            return
        deadline = time.perf_counter() + wait_s
        while time.perf_counter() < deadline:
            if not os.path.exists(f"/proc/{pid}") or _is_zombie(pid):
                return
            time.sleep(0.02)


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, IndexError):
        return True


# ----- one pass ----------------------------------------------------------------------

@dataclass
class PassResult:
    setup_s: float
    #: per round: first report handed over -> ``sync`` reply
    ingest_s: List[float]
    #: per round: time inside ``send_raw``
    send_s: List[float]
    absorbed: int
    #: the heavy-hitter query: latency and estimates
    result_ms: float
    answer: np.ndarray
    #: the merged ``state`` read's reply (untimed; the candidate-list check)
    pulled: dict
    stats: Dict[str, object]
    health: Dict[str, object]
    shard_stats: List[Dict[str, object]]
    rss_mb: float
    cpu: Dict[str, float]
    params: object
    dumps: List[dict] = field(default_factory=list)


def one_pass(inputs: Inputs, frames: bytes, work: str, recorder=None,
             trace_env: Optional[Dict[str, str]] = None) -> PassResult:
    system = start_system(inputs, work, trace_env)
    client = system.client
    try:
        roles = system.pids
        cpu0 = {role: sum(cpu_s(p) for p in pids)
                for role, pids in roles.items()}
        client_cpu0 = time.process_time()
        span = recorder.span if recorder is not None else no_span
        ingest_s, send_s = [], []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            with span("bench.ingest"):
                with span("transport.send"):
                    client.send_raw(frames)
                send_s.append(time.perf_counter() - start)
                absorbed = client.sync()
            ingest_s.append(time.perf_counter() - start)
        q0 = time.perf_counter()
        with span("bench.result"):
            answer = client.query(inputs.items)
        result_ms = (time.perf_counter() - q0) * 1e3
        with span("bench.read"):
            pulled = client.pull_state()
        stats = client.stats()
        health = client.health()
        # only the traced run reads reports_deduped, which needs a direct
        # connection to every shard
        shard_stats = _shard_stats(stats) if recorder is not None else []
        cpu = {role: sum(cpu_s(p) for p in pids) - cpu0[role]
               for role, pids in roles.items()}
        cpu["client"] = time.process_time() - client_cpu0
        rss = sum(peak_rss_mb(p) for pids in roles.values() for p in pids)
    except BaseException:
        client.close()
        stop_tree(system.proc)
        raise
    shutdown_system(system)
    return PassResult(system.setup_s, ingest_s, send_s, absorbed, result_ms,
                      answer, pulled, stats, health, shard_stats,
                      rss, cpu, system.params)


def _shard_stats(router_stats: Dict[str, object]) -> List[Dict[str, object]]:
    """Each shard's own ``stats`` (the router's merged reply omits some)."""
    from repro.server import AggregationClient

    out = []
    for shard in router_stats.get("shards", []):
        with AggregationClient(str(shard["host"]), int(shard["port"]),
                               timeout=REPLY_TIMEOUT_S) as direct:
            out.append(direct.stats())
    return out


# ----- the workload ------------------------------------------------------------------

def run(seed: int, seconds: float, trace: bool, size: str,
        doctor_reference: bool = False) -> Outcome:
    out = Outcome()
    work = os.environ["TMPDIR"]
    inputs = make_inputs(seed, size)
    params = inputs.build_params()
    frames = encode_frames(params, inputs)
    out.meta.update({"num_users": inputs.num_users,
                     "domain_size": inputs.domain_size, "epsilon": EPSILON,
                     "protocol": params.protocol, "planted": inputs.items,
                     "frames_bytes": len(frames)})

    # ----- untraced passes -----------------------------------------------------------
    budget = seconds / 2 if trace else seconds
    passes: List[PassResult] = []
    started = time.perf_counter()
    last_pass_s = None
    while pass_budget(budget, time.perf_counter() - started, last_pass_s):
        pass_started = time.perf_counter()
        passes.append(one_pass(inputs, frames, work))
        last_pass_s = time.perf_counter() - pass_started
    setups = [p.setup_s for p in passes]
    while len(setups) < MIN_SETUPS and not trace:
        # spawn-and-stop cycles, so that setup_s is always a quartile of
        # several samples
        system = start_system(inputs, work)
        setups.append(system.setup_s)
        shutdown_system(system)
    log(f"hh_cluster_shm: {len(passes)} untraced pass(es), "
        f"{len(setups)} setups")

    traced: Optional[PassResult] = None
    if trace:
        traced = _traced_pass(inputs, frames, work)

    # ----- correctness and failure accounting (untimed) ------------------------------
    reference = offline_reference(params, inputs)
    expected = np.asarray(reference.estimate_many(inputs.items), dtype=float)
    if doctor_reference:
        expected = expected.copy()
        expected[0] += 1.0
    for index, p in enumerate(passes + ([traced] if traced else [])):
        _account(out, index, p, inputs.num_users * ROUNDS, expected,
                 reference)

    # ----- end-to-end metrics --------------------------------------------------------
    result_ms = [p.result_ms for p in passes]
    out.metrics = {
        "setup_s": lower_quartile(setups),
        "ingest_reports_per_s": inputs.num_users * ROUNDS
        / lower_quartile([sum(p.ingest_s) for p in passes]),
        "result_s": lower_quartile(result_ms) / 1e3,
        "wire_bytes_per_report": len(frames) / inputs.num_users,
        "peak_rss_mb": median([p.rss_mb for p in passes]),
    }
    out.meta.update({
        "passes": len(passes), "rounds_per_pass": ROUNDS,
        "setup_samples": len(setups),
        "result_samples": len(result_ms),
        "samples": {
            "ingest_s": [round(sum(p.ingest_s), 5) for p in passes],
            "result_s": [round(ms / 1e3, 6) for ms in result_ms],
            "setup_s": [round(x, 5) for x in setups]},
        "result_kind": "closed-loop heavy-hitter query through the router",
        "wire_bytes_note": "binary reports frames sent / reports",
    })

    if trace:
        out.layers, out.self_times = _layers(inputs, params, frames, passes,
                                             traced)
    return out


def _account(out: Outcome, index: int, p: PassResult, n: int,
             expected: np.ndarray, reference) -> None:
    """Attempted/failed operations and correctness checks of one pass
    that handed ``n`` reports to the system, then sent a query and a read."""
    from repro.protocol.wire import load_child_state

    out.attempted += n + 2
    absorbed = int(p.stats.get("reports_absorbed", 0))
    lost = max(n - min(p.absorbed, absorbed), 0)
    out.check(lost == 0, f"pass {index}: {lost} of {n} reports not absorbed "
              f"(sync said {p.absorbed}, stats {absorbed})", lost)
    out.check(np.array_equal(p.answer, expected),
              f"pass {index}: served estimates of the heavy-hitter query "
              f"differ from the offline engine", 1)
    served = load_child_state(p.params.make_aggregator(),
                              p.pulled["state"]).finalize()
    out.check(list(served.candidates) == list(reference.candidates)
              and dict(served.estimates) == dict(reference.estimates),
              f"pass {index}: cluster heavy-hitter list differs from the "
              f"offline engine", 1)
    faults = _faults(p)
    if any(faults.values()):
        out.meta.setdefault("recovered_faults", []).append(
            {"pass": index, **faults,
             "last_faults": [s.get("last_fault")
                             for s in p.health.get("shards", [])]})
        log(f"pass {index}: recovered link faults: {faults}")


def _faults(p: PassResult) -> Dict[str, int]:
    router = p.stats.get("router", {})
    shards = p.health.get("shards", [])
    return {
        "shard_restarts": int(router.get("shard_restarts", 0)),
        "link_faults": sum(1 for s in shards if s.get("last_fault")),
        "journal_replayed_frames": int(router.get("journal_replayed_frames",
                                                  0)),
        "frames_rejected": int(router.get("frames_rejected", 0)),
    }


def _traced_pass(inputs: Inputs, frames: bytes, work: str) -> PassResult:
    import spans

    run_id = f"hh_cluster_shm-{os.getpid()}-{time.time_ns()}"
    trace_dir = os.path.join(work, "spans")
    os.makedirs(trace_dir, exist_ok=True)
    hook = os.path.join(HERE, "hook")
    trace_env = {
        "PYTHONPATH": hook + os.pathsep + os.environ.get("PYTHONPATH", ""),
        "PERFBENCH_TRACE_DIR": trace_dir,
        "PERFBENCH_RUN_ID": run_id,
    }
    recorder = spans.SpanRecorder(run_id, role="bench")
    traced = one_pass(inputs, frames, work, recorder=recorder,
                      trace_env=trace_env)
    traced.dumps = [recorder.to_dict()] + spans.load_dumps(trace_dir, run_id)
    return traced


def _layers(inputs: Inputs, params, frames: bytes, passes: List[PassResult],
            traced: PassResult):
    import spans

    layers = spans.layer_metrics(traced.dumps)
    stats, router = traced.stats, traced.stats.get("router", {})
    faults = _faults(traced)
    drain_s = float(stats.get("drain_s", 0.0))
    untraced = (median([sum(p.ingest_s) for p in passes])
                + median([p.result_ms for p in passes]) / 1e3)
    layers.update({
        "binary.wire_bits_per_report": 8.0 * len(frames) / inputs.num_users,
        "binary.claimed_bits_per_report": float(params.report_bits),
        "transport.send_blocked_s": sum(traced.send_s),
        "service.drain_s": drain_s,
        "service.drain_busy_frac": drain_s / sum(traced.ingest_s),
        # read once, from the ``health`` reply after the result reads
        "service.queue_depth_max": float(_queue_depth(traced.health)),
        "service.reports_rejected": float(stats.get("reports_rejected", 0)),
        "service.reports_deduped": float(
            stats.get("reports_deduped", 0)
            + sum(int(s.get("reports_deduped", 0))
                  for s in traced.shard_stats)),
        "router.reports_forwarded": float(router.get("reports_forwarded", 0)),
        "router.frames_rejected": float(faults["frames_rejected"]),
        "router.shard_restarts": float(faults["shard_restarts"]),
        "router.journal_replayed_frames": float(
            faults["journal_replayed_frames"]),
        "router.link_faults": float(faults["link_faults"]),
        "cpu.client_s": traced.cpu["client"],
        "cpu.router_s": traced.cpu["router"],
        "cpu.shards_s": traced.cpu["shards"],
        "trace.overhead_frac": (sum(traced.ingest_s)
                                + traced.result_ms / 1e3) / untraced - 1.0,
    })
    return layers, spans.self_time_report(traced.dumps)
