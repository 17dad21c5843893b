"""Deterministic chaos runs: faulted cluster vs. offline engine, bit for bit.

:class:`ChaosRunner` is the harness behind ``python -m repro.cli
chaos-test``.  One run:

1. derives its inputs with :func:`repro.engine.seeded_inputs`, the
   seeded run ``load-test`` and the experiment matrix replay too, and its
   routed chunk stream with :func:`repro.engine.routed_stream`;
2. computes the ground truth offline via
   :func:`repro.engine.run_simulation`;
3. starts a real cluster — :class:`~repro.cluster.ClusterSupervisor`
   shards, :class:`~repro.cluster.ClusterRouter` — but threads **every**
   connection through :class:`~repro.chaos.transport.FaultyTransport`
   proxies (client↔router and router↔each-shard);
4. streams the chunk batches while the seeded
   :class:`~repro.chaos.schedule.FaultSchedule` injects resets, truncated
   and corrupted frames, stalls, delays, shard SIGKILLs and SIGSTOPs;
5. asserts the served answers equal the offline engine's **bit for bit**.

The client send loop recovers from its own faults by *resume-by-count*:
batches are sent on one ordered logical stream, so the absorbed count the
server reports after ``sync`` is always a prefix sum of batch sizes; on
any send failure the runner reconnects, syncs, and resumes at the first
unabsorbed batch.  The router's sequence-number dedup (``§7.1``) makes the
router→shard side equally exact, so the only acceptable end states are
"bit-identical" or a typed error — never silent corruption, which is the
whole point of the harness (``docs/chaos.md``).
"""

from __future__ import annotations

import asyncio
import shutil
import signal
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.chaos.schedule import (
    FAULT_KINDS,
    MEMBERSHIP_KINDS,
    FaultEvent,
    FaultSchedule,
)
from repro.chaos.transport import FaultyTransport
from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import ClusterSupervisor
from repro.protocol.wire import (
    PublicParams,
    ReportBatch,
    ServerAggregator,
    load_child_state,
    protocol_class,
)
from repro.server.client import AsyncAggregationClient, ServerError
from repro.server.framing import FrameError

__all__ = ["ChaosResult", "ChaosRunner", "ChaosSupervisor"]

#: client-side failures the send loop recovers from by reconnect+resume
_RECOVERABLE = (
    OSError,
    TimeoutError,
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
    FrameError,
    ServerError,
)


class ChaosSupervisor(ClusterSupervisor):
    """A :class:`ClusterSupervisor` whose first shards sit behind proxies.

    The router talks to shard *proxies* (:attr:`proxies`, one per shard
    the cluster started with); a restart moves the real shard to a fresh
    port, so :meth:`restart` retargets the shard's proxy and hands the
    router back the (stable) proxy endpoint.  Shards added later run
    unproxied — wire faults stay aimed at the original shard set.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.proxies: List[FaultyTransport] = []

    def endpoints(self) -> List[Tuple[str, int]]:
        return [self.endpoint_of(index) for index in self.active_ids()]

    def endpoint_of(self, index: int) -> Tuple[str, int]:
        if index < len(self.proxies):
            return self.proxies[index].endpoint
        return super().endpoint_of(index)

    def restart(self, index: int) -> Tuple[str, int]:
        host, port = super().restart(index)
        if index < len(self.proxies):
            self.proxies[index].retarget(host, port)
            return self.proxies[index].endpoint
        return host, port


class _Workload(NamedTuple):
    """One run's derived inputs (:meth:`ChaosRunner._workload`)."""

    values: np.ndarray
    params: PublicParams
    offline: ServerAggregator
    batches: List[ReportBatch]
    routes: List[int]
    cum: np.ndarray


@dataclass
class ChaosResult:
    """Outcome of one chaos run (``identical`` is the acceptance bit)."""

    identical: bool
    num_users: int
    num_batches: int
    queries: List[int]
    served: np.ndarray
    expected: np.ndarray
    fired: List[FaultEvent]
    restarts: int
    send_retries: int
    schedule: FaultSchedule
    #: the pulled exact state (``counts`` and ``num_reports``) equals the
    #: offline aggregator's — the check that still holds when every
    #: queried estimate is 0 (a heavy-hitter run that lists nothing)
    state_identical: bool = False
    health: Dict[str, object] = field(default_factory=dict)
    #: membership-mode detail (``chaos-test --membership``): the add/drain
    #: replies, the final shard map, and the per-transition assertions
    membership: Dict[str, object] = field(default_factory=dict)

    @property
    def fired_kinds(self) -> Tuple[str, ...]:
        present = {event.kind for event in self.fired}
        return tuple(kind for kind in FAULT_KINDS + MEMBERSHIP_KINDS
                     if kind in present)


class ChaosRunner:
    """Drive one seeded chaos run against a real faulted cluster."""

    def __init__(
        self,
        protocol: str = "hashtogram",
        domain_size: int = 4096,
        epsilon: float = 1.0,
        num_users: int = 12_000,
        num_shards: int = 3,
        seed: int = 7,
        schedule: Optional[FaultSchedule] = None,
        base_dir: Optional[Union[str, Path]] = None,
        deadline: float = 2.0,
        num_queries: int = 32,
        max_retries: int = 60,
        membership: bool = False,
        transport: str = "tcp",
    ) -> None:
        protocol_class(protocol)  # an unknown name fails here, not mid-run
        self.protocol = protocol
        self.domain_size = int(domain_size)
        self.epsilon = float(epsilon)
        self.num_users = int(num_users)
        self.num_shards = int(num_shards)
        self.seed = int(seed)
        self.schedule = schedule
        self.base_dir = base_dir
        # One knob: the router's per-request and connect deadline.  The
        # client waits five of them (a stalled shard must time out at the
        # router first), and both sides back off in fractions of it.
        self.deadline = float(deadline)
        self.num_queries = int(num_queries)
        self.max_retries = int(max_retries)
        self.membership = bool(membership)
        self.transport = transport
        self._retries = 0
        self._client: Optional[AsyncAggregationClient] = None
        self._client_addr: Tuple[str, int] = ("", 0)

    def run(self) -> ChaosResult:
        """Execute the whole chaos run on a private event loop."""
        if self.membership:
            return asyncio.run(self._run_membership())
        return asyncio.run(self._run())

    # ----- client-side retry plumbing -------------------------------------------------

    async def _fresh_client(self) -> AsyncAggregationClient:
        if self._client is not None:
            try:
                await self._client.close()
            except OSError:
                pass
            self._client = None
        host, port = self._client_addr
        last: Optional[BaseException] = None
        for _ in range(8):
            try:
                self._client = await AsyncAggregationClient.connect(
                    host, port, timeout=5 * self.deadline,
                )
                return self._client
            except _RECOVERABLE as exc:
                last = exc
                await asyncio.sleep(self.deadline / 20)
        raise RuntimeError(f"could not reconnect to the router: {last!r}")

    def _spend_retry(self, exc: BaseException) -> None:
        self._retries += 1
        if self._retries > self.max_retries:
            raise RuntimeError(
                f"chaos run exceeded {self.max_retries} client retries "
                f"(last failure: {exc!r})"
            ) from exc

    async def _synced_count(self) -> int:
        """``sync`` with reconnect-on-failure; returns the absorbed count."""
        while True:
            try:
                if self._client is None:
                    await self._fresh_client()
                assert self._client is not None
                return await self._client.sync()
            except _RECOVERABLE as exc:
                self._spend_retry(exc)
                await self._fresh_client()

    # ----- the run --------------------------------------------------------------------

    def _workload(self) -> _Workload:
        """The seeded run of :func:`repro.engine.seeded_inputs`, with an
        explicit (smaller) chunk size so the stream has enough frames for
        every scheduled fault to land on one."""
        from repro.engine import routed_stream, run_simulation, seeded_inputs

        values, params, plan_seed = seeded_inputs(
            self.protocol, self.num_users, self.domain_size, self.epsilon,
            self.seed)
        chunk_size = max(1, self.num_users // max(1, self.num_shards * 10))
        offline = run_simulation(params, values, rng=plan_seed,
                                 chunk_size=chunk_size).aggregator
        batches, routes = routed_stream(params, values, rng=plan_seed,
                                        chunk_size=chunk_size)
        return _Workload(values, params, offline, batches, routes,
                         np.cumsum([len(batch) for batch in batches]))

    def _router(self, params, supervisor, **kwargs) -> ClusterRouter:
        return ClusterRouter(
            params,
            supervisor=supervisor,
            rng=self.seed,
            connect_timeout=self.deadline,
            request_timeout=self.deadline,
            checkpoint_reports=max(256, self.num_users // 4),
            backoff_base=self.deadline / 100,
            **kwargs,
        )

    async def _answers(self, work: _Workload) -> Dict[str, object]:
        """Query, pull the exact state and read health through the router;
        the fields :class:`ChaosResult` compares with the offline run."""
        from repro.analysis.metrics import probe_queries

        queries = probe_queries(work.values, self.domain_size,
                                self.num_queries, 0)
        served = await self._with_retry(lambda c: c.query(queries))
        expected = work.offline.finalize().estimate_many(queries)
        pull = await self._with_retry(lambda c: c.pull_state())
        pulled = load_child_state(work.params, pull["state"])
        health = await self._with_retry(lambda c: c.health())
        return dict(
            identical=bool(np.array_equal(served, expected)),
            state_identical=bool(
                pulled.num_reports == work.offline.num_reports
                and np.array_equal(pulled.counts, work.offline.counts)),
            num_users=self.num_users,
            num_batches=len(work.batches),
            queries=queries,
            served=np.asarray(served, dtype=float),
            expected=np.asarray(expected, dtype=float),
            send_retries=self._retries,
            health=health,
        )

    async def _run(self) -> ChaosResult:
        work = self._workload()
        params, batches = work.params, work.batches

        schedule = self.schedule
        if schedule is None:
            schedule = FaultSchedule.generate(
                self.seed, num_frames=len(batches),
                num_shards=self.num_shards,
            )
        process_faults = schedule.process_faults()

        ephemeral = self.base_dir is None
        base_dir = Path(
            tempfile.mkdtemp(prefix="repro-chaos-")
            if ephemeral else self.base_dir  # type: ignore[arg-type]
        )
        loop = asyncio.get_running_loop()
        supervisor = ChaosSupervisor(params, self.num_shards, base_dir)
        client_proxy: Optional[FaultyTransport] = None
        router: Optional[ClusterRouter] = None
        resume_tasks: List[asyncio.Task] = []
        try:
            endpoints = await loop.run_in_executor(None, supervisor.start)
            for k, (host, port) in enumerate(endpoints):
                proxy = FaultyTransport(
                    f"shard-{k}", (host, port),
                    faults=schedule.wire_faults(f"shard-{k}"),
                )
                await proxy.start()
                supervisor.proxies.append(proxy)
            router = self._router(params, supervisor)
            router_addr = await router.start()
            client_proxy = FaultyTransport(
                "client", router_addr, faults=schedule.wire_faults("client"),
            )
            self._client_addr = await client_proxy.start()

            client = await self._fresh_client()
            published = await client.hello()
            if published != params:
                raise RuntimeError("router published mismatched parameters")

            async def before(sent: int) -> int:
                for event in process_faults.pop(sent, []):
                    await self._process_fault(supervisor, event,
                                              resume_tasks)
                return sent

            await self._send_all(work, [0] * len(batches), before)

            # Let every frozen shard thaw before the query phase.
            if resume_tasks:
                await asyncio.gather(*resume_tasks, return_exceptions=True)
                resume_tasks.clear()

            return ChaosResult(
                **await self._answers(work),
                fired=self._collect_fired(supervisor.proxies, client_proxy,
                                          schedule, process_faults),
                restarts=sum(h.restarts for h in supervisor.shards),
                schedule=schedule,
            )
        finally:
            for task in resume_tasks:
                task.cancel()
            if self._client is not None:
                try:
                    await self._client.close()
                except OSError:
                    pass
                self._client = None
            if client_proxy is not None:
                await client_proxy.stop()
            if router is not None:
                await router.stop()
            for proxy in supervisor.proxies:
                await proxy.stop()
            await loop.run_in_executor(None, supervisor.stop)
            if ephemeral:
                shutil.rmtree(base_dir, ignore_errors=True)

    async def _send_all(self, work: _Workload, epochs: List[int],
                        before) -> None:
        """Send every batch, in order, until the cluster absorbed them all.

        ``await before(i)`` runs ahead of send index ``i`` (it fires the
        faults due there) and returns the index to send, which a
        resume-by-count inside it may move back.  Any failure reconnects,
        syncs and resumes at the first unabsorbed batch; the outer loop
        re-checks the absorbed count because a stalled proxy can swallow
        "successful" sends.
        """
        sent = 0
        while True:
            while sent < len(work.batches):
                sent = await before(sent)
                try:
                    assert self._client is not None
                    await self._client.send_batch(
                        work.batches[sent], epoch=epochs[sent],
                        route=work.routes[sent],
                    )
                    sent += 1
                except _RECOVERABLE as exc:
                    self._spend_retry(exc)
                    await self._fresh_client()
                    absorbed = await self._synced_count()
                    sent = int(np.searchsorted(work.cum, absorbed,
                                               side="right"))
            absorbed = await self._synced_count()
            if absorbed == self.num_users:
                return
            self._spend_retry(RuntimeError(
                f"absorbed {absorbed} of {self.num_users} after full "
                f"send; resuming"
            ))
            sent = int(np.searchsorted(work.cum, absorbed, side="right"))

    async def _process_fault(self, supervisor, event: FaultEvent,
                             resume_tasks: List[asyncio.Task]) -> None:
        """SIGKILL (``kill``, ``drain-race``) or SIGSTOP (``sigstop``,
        thawed after ``event.arg`` seconds) an active shard."""
        victim = int(event.shard or 0)
        if victim not in supervisor.active_ids():
            return
        loop = asyncio.get_running_loop()
        if event.kind == "sigstop":
            await loop.run_in_executor(None, supervisor.kill, victim,
                                       signal.SIGSTOP)
            resume_tasks.append(loop.create_task(
                self._resume_later(supervisor, victim, event.arg)))
        else:
            await loop.run_in_executor(None, supervisor.kill, victim)

    async def _resume_later(self, chaos_supervisor: ChaosSupervisor,
                            shard: int, delay: float) -> None:
        await asyncio.sleep(max(0.0, delay))
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, chaos_supervisor.resume, shard)

    async def _with_retry(self, request):
        """``await request(client)``, reconnecting on a recoverable failure."""
        while True:
            try:
                if self._client is None:
                    await self._fresh_client()
                assert self._client is not None
                return await request(self._client)
            except _RECOVERABLE as exc:
                self._spend_retry(exc)
                await self._fresh_client()

    # ----- membership mode (chaos-test --membership) ----------------------------------

    async def _run_membership(self) -> ChaosResult:
        """Elastic-membership chaos: add/drain mid-stream under fault fire.

        Proxy-less on purpose: the faults in this mode live *below* the
        wire — SIGKILL during the drain handoff, torn journal tails,
        flipped snapshot bytes — so the router talks to its shards
        directly and ``--transport`` picks tcp or shared-memory rings for
        that leg (the client leg is always tcp).  The choreography is
        scripted: ``add_shard`` at send index ``n // 4``, ``drain`` of the
        schedule's victim at ``n // 2``, with the seeded
        :meth:`FaultSchedule.generate_membership` events aimed at the
        transitions.  Acceptance is the same bit as the default mode: the
        finalized cluster answers must equal the offline engine's exactly,
        and the final shard map must show exactly the scripted membership.
        """
        work = self._workload()
        params, n = work.params, len(work.batches)
        if n < 5:
            raise ValueError(
                "membership mode needs >= 5 batches to place the add and "
                "the drain; raise num_users"
            )
        add_frame = n // 4
        drain_frame = n // 2
        # Four epoch bands: the add cut lands mid-stream, so the grown
        # cluster routes at least one whole band through the new shard.
        epochs = [(i * 4) // n for i in range(n)]

        schedule = self.schedule
        if schedule is None:
            schedule = FaultSchedule.generate_membership(
                self.seed, num_frames=n, num_shards=self.num_shards,
                add_frame=add_frame, drain_frame=drain_frame,
            )
        faults = schedule.membership_faults()
        process_faults = schedule.process_faults()
        drain_id = 0
        for event in schedule.events:
            if event.kind == "drain-race":
                drain_id = int(event.shard or 0)

        ephemeral = self.base_dir is None
        base_dir = Path(
            tempfile.mkdtemp(prefix="repro-chaos-")
            if ephemeral else self.base_dir  # type: ignore[arg-type]
        )
        loop = asyncio.get_running_loop()
        supervisor = ClusterSupervisor(params, self.num_shards, base_dir,
                                       transport=self.transport)

        def make_router() -> ClusterRouter:
            return self._router(params, supervisor, transport=self.transport)

        router: Optional[ClusterRouter] = None
        fired: List[FaultEvent] = []
        membership: Dict[str, object] = {
            "transport": self.transport,
            "add_frame": add_frame,
            "drain_frame": drain_frame,
            "drain_shard": drain_id,
        }
        resume_tasks: List[asyncio.Task] = []
        try:
            await loop.run_in_executor(None, supervisor.start)
            router = make_router()
            self._client_addr = await router.start()
            client = await self._fresh_client()
            published = await client.hello()
            if published != params:
                raise RuntimeError("router published mismatched parameters")

            # One monotone cursor walks the fault/choreography slots in
            # order even when resume-by-count moves ``sent`` non-linearly:
            # slot k's faults fire before slot k's scripted transition
            # (the drain-race SIGKILL must land just before the drain),
            # and slot ``add_frame`` is always processed before any later
            # slot's kill of the not-yet-existing new shard.
            cursor = 0

            async def before(sent: int) -> int:
                nonlocal cursor, router
                while cursor <= sent:
                    for event in (faults.pop(cursor, [])
                                  + process_faults.pop(cursor, [])):
                        if event.kind == "corrupt-snapshot":
                            membership["corrupt_snapshot"] = (
                                await self._corrupt_snapshot(
                                    loop, supervisor,
                                    int(event.shard or 0), base_dir))
                        elif event.kind == "torn-journal":
                            assert router is not None
                            # Sync first: the barrier guarantees every
                            # journaled frame is absorbed shard-side, so the
                            # record torn off the tail is a *duplicate* of
                            # delivered state (the crash window fsync=False
                            # journals have) — torn-tail truncation must be
                            # loss-free then, and the watermark resume
                            # proves it.
                            await self._synced_count()
                            router, torn = await self._tear_and_restart(
                                loop, router, make_router, base_dir)
                            membership["torn_journal"] = torn
                            sent = int(np.searchsorted(
                                work.cum, await self._synced_count(),
                                side="right"))
                            # Re-checkpoint so every later SIGKILL recovers
                            # from a snapshot whose journal tail is
                            # complete again.
                            await self._with_retry(lambda c: c.snapshot())
                        else:  # drain-race, kill, sigstop
                            await self._process_fault(supervisor, event,
                                                      resume_tasks)
                        fired.append(event)
                    if cursor == add_frame:
                        membership["add"] = await self._membership_op(
                            lambda c: c.add_shard(), self._added_reply)
                    if cursor == drain_frame:
                        membership["drain"] = await self._membership_op(
                            lambda c: c.drain_shard(drain_id), None)
                    cursor += 1
                return sent

            await self._send_all(work, epochs, before)

            if resume_tasks:
                await asyncio.gather(*resume_tasks, return_exceptions=True)
                resume_tasks.clear()

            answers = await self._answers(work)
            final_map = (await self._with_retry(lambda c: c.shard_map()))["map"]
            membership["final_map"] = final_map

            # The map itself is an invariant, not a measurement: anything
            # but "victim retired, survivors + the new shard active" means
            # a transition half-landed, which must fail loudly.
            active = [int(s["id"]) for s in final_map["shards"]
                      if s["status"] == "active"]
            want = sorted((set(range(self.num_shards)) - {drain_id})
                          | {self.num_shards})
            if active != want or drain_id not in final_map["retired"]:
                raise RuntimeError(
                    f"membership did not converge: active={active} "
                    f"(want {want}), retired={final_map['retired']} "
                    f"(want {drain_id} in it)"
                )

            return ChaosResult(
                **answers,
                fired=sorted(fired,
                             key=lambda e: (e.frame, e.target, e.kind)),
                restarts=sum(h.restarts for h in supervisor.shards),
                schedule=schedule,
                membership=membership,
            )
        finally:
            for task in resume_tasks:
                task.cancel()
            if self._client is not None:
                try:
                    await self._client.close()
                except OSError:
                    pass
                self._client = None
            if router is not None:
                await router.stop()
            await loop.run_in_executor(None, supervisor.stop)
            if ephemeral:
                shutil.rmtree(base_dir, ignore_errors=True)

    async def _membership_op(self, do, check) -> Dict[str, object]:
        """Run one membership verb with reconnect-on-failure.

        Membership verbs are not blindly retryable the way sends are: a
        second ``add_shard`` after a reply lost on the wire would grow the
        cluster twice.  ``check`` (when given) inspects the cluster after
        a failure and returns the completed-reply stand-in if the verb
        actually landed server-side; ``None`` means retry.  The drain verb
        needs no check — the router resumes a half-done drain and answers
        idempotently for an already-retired shard.
        """
        while True:
            try:
                if self._client is None:
                    await self._fresh_client()
                assert self._client is not None
                return await do(self._client)
            except _RECOVERABLE as exc:
                self._spend_retry(exc)
                await self._fresh_client()
                if check is not None:
                    assert self._client is not None
                    done = await check(self._client)
                    if done is not None:
                        return done

    async def _added_reply(
        self, client: AsyncAggregationClient,
    ) -> Optional[Dict[str, object]]:
        """Completed-``add_shard`` detector for :meth:`_membership_op`."""
        try:
            reply = await client.shard_map()
        except _RECOVERABLE:
            return None
        shard_map = reply["map"]
        statuses = {int(s["id"]): s["status"]
                    for s in shard_map["shards"]}  # type: ignore[index]
        if statuses.get(self.num_shards) == "active":
            return {
                "type": "shard_added",
                "shard": self.num_shards,
                "map_version": shard_map["version"],  # type: ignore[index]
                "recovered": True,
            }
        return None


    async def _corrupt_snapshot(
        self,
        loop: asyncio.AbstractEventLoop,
        supervisor: ClusterSupervisor,
        shard: int,
        base_dir: Path,
    ) -> str:
        """Flip bytes in a shard's newest snapshot, then SIGKILL the shard.

        Checkpoints **twice back to back** first, with no sends between:
        the newest and the previous snapshot then hold the same
        exact-integer state and the journals were cleared at the barrier,
        so walking back past the corrupted newest
        (:meth:`SnapshotStore.latest_valid`) restores bit-identical state
        by construction — corrupting a *uniquely newest* snapshot would be
        genuine data loss, which is not what this fault tests.
        """
        await self._with_retry(lambda c: c.snapshot())
        await self._with_retry(lambda c: c.snapshot())
        shard_dir = Path(base_dir) / f"shard-{shard}"
        snapshots = sorted(shard_dir.glob("snapshot-*"))
        if not snapshots:
            raise RuntimeError(f"no snapshots to corrupt in {shard_dir}")
        victim = snapshots[-1]
        await loop.run_in_executor(None, self._flip_bytes, victim)
        await loop.run_in_executor(None, supervisor.kill, shard)
        return str(victim)

    @staticmethod
    def _flip_bytes(path: Path, count: int = 5) -> None:
        raw = bytearray(path.read_bytes())
        mid = len(raw) // 2
        for offset in range(mid, min(mid + count, len(raw))):
            raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))

    async def _tear_and_restart(
        self,
        loop: asyncio.AbstractEventLoop,
        router: ClusterRouter,
        make_router,
        base_dir: Path,
    ) -> Tuple[ClusterRouter, str]:
        """Stop the router, tear a frame-journal tail, start a new router.

        The replacement router replays the torn journal (truncating the
        partial tail record in place) and re-learns each shard's sequence
        watermark from its health report, so the frames lost off the tail
        — already delivered before the tear — are neither replayed twice
        nor lost.
        """
        await router.stop()
        torn = await loop.run_in_executor(
            None, self._tear_tail, Path(base_dir))
        replacement = make_router()
        self._client_addr = await replacement.start()
        await self._fresh_client()
        return replacement, torn

    @staticmethod
    def _tear_tail(base_dir: Path, nbytes: int = 7) -> str:
        """Truncate ``nbytes`` off the largest frame journal; returns it.

        Seven bytes is always a *torn record*, never a clean boundary: the
        smallest journal record is 20 bytes (8-byte record header plus the
        12-byte fixed entry), so the cut lands strictly inside the final
        record.
        """
        journals = sorted(
            base_dir.glob("journal-shard-*.bin"),
            key=lambda p: p.stat().st_size,
            reverse=True,
        )
        for path in journals:
            size = path.stat().st_size
            if size > nbytes:
                with path.open("r+b") as fh:
                    fh.truncate(size - nbytes)
                return str(path)
        return ""

    @staticmethod
    def _collect_fired(
        shard_proxies: List[FaultyTransport],
        client_proxy: Optional[FaultyTransport],
        schedule: FaultSchedule,
        unfired_process: Dict[int, List[FaultEvent]],
    ) -> List[FaultEvent]:
        """Everything that actually fired: proxy records + popped process faults."""
        fired: List[FaultEvent] = []
        for proxy in shard_proxies:
            fired.extend(proxy.fired)
        if client_proxy is not None:
            fired.extend(client_proxy.fired)
        leftover = {
            id(event)
            for events in unfired_process.values()
            for event in events
        }
        for event in schedule.events:
            if event.kind in ("kill", "sigstop") and id(event) not in leftover:
                fired.append(event)
        fired.sort(key=lambda e: (e.frame, e.target, e.kind))
        return fired
