"""The cluster router: one endpoint fronting N shard aggregation servers.

:class:`ClusterRouter` speaks the exact frame protocol of
:mod:`repro.server` on its client side, so every existing client
(:class:`~repro.server.client.AggregationClient`, the load generator, the
benchmarks) works against a cluster unchanged.  It shares the server's
connection loop (:class:`~repro.server.framing.MessageEndpoint`), which
dispatches each request that :data:`~repro.server.framing.MESSAGES` gives
a router to its ``on_<type>`` handler by name; the router answers the
server's requests plus the membership verbs.  Behind that endpoint:

* **Routing** — each ``reports`` frame is assigned to a shard by the
  published pairwise-independent
  :class:`~repro.engine.partition.ShardPartition` applied to the frame's
  shard-routing header (``docs/wire-protocol.md`` §8.1); frames without a
  routing key fall back to round-robin.  Either way the frame's *payload
  bytes are forwarded verbatim* (:func:`~repro.server.framing.frame_bytes`)
  — the router checks the column table against the payload
  (:func:`~repro.protocol.binary.check_reports_payload`: no column is
  unpacked or copied) and never re-encodes; only the shards unpack.  A
  payload the shard could not decode is rejected at the router, never
  journaled.
* **Exact merged queries** — ``query`` pulls every shard's packed
  exact-integer aggregator state (the ``state`` frame), merges the K states
  with the commutative integer-sum merge, and finalizes once.  A K-shard
  cluster therefore answers **bit-identically** to one server that ingested
  everything — and to the offline engine
  (:func:`repro.engine.run_simulation`) under the same seed, which
  ``python -m repro.cli load-test --cluster K`` asserts.  Windowed queries
  stay exact across shards: the router resolves the global newest epoch
  first and passes every shard the same absolute ``min_epoch`` cutoff.
* **Failure handling** — every frame forwarded to a shard is stamped with
  a per-link delivery sequence number (``docs/wire-protocol.md`` §7.1) and
  kept in that link's :class:`~repro.cluster.journal.FrameJournal` until
  the shard acknowledges a snapshot barrier (auto-checkpoint after
  ``checkpoint_reports`` journaled reports, or an explicit client
  ``snapshot``; a checkpoint that fails recovers once and is retried).
  When a fan-out or forward fails, recovery runs a bounded escalation
  ladder under seeded exponential backoff: reconnect and replay the
  journal first, then — when a
  :class:`~repro.cluster.supervisor.ClusterSupervisor` is attached —
  restart the shard from its newest snapshot and replay.  Replays are
  idempotent: the shard dedupes already-absorbed frames on the sequence
  number, so a replay onto a *live* shard (connection reset, truncated
  frame) absorbs only the lost suffix, while a replay onto a *restarted*
  shard (fresh watermark) re-absorbs everything since the snapshot — both
  converge to exactly the state the shard would have had without the
  fault, so cluster answers remain bit-identical through kills, resets,
  and stalls.  When the ladder is exhausted the failure surfaces as a
  typed :class:`~repro.server.framing.ShardUnavailable` within a bounded
  deadline — never a hang, never a silently partial result.

Connections to shards are pooled: one persistent, ordered connection per
shard, reused for every forward and fan-out rather than dialed per
request.  Ordering is load-bearing — a shard connection that delivers
journal frames *before* the snapshot barrier frame is what makes "journal
cleared at the barrier" an exact statement — so the pool holds exactly one
connection per shard, serialized by a per-shard lock.

**Elastic membership** — the shard set is no longer frozen at start-up.
Routing consults a versioned, epoch-stamped
:class:`~repro.cluster.shardmap.ShardMap` per frame, and three control
verbs (``docs/wire-protocol.md`` §7.4, ``docs/operations.md``) change it
online:

* ``add_shard`` spawns a shard through the supervisor and activates it at
  an epoch cut above every epoch the router has seen — the new shard takes
  only new-epoch traffic, so nothing moves and nothing double-counts.
* ``drain_shard`` rewrites the drained id out of every routing entry (no
  new frame can reach it), syncs it, pulls its packed exact-integer
  per-epoch state (the shard-side ``handoff`` frame), pushes that state
  into a surviving shard (``absorb_state``, idempotent on a handoff id),
  checkpoints the survivor, and only then reaps the drained process.
* ``rolling_restart`` checkpoint-restarts every shard in sequence behind
  its link lock — ingest to the other shards continues throughout.

Every transition step is journaled (:class:`~repro.cluster.journal.
MembershipJournal`) and the persisted map write is the commit point, so a
SIGKILL at *any* step resumes (roll forward) or rolls back to a consistent
map on the next start — and because the aggregator algebra is a
commutative integer sum, a cluster that grows and drains mid-ingest still
finalizes **bit-identically** to the offline engine.  When the router
has a journal directory (a supervisor's base directory, by default), each
link's journal also mirrors its frames to a CRC32-framed on-disk log, so
a *router* restart replays exactly what an in-process recovery would have.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cluster.supervisor import ClusterSupervisor

from repro.cluster.journal import FrameJournal, MembershipJournal
from repro.cluster.shardmap import ShardMap, ShardMapError, ShardMapStore
from repro.engine.partition import ShardPartition
from repro.protocol.binary import (
    check_reports_payload,
    fold_states,
    stamp_sequence,
)
from repro.protocol.wire import PublicParams, ServerAggregator
from repro.server.framing import (
    MESSAGES,
    WIRE_FORMATS,
    FrameError,
    MessageEndpoint,
    ServerError,
    ShardUnavailable,
    check_reply,
    encode_frame,
    encode_state_frame,
    frame_bytes,
    read_frame,
)
from repro.server.service import estimates_reply, optional_int, state_reply
from repro.server.snapshot import read_snapshot, write_snapshot
from repro.transport import dial as transport_dial
from repro.utils.rng import RandomState, as_generator

__all__ = ["ClusterError", "ClusterRouter", "RouterStats", "ROUTER_ID"]

#: protocol identification string sent in every router ``params`` reply
ROUTER_ID = "repro-cluster-router/1"

#: failures that trigger shard recovery on fan-out: transport faults and
#: ``error`` replies (:func:`~repro.server.framing.check_reply`).
#: ``asyncio.TimeoutError`` is listed explicitly: on Python 3.10 it is not
#: the builtin ``TimeoutError`` (an ``OSError`` subclass), and every shard
#: exchange runs under an ``asyncio.wait_for`` deadline.
_SHARD_FAILURES = (
    OSError,
    FrameError,
    ServerError,
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
)


class ClusterError(RuntimeError):
    """A shard is unreachable and cannot be revived."""


@dataclass
class RouterStats:
    """Router-side counters, served inside the ``stats`` reply."""

    connections_total: int = 0
    frames_forwarded: int = 0
    reports_forwarded: int = 0
    frames_unrouted: int = 0
    frames_rejected: int = 0
    queries_answered: int = 0
    shard_restarts: int = 0
    journal_replayed_frames: int = 0
    journal_replayed_reports: int = 0
    checkpoints: int = 0
    last_rejection: str = ""

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class _ShardLink:
    """One pooled, ordered connection to a shard, plus its frame journal."""

    def __init__(self, index: int, host: str, port: int,
                 shm_name: Optional[str] = None,
                 journal: Optional[FrameJournal] = None) -> None:
        self.index = index
        self.host = host
        self.port = int(port)
        #: when set, :meth:`connect` dials ``shm://{shm_name}`` (the
        #: shard's same-host shared-memory ring) instead of TCP loopback;
        #: refreshed after a supervisor restart, because a revived shard
        #: binds a fresh ring generation
        self.shm_name = shm_name
        #: duck-typed transport streams (asyncio TCP, or the shm ring
        #: shims) — the frame layer consumes the same surface either way
        self.reader: Optional[Any] = None
        self.writer: Optional[Any] = None
        self.lock = asyncio.Lock()
        #: frame payloads (and their report counts) forwarded since the
        #: shard's last acknowledged snapshot barrier, stored *after*
        #: sequence stamping so a replay redelivers identical bytes; with a
        #: journal directory the journal mirrors them to disk, so a
        #: *router* restart replays the same frames an in-process recovery
        #: would have
        self.journal = journal if journal is not None else FrameJournal()
        self.reports_forwarded = 0
        #: delivery sequence number of the last ``reports`` frame stamped
        #: for this shard (``docs/wire-protocol.md`` §7.1); the router is
        #: the single sequencing writer, so strictly increasing per link
        self.seq = 0
        #: ``repr`` of the most recent transport failure on this link
        self.last_fault: Optional[str] = None

    async def connect(self) -> None:
        await self.close()
        address = (f"shm://{self.shm_name}" if self.shm_name is not None
                   else f"tcp://{self.host}:{self.port}")
        conn = await transport_dial(address)
        self.reader, self.writer = conn.reader, conn.writer

    async def close(self) -> None:
        # detach before the first await: a connect() racing this close()
        # must never have its fresh streams nulled by a stale close
        writer, self.reader, self.writer = self.writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.IncompleteReadError):
                pass


class ClusterRouter(MessageEndpoint):
    """Route ``reports`` frames across shards; answer queries by exact merge.

    Parameters
    ----------
    params:
        Public parameters every shard serves (published to clients in the
        ``hello`` reply, exactly like a single server).
    endpoints:
        ``(host, port)`` of each shard server.  Defaults to the
        supervisor's endpoints.
    supervisor:
        A started :class:`~repro.cluster.supervisor.ClusterSupervisor`.
        Optional — without one the router still routes and queries, but a
        dead shard is an error instead of a restart.
    partition:
        The published routing partition; sampled from ``rng`` when omitted.
    rng:
        Seed/generator for sampling the default partition.
    checkpoint_reports:
        Auto-checkpoint threshold: once a shard's journal holds at least
        this many reports, the router requests a shard snapshot and clears
        the journal.  Bounds both journal memory and replay time.
    window:
        Retention the shards were started with (published in ``hello``).
    transport:
        ``"tcp"`` (default) dials every shard over TCP loopback;
        ``"shm"`` dials each local shard's same-host shared-memory ring
        (:mod:`repro.transport`) instead — no syscall per forwarded frame.
        Requires a supervisor started with ``transport="shm"``; it owns
        the per-shard ring names and their restart generations.
    connect_timeout:
        Deadline (seconds) for dialing a shard connection.
    request_timeout:
        Deadline (seconds) for one request/reply exchange (or one forward
        drain) on a shard connection.  A shard that accepts bytes but never
        answers — a stalled read — surfaces as a timeout and enters
        recovery instead of hanging the fan-out.
    recovery_attempts:
        Size of the recovery ladder: attempt 0 reconnects and replays the
        journal; later attempts escalate to a supervisor restart (when one
        is attached).  Exhausting the ladder raises
        :class:`~repro.server.framing.ShardUnavailable`.
    journal_dir:
        Home of the durable membership state: ``shardmap.json``,
        ``membership.journal`` and the per-link ``journal-shard-K.bin``
        frame journals.  Defaults to the supervisor's base directory; with
        neither a directory nor a supervisor the router runs with
        in-memory journals and an in-memory map only (exactly the old
        behavior).  On start, an existing persisted map is **adopted** —
        that is the crash-resume path — and half-finished membership
        transitions are rolled forward or back.
    backoff_base / backoff_cap:
        Exponential backoff between recovery attempts:
        ``min(cap, base * 2**(attempt-1))`` plus seeded jitter drawn from
        ``rng`` — deterministic under a fixed seed, like everything else.
    """

    side = "router"

    def __init__(
        self,
        params: PublicParams,
        endpoints: Optional[Sequence[Tuple[str, int]]] = None,
        *,
        supervisor: Optional["ClusterSupervisor"] = None,
        partition: Optional[ShardPartition] = None,
        rng: RandomState = None,
        checkpoint_reports: int = 1 << 16,
        window: Optional[int] = None,
        transport: str = "tcp",
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        recovery_attempts: int = 4,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        journal_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if endpoints is None:
            if supervisor is None:
                raise ValueError("need shard endpoints or a supervisor")
            endpoints = supervisor.endpoints()
        if not endpoints:
            raise ValueError("need at least one shard endpoint")
        if transport not in ("tcp", "shm"):
            raise ValueError(f"transport must be 'tcp' or 'shm', "
                             f"got {transport!r}")
        if transport == "shm" and (
            supervisor is None or supervisor.transport != "shm"
        ):
            raise ValueError(
                "transport='shm' needs a supervisor started with "
                "transport='shm' (it owns the shards' ring names)"
            )
        if checkpoint_reports < 1:
            raise ValueError("checkpoint_reports must be >= 1")
        if connect_timeout <= 0 or request_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if recovery_attempts < 1:
            raise ValueError("recovery_attempts must be >= 1")
        super().__init__()
        self.params = params
        self.supervisor = supervisor
        self.partition = (
            partition
            if partition is not None
            else ShardPartition.sample(len(endpoints), rng)
        )
        if self.partition.num_shards != len(endpoints):
            raise ValueError(
                f"partition routes over {self.partition.num_shards} shards "
                f"but {len(endpoints)} endpoints were given"
            )
        self.window = window
        self.checkpoint_reports = int(checkpoint_reports)
        self.connect_timeout = float(connect_timeout)
        self.request_timeout = float(request_timeout)
        self.recovery_attempts = int(recovery_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        #: jitter source for recovery backoff; seeded from the same ``rng``
        #: that sampled the partition, so a chaos run replays exactly
        self._backoff_rng = as_generator(rng)
        self.transport = transport
        self.stats = RouterStats()
        if journal_dir is None and supervisor is not None:
            journal_dir = supervisor.base_dir
        self.journal_dir = Path(journal_dir) if journal_dir is not None \
            else None
        self._map_store: Optional[ShardMapStore] = None
        self._membership_journal: Optional[MembershipJournal] = None
        if self.journal_dir is not None:
            self._map_store = ShardMapStore(self.journal_dir
                                            / "shardmap.json")
            self._membership_journal = MembershipJournal(
                self.journal_dir / "membership.journal")
        #: every link the router knows, keyed by shard id — includes a
        #: draining shard mid-handoff, which :attr:`links` (the fan-out
        #: set) no longer does
        self._links_by_id: Dict[int, _ShardLink] = {
            i: self._new_link(i, host, port)
            for i, (host, port) in enumerate(endpoints)
        }
        self.links: List[_ShardLink] = []
        self._use_map(ShardMap.initial(len(endpoints), self.partition))
        #: serializes membership transitions against each other and against
        #: merged reads (query/state/stats/sync/snapshot) — a query never
        #: observes a half-moved shard.  Per-frame forwarding does NOT take
        #: it; forwards re-check routability under the link lock instead.
        self._membership_lock = asyncio.Lock()
        #: in-flight drains (shard id -> (target id, handoff id)) so a
        #: journal-less router can still resume a drain that failed
        #: mid-transition without losing the handoff identity
        self._pending_drains: Dict[int, Tuple[int, int]] = {}
        #: newest epoch seen on any reports frame — the add-shard cut point
        self._newest_epoch = -1
        self._round_robin = 0
        self._server: Optional[asyncio.base_events.Server] = None

    @property
    def num_shards(self) -> int:
        return len(self.links)

    def _new_link(self, sid: int, host: str, port: int) -> _ShardLink:
        """A link to shard ``sid``: its shm ring name (on shm) and its
        journal, mirrored to ``journal-shard-K.bin`` when the router has a
        journal directory."""
        shm_name = (self.supervisor.shm_name(sid)
                    if self.supervisor is not None and self.transport == "shm"
                    else None)
        path = (self.journal_dir / f"journal-shard-{sid}.bin"
                if self.journal_dir is not None else None)
        return _ShardLink(sid, host, port, shm_name,
                          FrameJournal(path, fsync=False))

    def _use_map(self, shard_map: ShardMap) -> None:
        """Route on ``shard_map``: the routing authority every reports
        frame asks which shard owns its (route key, epoch).  :attr:`links`,
        the fan-out set, becomes the links of its active shards."""
        self.shard_map = shard_map
        self.partition = shard_map.newest_partition
        self.links = [self._links_by_id[sid] for sid in shard_map.active_ids]

    # ----- lifecycle ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Connect to every shard, verify parameters, bind, and serve.

        With a journal directory this is also the **crash-resume path**: an
        already-persisted shard map is adopted in place of the fresh one,
        the per-link frame journals are reloaded (truncating torn tails)
        and replayed — idempotently, thanks to §7.1 sequence dedup and the
        shards' ``max_seq`` watermarks — and any half-finished membership
        transition is rolled forward (draining) or back (joining).
        """
        if self._started:
            raise RuntimeError("router already started")
        self._started = True
        loop = asyncio.get_running_loop()
        if self._map_store is not None:
            persisted = await loop.run_in_executor(None, self._map_store.load)
            if persisted is not None:
                self._adopt_map(persisted)
            else:
                await loop.run_in_executor(
                    None, self._map_store.save, self.shard_map
                )
        for link in list(self._links_by_id.values()):
            if self.journal_dir is not None:
                _, link.seq = await loop.run_in_executor(
                    None, link.journal.load
                )
            try:
                await asyncio.wait_for(link.connect(), self.connect_timeout)
            except _SHARD_FAILURES as exc:
                # A cold resume must tolerate a shard that died along with
                # the previous router: escalate through the same recovery
                # ladder as a mid-flight fault (reconnect, then supervisor
                # restart from the newest valid snapshot).  The journal was
                # loaded above, so the ladder's replay restores everything
                # past that snapshot before the router serves anyone.
                async with link.lock:
                    await self._recover_locked(link, exc)
            await self._check_params(link)
            if self.journal_dir is not None:
                # Resume sequencing above everything this shard has ever
                # seen: the journal's own watermark covers frames journaled
                # but never delivered, the shard's ``max_seq`` covers frames
                # delivered but checkpoint-cleared from the journal.
                health = await self._request_on_link(link, {"type": "health"})
                link.seq = max(link.seq, int(health.get("max_seq") or 0))
                if link.journal.frames:
                    async with link.lock:
                        await self._replay_locked(link)
        await self._recover_membership()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        sockname = self._server.sockets[0].getsockname()
        return str(sockname[0]), int(sockname[1])

    def _adopt_map(self, shard_map: ShardMap) -> None:
        """Resume from a persisted map: rebuild the link set it describes."""
        if self.supervisor is not None:
            def link_for(sid: int) -> _ShardLink:
                existing = self._links_by_id.get(sid)
                host, port = self.supervisor.endpoint_of(sid)
                if existing is not None and (existing.host, existing.port) \
                        == (host, port):
                    return existing
                return self._new_link(sid, host, port)
        else:
            if list(shard_map.live_ids) != list(range(len(self.links))):
                raise ClusterError(
                    f"persisted map names shards "
                    f"{list(shard_map.live_ids)} but only "
                    f"{len(self.links)} positional endpoints were given "
                    f"and no supervisor is attached"
                )

            def link_for(sid: int) -> _ShardLink:
                return self._links_by_id[sid]
        self._links_by_id = {sid: link_for(sid)
                             for sid in shard_map.live_ids}
        self._use_map(shard_map)

    async def _recover_membership(self) -> None:
        """Finish (or undo) a membership transition cut short by a crash.

        The persisted map is the commit point: a ``joining`` shard never
        reached its activation commit, so it is rolled back (it owns no
        epochs and holds no state); a ``draining`` shard's routing rewrite
        *did* commit, so the drain is rolled forward through the journaled
        handoff.  Supervisor processes the map no longer knows (a crash
        between the removal commit and the reap) are retired.
        """
        if self._map_store is None:
            return
        for sid in list(self.shard_map.shard_ids):
            status = self.shard_map.status_of(sid)
            if status == "joining":
                self._journal_membership(
                    {"op": "add", "step": "rollback", "shard": sid}
                )
                await self._commit_map(self.shard_map.with_removed(sid))
                self._links_by_id.pop(sid, None)
                await self._retire_process(sid)
            elif status == "draining":
                await self._resume_drain(sid)
        if self.supervisor is not None:
            known = set(self.shard_map.shard_ids)
            for sid in self.supervisor.active_ids():
                if sid not in known:
                    await self._retire_process(sid)

    async def _shutdown(self) -> None:
        """Stop accepting clients and close the shard connections."""
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        for writer in list(self._connections):
            writer.close()
        await server.wait_closed()
        for link in self._links_by_id.values():
            await link.close()
            link.journal.close()
        if self._membership_journal is not None:
            self._membership_journal.close()

    # ----- shard fan-out plumbing -----------------------------------------------------

    async def _request_on_link(
        self, link: _ShardLink, message: Dict[str, object]
    ) -> Dict[str, object]:
        """One request/reply on an (assumed healthy) shard connection.

        ``message`` goes out as a kind-2 frame when :data:`MESSAGES` says
        its request is one (``absorb_state``), else as a JSON frame.  A
        ``state`` reply keeps its counts in their wire columns, for
        :func:`~repro.protocol.binary.fold_states` to add into one vector.

        The whole exchange runs under ``request_timeout``, so a stalled
        shard surfaces as ``asyncio.TimeoutError`` (a recoverable
        ``_SHARD_FAILURES`` member) instead of hanging the fan-out.  An
        ``error`` reply is *also* recoverable: the shard service answers an
        error frame and closes on any malformed input, so an error here
        means the pooled connection is desynchronized — reconnect, replay,
        and a ``sync`` barrier restore it.
        """
        reader, writer = link.reader, link.writer
        if reader is None or writer is None:
            raise FrameError(f"shard {link.index} link is not connected")
        kind = str(message["type"])
        data = (encode_state_frame(message)
                if MESSAGES[kind].kind2 == "request" else encode_frame(message))

        async def exchange() -> Optional[Dict[str, object]]:
            writer.write(data)
            await writer.drain()
            return await read_frame(reader, arrays=kind != "state")

        reply = await asyncio.wait_for(exchange(), self.request_timeout)
        return check_reply(kind, reply, peer=f"shard {link.index}")

    async def _check_params(self, link: _ShardLink) -> None:
        """Refuse a shard whose ``hello`` publishes other parameters."""
        reply = await self._request_on_link(link, {"type": "hello"})
        if PublicParams.from_dict(dict(reply["params"])) != self.params:
            raise ClusterError(
                f"shard {link.index} at {link.host}:{link.port} serves "
                f"different public parameters than this router"
            )

    async def _replay_locked(self, link: _ShardLink) -> None:
        """Replay the journal on a fresh connection (caller holds the lock).

        The journal holds the *stamped* payload bytes, so the shard sees an
        exact redelivery: frames at or below its sequence watermark are
        deduped, frames above it (or all of them, on a restarted shard
        whose watermark reset) are absorbed.  The closing ``sync`` barrier
        both confirms absorption and surfaces a second failure immediately.
        """
        writer = link.writer
        if writer is None:
            raise FrameError(f"shard {link.index} link is not connected")
        for payload, num_reports in link.journal.frames:
            writer.write(frame_bytes(payload))
            self.stats.journal_replayed_frames += 1
            self.stats.journal_replayed_reports += num_reports
        await asyncio.wait_for(writer.drain(), self.request_timeout)
        await self._request_on_link(link, {"type": "sync"})

    async def _reconnect_locked(self, link: _ShardLink) -> None:
        """Dial the shard afresh and bring it up to date (lock held)."""
        await asyncio.wait_for(link.connect(), self.connect_timeout)
        await self._replay_locked(link)

    async def _restart_locked(self, link: _ShardLink) -> None:
        """Supervisor-restart the shard from its snapshot, then replay.

        Caller holds ``link.lock`` and has checked ``self.supervisor``.
        The supervisor restores the shard's newest snapshot — the state at
        the last cleared journal barrier — and the replay re-forwards
        everything since, so the revived shard converges to the exact
        pre-fault integer state.
        """
        assert self.supervisor is not None
        self.stats.shard_restarts += 1
        loop = asyncio.get_running_loop()
        host, port = await loop.run_in_executor(
            None, self.supervisor.restart, link.index
        )
        link.host, link.port = host, int(port)
        if link.shm_name is not None:
            # The revived shard bound a fresh ring generation; dialing the
            # old name would hit the dead shard's unlinked segment.
            link.shm_name = self.supervisor.shm_name(link.index)
        await self._reconnect_locked(link)

    async def _recover_locked(
        self, link: _ShardLink, cause: BaseException
    ) -> None:
        """Bounded recovery ladder with seeded backoff (caller holds lock).

        Attempt 0 assumes a transport fault on a live shard: reconnect and
        replay.  Later attempts assume the shard itself is gone (or frozen
        — a SIGSTOPped shard accepts connections at the kernel backlog but
        never answers the replay's ``sync``) and escalate to a supervisor
        restart; without a supervisor they keep reconnecting.  Exhausting
        the ladder raises :class:`ShardUnavailable` — callers get a typed
        failure within ``recovery_attempts`` bounded-deadline attempts,
        never a hang.
        """
        last: BaseException = cause
        link.last_fault = repr(cause)
        for attempt in range(self.recovery_attempts):
            if attempt > 0:
                delay = min(
                    self.backoff_cap, self.backoff_base * 2 ** (attempt - 1)
                ) + float(self._backoff_rng.uniform(0.0, self.backoff_base))
                await asyncio.sleep(delay)
            try:
                if attempt == 0 or self.supervisor is None:
                    await self._reconnect_locked(link)
                else:
                    await self._restart_locked(link)
                return
            except _SHARD_FAILURES as exc:
                last = exc
                link.last_fault = repr(exc)
                await link.close()
        raise ShardUnavailable(
            f"shard {link.index} at {link.host}:{link.port} is unavailable "
            f"after {self.recovery_attempts} recovery attempts "
            f"(last fault: {link.last_fault})"
        ) from last

    async def _request(
        self, link: _ShardLink, message: Dict[str, object]
    ) -> Dict[str, object]:
        """Fan-out request with dead-shard detection and bounded recovery."""
        async with link.lock:
            for _ in range(2):
                try:
                    return await self._request_on_link(link, message)
                except _SHARD_FAILURES as exc:
                    await self._recover_locked(link, exc)
            return await self._request_on_link(link, message)

    async def _fan_out(self, message: Dict[str, object]
                       ) -> List[Dict[str, object]]:
        """Send ``message`` to every active shard; gather the replies
        without cancelling the stragglers.

        A plain ``gather`` cancels in-flight requests when one fails, which
        would abandon pooled connections mid-reply and desynchronize them;
        here every request runs to completion and the first failure is
        raised only afterwards.
        """
        results = await asyncio.gather(
            *(self._request(link, message) for link in self.links),
            return_exceptions=True,
        )
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return list(results)

    async def _checkpoint_locked(self, link: _ShardLink) -> str:
        """Snapshot one shard and clear its journal (caller holds the lock).

        The shard connection is ordered, so every journaled frame reaches
        the shard before the ``snapshot`` frame; the acknowledged snapshot
        therefore covers the whole journal, and clearing it is exact.  A
        failed snapshot runs the recovery ladder (which replays the
        journal) and is tried once more.  The on-disk mirror keeps the
        sequence watermark as a barrier entry, so a restarted router never
        re-stamps below what the shard has already seen.
        """
        try:
            reply = await self._request_on_link(link, {"type": "snapshot"})
        except _SHARD_FAILURES as exc:
            await self._recover_locked(link, exc)
            reply = await self._request_on_link(link, {"type": "snapshot"})
        link.journal.barrier(link.seq)
        self.stats.checkpoints += 1
        return str(reply["path"])

    def _is_routable(self, link: _ShardLink) -> bool:
        """True while the current map still sends new frames to ``link``."""
        try:
            status = self.shard_map.status_of(link.index)
        except ShardMapError:
            return False
        return (status == "active"
                and self._links_by_id.get(link.index) is link)

    async def _forward_routed(
        self,
        payload: bytes,
        num_reports: int,
        route: Optional[int],
        epoch: int,
    ) -> None:
        """Pick a shard under the current map and forward one payload.

        Membership can change between picking a shard and acquiring its
        link lock (a drain's routing rewrite runs while a forward waits on
        the draining shard's lock), so routability is re-checked *under*
        the lock and the frame re-picked against the newer map — a frame
        can never be sent to a shard whose state was already handed off.
        """
        if epoch > self._newest_epoch:
            self._newest_epoch = epoch
        if route is None:
            self.stats.frames_unrouted += 1
        for _ in range(8):
            link = self._pick_shard(route, epoch)
            async with link.lock:
                if not self._is_routable(link):
                    continue
                await self._forward_locked(link, payload, num_reports)
                break
        else:  # pragma: no cover - needs 8 map changes in one forward
            raise ShardUnavailable(
                "no routable shard: membership kept changing under this "
                "frame"
            )
        self.stats.frames_forwarded += 1
        self.stats.reports_forwarded += num_reports

    async def _forward_locked(
        self,
        link: _ShardLink,
        payload: bytes,
        num_reports: int,
    ) -> None:
        """Stamp, journal, and forward one ``reports`` payload to its shard.

        The payload is stamped with the link's next delivery sequence
        number *before* journaling, via
        :func:`~repro.protocol.binary.stamp_sequence` (an 8-byte splice, no
        column decode).  Journaling the stamped bytes is what makes
        replay-after-fault idempotent (§7.1): the shard dedupes redelivered
        frames on the sequence number.  Caller holds ``link.lock``.
        """
        link.seq += 1
        payload = stamp_sequence(payload, link.seq)
        link.journal.append(payload, num_reports, link.seq)
        link.reports_forwarded += num_reports
        try:
            writer = link.writer
            if writer is None:
                raise FrameError(
                    f"shard {link.index} link is not connected"
                )
            writer.write(frame_bytes(payload))
            await asyncio.wait_for(writer.drain(), self.request_timeout)
        except _SHARD_FAILURES as exc:
            # The failed frame is already journaled, so recovery's
            # replay delivers it along with everything else pending.
            await self._recover_locked(link, exc)
        if link.journal.num_reports >= self.checkpoint_reports:
            await self._checkpoint_locked(link)

    # ----- message handlers (MessageEndpoint dispatches by name) ---------------------

    def _reject(self, reason: str) -> None:
        """Account a dropped ``reports`` frame."""
        self.stats.frames_rejected += 1
        self.stats.last_rejection = reason

    def _pick_shard(self, route: Optional[int], epoch: int) -> _ShardLink:
        if route is not None:
            return self._links_by_id[self.shard_map.shard_for(route, epoch)]
        # No routing key: any assignment is exact (merge is an integer
        # sum); round-robin over the active shards keeps them balanced.
        link = self.links[self._round_robin % self.num_shards]
        self._round_robin += 1
        return link

    async def on_reports(self, payload: bytes) -> None:
        # Read the routing header and forward the payload bytes verbatim —
        # fire-and-forget, like the single-server path.
        try:
            # The shard decodes every column and closes the link on a frame
            # it cannot decode; journaled, such a frame would fail every
            # replay, so it must never be forwarded.  The check reads the
            # column table only: no packed column is unpacked here.
            header = check_reports_payload(payload)
        except ValueError as exc:  # includes BinaryFormatError
            self._reject(str(exc))
            return
        if header["protocol"] != self.params.protocol:
            self._reject(
                f"cannot route {header['protocol']!r} reports through a "
                f"{self.params.protocol!r} cluster"
            )
            return
        route = header["route"]
        await self._forward_routed(
            payload, int(header["num_reports"]),
            int(route) if route is not None else None,
            int(header["epoch"]),
        )

    async def on_hello(self, message: Dict[str, object]) -> Dict[str, object]:
        return {
            "type": "params",
            "server": ROUTER_ID,
            "params": self.params.to_dict(),
            "window": self.window,
            "wire_formats": list(WIRE_FORMATS),
            "cluster": {
                "num_shards": self.num_shards,
                "partition": self.partition.to_dict(),
                "map_version": self.shard_map.version,
                "shards": list(self.shard_map.active_ids),
            },
        }

    async def on_sync(self, message: Dict[str, object]) -> Dict[str, object]:
        # Merged reads serialize against membership transitions: a sync
        # total must never miss a shard whose state is mid-handoff.
        async with self._membership_lock:
            replies = await self._fan_out({"type": "sync"})
        return {
            "type": "synced",
            "num_reports": sum(int(r["num_reports"]) for r in replies),
        }

    async def on_query(self, message: Dict[str, object]) -> Dict[str, object]:
        items = [int(x) for x in message.get("items", [])]
        window = optional_int(message, "window")
        async with self._membership_lock:
            merged, epochs = await self._merged_aggregator(window, None)
        self.stats.queries_answered += 1
        return estimates_reply(merged, items, epochs)

    async def on_state(self, message: Dict[str, object]) -> Dict[str, object]:
        # Cluster-level state pull: sum the shards' pulled states and
        # re-pack the merged exact-integer state — the same kind-2 frame a
        # shard answers, so clusters compose (a router can front routers)
        # and protocols whose finalized estimator is not item-queryable
        # (RAPPOR) still get exact cluster reads.
        window = optional_int(message, "window")
        min_epoch = optional_int(message, "min_epoch")
        if window is not None and min_epoch is not None:
            raise ValueError("window and min_epoch are mutually exclusive")
        async with self._membership_lock:
            merged, epochs = await self._merged_aggregator(window, min_epoch)
        self.stats.queries_answered += 1
        return state_reply(merged, epochs)

    async def on_stats(self, message: Dict[str, object]) -> Dict[str, object]:
        async with self._membership_lock:
            return await self._merged_stats()

    async def on_shard_map(self, message: Dict[str, object]
                           ) -> Dict[str, object]:
        return {
            "type": "shard_map",
            "map": self.shard_map.to_dict(),
            "newest_epoch": self._newest_epoch,
        }

    async def on_add_shard(self, message: Dict[str, object]
                           ) -> Dict[str, object]:
        return await self.add_shard()

    async def on_drain_shard(self, message: Dict[str, object]
                             ) -> Dict[str, object]:
        shard = optional_int(message, "shard")
        if shard is None:
            raise ValueError("drain_shard needs a 'shard' id")
        return await self.drain_shard(shard, optional_int(message, "target"))

    async def on_rolling_restart(self, message: Dict[str, object]
                                 ) -> Dict[str, object]:
        return await self.rolling_restart()

    async def on_snapshot(self, message: Dict[str, object]
                          ) -> Dict[str, object]:
        async with self._membership_lock:
            paths = []
            for link in self.links:
                async with link.lock:
                    paths.append(await self._checkpoint_locked(link))
            num_reports = sum(int(r["num_reports"])
                              for r in await self._fan_out({"type": "sync"}))
        return {
            "type": "snapshot_written",
            "path": (
                str(self.supervisor.base_dir)
                if self.supervisor is not None
                else paths[0]
            ),
            "paths": paths,
            "num_reports": num_reports,
        }

    async def on_shutdown(self, message: Dict[str, object]
                          ) -> Dict[str, object]:
        total = 0
        async with self._membership_lock:
            links = list(self.links)
        for link in links:
            try:
                async with link.lock:
                    reply = await self._request_on_link(
                        link, {"type": "shutdown"}
                    )
                total += int(reply["num_reports"])
            except (*_SHARD_FAILURES, ClusterError):
                pass  # already dead; the supervisor reaps it below
        if self.supervisor is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.supervisor.stop)
        return {"type": "bye", "num_reports": total}

    # ----- merged queries -------------------------------------------------------------

    async def _pull_states(
        self, min_epoch: Optional[int]
    ) -> List[Dict[str, object]]:
        frame: Dict[str, object] = {"type": "state"}
        if min_epoch is not None:
            frame["min_epoch"] = int(min_epoch)
        return await self._fan_out(frame)

    async def _pull_windowed(self, window: int) -> List[Dict[str, object]]:
        """Resolve a relative window to one absolute cutoff, then pull.

        The cutoff and the pulled states must describe the same moment, or
        a window-``w`` reply could merge epochs outside the window (a
        single server computes both atomically).  So: drain every shard
        first (the ``sync`` barrier — per-connection ordering already put
        this client's prior frames ahead of it), resolve the global newest
        epoch from post-drain stats, pull with the absolute cutoff, and —
        if a concurrent sender landed a brand-new epoch in between, which
        the pulled epochs expose — re-resolve against the newer state.
        """
        if window < 1:
            raise ValueError("query window must be >= 1")
        await self._fan_out({"type": "sync"})
        pulls: List[Dict[str, object]] = []
        for _ in range(3):
            replies = await self._fan_out({"type": "stats"})
            newest = [max(r["epochs"]) for r in replies if r["epochs"]]
            cutoff = max(newest) - window if newest else None
            pulls = await self._pull_states(cutoff)
            top = max(
                (int(e) for pull in pulls for e in pull["epochs"]),
                default=None,
            )
            if top is None or (newest and top <= max(newest)):
                return pulls
        return pulls

    async def _merged_aggregator(
        self,
        window: Optional[int],
        min_epoch: Optional[int],
    ) -> Tuple[ServerAggregator, List[int]]:
        """Pull every shard's state and sum it exactly.

        The shard-side ``state`` handler drains its ingestion queue first,
        and each shard connection delivers frames in order, so the pulled
        states reflect every frame this router forwarded before the query.
        A relative ``window`` is resolved to one absolute ``min_epoch``
        cutoff against the *global* newest epoch, keeping the selection
        identical to a single server that held all shards' epochs.
        """
        if window is not None:
            pulls = await self._pull_windowed(window)
        else:
            pulls = await self._pull_states(min_epoch)
        merged = fold_states(self.params, [pull["state"] for pull in pulls])
        epochs = sorted({int(e) for pull in pulls for e in pull["epochs"]})
        return merged, epochs

    async def _merged_stats(self) -> Dict[str, object]:
        """Sum the shard counters; attach per-shard and router detail."""
        replies = await self._fan_out({"type": "stats"})
        summed = {
            key: sum(int(r.get(key, 0)) for r in replies)
            for key in (
                "batches_received",
                "reports_received",
                "reports_absorbed",
                "reports_rejected",
                "queries_answered",
                "snapshots_written",
                "connections_total",
                "state_size",
                "queue_depth",
            )
        }
        summed["drain_s"] = round(
            sum(float(r.get("drain_s", 0.0)) for r in replies), 6
        )
        summed.update(
            {
                "type": "stats",
                "server": ROUTER_ID,
                "protocol": self.params.protocol,
                "window": self.window,
                "epochs": sorted(
                    {int(e) for r in replies for e in r.get("epochs", [])}
                ),
                "router": self.stats.to_dict(),
                "shards": [
                    {
                        "shard": link.index,
                        "host": link.host,
                        "port": link.port,
                        "reports_absorbed": int(r.get("reports_absorbed", 0)),
                        "journal_reports": link.journal.num_reports,
                    }
                    for link, r in zip(self.links, replies, strict=True)
                ],
            }
        )
        return summed

    async def on_health(self, message: Dict[str, object]) -> Dict[str, object]:
        """Probe every shard without draining or recovering.

        Health is a *read* on the cluster's failure state, so an
        unreachable shard is reported (``status: "unreachable"``) rather
        than recovered — recovery stays on the ingest/query paths where it
        preserves exactness.  The dead link is closed so the next real
        request hits the not-connected guard and recovers normally.
        """
        degraded = False
        shards: List[Dict[str, object]] = []
        for link in self.links:
            entry: Dict[str, object] = {
                "shard": link.index,
                "host": link.host,
                "port": link.port,
                "membership": self.shard_map.status_of(link.index),
                "journal_frames": len(link.journal.frames),
                "journal_reports": link.journal.num_reports,
                "reports_forwarded": link.reports_forwarded,
                "seq": link.seq,
                "last_fault": link.last_fault,
            }
            if self.supervisor is not None:
                entry["restarts"] = int(
                    self.supervisor.shards[link.index].restarts
                )
            async with link.lock:
                try:
                    reply = await self._request_on_link(
                        link, {"type": "health"}
                    )
                except _SHARD_FAILURES as exc:
                    degraded = True
                    link.last_fault = repr(exc)
                    entry["last_fault"] = link.last_fault
                    entry["status"] = "unreachable"
                    entry["error"] = str(exc)
                    await link.close()
                else:
                    entry["status"] = str(reply.get("status", "ok"))
                    for key in (
                        "queue_depth", "epochs", "num_reports", "max_seq"
                    ):
                        if key in reply:
                            entry[key] = reply[key]
            shards.append(entry)
        return {
            "type": "health",
            "server": ROUTER_ID,
            "status": "degraded" if degraded else "ok",
            "num_shards": self.num_shards,
            "map_version": self.shard_map.version,
            "shards": shards,
        }

    # ----- membership transitions -----------------------------------------------------

    def _journal_membership(self, entry: Dict[str, object]) -> None:
        """Durably record one membership state-machine step (audit + resume).

        Synchronous on purpose: membership transitions are rare operator
        actions, and the fsync *is* the durability point — the step must be
        on disk before the transition takes it.
        """
        if self._membership_journal is not None:
            self._membership_journal.append(dict(entry))

    async def _commit_map(self, new_map: ShardMap) -> None:
        """Persist then adopt a new shard map — the transition commit point.

        The atomic, fsynced map write happens *before* the in-memory swap:
        a crash leaves either the old committed map or the new one, never a
        router routing on a map that disk does not know.
        """
        if self._map_store is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._map_store.save, new_map)
        self._use_map(new_map)

    async def _retire_process(self, sid: int) -> None:
        """Reap and tombstone a shard process (idempotent, may be absent)."""
        if self.supervisor is None:
            return
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.supervisor.retire, sid)

    def _handoff_path(self, hid: int) -> Optional[Path]:
        if self.journal_dir is None:
            return None
        return self.journal_dir / f"handoff-{hid:06d}.bin"

    async def add_shard(self) -> Dict[str, object]:
        """Grow the cluster by one shard at an epoch cut (``§7.4``).

        The new shard is activated at ``cut = max(newest_epoch + 1,
        last_cut + 1)``: every epoch the router has ever routed stays with
        its old owner, the new shard takes only epochs nobody has touched —
        so no state moves and nothing can double-count.  Steps are
        journaled and the map write is the commit; a crash before the
        activation commit rolls the joining shard back on the next start.
        """
        if self.supervisor is None:
            raise ClusterError("add_shard needs a supervisor (it spawns "
                               "the new shard process)")
        loop = asyncio.get_running_loop()
        async with self._membership_lock:
            new_id = self.shard_map.next_id
            self._journal_membership(
                {"op": "add", "step": "begin", "shard": new_id}
            )
            await self._commit_map(self.shard_map.with_joining(new_id))
            link: Optional[_ShardLink] = None
            try:
                spawned, host, port = await loop.run_in_executor(
                    None, self.supervisor.add_shard
                )
                if spawned != new_id:
                    raise ClusterError(
                        f"supervisor spawned shard {spawned} but the map "
                        f"allocated id {new_id}"
                    )
                link = self._new_link(new_id, host, port)
                # ids are never reused, so any journal file is stale debris
                await loop.run_in_executor(None, link.journal.delete)
                await asyncio.wait_for(link.connect(), self.connect_timeout)
                await self._check_params(link)
                last_cut = self.shard_map.entries[-1].cut_epoch
                cut = max(
                    self._newest_epoch + 1,
                    (last_cut + 1) if last_cut is not None else 0,
                )
                partition = ShardPartition.sample(
                    len(self.shard_map.active_ids) + 1, self._backoff_rng
                )
                self._journal_membership(
                    {"op": "add", "step": "activate", "shard": new_id,
                     "cut": cut}
                )
                # Register the link before the commit: the instant the new
                # map is adopted, a concurrent forward may route to new_id.
                self._links_by_id[new_id] = link
                await self._commit_map(
                    self.shard_map.with_activated(new_id, cut, partition)
                )
                self._journal_membership(
                    {"op": "add", "step": "done", "shard": new_id}
                )
                return {
                    "type": "shard_added",
                    "shard": new_id,
                    "host": host,
                    "port": port,
                    "cut_epoch": cut,
                    "map_version": self.shard_map.version,
                }
            except Exception:
                # Roll back: a joining shard owns no epochs and holds no
                # state, so undoing it is pure bookkeeping.
                self._journal_membership(
                    {"op": "add", "step": "rollback", "shard": new_id}
                )
                if self.shard_map.status_of(new_id) == "joining":
                    await self._commit_map(
                        self.shard_map.with_removed(new_id)
                    )
                self._links_by_id.pop(new_id, None)
                if link is not None:
                    await link.close()
                await self._retire_process(new_id)
                raise

    async def drain_shard(
        self, shard: int, target: Optional[int] = None
    ) -> Dict[str, object]:
        """Drain one shard: reroute, hand its exact state off, then reap.

        The routing rewrite commit is the point of no return — from then on
        no new frame can reach the draining shard, and a crash anywhere
        later rolls the drain *forward* on the next start.  The handoff
        itself is idempotent end to end: the drained shard re-answers
        ``handoff`` with the same packed state (it accepts no reports once
        draining), the pulled blob is persisted before the push, and the
        survivor dedups ``absorb_state`` on the handoff id.
        """
        async with self._membership_lock:
            sid = int(shard)
            if sid in self.shard_map.retired:
                # A retried drain whose first attempt already finished
                # (the client timed out mid-transition): answer success.
                return {
                    "type": "drained",
                    "shard": sid,
                    "target": None,
                    "handoff": None,
                    "num_reports": 0,
                    "already": True,
                    "map_version": self.shard_map.version,
                }
            status = self.shard_map.status_of(sid)
            if status == "draining":
                return await self._resume_drain(sid)
            if status != "active":
                raise ClusterError(f"shard {sid} is {status}, not active")
            active = list(self.shard_map.active_ids)
            if target is None:
                target = next(i for i in active if i != sid)
            target = int(target)
            if target == sid or target not in active:
                raise ClusterError(
                    f"drain target must be a different active shard, "
                    f"got {target} (active: {active})"
                )
            # The handoff id is the version of the drained-routing map —
            # unique per transition, known before the commit.
            hid = self.shard_map.version + 1
            self._journal_membership(
                {"op": "drain", "step": "begin", "shard": sid,
                 "target": target, "handoff": hid}
            )
            self._pending_drains[sid] = (target, hid)
            # The commit takes it out of the fan-out set (merged reads
            # would double-count its reports once absorbed); it stays
            # reachable by id for the pull.
            await self._commit_map(
                self.shard_map.with_drained_routing(sid, target)
            )
            return await self._drain_locked(sid, target, hid)

    async def _resume_drain(self, sid: int) -> Dict[str, object]:
        """Roll a committed drain forward (crash resume or operator retry)."""
        pending = self._pending_drains.get(sid)
        if pending is not None:
            target, hid = pending
        else:
            begin: Dict[str, object] = {}
            journal = self._membership_journal
            if journal is not None:
                loop = asyncio.get_running_loop()
                begin = await loop.run_in_executor(
                    None, lambda: journal.last(op="drain", shard=sid,
                                               step="begin")
                ) or {}
            target = int(begin.get("target", min(self.shard_map.active_ids)))
            hid = int(begin.get("handoff", self.shard_map.version))
        return await self._drain_locked(sid, target, hid)

    async def _drain_locked(
        self, sid: int, target: int, hid: int
    ) -> Dict[str, object]:
        """Pull → persist → absorb → checkpoint → remove → reap (resumable).

        Caller holds the membership lock (or runs before serving starts).
        Every step is safe to repeat: the pull re-answers identically, the
        persisted blob write is atomic, the absorb dedups on ``hid``, the
        checkpoint is a plain barrier, and the removal commit + reap are
        idempotent.
        """
        loop = asyncio.get_running_loop()
        link = self._links_by_id.get(sid)
        target_link = self._links_by_id[target]
        blob_path = self._handoff_path(hid)
        payload: Optional[Dict[str, object]] = None
        if blob_path is not None:
            try:
                payload = await loop.run_in_executor(
                    None, read_snapshot, blob_path
                )
            except (OSError, ValueError):
                payload = None  # not pulled yet (or torn): pull fresh
        if payload is None:
            if link is None:
                raise ClusterError(
                    f"shard {sid} is draining but its link and persisted "
                    f"handoff {hid} are both gone"
                )
            reply = await self._request(
                link, {"type": "handoff", "handoff": hid}
            )
            payload = {
                "handoff": hid,
                "shard": sid,
                "target": target,
                "num_reports": int(reply["num_reports"]),
                "state": reply["state"],
            }
            if blob_path is not None:
                await loop.run_in_executor(
                    None, write_snapshot, blob_path, payload, "binary"
                )
            self._journal_membership(
                {"op": "drain", "step": "pulled", "shard": sid,
                 "handoff": hid,
                 "num_reports": int(payload["num_reports"])}
            )
        await self._request(
            target_link,
            {"type": "absorb_state", "handoff": hid,
             "state": payload["state"]},
        )
        # Checkpoint the survivor immediately: the absorbed state must not
        # live only in its memory once the source shard is reaped.
        async with target_link.lock:
            await self._checkpoint_locked(target_link)
        self._journal_membership(
            {"op": "drain", "step": "merged", "shard": sid, "handoff": hid}
        )
        await self._commit_map(self.shard_map.with_removed(sid))
        await self._retire_process(sid)
        if link is not None:
            await link.close()
            await loop.run_in_executor(None, link.journal.delete)
        self._links_by_id.pop(sid, None)
        if blob_path is not None:
            await loop.run_in_executor(
                None, lambda: blob_path.unlink(missing_ok=True)
            )
        self._journal_membership(
            {"op": "drain", "step": "done", "shard": sid, "handoff": hid}
        )
        self._pending_drains.pop(sid, None)
        return {
            "type": "drained",
            "shard": sid,
            "target": target,
            "handoff": hid,
            "num_reports": int(payload["num_reports"]),
            "map_version": self.shard_map.version,
        }

    async def rolling_restart(self) -> Dict[str, object]:
        """Checkpoint-restart every shard in sequence, zero data loss.

        Each shard is checkpointed (journal barrier) and restarted behind
        its own link lock, so forwards to the *other* shards continue
        throughout; forwards to the restarting shard simply queue on its
        lock and proceed after the replayed ``sync`` barrier.  Membership
        does not change — the journal entries are audit trail, and a crash
        mid-sequence needs no recovery beyond the normal per-link ladder.
        """
        if self.supervisor is None:
            raise ClusterError("rolling_restart needs a supervisor")
        restarted: List[int] = []
        async with self._membership_lock:
            for link in list(self.links):
                self._journal_membership(
                    {"op": "restart", "step": "begin", "shard": link.index}
                )
                async with link.lock:
                    await self._checkpoint_locked(link)
                    await self._restart_locked(link)
                self._journal_membership(
                    {"op": "restart", "step": "done", "shard": link.index}
                )
                restarted.append(link.index)
        return {
            "type": "restarted",
            "shards": restarted,
            "map_version": self.shard_map.version,
        }
