"""The asyncio report-ingestion server.

One :class:`AggregationServer` owns a single protocol's
:class:`~repro.server.window.WindowedAggregator` and serves any number of
concurrent connections — TCP always, plus an optional same-host
shared-memory endpoint (:mod:`repro.transport`) — speaking the frame
protocol of :mod:`repro.server.framing` (``docs/wire-protocol.md`` §7):

* **Ingestion** — ``reports`` frames are decoded to columnar
  :class:`~repro.protocol.wire.ReportBatch` objects and pushed onto a
  *bounded* queue; a connection that outruns the server suspends inside
  ``queue.put`` and the unread bytes back up the TCP window — natural
  backpressure, no dropped reports.  ``reports`` frames are binary
  (``docs/wire-protocol.md`` §8) and arrive from the frame layer as
  already-decoded batches of read-only columns, so the drain absorbs
  their columns without ever materializing a dict payload; a JSON
  ``reports`` frame is dropped unanswered and named in ``last_rejection``.
* **Batched drain** — one drain task pops everything queued (up to
  ``drain_reports`` rows), concatenates per epoch, and calls
  ``absorb_batch`` once per epoch — large-batch ingestion is what keeps the
  numpy fast path hot (see ``benchmarks/bench_server_ingest.py``).
* **Dispatch** — :class:`~repro.server.framing.MessageEndpoint` runs the
  connection loop and calls the ``on_<type>`` handler of each request that
  :data:`~repro.server.framing.MESSAGES` gives a server; each handler
  returns its reply.
* **Live queries** — ``query`` frames merge the requested epoch window
  (bit-exact, pure) and ``finalize()`` the copy while ingestion continues;
  a client that needs every report it sent reflected first sends ``sync``,
  which completes only once the queue has fully drained.
* **Durable snapshots** — ``snapshot`` frames drain the queue, pack the
  windowed state's exact integer arrays into a binary checkpoint body on
  the event loop, and write it to the configured
  :class:`~repro.server.snapshot.SnapshotStore` off it; a restarted server
  restores from the newest file bit-identically.

The event loop is single-threaded: ``absorb_batch`` / ``finalize`` run
atomically between awaits, so no locking is needed and queries can never
observe a half-absorbed batch.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.protocol.binary import pack_state
from repro.protocol.wire import (
    PublicParams,
    ReportBatch,
    ServerAggregator,
    child_state,
)
from repro.server.framing import WIRE_FORMATS, MessageEndpoint, decode_frame
from repro.server.snapshot import SnapshotStore, read_snapshot
from repro.server.window import WindowedAggregator

__all__ = ["AggregationServer", "ServerStats", "estimates_reply",
           "optional_int", "state_reply"]

#: protocol identification string sent in every ``params`` reply
SERVER_ID = "repro-aggregation-server/1"


def optional_int(message: Dict[str, object], key: str) -> Optional[int]:
    """``message[key]`` as an int, or ``None`` when it is absent or null."""
    value = message.get(key)
    return int(value) if value is not None else None


def estimates_reply(merged: ServerAggregator, items: List[int],
                    epochs: List[int]) -> Dict[str, object]:
    """The ``estimates`` reply: ``merged`` finalized and asked for ``items``."""
    if merged.num_reports == 0:
        # No data (fresh server or empty window): every count estimate is
        # exactly zero; finalizing would raise.
        estimates = [0.0] * len(items)
    else:
        estimates = [float(a) for a in merged.finalize().estimate_many(items)]
    return {"type": "estimates",
            "items": items,
            "estimates": estimates,
            "num_reports": int(merged.num_reports),
            "epochs": epochs}


def state_reply(merged: ServerAggregator,
                epochs: List[int]) -> Dict[str, object]:
    """The ``state`` reply for a merged window, sent as a kind-2 frame.

    Its ``"state"`` is :func:`~repro.protocol.wire.child_state` of
    ``merged``, which holds the live ``counts``:
    :func:`~repro.server.framing.write_state_frame` packs the message
    before its first await, so no absorb can come between.
    """
    state = child_state(merged)
    return {"type": "state",
            "protocol": merged.params.protocol,
            "epochs": epochs,
            "num_reports": state["num_reports"],
            "state": state}


@dataclass
class ServerStats:
    """Ingestion counters, readable over the wire via ``stats`` frames."""

    batches_received: int = 0
    reports_received: int = 0
    reports_absorbed: int = 0
    reports_rejected: int = 0
    reports_deduped: int = 0
    queries_answered: int = 0
    snapshots_written: int = 0
    connections_total: int = 0
    drain_s: float = 0.0
    last_rejection: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {**asdict(self), "drain_s": round(self.drain_s, 6)}


@dataclass
class _QueuedBatch:
    epoch: int
    batch: ReportBatch = field(repr=False)


class AggregationServer(MessageEndpoint):
    """A long-lived ingestion endpoint for one protocol's reports.

    Parameters
    ----------
    params:
        Public parameters of any registered wire protocol; published to
        clients in reply to ``hello`` frames.
    window:
        Epoch retention of the underlying :class:`WindowedAggregator`
        (``None`` = unbounded).
    snapshot_dir:
        Directory for durable snapshots, written in the binary state
        container; ``None`` disables the ``snapshot`` frame (it returns an
        error).
    queue_batches:
        Bound of the ingestion queue, in batches.  Full queue = ingestion
        backpressure on every sending connection.
    drain_reports:
        Soft cap on the rows one drain iteration concatenates before
        calling ``absorb_batch``.
    """

    side = "server"

    def __init__(self, params: PublicParams, *, window: Optional[int] = None,
                 snapshot_dir: Optional[Union[str, Path]] = None,
                 queue_batches: int = 256,
                 drain_reports: int = 1 << 18) -> None:
        if queue_batches < 1:
            raise ValueError("queue_batches must be >= 1")
        if drain_reports < 1:
            raise ValueError("drain_reports must be >= 1")
        super().__init__()
        self.params = params
        self.windowed = WindowedAggregator(params, window)
        self.stats = ServerStats()
        self.store = (SnapshotStore(snapshot_dir)
                      if snapshot_dir is not None else None)
        self._queue_batches = queue_batches
        self._drain_reports = drain_reports
        self._queue: Optional[asyncio.Queue] = None
        #: the bound TCP accept endpoint (a transport Listener); always
        #: present once started — its (host, port) is the readiness contract
        self._listener = None
        #: the optional same-host shared-memory accept endpoint
        self._shm_listener = None
        self._drain_task: Optional[asyncio.Task] = None
        #: serializes snapshot captures with their executor-side disk write
        self._snapshot_lock = asyncio.Lock()
        #: highest delivery sequence number accepted (spec §7.1); in-memory
        #: only — a restarted shard must re-absorb its journal replay onto
        #: the restored snapshot, so forgetting the watermark is correct
        self._max_seq: Optional[int] = None
        #: set once this shard answered a ``handoff`` frame: its state was
        #: (or is being) handed off wholesale, so absorbing any further
        #: report would lose it — reports are rejected from then on
        self._draining = False
        #: handoff ids already absorbed via ``absorb_state`` (spec §7.4);
        #: persisted inside snapshots so a drain push retried across a
        #: crash-restore can never double-count the handed-off state
        self._handoffs: set = set()

    # ----- lifecycle ----------------------------------------------------------------

    @classmethod
    def restore(cls, snapshot_path: Union[str, Path],
                **kwargs) -> "AggregationServer":
        """Build a server whose state is the given windowed snapshot file."""
        payload = read_snapshot(snapshot_path)
        windowed = WindowedAggregator.from_snapshot(payload)
        server = cls(windowed.params, window=windowed.window, **kwargs)
        server.windowed = windowed
        server.stats.reports_absorbed = windowed.num_reports
        server._handoffs = {int(h) for h in payload.get("handoffs", [])}
        return server

    async def start(self, host: str = "127.0.0.1", port: int = 0, *,
                    transport: str = "tcp", shm_name: Optional[str] = None,
                    acceptors: int = 1) -> Tuple[str, int]:
        """Bind and start serving; returns the actual TCP ``(host, port)``.

        The TCP endpoint is always bound — its ``(host, port)`` readiness
        line is what the supervisor and the blocking clients rely on, and
        ``acceptors > 1`` spreads it over that many SO_REUSEPORT acceptor
        sockets.  ``transport="shm"`` *additionally* binds a same-host
        shared-memory accept endpoint named ``shm_name``
        (``docs/transport.md``); both endpoints feed the same dispatcher,
        queue, and aggregator, so which transport a frame arrived over is
        invisible to the aggregate.
        """
        # Imported lazily: repro.transport pulls repro.server.framing, so a
        # module-level import here would cycle through the package __init__.
        from repro import transport as transports

        if self._started:
            raise RuntimeError("server already started")
        transports.get_backend(transport)  # raises on an unknown name
        if transport == "shm" and not shm_name:
            raise ValueError("transport='shm' needs a shm_name to bind")
        self._started = True
        self._queue = asyncio.Queue(maxsize=self._queue_batches)
        self._drain_task = asyncio.create_task(self._drain_loop())
        self._listener = await transports.serve(
            self._handle_connection,
            transports.format_address("tcp", f"{host}:{port}"),
            acceptors=acceptors)
        if transport == "shm":
            self._shm_listener = await transports.serve(
                self._handle_connection,
                transports.format_address("shm", str(shm_name)))
        return self._listener.host, self._listener.port

    async def _shutdown(self) -> None:
        """Stop accepting, drain, and cancel the drain task."""
        if self._listener is None:
            return
        listener, self._listener = self._listener, None
        shm_listener, self._shm_listener = self._shm_listener, None
        listener.close()
        if shm_listener is not None:
            shm_listener.close()
        # Close lingering client connections before wait_closed(): since
        # Python 3.12.1 it waits for every connection *handler* to finish,
        # so an idle client parked in read_frame would otherwise hang the
        # shutdown indefinitely.
        for writer in list(self._connections):
            writer.close()
        await listener.wait_closed()
        if shm_listener is not None:
            await shm_listener.wait_closed()
        await self._queue.join()
        self._drain_task.cancel()
        try:
            await self._drain_task
        except asyncio.CancelledError:
            pass

    # ----- ingestion ----------------------------------------------------------------

    async def _drain_loop(self) -> None:
        """Single consumer: pop queued batches, concatenate, absorb."""
        loop = asyncio.get_running_loop()
        while True:
            first: _QueuedBatch = await self._queue.get()
            pending = [first]
            total = len(first.batch)
            while total < self._drain_reports:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                pending.append(item)
                total += len(item.batch)
            start = loop.time()
            try:
                by_epoch: Dict[int, List[_QueuedBatch]] = {}
                for item in pending:
                    by_epoch.setdefault(item.epoch, []).append(item)
                for epoch, items in by_epoch.items():
                    # A bad batch (stale epoch, or a well-tagged frame whose
                    # columns don't fit the protocol) is dropped and
                    # recorded, never raised: a dead drain task would
                    # deadlock every later `sync`/`snapshot`/`shutdown`.
                    size = sum(len(item.batch) for item in items)
                    try:
                        batch = (items[0].batch if len(items) == 1 else
                                 ReportBatch.concat([i.batch for i in items],
                                                    consume=True))
                        self.windowed.absorb_batch(batch, epoch)
                    except Exception as exc:  # noqa: BLE001 - accounted
                        self.stats.reports_rejected += size
                        self.stats.last_rejection = str(exc)
                    else:
                        self.stats.reports_absorbed += size
            finally:
                self.stats.drain_s += loop.time() - start
                for _ in pending:
                    self._queue.task_done()

    # ----- message handlers (MessageEndpoint dispatches by name) -------------------

    def _reject(self, reason: str, reports: int = 0) -> None:
        """Account a dropped ``reports`` frame of ``reports`` reports."""
        self.stats.batches_received += 1
        self.stats.reports_rejected += reports
        self.stats.last_rejection = reason

    async def on_reports(self, payload: bytes) -> None:
        # Fire-and-forget: a bad batch must be *accounted*, never answered —
        # an error frame here would occupy the next request's reply slot
        # and desynchronize the connection forever.  An undecodable payload
        # raises FrameError: answered, and the connection closed.
        message = decode_frame(payload)
        batch: ReportBatch = message["batch"]
        if batch.protocol != self.params.protocol:
            self._reject(f"cannot ingest {batch.protocol!r} reports into a "
                         f"{self.params.protocol!r} server", len(batch))
            return
        if self._draining:
            # The state already left (or is leaving) wholesale: a report
            # absorbed now would miss the handoff and vanish.
            self._reject("this shard is draining: its state was handed off",
                         len(batch))
            return
        self.stats.batches_received += 1
        seq = message.get("seq")
        if seq is not None:
            # Exact redelivery detection (spec §7.1): the router stamps a
            # strictly increasing per-link counter, so on journal replay a
            # not-larger number means this exact batch was already
            # absorbed — drop it, account it, stay silent.
            seq = int(seq)
            if self._max_seq is not None and seq <= self._max_seq:
                self.stats.reports_deduped += len(batch)
                return
            self._max_seq = seq
        self.stats.reports_received += len(batch)
        if len(batch):
            await self._queue.put(_QueuedBatch(int(message["epoch"]), batch))

    async def on_hello(self, message: Dict[str, object]) -> Dict[str, object]:
        return {"type": "params",
                "server": SERVER_ID,
                "params": self.params.to_dict(),
                "window": self.windowed.window,
                "wire_formats": list(WIRE_FORMATS)}

    async def on_sync(self, message: Dict[str, object]) -> Dict[str, object]:
        await self._queue.join()
        return {"type": "synced", "num_reports": self.windowed.num_reports}

    async def on_query(self, message: Dict[str, object]) -> Dict[str, object]:
        items = [int(x) for x in message.get("items", [])]
        window = optional_int(message, "window")
        epochs = self.windowed.select_epochs(window)
        merged = self.windowed.merged(window)
        self.stats.queries_answered += 1
        return estimates_reply(merged, items, epochs)

    async def on_state(self, message: Dict[str, object]) -> Dict[str, object]:
        # State pull (the cluster router's query path): drain, merge the
        # selected epochs, and ship the exact integer state as one kind-2
        # frame.  The puller sums K shards' counts and finalizes —
        # bit-identical to one server that ingested everything, because
        # merge is an integer sum.
        await self._queue.join()
        window = optional_int(message, "window")
        min_epoch = optional_int(message, "min_epoch")
        epochs = self.windowed.select_epochs(window, min_epoch)
        merged = self.windowed.merged(window, min_epoch)
        self.stats.queries_answered += 1
        return state_reply(merged, epochs)

    async def on_handoff(self, message: Dict[str, object]) -> Dict[str, object]:
        # Drain pull (spec §7.4): stop absorbing, then ship the full
        # per-epoch exact state as one kind-2 frame.  Draining is set
        # *before* the queue join so stragglers are rejected and the reply
        # is idempotent — a retried pull (the router crashed mid-drain)
        # reads the same frozen state.
        hid = int(message.get("handoff", 0))
        # The write is idempotent (True stays True across retried pulls),
        # so its interleaving with on_reports' read is harmless by design,
        # not by timing.
        self._draining = True
        await self._queue.join()
        self.stats.queries_answered += 1
        # the capture holds the live counts: the reply's kind-2 frame packs
        # them before its first await
        return {"type": "handoff_state",
                "handoff": hid,
                "protocol": self.params.protocol,
                "num_reports": self.windowed.num_reports,
                "state": self.windowed.capture()}

    async def on_absorb_state(self, message: Dict[str, object]
                              ) -> Dict[str, object]:
        # Drain push: fold a drained shard's windowed snapshot into this
        # one.  Deduped on the handoff id — the set survives
        # snapshots/restores — so a push retried across any crash absorbs
        # exactly once.
        hid = int(message.get("handoff", 0))
        absorbed, deduped = 0, hid in self._handoffs
        if not deduped:
            payload = message.get("state")
            if not isinstance(payload, dict):
                raise ValueError("absorb_state must carry a windowed "
                                 "snapshot object")
            absorbed = self.windowed.merge_snapshot(payload)
            self._handoffs.add(hid)
            self.stats.reports_absorbed += absorbed
        return {"type": "absorbed",
                "handoff": hid,
                "absorbed": absorbed,
                "deduped": deduped,
                "num_reports": self.windowed.num_reports}

    async def on_snapshot(self, message: Dict[str, object]
                          ) -> Dict[str, object]:
        if self.store is None:
            raise ValueError("server was started without a snapshot "
                             "directory")
        await self._queue.join()
        async with self._snapshot_lock:
            # Pack the checkpoint body from the live counts before the next
            # await, so the drain loop cannot absorb between the capture and
            # the pack; only the checksum, write and fsync of the packed
            # bytes run off the event loop, while the drain goes on.  The
            # reply's count is read with the capture: what the file holds.
            payload = self.windowed.capture()
            num_reports = self.windowed.num_reports
            if self._handoffs:
                payload["handoffs"] = sorted(self._handoffs)
            body = pack_state(payload)
            path = await asyncio.get_running_loop().run_in_executor(
                None, self.store.save, body)
        self.stats.snapshots_written += 1
        return {"type": "snapshot_written",
                "path": str(path),
                "num_reports": num_reports}

    async def on_health(self, message: Dict[str, object]) -> Dict[str, object]:
        # Liveness probe: answered from in-memory counters without touching
        # the queue — must stay responsive while a `sync` would block
        # behind a deep backlog.
        return {"type": "health",
                "server": SERVER_ID,
                "status": "ok",
                "protocol": self.params.protocol,
                "queue_depth": self._queue.qsize(),
                "epochs": self.windowed.epochs,
                "num_reports": self.windowed.num_reports,
                "state_size": self.windowed.state_size,
                "max_seq": self._max_seq,
                "draining": self._draining}

    async def on_stats(self, message: Dict[str, object]) -> Dict[str, object]:
        payload = self.stats.to_dict()
        payload.update({"type": "stats",
                        "protocol": self.params.protocol,
                        "epochs": self.windowed.epochs,
                        "window": self.windowed.window,
                        "state_size": self.windowed.state_size,
                        "queue_depth": self._queue.qsize()})
        return payload

    async def on_shutdown(self, message: Dict[str, object]
                          ) -> Dict[str, object]:
        await self._queue.join()
        return {"type": "bye", "num_reports": self.windowed.num_reports}
