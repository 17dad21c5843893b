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
  already-decoded batches backed by zero-copy views, so the drain absorbs
  their columns without ever materializing a dict payload; a JSON
  ``reports`` frame is dropped unanswered and named in ``last_rejection``.
* **Batched drain** — one drain task pops everything queued (up to
  ``drain_reports`` rows), concatenates per epoch, and calls
  ``absorb_batch`` once per epoch — large-batch ingestion is what keeps the
  numpy fast path hot (see ``benchmarks/bench_server_ingest.py``).
* **Live queries** — ``query`` frames merge the requested epoch window
  (bit-exact, pure) and ``finalize()`` the copy while ingestion continues;
  a client that needs every report it sent reflected first sends ``sync``,
  which completes only once the queue has fully drained.
* **Durable snapshots** — ``snapshot`` frames drain the queue, then write
  the windowed state's int64 arrays to the configured
  :class:`~repro.server.snapshot.SnapshotStore` as a binary checkpoint; a
  restarted server restores from the newest file bit-identically.

The event loop is single-threaded: ``absorb_batch`` / ``finalize`` run
atomically between awaits, so no locking is needed and queries can never
observe a half-absorbed batch.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.protocol.binary import KIND_STATE, payload_kind
from repro.protocol.wire import PublicParams, ReportBatch, ServerAggregator
from repro.server.framing import (
    JSON_REPORTS_REJECTED,
    WIRE_FORMATS,
    FrameError,
    decode_frame,
    read_frame_payload,
    write_frame,
    write_state_frame,
)
from repro.server.snapshot import SnapshotStore, read_snapshot
from repro.server.window import WindowedAggregator

__all__ = ["AggregationServer", "ServerStats", "state_reply"]

#: protocol identification string sent in every ``params`` reply
SERVER_ID = "repro-aggregation-server/1"


def state_reply(merged: ServerAggregator,
                epochs: List[int]) -> Dict[str, object]:
    """The ``state`` reply for a merged window, sent as a kind-2 frame.

    Its ``"state"`` is the ``child_state`` payload over ``merged``'s live
    ``counts``: :func:`~repro.server.framing.write_state_frame` packs the
    message before its first await, so no copy is needed.
    """
    num_reports = int(merged.num_reports)
    return {"type": "state",
            "protocol": merged.params.protocol,
            "epochs": epochs,
            "num_reports": num_reports,
            "state": {"num_reports": num_reports,
                      "state": {"counts": merged.counts}}}


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
        return {"batches_received": self.batches_received,
                "reports_received": self.reports_received,
                "reports_absorbed": self.reports_absorbed,
                "reports_rejected": self.reports_rejected,
                "reports_deduped": self.reports_deduped,
                "queries_answered": self.queries_answered,
                "snapshots_written": self.snapshots_written,
                "connections_total": self.connections_total,
                "drain_s": round(self.drain_s, 6),
                "last_rejection": self.last_rejection}


@dataclass
class _QueuedBatch:
    epoch: int
    batch: ReportBatch = field(repr=False)


class AggregationServer:
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

    def __init__(self, params: PublicParams, *, window: Optional[int] = None,
                 snapshot_dir: Optional[Union[str, Path]] = None,
                 queue_batches: int = 256,
                 drain_reports: int = 1 << 18) -> None:
        if queue_batches < 1:
            raise ValueError("queue_batches must be >= 1")
        if drain_reports < 1:
            raise ValueError("drain_reports must be >= 1")
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
        self._connections: set = set()
        self._stopping = asyncio.Event()
        #: claimed synchronously at the top of start(), before its first
        #: await, so concurrent start() calls cannot both pass the guard
        self._started = False
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

    async def serve_until_stopped(self) -> None:
        """Serve until a ``shutdown`` frame arrives or :meth:`stop` is called."""
        if self._listener is None:
            raise RuntimeError("call start() first")
        await self._stopping.wait()
        await self._shutdown()

    def request_stop(self) -> None:
        """Make :meth:`serve_until_stopped` shut down as on a ``shutdown`` frame.

        Synchronous and idempotent, so it is safe as a signal handler
        (``serve`` routes ``SIGTERM`` here).
        """
        self._stopping.set()

    async def stop(self) -> None:
        """Drain, stop accepting, and cancel the drain task."""
        self._stopping.set()
        await self._shutdown()

    async def _shutdown(self) -> None:
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

    # ----- connection handling ------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.stats.connections_total += 1
        self._connections.add(writer)
        try:
            while True:
                try:
                    payload = await read_frame_payload(reader)
                    if payload is None:
                        break
                    frame = decode_frame(payload)
                except FrameError as exc:
                    await write_frame(writer, {"type": "error",
                                               "error": str(exc)})
                    break
                if payload_kind(payload) == KIND_STATE and \
                        frame["type"] != "absorb_state":
                    # Only a drain push carries state *to* a server; any
                    # other kind-2 request is answered, never acted on.
                    await write_frame(writer, {
                        "type": "error",
                        "error": f"unexpected kind-2 {frame['type']!r} "
                                 f"frame: only absorb_state carries state "
                                 f"to a server"})
                    continue
                if not await self._dispatch(frame, writer):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _answer_query(self, writer: asyncio.StreamWriter,
                            items: List[int], epochs: List[int],
                            merged) -> bool:
        """Finalize a merged window and reply with an ``estimates`` frame."""
        if merged.num_reports == 0:
            # No data (fresh server or empty window): every count
            # estimate is exactly zero; finalizing would raise.
            estimates = [0.0] * len(items)
        else:
            estimator = merged.finalize()
            estimates = [float(a) for a in estimator.estimate_many(items)]
        self.stats.queries_answered += 1
        await write_frame(writer, {
            "type": "estimates",
            "items": items,
            "estimates": estimates,
            "num_reports": merged.num_reports,
            "epochs": epochs})
        return True

    async def _dispatch(self, frame: Dict[str, object],
                        writer: asyncio.StreamWriter) -> bool:
        """Handle one frame; returns ``False`` to close the connection."""
        kind = frame.get("type")
        if kind == "reports":
            # Fire-and-forget: a bad batch must be *accounted*, never
            # answered — an error frame here would occupy the next request's
            # reply slot and desynchronize the connection forever.
            self.stats.batches_received += 1
            try:
                # A binary frame arrives with its columns already decoded
                # as zero-copy views; only a JSON frame can carry anything
                # else here, and that form is retired.
                batch = frame.get("batch")
                if not isinstance(batch, ReportBatch):
                    raise ValueError(JSON_REPORTS_REJECTED)
                if batch.protocol != self.params.protocol:
                    self.stats.reports_rejected += len(batch)
                    raise ValueError(
                        f"cannot ingest {batch.protocol!r} reports into a "
                        f"{self.params.protocol!r} server")
                if self._draining:
                    # The state already left (or is leaving) wholesale: a
                    # report absorbed now would miss the handoff and vanish.
                    self.stats.reports_rejected += len(batch)
                    raise ValueError("this shard is draining: its state "
                                     "was handed off")
            except Exception as exc:  # noqa: BLE001 - accounted in stats
                self.stats.last_rejection = str(exc)
                return True
            seq = frame.get("seq")
            if seq is not None:
                # Exact redelivery detection (spec §7.1): the router stamps
                # a strictly increasing per-link counter, so on journal
                # replay a not-larger number means this exact batch was
                # already absorbed — drop it, account it, stay silent.
                seq = int(seq)
                if self._max_seq is not None and seq <= self._max_seq:
                    self.stats.reports_deduped += len(batch)
                    return True
                self._max_seq = seq
            self.stats.reports_received += len(batch)
            if len(batch):
                await self._queue.put(
                    _QueuedBatch(int(frame.get("epoch", 0)), batch))
            return True
        try:
            if kind == "hello":
                await write_frame(writer, {
                    "type": "params",
                    "server": SERVER_ID,
                    "params": self.params.to_dict(),
                    "window": self.windowed.window,
                    "wire_formats": list(WIRE_FORMATS)})
                return True
            if kind == "sync":
                await self._queue.join()
                await write_frame(writer, {
                    "type": "synced",
                    "num_reports": self.windowed.num_reports})
                return True
            if kind == "query":
                items = [int(x) for x in frame.get("items", [])]
                window = frame.get("window")
                window = int(window) if window is not None else None
                epochs = self.windowed.select_epochs(window)
                merged = self.windowed.merged(window)
                return await self._answer_query(writer, items, epochs, merged)
            if kind == "state":
                # State pull (the cluster router's query path): drain, merge
                # the selected epochs, and ship the exact integer state as
                # one kind-2 frame.  The puller sums K shards' counts and
                # finalizes — bit-identical to one server that ingested
                # everything, because merge is an integer sum.
                await self._queue.join()
                window = frame.get("window")
                window = int(window) if window is not None else None
                min_epoch = frame.get("min_epoch")
                min_epoch = int(min_epoch) if min_epoch is not None else None
                epochs = self.windowed.select_epochs(window, min_epoch)
                merged = self.windowed.merged(window, min_epoch)
                self.stats.queries_answered += 1
                await write_state_frame(writer, state_reply(merged, epochs))
                return True
            if kind == "handoff":
                # Drain pull (spec §7.4): stop absorbing, then ship the
                # full per-epoch exact state as one kind-2 frame.  Draining
                # is set *before* the queue join so stragglers are rejected
                # and the reply is idempotent — a retried pull (the router
                # crashed mid-drain) reads the same frozen state.
                hid = int(frame.get("handoff", 0))
                # repro-lint: ignore[RPL302] the write is idempotent (True
                # stays True across retried pulls), so the interleaving is
                # harmless by design, not by timing
                self._draining = True
                await self._queue.join()
                self.stats.queries_answered += 1
                await write_state_frame(writer, {
                    "type": "handoff_state",
                    "handoff": hid,
                    "protocol": self.params.protocol,
                    "num_reports": self.windowed.num_reports,
                    "state": self.windowed.capture()})
                return True
            if kind == "absorb_state":
                # Drain push: fold a drained shard's windowed snapshot into
                # this one.  Deduped on the handoff id — the set survives
                # snapshots/restores — so a push retried across any crash
                # absorbs exactly once.
                hid = int(frame.get("handoff", 0))
                if hid in self._handoffs:
                    await write_frame(writer, {
                        "type": "absorbed",
                        "handoff": hid,
                        "absorbed": 0,
                        "deduped": True,
                        "num_reports": self.windowed.num_reports})
                    return True
                payload = frame.get("state")
                if not isinstance(payload, dict):
                    raise ValueError("absorb_state must be a kind-2 frame "
                                     "carrying a windowed snapshot object")
                absorbed = self.windowed.merge_snapshot(payload)
                self._handoffs.add(hid)
                self.stats.reports_absorbed += absorbed
                await write_frame(writer, {
                    "type": "absorbed",
                    "handoff": hid,
                    "absorbed": absorbed,
                    "deduped": False,
                    "num_reports": self.windowed.num_reports})
                return True
            if kind == "snapshot":
                if self.store is None:
                    raise ValueError("server was started without a snapshot "
                                     "directory")
                await self._queue.join()
                async with self._snapshot_lock:
                    # capture array copies synchronously (atomic w.r.t. the
                    # drain loop), then push pack + write off the event loop
                    payload = self.windowed.capture()
                    if self._handoffs:
                        payload["handoffs"] = sorted(self._handoffs)
                    path = await asyncio.get_running_loop().run_in_executor(
                        None, self.store.save, payload)
                self.stats.snapshots_written += 1
                await write_frame(writer, {
                    "type": "snapshot_written",
                    "path": str(path),
                    "num_reports": self.windowed.num_reports})
                return True
            if kind == "health":
                # Liveness probe: answered from in-memory counters without
                # touching the queue — must stay responsive while a `sync`
                # would block behind a deep backlog.
                await write_frame(writer, {
                    "type": "health",
                    "server": SERVER_ID,
                    "status": "ok",
                    "protocol": self.params.protocol,
                    "queue_depth": self._queue.qsize(),
                    "epochs": self.windowed.epochs,
                    "num_reports": self.windowed.num_reports,
                    "state_size": self.windowed.state_size,
                    "max_seq": self._max_seq,
                    "draining": self._draining})
                return True
            if kind == "stats":
                payload = self.stats.to_dict()
                payload.update({
                    "type": "stats",
                    "protocol": self.params.protocol,
                    "epochs": self.windowed.epochs,
                    "window": self.windowed.window,
                    "state_size": self.windowed.state_size,
                    "queue_depth": self._queue.qsize()})
                await write_frame(writer, payload)
                return True
            if kind == "shutdown":
                await self._queue.join()
                await write_frame(writer, {
                    "type": "bye",
                    "num_reports": self.windowed.num_reports})
                self._stopping.set()
                return False
            raise ValueError(f"unknown frame type {kind!r}")
        except Exception as exc:  # noqa: BLE001 - reported to the peer
            await write_frame(writer, {"type": "error", "error": str(exc)})
            return True
