"""Clients for the streaming aggregation service.

Two flavors over identical wire bytes:

* :class:`AggregationClient` — blocking sockets; the right tool for scripts,
  tests, and the thread-per-connection load generator
  (``python -m repro.cli load-test``).
* :class:`AsyncAggregationClient` — asyncio streams, for embedding in an
  event loop next to other I/O.

Both expose the full frame vocabulary: ``hello`` (fetch the published
:class:`~repro.protocol.wire.PublicParams`), ``send_batch`` (fire-and-forget
ingestion), ``sync`` (barrier: frames on one connection are processed in
order and the reply waits for the ingestion queue to drain, so everything
*this* connection sent beforehand is absorbed; other connections' unread
frames may still be in flight — each sender must issue its own ``sync``),
``query`` (live windowed estimates), ``snapshot``, ``stats``, ``health``
(liveness probe; against a cluster router it carries per-shard status),
and ``shutdown``.  Server-side failures surface as :class:`ServerError` —
the connection stays usable — and a cluster router that exhausted its
recovery deadline against a dead shard surfaces as the typed
:class:`ShardUnavailable` subclass.

Both flavors apply a default I/O deadline (:data:`DEFAULT_TIMEOUT`) to
connect and to every request/reply exchange, so a stalled peer raises
:class:`TimeoutError` instead of hanging the caller forever; pass
``timeout=None`` to opt back into unbounded blocking.

Report batches ship as binary frames, the bit-packed columnar form of
``docs/wire-protocol.md`` §8 and the only one a server accepts.  ``hello``
doubles as format negotiation: the reply advertises the server's accepted
formats and the client raises if ``"binary"`` is not among them.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Dict, Optional, Sequence

import numpy as np

from repro.protocol.wire import PublicParams, ReportBatch
from repro.server.framing import (
    ServerError,
    ShardUnavailable,
    check_reply,
    check_wire_format,
    encode_reports_frame,
    read_frame,
    read_frame_sync,
    write_frame,
    write_frame_sync,
)

__all__ = ["AggregationClient", "AsyncAggregationClient", "DEFAULT_TIMEOUT",
           "ServerError", "ShardUnavailable"]

#: default connect/request deadline, seconds; ``timeout=None`` disables
DEFAULT_TIMEOUT = 60.0


def _check_negotiated(reply: Dict[str, object]) -> None:
    advertised = tuple(reply.get("wire_formats", ()))
    if "binary" not in advertised:
        raise ServerError(f"server does not accept 'binary' reports frames "
                          f"(advertised: {advertised})")


class AggregationClient:
    """Blocking client for one server connection (usable as a context manager).

    ``wire_format`` accepts only ``"binary"`` (anything else raises
    ``ValueError``); it remains for callers that name the format.
    """

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = DEFAULT_TIMEOUT,
                 wire_format: str = "binary") -> None:
        check_wire_format(wire_format)
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        # The timeout sticks to the socket: every subsequent send/recv
        # (not just connect) raises TimeoutError after `timeout` seconds
        # of stall, so a wedged server cannot hang the caller.
        self._sock = socket.create_connection((host, self.port),
                                              timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._sock.makefile("rwb")

    # ----- plumbing ------------------------------------------------------------------

    def _request(self, frame: Dict[str, object]) -> Dict[str, object]:
        write_frame_sync(self._stream, frame)
        return check_reply(frame["type"], read_frame_sync(self._stream))

    def close(self) -> None:
        self._stream.close()
        self._sock.close()

    def __enter__(self) -> "AggregationClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----- frame vocabulary ----------------------------------------------------------

    def hello(self) -> PublicParams:
        """Fetch the server's published parameters and negotiate the format.

        The reply advertises the server's accepted ``wire_formats``; if
        ``"binary"`` is not among them a :class:`ServerError` is raised up
        front instead of every later batch being silently rejected.
        """
        reply = self._request({"type": "hello"})
        _check_negotiated(reply)
        return PublicParams.from_dict(dict(reply["params"]))

    def send_batch(self, batch: ReportBatch, epoch: int = 0,
                   route: Optional[int] = None) -> None:
        """Ship one report batch as a binary frame (fire-and-forget).

        A non-``None`` ``route`` stamps the shard-routing header (used when
        the peer is a :class:`~repro.cluster.ClusterRouter`; a plain server
        ignores it).
        """
        self._stream.write(encode_reports_frame(batch, epoch, route=route))
        self._stream.flush()

    def send_raw(self, frames: bytes) -> None:
        """Ship pre-encoded ``reports`` frames (the benchmark fast path)."""
        self._stream.write(frames)
        self._stream.flush()

    def sync(self) -> int:
        """Barrier for *this connection's* prior sends; returns the absorbed count.

        The server processes a connection's frames in order and replies only
        after its ingestion queue has fully drained, so every batch sent on
        this connection beforehand is absorbed.  Batches other connections
        sent may still be in their sockets — each sender syncs for itself.
        """
        reply = self._request({"type": "sync"})
        return int(reply["num_reports"])

    def query(self, items: Sequence[int],
              window: Optional[int] = None) -> np.ndarray:
        """Live frequency estimates for ``items`` over the last ``window`` epochs."""
        frame: Dict[str, object] = {"type": "query",
                                    "items": [int(x) for x in items]}
        if window is not None:
            frame["window"] = int(window)
        reply = self._request(frame)
        return np.asarray(reply["estimates"], dtype=float)

    def pull_state(self, window: Optional[int] = None,
                   min_epoch: Optional[int] = None) -> Dict[str, object]:
        """Pull the merged exact-integer aggregator state (drains first).

        Returns the reply dictionary; its ``"state"`` arrives in the
        kind-2 frame already unpacked to a ``child_state`` payload — load
        it with ``load_child_state(params, reply["state"])``.  This is the
        cluster router's query primitive: pull every shard's state, merge,
        finalize once.
        """
        frame: Dict[str, object] = {"type": "state"}
        if window is not None:
            frame["window"] = int(window)
        if min_epoch is not None:
            frame["min_epoch"] = int(min_epoch)
        return self._request(frame)

    def snapshot(self) -> str:
        """Ask the server to write a durable snapshot; returns its path."""
        reply = self._request({"type": "snapshot"})
        return str(reply["path"])

    def stats(self) -> Dict[str, object]:
        """Server ingestion counters and window occupancy."""
        return self._request({"type": "stats"})

    def health(self) -> Dict[str, object]:
        """Liveness probe; a cluster router replies with per-shard status."""
        return self._request({"type": "health"})

    # ----- cluster membership (router peers only) ------------------------------------

    def shard_map(self) -> Dict[str, object]:
        """The router's current versioned shard map (plus its newest epoch)."""
        return self._request({"type": "shard_map"})

    def add_shard(self) -> Dict[str, object]:
        """Grow the cluster by one shard at the next epoch cut (§7.4)."""
        return self._request({"type": "add_shard"})

    def drain_shard(self, shard: int,
                    target: Optional[int] = None) -> Dict[str, object]:
        """Drain ``shard``: reroute, hand its exact state off, then reap it."""
        frame: Dict[str, object] = {"type": "drain_shard",
                                    "shard": int(shard)}
        if target is not None:
            frame["target"] = int(target)
        return self._request(frame)

    def rolling_restart(self) -> Dict[str, object]:
        """Checkpoint-restart every shard in sequence, zero data loss."""
        return self._request({"type": "rolling_restart"})

    def shutdown(self) -> int:
        """Stop the server (drains first); returns the final report count."""
        reply = self._request({"type": "shutdown"})
        return int(reply["num_reports"])


class AsyncAggregationClient:
    """Asyncio flavor of :class:`AggregationClient` (same frames, same server)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 timeout: Optional[float] = DEFAULT_TIMEOUT) -> None:
        self._reader = reader
        self._writer = writer
        self.timeout = timeout

    @classmethod
    async def connect(cls, host: str, port: int,
                      timeout: Optional[float] = DEFAULT_TIMEOUT
                      ) -> "AsyncAggregationClient":
        open_conn = asyncio.open_connection(host, int(port))
        if timeout is None:
            reader, writer = await open_conn
        else:
            try:
                reader, writer = await asyncio.wait_for(open_conn, timeout)
            except asyncio.TimeoutError:
                # On 3.10 asyncio.TimeoutError is not the builtin; normalize
                # so callers catch one exception type on every Python.
                raise TimeoutError(
                    f"connect to {host}:{port} timed out after "
                    f"{timeout}s") from None
        return cls(reader, writer, timeout)

    @classmethod
    async def dial(cls, address: str,
                   timeout: Optional[float] = DEFAULT_TIMEOUT
                   ) -> "AsyncAggregationClient":
        """Connect over any registered transport (``tcp://host:port``,
        ``shm://name``) — identical frames and vocabulary either way."""
        # Lazy: repro.transport imports repro.server.framing, so importing
        # it at module level would cycle through this package's __init__.
        from repro.transport import dial as transport_dial

        conn = await transport_dial(address, timeout=timeout)
        return cls(conn.reader, conn.writer, timeout)

    async def _deadline(self, awaitable, what: str):
        if self.timeout is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, self.timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(f"{what} timed out after "
                               f"{self.timeout}s") from None

    async def _request(self, frame: Dict[str, object]) -> Dict[str, object]:
        async def exchange() -> Optional[Dict[str, object]]:
            await write_frame(self._writer, frame)
            return await read_frame(self._reader)
        reply = await self._deadline(exchange(), f"{frame['type']!r} request")
        return check_reply(frame["type"], reply)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "AsyncAggregationClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def hello(self) -> PublicParams:
        reply = await self._request({"type": "hello"})
        _check_negotiated(reply)
        return PublicParams.from_dict(dict(reply["params"]))

    async def send_batch(self, batch: ReportBatch, epoch: int = 0,
                         route: Optional[int] = None) -> None:
        self._writer.write(encode_reports_frame(batch, epoch, route=route))
        await self._deadline(self._writer.drain(), "reports send")

    async def send_raw(self, frames: bytes) -> None:
        """Ship pre-encoded ``reports`` frames (the benchmark fast path)."""
        self._writer.write(frames)
        await self._deadline(self._writer.drain(), "raw send")

    async def send_stream(self, batches, epoch: int = 0) -> int:
        """Ship an iterable of batches; returns the number of reports sent."""
        sent = 0
        for batch in batches:
            await self.send_batch(batch, epoch)
            sent += len(batch)
        return sent

    async def sync(self) -> int:
        reply = await self._request({"type": "sync"})
        return int(reply["num_reports"])

    async def query(self, items: Sequence[int],
                    window: Optional[int] = None) -> np.ndarray:
        frame: Dict[str, object] = {"type": "query",
                                    "items": [int(x) for x in items]}
        if window is not None:
            frame["window"] = int(window)
        reply = await self._request(frame)
        return np.asarray(reply["estimates"], dtype=float)

    async def pull_state(self, window: Optional[int] = None,
                         min_epoch: Optional[int] = None) -> Dict[str, object]:
        frame: Dict[str, object] = {"type": "state"}
        if window is not None:
            frame["window"] = int(window)
        if min_epoch is not None:
            frame["min_epoch"] = int(min_epoch)
        return await self._request(frame)

    async def snapshot(self) -> str:
        reply = await self._request({"type": "snapshot"})
        return str(reply["path"])

    async def stats(self) -> Dict[str, object]:
        return await self._request({"type": "stats"})

    async def health(self) -> Dict[str, object]:
        return await self._request({"type": "health"})

    async def shard_map(self) -> Dict[str, object]:
        return await self._request({"type": "shard_map"})

    async def add_shard(self) -> Dict[str, object]:
        return await self._request({"type": "add_shard"})

    async def drain_shard(self, shard: int,
                          target: Optional[int] = None) -> Dict[str, object]:
        frame: Dict[str, object] = {"type": "drain_shard",
                                    "shard": int(shard)}
        if target is not None:
            frame["target"] = int(target)
        return await self._request(frame)

    async def rolling_restart(self) -> Dict[str, object]:
        return await self._request({"type": "rolling_restart"})

    async def shutdown(self) -> int:
        reply = await self._request({"type": "shutdown"})
        return int(reply["num_reports"])
