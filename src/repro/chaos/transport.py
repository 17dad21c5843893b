"""A frame-aware fault-injecting proxy for one cluster leg.

:class:`FaultyTransport` sits between two real peers — client↔router or
router↔shard — and forwards bytes untouched *except* at scheduled frame
counts, where it injects one wire fault (``docs/chaos.md``).  It is
frame-aware in the client→upstream direction: that leg is parsed with the
production :func:`~repro.server.framing.read_frame_payload`, a monotone
counter ticks once per ``reports`` frame — a kind-1 binary payload,
sniffed by its header bytes without a decode (control frames and kind-2
``absorb_state`` pushes pass through uncounted),
and a :class:`~repro.chaos.schedule.FaultEvent` scheduled at count *n*
fires exactly when frame *n* arrives — deterministic under a fixed
schedule, independent of timing.  The upstream→client direction is a
raw byte pump; replies are never faulted.

The proxy speaks :mod:`repro.transport` on both sides, so the leg it
faults may be TCP *or* the same-host shared-memory ring: ``upstream`` is
either a ``(host, port)`` pair (TCP, the historical form) or any transport
address (``"shm://name"``), and ``start(listen="shm://...")`` accepts on a
ring instead of a socket.  The pumps only consume the duck-typed stream
surface every backend provides, so the fault kinds behave identically —
a ``reset`` aborts a ring link exactly like it aborts a socket.

The counter spans connections: reconnecting (which recovery does) keeps
counting where the last connection stopped, so one schedule addresses the
whole run.  Each event fires **once** (popped on firing, recorded in
:attr:`FaultyTransport.fired`); journal replays inflate later counts,
which shifts — never re-fires — subsequent events.

Fault kinds on this leg:

* ``delay``  — hold the frame for ``arg`` seconds, then forward it.
* ``reset``  — abort both directions mid-frame; the frame is lost.
* ``truncate`` — forward only the first half of the framed bytes, then
  close; the upstream peer sees a mid-frame EOF.
* ``corrupt`` — flip every bit of the payload's first byte (``0xB1``
  becomes ``0x4E``, neither a binary magic nor a JSON object, so the peer
  *must* reject — data bytes are not flipped because undetectable
  corruption is a documented non-goal, see ``docs/chaos.md``).
* ``stall``  — swallow the frame and black-hole the connection (both
  directions) while keeping it open: the peer's next exchange hangs until
  its own deadline fires, which is exactly the pathology the timeout
  hardening exists for.

``retarget`` repoints the upstream endpoint — the chaos supervisor calls
it after restarting a shard on a fresh port (or a fresh ring generation),
so the router keeps dialing the *proxy* while the proxy follows the shard.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.chaos.schedule import WIRE_KINDS, FaultEvent
from repro.protocol.binary import KIND_REPORTS, payload_kind
from repro.server.framing import FrameError, frame_bytes, read_frame_payload
from repro.transport import Listener
from repro.transport import dial as transport_dial
from repro.transport import serve as transport_serve

__all__ = ["FaultyTransport"]


class _Connection:
    """One proxied connection: the two pumps plus the black-hole flag.

    Readers/writers are duck-typed transport streams — real asyncio TCP
    streams or the shm ring shims; both expose ``transport.abort()``.
    """

    def __init__(self, down_reader: Any, down_writer: Any,
                 up_reader: Any, up_writer: Any) -> None:
        self.down_reader = down_reader
        self.down_writer = down_writer
        self.up_reader = up_reader
        self.up_writer = up_writer
        self.blackhole = False

    def abort(self) -> None:
        for writer in (self.down_writer, self.up_writer):
            transport = writer.transport
            if transport is not None:
                transport.abort()

    def close(self) -> None:
        # Abort-based on purpose: a graceful close waits for the write
        # buffer to drain, and a chaos proxy's peer may (by design) never
        # read again — teardown must not hang on an injected fault.
        self.abort()
        for writer in (self.down_writer, self.up_writer):
            writer.close()


class FaultyTransport:
    """Fault-injecting proxy in front of one upstream endpoint.

    ``upstream`` is a ``(host, port)`` pair (TCP) or a transport address
    string (``"tcp://host:port"``, ``"shm://name"``).
    """

    def __init__(self, name: str,
                 upstream: Union[Tuple[str, int], str],
                 faults: Optional[Dict[int, FaultEvent]] = None) -> None:
        for event in (faults or {}).values():
            if event.kind not in WIRE_KINDS:
                raise ValueError(
                    f"{event.kind!r} is not a wire fault kind"
                )
        self.name = name
        self.upstream_address = self._as_address(upstream)
        self.faults = dict(faults or {})
        #: events that actually fired, in firing order
        self.fired: List[FaultEvent] = []
        #: ``reports`` frames seen client→upstream, across all connections
        self.frames = 0
        self._listener: Optional[Listener] = None
        #: the dialable address this proxy accepts on, once started
        self.address: Optional[str] = None
        self._address: Optional[Tuple[str, int]] = None
        self._tasks: set = set()
        self._conns: List[_Connection] = []

    @staticmethod
    def _as_address(upstream: Union[Tuple[str, int], str]) -> str:
        if isinstance(upstream, str):
            return upstream
        host, port = upstream
        return f"tcp://{host}:{int(port)}"

    @property
    def endpoint(self) -> Tuple[str, int]:
        """The TCP ``(host, port)`` accepted on (shm proxies: ``address``)."""
        if self._address is None:
            raise RuntimeError("transport not started, or listening on a "
                               "non-TCP address — use .address")
        return self._address

    def retarget(self, host: Union[str, Tuple[str, int]],
                 port: Optional[int] = None) -> None:
        """Point new upstream connections at a fresh endpoint.

        Accepts the historical ``retarget(host, port)`` form, a
        ``(host, port)`` pair, or a full transport address string (the shm
        form — a restarted shard binds a fresh ring name).
        """
        if port is not None:
            self.upstream_address = self._as_address((str(host), port))
        else:
            self.upstream_address = self._as_address(host)

    async def start(self, host: str = "127.0.0.1", port: int = 0, *,
                    listen: Optional[str] = None) -> Tuple[str, int]:
        """Bind the accept side; ``listen`` overrides the default TCP bind
        with any transport address (e.g. ``"shm://chaos-client"``).
        Returns the TCP ``(host, port)`` when listening on TCP."""
        if self._listener is not None:
            raise RuntimeError("transport already started")
        if listen is None:
            listen = f"tcp://{host}:{port}"
        self._listener = await transport_serve(self._handle, listen)
        self.address = self._listener.address
        tcp_host = getattr(self._listener, "host", None)
        if tcp_host is not None:
            self._address = (str(tcp_host), int(self._listener.port))
            return self._address
        return ("", 0)

    async def stop(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks.clear()
        for conn in self._conns:
            conn.close()
        self._conns.clear()
        if listener is not None:
            await listener.wait_closed()

    # ----- per-connection plumbing ----------------------------------------------------

    async def _handle(self, down_reader: Any, down_writer: Any) -> None:
        try:
            up = await transport_dial(self.upstream_address)
        except OSError:
            down_writer.close()
            return
        conn = _Connection(down_reader, down_writer, up.reader, up.writer)
        self._conns.append(conn)
        up_task = asyncio.current_task()
        if up_task is not None:
            self._tasks.add(up_task)
        reply_task = asyncio.ensure_future(self._pump_replies(conn))
        self._tasks.add(reply_task)
        try:
            # A black-holed (stalled) connection stays in this loop
            # swallowing frames until the peer gives up and closes; cleanup
            # below then runs exactly as for a normal disconnect.
            await self._pump_frames(conn)
        finally:
            reply_task.cancel()
            conn.close()
            self._tasks.discard(reply_task)
            if up_task is not None:
                self._tasks.discard(up_task)

    async def _pump_replies(self, conn: _Connection) -> None:
        """upstream→client raw byte pump (replies are never faulted)."""
        try:
            while True:
                chunk = await conn.up_reader.read(1 << 16)
                if not chunk or conn.blackhole:
                    break
                conn.down_writer.write(chunk)
                await conn.down_writer.drain()
        except (OSError, asyncio.CancelledError):
            pass

    async def _pump_frames(self, conn: _Connection) -> None:
        """client→upstream frame pump; injects the scheduled faults."""
        try:
            while True:
                try:
                    payload = await read_frame_payload(conn.down_reader)
                except (FrameError, OSError, asyncio.IncompleteReadError):
                    break
                if payload is None:
                    break
                if conn.blackhole:
                    continue  # swallow everything after a stall
                event: Optional[FaultEvent] = None
                if payload_kind(payload) == KIND_REPORTS:
                    self.frames += 1
                    event = self.faults.pop(self.frames, None)
                if event is not None:
                    self.fired.append(event)
                    if event.kind == "delay":
                        await asyncio.sleep(event.arg)
                    elif event.kind == "reset":
                        conn.abort()
                        return
                    elif event.kind == "truncate":
                        framed = frame_bytes(payload)
                        conn.up_writer.write(framed[: max(1, len(framed) // 2)])
                        try:
                            await conn.up_writer.drain()
                        except OSError:
                            pass
                        return
                    elif event.kind == "corrupt":
                        mutated = bytearray(payload)
                        mutated[0] ^= 0xFF
                        payload = bytes(mutated)
                    elif event.kind == "stall":
                        conn.blackhole = True
                        continue
                try:
                    conn.up_writer.write(frame_bytes(payload))
                    await conn.up_writer.drain()
                except OSError:
                    break
        except asyncio.CancelledError:
            pass
