"""Length-prefixed framing for the streaming aggregation service.

Every message on a server connection — in either direction — is one *frame*:
a 4-byte big-endian payload length followed by the payload.  Two frame
classes share the prefix and are told apart by the payload's first byte;
binary payloads then by their kind byte:

```
+----------------+---------------------------+
| 4 bytes (!I)   | UTF-8 JSON object         |   first byte '{' (0x7B)
| payload length | {"type": ..., ...}        |
+----------------+---------------------------+
| 4 bytes (!I)   | binary columnar payload   |   first byte 0xB1
| payload length | (repro.protocol.binary)   |   kind 1 reports, 2 state
+----------------+---------------------------+
```

JSON frames carry the control vocabulary: the requests and replies of
:data:`MESSAGES`, the normative table of ``docs/wire-protocol.md`` §7.
Kind-1 binary frames carry
``reports``, the only form a report batch can take on the wire: the batch
columns travel as raw little-endian bytes behind a fixed struct header
(``docs/wire-protocol.md`` §8) and decode to **read-only zero-copy** numpy
views — no JSON, no base64, no intermediate dict.  ``decode_frame``
returns a binary ``reports`` message with an already-decoded
:class:`~repro.protocol.wire.ReportBatch` under ``"batch"``.  A JSON frame
of type ``reports`` (the retired pre-§8 form) still parses, and the
server and router reject it with :data:`JSON_REPORTS_REJECTED`.

Kind-2 binary frames carry the messages that hold aggregator state
(``state``, ``handoff_state``, ``absorb_state``): one ``pack_state``
container whose JSON skeleton is the message itself, its fields with
their JSON types, and whose column table holds the message's integer
arrays (:func:`encode_state_frame`).  ``decode_frame`` returns that
message with its arrays already unpacked.

Both an asyncio flavor (:func:`read_frame` / :func:`write_frame`, used by
the server and the async client) and a blocking flavor
(:func:`read_frame_sync` / :func:`write_frame_sync` over a socket file
object, used by the sync client and the load generator) are provided; the
bytes on the wire are identical.

:class:`MessageEndpoint` is the connection loop a server and a router
share: it reads frames, hands binary ``reports`` payloads to the side's
``on_reports``, and dispatches every other request by name to an
``on_<type>`` handler, with the unknown-type error, the kind-2 gate, the
JSON ``reports`` rejection and the error reply derived from
:data:`MESSAGES`.  Clients check replies against the same table
(:func:`check_reply`).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import BinaryIO, Dict, List, NamedTuple, Optional, Tuple

from repro.protocol.binary import (
    KIND_STATE,
    BinaryFormatError,
    decode_reports_payload,
    encode_reports_payload,
    is_binary_payload,
    pack_state,
    payload_kind,
    peek_reports_header,
    unpack_state,
)
from repro.protocol.wire import ReportBatch

__all__ = [
    "FrameError",
    "JSON_REPORTS_REJECTED",
    "MAX_FRAME_BYTES",
    "MESSAGES",
    "Message",
    "MessageEndpoint",
    "ServerError",
    "ShardUnavailable",
    "WIRE_FORMATS",
    "check_reply",
    "encode_frame",
    "encode_reports_frame",
    "encode_state_frame",
    "decode_frame",
    "frame_bytes",
    "read_frame",
    "read_frame_payload",
    "write_frame",
    "write_state_frame",
    "read_frame_sync",
    "write_frame_sync",
]

#: hard ceiling on a single frame's payload; a larger announced length is
#: treated as a protocol violation, not an allocation request.  The binary
#: writer checks its *announced* size against this limit before serializing
#: a single column byte.
MAX_FRAME_BYTES = 1 << 30

#: the wire formats a `reports` frame can travel in (advertised by `hello`)
WIRE_FORMATS = ("binary",)

#: why a JSON `reports` frame is dropped (accounted, never answered)
JSON_REPORTS_REJECTED = ("JSON reports frames are no longer accepted; send "
                         "binary reports frames (docs/wire-protocol.md §8)")

_HEADER = struct.Struct("!I")


class FrameError(ValueError):
    """A malformed frame: bad length prefix, truncation, invalid JSON, a
    corrupted/oversized binary payload, or a message without a string
    ``type``."""


class ServerError(RuntimeError):
    """The peer answered a request with an ``error`` frame."""


class ShardUnavailable(ServerError):
    """A cluster router exhausted its bounded recovery deadline against a
    dead or stalled shard (error frames carrying ``"code":
    "shard_unavailable"``).  The query was refused whole — never answered
    from a silently partial merge."""


class Message(NamedTuple):
    """What the code reads about one request type of the vocabulary."""

    #: the reply's type; ``None`` for the fire-and-forget ``reports``
    reply: Optional[str]
    #: the endpoints that answer it: ``"server"``, ``"router"`` or both
    sides: Tuple[str, ...]
    #: the half of the exchange that travels as a kind-2 frame:
    #: ``"request"``, ``"reply"``, or ``""`` for neither
    kind2: str = ""


_BOTH = ("server", "router")

#: the service vocabulary, normative for ``docs/wire-protocol.md`` §7,
#: §7.3 and §7.4: request type -> reply type, sides, kind-2 half
MESSAGES: Dict[str, Message] = {
    "hello": Message("params", _BOTH),
    "reports": Message(None, _BOTH),
    "sync": Message("synced", _BOTH),
    "query": Message("estimates", _BOTH),
    "state": Message("state", _BOTH, kind2="reply"),
    "snapshot": Message("snapshot_written", _BOTH),
    "stats": Message("stats", _BOTH),
    "health": Message("health", _BOTH),
    "shutdown": Message("bye", _BOTH),
    "handoff": Message("handoff_state", ("server",), kind2="reply"),
    "absorb_state": Message("absorbed", ("server",), kind2="request"),
    "shard_map": Message("shard_map", ("router",)),
    "add_shard": Message("shard_added", ("router",)),
    "drain_shard": Message("drained", ("router",)),
    "rolling_restart": Message("restarted", ("router",)),
}


def state_requests(side: str) -> List[str]:
    """The request types ``side`` takes as kind-2 frames."""
    return [kind for kind, entry in MESSAGES.items()
            if entry.kind2 == "request" and side in entry.sides]


def error_reply(exc: BaseException) -> Dict[str, object]:
    """The ``error`` frame answering a request that raised ``exc``."""
    reply: Dict[str, object] = {"type": "error", "error": str(exc)}
    if isinstance(exc, ShardUnavailable):
        # Typed so clients can tell "shard down mid-query" apart from a
        # malformed request (docs/wire-protocol.md §7).
        reply["code"] = "shard_unavailable"
    return reply


def check_reply(request: str, reply: Optional[Dict[str, object]],
                peer: str = "server") -> Dict[str, object]:
    """``reply`` if it is the :data:`MESSAGES` reply to ``request``.

    A closed connection or a reply of another type raises
    :class:`FrameError`; an ``error`` reply raises :class:`ServerError`,
    or :class:`ShardUnavailable` when its ``code`` says so.
    """
    if reply is None:
        raise FrameError(f"{peer} closed the connection mid-request")
    if reply.get("type") == "error":
        if reply.get("code") == "shard_unavailable":
            raise ShardUnavailable(str(reply.get("error")))
        raise ServerError(str(reply.get("error")))
    expected = MESSAGES[request].reply
    if reply.get("type") != expected:
        raise FrameError(f"{peer}: expected a {expected!r} reply, got "
                         f"{reply.get('type')!r}")
    return reply


def encode_frame(message: Dict[str, object]) -> bytes:
    """Serialize one JSON frame (header + compact JSON payload) to bytes."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {len(payload)} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte limit")
    return _HEADER.pack(len(payload)) + payload


def encode_reports_frame(batch: ReportBatch, epoch: int = 0,
                         wire_format: str = "binary",
                         route: Optional[int] = None,
                         seq: Optional[int] = None) -> bytes:
    """Serialize one binary ``reports`` frame (``docs/wire-protocol.md`` §8).

    ``wire_format`` accepts only ``"binary"`` (anything else raises
    ``ValueError``).  The announced size is validated against
    :data:`MAX_FRAME_BYTES` *before* any column is serialized.

    A non-``None`` ``route`` stamps the shard-routing header field
    (``FLAG_ROUTED``) — a cluster router partitions on it without decoding
    columns, and a plain :class:`~repro.server.service.AggregationServer`
    ignores it.  A non-``None`` ``seq`` stamps the delivery sequence number
    (``FLAG_SEQUENCED``) used for exact redelivery detection on journal
    replay (§7.1); normal clients leave it to the router.
    """
    check_wire_format(wire_format)
    try:
        payload = encode_reports_payload(batch, epoch,
                                         max_bytes=MAX_FRAME_BYTES,
                                         route=route, seq=seq)
    except BinaryFormatError as exc:
        raise FrameError(str(exc)) from exc
    return _HEADER.pack(len(payload)) + payload


def encode_state_frame(message: Dict[str, object]) -> bytes:
    """Serialize one kind-2 frame (``docs/wire-protocol.md`` §8.1).

    ``message`` is a whole ``state`` / ``handoff_state`` /
    ``absorb_state`` message: its fields travel in the container's JSON
    skeleton with their JSON types, and its integer arrays (the counts)
    as narrowed binary columns — no base64, no JSON number per cell.
    Packing reads the arrays once, synchronously, so a caller may pass a
    live aggregator's ``counts`` without copying them first.
    """
    if not isinstance(message.get("type"), str):
        raise FrameError("a frame message needs a string 'type'")
    return frame_bytes(pack_state(message, lists=False))


def check_wire_format(wire_format: str) -> str:
    """``wire_format`` if it names an accepted ``reports`` frame format,
    else ``ValueError``."""
    if wire_format not in WIRE_FORMATS:
        raise ValueError(f"wire_format must be one of {WIRE_FORMATS}, "
                         f"got {wire_format!r}")
    return wire_format


def frame_bytes(payload: bytes) -> bytes:
    """Wrap an already-encoded frame payload in its length prefix.

    The cluster router's forwarding primitive: a received ``reports``
    payload is re-framed and shipped to its shard byte-for-byte, without a
    decode/re-encode round trip.
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {len(payload)} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte limit")
    return _HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Dict[str, object]:
    """Parse a frame payload of either class into one message dictionary.

    JSON payloads must be JSON objects and are returned as-is.  Kind-2
    binary payloads decode to the message :func:`encode_state_frame`
    packed, its integer arrays as writable int64 arrays.  Other binary
    payloads decode as kind 1, to ``{"type": "reports", "epoch": e,
    "batch": <batch>}`` where ``batch`` is a ready
    :class:`~repro.protocol.wire.ReportBatch` whose columns are read-only
    zero-copy views over ``payload``; a routed/sequenced payload also
    carries its ``"route"`` / ``"seq"`` header fields.
    """
    if payload_kind(payload) == KIND_STATE:
        try:
            message = unpack_state(payload)
        except ValueError as exc:  # includes BinaryFormatError
            raise FrameError(f"invalid binary frame: {exc}") from exc
        if not isinstance(message, dict) or \
                not isinstance(message.get("type"), str):
            raise FrameError("a kind-2 frame must carry a JSON object with "
                             "a string 'type'")
        return message
    if is_binary_payload(payload):
        try:
            header = peek_reports_header(payload)
            epoch, batch = decode_reports_payload(payload)
        except ValueError as exc:  # includes BinaryFormatError
            raise FrameError(f"invalid binary frame: {exc}") from exc
        message: Dict[str, object] = {"type": "reports", "epoch": epoch,
                                      "batch": batch}
        if header["route"] is not None:
            message["route"] = header["route"]
        if header["seq"] is not None:
            message["seq"] = header["seq"]
        return message
    try:
        message = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError: json.loads decodes raw bytes itself, and
        # garbage that is neither the binary magic nor UTF-8 (e.g. a
        # corrupted-in-flight frame) must reject cleanly, not crash the
        # connection handler.
        raise FrameError(f"invalid JSON in frame: {exc}") from exc
    if not isinstance(message, dict):
        raise FrameError("frame payload must be a JSON object")
    return message


def _check_length(length: int) -> int:
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"announced frame length {length} exceeds the "
                         f"{MAX_FRAME_BYTES}-byte limit")
    return length


async def read_frame_payload(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one frame's raw payload bytes; ``None`` on clean EOF.

    The router-side primitive: the payload is returned *undecoded* so it
    can be forwarded verbatim (:func:`frame_bytes`) after peeking only the
    routing header.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("connection closed mid-header") from exc
    (length,) = _HEADER.unpack(header)
    try:
        return await reader.readexactly(_check_length(length))
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc


async def read_frame(reader: asyncio.StreamReader
                     ) -> Optional[Dict[str, object]]:
    """Read one frame; ``None`` on clean EOF (peer closed between frames)."""
    payload = await read_frame_payload(reader)
    if payload is None:
        return None
    return decode_frame(payload)


async def write_frame(writer: asyncio.StreamWriter,
                      message: Dict[str, object]) -> None:
    """Write one JSON frame and drain the transport (applies backpressure)."""
    writer.write(encode_frame(message))
    await writer.drain()


async def write_state_frame(writer: asyncio.StreamWriter,
                            message: Dict[str, object]) -> None:
    """Write one kind-2 frame (:func:`encode_state_frame`) and drain."""
    writer.write(encode_state_frame(message))
    await writer.drain()


def read_frame_sync(stream: BinaryIO) -> Optional[Dict[str, object]]:
    """Blocking :func:`read_frame` over a socket file object."""
    header = stream.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise FrameError("connection closed mid-header")
    (length,) = _HEADER.unpack(header)
    payload = stream.read(_check_length(length))
    if payload is None or len(payload) < length:
        raise FrameError("connection closed mid-frame")
    return decode_frame(payload)


def write_frame_sync(stream: BinaryIO, message: Dict[str, object]) -> None:
    """Blocking :func:`write_frame` over a socket file object."""
    stream.write(encode_frame(message))
    stream.flush()


class MessageEndpoint:
    """The connection loop and message dispatch of a server and a router.

    A subclass sets :attr:`side` and defines one ``on_<type>`` coroutine
    for every :data:`MESSAGES` entry that side answers.  ``on_reports``
    takes a binary ``reports`` payload and answers nothing; every other
    handler takes the decoded request and returns its reply.  The subclass
    also provides ``stats`` (with ``connections_total``), ``start``,
    ``_shutdown``, and ``_reject(reason)``, which accounts a dropped
    ``reports`` frame.
    """

    side: str

    def __init__(self) -> None:
        self._connections: set = set()
        self._stopping = asyncio.Event()
        #: claimed synchronously at the top of start(), before its first
        #: await, so concurrent start() calls cannot both pass the guard
        self._started = False

    async def serve_until_stopped(self) -> None:
        """Serve until a ``shutdown`` frame arrives or :meth:`stop` is called."""
        if not self._started:
            raise RuntimeError("call start() first")
        await self._stopping.wait()
        await self._shutdown()

    def request_stop(self) -> None:
        """Make :meth:`serve_until_stopped` shut down as on a ``shutdown`` frame.

        Synchronous and idempotent, so it is safe as a signal handler
        (``serve`` and ``serve-cluster`` route ``SIGTERM`` here).
        """
        self._stopping.set()

    async def stop(self) -> None:
        """Shut down now, as :meth:`serve_until_stopped` does on a stop."""
        self._stopping.set()
        await self._shutdown()

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
                    state_frame = payload_kind(payload) == KIND_STATE
                    if is_binary_payload(payload) and not state_frame:
                        await self.on_reports(payload)
                        continue
                    if state_frame and not state_requests(self.side):
                        # Refused by the kind byte: no state is unpacked
                        # only to be refused.
                        await write_frame(writer,
                                          error_reply(self._refuse_state()))
                        continue
                    message = decode_frame(payload)
                except FrameError as exc:
                    await write_frame(writer, error_reply(exc))
                    break
                if not await self._dispatch(message, writer, state_frame):
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

    def _refuse_state(self, kind: Optional[str] = None) -> ValueError:
        takes = state_requests(self.side)
        what = f"only {' or '.join(takes)}" if takes else "no request"
        name = "" if kind is None else f"{kind!r} "
        return ValueError(f"unexpected kind-2 {name}frame: {what} carries "
                          f"state to a {self.side}")

    async def _dispatch(self, message: Dict[str, object],
                        writer: asyncio.StreamWriter,
                        state_frame: bool) -> bool:
        """Answer one request; returns ``False`` to close the connection."""
        kind = message.get("type")
        entry = MESSAGES.get(kind) if isinstance(kind, str) else None
        if entry is not None and entry.reply is None and not state_frame:
            # A JSON `reports` frame is accounted, never answered: an error
            # frame would take the next request's reply slot.
            self._reject(JSON_REPORTS_REJECTED)
            return True
        try:
            takes_state = kind in state_requests(self.side)
            if state_frame and not takes_state:
                raise self._refuse_state(kind)
            if takes_state and not state_frame:
                raise ValueError(f"{kind} must be a kind-2 frame: only a "
                                 f"kind-2 frame carries state")
            if entry is None or self.side not in entry.sides:
                raise ValueError(f"unknown frame type {kind!r}")
            reply = await getattr(self, f"on_{kind}")(message)
            if entry.kind2 == "reply":
                await write_state_frame(writer, reply)
            else:
                await write_frame(writer, reply)
        except Exception as exc:  # noqa: BLE001 - reported to the peer
            await write_frame(writer, error_reply(exc))
            return True
        if kind == "shutdown":
            self._stopping.set()
            return False
        return True
