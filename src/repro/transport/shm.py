"""The same-host shared-memory ring backend (``shm://name``).

One dialed link is a *pair* of single-producer/single-consumer byte rings
— one per direction, so the link is fully duplex — living in two
``multiprocessing.shared_memory`` segments.  Frames travel in the exact
length-prefixed encoding of :mod:`repro.server.framing`; only the carrier
changes: instead of a socket there is a power-of-nothing ring of
``capacity`` data bytes behind a 40-byte header (``docs/wire-protocol.md``
§9)::

    ring_header := magic (u32) version (u32) capacity (u64) head (u64)
                   tail (u64) producer_closed (u32) consumer_closed (u32)

``head`` and ``tail`` are free-running 64-bit byte counters (never
wrapped; positions are taken modulo ``capacity``), each written by exactly
one side: the producer advances ``tail`` after copying bytes in, the
consumer advances ``head`` after copying bytes out.  Those aligned 8-byte
stores are the only cross-process communication — no locks, no futexes,
and **no syscall per frame**; both sides wait by spinning through
``asyncio.sleep(0)`` a bounded number of times and then parking in short
``asyncio.sleep`` naps.  Data moves with ``np.frombuffer`` views over the
segment: one vectorized copy in on the producer, one vectorized copy out
on the consumer (the absorb side's only copy — the binary ``reports``
decode on top of it stays zero-copy).

Accepting works through a *control segment* named by the address
(``shm://name`` ⇒ segment ``name``) holding a slot table::

    ctl_header := magic (u32) version (u32) num_slots (u32) ring_bytes (u32)
    slot       := state (u32) generation (u32)

A dialer claims a free slot by **creating** the two ring segments
``{name}.{slot}.{generation}.{a|b}`` — creation is the atomic part
(``shm_open`` with ``O_CREAT|O_EXCL``), so two dialers racing for one
slot cannot both win — then marks the slot ready; the listener's accept
loop attaches the rings and hands the shims to its connection handler.
When a link dies the listener bumps the slot's generation and frees it,
so recycled slots never reuse a segment name.

The dialing side owns the ring segments and unlinks them on close; every
*attached* segment is explicitly unregistered from the multiprocessing
resource tracker, which would otherwise unlink the peer's segments when
this process exits (CPython's bpo-39959).
"""

from __future__ import annotations

import asyncio
import struct
import traceback
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Optional, Set, Tuple

import numpy as np

from repro.transport.base import (
    Backend,
    Handler,
    Listener,
    TransportError,
    format_address,
    register_backend,
)

__all__ = ["ShmListener", "RING_MAGIC", "CTL_MAGIC", "RING_VERSION",
           "DEFAULT_RING_BYTES", "DEFAULT_SLOTS"]

#: first field of every ring segment ("RING" in ASCII)
RING_MAGIC = 0x52494E47
#: first field of every control segment ("DOOR" in ASCII)
CTL_MAGIC = 0x444F4F52
#: layout version of both segment kinds
RING_VERSION = 1
#: default per-direction ring capacity, bytes (dial-time override)
DEFAULT_RING_BYTES = 1 << 22
#: default number of connection slots in a control segment
DEFAULT_SLOTS = 64

#: ring segment header: magic, version, capacity, head, tail,
#: producer_closed, consumer_closed (docs/wire-protocol.md §9)
_RING_HEADER = struct.Struct("<IIQQQII")
#: control segment header: magic, version, num_slots, ring_bytes
_CTL_HEADER = struct.Struct("<IIII")
#: one connection slot: state, generation
_SLOT = struct.Struct("<II")

_U32 = struct.Struct("<I")

# byte offsets of the mutable ring header fields: the u64 pair head, tail
# and the u32 pair producer_closed, consumer_closed
_HEAD_OFF = 16
_PRODUCER_CLOSED_OFF = 32

# slot states
_SLOT_FREE = 0
_SLOT_READY = 1
_SLOT_ATTACHED = 2

#: cooperative yields before a waiter starts parking in short naps.  Kept
#: small on purpose: one ``asyncio.sleep(0)`` round-trip through the loop
#: costs tens of microseconds, and on a host where producer and consumer
#: share a core every extra hot yield *steals time from the peer* the
#: waiter is waiting for — long spin budgets measurably slow the link down.
_SPIN_YIELDS = 4
#: parked-poll nap once the spin budget is exhausted, seconds
_PAUSE_S = 0.0005


async def _pause(spins: int) -> None:
    """Futex-free wait step: yield while hot, then park in short naps."""
    if spins < _SPIN_YIELDS:
        await asyncio.sleep(0)
    else:
        await asyncio.sleep(_PAUSE_S)


#: names of segments *created* by this process (it owns their unlink);
#: attaching one of these must not touch the resource tracker, whose
#: per-process cache is a set — a second unregister would underflow it
_OWNED: Set[str] = set()


def _create(name: str, size: int) -> shared_memory.SharedMemory:
    segment = shared_memory.SharedMemory(name=name, create=True, size=size)
    _OWNED.add(name)
    return segment


def _unlink(segment: shared_memory.SharedMemory) -> None:
    _OWNED.discard(segment.name.lstrip("/"))
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


def _attach(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without adopting it.

    CPython registers every opened segment (not just created ones) with
    the multiprocessing resource tracker, whose exit-time cleanup unlinks
    them — pulling segments out from under the peer process that owns
    them (bpo-39959).  Owners unlink explicitly; attachers unregister.
    """
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        raise TransportError(f"no shared-memory segment {name!r}") from None
    if name not in _OWNED:
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # noqa: BLE001 - tracker internals vary by version
            pass
    return segment


class _Ring:
    """One SPSC byte ring inside one shared-memory segment.

    Exactly one process writes ``tail`` (the producer) and exactly one
    writes ``head`` (the consumer); each side only ever *reads* the
    other's counter.  Publication order is copy-then-advance on both
    sides, so a counter a peer can observe always covers bytes that are
    already in (or already out of) the data region.
    """

    def __init__(self, segment: shared_memory.SharedMemory, *,
                 create: bool, capacity: Optional[int] = None) -> None:
        self._segment = segment
        if create:
            if capacity is None or capacity < 1:
                raise ValueError("a created ring needs a positive capacity")
            _RING_HEADER.pack_into(segment.buf, 0, RING_MAGIC, RING_VERSION,
                                   capacity, 0, 0, 0, 0)
        else:
            magic, version, capacity, _, _, _, _ = _RING_HEADER.unpack_from(
                segment.buf, 0)
            if magic != RING_MAGIC or version != RING_VERSION:
                raise TransportError(
                    f"segment {segment.name!r} is not a v{RING_VERSION} "
                    f"transport ring")
        self.capacity = int(capacity)
        self._data: Optional[np.ndarray] = np.frombuffer(
            segment.buf, dtype=np.uint8, offset=_RING_HEADER.size,
            count=self.capacity)
        # Word views of the mutable header fields.  A counter must reach
        # the peer in one aligned store: ``struct.pack_into`` zeroes its
        # target before writing it, and a peer reading ``head`` as 0 in
        # between sees more than a full ring in flight.
        self._counters: Optional[np.ndarray] = np.frombuffer(
            segment.buf, dtype="<u8", offset=_HEAD_OFF, count=2)
        self._flags: Optional[np.ndarray] = np.frombuffer(
            segment.buf, dtype="<u4", offset=_PRODUCER_CLOSED_OFF, count=2)

    # -- header fields (aligned single-word loads/stores) ------------------------------

    @property
    def head(self) -> int:
        return self._counters.item(0)

    @head.setter
    def head(self, value: int) -> None:
        self._counters[0] = value

    @property
    def tail(self) -> int:
        return self._counters.item(1)

    @tail.setter
    def tail(self, value: int) -> None:
        self._counters[1] = value

    @property
    def producer_closed(self) -> bool:
        return self._flags.item(0) != 0

    @property
    def consumer_closed(self) -> bool:
        return self._flags.item(1) != 0

    def close_producer(self) -> None:
        # no-op after detach so abort() stays idempotent post-close
        if self._flags is not None:
            self._flags[0] = 1

    def close_consumer(self) -> None:
        if self._flags is not None:
            self._flags[1] = 1

    # -- data movement -----------------------------------------------------------------

    def _used(self, head: int, tail: int) -> int:
        """Bytes in flight; :class:`TransportError` when the counters
        cannot describe a ring of this capacity (a torn or foreign write),
        before a copy could read or overwrite the wrong bytes."""
        used = tail - head
        if not 0 <= used <= self.capacity:
            raise TransportError(
                f"shm ring {self._segment.name!r} has inconsistent counters: "
                f"head={head} tail={tail} capacity={self.capacity} "
                f"(tail - head must lie in [0, capacity])")
        return used

    def readable(self) -> int:
        return self._used(self.head, self.tail)

    def push(self, view: np.ndarray) -> int:
        """Copy up to ``len(view)`` bytes in; returns the count (0 = full)."""
        if self._data is None:
            return 0
        tail = self.tail
        n = min(len(view), self.capacity - self._used(self.head, tail))
        if n == 0:
            return 0
        pos = tail % self.capacity
        first = min(n, self.capacity - pos)
        self._data[pos:pos + first] = view[:first]
        if n > first:
            self._data[:n - first] = view[first:n]
        self.tail = tail + n  # publish only after the copy landed
        return n

    def pull(self, limit: int) -> bytes:
        """Copy up to ``limit`` readable bytes out; ``b""`` when empty."""
        if self._data is None:
            return b""
        head = self.head
        n = min(limit, self._used(head, self.tail))
        if n <= 0:
            return b""
        pos = head % self.capacity
        first = min(n, self.capacity - pos)
        if n > first:
            out = np.empty(n, dtype=np.uint8)
            out[:first] = self._data[pos:pos + first]
            out[first:] = self._data[:n - first]
            data = out.tobytes()
        else:
            data = self._data[pos:pos + first].tobytes()
        self.head = head + n  # release only after the copy is out
        return data

    def detach(self) -> None:
        """Drop the mapping (the numpy views must go first, see mmap docs)."""
        self._data = self._counters = self._flags = None
        try:
            self._segment.close()
        except BufferError:  # a straggling view pins the mapping; leak it
            pass

    def unlink(self) -> None:
        _unlink(self._segment)


class _Link:
    """One duplex shm link: the two rings plus shared teardown state."""

    def __init__(self, out_ring: _Ring, in_ring: _Ring, *,
                 owns_segments: bool) -> None:
        self.out_ring = out_ring
        self.in_ring = in_ring
        self.owns_segments = owns_segments
        self.closed = False

    def close(self) -> None:
        """Close both directions and release the mappings (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self.out_ring.close_producer()
        self.in_ring.close_consumer()
        if self.owns_segments:
            # the dialer created the segments; their names die with it
            self.out_ring.unlink()
            self.in_ring.unlink()
        self.out_ring.detach()
        self.in_ring.detach()


class RingReader:
    """Duck-typed ``asyncio.StreamReader`` over the link's inbound ring."""

    def __init__(self, link: _Link) -> None:
        self._link = link

    def at_eof(self) -> bool:
        ring = self._link.in_ring
        return self._link.closed or (
            ring.producer_closed and ring.readable() == 0)

    async def read(self, n: int = -1) -> bytes:
        """Read up to ``n`` available bytes; ``b""`` on EOF or local close."""
        if n < 0:
            n = 1 << 16
        ring = self._link.in_ring
        spins = 0
        while True:
            if self._link.closed:
                return b""
            data = ring.pull(n)
            if data:
                return data
            if ring.producer_closed:
                return b""
            await _pause(spins)
            spins += 1

    async def readexactly(self, n: int) -> bytes:
        """Exactly-``n`` read with stream semantics: EOF raises
        :class:`asyncio.IncompleteReadError` carrying the partial bytes
        (empty partial = clean close between frames)."""
        ring = self._link.in_ring
        parts: Optional[bytearray] = None
        have = 0
        spins = 0
        while have < n:
            if self._link.closed:
                raise asyncio.IncompleteReadError(
                    bytes(parts or b""), n)
            data = ring.pull(n - have)
            if data:
                if parts is None and len(data) == n:
                    return data  # hot path: one pull, zero restaging
                if parts is None:
                    parts = bytearray(data)
                else:
                    parts += data
                have = len(parts)
                spins = 0
                continue
            if ring.producer_closed:
                raise asyncio.IncompleteReadError(bytes(parts or b""), n)
            await _pause(spins)
            spins += 1
        return bytes(parts or b"")


class _RingTransport:
    """The ``writer.transport`` shim: ``abort()`` is an immediate reset."""

    def __init__(self, link: _Link) -> None:
        self._link = link

    def abort(self) -> None:
        # a reset must be visible to the peer's *writer* too: closing our
        # consumer side makes their next drain raise ConnectionResetError
        self._link.in_ring.close_producer()
        self._link.close()


class RingWriter:
    """Duck-typed ``asyncio.StreamWriter`` over the link's outbound ring."""

    def __init__(self, link: _Link) -> None:
        self._link = link
        self._buffer = bytearray()
        self.transport = _RingTransport(link)

    def write(self, data: bytes) -> None:
        if self._link.closed:
            return
        if not self._buffer:
            # opportunistic zero-copy push straight from the caller's bytes:
            # a frame that fits never waits for drain() and is never staged
            # through the overflow buffer
            pushed = self._link.out_ring.push(
                np.frombuffer(data, dtype=np.uint8))
            if pushed < len(data):
                self._buffer += memoryview(data)[pushed:]
            return
        self._buffer += data
        # opportunistic push: a frame that fits never waits for drain()
        self._flush_some()

    def _flush_some(self) -> int:
        if not self._buffer:
            return 0
        view = np.frombuffer(self._buffer, dtype=np.uint8)
        try:
            pushed = self._link.out_ring.push(view)
        except BaseException as exc:
            # push's frame in the traceback holds the view too; left
            # alive, its export pins the buffer and every later write or
            # close fails with BufferError instead of this error
            traceback.clear_frames(exc.__traceback__)
            raise
        finally:
            del view
        if pushed:
            del self._buffer[:pushed]
        return pushed

    async def drain(self) -> None:
        """Block until everything written landed in the ring."""
        ring = self._link.out_ring
        spins = 0
        while self._buffer:
            if self._link.closed or ring.consumer_closed:
                self._buffer.clear()
                raise ConnectionResetError(
                    "shm link closed by peer with frames in flight")
            if self._flush_some():
                spins = 0
                continue
            await _pause(spins)
            spins += 1

    def is_closing(self) -> bool:
        return self._link.closed

    def close(self) -> None:
        # best-effort final flush without blocking, then tear down: the
        # frame vocabulary drains after every reply, so the buffer is
        # normally already empty here, and a ring that already failed
        # (its error went to the writer) must still be torn down
        try:
            self._flush_some()
        except TransportError:
            pass
        finally:
            self._link.close()

    async def wait_closed(self) -> None:
        return None

    def get_extra_info(self, name: str, default: Any = None) -> Any:
        return default


# ----- listener -----------------------------------------------------------------------


class ShmListener(Listener):
    """The accepting side of ``shm://name``: owns the control segment."""

    def __init__(self, handler: Handler, name: str, *,
                 num_slots: int = DEFAULT_SLOTS,
                 ring_bytes: int = DEFAULT_RING_BYTES) -> None:
        super().__init__(format_address("shm", name))
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        self.name = name
        self._handler = handler
        self._num_slots = num_slots
        self._ring_bytes = int(ring_bytes)
        size = _CTL_HEADER.size + num_slots * _SLOT.size
        try:
            self._ctl = _create(name, size)
        except FileExistsError:
            raise TransportError(
                f"shared-memory control segment {name!r} already exists "
                f"(another listener, or a leaked segment in /dev/shm)"
            ) from None
        _CTL_HEADER.pack_into(self._ctl.buf, 0, CTL_MAGIC, RING_VERSION,
                              num_slots, self._ring_bytes)
        for slot in range(num_slots):
            _SLOT.pack_into(self._ctl.buf, _CTL_HEADER.size + slot * _SLOT.size,
                            _SLOT_FREE, 0)
        self._accept_task: Optional[asyncio.Task] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._closed = False

    def start(self) -> None:
        self._accept_task = asyncio.get_running_loop().create_task(
            self._accept_loop())

    # -- slot table --------------------------------------------------------------------

    def _slot(self, index: int) -> Tuple[int, int]:
        return _SLOT.unpack_from(self._ctl.buf,
                                 _CTL_HEADER.size + index * _SLOT.size)

    def _set_slot(self, index: int, state: int, generation: int) -> None:
        _SLOT.pack_into(self._ctl.buf, _CTL_HEADER.size + index * _SLOT.size,
                        state, generation)

    # -- accept loop -------------------------------------------------------------------

    async def _accept_loop(self) -> None:
        # An idle poll, never a hot spin: accept latency is not on the frame
        # hot path, and on a small host every busy yield here competes with
        # the very handlers this listener spawned.  A ticks-over-bytes
        # compare makes the no-dialer tick one memcmp instead of
        # ``num_slots`` struct unpacks.
        table = slice(_CTL_HEADER.size,
                      _CTL_HEADER.size + self._num_slots * _SLOT.size)
        last = b""
        while not self._closed:
            snapshot = bytes(self._ctl.buf[table])
            if snapshot != last:
                expected = bytearray(snapshot)
                for index in range(self._num_slots):
                    state, generation = _SLOT.unpack_from(
                        snapshot, index * _SLOT.size)
                    if state == _SLOT_READY:
                        self._accept(index, generation)
                        # fold our own slot write into the expectation so a
                        # claim racing the re-read still differs next tick
                        _SLOT.pack_into(expected, index * _SLOT.size,
                                        *self._slot(index))
                last = bytes(expected)
            await asyncio.sleep(_PAUSE_S)

    def _accept(self, index: int, generation: int) -> None:
        base = f"{self.name}.{index}.{generation}"
        try:
            # the dialer's ``.a`` ring is our inbound, ``.b`` our outbound
            in_ring = _Ring(_attach(f"{base}.a"), create=False)
            out_ring = _Ring(_attach(f"{base}.b"), create=False)
        except TransportError:
            # the dialer vanished between claiming and our attach; recycle
            self._set_slot(index, _SLOT_FREE, generation + 1)
            return
        self._set_slot(index, _SLOT_ATTACHED, generation)
        link = _Link(out_ring, in_ring, owns_segments=False)
        task = asyncio.get_running_loop().create_task(
            self._run_handler(index, generation, link))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _run_handler(self, index: int, generation: int,
                           link: _Link) -> None:
        try:
            await self._handler(RingReader(link), RingWriter(link))
        finally:
            link.close()
            if not self._closed:
                self._set_slot(index, _SLOT_FREE, generation + 1)

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting and retire the control segment.

        Open links are not torn down here (their handlers own them), but
        the control magic is zeroed first so late dialers fail fast
        instead of parking in a claimed-but-never-accepted slot.
        """
        if self._closed:
            return
        self._closed = True
        _U32.pack_into(self._ctl.buf, 0, 0)
        if self._accept_task is not None:
            self._accept_task.cancel()

    async def wait_closed(self) -> None:
        for task in [self._accept_task, *self._conn_tasks]:
            if task is None:
                continue
            try:
                await task
            except asyncio.CancelledError:
                pass
        try:
            self._ctl.close()
        except BufferError:
            pass
        _unlink(self._ctl)


# ----- backend entry points -----------------------------------------------------------


async def _dial(rest: str, *,
                ring_bytes: Optional[int] = None) -> Tuple[Any, Any]:
    """Claim a slot on the listener named ``rest`` and build the link."""
    ctl = _attach(rest)
    try:
        magic, version, num_slots, default_ring = _CTL_HEADER.unpack_from(
            ctl.buf, 0)
        if magic != CTL_MAGIC or version != RING_VERSION:
            raise TransportError(f"{rest!r} is not a live v{RING_VERSION} "
                                 f"shm listener")
        capacity = int(ring_bytes) if ring_bytes else int(default_ring)
        segment_size = _RING_HEADER.size + capacity
        for index in range(int(num_slots)):
            offset = _CTL_HEADER.size + index * _SLOT.size
            state, generation = _SLOT.unpack_from(ctl.buf, offset)
            if state != _SLOT_FREE:
                continue
            base = f"{rest}.{index}.{generation}"
            # creating the segment is the atomic claim: two dialers racing
            # for one slot cannot both win the O_EXCL create
            try:
                seg_a = _create(f"{base}.a", segment_size)
            except FileExistsError:
                continue
            try:
                seg_b = _create(f"{base}.b", segment_size)
            except FileExistsError:
                seg_a.close()
                _unlink(seg_a)
                continue
            out_ring = _Ring(seg_a, create=True, capacity=capacity)
            in_ring = _Ring(seg_b, create=True, capacity=capacity)
            _SLOT.pack_into(ctl.buf, offset, _SLOT_READY, generation)
            link = _Link(out_ring, in_ring, owns_segments=True)
            return RingReader(link), RingWriter(link)
        raise TransportError(f"shm listener {rest!r} has no free "
                             f"connection slot (num_slots={num_slots})")
    finally:
        ctl.close()


async def _serve(handler: Handler, rest: str, *,
                 num_slots: int = DEFAULT_SLOTS,
                 ring_bytes: int = DEFAULT_RING_BYTES,
                 **options: Any) -> ShmListener:
    listener = ShmListener(handler, rest, num_slots=num_slots,
                           ring_bytes=ring_bytes)
    listener.start()
    return listener


register_backend(Backend(name="shm", dial=_dial, serve=_serve))
