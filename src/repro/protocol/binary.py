"""Zero-copy binary columnar codec for report batches and aggregator state.

This is the only wire form of a :class:`~repro.protocol.wire.ReportBatch`.
It replaced a JSON form (base64 columns inside a JSON object) that paid
three taxes per batch: a ``json.dumps`` pass, a base64 inflation of 4/3 on
every column, and a ``json.loads`` + base64 pass on the server before a
single report was absorbed — 22.7 B per hashtogram report against 4.0 B
here.  This module has no serialization layer at all:

* **Encoding** writes each column as ``(name, dtype, shape, raw
  little-endian bytes)`` behind a fixed ``struct`` header — no JSON, no
  base64.  Integer columns are first narrowed to the smallest integer dtype
  that holds their value range (a hashtogram report shrinks from 17 raw
  bytes to 4).
* **Decoding** is a handful of ``struct.unpack_from`` calls plus one
  ``np.frombuffer`` per column: every decoded column is a **read-only
  zero-copy view** over the received buffer.  Aggregators absorb these
  views directly (they only ever read report columns), so server-side
  ingest is decode-free.
* The same container (``pack_state`` / ``unpack_state``) ships **aggregator
  state**: a JSON skeleton in which every integer array is replaced by a
  reference into the binary column table.  The multiprocess engine uses it
  for the worker→parent result channel (avoiding a public-parameter
  round-trip per worker), :class:`~repro.server.snapshot.SnapshotStore`
  for binary snapshot files, and :mod:`repro.server.framing` for the
  ``state``, ``handoff_state`` and ``absorb_state`` frames, whose reply
  fields ride in the skeleton and whose counts ride in the columns.  A
  consumer that only sums states (the cluster router's pull, the engine's
  worker results) leaves each column where it arrived
  (:class:`PackedColumn`) and adds it into one vector (:func:`fold_states`).

Frame layout (normative; also specified in ``docs/wire-protocol.md`` §8)::

    payload := header body
    header  := magic=0xB1 (u8) version=1 (u8) kind (u8) flags (u8)

    kind=1 (reports) body:
        epoch (i64) num_reports (u64) proto_len (u16) num_columns (u16)
        route (i64, present iff flags & FLAG_ROUTED)
        seq (u64, present iff flags & FLAG_SEQUENCED)
        protocol (utf-8)
        column table: { name_len (u16) name (utf-8)
                        dtype_len (u8) dtype (ascii, numpy form e.g. "<i8")
                        ndim (u8) shape (u64 * ndim)
                        offset (u64) nbytes (u64) } * num_columns
        data region: one blob per column at its announced offset,
                     8-byte aligned, little-endian C order

    kind=2 (state) body:
        skeleton_len (u32) num_columns (u32)
        skeleton (utf-8 JSON; arrays replaced by {"__repro_column__": i},
                  or {"__repro_column__": i, "__repro_patch__": [j, k]}:
                  column i with entries at indices j set to values k)
        column table (as above, without names)
        data region (as above)

All multi-byte header fields are little-endian.  The magic byte ``0xB1``
can never open a JSON frame payload (those start with ``{`` = 0x7B), which
is how :mod:`repro.server.framing` tells the two frame classes apart
without negotiation state.

The write side validates the *announced* total frame size against the
caller's limit **before serializing anything**; the read side validates
every announced offset, length, and shape before touching column data, so
truncated or corrupted frames fail loudly with :class:`BinaryFormatError`
rather than decoding garbage.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.protocol.wire import (
    PublicParams,
    ReportBatch,
    ServerAggregator,
    cell_bound,
    load_child_state,
)

__all__ = [
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "BinaryFormatError",
    "FLAG_ROUTED",
    "FLAG_SEQUENCED",
    "KIND_REPORTS",
    "KIND_STATE",
    "PackedColumn",
    "decode_reports_payload",
    "encode_reports_payload",
    "fold_state",
    "fold_states",
    "is_binary_payload",
    "pack_state",
    "payload_kind",
    "peek_reports_header",
    "stamp_sequence",
    "unpack_state",
]

#: first byte of every binary payload; JSON frame payloads start with ``{``
BINARY_MAGIC = 0xB1
#: layout version; bumped on any breaking change to the frame layout
BINARY_VERSION = 1
#: payload kind: a ReportBatch frame
KIND_REPORTS = 1
#: payload kind: a packed state container (snapshots, engine results,
#: and the state-carrying frames of ``docs/wire-protocol.md`` §7)
KIND_STATE = 2
#: header flag (kind=1 only): a shard-routing key (i64) follows the fixed
#: reports header — see ``docs/wire-protocol.md`` §8.1
FLAG_ROUTED = 0x01
#: header flag (kind=1 only): a delivery sequence number (u64) follows the
#: fixed reports header (after the route field when both flags are set) —
#: see ``docs/wire-protocol.md`` §7.1
FLAG_SEQUENCED = 0x02

_HEADER = struct.Struct("<BBBB")
_REPORTS_FIXED = struct.Struct("<qQHH")
_ROUTE_FIELD = struct.Struct("<q")
_SEQ_FIELD = struct.Struct("<Q")
_STATE_FIXED = struct.Struct("<II")
_ALIGNMENT = 8
_KNOWN_FLAGS = {KIND_REPORTS: FLAG_ROUTED | FLAG_SEQUENCED, KIND_STATE: 0}

#: value-preserving narrowing ladder, smallest first; unsigned wins ties
_NARROW_CANDIDATES = tuple(np.dtype(code) for code in
                           ("u1", "i1", "<u2", "<i2", "<u4", "<i4"))


class BinaryFormatError(ValueError):
    """A malformed binary payload: bad magic/version, an announced offset or
    shape that does not fit the buffer, or a frame exceeding the size limit."""


def is_binary_payload(payload: bytes) -> bool:
    """True when ``payload`` opens with the binary magic byte."""
    return len(payload) >= 1 and payload[0] == BINARY_MAGIC


def payload_kind(payload: bytes) -> Optional[int]:
    """The header's kind byte of a binary payload; ``None`` when the
    payload is not binary or too short to carry one."""
    if not is_binary_payload(payload) or len(payload) < 3:
        return None
    return payload[2]


# --------------------------------------------------------------------------------------
# column helpers
# --------------------------------------------------------------------------------------

def _wire_dtype(col: np.ndarray, source: Optional[np.dtype] = None
                ) -> np.dtype:
    """Smallest little-endian dtype that holds the column's values.

    The choice depends only on the values and ``source`` (default: the
    column's dtype), never narrowing to ``source``'s own size, so
    re-encoding a decoded batch reproduces the original bytes exactly.
    Non-integer and empty columns keep ``source`` (byte-swapped to
    little-endian if necessary).
    """
    dtype = col.dtype if source is None else np.dtype(source)
    if dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
        dtype = dtype.newbyteorder("<")
    if dtype.kind not in "iu" or col.size == 0:
        return dtype
    lo, hi = int(col.min()), int(col.max())
    for candidate in _NARROW_CANDIDATES:
        if candidate.itemsize >= dtype.itemsize:
            break
        info = np.iinfo(candidate)
        if info.min <= lo and hi <= info.max:
            return candidate
    return dtype


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


class _ColumnSpec:
    """One column's announced layout, computed before any serialization."""

    __slots__ = ("name", "array", "dtype", "shape", "offset", "nbytes")

    def __init__(self, name: str, array: np.ndarray,
                 source: Optional[np.dtype] = None) -> None:
        self.name = name
        self.array = array
        self.dtype = _wire_dtype(array, source)
        self.shape = tuple(int(s) for s in array.shape)
        self.nbytes = int(self.dtype.itemsize * array.size)
        self.offset = 0  # assigned once the table size is known

    @property
    def dtype_bytes(self) -> bytes:
        return self.dtype.str.encode("ascii")

    def table_size(self, named: bool) -> int:
        size = 1 + len(self.dtype_bytes) + 1 + 8 * len(self.shape) + 16
        if named:
            size += 2 + len(self.name.encode("utf-8"))
        return size


def _layout(specs: Sequence[_ColumnSpec], table_start: int,
            named: bool) -> int:
    """Assign aligned data offsets; returns the total payload size."""
    offset = table_start + sum(spec.table_size(named) for spec in specs)
    for spec in specs:
        offset = _align(offset)
        spec.offset = offset
        offset += spec.nbytes
    return offset


def _write_columns(out: bytearray, pos: int, specs: Sequence[_ColumnSpec],
                   named: bool) -> None:
    for spec in specs:
        if named:
            name = spec.name.encode("utf-8")
            struct.pack_into("<H", out, pos, len(name))
            pos += 2
            out[pos:pos + len(name)] = name
            pos += len(name)
        dtype_bytes = spec.dtype_bytes
        struct.pack_into("<B", out, pos, len(dtype_bytes))
        pos += 1
        out[pos:pos + len(dtype_bytes)] = dtype_bytes
        pos += len(dtype_bytes)
        struct.pack_into("<B", out, pos, len(spec.shape))
        pos += 1
        for dim in spec.shape:
            struct.pack_into("<Q", out, pos, dim)
            pos += 8
        struct.pack_into("<QQ", out, pos, spec.offset, spec.nbytes)
        pos += 16
        # cast straight into the payload: no narrowed copy, no bytes copy
        np.frombuffer(out, dtype=spec.dtype, count=spec.array.size,
                      offset=spec.offset)[...] = spec.array.reshape(-1)


class _Reader:
    """Bounds-checked cursor over a received payload."""

    def __init__(self, payload: bytes) -> None:
        self.payload = payload
        self.pos = 0

    def unpack(self, fmt: struct.Struct) -> tuple:
        if self.pos + fmt.size > len(self.payload):
            raise BinaryFormatError("truncated binary payload: header ends "
                                    "past the frame")
        values = fmt.unpack_from(self.payload, self.pos)
        self.pos += fmt.size
        return values

    def take(self, count: int, what: str) -> bytes:
        if count < 0 or self.pos + count > len(self.payload):
            raise BinaryFormatError(f"truncated binary payload: {what} ends "
                                    f"past the frame")
        data = bytes(self.payload[self.pos:self.pos + count])
        self.pos += count
        return data


def _read_column(reader: _Reader, named: bool) -> Tuple[str, np.ndarray]:
    name = ""
    if named:
        (name_len,) = reader.unpack(struct.Struct("<H"))
        name = reader.take(name_len, "column name").decode("utf-8")
    (dtype_len,) = reader.unpack(struct.Struct("<B"))
    dtype_str = reader.take(dtype_len, "column dtype").decode("ascii")
    try:
        dtype = np.dtype(dtype_str)
    except TypeError as exc:
        raise BinaryFormatError(f"invalid column dtype {dtype_str!r}") from exc
    if dtype.hasobject or dtype.kind not in "iufb":
        raise BinaryFormatError(f"unsupported column dtype {dtype_str!r}")
    (ndim,) = reader.unpack(struct.Struct("<B"))
    shape = tuple(reader.unpack(struct.Struct("<Q"))[0] for _ in range(ndim))
    offset, nbytes = reader.unpack(struct.Struct("<QQ"))
    count = 1
    for dim in shape:  # exact Python ints: announced dims cannot overflow
        count *= dim
    if count * dtype.itemsize != nbytes:
        raise BinaryFormatError(
            f"column {name or dtype_str!r}: announced {nbytes} bytes do not "
            f"match shape {shape} of dtype {dtype_str}")
    if offset + nbytes > len(reader.payload):
        raise BinaryFormatError(
            f"column {name or dtype_str!r}: announced data "
            f"[{offset}, {offset + nbytes}) lies past the frame")
    column = np.frombuffer(reader.payload, dtype=dtype, count=count,
                           offset=offset).reshape(shape)
    if column.flags.writeable:  # pragma: no cover - bytearray-backed buffers
        column.flags.writeable = False
    return name, column


# --------------------------------------------------------------------------------------
# report batches (kind = 1)
# --------------------------------------------------------------------------------------

def encode_reports_payload(batch: ReportBatch, epoch: int = 0,
                           max_bytes: Optional[int] = None,
                           route: Optional[int] = None,
                           seq: Optional[int] = None) -> bytes:
    """Serialize one batch (plus its epoch tag) to a binary frame payload.

    ``max_bytes`` is enforced against the *announced* size before any
    column bytes are written, so an oversized batch costs a header
    computation, not a full serialization pass.  A non-``None`` ``route``
    sets :data:`FLAG_ROUTED` and appends the shard-routing key (i64) to the
    fixed header — a cluster router reads it with
    :func:`peek_reports_header` and forwards the payload verbatim, without
    decoding a single column.  A non-``None`` ``seq`` sets
    :data:`FLAG_SEQUENCED` and appends the delivery sequence number (u64)
    the router uses for exact redelivery detection after journal replay;
    normal senders leave it unset and let the router stamp forwarded frames
    (:func:`stamp_sequence`).
    """
    specs = [_ColumnSpec(name, col) for name, col in batch.columns.items()]
    proto = batch.protocol.encode("utf-8")
    if len(proto) > 0xFFFF or len(specs) > 0xFFFF:
        raise BinaryFormatError("protocol tag or column count exceeds the "
                                "binary frame limits")
    if seq is not None and not 0 <= int(seq) < 1 << 64:
        raise BinaryFormatError(f"sequence number {seq} does not fit u64")
    flags = ((0 if route is None else FLAG_ROUTED)
             | (0 if seq is None else FLAG_SEQUENCED))
    route_size = 0 if route is None else _ROUTE_FIELD.size
    seq_size = 0 if seq is None else _SEQ_FIELD.size
    table_start = (_HEADER.size + _REPORTS_FIXED.size + route_size + seq_size
                   + len(proto))
    total = _layout(specs, table_start, named=True)
    if max_bytes is not None and total > max_bytes:
        raise BinaryFormatError(
            f"announced binary frame payload of {total} bytes exceeds the "
            f"{max_bytes}-byte limit")
    out = bytearray(total)
    _HEADER.pack_into(out, 0, BINARY_MAGIC, BINARY_VERSION, KIND_REPORTS,
                      flags)
    _REPORTS_FIXED.pack_into(out, _HEADER.size, int(epoch), len(batch),
                             len(proto), len(specs))
    pos = _HEADER.size + _REPORTS_FIXED.size
    if route is not None:
        _ROUTE_FIELD.pack_into(out, pos, int(route))
        pos += _ROUTE_FIELD.size
    if seq is not None:
        _SEQ_FIELD.pack_into(out, pos, int(seq))
        pos += _SEQ_FIELD.size
    out[pos:pos + len(proto)] = proto
    _write_columns(out, table_start, specs, named=True)
    return bytes(out)


def _check_header(reader: _Reader, expected_kind: int) -> int:
    """Validate magic/version/kind; returns the (validated) flags byte."""
    magic, version, kind, flags = reader.unpack(_HEADER)
    if magic != BINARY_MAGIC:
        raise BinaryFormatError(f"not a binary payload (magic 0x{magic:02x})")
    if version != BINARY_VERSION:
        raise BinaryFormatError(f"unsupported binary format version {version} "
                                f"(expected {BINARY_VERSION})")
    if kind != expected_kind:
        raise BinaryFormatError(f"unexpected binary payload kind {kind} "
                                f"(expected {expected_kind})")
    if flags & ~_KNOWN_FLAGS[expected_kind]:
        raise BinaryFormatError(f"unknown header flags 0x{flags:02x} for "
                                f"payload kind {kind}")
    return flags


def _read_reports_fixed(reader: _Reader) -> Tuple[int, Optional[int],
                                                  Optional[int], int,
                                                  int, int]:
    """Header + fixed fields of a reports payload: ``(epoch, route, seq,
    num_reports, proto_len, num_columns)``."""
    flags = _check_header(reader, KIND_REPORTS)
    epoch, num_reports, proto_len, num_columns = reader.unpack(_REPORTS_FIXED)
    route: Optional[int] = None
    if flags & FLAG_ROUTED:
        (route,) = reader.unpack(_ROUTE_FIELD)
        route = int(route)
    seq: Optional[int] = None
    if flags & FLAG_SEQUENCED:
        (seq,) = reader.unpack(_SEQ_FIELD)
        seq = int(seq)
    return int(epoch), route, seq, int(num_reports), proto_len, num_columns


def peek_reports_header(payload: bytes) -> Dict[str, object]:
    """Read only the fixed header of a binary reports payload.

    Returns ``{"epoch", "route", "seq", "num_reports", "protocol"}`` without
    touching the column table or the data region — this is the routing fast
    path: a cluster router peeks a few dozen bytes, picks a shard, and
    forwards the payload bytes untouched.
    """
    try:
        reader = _Reader(payload)
        epoch, route, seq, num_reports, proto_len, _ = \
            _read_reports_fixed(reader)
        protocol = reader.take(proto_len, "protocol tag").decode("utf-8")
    except (struct.error, UnicodeDecodeError) as exc:
        raise BinaryFormatError(f"malformed binary payload: {exc}") from exc
    return {"epoch": epoch, "route": route, "seq": seq,
            "num_reports": num_reports, "protocol": protocol}


def stamp_sequence(payload: bytes, seq: int) -> bytes:
    """Return a copy of a kind-1 payload carrying delivery sequence ``seq``.

    This is the router's redelivery-detection primitive: a forwarded
    ``reports`` payload is stamped once, journaled *stamped*, and any
    journal replay redelivers byte-identical frames, so a shard can drop
    already-absorbed duplicates exactly (``docs/wire-protocol.md`` §7.1).
    Stamping an unsequenced payload inserts the 8-byte seq field after the
    fixed fields (and the route field, when present) and shifts every
    column-table offset by 8 — offsets stay 8-byte aligned because the
    field width equals the alignment unit.  Stamping an already-sequenced
    payload overwrites the field in place (same length, same offsets).
    """
    if not 0 <= int(seq) < 1 << 64:
        raise BinaryFormatError(f"sequence number {seq} does not fit u64")
    reader = _Reader(payload)
    flags = _check_header(reader, KIND_REPORTS)
    _, _, proto_len, num_columns = reader.unpack(_REPORTS_FIXED)
    if flags & FLAG_ROUTED:
        reader.unpack(_ROUTE_FIELD)
    pos = reader.pos  # where the seq field lives (or is inserted)
    if flags & FLAG_SEQUENCED:
        out = bytearray(payload)
        if pos + _SEQ_FIELD.size > len(out):
            raise BinaryFormatError("truncated binary payload: seq field "
                                    "ends past the frame")
        _SEQ_FIELD.pack_into(out, pos, int(seq))
        return bytes(out)
    out = bytearray(len(payload) + _SEQ_FIELD.size)
    out[:pos] = payload[:pos]
    out[3] = flags | FLAG_SEQUENCED
    _SEQ_FIELD.pack_into(out, pos, int(seq))
    out[pos + _SEQ_FIELD.size:] = payload[pos:]
    # Column offsets are absolute; walk the (shifted) table and move each
    # one past the inserted field.
    cursor = pos + _SEQ_FIELD.size + proto_len
    try:
        for _ in range(num_columns):
            (name_len,) = struct.unpack_from("<H", out, cursor)
            cursor += 2 + name_len
            (dtype_len,) = struct.unpack_from("<B", out, cursor)
            cursor += 1 + dtype_len
            (ndim,) = struct.unpack_from("<B", out, cursor)
            cursor += 1 + 8 * ndim
            (offset,) = struct.unpack_from("<Q", out, cursor)
            struct.pack_into("<Q", out, cursor, offset + _SEQ_FIELD.size)
            cursor += 16
    except struct.error as exc:
        raise BinaryFormatError(
            f"malformed binary payload: column table ends past the frame "
            f"({exc})") from exc
    return bytes(out)


def decode_reports_payload(payload: bytes) -> Tuple[int, ReportBatch]:
    """Rebuild ``(epoch, batch)`` from :func:`encode_reports_payload` output.

    Every decoded column is a read-only zero-copy ``np.frombuffer`` view
    over ``payload``; the caller must keep the buffer alive for as long as
    the batch (aggregators copy into their own state on absorb, so the
    normal ingest path never extends the buffer's lifetime).  A routed or
    sequenced payload (:data:`FLAG_ROUTED` / :data:`FLAG_SEQUENCED`)
    decodes identically — routing keys and sequence numbers are addressed
    to routers and dedup logic, not aggregators; read them with
    :func:`peek_reports_header`.
    """
    try:
        reader = _Reader(payload)
        epoch, _route, _seq, num_reports, proto_len, num_columns = \
            _read_reports_fixed(reader)
        protocol = reader.take(proto_len, "protocol tag").decode("utf-8")
        columns: Dict[str, np.ndarray] = {}
        for _ in range(num_columns):
            name, column = _read_column(reader, named=True)
            if name in columns:
                raise BinaryFormatError(f"duplicate column {name!r}")
            columns[name] = column
    except struct.error as exc:  # pragma: no cover - guarded by _Reader
        raise BinaryFormatError(f"malformed binary payload: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise BinaryFormatError(f"malformed binary payload: {exc}") from exc
    batch = ReportBatch(protocol, columns)
    if len(batch) != num_reports:
        raise BinaryFormatError(f"declared num_reports={num_reports} does "
                                f"not match the column length {len(batch)}")
    return int(epoch), batch


# --------------------------------------------------------------------------------------
# packed state (kind = 2)
# --------------------------------------------------------------------------------------

_COLUMN_KEY = "__repro_column__"
_PATCH_KEY = "__repro_patch__"
_INT64_MAX = np.iinfo(np.int64).max
_INT32_MAX = np.iinfo(np.int32).max

#: 1-D integer arrays at least this long may ship patched (see _column_ref)
_PATCH_MIN_SIZE = 1 << 12
_PATCH_SLICE = 1 << 16


def _fits_int64(arr: np.ndarray) -> bool:
    """True when every value survives the int64 round trip exactly.

    Unpacked columns come back as int64, so values in [2^63, 2^64) — which
    numpy infers as uint64 — must stay in the JSON skeleton rather than
    wrap silently; aggregator states never contain them, but ``pack_state``
    accepts arbitrary JSON-ready payloads.
    """
    if arr.dtype.kind == "i":
        return True
    return arr.size == 0 or int(arr.max()) <= _INT64_MAX


def _fits_int32(column: np.ndarray) -> bool:
    """True when every value of a decoded state column fits int32: read
    from its dtype alone, or, for a ``<u4``/``<i8``/``<u8`` column, from
    one min/max pass (a float column is False: it unpacks as int64)."""
    if np.can_cast(column.dtype, np.int32):
        return True
    if column.dtype.kind not in "iu":
        return False
    return column.size == 0 or (int(column.max()) <= _INT32_MAX
                                and int(column.min()) >= -_INT32_MAX - 1)


#: the patch of a column that has none
_NO_PATCH = np.zeros(0, dtype=np.int64)
_NO_PATCH.flags.writeable = False


class PackedColumn:
    """One integer array of a packed state, left where it arrived: its
    read-only wire column (a view over the payload, narrowed by value)
    plus the patch, the exact values of the few entries the narrow dtype
    wrapped.  ``unpack_state(..., arrays=False)`` returns these in place
    of arrays.

    ``np.asarray`` gives the writable array :func:`unpack_state` returns:
    int32 when the column and its patch values all fit int32, int64
    otherwise.  Indexing with integer positions gives exact int64 values,
    so ``CountLayout.check_counts`` reads report-count cells straight
    through it, and :meth:`add_to` adds the array into a vector without
    ever making it.
    """

    __slots__ = ("column", "where", "values")

    def __init__(self, column: np.ndarray, where: np.ndarray = _NO_PATCH,
                 values: np.ndarray = _NO_PATCH) -> None:
        if where.shape != values.shape or where.dtype.kind not in "iu" or (
                where.size and (column.ndim != 1 or where.min() < 0
                                or where.max() >= column.size)):
            raise BinaryFormatError("column patch does not fit its column")
        self.column, self.where, self.values = column, where, values

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.column.shape

    def _parts(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.column, self.values

    @property
    def dtype(self) -> np.dtype:
        """The width the array loads at: int32 when the column and its
        patch values all fit int32, int64 otherwise."""
        fits = all(_fits_int32(part) for part in self._parts())
        return np.dtype(np.int32 if fits else np.int64)

    @property
    def bound(self) -> int:
        """``max|cell|``, read from the column and the patch values (exact
        for :func:`pack_state` output, whose patch values are the entries
        too wide for the column)."""
        return max(cell_bound(part) for part in self._parts())

    @property
    def addable(self) -> bool:
        """True when :meth:`add_to` is exact: every part is an integer
        dtype that int64 holds."""
        return all(np.can_cast(part.dtype, np.int64)
                   for part in self._parts())

    def __array__(self, dtype: Optional[np.dtype] = None,
                  copy: Optional[bool] = None) -> np.ndarray:
        array = np.array(self.column, dtype=self.dtype)
        if self.where.size:
            array[self.where] = self.values
        return array if dtype is None else array.astype(dtype, copy=False)

    def __getitem__(self, key: object) -> np.ndarray:
        picked = self.column[key].astype(np.int64)
        if not self.where.size:
            return picked
        # the last patch entry of a position wins, as in __array__
        order = np.argsort(self.where, kind="stable")
        ranked = self.where[order]
        keys = np.asarray(key)
        slot = np.maximum(np.searchsorted(ranked, keys, side="right") - 1, 0)
        return np.where(ranked[slot] == keys, self.values[order][slot],
                        picked)

    def add_to(self, out: np.ndarray) -> None:
        """``out += np.asarray(self)`` from the wire column, in place.
        ``out`` must be wide enough for the sum (see ``addable``)."""
        before = out[self.where].astype(np.int64)
        np.add(out, self.column, out=out)
        # the wrapped entries: their base plus the exact value
        out[self.where] = before + self.values


def _column_ref(arr: np.ndarray, columns: List[np.ndarray]) -> dict:
    """Append integer array ``arr`` to ``columns``; its skeleton reference.

    A few wide entries would widen a whole narrowed column — a flat
    aggregator state is millions of small counters plus a few report
    counts.  So a long 1-D array whose entries all but a 1/256 share fit
    int8 (or int16) ships as that narrow column, its wide entries wrapped,
    plus a patch: their indices and exact values, restored on unpack.
    """
    columns.append(arr)
    ref: Dict[str, object] = {_COLUMN_KEY: len(columns) - 1}
    if arr.ndim != 1 or arr.size < _PATCH_MIN_SIZE:
        return ref
    for candidate in (np.dtype("i1"), np.dtype("<i2")):
        if candidate.itemsize >= arr.dtype.itemsize:
            break
        narrow = np.empty(arr.shape, dtype=candidate)
        found = []
        # in cache-sized slices: faster, and no array-sized mask
        for start in range(0, arr.size, _PATCH_SLICE):
            part = arr[start:start + _PATCH_SLICE]
            narrow[start:start + part.size] = part  # wide entries wrap
            found.append(start + np.flatnonzero(
                narrow[start:start + part.size] != part))
        wide = np.concatenate(found)
        if not wide.size:
            break  # fits outright: plain narrowing does it
        if wide.size <= arr.size >> 8:
            columns[-1] = narrow
            columns.extend([wide, arr[wide]])
            ref[_PATCH_KEY] = [len(columns) - 2, len(columns) - 1]
            break
    return ref


def _extract_arrays(obj, columns: List[np.ndarray], lists: bool):
    """Replace every integer array (and, with ``lists``, every int list)
    with a column reference."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "iu" and _fits_int64(obj):
            return _column_ref(np.ascontiguousarray(obj), columns)
        return obj.tolist()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        if _COLUMN_KEY in obj or _PATCH_KEY in obj:
            raise ValueError(f"state payloads must not use the reserved "
                             f"keys {_COLUMN_KEY!r} and {_PATCH_KEY!r}")
        return {str(key): _extract_arrays(value, columns, lists)
                for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if items and lists:
            try:
                arr = np.asarray(items)
            except (ValueError, OverflowError):  # ragged / oversized ints
                arr = None
            if arr is not None and arr.dtype.kind in "iu" \
                    and _fits_int64(arr):
                return _column_ref(np.ascontiguousarray(
                    arr.astype(np.int64, copy=False)), columns)
        return [_extract_arrays(item, columns, lists) for item in items]
    raise TypeError(f"cannot pack {type(obj).__name__} into a state payload")


def pack_state(payload, *, lists: bool = True, head: int = 0) -> bytearray:
    """Serialize a (nested) state payload into one binary container.

    The payload is any JSON-ready structure, integer state as arrays or
    lists — a ``child_state`` record, ``WindowedAggregator.capture()``, a
    ``snapshot()``, or a whole state frame message.  Integer arrays (and,
    with ``lists``, integer lists) are pulled out into the binary column
    table, narrowed to their value range with a few wide entries patched,
    so an array and its ``tolist()`` pack alike; the remaining skeleton
    ships as compact JSON.  An int32 array packs as its int64 widening
    would, so a state's bytes do not depend on its width.
    :func:`unpack_state` restores the structure with int32 (or, where the
    values need it, int64) arrays in place of the extracted columns —
    every state consumer (``restore``, ``load_child_state``) normalizes
    through ``np.asarray``, so the round trip is bit-exact.  A frame
    message packs with ``lists=False``: its int lists (a reply's
    ``epochs``) stay in the skeleton and come back as lists, only its
    arrays come back as arrays.

    The container is the one buffer the columns are cast into, returned
    as is; ``head`` leading bytes are left zero before it for a caller's
    own header (a kind-2 frame's length prefix), so neither packing nor
    framing copies the packed state.  The arrays are read synchronously,
    so a caller may pack live aggregator ``counts``.
    """
    columns: List[np.ndarray] = []
    skeleton = json.dumps(_extract_arrays(payload, columns, lists),
                          separators=(",", ":")).encode("utf-8")
    specs = [_ColumnSpec("", arr, np.dtype(np.int64)
                         if arr.dtype == np.int32 else None)
             for arr in columns]
    table_start = _HEADER.size + _STATE_FIXED.size + len(skeleton)
    total = _layout(specs, table_start, named=False)
    out = bytearray(head + total)
    with memoryview(out)[head:] as body:
        _HEADER.pack_into(body, 0, BINARY_MAGIC, BINARY_VERSION, KIND_STATE,
                          0)
        _STATE_FIXED.pack_into(body, _HEADER.size, len(skeleton), len(specs))
        pos = _HEADER.size + _STATE_FIXED.size
        body[pos:pos + len(skeleton)] = skeleton
        _write_columns(body, table_start, specs, named=False)
    return out


def unpack_state(payload: bytes, *, arrays: bool = True):
    """Rebuild a state payload from :func:`pack_state` output.

    Extracted columns come back as *writable* arrays (state loading
    mutates aggregator accumulators in place, so zero-copy read-only views
    would be a trap here): int32 when the column's wire dtype holds only
    int32 values and every patch value fits int32, int64 otherwise — the
    width an aggregator holds such cells at, so loading them copies
    nothing more.  With ``arrays=False`` they come back as
    :class:`PackedColumn` views over ``payload`` instead, copying nothing;
    either way a patch that does not fit its column is rejected here.
    """
    try:
        reader = _Reader(payload)
        _check_header(reader, KIND_STATE)
        skeleton_len, num_columns = reader.unpack(_STATE_FIXED)
        skeleton = reader.take(skeleton_len, "state skeleton").decode("utf-8")
        columns = [_read_column(reader, named=False)[1]
                   for _ in range(num_columns)]
    except struct.error as exc:  # pragma: no cover - guarded by _Reader
        raise BinaryFormatError(f"malformed binary payload: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise BinaryFormatError(f"malformed binary payload: {exc}") from exc

    def _column(index: object) -> np.ndarray:
        if not isinstance(index, int) or not 0 <= index < len(columns):
            raise BinaryFormatError(f"state skeleton references unknown "
                                    f"column {index!r}")
        return columns[index]

    def _hook(obj: dict):
        if _COLUMN_KEY not in obj or not set(obj) <= {_COLUMN_KEY,
                                                     _PATCH_KEY}:
            return obj
        where = values = _NO_PATCH
        if _PATCH_KEY in obj:
            patch = obj[_PATCH_KEY]
            if not isinstance(patch, list) or len(patch) != 2:
                raise BinaryFormatError(f"malformed column patch {patch!r}")
            where, values = _column(patch[0]), _column(patch[1])
        packed = PackedColumn(_column(obj[_COLUMN_KEY]), where, values)
        return np.asarray(packed) if arrays else packed

    try:
        return json.loads(skeleton, object_hook=_hook)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise BinaryFormatError(f"invalid JSON state skeleton: {exc}") from exc


def fold_state(aggregator: ServerAggregator,
               data: Dict[str, object]) -> ServerAggregator:
    """Add one ``child_state`` payload into ``aggregator``, in place.

    The payload passes every check :func:`load_child_state` makes (report
    count sign, vector shape, report-count cells) before anything is
    added, so a rejected one (``ValueError``) leaves ``aggregator`` as it
    was.  Counts still packed (``unpack_state(..., arrays=False)``) are
    added straight from their wire column and patch, the sum promoted to
    int64 only when the bounds need it (``ServerAggregator.add_in_place``);
    any other payload loads first and merges in place.
    """
    state = data["state"]
    packed = state.get("counts") if isinstance(state, dict) \
        and set(state) == {"counts"} else None
    if not (isinstance(packed, PackedColumn) and packed.addable):
        return aggregator.merge_in_place(
            load_child_state(aggregator.params, data))
    count = int(data["num_reports"])
    aggregator.params.layout.check_state(packed, count)
    return aggregator.add_in_place(packed, count)


def fold_states(params: PublicParams,
                states: Iterable[Dict[str, object]]) -> ServerAggregator:
    """The exact sum of ``child_state`` payloads as one aggregator.

    The first payload loads as :func:`load_child_state` loads it, into the
    one vector the sum is built in; every further one is checked and added
    into that vector by :func:`fold_state`.  With packed payloads (a
    cluster router's pulled ``state`` replies, the engine's worker results)
    no second layout-sized vector is ever made.  No payloads sum to an
    empty aggregator.
    """
    merged: Optional[ServerAggregator] = None
    for data in states:
        merged = (load_child_state(params, data) if merged is None
                  else fold_state(merged, data))
    return merged if merged is not None else params.make_aggregator()
