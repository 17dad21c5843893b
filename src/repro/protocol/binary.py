"""Binary columnar codec for report batches and aggregator state.

This is the only wire form of a :class:`~repro.protocol.wire.ReportBatch`.
It replaced a JSON form (base64 columns inside a JSON object) that paid
three taxes per batch: a ``json.dumps`` pass, a base64 inflation of 4/3 on
every column, and a ``json.loads`` + base64 pass on the server before a
single report was absorbed — 22.7 B per hashtogram report against 1.75 B
here.  This module has no serialization layer at all:

* **Encoding** writes each column as ``(name, code, shape, raw
  little-endian bytes)`` behind a fixed ``struct`` header — no JSON, no
  base64.  A report column of non-negative integers is bit-packed at the
  bit length of its maximum, and a column of -1/+1 at one bit per value;
  any other integer column is narrowed to the smallest integer dtype that
  holds its value range (a hashtogram report shrinks from 17 raw bytes
  to 14 bits).
* **Decoding** is a handful of ``struct.unpack_from`` calls plus, per
  column, one ``np.frombuffer`` (a read-only zero-copy view over the
  received buffer) or one vectorized unpack of a packed column into a
  fresh read-only array.  Aggregators absorb the columns as they come
  (they only ever read report columns).  A cluster router checks the
  column table only (:func:`check_reports_payload`) and forwards the bytes.
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
                        dtype_len (u8) dtype (ascii: numpy form e.g. "|i1",
                                              or "p<bits>" / "s1" packed)
                        ndim (u8) shape (u64 * ndim)
                        offset (u64) nbytes (u64) } * num_columns
        data region: one blob per column at its announced offset,
                     8-byte aligned, little-endian C order; a packed
                     column is ceil(count * bits / 8) bytes, LSB-first

    kind=2 (state) body:
        skeleton_len (u32) num_columns (u32)
        skeleton (utf-8 JSON; arrays replaced by {"__repro_column__": i},
                  or {"__repro_column__": i, "__repro_patch__": [j, k]}:
                  column i with entries at indices j set to values k)
        column table (as above, without names; numpy dtype codes only)
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
import math
import struct
from typing import (Dict, Iterable, List, Literal, Optional, Sequence,
                    Tuple, overload)

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
    "check_reports_payload",
    "decode_reports_payload",
    "describe_payload",
    "encode_reports_payload",
    "fold_state",
    "fold_states",
    "is_binary_payload",
    "pack_state",
    "payload_kind",
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
_UNSIGNED = tuple(np.dtype(code) for code in
                  ("u1", "<u2", "<u4", "<u4", "<u8", "<u8", "<u8", "<u8"))
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_OFFSET_NBYTES = struct.Struct("<QQ")

#: kind-1 column codes of bit-packed columns (docs/wire-protocol.md §8.1):
#: ``p<bits>`` holds non-negative integers at ``bits`` bits each, ``s1``
#: holds -1/+1 at one bit each (1 for +1).  numpy parses neither, so a
#: reader that predates packing rejects such a column as an invalid dtype.
_PACKED_PREFIX = "p"
_SIGN_CODE = "s1"
_SIGN_CODE_BYTES = _SIGN_CODE.encode("ascii")
_MAX_BITS = 64
#: numpy's array limits, applied to every announced shape: the axis count
#: of numpy 1.x (numpy 2 allows 64) and the largest byte size
_MAX_NDIM = 32
_INTP_MAX = int(np.iinfo(np.intp).max)


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

def _narrowest(lo: int, hi: int, dtype: np.dtype) -> np.dtype:
    """Smallest dtype of the narrowing ladder holding ``[lo, hi]``, never
    ``dtype``'s own size or wider (then ``dtype`` itself)."""
    for candidate in _NARROW_CANDIDATES:
        if candidate.itemsize >= dtype.itemsize:
            break
        info = np.iinfo(candidate)
        if info.min <= lo and hi <= info.max:
            return candidate
    return dtype


def _wire_dtype(col: np.ndarray, source: Optional[np.dtype] = None
                ) -> np.dtype:
    """Smallest little-endian dtype that holds the column's values.

    The choice depends only on the values and ``source`` (default: the
    column's dtype), never narrowing to ``source``'s own size, so
    re-encoding a decoded column reproduces the original bytes exactly.
    Non-integer and empty columns keep ``source`` (byte-swapped to
    little-endian if necessary).
    """
    dtype = col.dtype if source is None else np.dtype(source)
    if dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
        dtype = dtype.newbyteorder("<")
    if dtype.kind not in "iu" or col.size == 0:
        return dtype
    return _narrowest(int(col.min()), int(col.max()), dtype)


def _unpacked_dtype(bits: int) -> np.dtype:
    """The smallest unsigned dtype holding ``bits``-bit values."""
    return _UNSIGNED[(bits - 1) >> 3]


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


class _ColumnSpec:
    """One column's announced layout, computed before any serialization:
    a plain column of ``dtype``, or (``bits`` > 0) a bit-packed one whose
    values unpack to ``dtype``."""

    __slots__ = ("name", "array", "dtype", "bits", "code", "shape",
                 "offset", "nbytes")

    def __init__(self, name: str, array: np.ndarray, dtype: np.dtype,
                 bits: int = 0, code: Optional[str] = None) -> None:
        self.name = name
        self.array = array
        self.dtype = dtype
        self.bits = bits
        self.code = (code or dtype.str).encode("ascii")
        self.shape = tuple(int(s) for s in array.shape)
        self.nbytes = ((array.size * bits + 7) // 8 if bits
                       else int(dtype.itemsize * array.size))
        self.offset = 0  # assigned once the table size is known

    def table_size(self, named: bool) -> int:
        size = 1 + len(self.code) + 1 + 8 * len(self.shape) + 16
        if named:
            size += 2 + len(self.name.encode("utf-8"))
        return size


def _state_spec(arr: np.ndarray,
                dtype: Optional[np.dtype] = None) -> _ColumnSpec:
    """A kind-2 column: narrowed by value (to ``dtype`` when given), an
    int32 array exactly as its int64 widening would be."""
    if dtype is None:
        dtype = _wire_dtype(arr, np.dtype(np.int64)
                            if arr.dtype == np.int32 else None)
    return _ColumnSpec("", arr, dtype)


def _report_spec(name: str, col: np.ndarray) -> _ColumnSpec:
    """A kind-1 column: bit-packed when its values allow it (§8.2).

    A non-negative integer column ships at ``bit_length(max)`` bits (at
    least 1), a column of only -1 and +1 at one bit; any other column is
    narrowed as a state column is.  Like narrowing, the choice depends only
    on the values, so a decoded batch re-encodes to the same bytes.
    """
    if col.dtype.kind in "iu" and col.size:
        lo, hi = int(col.min()), int(col.max())
        if lo >= 0:
            bits = max(1, hi.bit_length())
            return _ColumnSpec(name, col, _unpacked_dtype(bits), bits,
                               f"{_PACKED_PREFIX}{bits}")
        if lo == -1 and hi in (-1, 1) and (
                hi == -1 or np.count_nonzero(col) == col.size):
            return _ColumnSpec(name, col, np.dtype(np.int8), 1, _SIGN_CODE)
    return _ColumnSpec(name, col, _wire_dtype(col))


def _layout(specs: Sequence[_ColumnSpec], table_start: int,
            named: bool) -> int:
    """Assign aligned data offsets; returns the total payload size."""
    offset = table_start + sum(spec.table_size(named) for spec in specs)
    for spec in specs:
        offset = _align(offset)
        spec.offset = offset
        offset += spec.nbytes
    return offset


def _pack_bits(values: np.ndarray, bits: int, out: np.ndarray) -> None:
    """Write non-negative ``values`` below ``2**bits`` into the zeroed byte
    array ``out``, LSB-first: value ``i`` is bits ``[i*bits, (i+1)*bits)``
    of the little-endian bit stream.

    Runs in groups of ``8 / gcd(bits, 8)`` values, which fill a whole
    number of bytes: one shift-and-or per (value slot, byte it touches),
    each over every group at once.
    """
    if bits == 1:
        out[...] = np.packbits(values, bitorder="little")
        return
    work = _unpacked_dtype(bits)
    if bits == 8 * work.itemsize:  # whole bytes: a plain little-endian cast
        out.view(work)[...] = values
        return
    per_group = 8 // math.gcd(bits, 8)
    rows = -(-values.size // per_group)
    slots = np.zeros(rows * per_group, dtype=work)
    slots[:values.size] = values
    slots = slots.reshape(rows, per_group)
    grouped = np.zeros((rows, bits * per_group // 8), dtype=np.uint8)
    for j in range(per_group):
        first = j * bits
        for k in range(first >> 3, ((first + bits - 1) >> 3) + 1):
            shift = 8 * k - first
            part = (slots[:, j] >> shift if shift >= 0
                    else slots[:, j] << -shift)
            np.bitwise_or(grouped[:, k], part, out=grouped[:, k],
                          casting="unsafe")  # keeps the low byte
    out[...] = grouped.reshape(-1)[:out.size]


def _unpack_bits(data: np.ndarray, bits: int, count: int) -> np.ndarray:
    """The inverse of :func:`_pack_bits`: ``count`` values of ``bits``
    bits from the byte array ``data``, as the smallest unsigned dtype that
    holds them (a fresh array; whole-byte widths give a view of ``data``).
    Any bit pattern unpacks to a value below ``2**bits``.

    Each value lies inside one little-endian word read at its first byte
    (4 bytes up to 25 bits, else 8 plus, past 57 bits, a spill byte), at
    that byte's bit offset: per value slot of a group, one strided read
    of every group's word, a shift and a mask.
    """
    if bits == 1:
        return np.unpackbits(data, count=count, bitorder="little")
    work = _unpacked_dtype(bits)
    if bits == 8 * work.itemsize:
        return data.view(work)
    if not count:
        return np.zeros(0, dtype=work)
    word = np.dtype("<u4") if bits <= 25 else np.dtype("<u8")
    per_group = 8 // math.gcd(bits, 8)
    width = bits * per_group // 8
    rows = -(-count // per_group)
    padded = np.zeros(rows * width + word.itemsize + 1, dtype=np.uint8)
    padded[:data.size] = data
    slots = np.empty((rows, per_group), dtype=work)
    for j in range(per_group):
        start, shift = (j * bits) >> 3, (j * bits) & 7
        value = slots[:, j]
        np.right_shift(np.ndarray((rows,), dtype=word, buffer=padded,
                                  offset=start, strides=(width,)),
                       shift, out=value, casting="unsafe")
        if shift + bits > 64:
            spill = np.ndarray((rows,), dtype=np.uint8, buffer=padded,
                               offset=start + 8, strides=(width,))
            value |= spill.astype(work) << (64 - shift)
        value &= (1 << bits) - 1
    return slots.reshape(-1)[:count]


def _write_columns(out: bytearray, pos: int, specs: Sequence[_ColumnSpec],
                   named: bool) -> None:
    for spec in specs:
        if named:
            name = spec.name.encode("utf-8")
            struct.pack_into("<H", out, pos, len(name))
            pos += 2
            out[pos:pos + len(name)] = name
            pos += len(name)
        struct.pack_into("<B", out, pos, len(spec.code))
        pos += 1
        out[pos:pos + len(spec.code)] = spec.code
        pos += len(spec.code)
        struct.pack_into("<B", out, pos, len(spec.shape))
        pos += 1
        for dim in spec.shape:
            struct.pack_into("<Q", out, pos, dim)
            pos += 8
        struct.pack_into("<QQ", out, pos, spec.offset, spec.nbytes)
        pos += 16
        values = spec.array.reshape(-1)
        if spec.bits:
            if spec.code == _SIGN_CODE_BYTES:
                values = values > 0
            _pack_bits(values, spec.bits, np.frombuffer(
                out, dtype=np.uint8, count=spec.nbytes, offset=spec.offset))
        else:
            # cast straight into the payload: no narrowed copy, no bytes
            # copy (integer entries too wide for the dtype wrap)
            np.frombuffer(out, dtype=spec.dtype, count=spec.array.size,
                          offset=spec.offset)[...] = values


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


class _Entry:
    """One column-table entry, checked against the payload: where its data
    lies and how it decodes (``bits`` > 0: bit-packed, ``sign``: a ±1
    column), without reading any data."""

    __slots__ = ("name", "code", "dtype", "bits", "sign", "shape", "count",
                 "offset", "nbytes")

    def array(self, payload: bytes) -> np.ndarray:
        """The decoded column: a read-only view over ``payload``, or, for a
        packed column, a fresh read-only array."""
        if self.bits:
            data = _unpack_bits(np.frombuffer(
                payload, dtype=np.uint8, count=self.nbytes,
                offset=self.offset), self.bits, self.count)
            if self.sign:  # 0/1 to -1/+1, in place
                data = data.view(np.int8)
                data <<= 1
                data -= 1
        else:
            data = np.frombuffer(payload, dtype=self.dtype, count=self.count,
                                 offset=self.offset)
        column = data.reshape(self.shape)
        column.flags.writeable = False
        return column


def _packed_width(code: str, name: str) -> int:
    """The bit width a ``p<bits>`` code announces (1..64, no leading zero)."""
    digits = code[len(_PACKED_PREFIX):]
    bits = int(digits) if digits.isdigit() else 0
    if not 1 <= bits <= _MAX_BITS or str(bits) != digits:
        raise BinaryFormatError(f"column {name!r}: packed bit width "
                                f"{digits!r} is not an integer in 1..64")
    return bits


def _read_entry(reader: _Reader, named: bool) -> _Entry:
    """Read and check one column-table entry; bit-packed codes are valid
    only in a named (kind-1) table."""
    entry = _Entry()
    entry.name = ""
    if named:
        (name_len,) = reader.unpack(_U16)
        entry.name = reader.take(name_len, "column name").decode("utf-8")
    (code_len,) = reader.unpack(_U8)
    code = entry.code = reader.take(code_len, "column dtype").decode("ascii")
    entry.bits, entry.sign = 0, False
    if named and code == _SIGN_CODE:
        entry.bits, entry.sign, entry.dtype = 1, True, np.dtype(np.int8)
    elif named and code.startswith(_PACKED_PREFIX):
        entry.bits = _packed_width(code, entry.name)
        entry.dtype = _unpacked_dtype(entry.bits)
    else:
        try:
            entry.dtype = np.dtype(code)
        except (TypeError, ValueError, SyntaxError) as exc:
            raise BinaryFormatError(f"invalid column dtype {code!r}") from exc
        if entry.dtype.hasobject or entry.dtype.kind not in "iufb":
            raise BinaryFormatError(f"unsupported column dtype {code!r}")
    (ndim,) = reader.unpack(_U8)
    entry.shape = tuple(reader.unpack(_U64)[0] for _ in range(ndim))
    entry.offset, entry.nbytes = reader.unpack(_OFFSET_NBYTES)
    label = entry.name or code
    # numpy's own limits on a shape, checked here so that a table that
    # passes (the router's whole check) never fails in the reshape: at most
    # _MAX_NDIM axes, and the product of the non-zero dims times the
    # itemsize within intp -- a zero-report column may announce any dims
    # without any data to bound them.
    count, span = 1, entry.dtype.itemsize
    for dim in entry.shape:  # exact Python ints: announced dims cannot overflow
        count *= dim
        span *= dim or 1
    if ndim > _MAX_NDIM or span > _INTP_MAX:
        raise BinaryFormatError(f"column {label!r}: announced shape "
                                f"{entry.shape} is beyond numpy's limits")
    entry.count = count
    expected = ((count * entry.bits + 7) // 8 if entry.bits
                else count * entry.dtype.itemsize)
    if expected != entry.nbytes:
        raise BinaryFormatError(
            f"column {label!r}: announced {entry.nbytes} bytes do not match "
            f"shape {entry.shape} of dtype {code}")
    if entry.offset + entry.nbytes > len(reader.payload):
        raise BinaryFormatError(
            f"column {label!r}: announced data "
            f"[{entry.offset}, {entry.offset + entry.nbytes}) lies past the "
            f"frame")
    return entry


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
    :func:`check_reports_payload` and forwards the payload verbatim,
    without unpacking a single column.  A non-``None`` ``seq`` sets
    :data:`FLAG_SEQUENCED` and appends the delivery sequence number (u64)
    the router uses for exact redelivery detection after journal replay;
    normal senders leave it unset and let the router stamp forwarded frames
    (:func:`stamp_sequence`).
    """
    specs = [_report_spec(name, col) for name, col in batch.columns.items()]
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


def _read_reports_head(reader: _Reader) -> Tuple[Dict[str, object], int]:
    """The header dict of a reports payload and its column count, leaving
    ``reader`` at the column table."""
    epoch, route, seq, num_reports, proto_len, num_columns = \
        _read_reports_fixed(reader)
    protocol = reader.take(proto_len, "protocol tag").decode("utf-8")
    return ({"epoch": epoch, "route": route, "seq": seq,
             "num_reports": num_reports, "protocol": protocol}, num_columns)


def _read_reports_table(payload: bytes
                        ) -> Tuple[Dict[str, object], List[_Entry]]:
    """The header dict and the checked column table of a reports payload.

    Everything a decode can reject is rejected here, before any column is
    read: each entry's code, shape, ``nbytes`` and data range, duplicate
    names, a column without a report axis, and column lengths that differ
    from each other or from the declared ``num_reports``.
    """
    try:
        reader = _Reader(payload)
        header, num_columns = _read_reports_head(reader)
        entries: List[_Entry] = []
        names = set()
        for _ in range(num_columns):
            entry = _read_entry(reader, named=True)
            if entry.name in names:
                raise BinaryFormatError(f"duplicate column {entry.name!r}")
            if not entry.shape:
                raise BinaryFormatError(f"column {entry.name!r} has no "
                                        f"report axis")
            names.add(entry.name)
            entries.append(entry)
    except (struct.error, UnicodeDecodeError) as exc:
        raise BinaryFormatError(f"malformed binary payload: {exc}") from exc
    lengths = {entry.shape[0] for entry in entries}
    if len(lengths) > 1:
        raise BinaryFormatError(f"inconsistent column lengths: "
                                f"{sorted(lengths)}")
    length = lengths.pop() if lengths else 0
    if length != header["num_reports"]:
        raise BinaryFormatError(f"declared num_reports="
                                f"{header['num_reports']} does not match the "
                                f"column length {length}")
    return header, entries


def check_reports_payload(payload: bytes) -> Dict[str, object]:
    """Check a reports payload as :func:`decode_reports_payload` would,
    without unpacking a column; returns the header dict
    ``{"epoch", "route", "seq", "num_reports", "protocol"}``.

    This is the cluster router's gate (``docs/wire-protocol.md`` §8.3): it
    reads the header and the column table only, so a router forwards a
    packed frame without paying for its unpack, and it accepts exactly the
    payloads a shard decodes — any bit pattern of a checked packed column
    unpacks to a valid value.
    """
    return _read_reports_table(payload)[0]


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


@overload
def decode_reports_payload(payload: bytes, *, header: Literal[False] = ...
                           ) -> Tuple[int, ReportBatch]:
    ...


@overload
def decode_reports_payload(payload: bytes, *, header: Literal[True]
                           ) -> Tuple[Dict[str, object], ReportBatch]:
    ...


def decode_reports_payload(payload: bytes, *, header: bool = False
                           ) -> Tuple[object, ReportBatch]:
    """Rebuild ``(epoch, batch)`` from :func:`encode_reports_payload` output
    (``(header, batch)`` with ``header=True``: the whole
    :func:`check_reports_payload` dict in place of the epoch).

    Every decoded column is read-only.  A bit-packed column is unpacked
    into a fresh array of the smallest dtype that holds it (``u1``/``u2``/
    ``u4``/``u8``, or ``i1`` for a ±1 column); a whole-byte width and any
    other column are zero-copy ``np.frombuffer`` views over ``payload``,
    so the caller must keep the buffer alive for as long as the batch
    (aggregators copy into their own state on absorb, so the normal ingest
    path never extends the buffer's lifetime).  A routed or sequenced
    payload (:data:`FLAG_ROUTED` / :data:`FLAG_SEQUENCED`) decodes
    identically — routing keys and sequence numbers are addressed to
    routers and dedup logic, not aggregators; read them from the header.
    """
    fields, entries = _read_reports_table(payload)
    batch = ReportBatch(fields["protocol"], {
        entry.name: entry.array(payload) for entry in entries})
    return (fields if header else fields["epoch"]), batch


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


def _probe_narrowing(arr: np.ndarray, candidate: np.dtype
                     ) -> Tuple[np.ndarray, int, int]:
    """Where ``arr`` cast to ``candidate`` wraps, and the min and max of
    the cast values, probed in cache-sized slices: no array-sized mask and
    no narrowed copy of ``arr``."""
    scratch = np.empty(min(arr.size, _PATCH_SLICE), dtype=candidate)
    found = []
    lo, hi = np.iinfo(candidate).max, np.iinfo(candidate).min
    for start in range(0, arr.size, _PATCH_SLICE):
        part = arr[start:start + _PATCH_SLICE]
        narrow = scratch[:part.size]
        narrow[...] = part  # wide entries wrap
        found.append(start + np.flatnonzero(narrow != part))
        lo, hi = min(lo, int(narrow.min())), max(hi, int(narrow.max()))
    return np.concatenate(found), lo, hi


def _column_ref(arr: np.ndarray, specs: List[_ColumnSpec]) -> dict:
    """Append integer array ``arr``'s column to ``specs``; its skeleton
    reference.

    A few wide entries would widen a whole narrowed column — a flat
    aggregator state is millions of small counters plus a few report
    counts.  So a long 1-D array whose entries all but a 1/256 share fit
    int8 (or int16) ships as that narrow column, its wide entries wrapped,
    plus a patch: their indices and exact values, restored on unpack.  The
    narrowing is only probed here; :func:`_write_columns` casts ``arr``
    straight into the container, so the narrow column is never held twice.
    """
    ref: Dict[str, object] = {_COLUMN_KEY: len(specs)}
    if arr.ndim == 1 and arr.size >= _PATCH_MIN_SIZE:
        for candidate in (np.dtype("i1"), np.dtype("<i2")):
            if candidate.itemsize >= arr.dtype.itemsize:
                break
            wide, lo, hi = _probe_narrowing(arr, candidate)
            if not wide.size:
                break  # fits outright: plain narrowing does it
            if wide.size <= arr.size >> 8:
                specs.append(_state_spec(arr, _narrowest(lo, hi, candidate)))
                specs.extend([_state_spec(wide), _state_spec(arr[wide])])
                ref[_PATCH_KEY] = [len(specs) - 2, len(specs) - 1]
                return ref
    specs.append(_state_spec(arr))
    return ref


def _extract_arrays(obj, specs: List[_ColumnSpec], lists: bool):
    """Replace every integer array (and, with ``lists``, every int list)
    with a column reference."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "iu" and _fits_int64(obj):
            return _column_ref(np.ascontiguousarray(obj), specs)
        return obj.tolist()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        if _COLUMN_KEY in obj or _PATCH_KEY in obj:
            raise ValueError(f"state payloads must not use the reserved "
                             f"keys {_COLUMN_KEY!r} and {_PATCH_KEY!r}")
        return {str(key): _extract_arrays(value, specs, lists)
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
                    arr.astype(np.int64, copy=False)), specs)
        return [_extract_arrays(item, specs, lists) for item in items]
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
    specs: List[_ColumnSpec] = []
    skeleton = json.dumps(_extract_arrays(payload, specs, lists),
                          separators=(",", ":")).encode("utf-8")
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


def _read_state_table(payload: bytes) -> Tuple[str, List[_Entry]]:
    """The JSON skeleton and the checked column table of a state payload."""
    try:
        reader = _Reader(payload)
        _check_header(reader, KIND_STATE)
        skeleton_len, num_columns = reader.unpack(_STATE_FIXED)
        skeleton = reader.take(skeleton_len, "state skeleton").decode("utf-8")
        entries = [_read_entry(reader, named=False)
                   for _ in range(num_columns)]
    except (struct.error, UnicodeDecodeError) as exc:
        raise BinaryFormatError(f"malformed binary payload: {exc}") from exc
    return skeleton, entries


def describe_payload(payload: bytes
                     ) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """A binary payload laid out for reading (``repro.cli decode-frame``).

    Returns the header fields (a reports payload's
    :func:`check_reports_payload` dict, or a state payload's JSON
    ``skeleton``), each with its ``kind``, and per column its ``name``
    (a state column's index), ``code``, ``bits`` per value, ``shape`` and
    decoded ``array``, read exactly as the decoders read them.
    """
    if payload_kind(payload) == KIND_STATE:
        skeleton, entries = _read_state_table(payload)
        header: Dict[str, object] = {"skeleton": skeleton}
    else:
        header, entries = _read_reports_table(payload)
    header = {"kind": payload_kind(payload), **header}
    return header, [{"name": entry.name or str(index), "code": entry.code,
                     "bits": entry.bits or 8 * entry.dtype.itemsize,
                     "shape": entry.shape, "array": entry.array(payload)}
                    for index, entry in enumerate(entries)]


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
    skeleton, entries = _read_state_table(payload)
    columns = [entry.array(payload) for entry in entries]

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
