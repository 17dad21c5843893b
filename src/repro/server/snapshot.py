"""Durable snapshot files for the aggregation service.

A snapshot is a windowed checkpoint payload
(:meth:`repro.server.window.WindowedAggregator.capture`) written to disk in
one of two encodings:

* ``"binary"`` — the payload through the columnar state container of
  :mod:`repro.protocol.binary` (``pack_state``): integer arrays ship as
  narrowed raw little-endian bytes behind a struct header.  Every
  :class:`SnapshotStore` checkpoint uses it.
* ``"json"`` (:func:`write_snapshot`'s default; the cluster's shard map) —
  one compact JSON document of a JSON-safe payload: human-readable and
  integer-exact, but several times larger and slower for large aggregators.

Because every aggregator keeps exact integer state and integers survive
both encodings exactly, ``restore → absorb more → finalize`` is
**bit-identical** to a server that never crashed (asserted per protocol in
``tests/test_snapshot.py`` and ``tests/test_wire_binary.py``, and
end-to-end, across a ``SIGKILL``, in ``tests/test_server.py``).

Either encoding is wrapped in a fixed **checksummed container** (normative
layout in ``docs/wire-protocol.md`` §6.2)::

    container := snapshot_magic (u32) | crc32 (u32) | length (u32) | body

with all header fields little-endian, ``crc32`` the CRC-32 of ``body``
(:func:`zlib.crc32`), and ``length`` the body size in bytes.  A restore
verifies both fields before parsing a single byte of state and raises the
typed :class:`SnapshotCorruptError` on any mismatch — a flipped bit or a
short read can never be absorbed as garbage aggregator state.  Headerless
files written before the container existed still restore through the same
sniffing path (JSON documents start with ``{``, binary state containers
with the ``0xB1`` magic), so old restore points stay valid.

Files are written atomically: temp file + ``fsync`` of the file **and** of
its directory entry around ``os.replace``, so a crash (or whole-host power
loss) during checkpointing can never leave a truncated or unlinked
snapshot as the newest one.  :class:`SnapshotStore` keeps a bounded
history (newest ``keep`` files) with monotonically increasing sequence
numbers; :meth:`SnapshotStore.latest_valid` walks that history newest →
oldest past corrupt files, which is what lets a supervisor restart a shard
whose newest checkpoint was damaged on disk instead of restoring garbage
or refusing to start.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.protocol.binary import is_binary_payload, pack_state, unpack_state

__all__ = ["SNAPSHOT_FORMATS", "SNAPSHOT_MAGIC", "SnapshotCorruptError",
           "SnapshotStore", "fsync_directory", "read_snapshot",
           "write_snapshot"]

#: supported on-disk snapshot encodings
SNAPSHOT_FORMATS = ("json", "binary")

#: first four bytes of a checksummed snapshot container — ``b"RSNP"`` on
#: disk; can never open a legacy file (those start with ``{`` or ``0xB1``)
SNAPSHOT_MAGIC = 0x504E5352

#: container header: magic (u32) | crc32-of-body (u32) | body length (u32),
#: little-endian — ``docs/wire-protocol.md`` §6.2
_CONTAINER_HEADER = struct.Struct("<III")

_SNAPSHOT_NAME = re.compile(r"^snapshot-(\d{6})\.(json|bin)$")


class SnapshotCorruptError(ValueError):
    """A snapshot file failed its integrity check: bad container header,
    CRC-32 mismatch, truncated body, or an unparseable state payload.

    Raised *before* any state is absorbed — a corrupted restore is always
    loud, never silent garbage."""


def fsync_directory(directory: Union[str, Path]) -> None:
    """Flush a directory entry to disk (the second half of a durable rename).

    ``os.replace`` makes a rename atomic against crashes of *this* process,
    but only an ``fsync`` of the containing directory makes the new name
    durable against power loss.  Platforms whose directory handles reject
    ``fsync`` degrade to the plain atomic rename.
    """
    fd = os.open(os.fspath(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - non-POSIX directory handles
        pass
    finally:
        os.close(fd)


#: a snapshot payload, or the ``pack_state`` body of one already packed
Payload = Union[Dict[str, object], bytes, bytearray]


def _encode_body(payload: Payload, format: str) -> bytes:
    if isinstance(payload, (bytes, bytearray)):
        if format != "binary":
            raise ValueError("a packed snapshot body is binary")
        return payload
    if format == "binary":
        return pack_state(payload)
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def write_snapshot(path: Union[str, Path], payload: Payload,
                   format: str = "json") -> Path:
    """Durably and atomically write one snapshot payload to ``path``.

    The payload body is framed in the checksummed container, the temp file
    is fsynced before the rename, and the directory entry is fsynced after
    it — the write is all-or-nothing even across power loss.  ``payload``
    may be the binary body itself, packed by the caller
    (``pack_state``): a server packs on its event loop, from live state,
    and writes here off it.
    """
    if format not in SNAPSHOT_FORMATS:
        raise ValueError(f"snapshot format must be one of {SNAPSHOT_FORMATS}, "
                         f"got {format!r}")
    path = Path(path)
    body = _encode_body(payload, format)
    header = _CONTAINER_HEADER.pack(SNAPSHOT_MAGIC, zlib.crc32(body),
                                    len(body))
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(header)
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_directory(path.parent)
    return path


def _container_body(path: Union[str, Path], raw: bytes) -> bytes:
    """Verify the container header of ``raw`` and return the body bytes.

    Headerless (pre-container) files are returned unchanged — their first
    byte can never equal the container magic's first byte.
    """
    if len(raw) < 1 or raw[0] != (SNAPSHOT_MAGIC & 0xFF):
        return raw
    if len(raw) < _CONTAINER_HEADER.size:
        raise SnapshotCorruptError(f"{path}: truncated snapshot container "
                                   f"header ({len(raw)} bytes)")
    magic, crc, length = _CONTAINER_HEADER.unpack_from(raw, 0)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotCorruptError(f"{path}: bad snapshot container magic "
                                   f"0x{magic:08x}")
    body = raw[_CONTAINER_HEADER.size:]
    if len(body) != length:
        raise SnapshotCorruptError(
            f"{path}: snapshot body is {len(body)} bytes but the container "
            f"announces {length}")
    actual = zlib.crc32(body)
    if actual != crc:
        raise SnapshotCorruptError(
            f"{path}: snapshot checksum mismatch (header 0x{crc:08x}, "
            f"body 0x{actual:08x})")
    return body


def read_snapshot(path: Union[str, Path]) -> Dict[str, object]:
    """Read one snapshot payload written by :func:`write_snapshot`.

    The container checksum is verified first; the body encoding is then
    sniffed from its first byte, so JSON and binary snapshots — and
    headerless legacy files — restore through the same entry point.  Every
    integrity failure raises :class:`SnapshotCorruptError`.
    """
    raw = Path(path).read_bytes()
    body = _container_body(path, raw)
    try:
        if is_binary_payload(body):
            payload = unpack_state(body)
        else:
            payload = json.loads(body)
    except ValueError as exc:
        raise SnapshotCorruptError(f"{path}: unparseable snapshot body: "
                                   f"{exc}") from exc
    if not isinstance(payload, dict):
        raise SnapshotCorruptError(f"{path}: snapshot payload must be an "
                                   f"object")
    return payload


class SnapshotStore:
    """A directory of numbered snapshots with bounded history.

    ``save`` writes ``snapshot-000001.bin`` (the binary container)
    atomically and deletes everything older than the newest ``keep``
    files; ``latest`` / ``load_latest`` pick the highest sequence number
    across the ``.bin`` and older ``.json`` files, which — thanks to the
    atomic writes — is always a complete payload.
    ``latest_valid`` additionally verifies checksums, walking past corrupt
    files to the newest restorable one.
    """

    def __init__(self, directory: Union[str, Path], keep: int = 3) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)

    def _numbered(self) -> List[Path]:
        """Existing snapshot files, oldest first."""
        entries = []
        for path in self.directory.iterdir():
            match = _SNAPSHOT_NAME.match(path.name)
            if match:
                entries.append((int(match.group(1)), path))
        return [path for _, path in sorted(entries)]

    def save(self, payload: Payload) -> Path:
        """Write the next numbered snapshot (a payload, or its packed
        binary body) and prune old history."""
        existing = self._numbered()
        next_seq = 1
        if existing:
            next_seq = int(_SNAPSHOT_NAME.match(existing[-1].name).group(1)) + 1
        path = write_snapshot(self.directory / f"snapshot-{next_seq:06d}.bin",
                              payload, "binary")
        for stale in self._numbered()[:-self.keep]:
            stale.unlink(missing_ok=True)
        return path

    def latest(self) -> Optional[Path]:
        """Path of the newest snapshot, or ``None`` when the store is empty."""
        existing = self._numbered()
        return existing[-1] if existing else None

    def latest_valid(self) -> Optional[Path]:
        """Path of the newest snapshot that passes its integrity check.

        Corrupt or unreadable files are skipped (newest → oldest), so one
        damaged checkpoint degrades recovery to the previous restore point
        instead of poisoning it; returns ``None`` when no file is valid.
        """
        for path in reversed(self._numbered()):
            try:
                read_snapshot(path)
            except (OSError, ValueError):
                continue
            return path
        return None

    def load_latest(self) -> Optional[Dict[str, object]]:
        """Payload of the newest snapshot, or ``None`` when the store is empty."""
        path = self.latest()
        return read_snapshot(path) if path is not None else None

    def load_latest_valid(self) -> Optional[Tuple[Path, Dict[str, object]]]:
        """``(path, payload)`` of the newest valid snapshot, or ``None``."""
        path = self.latest_valid()
        return (path, read_snapshot(path)) if path is not None else None
