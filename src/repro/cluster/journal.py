"""Crash-safe CRC32-framed record logs for the cluster tier.

Two journals keep the router's elastic-membership machinery recoverable
(``docs/wire-protocol.md`` §6.3):

* **Frame journals** (:class:`FrameJournal`) — one per shard link — hold
  every forwarded ``reports`` frame between snapshot barriers and, when
  the router has a journal directory, mirror them to disk, so a *router*
  restart can replay exactly what an in-process recovery would have
  replayed from memory.
* The **membership journal** (:class:`MembershipJournal`) records every
  step of an add/drain/rolling-restart transition as a JSON entry, so a
  SIGKILL at any point leaves enough on disk to resume or roll back to a
  consistent shard map.

Both share one record framing (all fields little-endian)::

    record := length (u32) | crc32 (u32) | payload

where ``crc32`` is the CRC-32 of ``payload`` (:func:`zlib.crc32`) and
``length`` its size in bytes.  Replay scans records in order and stops at
the first record whose header is incomplete, whose payload is short, or
whose checksum fails — the classic write-ahead-log rule: **a torn tail is
truncated, never parsed**.  Truncation is safe here because every journal
consumer is idempotent one level up (frame replay dedups on §7.1 delivery
sequence numbers and clients resend from the absorbed count; membership
recovery treats the persisted shard map as the commit point), so dropping
a half-written suffix converges to the same exact state.  Corruption
*behind* the valid prefix is indistinguishable from a torn tail mid-scan
and is handled the same way: everything from the first bad record on is
discarded (pinned corpus cases under ``tests/data/journal_corpus/``).

Frame-journal entries wrap the forwarded frame payload in a fixed prefix::

    entry := num_reports (u32) | seq (u64) | frame payload

so replay can restore the router's per-link report accounting and its
delivery-sequence watermark without re-parsing frame bytes.  A snapshot
barrier truncates the journal and writes one empty *barrier* entry
(``num_reports=0``, the watermark ``seq``, no frame payload) so the next
router to open the file resumes stamping above every sequence number the
shard has already seen.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.server.snapshot import fsync_directory

__all__ = ["FrameJournal", "JournalError", "MembershipJournal", "RecordLog",
           "frame_entry", "scan_records"]

#: record framing: payload length (u32) | payload crc32 (u32), little-endian
_RECORD_HEADER = struct.Struct("<II")
#: frame-journal entry prefix: num_reports (u32) | seq (u64), little-endian
_ENTRY_FIXED = struct.Struct("<IQ")

#: refuse absurd announced lengths outright — a scribbled header must not
#: make replay try to allocate gigabytes before the checksum check
_MAX_RECORD_BYTES = 1 << 30


class JournalError(ValueError):
    """A journal entry that decoded but is semantically invalid (bad entry
    prefix, non-object membership entry).  Torn or checksum-failing tails
    are *not* errors — they are truncated silently by design."""


def scan_records(raw: bytes) -> Tuple[List[bytes], int]:
    """Parse CRC-framed records out of ``raw``.

    Returns ``(payloads, valid_length)`` where ``valid_length`` is the byte
    offset of the end of the last intact record.  Scanning stops — without
    raising — at the first torn header, short payload, or CRC mismatch.
    """
    payloads: List[bytes] = []
    offset = 0
    while offset + _RECORD_HEADER.size <= len(raw):
        length, crc = _RECORD_HEADER.unpack_from(raw, offset)
        start = offset + _RECORD_HEADER.size
        if length > _MAX_RECORD_BYTES or start + length > len(raw):
            break
        payload = raw[start:start + length]
        if zlib.crc32(payload) != crc:
            break
        payloads.append(payload)
        offset = start + length
    return payloads, offset


def frame_entry(payload: bytes, where: object = "frame journal"
                ) -> Tuple[int, int, bytes]:
    """``(num_reports, seq, frame)`` of one frame-journal record payload;
    ``frame`` is empty for a barrier entry."""
    if len(payload) < _ENTRY_FIXED.size:
        raise JournalError(f"{where}: frame-journal entry of {len(payload)} "
                           f"bytes is shorter than its fixed prefix")
    num_reports, seq = _ENTRY_FIXED.unpack_from(payload, 0)
    return int(num_reports), int(seq), payload[_ENTRY_FIXED.size:]


class RecordLog:
    """An append-only file of CRC32-framed records with torn-tail recovery.

    ``load`` truncates the file to its valid prefix when it finds a torn
    or corrupt tail, so one crashed append (or a scribbled sector) costs
    the suffix of the log, never the log itself.  Appends are flushed and
    optionally fsynced; creating the file also fsyncs the directory entry
    so the journal name itself survives power loss.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._handle = None

    def _open(self):
        if self._handle is None:
            existed = self.path.exists()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
            if not existed:
                fsync_directory(self.path.parent)
        return self._handle

    def append(self, payload: bytes) -> None:
        """Append one framed record (flush + fsync per the configuration)."""
        handle = self._open()
        handle.write(_RECORD_HEADER.pack(len(payload), zlib.crc32(payload)))
        handle.write(payload)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def load(self) -> List[bytes]:
        """Replay every intact record; truncate a torn/corrupt tail in place."""
        self.close()
        if not self.path.exists():
            return []
        raw = self.path.read_bytes()
        payloads, valid = scan_records(raw)
        if valid < len(raw):
            with open(self.path, "r+b") as handle:
                handle.truncate(valid)
                handle.flush()
                os.fsync(handle.fileno())
        return payloads

    def clear(self) -> None:
        """Drop every record (a checkpoint barrier passed)."""
        handle = self._open()
        handle.truncate(0)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def delete(self) -> None:
        """Close and remove the journal file (the owner was reaped)."""
        self.close()
        self.path.unlink(missing_ok=True)


class FrameJournal:
    """One shard link's replay journal.

    It holds the ``(payload, num_reports)`` frames forwarded since the
    shard's last acknowledged snapshot barrier, in order, and their report
    total.  Given a ``path``, it mirrors every append and barrier to a
    CRC32-framed file, so a *router* restart replays the same frames an
    in-process recovery would have; without one it lives in memory only.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None,
                 fsync: bool = True) -> None:
        self._log = RecordLog(path, fsync=fsync) if path is not None else None
        #: stamped frame payloads and their report counts, oldest first
        self.frames: List[Tuple[bytes, int]] = []
        #: reports held in :attr:`frames`
        self.num_reports = 0

    @property
    def path(self) -> Optional[Path]:
        return self._log.path if self._log is not None else None

    def append(self, frame: bytes, num_reports: int, seq: int) -> None:
        self.frames.append((frame, num_reports))
        self.num_reports += num_reports
        if self._log is not None:
            self._log.append(_ENTRY_FIXED.pack(int(num_reports), int(seq))
                             + frame)

    def load(self) -> Tuple[List[Tuple[bytes, int]], int]:
        """Replay the file into memory: ``([(frame, num_reports), ...],
        max_seq)``.

        Barrier entries (empty frame payload) contribute only their
        sequence watermark.  ``max_seq`` is 0 for an empty journal; a
        journal without a path has no file and keeps its frames.
        """
        if self._log is None:
            return list(self.frames), 0
        entries: List[Tuple[bytes, int]] = []
        max_seq = 0
        for payload in self._log.load():
            num_reports, seq, frame = frame_entry(payload, self.path)
            max_seq = max(max_seq, seq)
            if frame:
                entries.append((frame, num_reports))
        self.frames = list(entries)
        self.num_reports = sum(n for _, n in entries)
        return entries, max_seq

    def barrier(self, seq: int) -> None:
        """Checkpoint: drop the frames, keep the sequence watermark on disk."""
        self.frames.clear()
        self.num_reports = 0
        if self._log is not None:
            self._log.clear()
            self._log.append(_ENTRY_FIXED.pack(0, int(seq)))

    def close(self) -> None:
        if self._log is not None:
            self._log.close()

    def delete(self) -> None:
        if self._log is not None:
            self._log.delete()


class MembershipJournal:
    """Append-only JSON log of membership state-machine transitions."""

    def __init__(self, path: Union[str, Path], fsync: bool = True) -> None:
        self._log = RecordLog(path, fsync=fsync)

    @property
    def path(self) -> Path:
        return self._log.path

    def append(self, entry: Dict[str, object]) -> None:
        payload = json.dumps(entry, separators=(",", ":"), sort_keys=True)
        self._log.append(payload.encode("utf-8"))

    def entries(self) -> List[Dict[str, object]]:
        out: List[Dict[str, object]] = []
        for payload in self._log.load():
            try:
                entry = json.loads(payload)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise JournalError(f"{self.path}: invalid membership entry: "
                                   f"{exc}") from exc
            if not isinstance(entry, dict):
                raise JournalError(f"{self.path}: membership entry must be "
                                   f"an object, got {type(entry).__name__}")
            out.append(entry)
        return out

    def last(self, **match: object) -> Optional[Dict[str, object]]:
        """Newest entry whose fields equal every ``match`` item, or ``None``."""
        for entry in reversed(self.entries()):
            if all(entry.get(key) == value for key, value in match.items()):
                return entry
        return None

    def close(self) -> None:
        self._log.close()
