"""Tests for the crash-safe CRC32-framed journals (:mod:`repro.cluster.journal`).

The contract under test is the write-ahead-log recovery rule the elastic
cluster tier stands on (``docs/wire-protocol.md`` §6.3): replay parses
records in order and **truncates at the first torn header, short payload,
or checksum mismatch — without raising** — because every journal consumer
is idempotent one level up.  Damage shapes are pinned as a committed
corpus under ``tests/data/journal_corpus/`` (torn tails, flipped bytes,
scribbled lengths, duplicated tail records) so recovery behavior can
never drift silently; the unit tests cover the three journal layers built
on that framing: :class:`RecordLog`, :class:`FrameJournal`, and
:class:`MembershipJournal`.
"""

import base64
import json
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.cluster.journal import (
    FrameJournal,
    JournalError,
    MembershipJournal,
    RecordLog,
    scan_records,
)

CORPUS_DIR = Path(__file__).parent / "data" / "journal_corpus"
CORPUS = json.loads((CORPUS_DIR / "corpus.json").read_text())
CASES = CORPUS["cases"]
CASE_IDS = [case["name"] for case in CASES]

_HEADER = struct.Struct("<II")


def _record(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


# --------------------------------------------------------------------------------------
# the pinned recovery corpus
# --------------------------------------------------------------------------------------

@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_corpus_scan_verdict(case):
    """Every corpus image replays exactly its pinned payload prefix."""
    raw = base64.b64decode(case["raw_b64"])
    payloads, valid = scan_records(raw)
    assert payloads == [base64.b64decode(p) for p in case["payloads_b64"]]
    assert valid == case["valid_length"]


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_corpus_load_truncates_in_place(case, tmp_path):
    """RecordLog.load on a damaged file truncates it to the valid prefix —
    after which a reload (and any append) sees a clean journal."""
    raw = base64.b64decode(case["raw_b64"])
    path = tmp_path / "journal.bin"
    path.write_bytes(raw)
    log = RecordLog(path, fsync=False)
    expected = [base64.b64decode(p) for p in case["payloads_b64"]]
    assert log.load() == expected
    assert path.stat().st_size == case["valid_length"]
    log.append(b"appended-after-recovery")
    assert log.load() == expected + [b"appended-after-recovery"]
    log.close()


def test_corpus_covers_every_damage_family():
    notes = {case["name"] for case in CASES}
    assert {"clean", "torn-header", "torn-payload", "flipped-payload-byte",
            "duplicated-tail-record", "scribbled-huge-length"} <= notes


@pytest.mark.slow
def test_generator_reproduces_committed_corpus(tmp_path):
    """The committed corpus and its generator may never drift apart."""
    script = CORPUS_DIR / "generate.py"
    copied = tmp_path / "generate.py"
    copied.write_text(script.read_text().replace(
        'OUT = Path(__file__).parent / "corpus.json"',
        f'OUT = Path({str(tmp_path / "corpus.json")!r})'))
    subprocess.run([sys.executable, str(copied)], check=True,
                   cwd=str(CORPUS_DIR.parents[2]))
    regenerated = (tmp_path / "corpus.json").read_bytes()
    assert regenerated == (CORPUS_DIR / "corpus.json").read_bytes()


# --------------------------------------------------------------------------------------
# RecordLog: the shared CRC framing
# --------------------------------------------------------------------------------------

class TestRecordLog:
    def test_append_load_round_trip(self, tmp_path):
        log = RecordLog(tmp_path / "log.bin")
        payloads = [b"first", b"", b"\x00" * 64, b"last"]
        for payload in payloads:
            log.append(payload)
        assert log.load() == payloads
        # load() closes the handle; appending afterwards reopens cleanly
        log.append(b"tail")
        assert log.load() == payloads + [b"tail"]
        log.close()

    def test_missing_file_loads_empty(self, tmp_path):
        assert RecordLog(tmp_path / "absent.bin").load() == []

    def test_clear_drops_everything(self, tmp_path):
        log = RecordLog(tmp_path / "log.bin", fsync=False)
        log.append(b"one")
        log.append(b"two")
        log.clear()
        assert log.load() == []
        assert (tmp_path / "log.bin").stat().st_size == 0
        log.close()

    def test_delete_removes_the_file(self, tmp_path):
        log = RecordLog(tmp_path / "log.bin", fsync=False)
        log.append(b"one")
        log.delete()
        assert not (tmp_path / "log.bin").exists()
        log.delete()  # idempotent

    def test_creates_parent_directories(self, tmp_path):
        log = RecordLog(tmp_path / "deep" / "nested" / "log.bin", fsync=False)
        log.append(b"payload")
        assert log.load() == [b"payload"]
        log.close()

    def test_on_disk_layout_is_the_documented_framing(self, tmp_path):
        log = RecordLog(tmp_path / "log.bin", fsync=False)
        log.append(b"abc")
        log.close()
        raw = (tmp_path / "log.bin").read_bytes()
        assert raw == _HEADER.pack(3, zlib.crc32(b"abc")) + b"abc"

    def test_scan_stops_at_corruption_not_just_tail(self):
        """Damage *behind* a valid suffix still discards the suffix — replay
        must be a prefix, never a subsequence with holes."""
        raw = _record(b"a") + _record(b"b") + _record(b"c")
        mutated = bytearray(raw)
        mutated[len(_record(b"a")) + _HEADER.size] ^= 0x01  # corrupt "b"
        payloads, valid = scan_records(bytes(mutated))
        assert payloads == [b"a"]
        assert valid == len(_record(b"a"))


# --------------------------------------------------------------------------------------
# FrameJournal: the per-shard-link replay mirror
# --------------------------------------------------------------------------------------

class TestFrameJournal:
    def test_round_trip_and_watermark(self, tmp_path):
        journal = FrameJournal(tmp_path / "frames.bin", fsync=False)
        journal.append(b"frame-one", num_reports=100, seq=3)
        journal.append(b"frame-two", num_reports=50, seq=9)
        entries, max_seq = journal.load()
        assert entries == [(b"frame-one", 100), (b"frame-two", 50)]
        assert max_seq == 9
        journal.close()

    def test_barrier_keeps_only_the_watermark(self, tmp_path):
        journal = FrameJournal(tmp_path / "frames.bin", fsync=False)
        journal.append(b"frame", num_reports=10, seq=4)
        journal.barrier(seq=7)
        entries, max_seq = journal.load()
        assert entries == []  # the barrier entry carries no frame bytes
        assert max_seq == 7   # but the next router resumes stamping above 7
        journal.append(b"later", num_reports=5, seq=8)
        entries, max_seq = journal.load()
        assert entries == [(b"later", 5)]
        assert max_seq == 8
        journal.close()

    def test_memory_only_journal(self, tmp_path):
        # without a path the journal holds the frames in memory only
        journal = FrameJournal()
        assert journal.path is None
        journal.append(b"frame-one", num_reports=100, seq=1)
        journal.append(b"frame-two", num_reports=50, seq=2)
        assert journal.frames == [(b"frame-one", 100), (b"frame-two", 50)]
        assert journal.num_reports == 150
        journal.barrier(seq=2)
        assert (journal.frames, journal.num_reports) == ([], 0)
        journal.append(b"later", num_reports=5, seq=3)
        assert journal.frames == [(b"later", 5)]
        assert journal.num_reports == 5
        journal.close()
        journal.delete()
        assert list(tmp_path.iterdir()) == []

    def test_load_fills_the_memory_journal(self, tmp_path):
        journal = FrameJournal(tmp_path / "frames.bin", fsync=False)
        journal.append(b"old", num_reports=7, seq=1)
        journal.barrier(seq=1)
        journal.append(b"kept", num_reports=3, seq=2)
        journal.close()
        reopened = FrameJournal(tmp_path / "frames.bin", fsync=False)
        assert reopened.load() == ([(b"kept", 3)], 2)
        assert reopened.frames == [(b"kept", 3)]
        assert reopened.num_reports == 3
        reopened.close()

    def test_empty_journal_watermark_is_zero(self, tmp_path):
        assert FrameJournal(tmp_path / "frames.bin").load() == ([], 0)

    def test_short_entry_is_a_typed_error(self, tmp_path):
        # a record that passes its CRC but cannot hold the fixed prefix is
        # semantic corruption, not a torn tail: it must be loud
        RecordLog(tmp_path / "frames.bin", fsync=False).append(b"abc")
        journal = FrameJournal(tmp_path / "frames.bin")
        with pytest.raises(JournalError, match="fixed prefix"):
            journal.load()
        journal.close()

    def test_torn_tail_loses_the_tail_frame_only(self, tmp_path):
        path = tmp_path / "frames.bin"
        journal = FrameJournal(path, fsync=False)
        journal.append(b"kept", num_reports=1, seq=1)
        journal.append(b"torn", num_reports=2, seq=2)
        journal.close()
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 3)
        entries, max_seq = journal.load()
        assert entries == [(b"kept", 1)]
        assert max_seq == 1
        journal.close()


# --------------------------------------------------------------------------------------
# MembershipJournal: the transition audit log
# --------------------------------------------------------------------------------------

class TestMembershipJournal:
    def test_round_trip_and_last(self, tmp_path):
        journal = MembershipJournal(tmp_path / "membership.bin", fsync=False)
        steps = [
            {"op": "add", "shard": 2, "step": "spawned"},
            {"op": "add", "shard": 2, "step": "map-committed"},
            {"op": "drain", "shard": 0, "step": "handoff", "target": 1},
        ]
        for step in steps:
            journal.append(step)
        assert journal.entries() == steps
        assert journal.last() == steps[-1]
        assert journal.last(op="add") == steps[1]
        assert journal.last(op="add", step="spawned") == steps[0]
        assert journal.last(op="drain", shard=0, target=1) == steps[2]
        assert journal.last(op="drain", shard=1) is None
        assert journal.last(op="rolling-restart") is None
        journal.close()

    def test_empty_journal(self, tmp_path):
        journal = MembershipJournal(tmp_path / "membership.bin")
        assert journal.entries() == []
        assert journal.last() is None

    def test_non_json_record_is_a_typed_error(self, tmp_path):
        RecordLog(tmp_path / "membership.bin",
                  fsync=False).append(b"\xff not json")
        with pytest.raises(JournalError, match="invalid membership entry"):
            MembershipJournal(tmp_path / "membership.bin").entries()

    def test_non_object_record_is_a_typed_error(self, tmp_path):
        RecordLog(tmp_path / "membership.bin", fsync=False).append(b"[1,2]")
        with pytest.raises(JournalError, match="must be an object"):
            MembershipJournal(tmp_path / "membership.bin").entries()

    def test_torn_tail_drops_the_unfinished_transition_step(self, tmp_path):
        path = tmp_path / "membership.bin"
        journal = MembershipJournal(path, fsync=False)
        journal.append({"op": "add", "step": "spawned"})
        journal.append({"op": "add", "step": "map-committed"})
        journal.close()
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 5)
        assert journal.entries() == [{"op": "add", "step": "spawned"}]
        journal.close()
