"""Equivalence of the binary columnar wire codec with the in-memory batch.

The contract under test (``docs/wire-protocol.md`` §3.1 and §8): for every
registered protocol, a batch sent as a binary frame decodes to the same
reports, absorbs to the same exact integer state, and finalizes to the
same estimates as the in-memory batch it was encoded from — bit for bit.
Also covered: byte-level binary round trips, the oversized-frame error path on
both the write and the read side, truncated/corrupted-frame fuzzing, the
binary snapshot container, kind-2 state frames (their reply fields keep
their JSON types; malformed ones fail as ``FrameError``), and the engine's
binary worker-result channel.
"""

import io
import struct

import numpy as np
import pytest

from protocol_cases import protocol_cases
from repro.engine import run_simulation
from repro.protocol import (
    CountMeanSketchParams,
    ExplicitHistogramParams,
    HashtogramParams,
    ReportBatch,
    ServerAggregator,
)
from repro.protocol.binary import (
    BINARY_MAGIC,
    BinaryFormatError,
    check_reports_payload,
    decode_reports_payload,
    describe_payload,
    encode_reports_payload,
    fold_state,
    fold_states,
    is_binary_payload,
    pack_state,
    stamp_sequence,
    unpack_state,
)
from repro.server import (
    FrameError,
    SnapshotStore,
    WindowedAggregator,
    encode_reports_frame,
    read_frame_sync,
)
from repro.protocol.wire import _PROTOCOL_REGISTRY, load_child_state
from repro.server.framing import decode_frame, encode_state_frame
from repro.server.service import state_reply
from repro.server.snapshot import (
    SNAPSHOT_MAGIC,
    read_snapshot,
    write_snapshot,
)

DOMAIN = 1 << 12


#: every registered protocol, plus the explicit oracle's other randomizers
CASES = [("explicit/hadamard" if name == "explicit" else name, params)
         for name, params in protocol_cases()] + [
    ("explicit/oue", ExplicitHistogramParams(64, 1.0, "oue")),
    ("explicit/krr", ExplicitHistogramParams(64, 1.0, "krr")),
]
CASE_IDS = [name for name, _ in CASES]


def _batch(params, n=1_500):
    values = np.random.default_rng(7).integers(0, params.domain_size, size=n)
    values[: n // 4] = params.domain_size // 3  # a planted heavy hitter
    return params.make_encoder().encode_batch(values, np.random.default_rng(9))


class TestCrossFormatMatrix:
    """binary frame == in-memory batch, end to end."""

    @pytest.mark.parametrize("name,params", CASES, ids=CASE_IDS)
    def test_all_formats_round_trip_and_absorb_identically(self, name, params):
        batch = _batch(params)
        decoded = decode_reports_payload(encode_reports_payload(batch))[1]
        assert decoded.protocol == batch.protocol
        assert set(decoded.columns) == set(batch.columns)
        for key, col in batch.columns.items():
            assert np.array_equal(decoded.columns[key], col), key
        # identical exact integer state from the wire and from memory
        assert (params.make_aggregator().absorb_batch(decoded).snapshot()
                == params.make_aggregator().absorb_batch(batch).snapshot())

    @pytest.mark.parametrize("name,params", CASES, ids=CASE_IDS)
    def test_binary_round_trip_is_byte_identical(self, name, params):
        batch = _batch(params, n=600)
        payload = encode_reports_payload(batch, epoch=42)
        assert is_binary_payload(payload)
        epoch, decoded = decode_reports_payload(payload)
        assert epoch == 42
        for col in decoded.columns.values():
            assert not col.flags.writeable  # zero-copy read-only views
        # the narrowing rule depends only on values: re-encoding the decoded
        # batch must reproduce the wire bytes exactly
        assert encode_reports_payload(decoded, epoch=42) == payload

    def test_finalized_estimates_identical(self):
        params = HashtogramParams.create(DOMAIN, 1.0, num_buckets=16, rng=0)
        batch = _batch(params)
        queries = np.arange(256)
        in_memory = params.make_aggregator().absorb_batch(
            batch).finalize().estimate_many(queries)
        via_binary = params.make_aggregator().absorb_batch(
            decode_reports_payload(encode_reports_payload(batch))[1]
        ).finalize().estimate_many(queries)
        assert np.array_equal(in_memory, via_binary)

    def test_empty_batch_round_trips(self):
        params = ExplicitHistogramParams(64, 1.0, "krr")
        batch = params.make_encoder().encode_batch(
            np.asarray([], dtype=np.int64), np.random.default_rng(0))
        epoch, decoded = decode_reports_payload(encode_reports_payload(batch))
        assert len(decoded) == 0
        assert set(decoded.columns) == set(batch.columns)


#: columns a server could derive from the user index (the coordinate or
#: group, and the round-robin repetition): shipped, but outside report_bits
INDEX_KEYED = ("coordinate", "group", "repetition", "fin_repetition")


class TestPackedWire:
    """Report columns ship at their value widths (§8.2): a frame carries
    ``report_bits`` per report, plus its index-keyed columns and its table."""

    N = 4096

    def test_cases_cover_every_registered_protocol(self):
        assert {params.protocol for _, params in CASES} == \
            set(_PROTOCOL_REGISTRY)

    @pytest.mark.parametrize("name,params", CASES, ids=CASE_IDS)
    def test_frame_carries_at_most_report_bits(self, name, params):
        batch = _batch(params, n=self.N)
        payload = encode_reports_payload(batch)
        _, columns = describe_payload(payload)
        assert all(column["code"] in ("s1", f"p{column['bits']}")
                   for column in columns), columns
        index_bits = sum(column["bits"] for column in columns
                         if column["name"] in INDEX_KEYED)
        table = 4 + 20 + len(batch.protocol) + sum(
            2 + len(column["name"]) + 1 + len(column["code"]) + 1
            + 8 * len(column["shape"]) + 16 for column in columns)
        # each blob rounds up to a whole byte and pads to 8-byte alignment
        overhead = table + 8 * len(columns)
        assert 8 * len(payload) <= \
            self.N * (params.report_bits + index_bits) + 8 * overhead

    @pytest.mark.parametrize("name,params", CASES, ids=CASE_IDS)
    def test_decode_reencodes_and_absorbs_identically(self, name, params):
        batch = _batch(params, n=self.N)
        payload = encode_reports_payload(batch, epoch=5, route=3, seq=8)
        assert check_reports_payload(payload) == \
            decode_reports_payload(payload, header=True)[0]
        epoch, decoded = decode_reports_payload(payload)
        assert epoch == 5
        assert encode_reports_payload(decoded, epoch=5, route=3,
                                      seq=8) == payload
        wire = params.make_aggregator().absorb_batch(decoded)
        memory = params.make_aggregator().absorb_batch(batch)
        assert wire.num_reports == memory.num_reports == self.N
        assert np.array_equal(wire.counts, memory.counts)


class TestSequencedFrames:
    """The §8.1 delivery-sequence field and the router's stamping primitive."""

    def _params(self):
        return HashtogramParams.create(DOMAIN, 1.0, num_buckets=16, rng=0)

    def test_stamp_unrouted_matches_direct_encode(self):
        batch = _batch(self._params(), n=400)
        plain = encode_reports_payload(batch, epoch=3)
        stamped = stamp_sequence(plain, 17)
        assert stamped == encode_reports_payload(batch, epoch=3, seq=17)
        header = check_reports_payload(stamped)
        assert header["seq"] == 17
        assert header["route"] is None
        # the stamped frame still decodes to the identical batch
        epoch, decoded = decode_reports_payload(stamped)
        assert epoch == 3
        for key, col in batch.columns.items():
            assert np.array_equal(decoded.columns[key], col)

    def test_stamp_routed_matches_direct_encode(self):
        batch = _batch(self._params(), n=400)
        plain = encode_reports_payload(batch, epoch=1, route=-9)
        stamped = stamp_sequence(plain, 2**63)
        assert stamped == encode_reports_payload(batch, epoch=1, route=-9,
                                                 seq=2**63)
        header = check_reports_payload(stamped)
        assert header == {"epoch": 1, "route": -9, "seq": 2**63,
                          "num_reports": 400, "protocol": "hashtogram"}

    def test_restamp_overwrites_in_place(self):
        batch = _batch(self._params(), n=200)
        once = stamp_sequence(encode_reports_payload(batch), 5)
        twice = stamp_sequence(once, 6)
        assert len(twice) == len(once)
        assert twice == encode_reports_payload(batch, seq=6)

    def test_unsequenced_frames_peek_none(self):
        payload = encode_reports_payload(_batch(self._params(), n=50))
        assert check_reports_payload(payload)["seq"] is None

    def test_seq_out_of_u64_range_rejected(self):
        payload = encode_reports_payload(_batch(self._params(), n=50))
        with pytest.raises(BinaryFormatError):
            stamp_sequence(payload, -1)
        with pytest.raises(BinaryFormatError):
            stamp_sequence(payload, 1 << 64)

    def test_undefined_flag_bit_rejected(self):
        payload = bytearray(
            encode_reports_payload(_batch(self._params(), n=50)))
        payload[3] |= 0x04  # first flag bit outside ROUTED|SEQUENCED
        with pytest.raises(BinaryFormatError):
            decode_reports_payload(bytes(payload))


class TestBinaryErrorPaths:
    def _payload(self):
        params = ExplicitHistogramParams(256, 1.0, "hadamard")
        return encode_reports_payload(_batch(params, n=200), epoch=1)

    def test_write_side_oversize_rejected_before_serialization(self):
        params = ExplicitHistogramParams(256, 1.0, "hadamard")
        batch = _batch(params, n=5_000)
        with pytest.raises(BinaryFormatError, match="exceeds the 64-byte"):
            encode_reports_payload(batch, max_bytes=64)
        # the framing layer maps the announced-size violation to FrameError
        import repro.server.framing as framing
        original = framing.MAX_FRAME_BYTES
        framing.MAX_FRAME_BYTES = 64
        try:
            with pytest.raises(FrameError, match="limit"):
                encode_reports_frame(batch)
        finally:
            framing.MAX_FRAME_BYTES = original

    def test_read_side_oversize_announcement_rejected(self):
        stream = io.BytesIO(struct.pack("!I", (1 << 30) + 1)
                            + bytes([BINARY_MAGIC]))
        with pytest.raises(FrameError, match="limit"):
            read_frame_sync(stream)

    def test_truncation_always_fails_loudly(self):
        payload = self._payload()
        for cut in list(range(0, 64)) + [len(payload) // 2, len(payload) - 1]:
            with pytest.raises(BinaryFormatError):
                decode_reports_payload(payload[:cut])

    def test_header_corruption_fuzz(self):
        # Flip every byte of the structural prefix (header + column table):
        # the decoder must either raise BinaryFormatError or still produce a
        # well-formed batch (a flipped shape byte that happens to stay
        # consistent) — never crash with anything else.
        payload = bytearray(self._payload())
        rng = np.random.default_rng(0)
        for pos in range(min(len(payload), 120)):
            for flip in (0xFF, rng.integers(1, 256)):
                corrupted = bytearray(payload)
                corrupted[pos] ^= int(flip)
                try:
                    _, batch = decode_reports_payload(bytes(corrupted))
                except (BinaryFormatError, FrameError):
                    continue
                assert isinstance(batch, ReportBatch)

    def test_frame_layer_wraps_binary_errors(self):
        payload = self._payload()
        frame = struct.pack("!I", len(payload) - 3) + payload[:-3]
        with pytest.raises(FrameError, match="invalid binary frame"):
            read_frame_sync(io.BytesIO(frame))

    def _row(self, domain=256):
        """A Hadamard payload and its packed ``row`` column's table entry
        (name_len, name, code_len, code)."""
        params = ExplicitHistogramParams(domain, 1.0, "hadamard")
        payload = encode_reports_payload(_batch(params, n=200), epoch=1)
        code = f"p{(2 * domain - 1).bit_length()}".encode("ascii")
        return payload, b"\x03\x00row" + bytes([len(code)]) + code

    def test_packed_nbytes_mismatch_rejected(self):
        payload, entry = self._row()
        # nbytes follows the entry's ndim (u8), one u64 dim and its offset
        at = payload.index(entry) + len(entry) + 1 + 8 + 8
        (nbytes,) = struct.unpack_from("<Q", payload, at)
        assert nbytes == (200 * 9 + 7) // 8
        for wrong in (nbytes - 1, nbytes + 1, 200):
            corrupted = bytearray(payload)
            struct.pack_into("<Q", corrupted, at, wrong)
            with pytest.raises(BinaryFormatError, match="do not match"):
                decode_reports_payload(bytes(corrupted))
            with pytest.raises(BinaryFormatError, match="do not match"):
                check_reports_payload(bytes(corrupted))

    @pytest.mark.parametrize("domain,code", [
        (256, b"p0"), (1 << 10, b"p65"), (1 << 10, b"p99"),
        (1 << 10, b"p07"), (1 << 10, b"px1")])
    def test_packed_width_outside_1_to_64_rejected(self, domain, code):
        # a 256-item row packs as "p9", a 1024-item one as "p11"
        payload, entry = self._row(domain)
        corrupted = payload.replace(entry, entry[:-len(code)] + code)
        assert corrupted != payload
        with pytest.raises(BinaryFormatError, match="packed bit width"):
            decode_reports_payload(corrupted)
        with pytest.raises(BinaryFormatError, match="packed bit width"):
            check_reports_payload(corrupted)

    def test_truncated_packed_blob_rejected(self):
        payload, _ = self._row()
        for cut in (1, 8, 20):
            with pytest.raises(BinaryFormatError, match="past the frame"):
                decode_reports_payload(payload[:-cut])

    def test_packed_codes_rejected_in_state_frames(self):
        blob = bytes(pack_state({"type": "state", "c": np.arange(9)},
                                lists=False))
        with pytest.raises(BinaryFormatError, match="invalid column dtype"):
            unpack_state(blob.replace(b"\x03|u1", b"\x03p11"))

    def test_table_check_accepts_exactly_what_decodes(self):
        # the router's table-only gate against the shard's full decode,
        # over every single-byte corruption of a packed frame's table
        payload, _ = self._row()
        for pos in range(len(payload) - 64):
            for flip in (0x01, 0x80, 0xFF):
                corrupted = bytearray(payload)
                corrupted[pos] ^= flip
                corrupted = bytes(corrupted)
                try:
                    decode_reports_payload(corrupted)
                    decodes = True
                except BinaryFormatError:
                    decodes = False
                try:
                    check_reports_payload(corrupted)
                    checks = True
                except BinaryFormatError:
                    checks = False
                assert decodes == checks, (pos, flip)

    @pytest.mark.parametrize("dims", [
        (0, 1 << 63), (0, (1 << 63) - 1, 2), (0, 1 << 40, 1 << 40),
        (0,) + (1,) * 40])
    def test_zero_report_shape_beyond_numpy_rejected(self, dims):
        # a zero-report column carries no data to bound its other dims:
        # the table check must reject what numpy cannot reshape to
        payload = _zero_report_frame(dims)
        with pytest.raises(BinaryFormatError, match="beyond numpy"):
            check_reports_payload(payload)
        with pytest.raises(BinaryFormatError, match="beyond numpy"):
            decode_reports_payload(payload)

    def test_zero_report_shape_within_numpy_decodes(self):
        payload = _zero_report_frame((0, (1 << 62) - 1))  # a 2-byte dtype
        assert check_reports_payload(payload)["num_reports"] == 0
        assert decode_reports_payload(payload)[1].columns["c"].shape == \
            (0, (1 << 62) - 1)

    @pytest.mark.parametrize("code", [b"7)|", b"1$0"])
    def test_unparseable_dtype_code_rejected(self, code):
        # numpy raises SyntaxError / ValueError on these, not TypeError
        payload = _zero_report_frame((0, 2), code)
        with pytest.raises(BinaryFormatError, match="invalid column dtype"):
            check_reports_payload(payload)

    def test_declared_num_reports_must_match(self):
        payload = bytearray(self._payload())
        # num_reports is the i64 immediately after the 4-byte header + epoch
        struct.pack_into("<Q", payload, 4 + 8, 9999)
        with pytest.raises(BinaryFormatError, match="num_reports"):
            decode_reports_payload(bytes(payload))


def _zero_report_frame(dims, code=b"<u2"):
    """A hand-built zero-report payload: one column ``c`` of ``code`` with
    the announced ``dims`` and no data."""
    head = struct.pack("<BBBBqQHH", BINARY_MAGIC, 1, 1, 0, 0, 0, 1, 1) + b"x"
    table = (struct.pack("<H", 1) + b"c" + bytes([len(code)]) + code
             + bytes([len(dims)]) + b"".join(struct.pack("<Q", d)
                                             for d in dims))
    end = len(head) + len(table) + 16
    return head + table + struct.pack("<QQ", end, 0)


class TestStateContainer:
    def test_pack_state_round_trips_nested_payloads(self):
        payload = {"format": "x", "version": 1, "window": None,
                   "ratio": 0.25, "name": "abc", "flags": [True, False],
                   "state": {"accumulator": list(range(1000)),
                             "nested": [{"num_reports": 3,
                                         "state": {"ones": [[1, 2], [3, 4]]}}]}}
        restored = unpack_state(pack_state(payload))
        assert restored["format"] == "x" and restored["window"] is None
        assert restored["ratio"] == 0.25 and restored["flags"] == [True, False]
        acc = restored["state"]["accumulator"]
        assert isinstance(acc, np.ndarray) and acc.flags.writeable
        assert np.array_equal(acc, np.arange(1000))
        assert np.array_equal(restored["state"]["nested"][0]["state"]["ones"],
                              [[1, 2], [3, 4]])

    def test_uint64_range_values_survive_exactly(self):
        # ints in [2^63, 2^64) infer as uint64; forcing them through the
        # int64 column path would wrap silently, so they must stay in the
        # JSON skeleton and round-trip exactly.
        payload = {"big_list": [2**63, 2**64 - 1],
                   "big_array": np.asarray([2**63 + 5], dtype=np.uint64),
                   "small": [1, 2, 3]}
        restored = unpack_state(pack_state(payload))
        assert restored["big_list"] == [2**63, 2**64 - 1]
        assert restored["big_array"] == [2**63 + 5]
        assert np.array_equal(restored["small"], [1, 2, 3])

    def test_few_wide_entries_ship_as_a_patch(self):
        # a flat aggregator state: many small counters and a few report
        # counts, which must not widen the whole column to int64
        counts = np.random.default_rng(0).integers(-3, 4, size=1 << 16)
        counts[[0, 17, 40_000]] = [200_000, -70_000, 1 << 40]
        blob = pack_state({"counts": counts})
        assert len(blob) < 2 * counts.size  # int8 bulk plus a small patch
        restored = unpack_state(blob)["counts"]
        assert restored.dtype == np.int64 and restored.flags.writeable
        assert np.array_equal(restored, counts)
        assert pack_state({"counts": counts.tolist()}) == blob

    def test_patch_outside_its_column_rejected(self):
        counts = np.zeros(1 << 13, dtype=np.int64)
        counts[5] = 1 << 20
        blob = pack_state({"counts": counts})
        assert b'"__repro_patch__":[1,2]' in blob
        doctored = blob.replace(b'"__repro_patch__":[1,2]',
                                b'"__repro_patch__":[2,1]')
        with pytest.raises(BinaryFormatError, match="patch"):
            unpack_state(doctored)

    def test_reserved_column_key_rejected(self):
        with pytest.raises(ValueError, match="reserved key"):
            pack_state({"state": {"__repro_column__": 5}})

    @pytest.mark.parametrize("name,params", CASES, ids=CASE_IDS)
    def test_binary_snapshot_restores_bit_identically(self, name, params):
        aggregator = params.make_aggregator().absorb_batch(_batch(params))
        restored = ServerAggregator.from_snapshot(
            unpack_state(pack_state(aggregator.snapshot())))
        assert restored.num_reports == aggregator.num_reports
        assert restored.snapshot() == aggregator.snapshot()

    def test_snapshot_file_format_sniffing(self, tmp_path):
        params = HashtogramParams.create(DOMAIN, 1.0, num_buckets=16, rng=0)
        windowed = WindowedAggregator(params, window=4)
        windowed.absorb_batch(_batch(params), epoch=2)
        payload = windowed.snapshot()
        json_path = write_snapshot(tmp_path / "snap.json", payload, "json")
        bin_path = write_snapshot(tmp_path / "snap.bin", payload, "binary")
        # Both files wear the checksummed snapshot container; the *body* of
        # the binary one is a BINARY_MAGIC state container (that first byte
        # is what read_snapshot sniffs the encoding from).
        raw = (tmp_path / "snap.bin").read_bytes()
        assert raw[0] == SNAPSHOT_MAGIC & 0xFF
        assert raw[12] == BINARY_MAGIC
        queries = np.arange(128)
        expected = windowed.finalize().estimate_many(queries)
        for path in (json_path, bin_path):
            restored = WindowedAggregator.from_snapshot(read_snapshot(path))
            assert restored.window == 4 and restored.epochs == [2]
            assert np.array_equal(restored.finalize().estimate_many(queries),
                                  expected)

    def test_snapshot_store_binary_format(self, tmp_path):
        params = ExplicitHistogramParams(64, 1.0, "krr")
        windowed = WindowedAggregator(params)
        windowed.absorb_batch(_batch(params))
        store = SnapshotStore(tmp_path, keep=2)
        path = store.save(windowed.snapshot())
        assert path.name == "snapshot-000001.bin"
        restored = WindowedAggregator.from_snapshot(store.load_latest())
        assert restored.num_reports == windowed.num_reports
        # a .json file from an older store interleaves; latest() spans both
        write_snapshot(tmp_path / "snapshot-000002.json", windowed.snapshot())
        assert store.latest().name == "snapshot-000002.json"
        assert store.save(windowed.snapshot()).name == "snapshot-000003.bin"

    def test_binary_restore_then_absorb_more(self):
        params = HashtogramParams.create(DOMAIN, 1.0, num_buckets=16, rng=0)
        first, second = _batch(params), _batch(params, n=700)
        checkpointed = params.make_aggregator().absorb_batch(first)
        restored = ServerAggregator.from_snapshot(
            unpack_state(pack_state(checkpointed.snapshot())))
        restored.absorb_batch(second)  # restored state must be writable
        straight = params.make_aggregator().absorb_batch(first) \
                                           .absorb_batch(second)
        queries = np.arange(256)
        assert np.array_equal(restored.finalize().estimate_many(queries),
                              straight.finalize().estimate_many(queries))


def _state_message():
    """A ``state`` reply as a shard sends it: JSON-typed reply fields, the
    counts a long int64 array with a few wide entries (a patched column)."""
    counts = np.random.default_rng(4).integers(-3, 4, size=1 << 13)
    counts[[0, 9]] = [1 << 40, 70_000]
    return {"type": "state", "protocol": "hashtogram", "epochs": [3, 5, 8],
            "num_reports": 12, "window": None, "ratio": 0.5,
            "state": {"num_reports": 12, "state": {"counts": counts}}}


class TestStateFrames:
    """Kind-2 frames (``docs/wire-protocol.md`` §8.1): one ``pack_state``
    container whose skeleton is the whole message."""

    def test_reply_fields_keep_their_json_types(self):
        message = _state_message()
        frame = encode_state_frame(message)
        assert struct.unpack("!I", frame[:4])[0] == len(frame) - 4
        decoded = decode_frame(frame[4:])
        assert set(decoded) == set(message)
        # lists of ints stay lists of ints, as in a JSON frame
        assert decoded["epochs"] == [3, 5, 8]
        assert type(decoded["epochs"]) is list
        assert all(type(e) is int for e in decoded["epochs"])
        assert type(decoded["num_reports"]) is int
        assert decoded["window"] is None and decoded["ratio"] == 0.5
        assert type(decoded["state"]["num_reports"]) is int
        counts = decoded["state"]["state"]["counts"]
        assert counts.dtype == np.int64 and counts.flags.writeable
        assert np.array_equal(counts, message["state"]["state"]["counts"])

    def test_counts_ship_as_narrow_columns(self):
        message = _state_message()
        frame = encode_state_frame(message)
        # int8 bulk plus a patch: about a byte per cell, where JSON would
        # spend several and base64 of the packed bytes 4/3 of one
        assert len(frame) < 1.1 * message["state"]["state"]["counts"].size

    def test_snapshot_packing_still_extracts_int_lists(self):
        # snapshot files keep their bytes: pack_state's default still moves
        # int lists (a params dict's hash coefficients) into columns
        payload = {"coefficients": list(range(40))}
        assert b"__repro_column__" in pack_state(payload)
        assert b"__repro_column__" not in pack_state(payload, lists=False)

    def test_message_without_a_string_type_is_not_encoded(self):
        for message in ({"state": 1}, {"type": 3}):
            with pytest.raises(FrameError, match="type"):
                encode_state_frame(message)

    def test_truncation_always_fails_loudly(self):
        payload = encode_state_frame(_state_message())[4:]
        for cut in list(range(0, 96)) + [len(payload) // 2, len(payload) - 1]:
            with pytest.raises(FrameError):
                decode_frame(payload[:cut])

    def test_structure_corruption_fuzz(self):
        # Flip every byte of the header, skeleton and column table: the
        # frame layer must raise FrameError or still produce a message with
        # a string type — never crash with anything else.
        payload = bytearray(encode_state_frame(_state_message())[4:])
        table_end = min(len(payload), 400)
        rng = np.random.default_rng(0)
        for pos in range(table_end):
            for flip in (0xFF, rng.integers(1, 256)):
                corrupted = bytearray(payload)
                corrupted[pos] ^= int(flip)
                try:
                    message = decode_frame(bytes(corrupted))
                except FrameError:
                    continue
                assert isinstance(message, dict)
                assert isinstance(message["type"], str)

    @staticmethod
    def _with_skeleton(skeleton: bytes) -> bytes:
        """A kind-2 payload whose skeleton is replaced (no columns)."""
        return (bytes([BINARY_MAGIC, 1, 2, 0])
                + struct.pack("<II", len(skeleton), 0) + skeleton)

    @pytest.mark.parametrize("skeleton,match", [
        (b'{"type": "state", ', "invalid binary frame"),
        (b"\xff\xfe", "invalid binary frame"),
        (b"[" * 100_000, "invalid binary frame"),
        (b'[1, 2, 3]', "JSON object"),
        (b'"state"', "JSON object"),
        (b'{"epochs": [1]}', "string 'type'"),
        (b'{"type": 7}', "string 'type'"),
        (b'{"type": "state", "state": {"__repro_column__": 0}}',
         "unknown column"),
    ])
    def test_bad_skeleton_is_a_frame_error(self, skeleton, match):
        with pytest.raises(FrameError, match=match):
            decode_frame(self._with_skeleton(skeleton))

    def test_bad_column_table_is_a_frame_error(self):
        payload = bytearray(encode_state_frame(_state_message())[4:])
        skeleton_len, _ = struct.unpack_from("<II", payload, 4)
        table = 12 + skeleton_len
        # the first column's dtype string ("|i1"), then its announced size
        payload[table + 1:table + 4] = b"|O8"[:3]
        with pytest.raises(FrameError, match="dtype"):
            decode_frame(bytes(payload))
        payload = bytearray(encode_state_frame(_state_message())[4:])
        struct.pack_into("<I", payload, 8, 99)  # more columns than exist
        with pytest.raises(FrameError, match="invalid binary frame"):
            decode_frame(bytes(payload))

    def test_unknown_flags_rejected(self):
        payload = bytearray(encode_state_frame(_state_message())[4:])
        payload[3] = 0x01  # FLAG_ROUTED is a kind-1 flag
        with pytest.raises(FrameError, match="flags"):
            decode_frame(bytes(payload))

    def test_server_and_cluster_never_import_base64(self):
        # state rides in kind-2 frames: no layer that serves it wraps it in
        # base64 text any more
        import ast
        from pathlib import Path

        import repro.cluster
        import repro.server

        for package in (repro.server, repro.cluster):
            for path in Path(package.__file__).parent.glob("*.py"):
                for node in ast.walk(ast.parse(path.read_text())):
                    names = ([a.name for a in node.names]
                             if isinstance(node, ast.Import) else
                             [node.module] if isinstance(node, ast.ImportFrom)
                             else [])
                    assert "base64" not in names, path

    def test_read_frame_sync_decodes_state_frames(self):
        frame = encode_state_frame(_state_message())
        decoded = read_frame_sync(io.BytesIO(frame))
        assert decoded["epochs"] == [3, 5, 8]
        with pytest.raises(FrameError, match="invalid binary frame"):
            read_frame_sync(io.BytesIO(struct.pack("!I", len(frame) - 8)
                                       + frame[4:-4]))


class TestPulledStateFold:
    """The router sums pulled ``state`` replies with their counts left in
    the wire columns; a doctored second shard is rejected, as a load
    rejects it, before anything is added into the first one's vector."""

    PARAMS = CountMeanSketchParams.create(DOMAIN, 1.0, num_hashes=4,
                                          num_buckets=2048, rng=0)

    def _payload(self, seed, num_reports=40, rows=None, size=None):
        """A shard's ``state`` reply payload: small cells, ten wide ones
        (a patched column), and its row counts."""
        layout = self.PARAMS.layout
        counts = np.random.default_rng(seed).integers(-3, 4,
                                                      size=layout.size)
        counts[100:1100:100] = 1_000
        (_, _, cells), = layout.groups
        counts[cells] = [num_reports, 0, 0, 0] if rows is None else rows
        aggregator = self.PARAMS.make_aggregator(
            counts[:size].astype(np.int32))
        aggregator.num_reports = num_reports
        return bytes(encode_state_frame(state_reply(aggregator, [0]))[4:])

    def test_packed_replies_sum_like_loaded_ones(self):
        payloads = [self._payload(seed) for seed in (1, 2, 3)]
        packed = decode_frame(payloads[1], arrays=False)["state"]
        assert packed["state"]["counts"].where.size
        folded = fold_states(self.PARAMS, [
            decode_frame(payload, arrays=False)["state"]
            for payload in payloads])
        merged = fold_states(self.PARAMS, [
            decode_frame(payload)["state"] for payload in payloads])
        assert folded.counts.dtype == merged.counts.dtype == np.int32
        assert np.array_equal(folded.counts, merged.counts)
        assert folded.num_reports == merged.num_reports == 120

    @pytest.mark.parametrize("doctor,match", [
        (dict(rows=[40, 1, 0, 0]), "row counts hold"),
        (dict(rows=[-40, 80, 0, 0]), "row counts hold"),
        (dict(num_reports=-40, rows=[-40, 0, 0, 0]), "negative"),
        (dict(size=8000), "shape"),
    ])
    def test_doctored_second_shard_adds_nothing(self, doctor, match):
        first = load_child_state(self.PARAMS, decode_frame(
            self._payload(1), arrays=False)["state"])
        counts, bound = first.counts.copy(), first.bound
        doctored = decode_frame(self._payload(2, **doctor), arrays=False)
        with pytest.raises(ValueError, match=match):
            fold_state(first, doctored["state"])
        assert np.array_equal(first.counts, counts)
        assert (first.bound, first.num_reports) == (bound, 40)
        with pytest.raises(ValueError, match=match):
            fold_states(self.PARAMS, [
                decode_frame(self._payload(1), arrays=False)["state"],
                doctored["state"]])

    def test_patch_index_out_of_range_is_rejected_at_decode(self):
        payload = self._payload(2)
        where = decode_frame(payload, arrays=False)[
            "state"]["state"]["counts"].where
        assert np.iinfo(where.dtype).max >= self.PARAMS.layout.size
        offset = where.ctypes.data - np.frombuffer(payload,
                                                   np.uint8).ctypes.data
        doctored = bytearray(payload)
        np.frombuffer(doctored, where.dtype, count=where.size,
                      offset=offset)[-1] = np.iinfo(where.dtype).max
        for arrays in (False, True):
            with pytest.raises(FrameError, match="patch does not fit"):
                decode_frame(bytes(doctored), arrays=arrays)


class TestEngineResultChannel:
    def test_binary_channel_matches_in_process_run(self):
        params = HashtogramParams.create(DOMAIN, 1.0, num_buckets=16, rng=0)
        values = np.random.default_rng(1).integers(0, DOMAIN, size=6_000)
        queries = np.arange(256)
        estimates = {}
        for workers in (1, 2):  # 1 runs in-process: no result channel
            result = run_simulation(params, values,
                                    rng=np.random.default_rng(2),
                                    workers=workers, chunk_size=1_500)
            assert result.num_users == values.size
            estimates[workers] = result.finalize().estimate_many(queries)
        assert np.array_equal(estimates[2], estimates[1])
