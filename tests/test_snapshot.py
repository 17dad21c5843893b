"""Durable snapshot round-trips for every registered wire protocol.

The contract under test (``docs/wire-protocol.md`` §6): for any aggregator,

    absorb(S1) -> snapshot -> JSON -> restore -> absorb(S2) -> finalize

is **bit-identical** to ``absorb(S1 + S2) -> finalize`` on an aggregator
that never checkpointed — the snapshot carries exact integer state, and
integers survive JSON exactly.  Also covered: the windowed (epoch-rolled)
collection built on the same state hooks, and the atomic on-disk store.
"""

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.single_hash import SingleHashHeavyHitters
from repro.core.heavy_hitters import PrivateExpanderSketch
from repro.protocol import (
    CountMeanSketchParams,
    ExplicitHistogramParams,
    HashtogramParams,
    RapporParams,
    ReportBatch,
    ServerAggregator,
)
from repro.protocol.binary import pack_state
from repro.protocol.wire import (
    _PROTOCOL_REGISTRY,
    child_state,
    json_safe,
    load_child_state,
)
from repro.server.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotCorruptError,
    SnapshotStore,
    read_snapshot,
    write_snapshot,
)
from repro.server.client import AggregationClient
from repro.server.window import WindowedAggregator
from test_server import running_server

DOMAIN = 1 << 12


def _frequency_cases():
    return [
        ("explicit/hadamard", ExplicitHistogramParams(256, 1.0, "hadamard")),
        ("explicit/oue", ExplicitHistogramParams(64, 1.0, "oue")),
        ("explicit/krr", ExplicitHistogramParams(64, 1.0, "krr")),
        ("hashtogram",
         HashtogramParams.create(DOMAIN, 1.0, num_buckets=16, rng=0)),
        ("cms", CountMeanSketchParams.create(DOMAIN, 1.0, num_hashes=4,
                                             num_buckets=16, rng=0)),
    ]


def _heavy_hitter_cases(num_users):
    expander = PrivateExpanderSketch(domain_size=1 << 16, epsilon=4.0)
    single = SingleHashHeavyHitters(domain_size=1 << 16, epsilon=4.0,
                                    num_repetitions=2)
    return [
        ("expander_sketch",
         expander.public_params(num_users, rng=np.random.default_rng(3))),
        ("single_hash",
         single.public_params(num_users, rng=np.random.default_rng(5))),
    ]


def _all_cases():
    """One parameter set per registered protocol (three explicit randomizers)."""
    return [*_frequency_cases(),
            ("rappor", RapporParams.create(512, 2.0, num_bits=64, rng=0)),
            *_heavy_hitter_cases(2_000)]


def _served_cases():
    """A frequency oracle and a heavy-hitter sketch, served."""
    cases = dict(_all_cases())
    return [(name, cases[name]) for name in ("hashtogram", "expander_sketch")]


def _split(batch, parts):
    """``batch`` as ``parts`` consecutive row ranges."""
    bounds = np.linspace(0, len(batch), parts + 1).astype(int)
    return [ReportBatch(batch.protocol, {name: column[lo:hi]
                                         for name, column in
                                         batch.columns.items()})
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _two_halves(params, num_users, rng):
    """Two encoded batches covering one population of ``num_users``."""
    values = rng.integers(0, params.domain_size, size=num_users)
    values[: num_users // 4] = params.domain_size // 2  # a planted heavy hitter
    encoder = params.make_encoder()
    half = num_users // 2
    first = encoder.encode_batch(values[:half], np.random.default_rng(21))
    second = encoder.encode_batch(values[half:], np.random.default_rng(22),
                                  first_user_index=half)
    return first, second


def _checkpointed_vs_straight(params, first, second):
    """Finalized outputs of the checkpointed and never-checkpointed paths."""
    checkpointed = params.make_aggregator().absorb_batch(first)
    payload = json.loads(json.dumps(checkpointed.snapshot()))
    restored = ServerAggregator.from_snapshot(payload)
    assert restored.num_reports == len(first)
    restored.absorb_batch(second)
    straight = params.make_aggregator().absorb_batch(first).absorb_batch(second)
    return restored.finalize(), straight.finalize()


class TestAggregatorSnapshotRoundTrip:
    @pytest.mark.parametrize("name,params", _frequency_cases(),
                             ids=[name for name, _ in _frequency_cases()])
    def test_frequency_protocols_bit_identical(self, rng, name, params):
        first, second = _two_halves(params, 4_000, rng)
        restored, straight = _checkpointed_vs_straight(params, first, second)
        queries = np.arange(min(params.domain_size, 256))
        assert np.array_equal(restored.estimate_many(queries),
                              straight.estimate_many(queries))

    def test_rappor_bit_identical(self, rng):
        params = RapporParams.create(512, 2.0, num_bits=64, rng=0)
        first, second = _two_halves(params, 3_000, rng)
        restored, straight = _checkpointed_vs_straight(params, first, second)
        candidates = list(range(64))
        assert np.array_equal(restored.estimate_candidates(candidates),
                              straight.estimate_candidates(candidates))

    @pytest.mark.parametrize("index", [0, 1], ids=["expander", "single_hash"])
    def test_heavy_hitters_bit_identical(self, rng, index):
        num_users = 8_000
        name, params = _heavy_hitter_cases(num_users)[index]
        first, second = _two_halves(params, num_users, rng)
        restored, straight = _checkpointed_vs_straight(params, first, second)
        assert restored.estimates == straight.estimates
        assert restored.candidates == straight.candidates

    @pytest.mark.parametrize("name,params", _all_cases(),
                             ids=[name for name, _ in _all_cases()])
    def test_snapshot_is_json_safe(self, rng, name, params):
        first, _ = _two_halves(params, 2_000, rng)
        payload = params.make_aggregator().absorb_batch(first).snapshot()
        assert payload == json.loads(json.dumps(payload))

    def test_cases_cover_every_registered_protocol(self):
        assert {params.protocol for _, params in _all_cases()} == \
            set(_PROTOCOL_REGISTRY)

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not an aggregator snapshot"):
            ServerAggregator.from_snapshot({"format": "something-else"})

    def test_rejects_wrong_version(self):
        params = ExplicitHistogramParams(16, 1.0)
        payload = params.make_aggregator().snapshot()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            ServerAggregator.from_snapshot(payload)

    def test_rejects_mismatched_params(self):
        payload = ExplicitHistogramParams(16, 1.0).make_aggregator().snapshot()
        other = ExplicitHistogramParams(32, 1.0).make_aggregator()
        with pytest.raises(ValueError, match="different public parameters"):
            other.restore(payload)

    def test_rejects_truncated_state(self):
        params = ExplicitHistogramParams(16, 1.0)
        payload = params.make_aggregator().snapshot()
        payload["state"]["counts"] = payload["state"]["counts"][:3]
        with pytest.raises(ValueError, match="shape"):
            ServerAggregator.from_snapshot(payload)


def _with_fraction(payload):
    """``payload`` with one entry of its ``counts`` made non-integral."""
    values = list(payload["state"]["counts"])
    values[0] = values[0] + 1.5
    payload["state"]["counts"] = values
    return payload


class TestRestoreRejectsNonIntegralState:
    """A restore must not truncate ``1.5`` to ``1``: the state is exact counts."""

    @pytest.mark.parametrize("randomizer", ["hadamard", "oue", "krr"])
    def test_explicit(self, randomizer):
        params = ExplicitHistogramParams(16, 1.0, randomizer)
        payload = _with_fraction(params.make_aggregator().snapshot())
        with pytest.raises(ValueError, match="non-integral"):
            ServerAggregator.from_snapshot(payload)

    def test_rappor(self):
        params = RapporParams.create(64, 2.0, num_bits=16, rng=0)
        payload = _with_fraction(params.make_aggregator().snapshot())
        with pytest.raises(ValueError, match="non-integral"):
            ServerAggregator.from_snapshot(payload)

    @pytest.mark.parametrize("key", ["ones", "row_counts"])
    def test_count_mean_sketch(self, key):
        params = CountMeanSketchParams.create(DOMAIN, 1.0, num_hashes=4,
                                              num_buckets=16, rng=0)
        payload = params.make_aggregator().snapshot()
        counts = np.asarray(payload["state"]["counts"], dtype=float)
        table = params.num_hashes * params.num_buckets
        cells = slice(0, table) if key == "ones" else slice(table, None)
        counts[cells] += 0.25
        payload["state"]["counts"] = counts.tolist()
        with pytest.raises(ValueError, match="non-integral"):
            ServerAggregator.from_snapshot(payload)

    def test_integral_floats_still_restore(self):
        params = ExplicitHistogramParams(16, 1.0)
        aggregator = params.make_aggregator()
        aggregator.absorb_batch(params.make_encoder().encode_batch(
            np.arange(16), np.random.default_rng(0)))
        payload = aggregator.snapshot()
        payload["state"]["counts"] = [
            float(x) for x in payload["state"]["counts"]]
        restored = ServerAggregator.from_snapshot(payload)
        assert np.array_equal(restored.histogram(), aggregator.histogram())


class TestCheckpointPacksLiveState:
    """A capture holds the live counts, not copies: the server packs a
    checkpoint body on the event loop before the drain can absorb again,
    and only the disk write runs in an executor while absorbs go on."""

    @staticmethod
    def _snapshot_while_streaming(params, first, second, tmp_path):
        """Absorb ``first``, then request a snapshot whose disk write is
        held until a second client has streamed ``second`` and seen it
        absorbed; returns the snapshot reply."""
        gate, entered, streamed = (threading.Event(), threading.Event(),
                                   {})
        with running_server(params,
                            snapshot_dir=tmp_path) as (server, host, port):
            real_save = server.store.save

            def stalled_save(payload):
                entered.set()
                assert gate.wait(10), "test never released the save"
                return real_save(payload)

            server.store.save = stalled_save

            def stream_while_writing():
                # a second client: its reports arrive while the snapshot's
                # write is in flight, and must all be absorbed
                assert entered.wait(10), "the snapshot never reached save()"
                with AggregationClient(host, port) as client:
                    for part in _split(second, 4):
                        client.send_batch(part)
                    streamed["absorbed"] = client.sync()
                gate.set()

            with AggregationClient(host, port) as client:
                client.send_batch(first)
                client.sync()
                sender = threading.Thread(target=stream_while_writing,
                                          daemon=True)
                sender.start()
                reply = client._request({"type": "snapshot"})
                sender.join(10)
                total = len(first) + len(second)
                assert client.sync() == total
        assert streamed["absorbed"] == total
        return reply

    @pytest.mark.parametrize("name,params", _served_cases(),
                             ids=[name for name, _ in _served_cases()])
    def test_snapshot_holds_exactly_the_reports_before_it(self, rng, tmp_path,
                                                          name, params):
        first, second = _two_halves(params, 2_000, rng)
        reply = self._snapshot_while_streaming(params, first, second,
                                               tmp_path)
        before = WindowedAggregator(params)
        before.absorb_batch(first)
        assert pack_state(read_snapshot(reply["path"])) == \
            pack_state(before.capture())

    def test_reply_counts_the_reports_the_file_holds(self, rng, tmp_path):
        # the reply's num_reports is read with the capture, not after the
        # write, during which the second client's 1000 reports land
        _, params = _served_cases()[0]
        first, second = _two_halves(params, 2_000, rng)
        reply = self._snapshot_while_streaming(params, first, second,
                                               tmp_path)
        held = WindowedAggregator.from_snapshot(read_snapshot(reply["path"]))
        assert reply["num_reports"] == held.num_reports == len(first) == 1_000

    @pytest.mark.parametrize("name,params", _all_cases(),
                             ids=[name for name, _ in _all_cases()])
    def test_array_state_packs_to_the_list_form_bytes(self, rng, name,
                                                      params):
        first, _ = _two_halves(params, 2_000, rng)
        windowed = WindowedAggregator(params)
        windowed.absorb_batch(first)
        state = child_state(windowed.merged())
        assert pack_state(state) == pack_state(json_safe(state))
        assert pack_state(windowed.capture()) == \
            pack_state(windowed.snapshot())


def _bump(payload, *path, by=1):
    """``payload`` with the report count at ``path`` shifted by ``by``: a
    ``num_reports`` entry, or one report-count cell of a ``counts`` vector."""
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += by
    return payload


class TestRestoreRejectsImpossibleCounts:
    """A report count the state contradicts is corrupt, not a restore point."""

    def _absorbed(self, params, rng):
        first, _ = _two_halves(params, 2_000, rng)
        return params.make_aggregator().absorb_batch(first).snapshot()

    def test_negative_count(self):
        payload = ExplicitHistogramParams(16, 1.0).make_aggregator().snapshot()
        payload["num_reports"] = -1
        with pytest.raises(ValueError, match="negative"):
            ServerAggregator.from_snapshot(payload)

    def test_negative_windowed_epoch_count(self):
        params = ExplicitHistogramParams(16, 1.0, "krr")
        windowed = WindowedAggregator(params)
        windowed.absorb_batch(params.make_encoder().encode_batch(
            np.arange(16), np.random.default_rng(0)))
        payload = windowed.snapshot()
        payload["epochs"][0]["num_reports"] = -3
        with pytest.raises(ValueError, match="negative"):
            WindowedAggregator.from_snapshot(payload)

    def test_hashtogram_inner_counts_must_add_up(self, rng):
        params = _frequency_cases()[3][1]
        payload = _bump(self._absorbed(params, rng), "state", "counts", 0)
        with pytest.raises(ValueError, match="repetition counts hold"):
            ServerAggregator.from_snapshot(payload)

    @pytest.mark.parametrize("index", [0, 1], ids=["expander", "single_hash"])
    def test_stage1_counts_must_add_up(self, rng, index):
        params = _heavy_hitter_cases(2_000)[index][1]
        payload = _bump(self._absorbed(params, rng), "state", "counts",
                        params.final.layout.size + 1)
        with pytest.raises(ValueError, match="counts hold"):
            ServerAggregator.from_snapshot(payload)

    @pytest.mark.parametrize("index", [0, 1], ids=["expander", "single_hash"])
    def test_final_count_must_equal_the_parent(self, rng, index):
        params = _heavy_hitter_cases(2_000)[index][1]
        # a self-consistent final oracle holding one report too many
        payload = _bump(self._absorbed(params, rng), "state", "counts", 0)
        _bump(payload, "state", "counts", 1)
        with pytest.raises(ValueError, match="final counts hold"):
            ServerAggregator.from_snapshot(payload)

    def test_parent_count_must_match_its_children(self, rng):
        params = _heavy_hitter_cases(2_000)[0][1]
        payload = _bump(self._absorbed(params, rng), "num_reports", by=-1)
        with pytest.raises(ValueError, match="counts hold"):
            ServerAggregator.from_snapshot(payload)

    def test_rejected_absorb_state_leaves_the_window_unchanged(self, rng):
        params = _frequency_cases()[3][1]
        first, second = _two_halves(params, 2_000, rng)
        survivor = WindowedAggregator(params)
        survivor.absorb_batch(first, epoch=0)
        drained = WindowedAggregator(params)
        drained.absorb_batch(first, epoch=0)
        drained.absorb_batch(second, epoch=1)
        payload = drained.capture()
        _bump(payload, "epochs", 1, "state", "counts", 0)
        before = survivor.snapshot()
        with pytest.raises(ValueError, match="repetition counts hold"):
            survivor.merge_snapshot(payload)
        assert survivor.snapshot() == before

    def test_valid_counts_still_load(self, rng):
        for _, params in _all_cases():
            payload = self._absorbed(params, rng)
            restored = ServerAggregator.from_snapshot(payload)
            assert restored.snapshot() == payload
            child = load_child_state(params.make_aggregator(),
                                     child_state(restored))
            assert child.num_reports == payload["num_reports"]

    @pytest.mark.parametrize("column", ["repetition", "coordinate", "group"])
    def test_absorb_rejects_rows_no_child_would_take(self, column):
        params = {"repetition": _frequency_cases()[3][1],
                  "coordinate": _heavy_hitter_cases(2_000)[0][1],
                  "group": _heavy_hitter_cases(2_000)[1][1]}[column]
        batch = params.make_encoder().encode_batch(
            np.arange(50), np.random.default_rng(0))
        bad = np.array(batch.columns[column], copy=True)
        bad[-1] = -1
        batch.columns[column] = bad
        aggregator = params.make_aggregator()
        with pytest.raises(ValueError, match=f"{column} column"):
            aggregator.absorb_batch(batch)
        assert aggregator.num_reports == 0


def _malformed(params):
    """``(column, bad value)`` pairs a well-formed batch must never carry:
    out of range, off the ±1/0-1 alphabet, or inside a neighbouring block."""
    if params.protocol == "explicit_histogram":
        if params.randomizer == "hadamard":
            return [("bit", 1000), ("bit", 0), ("row", -1),
                    ("row", params.padded)]
        if params.randomizer == "oue":
            return [("bits", 2)]
        return [("value", -1), ("value", params.domain_size)]
    if params.protocol == "hashtogram":
        return [("row", -1), ("row", 1 << 40), ("bit", 3),
                ("repetition", params.num_repetitions)]
    if params.protocol == "count_mean_sketch":
        return [("bits", 9), ("row", params.num_hashes)]
    if params.protocol == "rappor":
        return [("bits", 200)]
    if params.protocol == "expander_sketch":
        return [("coordinate", params.params.num_coordinates),
                ("s1_row", -1), ("s1_bit", 2), ("fin_bit", 5),
                ("fin_repetition", params.final.num_repetitions)]
    return [("group", params.num_groups), ("s1_bit", 0), ("fin_row", -1)]


def _doctored(batch, column, value):
    """``batch`` with the last report's ``column`` entry set to ``value``
    (widened to int64 so any value fits)."""
    doctored = {key: np.array(col, copy=True)
                for key, col in batch.columns.items()}
    bad = doctored[column].astype(np.int64)
    bad[-1] = value
    doctored[column] = bad
    return type(batch)(batch.protocol, doctored)


class TestAbsorbRejectsMalformedReports:
    """Absorb validates every column before it adds a single count."""

    @pytest.mark.parametrize("name,params", _all_cases(),
                             ids=[name for name, _ in _all_cases()])
    def test_doctored_batch_raises_and_changes_nothing(self, name, params):
        # 10 reports: with hashtogram's 5 round-robin repetitions the last
        # report belongs to the last repetition, after the other four
        batch = params.make_encoder().encode_batch(
            np.arange(10) % params.domain_size, np.random.default_rng(0))
        for column, value in _malformed(params):
            aggregator = params.make_aggregator()
            before = json_safe(child_state(aggregator))
            with pytest.raises(ValueError):
                aggregator.absorb_batch(_doctored(batch, column, value))
            assert json_safe(child_state(aggregator)) == before, column
            assert aggregator.num_reports == 0


FIXTURES = Path(__file__).parent / "data" / "snapshot_v1"


class TestVersion1Fixtures:
    """Windowed snapshots written by the nested-state (version 1) code
    restore into the flat counts and finalize bit-identically."""

    @pytest.mark.parametrize("name", sorted(
        path.stem for path in FIXTURES.glob("*.bin")))
    def test_v1_snapshot_restores_bit_identically(self, name):
        payload = read_snapshot(FIXTURES / f"{name}.bin")
        answer = json.loads((FIXTURES / f"{name}.answer.json").read_text())
        assert payload["version"] == 1
        windowed = WindowedAggregator.from_snapshot(payload)
        assert windowed.epochs == answer["epochs"]
        assert windowed.num_reports == answer["num_reports"]
        assert windowed.merged().state_size == answer["state_size"]
        # and once more through the flat (version 2) payload
        again = WindowedAggregator.from_snapshot(
            json.loads(json.dumps(windowed.snapshot())))
        for restored in (windowed, again):
            result = restored.finalize()
            if "queries" in answer:
                estimates = result.estimate_many(answer["queries"])
            elif answer["protocol"] == "rappor":
                estimates = result.estimate_candidates(answer["candidates"])
            else:
                assert list(result.candidates) == answer["candidates"]
                assert result.metadata["server_state_size"] == \
                    answer["server_state_size"]
                estimates = [[x, result.estimates[x]]
                             for x in result.candidates]
            assert np.array_equal(np.asarray(estimates, dtype=float),
                                  np.asarray(answer["estimates"],
                                             dtype=float))


class TestWindowedAggregator:
    def _params(self):
        return ExplicitHistogramParams(64, 1.0, "krr")

    def _batch(self, params, seed, n=500):
        values = np.random.default_rng(seed).integers(0, 64, size=n)
        return params.make_encoder().encode_batch(values,
                                                  np.random.default_rng(seed))

    def test_windowed_merge_equals_manual_merge(self):
        params = self._params()
        windowed = WindowedAggregator(params)
        manual = params.make_aggregator()
        for epoch in range(4):
            batch = self._batch(params, epoch)
            windowed.absorb_batch(batch, epoch)
            manual.absorb_batch(batch)
        assert windowed.epochs == [0, 1, 2, 3]
        assert windowed.num_reports == manual.num_reports
        queries = np.arange(64)
        assert np.array_equal(windowed.finalize().estimate_many(queries),
                              manual.finalize().estimate_many(queries))

    def test_query_window_selects_newest_epochs(self):
        params = self._params()
        windowed = WindowedAggregator(params)
        last_two = params.make_aggregator()
        for epoch in range(4):
            batch = self._batch(params, epoch)
            windowed.absorb_batch(batch, epoch)
            if epoch >= 2:
                last_two.absorb_batch(batch)
        assert windowed.select_epochs(2) == [2, 3]
        queries = np.arange(64)
        assert np.array_equal(windowed.finalize(2).estimate_many(queries),
                              last_two.finalize().estimate_many(queries))

    def test_retention_drops_old_epochs(self):
        params = self._params()
        windowed = WindowedAggregator(params, window=2)
        for epoch in range(5):
            windowed.absorb_batch(self._batch(params, epoch), epoch)
        assert windowed.epochs == [3, 4]
        with pytest.raises(ValueError, match="retention window"):
            windowed.absorb_batch(self._batch(params, 9), epoch=1)

    def test_epoch_gaps_count_numerically(self):
        params = self._params()
        windowed = WindowedAggregator(params, window=3)
        windowed.absorb_batch(self._batch(params, 0), epoch=10)
        windowed.absorb_batch(self._batch(params, 1), epoch=14)
        # 14 - window(3) = 11 > 10: the old epoch falls out despite only two tags.
        assert windowed.epochs == [14]

    def test_empty_window_finalizes_fresh(self):
        params = self._params()
        windowed = WindowedAggregator(params)
        assert windowed.merged().num_reports == 0

    def test_snapshot_round_trip_bit_identical(self):
        params = self._params()
        windowed = WindowedAggregator(params, window=8)
        for epoch in range(3):
            windowed.absorb_batch(self._batch(params, epoch), epoch)
        payload = json.loads(json.dumps(windowed.snapshot()))
        restored = WindowedAggregator.from_snapshot(payload)
        assert restored.window == 8
        assert restored.epochs == windowed.epochs
        extra = self._batch(params, 77)
        windowed.absorb_batch(extra, 3)
        restored.absorb_batch(extra, 3)
        queries = np.arange(64)
        assert np.array_equal(restored.finalize().estimate_many(queries),
                              windowed.finalize().estimate_many(queries))

    def test_snapshot_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a windowed snapshot"):
            WindowedAggregator.from_snapshot({"format": "nope"})


class TestChecksummedContainer:
    """The fixed container every snapshot ships in (wire-protocol §6.2):
    a flipped bit or short read raises the typed
    :class:`SnapshotCorruptError` before any state is parsed."""

    def _payload(self):
        return {"format": "demo", "values": list(range(32)), "n": 7}

    def test_container_header_layout(self, tmp_path):
        import struct
        import zlib

        path = write_snapshot(tmp_path / "snap.json", self._payload())
        raw = path.read_bytes()
        magic, crc, length = struct.unpack_from("<III", raw, 0)
        body = raw[12:]
        assert magic == SNAPSHOT_MAGIC
        assert length == len(body)
        assert crc == zlib.crc32(body)

    @pytest.mark.parametrize("format", ["json", "binary"])
    def test_round_trip_both_encodings(self, tmp_path, format):
        params = HashtogramParams.create(DOMAIN, 1.0, num_buckets=16, rng=0)
        values = np.random.default_rng(0).integers(0, DOMAIN, size=1000)
        batch = params.make_encoder().encode_batch(values,
                                                   np.random.default_rng(1))
        windowed = WindowedAggregator(params)
        windowed.absorb_batch(batch, epoch=0)
        path = write_snapshot(tmp_path / "snap", windowed.snapshot(), format)
        restored = WindowedAggregator.from_snapshot(read_snapshot(path))
        queries = np.arange(256)
        assert np.array_equal(restored.finalize().estimate_many(queries),
                              windowed.finalize().estimate_many(queries))

    def test_flipped_body_byte_is_loud(self, tmp_path):
        path = write_snapshot(tmp_path / "snap.json", self._payload())
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError, match="checksum mismatch"):
            read_snapshot(path)

    def test_truncated_body_is_loud(self, tmp_path):
        path = write_snapshot(tmp_path / "snap.json", self._payload())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(SnapshotCorruptError, match="announces"):
            read_snapshot(path)

    def test_truncated_header_is_loud(self, tmp_path):
        path = write_snapshot(tmp_path / "snap.json", self._payload())
        path.write_bytes(path.read_bytes()[:7])
        with pytest.raises(SnapshotCorruptError, match="truncated"):
            read_snapshot(path)

    def test_corrupt_error_is_a_value_error(self):
        # one except clause catches both on every restore path
        assert issubclass(SnapshotCorruptError, ValueError)

    def test_legacy_headerless_json_still_restores(self, tmp_path):
        # files written before the container existed start with '{' — they
        # must keep restoring through the same entry point
        import json as json_mod

        path = tmp_path / "legacy.json"
        path.write_text(json_mod.dumps(self._payload()))
        assert read_snapshot(path) == self._payload()

    def test_write_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot format"):
            write_snapshot(tmp_path / "snap", {}, format="yaml")


class TestSnapshotStore:
    def test_atomic_write_and_read(self, tmp_path):
        path = write_snapshot(tmp_path / "snap.json", {"a": [1, 2, 3]})
        assert read_snapshot(path) == {"a": [1, 2, 3]}
        assert not (tmp_path / "snap.json.tmp").exists()

    def test_latest_valid_walks_past_corruption(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=4)
        for i in range(3):
            store.save({"seq": i})
        newest = store.latest()
        raw = bytearray(newest.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        newest.write_bytes(bytes(raw))
        # latest() still points at the damaged file; latest_valid() walks
        # back to the newest restorable checkpoint instead
        assert store.latest() == newest
        valid = store.latest_valid()
        assert valid is not None and valid != newest
        path, payload = store.load_latest_valid()
        assert path == valid
        assert payload == {"seq": 1}

    def test_latest_valid_none_when_everything_is_damaged(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        store.save({"seq": 0})
        for path in tmp_path.iterdir():
            path.write_bytes(b"\x52garbage")  # container first byte, bad rest
        assert store.latest_valid() is None
        assert store.load_latest_valid() is None

    def test_sequence_numbers_and_pruning(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        paths = [store.save({"seq": i}) for i in range(4)]
        assert paths[-1].name == "snapshot-000004.bin"
        remaining = sorted(p.name for p in tmp_path.iterdir())
        assert remaining == ["snapshot-000003.bin", "snapshot-000004.bin"]
        assert store.load_latest() == {"seq": 3}

    def test_empty_store(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.latest() is None
        assert store.load_latest() is None
