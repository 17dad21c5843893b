"""Tests for the client/server wire API (:mod:`repro.protocol`).

The three contracts the redesign promises:

(a) the legacy one-shot ``collect()`` / ``run()`` entry points are *exactly*
    the wire path: the engine's canonical chunk stream
    (``encode_concat``: per-chunk seeds pre-drawn from the caller's
    generator) fed through ``absorb_batch → finalize`` under the same seed
    reproduces them bit for bit, including with K merged shards;
(b) ``merge`` is commutative and associative, and K-shard aggregation equals
    single-shard aggregation exactly;
(c) ``PublicParams`` serialization round-trips through JSON, and reports are
    individually serializable.
"""

import json

import numpy as np
import pytest

from repro.baselines.rappor_hh import RapporHeavyHitters
from repro.baselines.single_hash import SingleHashHeavyHitters
from repro.core.heavy_hitters import PrivateExpanderSketch
from repro.engine import encode_concat
from repro.frequency.count_mean_sketch import CountMeanSketchOracle
from repro.frequency.explicit import ExplicitHistogramOracle
from repro.frequency.hashtogram import HashtogramOracle
from repro.protocol import (
    CountMeanSketchParams,
    ExplicitHistogramParams,
    HashtogramParams,
    PublicParams,
    RapporParams,
    Report,
    ReportBatch,
    merge_aggregators,
)


def _wire_estimates(params, values, seed, num_shards):
    """encode the canonical chunk stream, scatter over shards, merge, finalize."""
    batch = encode_concat(params, values, np.random.default_rng(seed))
    shards = [params.make_aggregator() for _ in range(num_shards)]
    for shard, part in zip(shards, batch.split(num_shards), strict=True):
        shard.absorb_batch(part)
    return merge_aggregators(shards).finalize()


# --------------------------------------------------------------------------------------
# (a) wire path == legacy collect(), bit for bit, under a fixed rng
# --------------------------------------------------------------------------------------

class TestLegacyCollectEquivalence:
    @pytest.mark.parametrize("randomizer", ["hadamard", "oue", "krr"])
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_explicit_matches_collect(self, rng, randomizer, num_shards):
        domain = 32
        values = rng.integers(0, domain, size=4_000)
        oracle = ExplicitHistogramOracle(domain, 1.0, randomizer=randomizer)
        oracle.collect(values, np.random.default_rng(7))
        params = ExplicitHistogramParams(domain, 1.0, randomizer)
        fitted = _wire_estimates(params, values, seed=7, num_shards=num_shards)
        assert np.array_equal(fitted.histogram(), oracle.histogram())
        assert fitted.num_users == oracle.num_users

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_hashtogram_matches_collect(self, rng, num_shards):
        domain = 1 << 18
        values = rng.integers(0, domain, size=6_000)
        oracle = HashtogramOracle(domain, 1.0, num_buckets=64)
        oracle.collect(values, np.random.default_rng(11))
        # collect() first samples the published hashes, then encodes the
        # engine's chunk stream — replay the same generator through the same
        # two steps.
        gen = np.random.default_rng(11)
        params = HashtogramParams.create(domain, 1.0, num_buckets=64, rng=gen)
        batch = encode_concat(params, values, gen)
        shards = [params.make_aggregator() for _ in range(num_shards)]
        for shard, part in zip(shards, batch.split(num_shards), strict=True):
            shard.absorb_batch(part)
        fitted = merge_aggregators(shards).finalize()
        queries = rng.integers(0, domain, size=100)
        assert np.array_equal(fitted.estimate_many(queries),
                              oracle.estimate_many(queries))

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_cms_matches_collect(self, rng, num_shards):
        domain = 1 << 14
        values = rng.integers(0, domain, size=5_000)
        oracle = CountMeanSketchOracle(domain, 2.0, num_hashes=8, num_buckets=64)
        oracle.collect(values, np.random.default_rng(13))
        gen = np.random.default_rng(13)
        params = CountMeanSketchParams.create(domain, 2.0, num_hashes=8,
                                              num_buckets=64, rng=gen)
        batch = encode_concat(params, values, gen)
        shards = [params.make_aggregator() for _ in range(num_shards)]
        for shard, part in zip(shards, batch.split(num_shards), strict=True):
            shard.absorb_batch(part)
        fitted = merge_aggregators(shards).finalize()
        queries = rng.integers(0, domain, size=100)
        assert np.array_equal(fitted.estimate_many(queries),
                              oracle.estimate_many(queries))

    def test_expander_sketch_matches_run(self, rng):
        domain = 1 << 16
        values = rng.integers(0, domain, size=8_000)
        values[:2_000] = 4_242
        protocol = PrivateExpanderSketch(domain_size=domain, epsilon=4.0)
        result = protocol.run(values, rng=np.random.default_rng(3))
        # run() consumes the generator as: sample wire params, then encode
        # the engine's canonical chunk stream.
        gen = np.random.default_rng(3)
        wire = protocol.public_params(values.size, rng=gen)
        batch = encode_concat(wire, values, gen)
        shards = [wire.make_aggregator() for _ in range(4)]
        for shard, part in zip(shards, batch.split(4), strict=True):
            shard.absorb_batch(part)
        sharded = merge_aggregators(shards).finalize()
        assert sharded.estimates == result.estimates
        assert sharded.candidates == result.candidates

    def test_single_hash_matches_run(self, rng):
        domain = 1 << 16
        values = rng.integers(0, domain, size=8_000)
        values[:2_500] = 31_337
        protocol = SingleHashHeavyHitters(domain_size=domain, epsilon=4.0,
                                          num_repetitions=2)
        result = protocol.run(values, rng=np.random.default_rng(5))
        gen = np.random.default_rng(5)
        wire = protocol.public_params(values.size, rng=gen)
        batch = encode_concat(wire, values, gen)
        shards = [wire.make_aggregator() for _ in range(4)]
        for shard, part in zip(shards, batch.split(4), strict=True):
            shard.absorb_batch(part)
        sharded = merge_aggregators(shards).finalize()
        assert sharded.estimates == result.estimates

    def test_rappor_matches_run(self, rng):
        domain = 512
        values = rng.integers(0, domain, size=3_000)
        values[:1_000] = 77
        protocol = RapporHeavyHitters(domain_size=domain, epsilon=3.0,
                                      candidates=[77, 5, 300], num_bits=64)
        result = protocol.run(values, rng=np.random.default_rng(9))
        gen = np.random.default_rng(9)
        wire = protocol.public_params(rng=gen)
        batch = encode_concat(wire, values, gen)
        shards = [wire.make_aggregator() for _ in range(4)]
        for shard, part in zip(shards, batch.split(4), strict=True):
            shard.absorb_batch(part)
        aggregate = merge_aggregators(shards).finalize()
        estimates = aggregate.estimate_candidates([77, 5, 300])
        # The sharded decode reproduces run()'s estimate of the heavy candidate
        # exactly; the others fell below run()'s noise floor and were dropped.
        assert result.estimates[77] == float(estimates[0])


# --------------------------------------------------------------------------------------
# (b) merge algebra: commutative, associative, K shards == 1 shard
# --------------------------------------------------------------------------------------

class TestMergeAlgebra:
    def _three_shards(self, rng):
        params = HashtogramParams.create(1 << 12, 1.0, num_buckets=32, rng=0)
        values = rng.integers(0, 1 << 12, size=3_000)
        batch = params.make_encoder().encode_batch(values, rng)
        parts = batch.split(3)
        shards = [params.make_aggregator().absorb_batch(p) for p in parts]
        return params, batch, shards

    def test_merge_commutes(self, rng):
        params, _, (a, b, c) = self._three_shards(rng)
        queries = np.arange(200)
        ab = a.merge(b).merge(c).finalize().estimate_many(queries)
        ba = c.merge(b).merge(a).finalize().estimate_many(queries)
        assert np.array_equal(ab, ba)

    def test_merge_associates(self, rng):
        params, _, (a, b, c) = self._three_shards(rng)
        queries = np.arange(200)
        left = (a.merge(b)).merge(c).finalize().estimate_many(queries)
        right = a.merge(b.merge(c)).finalize().estimate_many(queries)
        assert np.array_equal(left, right)

    def test_k_shards_equal_single_shard(self, rng):
        params, batch, shards = self._three_shards(rng)
        single = params.make_aggregator().absorb_batch(batch)
        queries = np.arange(200)
        assert np.array_equal(merge_aggregators(shards).finalize()
                              .estimate_many(queries),
                              single.finalize().estimate_many(queries))

    def test_merge_rejects_mismatched_params(self, rng):
        a = HashtogramParams.create(1 << 12, 1.0, num_buckets=32,
                                    rng=0).make_aggregator()
        b = HashtogramParams.create(1 << 12, 1.0, num_buckets=32,
                                    rng=1).make_aggregator()
        with pytest.raises(ValueError):
            a.merge(b)
        with pytest.raises(TypeError):
            a.merge(ExplicitHistogramParams(16, 1.0).make_aggregator())

    def test_merge_leaves_operands_untouched(self, rng):
        params, _, (a, b, c) = self._three_shards(rng)
        before = a.num_reports
        a.merge(b)
        assert a.num_reports == before


# --------------------------------------------------------------------------------------
# (c) serialization round-trips
# --------------------------------------------------------------------------------------

class TestSerialization:
    def _roundtrip(self, params):
        payload = json.loads(json.dumps(params.to_dict()))
        rebuilt = PublicParams.from_dict(payload)
        assert rebuilt == params
        assert rebuilt.to_dict() == params.to_dict()
        return rebuilt

    def test_explicit_roundtrip(self):
        for randomizer in ("hadamard", "oue", "krr"):
            self._roundtrip(ExplicitHistogramParams(40, 1.5, randomizer))

    def test_hashtogram_roundtrip(self):
        params = HashtogramParams.create(1 << 20, 1.0, num_buckets=128, rng=0)
        rebuilt = self._roundtrip(params)
        # The reconstructed hashes are behaviourally identical.
        xs = np.arange(1_000)
        for mine, theirs in zip(params.bucket_hashes, rebuilt.bucket_hashes,
                                strict=True):
            assert np.array_equal(mine(xs), theirs(xs))

    def test_cms_roundtrip(self):
        self._roundtrip(CountMeanSketchParams.create(1 << 16, 2.0,
                                                     num_hashes=4,
                                                     num_buckets=64, rng=3))

    def test_rappor_roundtrip(self):
        params = RapporParams.create(1 << 10, 2.0, num_bits=64, rng=1)
        rebuilt = self._roundtrip(params)
        assert np.array_equal(params.randomizer.bloom_bits(17),
                              rebuilt.randomizer.bloom_bits(17))

    def test_expander_sketch_roundtrip(self, rng):
        protocol = PrivateExpanderSketch(domain_size=1 << 16, epsilon=4.0)
        params = protocol.public_params(8_000, rng=0)
        rebuilt = self._roundtrip(params)
        # The reconstructed code derives identical stage-1 cells.
        values = rng.integers(0, 1 << 16, size=500)
        gen_a, gen_b = np.random.default_rng(4), np.random.default_rng(4)
        batch_a = params.make_encoder().encode_batch(values, gen_a)
        batch_b = rebuilt.make_encoder().encode_batch(values, gen_b)
        for key in batch_a.columns:
            assert np.array_equal(batch_a.columns[key], batch_b.columns[key])

    def test_single_hash_roundtrip(self):
        protocol = SingleHashHeavyHitters(domain_size=1 << 16, epsilon=2.0,
                                          num_repetitions=2)
        self._roundtrip(protocol.public_params(5_000, rng=2))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            PublicParams.from_dict({"protocol": "telepathy"})

    def test_report_roundtrips_through_json(self):
        params = HashtogramParams.create(1 << 12, 1.0, num_buckets=32, rng=0)
        report = params.make_encoder().encode(99, rng=1, user_index=5)
        payload = json.loads(json.dumps(report.to_dict()))
        rebuilt = Report.from_dict(payload)
        aggregator = params.make_aggregator()
        aggregator.absorb(rebuilt)
        assert aggregator.num_reports == 1


# --------------------------------------------------------------------------------------
# streaming ingestion + report-cost accounting
# --------------------------------------------------------------------------------------

class TestStreamingIngestion:
    def test_absorb_stream_equals_batch(self, rng):
        params = CountMeanSketchParams.create(1 << 10, 1.0, num_hashes=4,
                                              num_buckets=16, rng=0)
        values = rng.integers(0, 1 << 10, size=200)
        batch = params.make_encoder().encode_batch(values, rng)
        streamed = params.make_aggregator()
        for report in batch:
            streamed.absorb(report)
        batched = params.make_aggregator().absorb_batch(batch)
        queries = np.arange(50)
        assert np.array_equal(streamed.finalize().estimate_many(queries),
                              batched.finalize().estimate_many(queries))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64, bool])
    def test_cms_absorb_equals_add_at_table(self, dtype):
        """The per-row masked column sums give exactly the table the 2-D
        ``np.add.at`` scatter gives, rows without a report included."""
        params = CountMeanSketchParams.create(1 << 10, 1.0, num_hashes=6,
                                              num_buckets=24, rng=0)
        gen = np.random.default_rng(5)
        rows = gen.choice([0, 2, 3, 5], size=300)   # rows 1 and 4 stay empty
        bits = gen.integers(0, 2, size=(300, 24)).astype(dtype)
        ones = np.zeros((6, 24), dtype=np.int64)
        np.add.at(ones, rows, bits.astype(np.int64))
        expected = np.concatenate([ones.ravel(), np.bincount(rows,
                                                             minlength=6)])
        aggregator = params.make_aggregator()
        aggregator.absorb_batch(ReportBatch(params.protocol,
                                            {"row": rows, "bits": bits}))
        assert np.array_equal(aggregator.counts, expected)
        assert not expected[24:48].any() and not expected[96:120].any()

    def test_absorb_rejects_foreign_reports(self):
        params = ExplicitHistogramParams(16, 1.0)
        other = CountMeanSketchParams.create(16, 1.0, num_hashes=2,
                                             num_buckets=4, rng=0)
        report = other.make_encoder().encode(3, rng=1)
        with pytest.raises(ValueError):
            params.make_aggregator().absorb(report)

    def test_encode_batch_split_concat_roundtrip(self, rng):
        params = ExplicitHistogramParams(16, 1.0)
        batch = params.make_encoder().encode_batch(rng.integers(0, 16, 100), rng)
        rejoined = ReportBatch.concat(batch.split(7))
        for key in batch.columns:
            assert np.array_equal(batch.columns[key], rejoined.columns[key])


class TestReportCostAccounting:
    """Every retrofitted oracle reports real wire/report sizes (satellite 2)."""

    def test_frequency_oracles_report_costs(self, rng):
        values = rng.integers(0, 1 << 12, size=2_000)
        oracles = [ExplicitHistogramOracle(1 << 12, 1.0),
                   HashtogramOracle(1 << 12, 1.0),
                   CountMeanSketchOracle(1 << 12, 1.0, num_hashes=4)]
        for oracle in oracles:
            oracle.collect(values, rng)
            assert np.isfinite(oracle.report_bits) and oracle.report_bits > 0
            assert oracle.server_state_size > 0

    def test_heavy_hitters_report_costs(self, rng):
        values = rng.integers(0, 1 << 16, size=6_000)
        values[:2_000] = 123
        for protocol in (PrivateExpanderSketch(1 << 16, 4.0),
                         SingleHashHeavyHitters(1 << 16, 4.0,
                                                num_repetitions=2)):
            result = protocol.run(values, rng=np.random.default_rng(1))
            assert result.metadata["report_bits"] > 0
            assert result.metadata["server_state_size"] > 0
            assert result.meter.communication_bits > 0

    def test_rappor_report_costs(self, rng):
        values = rng.integers(0, 256, size=1_000)
        protocol = RapporHeavyHitters(256, 2.0, candidates=[1, 2], num_bits=32)
        result = protocol.run(values, rng=rng)
        assert result.metadata["report_bits"] == 32.0
        assert result.metadata["server_state_size"] == 32

    def test_wire_report_bits_match_oracle_report_bits(self):
        assert (ExplicitHistogramParams(100, 1.0, "oue").report_bits
                == ExplicitHistogramOracle(100, 1.0, "oue").report_bits)
        assert (ExplicitHistogramParams(100, 1.0, "hadamard").report_bits
                == ExplicitHistogramOracle(100, 1.0, "hadamard").report_bits)


# --------------------------------------------------------------------------------------
# batch estimation plumbing (satellite 1)
# --------------------------------------------------------------------------------------

class TestResultEstimateMany:
    def test_listed_and_unlisted_queries(self, rng):
        domain = 1 << 16
        values = rng.integers(0, domain, size=6_000)
        values[:2_000] = 4_242
        protocol = PrivateExpanderSketch(domain_size=domain, epsilon=4.0)
        result = protocol.run(values, rng=np.random.default_rng(2))
        queries = [4_242, 1, 2]
        plain = result.estimate_many(queries)
        assert plain[0] == result.estimate_of(4_242)
        assert plain[1] == result.estimate_of(1)
        via_oracle = result.estimate_many(queries, use_oracle=True)
        assert via_oracle[0] == result.estimate_of(4_242)
        # Unlisted queries flow through the retained oracle's batch path.
        assert via_oracle[1] == pytest.approx(result.oracle.estimate(1))
        assert result.estimate_many([]).size == 0


# --------------------------------------------------------------------------------------
# the protocol registry: the one list of protocols every surface reads
# --------------------------------------------------------------------------------------

class TestProtocolRegistry:
    def test_shared_cases_cover_every_registered_protocol(self):
        from protocol_cases import protocol_cases
        from repro.protocol.wire import _PROTOCOL_REGISTRY, protocol_names

        cases = protocol_cases()
        assert [name for name, _ in cases] == protocol_names()
        assert {p.protocol for _, p in cases} == set(_PROTOCOL_REGISTRY)

    def test_lookup_takes_a_short_name_or_a_wire_tag(self):
        from repro.protocol.wire import protocol_class, protocol_names

        assert protocol_class("cms") is CountMeanSketchParams
        assert protocol_class("count_mean_sketch") is CountMeanSketchParams
        with pytest.raises(ValueError, match="unknown protocol 'nope'") as err:
            protocol_class("nope")
        assert all(name in str(err.value) for name in protocol_names())

    @pytest.mark.parametrize("oracle", [
        PrivateExpanderSketch(1 << 12, 4.0),
        SingleHashHeavyHitters(1 << 12, 4.0),
        HashtogramOracle(1 << 12, 1.0)],
        ids=["expander_sketch", "single_hash", "hashtogram"])
    def test_for_workload_holds_the_oracle_defaults(self, oracle):
        params = oracle.public_params(800, rng=np.random.default_rng(3))
        assert params == type(params).for_workload(
            800, 1 << 12, oracle.epsilon, rng=np.random.default_rng(3))

    def test_rappor_estimate_many_is_the_candidate_decode(self):
        params = RapporParams.for_workload(2_000, 512, 2.0, rng=0)
        values = np.random.default_rng(1).integers(0, 512, size=2_000)
        values[:500] = 77
        aggregate = params.make_aggregator().absorb_batch(
            params.make_encoder().encode_batch(values, rng=2)).finalize()
        queries = [77, 5, 300, 77]
        assert np.array_equal(aggregate.estimate_many(queries),
                              aggregate.estimate_candidates(queries))
