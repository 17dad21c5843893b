"""Cross-cutting property-based tests (hypothesis) on core invariants.

Module-level tests already include targeted hypothesis properties; this module
collects the invariants that tie several components together:

* any k-wise hash stays inside its declared range for arbitrary inputs;
* Reed-Solomon round-trips survive arbitrary error patterns within budget;
* the unique-list-recoverable code recovers any domain element from its own
  clean encoding;
* local randomizers never exceed their declared ε on enumerable spaces;
* frequency-oracle estimates are finite and anchored near the truth for
  deterministic (single-value) databases;
* heavy-hitter scoring is consistent with exhaustive recomputation;
* the exact integer Hadamard decode equals the old float transform bit for
  bit, on every padded length up to 2^12 and on the benchmarked shape, and
  its int32 narrowing stays exact at the width boundary and on restored
  rows far beyond any report count;
* heavy-hitter finalize (the parallel integer reducer) equals the serial
  float-histogram reference it replaced, candidates, estimates and list
  sizes, and holds no more than one decoded block per pool worker;
* every aggregator's flat ``counts`` vector equals the leaves of a
  test-only reference that keeps the nested per-child state and absorbs
  with per-child mask loops, across shard splits, merge orders and a
  snapshot round trip;
* every vectorized client encoder (heavy hitters, Hashtogram, RAPPOR)
  equals the per-group mask-loop reference it replaced, column for column
  and dtype for dtype, with the RNG left in the same state.
"""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.metrics import score_heavy_hitters, true_frequencies
from repro.baselines.single_hash import SingleHashHeavyHitters
from repro.codes.list_recoverable import UniqueListRecoverableCode
from repro.codes.reed_solomon import ReedSolomonCode
from repro.core.heavy_hitters import PrivateExpanderSketch
from repro.frequency.explicit import ExplicitHistogramOracle
from repro.hashing.kwise import KWiseHashFamily
from repro.protocol import (
    CountMeanSketchParams,
    HashtogramParams,
    RapporParams,
    ServerAggregator,
    merge_aggregators,
)
from repro.protocol.explicit import ExplicitHistogramParams
from repro.protocol.heavy_hitters import decode_candidate_lists
from repro.randomizers.hadamard import _decode_dtype, hadamard_outputs
from repro.randomizers.randomized_response import KaryRandomizedResponse
from repro.structure.composed_rr import ApproximateComposedRandomizedResponse
from repro.utils.bits import next_power_of_two


RS_CODE = ReedSolomonCode.for_domain(domain_size=1 << 16, num_chunks=8, rate=0.5)
LR_CODE = UniqueListRecoverableCode.create(
    domain_size=1 << 14, num_coordinates=8, hash_range=32, list_size=8, rng=123)


@given(domain_bits=st.integers(min_value=4, max_value=30),
       range_size=st.integers(min_value=2, max_value=1024),
       independence=st.integers(min_value=2, max_value=8),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_hash_range_invariant(domain_bits, range_size, independence, seed):
    family = KWiseHashFamily.create(1 << domain_bits, range_size, independence)
    h = family.sample(seed)
    xs = np.random.default_rng(seed).integers(0, 1 << domain_bits, size=64)
    values = h(xs)
    assert values.min() >= 0
    assert values.max() < range_size


@given(value=st.integers(min_value=0, max_value=(1 << 16) - 1),
       errors=st.dictionaries(st.integers(min_value=0, max_value=7),
                              st.integers(min_value=1, max_value=96),
                              max_size=2))
@settings(max_examples=60, deadline=None)
def test_reed_solomon_roundtrip_with_errors(value, errors):
    codeword = RS_CODE.encode_int(value)
    corrupted = list(codeword)
    for position, shift in errors.items():
        corrupted[position] = (corrupted[position] + shift) % RS_CODE.prime
    assert RS_CODE.decode_int(corrupted) == value


@given(value=st.integers(min_value=0, max_value=(1 << 14) - 1))
@settings(max_examples=40, deadline=None)
def test_list_recovery_from_clean_encoding(value):
    lists = [[(symbol.y, symbol.z)] for symbol in LR_CODE.encode(value)]
    assert value in LR_CODE.decode(lists)


@given(epsilon=st.floats(min_value=0.1, max_value=2.0),
       domain_size=st.integers(min_value=2, max_value=10))
@settings(max_examples=30, deadline=None)
def test_randomizer_privacy_never_exceeds_epsilon(epsilon, domain_size):
    randomizer = KaryRandomizedResponse(epsilon, domain_size)
    assert randomizer.verify_pure_dp(range(domain_size)) <= epsilon + 1e-9


@given(epsilon=st.floats(min_value=0.05, max_value=0.3),
       num_bits=st.integers(min_value=4, max_value=10),
       beta=st.floats(min_value=0.01, max_value=0.2))
@settings(max_examples=25, deadline=None)
def test_composed_rr_privacy_bound_property(epsilon, num_bits, beta):
    mechanism = ApproximateComposedRandomizedResponse(num_bits, epsilon, beta)
    assert mechanism.worst_case_privacy_loss() <= mechanism.composed_epsilon + 1e-9
    assert mechanism.tv_distance_to_composition() <= mechanism.escape_probability() + 1e-12


@given(domain_size=st.integers(min_value=2, max_value=64),
       value=st.data(),
       epsilon=st.floats(min_value=0.5, max_value=4.0),
       seed=st.integers(min_value=0, max_value=1_000))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_oracle_single_value_database(domain_size, value, epsilon, seed):
    """A database where everyone holds the same value: the oracle's estimate of
    that value must be positive and dominate the estimate of absent values."""
    held = value.draw(st.integers(min_value=0, max_value=domain_size - 1))
    n = 4_000
    oracle = ExplicitHistogramOracle(domain_size, epsilon)
    oracle.collect(np.full(n, held), np.random.default_rng(seed))
    estimates = oracle.histogram()
    assert np.isfinite(estimates).all()
    assert estimates[held] > 0.5 * n
    assert estimates[held] == estimates.max()


@given(data=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300),
       threshold=st.integers(min_value=1, max_value=30))
@settings(max_examples=50)
def test_score_heavy_hitters_consistency(data, threshold):
    """Scoring with the exact frequencies as estimates must always succeed."""
    estimates = {x: float(c) for x, c in true_frequencies(data).items()}
    score = score_heavy_hitters(estimates, data, threshold)
    assert score.recall == 1.0
    assert score.max_estimation_error == 0.0
    assert score.succeeded
    # Recomputed list size matches the number of distinct elements.
    assert score.list_size == len(estimates)


# --------------------------------------------------------------------------------------
# merge algebra of the aggregator tier (the cluster's exactness foundation)
# --------------------------------------------------------------------------------------
#
# The sharded cluster (and the chaos harness on top of it) is exact only
# because aggregator state is a commutative monoid under absorb/merge:
# any partition of the report stream across shards, absorbed in any
# interleaving and merged in any order, must reproduce the single-server
# state bit for bit.  These properties pin that algebra for every
# registered protocol, with hypothesis choosing the partition.

def _protocol_cases():
    from repro.baselines.single_hash import SingleHashHeavyHitters
    from repro.core.heavy_hitters import PrivateExpanderSketch
    from repro.protocol import (
        CountMeanSketchParams,
        ExplicitHistogramParams,
        HashtogramParams,
        RapporParams,
    )

    expander = PrivateExpanderSketch(domain_size=1 << 12, epsilon=4.0)
    single = SingleHashHeavyHitters(domain_size=1 << 12, epsilon=4.0,
                                    num_repetitions=2)
    return [
        ("explicit", ExplicitHistogramParams(64, 1.0, "hadamard")),
        ("hashtogram",
         HashtogramParams.create(1 << 10, 1.0, num_buckets=16, rng=0)),
        ("cms", CountMeanSketchParams.create(1 << 10, 1.0, num_hashes=4,
                                             num_buckets=16, rng=0)),
        ("rappor", RapporParams.create(256, 2.0, num_bits=64, rng=0)),
        ("expander_sketch",
         expander.public_params(800, rng=np.random.default_rng(3))),
        ("single_hash",
         single.public_params(800, rng=np.random.default_rng(5))),
    ]


PROTOCOL_CASES = _protocol_cases()
PROTOCOL_IDS = [name for name, _ in PROTOCOL_CASES]


def _encoded_batches(params, sizes, seed):
    batches = []
    for i, n in enumerate(sizes):
        gen = np.random.default_rng((seed, i))
        values = gen.integers(0, params.domain_size, size=n)
        batches.append(params.make_encoder().encode_batch(values, gen))
    return batches


@pytest.mark.parametrize("name,params", PROTOCOL_CASES, ids=PROTOCOL_IDS)
@given(data=st.data())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_merge_algebra_is_commutative_and_associative(name, params, data):
    """Any shard partition, any absorb interleaving, any merge order —
    one snapshot."""
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1),
                     label="seed")
    num_batches = data.draw(st.integers(min_value=2, max_value=5),
                            label="num_batches")
    sizes = data.draw(st.lists(st.integers(min_value=1, max_value=60),
                               min_size=num_batches, max_size=num_batches),
                      label="sizes")
    batches = _encoded_batches(params, sizes, seed)

    reference = params.make_aggregator()
    for batch in batches:
        reference.absorb_batch(batch)
    expected = reference.snapshot()

    # absorb commutes: a permuted interleaving gives the same state
    order = data.draw(st.permutations(range(num_batches)), label="order")
    permuted = params.make_aggregator()
    for i in order:
        permuted.absorb_batch(batches[i])
    assert permuted.snapshot() == expected

    # merge commutes and associates across an arbitrary 3-way partition
    assignment = data.draw(st.lists(st.integers(min_value=0, max_value=2),
                                    min_size=num_batches,
                                    max_size=num_batches),
                           label="assignment")
    shards = [params.make_aggregator() for _ in range(3)]
    for i, batch in enumerate(batches):
        shards[assignment[i]].absorb_batch(batch)
    a, b, c = (shards[g] for g in data.draw(st.permutations(range(3)),
                                            label="merge_order"))
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.snapshot() == expected
    assert right.snapshot() == expected
    assert left.num_reports == sum(sizes)


@pytest.mark.parametrize("name,params", PROTOCOL_CASES, ids=PROTOCOL_IDS)
@given(data=st.data())
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_snapshot_restore_mid_sequence_is_invisible(name, params, data):
    """Checkpoint/restart at any point in the stream must not perturb the
    final state — the invariant shard recovery (restore + journal replay)
    is built on."""
    import json

    from repro.protocol import ServerAggregator

    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1),
                     label="seed")
    num_batches = data.draw(st.integers(min_value=2, max_value=5),
                            label="num_batches")
    sizes = data.draw(st.lists(st.integers(min_value=1, max_value=60),
                               min_size=num_batches, max_size=num_batches),
                      label="sizes")
    cut = data.draw(st.integers(min_value=0, max_value=num_batches),
                    label="cut")
    batches = _encoded_batches(params, sizes, seed)

    straight = params.make_aggregator()
    for batch in batches:
        straight.absorb_batch(batch)

    before = params.make_aggregator()
    for batch in batches[:cut]:
        before.absorb_batch(batch)
    # through JSON, exactly as the on-disk snapshot store round-trips it
    blob = json.loads(json.dumps(before.snapshot()))
    revived = ServerAggregator.from_snapshot(blob)
    for batch in batches[cut:]:
        revived.absorb_batch(batch)

    assert revived.snapshot() == straight.snapshot()
    assert revived.num_reports == sum(sizes)


# --------------------------------------------------------------------------------------
# elastic membership (the shard map's exactness guarantee)
# --------------------------------------------------------------------------------------
#
# Growing and draining the cluster mid-stream is exact for the same
# algebraic reason sharding is: a grow only adds a routing entry at an
# unseen epoch cut, a drain only rewrites owners and merges the drained
# shard's state wholesale — no report is ever lost or double-counted.
# Hypothesis drives *any* add/drain script at *any* point in the stream,
# with arbitrary (not even monotone) epoch tags, and the merged cluster
# state must equal the offline engine bit for bit.

def _drive_elastic(params, batches, routes, tags, script):
    """Route an epoch-tagged chunk stream through a mutating ShardMap,
    applying add/drain transitions exactly as the router does, and return
    the final map plus the merge of every surviving shard."""
    from repro.cluster.shardmap import ShardMap
    from repro.engine import ShardPartition
    from repro.protocol.wire import merge_aggregators

    shard_map = ShardMap.initial(2, ShardPartition.sample(2, rng=0))
    aggs = {sid: params.make_aggregator() for sid in shard_map.shard_ids}
    ops_at = {}
    for index, op in script:
        ops_at.setdefault(index, []).append(op)
    seen_epoch = -1
    for i, batch in enumerate(batches):
        for op in ops_at.get(i, ()):
            if op[0] == "add":
                new = shard_map.next_id
                joined = shard_map.with_joining(new)
                last_cut = shard_map.entries[-1].cut_epoch
                cut = max(seen_epoch + 1,
                          0 if last_cut is None else last_cut + 1)
                partition = ShardPartition.sample(
                    len(joined.active_ids) + 1, rng=shard_map.version)
                shard_map = joined.with_activated(new, cut, partition)
                aggs[new] = params.make_aggregator()
            else:  # ("drain", position)
                active = shard_map.active_ids
                if len(active) < 2:
                    continue  # the last shard can never drain
                victim = active[op[1] % len(active)]
                target = active[(op[1] + 1) % len(active)]
                shard_map = shard_map.with_drained_routing(victim, target)
                # the epoch-boundary handoff: packed exact state moves
                # wholesale to the merge target, then the id is retired
                aggs[target] = aggs[target].merge(aggs.pop(victim))
                shard_map = shard_map.with_removed(victim)
        seen_epoch = max(seen_epoch, tags[i])
        owner = shard_map.shard_for(routes[i], tags[i])
        aggs[owner].absorb_batch(batch)
    return shard_map, merge_aggregators(list(aggs.values()))


@pytest.mark.parametrize("name,params", PROTOCOL_CASES, ids=PROTOCOL_IDS)
@given(data=st.data())
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_elastic_membership_matches_offline_engine(name, params, data):
    """Any add/drain script at any epoch cuts: merged state == offline."""
    from repro.engine import encode_stream, run_simulation

    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1),
                     label="seed")
    num_users = data.draw(st.integers(min_value=60, max_value=240),
                          label="num_users")
    chunk_size = data.draw(st.integers(min_value=20, max_value=80),
                           label="chunk_size")
    gen = np.random.default_rng(seed)
    values = gen.integers(0, params.domain_size, size=num_users)
    offline = run_simulation(params, values,
                             rng=np.random.default_rng(seed),
                             chunk_size=chunk_size)
    batches = list(encode_stream(params, values,
                                 rng=np.random.default_rng(seed),
                                 chunk_size=chunk_size))
    routes, start = [], 0
    for batch in batches:
        routes.append(start)
        start += len(batch)
    n = len(batches)
    tags = data.draw(st.lists(st.integers(min_value=0, max_value=5),
                              min_size=n, max_size=n), label="epochs")
    num_ops = data.draw(st.integers(min_value=0, max_value=4),
                        label="num_ops")
    script = [
        (data.draw(st.integers(min_value=0, max_value=n - 1),
                   label=f"op{k}_index"),
         (("add",) if data.draw(st.booleans(), label=f"op{k}_is_add")
          else ("drain", data.draw(st.integers(min_value=0, max_value=7),
                                   label=f"op{k}_victim"))))
        for k in range(num_ops)
    ]

    final_map, merged = _drive_elastic(params, batches, routes, tags, script)
    assert merged.snapshot() == offline.aggregator.snapshot()
    assert merged.num_reports == num_users
    # tombstones never shrink and never collide with live ids
    assert not set(final_map.retired) & set(final_map.shard_ids)
    assert final_map.next_id > max(final_map.shard_ids)


# --------------------------------------------------------------------------------------
# exact integer Hadamard decode == the old float transform, bit for bit
# --------------------------------------------------------------------------------------

def _reference_fwht(vector):
    """Test-only oracle: the level-by-level float butterfly the decoder replaced."""
    vec = np.array(vector, dtype=float, copy=True)
    n = vec.shape[0]
    h = 1
    while h < n:
        view = vec.reshape(-1, 2 * h)
        left = view[:, :h]
        right = view[:, h:]
        difference = left - right
        left += right
        right[:] = difference
        h *= 2
    return vec


def _assert_decode_bit_identical(accumulator, domain_size, epsilon=1.0):
    """Old float decode vs ``hadamard_outputs`` and the aggregator's histogram."""
    attenuation = (math.exp(epsilon) - 1.0) / (math.exp(epsilon) + 1.0)
    old = _reference_fwht(accumulator)[1:domain_size + 1] / attenuation
    new = hadamard_outputs(accumulator, domain_size) / attenuation
    assert new.dtype == old.dtype and np.array_equal(new, old)
    if domain_size:
        aggregator = ExplicitHistogramParams(domain_size,
                                             epsilon).make_aggregator()
        aggregator.counts = accumulator
        assert np.array_equal(aggregator.histogram(), old)


def _accumulator(domain_size, seed, bits):
    """Random signed counts with sum(|x|) < 2^53, as ``bits``-bit draws give."""
    size = next_power_of_two(domain_size + 1)
    bound = 1 << bits
    return np.random.default_rng(seed).integers(-bound, bound + 1, size=size)


@given(domain_size=st.integers(min_value=0, max_value=(1 << 12) - 1),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       bits=st.integers(min_value=0, max_value=40),
       epsilon=st.floats(min_value=0.05, max_value=8.0))
@settings(max_examples=200, deadline=None)
def test_integer_hadamard_decode_is_bit_identical(domain_size, seed, bits,
                                                  epsilon):
    _assert_decode_bit_identical(_accumulator(domain_size, seed, bits),
                                 domain_size, epsilon)


def test_integer_hadamard_decode_every_shape_up_to_4096():
    """Every P in 1..2^12 and every D with next_power_of_two(D+1) == P."""
    for domain_size in range(1 << 12):
        accumulator = _accumulator(domain_size, domain_size, 30)
        old = _reference_fwht(accumulator)[1:domain_size + 1]
        assert np.array_equal(hadamard_outputs(accumulator, domain_size), old)


@pytest.mark.parametrize("domain_size", [
    0, 1,                                # P < 4 (P = 1, 2)
    3, 7, 15, 1023, 4095,                # D+1 == P: a fold of width P/2
    2, 4, 8, 16, 1024, 2048,             # D+1 == P/2+1: a one-output fold
])
@pytest.mark.parametrize("zero", [False, True], ids=["random", "all_zero"])
def test_integer_hadamard_decode_edge_shapes(domain_size, zero):
    accumulator = _accumulator(domain_size, 11, 35)
    if zero:
        accumulator[:] = 0
    _assert_decode_bit_identical(accumulator, domain_size)


def test_integer_hadamard_decode_expander_sketch_shape():
    """One 2^21-row accumulator at D = 7*16*256*37, the benchmarked shape."""
    domain_size = 7 * 16 * 256 * 37
    accumulator = _accumulator(domain_size, 5, 20)
    assert accumulator.size == 1 << 21
    _assert_decode_bit_identical(accumulator, domain_size)


def test_integer_hadamard_decode_rejects_wrong_length():
    with pytest.raises(ValueError, match="next_power_of_two"):
        hadamard_outputs(np.zeros(16, dtype=np.int64), 7)


# --------------------------------------------------------------------------------------
# the int32-narrowed decode == the int64 reference at the width boundary
# --------------------------------------------------------------------------------------

def test_decode_width_boundary():
    """Partial sums bounded by 2^31 - 1 fit int32; a bound of 2^31 does not."""
    assert _decode_dtype(2**31 - 1) is np.int32
    assert _decode_dtype(2**31) is np.int64


def _column_pattern(size, column):
    """``H[:, column]``: the accumulator whose output ``column`` is ``size``."""
    parity = np.bitwise_count(np.arange(size) & column) & 1
    return 1 - 2 * parity.astype(np.int64)


@pytest.mark.parametrize("domain_size", [1, 2, 7, 8, 1023, 1024, 4095])
@pytest.mark.parametrize("signs", ["column", "random"])
def test_narrowed_decode_is_exact_at_the_width_boundary(domain_size, signs):
    """P * max|acc| just below 2^31 decodes in int32, exactly 2^31 in int64;
    both equal the reference transform, including an output of magnitude
    P * max|acc| itself (the ``column`` pattern)."""
    size = next_power_of_two(domain_size + 1)
    pattern = (_column_pattern(size, domain_size) if signs == "column"
               else 1 - 2 * np.random.default_rng(size).integers(0, 2, size))
    for magnitude, dtype in (((2**31 - 1) // size, np.int32),
                             (2**31 // size, np.int64)):
        accumulator = magnitude * pattern
        outputs = hadamard_outputs(accumulator, domain_size)
        reference = _reference_fwht(accumulator)[1:domain_size + 1]
        assert outputs.dtype == dtype
        assert np.array_equal(outputs, reference)
        if signs == "column":
            assert outputs[-1] == size * magnitude


def test_restored_huge_rows_take_the_int64_path():
    """A snapshot's accumulator cells are not bounded by its num_reports:
    rows of ~2^40 from a restore with 3 reports still decode exactly."""
    params = ExplicitHistogramParams(1000, 1.0)
    snapshot = params.make_aggregator().absorb_batch(
        params.make_encoder().encode_batch([1, 2, 3], rng=0)).snapshot()
    huge = np.random.default_rng(0).integers(-2**40, 2**40, size=params.padded)
    snapshot["state"]["counts"] = huge.tolist()
    restored = ServerAggregator.from_snapshot(snapshot)
    assert restored.num_reports == 3
    outputs = hadamard_outputs(restored.counts, params.domain_size)
    reference = _reference_fwht(huge)[1:params.domain_size + 1]
    assert outputs.dtype == np.int64
    assert np.array_equal(outputs, reference)
    assert np.array_equal(restored.histogram(),
                          reference / params.attenuation)


# --------------------------------------------------------------------------------------
# the parallel integer reducer == the float-histogram finalize it replaced
# --------------------------------------------------------------------------------------

def _reference_coordinate_lists(block, coordinate, code, params, lists):
    """Test-only reference for steps 2-3 of one coordinate: the whole float
    histogram, ranked as the old finalize ranked it.  (That finalize read
    it through the fitted oracle, which raised on a coordinate with no
    reports; the aggregator's own histogram is the same array.)"""
    cell_std = math.sqrt(max(block.num_reports, 1)
                         * block.finalize().estimator_variance_per_user)
    threshold = params.threshold_std * cell_std
    histogram = block.histogram().reshape(
        params.num_buckets, params.hash_range, code.z_alphabet_size)
    best_z = histogram.argmax(axis=2)
    best_value = np.take_along_axis(histogram, best_z[:, :, None],
                                    axis=2)[:, :, 0]
    order = np.argsort(-best_value, axis=1)
    ranked_value = np.take_along_axis(best_value, order, axis=1)
    ranked_z = np.take_along_axis(best_z, order, axis=1)
    keep = np.minimum((ranked_value >= threshold).sum(axis=1),
                      params.list_size)
    for bucket in range(params.num_buckets):
        count = int(keep[bucket])
        lists[bucket][coordinate] = [
            (int(y), int(z)) for y, z in zip(order[bucket, :count],
                                             ranked_z[bucket, :count],
                                             strict=True)]


def _reference_candidates(aggregator):
    """Candidates and list sizes of the serial float-histogram finalize."""
    params = aggregator.params
    if params.protocol == "expander_sketch":
        pp = params.params
        lists = [[[] for _ in range(pp.num_coordinates)]
                 for _ in range(pp.num_buckets)]
        for m in range(pp.num_coordinates):
            _reference_coordinate_lists(aggregator.stage1(m), m,
                                        params.code, pp, lists)
        return (decode_candidate_lists(params.code, lists, pp.num_buckets),
                [len(per_coord) for per_bucket in lists
                 for per_coord in per_bucket])
    candidates = []
    for r in range(params.repetitions):
        reconstructed = np.zeros(params.hash_range, dtype=np.int64)
        passes = np.ones(params.hash_range, dtype=bool)
        for m in range(params.num_symbols):
            block = aggregator.stage1(r * params.num_symbols + m)
            cell_std = math.sqrt(max(block.num_reports, 1)
                                 * block.finalize().estimator_variance_per_user)
            table = block.histogram().reshape(params.hash_range,
                                               params.alphabet_size)
            passes &= table.max(axis=1) >= params.threshold_std * cell_std
            reconstructed |= table.argmax(axis=1) << (m * params.symbol_bits)
        for candidate in reconstructed[
                passes & (reconstructed < params.domain_size)].tolist():
            if candidate not in candidates:
                candidates.append(candidate)
    return candidates, None


_REDUCER_CASES = {
    "expander_sketch": PrivateExpanderSketch(
        domain_size=1 << 12, epsilon=4.0).public_params(
            10_000, rng=np.random.default_rng(3)),
    "single_hash_bnst": SingleHashHeavyHitters(
        domain_size=1 << 12, epsilon=4.0, num_repetitions=2).public_params(
            10_000, rng=np.random.default_rng(5)),
}


def _planted_values(domain_size, num_users, gen):
    """A few heavy values over a uniform background, so lists fill up."""
    heavy = gen.integers(0, domain_size, size=3)
    values = gen.integers(0, domain_size, size=num_users)
    mask = gen.random(num_users) < 0.6
    values[mask] = heavy[gen.integers(0, 3, size=int(mask.sum()))]
    return values


def _sharded_aggregate(params, seed, num_users, num_shards):
    gen = np.random.default_rng(seed)
    values = _planted_values(params.domain_size, num_users, gen)
    batch = params.make_encoder().encode_batch(values, gen)
    cuts = np.sort(gen.integers(0, num_users + 1, size=num_shards - 1))
    return merge_aggregators([
        params.make_aggregator().absorb_batch(batch.select(rows))
        for rows in np.split(np.arange(num_users), cuts)])


@pytest.mark.parametrize("name", sorted(_REDUCER_CASES))
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       num_users=st.integers(min_value=1, max_value=10_000),
       num_shards=st.integers(min_value=1, max_value=4))
@settings(max_examples=10, deadline=None)
def test_finalize_equals_the_float_histogram_reference(name, seed, num_users,
                                                       num_shards):
    params = _REDUCER_CASES[name]
    aggregator = _sharded_aggregate(params, seed, num_users, num_shards)
    result = aggregator.finalize()
    candidates, list_sizes = _reference_candidates(aggregator)
    assert result.candidates == candidates
    if candidates:
        estimated = aggregator.final().finalize().estimate_many(candidates)
        assert result.estimates == {
            int(x): float(a) for x, a in zip(candidates, estimated,
                                             strict=True)}
    else:
        assert result.estimates == {}
    if list_sizes is not None:
        assert result.metadata["list_sizes"] == list_sizes


@pytest.mark.parametrize("name", sorted(_REDUCER_CASES))
def test_reducer_reference_is_not_vacuous(name):
    """The planted workload gives the equality above candidates to compare."""
    aggregator = _sharded_aggregate(_REDUCER_CASES[name], 1, 10_000, 3)
    assert aggregator.finalize().candidates
    assert _reference_candidates(aggregator)[0]


@pytest.mark.parametrize("name", sorted(_REDUCER_CASES))
def test_finalize_with_empty_groups(name):
    """One report leaves every other stage-1 group empty: finalize answers
    (no candidates) instead of raising on the empty groups' oracles."""
    params = _REDUCER_CASES[name]
    aggregator = params.make_aggregator().absorb_batch(
        params.make_encoder().encode_batch([5], rng=0))
    assert aggregator.finalize().candidates == _reference_candidates(
        aggregator)[0] == []


def test_finalize_holds_one_decoded_block_per_worker(monkeypatch):
    """Every pool worker returns only its (B, Y) arg-max, never a decoded
    block: with the pool pinned to 2 workers, finalize's traced peak stays
    under 3 decode buffers (holding all M = 9 decodes would not)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    workers = 2
    params = _ENCODER_CASES["expander_sketch/2^20"]
    gen = np.random.default_rng(1)
    aggregator = params.make_aggregator().absorb_batch(
        params.make_encoder().encode_batch(
            gen.integers(0, params.domain_size, size=20_000), gen))
    block = aggregator.stage1(0)
    # one decode's buffer: the padded length in the decode's own width
    bytes_per_decode = (block.counts.size * hadamard_outputs(
        block.counts, block.params.domain_size).dtype.itemsize)
    assert params.params.num_coordinates >= 3 * (workers + 1)
    aggregator.finalize()                    # warm caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        aggregator.finalize()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < (workers + 1) * bytes_per_decode, peak


# --------------------------------------------------------------------------------------
# flat aggregator state == the nested mask-loop reference
# --------------------------------------------------------------------------------------

def _reference_state(params):
    """Empty nested state of ``params``: one dict per (child) aggregator, as
    the per-protocol aggregators kept it before the flat ``counts``."""
    def child(sub):
        return {"num_reports": 0, "state": _reference_state(sub)}
    if params.protocol == "explicit_histogram":
        size = (params.padded if params.randomizer == "hadamard"
                else params.domain_size)
        return {"accumulator": np.zeros(size, dtype=np.int64)}
    if params.protocol == "rappor":
        return {"bit_counts": np.zeros(params.num_bits, dtype=np.int64)}
    if params.protocol == "count_mean_sketch":
        return {"ones": np.zeros((params.num_hashes, params.num_buckets),
                              dtype=np.int64),
                "row_counts": np.zeros(params.num_hashes, dtype=np.int64)}
    if params.protocol == "hashtogram":
        return {"inner": [child(params.inner)
                          for _ in range(params.num_repetitions)]}
    groups = (params.params.num_coordinates
              if params.protocol == "expander_sketch" else params.num_groups)
    return {"final": child(params.final),
            "stage1": [child(params.stage1) for _ in range(groups)]}


def _reference_absorb(params, state, columns):
    """Mask-loop absorb: route each report into its child's nested state."""
    def into(child, sub_params, sub_columns, count):
        child["num_reports"] += count
        if count:
            _reference_absorb(sub_params, child["state"], sub_columns)

    if params.protocol == "explicit_histogram":
        if params.randomizer == "hadamard":
            np.add.at(state["accumulator"], columns["row"],
                      np.asarray(columns["bit"], dtype=np.int64))
        elif params.randomizer == "oue":
            state["accumulator"] += columns["bits"].sum(axis=0,
                                                        dtype=np.int64)
        else:
            state["accumulator"] += np.bincount(
                columns["value"], minlength=params.domain_size)
    elif params.protocol == "rappor":
        state["bit_counts"] += columns["bits"].sum(axis=0, dtype=np.int64)
    elif params.protocol == "count_mean_sketch":
        np.add.at(state["ones"], columns["row"],
                  np.asarray(columns["bits"], dtype=np.int64))
        state["row_counts"] += np.bincount(columns["row"],
                                           minlength=params.num_hashes)
    elif params.protocol == "hashtogram":
        inner = {k: c for k, c in columns.items() if k != "repetition"}
        for t, child in enumerate(state["inner"]):
            mask = columns["repetition"] == t
            into(child, params.inner, {k: c[mask] for k, c in inner.items()},
                 int(mask.sum()))
    else:
        key = "coordinate" if params.protocol == "expander_sketch" else "group"
        stage = {k[3:]: c for k, c in columns.items() if k.startswith("s1_")}
        final = {k[4:]: c for k, c in columns.items() if k.startswith("fin_")}
        for g, child in enumerate(state["stage1"]):
            mask = columns[key] == g
            into(child, params.stage1, {k: c[mask] for k, c in stage.items()},
                 int(mask.sum()))
        into(state["final"], params.final, final, len(columns[key]))


def _reference_merge(first, second):
    """Merge two nested states: every count summed leaf by leaf."""
    if isinstance(first, dict):
        return {key: _reference_merge(first[key], second[key])
                for key in first}
    if isinstance(first, list):
        return [_reference_merge(a, b) for a, b in zip(first, second,
                                                       strict=True)]
    return first + second


def _reference_leaves(state):
    """The nested state's counts in sorted-key, list-item order."""
    if isinstance(state, dict):
        return np.concatenate([_reference_leaves(state[key])
                               for key in sorted(state)])
    if isinstance(state, list):
        return np.concatenate([_reference_leaves(item) for item in state])
    return np.asarray(state, dtype=np.int64).ravel()


def _reference_state_size(state):
    """Scalars of the nested state, report counts (``num_reports``, CMS
    ``row_counts``) excluded — the figure ``state_size`` always reported."""
    if isinstance(state, dict):
        return sum(_reference_state_size(state[key]) for key in state
                   if key not in ("num_reports", "row_counts"))
    if isinstance(state, list):
        return sum(_reference_state_size(item) for item in state)
    return int(np.asarray(state).size)


_REFERENCE_CASES = {
    "explicit/hadamard": ExplicitHistogramParams(64, 1.0, "hadamard"),
    "explicit/oue": ExplicitHistogramParams(16, 1.0, "oue"),
    "explicit/krr": ExplicitHistogramParams(16, 1.0, "krr"),
    "hashtogram": HashtogramParams.create(256, 1.0, num_repetitions=3,
                                          num_buckets=4, rng=0),
    "hashtogram/oue": HashtogramParams.create(
        256, 1.0, num_repetitions=2, num_buckets=4, inner_randomizer="oue",
        assignment="uniform", rng=1),
    "count_mean_sketch": CountMeanSketchParams.create(
        256, 1.0, num_hashes=3, num_buckets=8, rng=0),
    "rappor": RapporParams.create(256, 2.0, num_bits=16, rng=0),
    "expander_sketch": PrivateExpanderSketch(
        domain_size=1 << 8, epsilon=4.0, num_buckets=1, hash_range=4,
        expander_degree=2, final_oracle_repetitions=2,
        final_oracle_buckets=4).public_params(1000, rng=3),
    "single_hash": SingleHashHeavyHitters(
        domain_size=1 << 8, epsilon=4.0, num_repetitions=1,
        hash_range=4).public_params(300, rng=5),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_CASES))
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       num_users=st.integers(min_value=1, max_value=400),
       num_shards=st.integers(min_value=1, max_value=4))
@settings(max_examples=12, deadline=None)
def test_flat_counts_equal_the_mask_loop_reference(name, seed, num_users,
                                                   num_shards):
    params = _REFERENCE_CASES[name]
    gen = np.random.default_rng(seed)
    values = gen.integers(0, params.domain_size, size=num_users)
    batch = params.make_encoder().encode_batch(values, gen)
    cuts = np.sort(gen.integers(0, num_users + 1, size=num_shards - 1))
    shards, references = [], []
    for rows in np.split(np.arange(num_users), cuts):
        part = batch.select(rows)
        shards.append(params.make_aggregator().absorb_batch(part))
        references.append(_reference_state(params))
        if len(part):
            _reference_absorb(params, references[-1], part.columns)
    order = gen.permutation(num_shards)
    merged = merge_aggregators([shards[i] for i in order])
    reference = references[order[0]]
    for i in order[1:]:
        reference = _reference_merge(reference, references[i])
    restored = ServerAggregator.from_snapshot(
        json.loads(json.dumps(merged.snapshot())))
    assert restored.num_reports == num_users
    assert np.array_equal(restored.counts, _reference_leaves(reference))
    assert restored.state_size == _reference_state_size(reference)


# --------------------------------------------------------------------------------------
# vectorized client encoders == the per-group mask-loop reference
# --------------------------------------------------------------------------------------
#
# The shipped encoders compute every user's cell in one gathered Horner pass.
# The reference below is the per-coordinate / per-repetition mask loop they
# replaced, kept test-only: same RNG draws in the same order, so for one
# seed the encoded columns must match exactly, dtypes included.

_ASSIGNMENT_DOMAIN = 1 << 31


def _reference_rs_encode(code, values):
    """Every codeword symbol of every value: ``(n, M)``, one point at a time."""
    digits = np.empty((values.size, code.message_length), dtype=np.int64)
    remaining = values.copy()
    for j in range(code.message_length):
        digits[:, j] = remaining % code.prime
        remaining //= code.prime
    codewords = np.empty((values.size, code.codeword_length), dtype=np.int64)
    for point in range(code.codeword_length):
        acc = np.zeros(values.size, dtype=np.int64)
        for j in range(code.message_length - 1, -1, -1):
            acc = (acc * point + digits[:, j]) % code.prime
        codewords[:, point] = acc
    return codewords


def _reference_expander_cells(values, buckets, chunks, coordinate, code,
                              pp):
    """One coordinate's members mapped to their (b, y, z) cell."""
    if values.size == 0:
        return values
    y_values = np.asarray(code.hashes[coordinate](values))
    neighbor_part = np.zeros(values.size, dtype=np.int64)
    for neighbor in reversed(code.expander.neighbors(coordinate)):
        neighbor_part = (neighbor_part * pp.hash_range
                         + np.asarray(code.hashes[neighbor](values)))
    z_values = neighbor_part * code.outer_code.prime + chunks
    cells = (buckets * pp.hash_range + y_values) * code.z_alphabet_size + z_values
    return cells.astype(np.int64)


def _reference_hashtogram_encode(params, values, gen, first_user_index):
    n = values.size
    reps = params.num_repetitions
    if params.assignment == "round_robin":
        assignment = (first_user_index + np.arange(n)) % reps
    else:
        assignment = gen.integers(0, reps, size=n)
    cells = np.zeros(n, dtype=np.int64)
    for t in range(reps):
        mask = assignment == t
        if mask.any():
            buckets = np.asarray(params.bucket_hashes[t](values[mask]))
            signs = np.asarray(params.sign_hashes[t](values[mask]))
            cells[mask] = 2 * buckets + (signs > 0).astype(np.int64)
    inner = params.inner.make_encoder().encode_batch(cells, gen)
    return {"repetition": assignment.astype(np.int64), **inner.columns}


def _reference_two_stage_encode(params, values, gen, first_user_index):
    n = values.size
    indices = (first_user_index + np.arange(n)) % _ASSIGNMENT_DOMAIN
    groups = np.asarray(params.assignment_hash(indices))
    cells = np.zeros(n, dtype=np.int64)
    if params.protocol == "expander_sketch":
        partition = np.asarray(params.partition_hash(values))
        chunks = _reference_rs_encode(params.code.outer_code, values)
        for m in range(params.params.num_coordinates):
            mask = groups == m
            if mask.any():
                cells[mask] = _reference_expander_cells(
                    values[mask], partition[mask], chunks[mask, m], m,
                    params.code, params.params)
    else:
        repetition = groups // params.num_symbols
        symbol_index = groups % params.num_symbols
        symbols = params.symbols_of(values)
        for r in range(params.repetitions):
            mask = repetition == r
            if mask.any():
                hash_values = np.asarray(params.hashes[r](values[mask]))
                cells[mask] = (hash_values * params.alphabet_size
                               + symbols[mask, symbol_index[mask]])
    stage1 = params.stage1.make_encoder().encode_batch(cells, gen)
    final = _reference_hashtogram_encode(params.final, values, gen,
                                         first_user_index)
    columns = {params.group_column: groups.astype(np.int64)}
    columns.update({"s1_" + key: col for key, col in stage1.columns.items()})
    columns.update({"fin_" + key: col for key, col in final.items()})
    return columns


def _reference_rappor_encode(params, values, gen):
    randomizer = params.randomizer
    if values.size == 0:
        return {"bits": np.zeros((0, params.num_bits), dtype=np.uint8)}
    unique_values, inverse = np.unique(values, return_inverse=True)
    blooms = np.stack([randomizer.bloom_bits(int(v)) for v in unique_values])
    f = randomizer.flip_probability
    prob_one = np.where(blooms[inverse] == 1, 1.0 - f / 2.0, f / 2.0)
    return {"bits": (gen.random((values.size, params.num_bits)) < prob_one
                     ).astype(np.uint8)}


def _reference_encode(params, values, gen, first_user_index):
    if params.protocol == "hashtogram":
        return _reference_hashtogram_encode(params, values, gen,
                                            first_user_index)
    if params.protocol == "rappor":
        return _reference_rappor_encode(params, values, gen)
    return _reference_two_stage_encode(params, values, gen, first_user_index)


_ENCODER_CASES = {
    "expander_sketch": _REFERENCE_CASES["expander_sketch"],
    "expander_sketch/2^20": PrivateExpanderSketch(1 << 20, 1.0).public_params(
        20_000, rng=np.random.default_rng(3)),
    "single_hash_bnst": _REFERENCE_CASES["single_hash"],
    "single_hash_bnst/2^12": SingleHashHeavyHitters(
        domain_size=1 << 12, epsilon=4.0,
        num_repetitions=2).public_params(800, rng=np.random.default_rng(5)),
    "rappor": RapporParams.create(4096, 2.0, num_bits=64, num_hashes=3,
                                  rng=2),
    **{f"hashtogram/{assignment}/{inner}": HashtogramParams.create(
        1 << 12, 1.0, num_repetitions=3, num_buckets=8,
        inner_randomizer=inner, assignment=assignment, rng=4)
       for assignment in ("round_robin", "uniform")
       for inner in ("hadamard", "oue")},
}


@pytest.mark.parametrize("name", sorted(_ENCODER_CASES))
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       num_users=st.one_of(st.just(0), st.integers(min_value=1,
                                                   max_value=300)),
       first_user_index=st.one_of(
           st.integers(min_value=0, max_value=1000),
           st.integers(min_value=_ASSIGNMENT_DOMAIN - 300,
                       max_value=_ASSIGNMENT_DOMAIN + 300),
           st.integers(min_value=0, max_value=1 << 40)))
@settings(max_examples=15, deadline=None)
def test_encoders_equal_the_mask_loop_reference(name, seed, num_users,
                                                first_user_index):
    params = _ENCODER_CASES[name]
    values = np.random.default_rng(seed).integers(0, params.domain_size,
                                                  size=num_users)
    gen, reference_gen = (np.random.default_rng((seed, 1)) for _ in range(2))
    batch = params.make_encoder().encode_batch(
        values, gen, first_user_index=first_user_index)
    expected = _reference_encode(params, values, reference_gen,
                                 first_user_index)
    assert list(batch.columns) == list(expected)
    for key, column in expected.items():
        assert batch.columns[key].dtype == column.dtype, key
        assert batch.columns[key].shape == column.shape, key
        assert np.array_equal(batch.columns[key], column), key
    assert gen.bit_generator.state == reference_gen.bit_generator.state


def test_expander_cells_match_the_pure_python_code():
    """The encoder's reference shares its vector building blocks, so a few
    users are also checked against ``code.encode(x)`` and the scalar
    partition hash: cell = (g(x) * Y + h_m(x)) * Z + E~nc(x)_m."""
    params = _ENCODER_CASES["expander_sketch/2^20"]
    code, hash_range = params.code, params.params.hash_range
    values = np.random.default_rng(8).integers(0, params.domain_size, size=6)
    groups = np.arange(6) % params.params.num_coordinates
    cells = params.make_encoder().stage1_cells(values, groups)
    for x, m, cell in zip(values.tolist(), groups.tolist(), cells.tolist(),
                          strict=True):
        symbol = code.encode(x)[m]
        assert cell == ((params.partition_hash(x) * hash_range + symbol.y)
                        * code.z_alphabet_size + symbol.z)


def test_rappor_bloom_patterns_match_bloom_bits():
    params = _ENCODER_CASES["rappor"]
    values = np.random.default_rng(9).integers(0, params.domain_size,
                                               size=200)
    blooms = params.bloom_patterns(values)
    assert blooms.shape == (200, params.num_bits)
    for row, x in zip(blooms, values.tolist(), strict=True):
        assert np.array_equal(row, params.randomizer.bloom_bits(x) == 1)
