"""Wire protocols for the heavy-hitters constructions.

**Paper reference.** :class:`ExpanderSketchParams` is the wire form of
Algorithm PrivateExpanderSketch (Section 3.3) — the paper's main result,
worst-case-optimal error ``O((1/ε) sqrt(n log(|X|/β)))`` simultaneously in
every parameter;  :class:`SingleHashParams` is the single-hash reduction of
Bassily et al. [3] (Section 3.1.1), the baseline it improves on.

**Report size.** Both protocols ship one stage-1 small-domain report at
privacy ε/2 plus one stage-2 Hashtogram report at ε/2 — ``O(log n)`` bits
total with the default Hadamard randomizers (the exact width is
``params.report_bits``).

**Server cost.** One small-domain integer accumulator per coordinate /
(repetition, symbol) group plus the final Hashtogram state, all blocks of
one flat count vector (:class:`_TwoStageParams`); the incremental
aggregators below hold all of them simultaneously (mergeable, snapshotable),
while the one-shot simulation path in :mod:`repro.core.heavy_hitters`
streams one coordinate at a time to keep the paper's peak-memory profile.
Both reduce each stage-1 block with :func:`stage1_best`; the incremental
aggregators map it over their blocks on one thread per usable CPU.

Coordinate/group assignment is a published pairwise-independent hash of the
public user index — the stateless counterpart of the paper's random user
partition.  Unlike plain round-robin it is not a function of input *order*,
so group membership stays value-independent even when record order correlates
with the held values; the reports themselves carry only the randomized
payloads.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes.list_recoverable import (
    ListRecoveryParameters,
    UniqueListRecoverableCode,
)
from repro.core.params import ProtocolParameters
from repro.core.results import HeavyHitterResult
from repro.hashing.kwise import KWiseHash, KWiseHashFamily, StackedKWiseHash
from repro.protocol.explicit import (
    ExplicitHistogramAggregator,
    ExplicitHistogramParams,
)
from repro.protocol.hashtogram import HashtogramAggregator, HashtogramParams
from repro.protocol.wire import (
    ClientEncoder,
    CountLayout,
    PublicParams,
    ReportBatch,
    ServerAggregator,
    int_column,
    kwise_hash_from_dict,
    kwise_hash_to_dict,
    nest_cells,
    register_protocol,
)
from repro.randomizers.hadamard import hadamard_outputs
from repro.utils.rng import RandomState, as_generator
from repro.utils.timer import ResourceMeter

_STAGE1_PREFIX = "s1_"
_FINAL_PREFIX = "fin_"

#: domain of the user-index assignment hash (indices are arbitrary client ids)
_ASSIGNMENT_DOMAIN = 1 << 31


def _sample_assignment_hash(num_groups: int, gen) -> KWiseHash:
    """Pairwise-independent hash mapping user indices to groups.

    This is the stateless stand-in for the paper's random partition of [n]:
    each client derives her group from her own (arbitrary) index, and the
    grouping is independent of both the held values and the record order.
    """
    family = KWiseHashFamily.create(_ASSIGNMENT_DOMAIN, num_groups,
                                    independence=2)
    return family.sample(gen)


# --------------------------------------------------------------------------------------
# shared helpers (also used by the streaming simulation paths in core/ and baselines/)
# --------------------------------------------------------------------------------------

def _stage_columns(columns: Dict[str, np.ndarray],
                   prefix: str) -> Dict[str, np.ndarray]:
    """One stage's report columns, their stage prefix stripped."""
    return {key[len(prefix):]: col for key, col in columns.items()
            if key.startswith(prefix)}


def stage1_subbatch(batch: ReportBatch, mask: np.ndarray,
                    stage1_protocol: str) -> ReportBatch:
    """Extract the stage-1 report columns of the masked users."""
    return ReportBatch(stage1_protocol,
                       {key: col[mask] for key, col in _stage_columns(
                           batch.columns, _STAGE1_PREFIX).items()})


def final_subbatch(batch: ReportBatch, final_protocol: str) -> ReportBatch:
    """Extract the stage-2 (final-oracle) report columns of every user."""
    return ReportBatch(final_protocol,
                       _stage_columns(batch.columns, _FINAL_PREFIX))


class _TwoStageParams(PublicParams):
    """What both heavy-hitter wire protocols share: every report is one
    stage-1 small-domain report in one of ``num_groups`` groups (named by
    its ``group_column``) plus one final-stage Hashtogram report."""

    group_column = ""

    @property
    def report_bits(self) -> float:
        """Stage-1 small-domain report plus stage-2 Hashtogram report."""
        return self.stage1.report_bits + self.final.report_bits

    @property
    def public_randomness_bits(self) -> int:
        """Cached at construction; see the hashtogram note."""
        return self._public_randomness_bits

    @functools.cached_property
    def layout(self) -> CountLayout:
        """``final(n, R × [n_t, acc_t]) ++ num_groups × [n_g, acc_g]``:
        every report lands in the final oracle and in one stage-1 block."""
        return (CountLayout.blocks(1, "final", self.final.layout)
                + CountLayout.blocks(self.num_groups, self.group_column,
                                     self.stage1.layout))


class _TwoStageAggregator(ServerAggregator):
    """Shared state of both heavy-hitter wire protocols: one counted
    stage-1 block per group, behind one counted final Hashtogram block."""

    params: _TwoStageParams

    def stage1(self, group: int) -> ExplicitHistogramAggregator:
        """Zero-copy view of stage-1 group ``group``'s accumulator."""
        starts = self.params.layout.count_cells(self.params.group_column)
        return self._block(ExplicitHistogramAggregator, self.params.stage1,
                           starts[group])

    def final(self) -> HashtogramAggregator:
        """Zero-copy view of the final-stage Hashtogram aggregator."""
        return self._block(HashtogramAggregator, self.params.final,
                           self.params.layout.count_cells("final")[0])

    def _report_cells(self, columns) -> List[Tuple[np.ndarray, np.ndarray]]:
        params = self.params
        groups = int_column(columns, params.group_column, 0, params.num_groups)
        stage1 = self.stage1(0)._report_cells(
            _stage_columns(columns, _STAGE1_PREFIX))
        final = self.final()._report_cells(
            _stage_columns(columns, _FINAL_PREFIX))
        return (nest_cells(params.layout.count_cells("final"),
                           np.zeros_like(groups), final)
                + nest_cells(params.layout.count_cells(params.group_column),
                             groups, stage1))

    def _result(self, candidates: List[int], meter: ResourceMeter,
                protocol: str, metadata: Dict[str, object]
                ) -> HeavyHitterResult:
        """Step 5: estimate every candidate on the final oracle."""
        final_oracle = self.final().finalize()
        estimates: Dict[int, float] = {}
        if candidates:
            estimated = final_oracle.estimate_many(candidates)
            estimates = {int(x): float(a)
                         for x, a in zip(candidates, estimated, strict=True)}
        meter.observe_server_memory(self.state_size)
        return HeavyHitterResult(
            estimates=estimates,
            protocol=protocol,
            num_users=self.num_reports,
            epsilon=self.params.epsilon,
            meter=meter,
            candidates=candidates,
            oracle=final_oracle,
            metadata=metadata,
        )


class _TwoStageEncoder(ClientEncoder):
    """What both heavy-hitter clients share: user i's group is the published
    assignment hash of i; the user's stage-1 cell (:meth:`stage1_cells`)
    goes through the stage-1 small-domain protocol at ε/2 and the value
    itself through the final-stage Hashtogram at ε/2."""

    params: _TwoStageParams

    def _draw_user_index(self, gen: np.random.Generator) -> int:
        return int(gen.integers(0, _ASSIGNMENT_DOMAIN))

    def stage1_cells(self, values: np.ndarray, groups: np.ndarray
                     ) -> np.ndarray:
        """Each user's stage-1 cell given the user's group (one vectorized
        pass)."""
        raise NotImplementedError

    def encode_batch(self, values: Sequence[int], rng: RandomState = None,
                     first_user_index: int = 0) -> ReportBatch:
        gen = as_generator(rng)
        params = self.params
        values = np.asarray(values, dtype=np.int64)
        if values.size and (values.min() < 0 or values.max() >= params.domain_size):
            raise ValueError("values outside the declared domain")
        indices = (first_user_index + np.arange(values.size)) % _ASSIGNMENT_DOMAIN
        groups = np.asarray(params.assignment_hash(indices))
        stage1 = params.stage1.make_encoder().encode_batch(
            self.stage1_cells(values, groups), gen)
        final = params.final.make_encoder().encode_batch(
            values, gen, first_user_index=first_user_index)
        columns: Dict[str, np.ndarray] = {
            params.group_column: groups.astype(np.int64)}
        columns.update({_STAGE1_PREFIX + key: col
                        for key, col in stage1.columns.items()})
        columns.update({_FINAL_PREFIX + key: col
                        for key, col in final.columns.items()})
        return ReportBatch(params.protocol, columns)


def _best_cells(outputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Arg-max over the last axis and the maxima it picks."""
    best = outputs.argmax(axis=-1)
    return best, np.take_along_axis(outputs, best[..., None], axis=-1)[..., 0]


def stage1_best(block: ExplicitHistogramAggregator, shape: Tuple[int, ...]
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Step 3a for one stage-1 block: ``(best_z, best_value)``, the arg-max
    over the last axis of the block's decoded histogram, reshaped to
    ``shape``, and its estimate.

    A Hadamard block ranks its exact integer outputs and divides only the
    chosen ``shape[:-1]`` cells by the attenuation.  That gives exactly the
    floats and arg-maxes the division of the whole histogram gave: for
    att ≤ 1, x ↦ x / att is strictly increasing on integers below 2^52 in
    magnitude, and an output never exceeds the block's report count.  (Past
    2^52, reachable only by a restored accumulator, the integer ranking is
    the exact one.)  The decoded block never leaves this function, so a
    pool mapping it over the blocks holds one decoded block per worker.
    """
    params = block.params
    if params.randomizer != "hadamard":
        return _best_cells(block.histogram().reshape(shape))
    outputs = hadamard_outputs(block.counts, params.domain_size).reshape(shape)
    best, value = _best_cells(outputs)
    return best, value / params.attenuation


def detection_threshold(block: ExplicitHistogramAggregator,
                        threshold_std: float) -> float:
    """``threshold_std`` standard deviations of one block's cell noise."""
    return threshold_std * math.sqrt(max(block.num_reports, 1)
                                     * block.params.estimator_variance_per_user)


def append_coordinate_lists(best_z: np.ndarray, best_value: np.ndarray,
                            threshold: float, coordinate: int,
                            list_size: int,
                            lists: List[List[List[tuple]]]) -> None:
    """Step 3b of PrivateExpanderSketch for one coordinate.

    Given the per-(b, y) arg-max of :func:`stage1_best`, the pair (y, z) is
    kept if its estimate clears the detection threshold, largest estimates
    first, up to the list budget ℓ.  Fills ``lists[b][coordinate]``.
    """
    # One batched rank over every bucket at once (argsort of a row equals
    # argsort along axis=1, so tie order is unchanged).  The descending sort
    # makes the entries clearing the threshold a prefix of each row, so the
    # old walk-until-below-threshold loop reduces to a per-bucket count.
    order = np.argsort(-best_value, axis=1)
    ranked_value = np.take_along_axis(best_value, order, axis=1)
    ranked_z = np.take_along_axis(best_z, order, axis=1)
    keep = np.minimum((ranked_value >= threshold).sum(axis=1), list_size)
    for bucket in range(best_value.shape[0]):
        count = int(keep[bucket])
        lists[bucket][coordinate] = [
            (int(y), int(z)) for y, z in zip(order[bucket, :count],
                                             ranked_z[bucket, :count], strict=True)]


def _map_blocks(function, blocks: Sequence) -> List:
    """``[function(block) for block in blocks]`` on a thread pool of one
    worker per usable CPU (numpy releases the GIL in the decode)."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)        # no affinity API off Linux
    with ThreadPoolExecutor(min(cpus, len(blocks))) as pool:
        return list(pool.map(function, blocks))


def decode_candidate_lists(code: UniqueListRecoverableCode,
                           lists: List[List[List[tuple]]],
                           num_buckets: int) -> List[int]:
    """Step 4: decode every partition bucket and union the candidate sets."""
    candidates: List[int] = []
    seen = set()
    for bucket in range(num_buckets):
        for candidate in code.decode(lists[bucket]):
            if candidate not in seen:
                seen.add(candidate)
                candidates.append(candidate)
    return candidates


def _default_final_buckets(num_users: int) -> int:
    return max(16, int(math.ceil(math.sqrt(max(num_users, 1)))))


# --------------------------------------------------------------------------------------
# PrivateExpanderSketch wire protocol
# --------------------------------------------------------------------------------------

@register_protocol
class ExpanderSketchParams(_TwoStageParams):
    """Public randomness and configuration of one PrivateExpanderSketch run.

    Carries the random user partition policy (round-robin on the public user
    index), the partition hash g, the per-coordinate hashes h_m, the
    list-recoverable code (reconstructible from ``code_seed``), and the
    final-stage Hashtogram parameters.
    """

    protocol = "expander_sketch"
    group_column = "coordinate"

    def __init__(self, domain_size: int, epsilon: float,
                 params: ProtocolParameters, partition_hash: KWiseHash,
                 coordinate_hashes: Sequence[KWiseHash], code_seed: int,
                 final: HashtogramParams,
                 assignment_hash: KWiseHash) -> None:
        self.domain_size = int(domain_size)
        self.epsilon = float(epsilon)
        self.params = params
        self.partition_hash = partition_hash
        self.coordinate_hashes = list(coordinate_hashes)
        self.code_seed = int(code_seed)
        self.final = final
        self.assignment_hash = assignment_hash
        self.code = UniqueListRecoverableCode(
            ListRecoveryParameters(
                domain_size=domain_size,
                num_coordinates=params.num_coordinates,
                hash_range=params.hash_range,
                list_size=params.list_size,
                alpha=params.alpha,
                expander_degree=params.expander_degree,
                max_output_size=4 * params.list_size,
            ),
            self.coordinate_hashes,
            rng=np.random.default_rng(self.code_seed),
            rate=params.code_rate,
        )
        self.stage1 = ExplicitHistogramParams(self.num_cells,
                                              params.epsilon_per_stage,
                                              params.oracle_randomizer)
        self._public_randomness_bits = int(
            self.partition_hash.description_bits
            + sum(h.description_bits for h in self.coordinate_hashes)
            + self.assignment_hash.description_bits
            + self.final.public_randomness_bits)

    @classmethod
    def create(cls, num_users: int, domain_size: int, epsilon: float,
               params: ProtocolParameters, rng: RandomState = None
               ) -> "ExpanderSketchParams":
        """Sample all public randomness for a run with ``num_users`` users."""
        gen = as_generator(rng)
        partition_family = KWiseHashFamily.create(
            domain_size, params.num_buckets,
            independence=params.partition_independence)
        partition_hash = partition_family.sample(gen)
        coordinate_family = KWiseHashFamily.create(
            domain_size, params.hash_range, independence=2)
        coordinate_hashes = coordinate_family.sample_many(params.num_coordinates,
                                                          gen)
        code_seed = int(gen.integers(0, 2**63 - 1))
        assignment_hash = _sample_assignment_hash(params.num_coordinates, gen)
        final = HashtogramParams.create(
            domain_size, params.epsilon_per_stage,
            num_repetitions=params.final_oracle_repetitions,
            num_buckets=(params.final_oracle_buckets
                         or _default_final_buckets(num_users)),
            rng=gen)
        return cls(domain_size, epsilon, params, partition_hash,
                   coordinate_hashes, code_seed, final, assignment_hash)

    # ----- serialization ---------------------------------------------------------

    def _payload_dict(self) -> Dict[str, object]:
        return {"domain_size": self.domain_size,
                "epsilon": self.epsilon,
                "parameters": dataclasses.asdict(self.params),
                "partition_hash": kwise_hash_to_dict(self.partition_hash),
                "coordinate_hashes": [kwise_hash_to_dict(h)
                                      for h in self.coordinate_hashes],
                "code_seed": self.code_seed,
                "final": self.final.to_dict(),
                "assignment_hash": kwise_hash_to_dict(self.assignment_hash)}

    @classmethod
    def _from_payload(cls, payload: Dict[str, object]) -> "ExpanderSketchParams":
        return cls(int(payload["domain_size"]), float(payload["epsilon"]),
                   ProtocolParameters(**payload["parameters"]),
                   kwise_hash_from_dict(payload["partition_hash"]),
                   [kwise_hash_from_dict(h)
                    for h in payload["coordinate_hashes"]],
                   int(payload["code_seed"]),
                   HashtogramParams.from_dict(payload["final"]),
                   kwise_hash_from_dict(payload["assignment_hash"]))

    # ----- factories -------------------------------------------------------------

    def make_encoder(self) -> "ExpanderSketchEncoder":
        return ExpanderSketchEncoder(self)

    def make_aggregator(self) -> "ExpanderSketchAggregator":
        return ExpanderSketchAggregator(self)

    # ----- accounting / geometry -------------------------------------------------

    @property
    def num_cells(self) -> int:
        """Per-coordinate oracle domain size B * Y * Z."""
        return (self.params.num_buckets * self.params.hash_range
                * self.code.z_alphabet_size)

    @property
    def num_groups(self) -> int:
        """Stage-1 groups: one per code coordinate."""
        return self.params.num_coordinates

    # ----- client encode tables (built on first encode, not at setup) ------------

    @functools.cached_property
    def _coordinate_stack(self) -> StackedKWiseHash:
        """``h_1, ..., h_M`` stacked: ``stack(m, x) = h_m(x)``."""
        return StackedKWiseHash(self.coordinate_hashes)

    @functools.cached_property
    def _neighbor_table(self) -> np.ndarray:
        """``(M, d)`` int64: row m is the ordered expander neighbourhood Γ(m)."""
        return np.array(self.code.expander.neighbor_lists, dtype=np.int64)


class ExpanderSketchEncoder(_TwoStageEncoder):
    """Stateless PrivateExpanderSketch client.

    User i (hashed coordinate ``a(i)``, with ``a`` the published assignment
    hash) derives her cell ``(g(x), h_m(x), E~nc(x)_m)``, randomizes it
    through the stage-1 small-domain protocol at ε/2, and additionally
    randomizes her original value through the final-stage Hashtogram at ε/2.
    """

    params: ExpanderSketchParams

    def stage1_cells(self, values: np.ndarray, groups: np.ndarray
                     ) -> np.ndarray:
        """``(g(x), h_m(x), E~nc(x)_m)`` flattened, for m each user's
        coordinate; no loop over coordinates."""
        params = self.params
        code = params.code
        hash_range = params.params.hash_range
        y_values = params._coordinate_stack(groups, values)
        neighbor_hashes = params._coordinate_stack(
            params._neighbor_table[groups], values[:, None])
        # Packed z = chunk + prime * (neighbour hashes in base Y), matching
        # UniqueListRecoverableCode._pack_z.
        neighbor_part = np.zeros(values.size, dtype=np.int64)
        for column in neighbor_hashes.T[::-1]:
            neighbor_part = neighbor_part * hash_range + column
        z_values = (neighbor_part * code.outer_code.prime
                    + code.outer_code.evaluate_at(values, groups))
        buckets = np.asarray(params.partition_hash(values))
        return (buckets * hash_range + y_values) * code.z_alphabet_size + z_values


class ExpanderSketchAggregator(_TwoStageAggregator):
    """Mergeable server state: M stage-1 accumulators + the final Hashtogram.

    Holding every coordinate accumulator at once is what buys incremental,
    shardable ingestion; the one-shot simulation path in
    :meth:`repro.core.heavy_hitters.PrivateExpanderSketch.run` instead streams
    one coordinate at a time to keep the paper's peak-memory profile.
    """

    params: ExpanderSketchParams

    # ----- finalization -------------------------------------------------------------

    def finalize(self, meter: Optional[ResourceMeter] = None,
                 protocol_name: str = "private_expander_sketch"
                 ) -> HeavyHitterResult:
        """Steps 2-5: build the lists, decode every bucket, estimate candidates."""
        params = self.params
        pp = params.params
        meter = meter if meter is not None else ResourceMeter()
        lists: List[List[List[tuple]]] = [
            [[] for _ in range(pp.num_coordinates)]
            for _ in range(pp.num_buckets)]
        blocks = [self.stage1(m) for m in range(pp.num_coordinates)]
        shape = (pp.num_buckets, pp.hash_range, params.code.z_alphabet_size)
        best = _map_blocks(lambda block: stage1_best(block, shape), blocks)
        for m, (block, (best_z, best_value)) in enumerate(
                zip(blocks, best, strict=True)):
            append_coordinate_lists(
                best_z, best_value,
                detection_threshold(block, pp.threshold_std), m,
                pp.list_size, lists)
        group_sizes = [block.num_reports for block in blocks]
        candidates = decode_candidate_lists(params.code, lists, pp.num_buckets)
        return self._result(candidates, meter, protocol_name, {
            "parameters": pp.describe(),
            "group_sizes": group_sizes,
            "num_cells": params.num_cells,
            "report_bits": params.report_bits,
            "server_state_size": self.state_size,
            "list_sizes": [len(per_coord) for per_bucket in lists
                           for per_coord in per_bucket]})


# --------------------------------------------------------------------------------------
# Single-hash (Bassily et al. [3]) wire protocol
# --------------------------------------------------------------------------------------

@register_protocol
class SingleHashParams(_TwoStageParams):
    """Public parameters of the single-hash baseline of Section 3.1.1.

    One shared hash per repetition, symbol-by-symbol reconstruction; users are
    partitioned over the (repetition, symbol) groups by a published
    pairwise-independent hash of their index.
    """

    protocol = "single_hash_bnst"
    group_column = "group"

    def __init__(self, domain_size: int, epsilon: float, repetitions: int,
                 num_symbols: int, symbol_bits: int, hash_range: int,
                 threshold_std: float, hashes: Sequence[KWiseHash],
                 final: HashtogramParams,
                 assignment_hash: KWiseHash) -> None:
        self.domain_size = int(domain_size)
        self.epsilon = float(epsilon)
        self.repetitions = int(repetitions)
        self.num_symbols = int(num_symbols)
        self.symbol_bits = int(symbol_bits)
        self.hash_range = int(hash_range)
        self.threshold_std = float(threshold_std)
        if len(hashes) != repetitions:
            raise ValueError("need exactly one shared hash per repetition")
        self.hashes = list(hashes)
        self.final = final
        self.assignment_hash = assignment_hash
        self.stage1 = ExplicitHistogramParams(hash_range * self.alphabet_size,
                                              epsilon / 2.0, "hadamard")
        self._public_randomness_bits = int(
            sum(h.description_bits for h in self.hashes)
            + self.assignment_hash.description_bits
            + self.final.public_randomness_bits)

    @property
    def alphabet_size(self) -> int:
        return 1 << self.symbol_bits

    @property
    def num_groups(self) -> int:
        return self.repetitions * self.num_symbols

    @classmethod
    def create(cls, num_users: int, domain_size: int, epsilon: float,
               repetitions: int, num_symbols: int, symbol_bits: int,
               hash_range: int, threshold_std: float = 2.0,
               rng: RandomState = None) -> "SingleHashParams":
        """Sample the shared hashes and the final-oracle randomness."""
        gen = as_generator(rng)
        family = KWiseHashFamily.create(domain_size, hash_range, independence=2)
        hashes = family.sample_many(repetitions, gen)
        assignment_hash = _sample_assignment_hash(repetitions * num_symbols, gen)
        final = HashtogramParams.create(
            domain_size, epsilon / 2.0,
            num_buckets=_default_final_buckets(num_users), rng=gen)
        return cls(domain_size, epsilon, repetitions, num_symbols, symbol_bits,
                   hash_range, threshold_std, hashes, final, assignment_hash)

    # ----- serialization ---------------------------------------------------------

    def _payload_dict(self) -> Dict[str, object]:
        return {"domain_size": self.domain_size,
                "epsilon": self.epsilon,
                "repetitions": self.repetitions,
                "num_symbols": self.num_symbols,
                "symbol_bits": self.symbol_bits,
                "hash_range": self.hash_range,
                "threshold_std": self.threshold_std,
                "hashes": [kwise_hash_to_dict(h) for h in self.hashes],
                "final": self.final.to_dict(),
                "assignment_hash": kwise_hash_to_dict(self.assignment_hash)}

    @classmethod
    def _from_payload(cls, payload: Dict[str, object]) -> "SingleHashParams":
        return cls(int(payload["domain_size"]), float(payload["epsilon"]),
                   int(payload["repetitions"]), int(payload["num_symbols"]),
                   int(payload["symbol_bits"]), int(payload["hash_range"]),
                   float(payload["threshold_std"]),
                   [kwise_hash_from_dict(h) for h in payload["hashes"]],
                   HashtogramParams.from_dict(payload["final"]),
                   kwise_hash_from_dict(payload["assignment_hash"]))

    # ----- factories -------------------------------------------------------------

    def make_encoder(self) -> "SingleHashEncoder":
        return SingleHashEncoder(self)

    def make_aggregator(self) -> "SingleHashAggregator":
        return SingleHashAggregator(self)

    # ----- helpers ---------------------------------------------------------------

    @functools.cached_property
    def _hash_stack(self) -> StackedKWiseHash:
        """The shared hashes stacked: ``stack(r, x) = hashes[r](x)``
        (built on first encode, not at setup)."""
        return StackedKWiseHash(self.hashes)

    def symbols_of(self, values: np.ndarray) -> np.ndarray:
        """Decompose every value into its ``num_symbols`` base-W symbols."""
        symbols = np.empty((values.size, self.num_symbols), dtype=np.int64)
        remaining = values.copy()
        for m in range(self.num_symbols):
            symbols[:, m] = remaining & (self.alphabet_size - 1)
            remaining >>= self.symbol_bits
        return symbols


class SingleHashEncoder(_TwoStageEncoder):
    """Stateless single-hash client: hash, pick your symbol, randomize."""

    params: SingleHashParams

    def stage1_cells(self, values: np.ndarray, groups: np.ndarray
                     ) -> np.ndarray:
        """``(h_r(x), symbol_s(x))`` flattened, for (r, s) each user's group."""
        params = self.params
        symbols = np.take_along_axis(params.symbols_of(values),
                                     (groups % params.num_symbols)[:, None],
                                     axis=1)[:, 0]
        return (params._hash_stack(groups // params.num_symbols, values)
                * params.alphabet_size + symbols)


class SingleHashAggregator(_TwoStageAggregator):
    """One stage-1 accumulator per (repetition, symbol) group + final oracle."""

    params: SingleHashParams

    # ----- finalization -------------------------------------------------------------

    def reconstruct_candidates(self) -> List[int]:
        """Stage 2: per repetition, rebuild one candidate per hash value."""
        params = self.params
        candidates: List[int] = []
        seen = set()
        blocks = [self.stage1(g) for g in range(params.num_groups)]
        shape = (params.hash_range, params.alphabet_size)
        best = _map_blocks(lambda block: stage1_best(block, shape), blocks)
        for r in range(params.repetitions):
            reconstructed = np.zeros(params.hash_range, dtype=np.int64)
            passes_threshold = np.ones(params.hash_range, dtype=bool)
            for m in range(params.num_symbols):
                group = r * params.num_symbols + m
                best_symbol, best_value = best[group]
                passes_threshold &= best_value >= detection_threshold(
                    blocks[group], params.threshold_std)
                reconstructed |= best_symbol << (m * params.symbol_bits)
            # Batched filter over all hash values at once; the survivors are
            # walked in hash-value order, matching the old scalar loop.
            valid = passes_threshold & (reconstructed < params.domain_size)
            for candidate in reconstructed[valid].tolist():
                if candidate not in seen:
                    seen.add(candidate)
                    candidates.append(candidate)
        return candidates

    def finalize(self, meter: Optional[ResourceMeter] = None
                 ) -> HeavyHitterResult:
        params = self.params
        meter = meter if meter is not None else ResourceMeter()
        return self._result(self.reconstruct_candidates(), meter,
                            params.protocol, {
                                "repetitions": params.repetitions,
                                "hash_range": params.hash_range,
                                "num_symbols": params.num_symbols,
                                "alphabet_size": params.alphabet_size,
                                "report_bits": params.report_bits,
                                "server_state_size": self.state_size})


__all__ = [
    "ExpanderSketchParams",
    "ExpanderSketchEncoder",
    "ExpanderSketchAggregator",
    "SingleHashParams",
    "SingleHashEncoder",
    "SingleHashAggregator",
    "append_coordinate_lists",
    "decode_candidate_lists",
    "detection_threshold",
    "stage1_best",
    "stage1_subbatch",
    "final_subbatch",
]
