"""Wire protocol for the general-domain Hashtogram oracle (Theorem 3.7).

**Paper reference.** Theorem 3.7: an ε-LDP frequency oracle for *arbitrary*
domain size |X| with worst-case error ``O((1/ε) sqrt(n log(|X|/β)))`` —
the count-sketch-style reduction from a huge domain to R independent
(bucket, sign) small domains, and the final estimation stage of the paper's
heavy-hitters protocol.

**Report size.** One inner small-domain report over ``2 * num_buckets``
cells — ``log2(2B) + O(1)`` bits with the default Hadamard inner randomizer
— i.e. O(log n) bits total with the standard ``B ≈ sqrt(n)``; under
``"uniform"`` assignment the report additionally carries its
``log2 R``-bit repetition tag.

**Server cost.** ``R * 2B`` integer scalars (``O~(sqrt(n))`` with the
default B — the Table 1 row); each query costs O(R) after finalization.

The server publishes, per repetition t, a pairwise independent bucket hash
``h_t`` and a 4-wise independent sign hash ``s_t``; a user assigned to
repetition t encodes the (bucket, sign) cell of her value through the
small-domain protocol over ``2 * num_buckets`` cells.

Repetition assignment is part of the public parameters: the default
``"round_robin"`` policy derives the repetition from the user's index, so the
report itself carries only the inner small-domain payload (the repetition is
implied by who sent it); the ``"uniform"`` policy has each user draw her
repetition locally and ship it alongside the report.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.frequency.hashtogram import HashtogramOracle
from repro.hashing.kwise import (
    KWiseHash,
    KWiseHashFamily,
    SignHash,
    StackedKWiseHash,
    sign_hash,
)
from repro.protocol.explicit import (
    ExplicitHistogramAggregator,
    ExplicitHistogramParams,
)
from repro.protocol.wire import (
    ClientEncoder,
    CountLayout,
    PublicParams,
    ReportBatch,
    ServerAggregator,
    default_buckets,
    int_column,
    kwise_hash_from_dict,
    kwise_hash_to_dict,
    nest_cells,
    register_protocol,
    sign_hash_from_dict,
    sign_hash_to_dict,
)
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_epsilon, check_positive_int

_ASSIGNMENTS = ("round_robin", "uniform")


@register_protocol
class HashtogramParams(PublicParams):
    """Public parameters of the Hashtogram oracle: hashes + configuration."""

    protocol = "hashtogram"
    short_name = "hashtogram"

    def __init__(self, domain_size: int, epsilon: float, num_repetitions: int,
                 num_buckets: int, bucket_hashes: Sequence[KWiseHash],
                 sign_hashes: Sequence[SignHash],
                 inner_randomizer: str = "hadamard",
                 assignment: str = "round_robin") -> None:
        self.domain_size = check_positive_int(domain_size, "domain_size")
        self.epsilon = check_epsilon(epsilon)
        self.num_repetitions = check_positive_int(num_repetitions, "num_repetitions")
        self.num_buckets = check_positive_int(num_buckets, "num_buckets")
        if len(bucket_hashes) != num_repetitions or len(sign_hashes) != num_repetitions:
            raise ValueError("need one bucket hash and one sign hash per repetition")
        self.bucket_hashes = list(bucket_hashes)
        self.sign_hashes = list(sign_hashes)
        if assignment not in _ASSIGNMENTS:
            raise ValueError(f"assignment must be one of {_ASSIGNMENTS}")
        self.assignment = assignment
        self.inner = ExplicitHistogramParams(2 * num_buckets, epsilon,
                                             inner_randomizer)
        # Cached once: summing description_bits over the hash objects on every
        # accounting call is O(num_repetitions) per lookup and showed up in
        # profiles of report-cost accounting loops.
        self._public_randomness_bits = int(
            sum(h.description_bits for h in self.bucket_hashes)
            + sum(s.description_bits for s in self.sign_hashes))

    @property
    def inner_randomizer(self) -> str:
        return self.inner.randomizer

    @classmethod
    def create(cls, domain_size: int, epsilon: float, num_repetitions: int = 5,
               num_buckets: int = 16, inner_randomizer: str = "hadamard",
               assignment: str = "round_robin",
               rng: RandomState = None) -> "HashtogramParams":
        """Sample fresh public randomness (the published hash functions)."""
        gen = as_generator(rng)
        bucket_family = KWiseHashFamily.create(domain_size, num_buckets,
                                               independence=2)
        bucket_hashes = bucket_family.sample_many(num_repetitions, gen)
        sign_hashes = [sign_hash(domain_size, gen) for _ in range(num_repetitions)]
        return cls(domain_size, epsilon, num_repetitions, num_buckets,
                   bucket_hashes, sign_hashes, inner_randomizer, assignment)

    @classmethod
    def for_workload(cls, num_users: int, domain_size: int, epsilon: float,
                     rng: RandomState = None) -> "HashtogramParams":
        """Five repetitions of √n buckets."""
        return cls.create(domain_size, epsilon,
                          num_buckets=default_buckets(num_users), rng=rng)

    # ----- serialization ---------------------------------------------------------

    def _payload_dict(self) -> Dict[str, object]:
        return {"domain_size": self.domain_size,
                "epsilon": self.epsilon,
                "num_repetitions": self.num_repetitions,
                "num_buckets": self.num_buckets,
                "inner_randomizer": self.inner_randomizer,
                "assignment": self.assignment,
                "bucket_hashes": [kwise_hash_to_dict(h) for h in self.bucket_hashes],
                "sign_hashes": [sign_hash_to_dict(s) for s in self.sign_hashes]}

    @classmethod
    def _from_payload(cls, payload: Dict[str, object]) -> "HashtogramParams":
        return cls(int(payload["domain_size"]), float(payload["epsilon"]),
                   int(payload["num_repetitions"]), int(payload["num_buckets"]),
                   [kwise_hash_from_dict(h) for h in payload["bucket_hashes"]],
                   [sign_hash_from_dict(s) for s in payload["sign_hashes"]],
                   str(payload["inner_randomizer"]), str(payload["assignment"]))

    # ----- factories -------------------------------------------------------------

    def make_encoder(self) -> "HashtogramEncoder":
        return HashtogramEncoder(self)

    def make_aggregator(self, counts: Optional[np.ndarray] = None,
                        bound: Optional[int] = None) -> "HashtogramAggregator":
        return HashtogramAggregator(self, counts, bound)

    # ----- accounting ------------------------------------------------------------

    @property
    def report_bits(self) -> float:
        """Wire size of one report.

        Under round-robin assignment the repetition is a public function of
        the user's index, so only the inner payload travels; under uniform
        assignment the report also carries the repetition tag.
        """
        bits = self.inner.report_bits
        if self.assignment == "uniform":
            bits += math.log2(max(self.num_repetitions, 2))
        return bits

    @property
    def public_randomness_bits(self) -> int:
        """Bits of public randomness consumed by the published hashes
        (computed once at construction)."""
        return self._public_randomness_bits

    @functools.cached_property
    def layout(self) -> CountLayout:
        """``R × [n_t, inner accumulator]``: one counted small-domain block
        per repetition."""
        return CountLayout.blocks(self.num_repetitions, "repetition",
                                  self.inner.layout)

    @functools.cached_property
    def _hash_stacks(self) -> Tuple[StackedKWiseHash, StackedKWiseHash]:
        """The per-repetition bucket hashes and sign hashes' binary bases,
        each stacked for one-pass client evaluation (built on first encode,
        not at setup)."""
        return (StackedKWiseHash(self.bucket_hashes),
                StackedKWiseHash([s.base for s in self.sign_hashes]))


class HashtogramEncoder(ClientEncoder):
    """Stateless Hashtogram client: pick a repetition, hash, run the inner
    small-domain randomizer on the resulting cell."""

    params: HashtogramParams

    def _draw_user_index(self, gen: np.random.Generator) -> int:
        if self.params.assignment == "round_robin":
            return int(gen.integers(0, self.params.num_repetitions))
        return 0

    def encode_batch(self, values: Sequence[int], rng: RandomState = None,
                     first_user_index: int = 0) -> ReportBatch:
        gen = as_generator(rng)
        params = self.params
        values = np.asarray(values, dtype=np.int64)
        if values.size and (values.min() < 0 or values.max() >= params.domain_size):
            raise ValueError("values outside the declared domain")
        n = values.size
        reps = params.num_repetitions
        if params.assignment == "round_robin":
            assignment = (first_user_index + np.arange(n)) % reps
        else:
            assignment = gen.integers(0, reps, size=n)
        # (bucket, sign) cell of each value in its own repetition.
        buckets, signs = params._hash_stacks
        cells = (2 * buckets(assignment, values)
                 + (signs(assignment, values) == 1))
        inner = params.inner.make_encoder().encode_batch(cells, gen)
        columns = {"repetition": assignment.astype(np.int64)}
        columns.update(inner.columns)
        return ReportBatch(params.protocol, columns)


class HashtogramAggregator(ServerAggregator):
    """One counted small-domain block per repetition."""

    params: HashtogramParams

    def _report_cells(self, columns) -> List[Tuple[np.ndarray, np.ndarray]]:
        params = self.params
        repetition = int_column(columns, "repetition", 0,
                                params.num_repetitions)
        inner = {key: col for key, col in columns.items()
                 if key != "repetition"}
        return nest_cells(params.layout.count_cells("repetition"), repetition,
                          self.repetition(0)._report_cells(inner))

    # ----- estimation ---------------------------------------------------------------

    def repetition(self, t: int) -> ExplicitHistogramAggregator:
        """Zero-copy view of repetition ``t``'s inner aggregator."""
        return self._block(ExplicitHistogramAggregator, self.params.inner,
                           self.params.layout.count_cells("repetition")[t])

    def finalize(self):
        """Fitted :class:`~repro.frequency.hashtogram.HashtogramOracle`."""
        oracle = HashtogramOracle(self.params.domain_size, self.params.epsilon,
                                  num_repetitions=self.params.num_repetitions,
                                  num_buckets=self.params.num_buckets,
                                  inner_randomizer=self.params.inner_randomizer)
        oracle._load_wire_aggregate(self)
        return oracle
