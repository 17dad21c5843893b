"""Wire protocol for basic RAPPOR reports (the Chrome baseline [12]).

**Paper reference.** Reference [12] (Erlingsson-Pihur-Korolova), the
deployed Google Chrome mechanism the paper's introduction benchmarks
against: its error scales like the *candidate-set* decoder allows, not the
worst-case-optimal Theorem 3.7/3.8 rates.

**Report size.** ``num_bits`` bits — the full noisy Bloom filter (128 by
default); independent of both |X| and n.

**Server cost.** ``num_bits`` integer one-counts; decoding requires a known
candidate set and one least-squares solve over it in ``finalize()`` (there
is no per-element oracle, which is exactly the baseline's limitation).

The server publishes the Bloom-filter hash functions; each user Bloom-encodes
her value, applies permanent randomized response to every bit, and ships the
``num_bits``-wide noisy vector.  The aggregator keeps exact integer per-bit
one-counts; candidate-set regression decoding happens in ``finalize()``.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hashing.kwise import StackedKWiseHash

from repro.protocol.wire import (
    ClientEncoder,
    CountLayout,
    PublicParams,
    ReportBatch,
    ServerAggregator,
    int_column,
    kwise_hash_from_dict,
    kwise_hash_to_dict,
    register_protocol,
)
from repro.randomizers.rappor import BasicRappor
from repro.utils.rng import RandomState, as_generator


@register_protocol
class RapporParams(PublicParams):
    """Public parameters of basic RAPPOR: the Bloom hashes + configuration."""

    protocol = "rappor"
    short_name = "rappor"

    def __init__(self, randomizer: BasicRappor) -> None:
        self.randomizer = randomizer
        self.domain_size = randomizer.domain_size
        self.epsilon = randomizer.epsilon
        self.num_bits = randomizer.num_bits
        self.num_hashes = randomizer.num_hashes
        self._public_randomness_bits = int(
            sum(h.description_bits for h in randomizer._hashes))

    @classmethod
    def create(cls, domain_size: int, epsilon: float, num_bits: int = 128,
               num_hashes: int = 2, rng: RandomState = None) -> "RapporParams":
        """Sample fresh public randomness (the Bloom hash functions)."""
        return cls(BasicRappor(epsilon, domain_size, num_bits=num_bits,
                               num_hashes=num_hashes, rng=as_generator(rng)))

    @classmethod
    def for_workload(cls, num_users: int, domain_size: int, epsilon: float,
                     rng: RandomState = None) -> "RapporParams":
        """A 128-bit Bloom filter with two hashes."""
        return cls.create(domain_size, epsilon, rng=rng)

    # ----- serialization ---------------------------------------------------------

    def _payload_dict(self) -> Dict[str, object]:
        return {"domain_size": self.domain_size,
                "epsilon": self.epsilon,
                "num_bits": self.num_bits,
                "num_hashes": self.num_hashes,
                "bloom_hashes": [kwise_hash_to_dict(h)
                                 for h in self.randomizer._hashes]}

    @classmethod
    def _from_payload(cls, payload: Dict[str, object]) -> "RapporParams":
        return cls(BasicRappor(
            float(payload["epsilon"]), int(payload["domain_size"]),
            num_bits=int(payload["num_bits"]),
            num_hashes=int(payload["num_hashes"]),
            hashes=[kwise_hash_from_dict(h)
                    for h in payload["bloom_hashes"]]))

    # ----- factories -------------------------------------------------------------

    def make_encoder(self) -> "RapporEncoder":
        return RapporEncoder(self)

    def make_aggregator(self, counts: Optional[np.ndarray] = None,
                        bound: Optional[int] = None) -> "RapporAggregator":
        return RapporAggregator(self, counts, bound)

    # ----- accounting ------------------------------------------------------------

    @property
    def report_bits(self) -> float:
        return float(self.num_bits)

    @property
    def public_randomness_bits(self) -> int:
        """Cached at construction; see the hashtogram note."""
        return self._public_randomness_bits

    @property
    def layout(self) -> CountLayout:
        """One one-count per Bloom bit."""
        return CountLayout(self.num_bits)

    @functools.cached_property
    def _bloom_stack(self) -> StackedKWiseHash:
        # built on first encode, not at setup
        return StackedKWiseHash(self.randomizer._hashes)

    def bloom_patterns(self, values: np.ndarray) -> np.ndarray:
        """``(len(values), num_bits)`` bool: row i is
        ``randomizer.bloom_bits(values[i])``, every hash in one pass."""
        positions = self._bloom_stack(np.arange(self.num_hashes)[:, None],
                                      values)
        blooms = np.zeros((values.size, self.num_bits), dtype=bool)
        blooms[np.arange(values.size), positions] = True
        return blooms


class RapporEncoder(ClientEncoder):
    """Stateless RAPPOR client: Bloom-encode, flip every bit."""

    params: RapporParams

    def encode_batch(self, values: Sequence[int], rng: RandomState = None,
                     first_user_index: int = 0) -> ReportBatch:
        gen = as_generator(rng)
        params = self.params
        values = np.asarray(values, dtype=np.int64)
        if values.size and (values.min() < 0 or values.max() >= params.domain_size):
            raise ValueError("values outside the declared domain")
        f = params.randomizer.flip_probability
        prob_one = np.where(params.bloom_patterns(values), 1.0 - f / 2.0,
                            f / 2.0)
        bits = (gen.random((values.size, params.num_bits)) < prob_one
                ).astype(np.uint8)
        return ReportBatch(params.protocol, {"bits": bits})


class RapporAggregator(ServerAggregator):
    """Exact integer per-bit one-counts of the noisy Bloom reports."""

    params: RapporParams

    def _report_cells(self, columns) -> List[Tuple[np.ndarray, np.ndarray]]:
        num_bits = self.params.num_bits
        return [(np.arange(num_bits)[:, None],
                 int_column(columns, "bits", 0, 2, width=num_bits).T)]

    # ----- estimation ---------------------------------------------------------------

    def estimate_candidates(self, candidates: Sequence[int]) -> np.ndarray:
        """Regression-decode the aggregate against a known candidate set."""
        return self.params.randomizer.estimate_candidate_frequencies_from_counts(
            self.counts, self.num_reports, candidates)

    def finalize(self) -> "RapporAggregate":
        """RAPPOR has no per-element oracle: decoding needs a candidate set.

        ``finalize`` therefore returns a :class:`RapporAggregate`, a small
        frozen view exposing ``estimate_candidates``.
        """
        return RapporAggregate(self.params, self.counts.copy(),
                               self.num_reports)


class RapporAggregate:
    """Finalized RAPPOR aggregate: debiased candidate-set estimation only."""

    def __init__(self, params: RapporParams, bit_counts: np.ndarray,
                 num_users: int) -> None:
        self.params = params
        self.bit_counts = bit_counts
        self.num_users = int(num_users)

    def estimate_candidates(self, candidates: Sequence[int]) -> np.ndarray:
        return self.params.randomizer.estimate_candidate_frequencies_from_counts(
            self.bit_counts, self.num_users, candidates)

    #: a served ``query`` decodes over the queried items
    estimate_many = estimate_candidates
