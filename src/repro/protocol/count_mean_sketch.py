"""Wire protocol for the Apple-style Count-Mean-Sketch oracle [33].

**Paper reference.** Reference [33] of the paper (Apple's deployed LDP
sketch), reproduced here as the industrial point of comparison for the
Theorem 3.7 Hashtogram: same hash-then-randomize shape, but unary-encoded
rows instead of the Hadamard inner protocol and mean- instead of
median/signed-combination across rows.

**Report size.** ``m + log2 k`` bits: the m-bit noisy one-hot row plus the
row tag (k hash rows, m buckets).

**Server cost.** A ``k × m`` integer table plus k per-row report counts;
O(m) integer additions per report, O(k) work per query after finalization.

The server publishes k independent bucket hashes ``h_1..h_k : X -> [m]``.
Each user samples one hash row locally, one-hot encodes ``h_j(x)`` over the m
buckets, flips every bit with the symmetric unary-encoding probabilities at
budget ε, and ships ``(j, noisy bits)`` — ``log2 k + m`` bits on the wire.

The aggregator keeps exact integer per-(row, bucket) one-counts plus per-row
report counts; debiasing and the collision correction happen in
``finalize()``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.frequency.count_mean_sketch import CountMeanSketchOracle
from repro.hashing.kwise import KWiseHash, KWiseHashFamily
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
    register_protocol,
)
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_epsilon, check_positive_int


@register_protocol
class CountMeanSketchParams(PublicParams):
    """Public parameters of the Count-Mean-Sketch oracle."""

    protocol = "count_mean_sketch"
    short_name = "cms"

    def __init__(self, domain_size: int, epsilon: float, num_hashes: int,
                 num_buckets: int, hashes: Sequence[KWiseHash]) -> None:
        self.domain_size = check_positive_int(domain_size, "domain_size")
        self.epsilon = check_epsilon(epsilon)
        self.num_hashes = check_positive_int(num_hashes, "num_hashes")
        self.num_buckets = check_positive_int(num_buckets, "num_buckets")
        if len(hashes) != num_hashes:
            raise ValueError("need exactly one hash per row")
        self.hashes = list(hashes)
        # Symmetric unary-encoding bit probabilities at budget epsilon.
        half = math.exp(epsilon / 2.0)
        self.p = half / (half + 1.0)
        self.q = 1.0 / (half + 1.0)
        self._public_randomness_bits = int(sum(h.description_bits
                                               for h in self.hashes))

    @classmethod
    def create(cls, domain_size: int, epsilon: float, num_hashes: int = 16,
               num_buckets: int = 16, rng: RandomState = None
               ) -> "CountMeanSketchParams":
        """Sample fresh public randomness (the published hash rows)."""
        gen = as_generator(rng)
        family = KWiseHashFamily.create(domain_size, num_buckets, independence=2)
        return cls(domain_size, epsilon, num_hashes, num_buckets,
                   family.sample_many(num_hashes, gen))

    @classmethod
    def for_workload(cls, num_users: int, domain_size: int, epsilon: float,
                     rng: RandomState = None) -> "CountMeanSketchParams":
        """Sixteen hash rows of √n buckets."""
        return cls.create(domain_size, epsilon,
                          num_buckets=default_buckets(num_users), rng=rng)

    # ----- serialization ---------------------------------------------------------

    def _payload_dict(self) -> Dict[str, object]:
        return {"domain_size": self.domain_size,
                "epsilon": self.epsilon,
                "num_hashes": self.num_hashes,
                "num_buckets": self.num_buckets,
                "hashes": [kwise_hash_to_dict(h) for h in self.hashes]}

    @classmethod
    def _from_payload(cls, payload: Dict[str, object]) -> "CountMeanSketchParams":
        return cls(int(payload["domain_size"]), float(payload["epsilon"]),
                   int(payload["num_hashes"]), int(payload["num_buckets"]),
                   [kwise_hash_from_dict(h) for h in payload["hashes"]])

    # ----- factories -------------------------------------------------------------

    def make_encoder(self) -> "CountMeanSketchEncoder":
        return CountMeanSketchEncoder(self)

    def make_aggregator(self, counts: Optional[np.ndarray] = None,
                        bound: Optional[int] = None) -> "CountMeanSketchAggregator":
        return CountMeanSketchAggregator(self, counts, bound)

    # ----- accounting ------------------------------------------------------------

    @property
    def report_bits(self) -> float:
        """Row tag plus the m-bit noisy one-hot vector."""
        return float(self.num_buckets) + math.log2(max(self.num_hashes, 2))

    @property
    def public_randomness_bits(self) -> int:
        """Cached at construction; see the hashtogram note."""
        return self._public_randomness_bits

    @property
    def layout(self) -> CountLayout:
        """``ones[k·m] ++ row_counts[k]``: the (row, bucket) one-counts,
        then one report-count cell per hash row."""
        return (CountLayout(self.num_hashes * self.num_buckets)
                + CountLayout.blocks(self.num_hashes, "row"))


class CountMeanSketchEncoder(ClientEncoder):
    """Stateless CMS client: pick a row, hash, flip every bucket bit."""

    params: CountMeanSketchParams

    def encode_batch(self, values: Sequence[int], rng: RandomState = None,
                     first_user_index: int = 0) -> ReportBatch:
        gen = as_generator(rng)
        params = self.params
        values = np.asarray(values, dtype=np.int64)
        if values.size and (values.min() < 0 or values.max() >= params.domain_size):
            raise ValueError("values outside the declared domain")
        n = values.size
        rows = gen.integers(0, params.num_hashes, size=n)
        buckets = np.zeros(n, dtype=np.int64)
        for j in range(params.num_hashes):
            mask = rows == j
            if mask.any():
                buckets[mask] = np.asarray(params.hashes[j](values[mask]))
        onehot = buckets[:, None] == np.arange(params.num_buckets)[None, :]
        uniform = gen.random((n, params.num_buckets))
        bits = np.where(onehot, uniform < params.p,
                        uniform < params.q).astype(np.uint8)
        return ReportBatch(params.protocol,
                           {"row": rows.astype(np.int64), "bits": bits})


class CountMeanSketchAggregator(ServerAggregator):
    """Exact integer (row, bucket) one-counts plus per-row report counts."""

    params: CountMeanSketchParams

    def _report_cells(self, columns) -> List[Tuple[np.ndarray, np.ndarray]]:
        k, m = self.params.num_hashes, self.params.num_buckets
        rows = int_column(columns, "row", 0, k)
        bits = int_column(columns, "bits", 0, 2, width=m)
        # a leaf, never nested: ship this batch's summed table as one part,
        # one masked column sum per hash row (a row with no reports sums
        # to zeros)
        ones = np.empty((k, m), dtype=np.int64)
        for j in range(k):
            bits[rows == j].sum(axis=0, dtype=np.int64, out=ones[j])
        return [(np.arange(k * m + k)[:, None],
                 np.concatenate([ones.ravel(),
                                 np.bincount(rows, minlength=k)])[:, None])]

    @property
    def row_counts(self) -> np.ndarray:
        """Reports per hash row (a view of ``counts``)."""
        return self.counts[self.params.num_hashes * self.params.num_buckets:]

    # ----- estimation ---------------------------------------------------------------

    def debiased(self) -> np.ndarray:
        """Per-row debiased bucket counts (the CMS table before row averaging)."""
        params = self.params
        ones = self.counts[:params.num_hashes * params.num_buckets].reshape(
            params.num_hashes, params.num_buckets)
        return ((ones - self.row_counts[:, None] * params.q)
                / (params.p - params.q))

    def finalize(self):
        """Fitted :class:`~repro.frequency.count_mean_sketch.CountMeanSketchOracle`."""
        oracle = CountMeanSketchOracle(self.params.domain_size,
                                       self.params.epsilon,
                                       num_hashes=self.params.num_hashes,
                                       num_buckets=self.params.num_buckets)
        oracle._load_wire_aggregate(self)
        return oracle
