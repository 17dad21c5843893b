"""Count-Mean-Sketch (CMS): the Apple-style LDP frequency oracle [33].

The paper's introduction cites Apple's iOS deployment as the second industrial
LDP heavy-hitters system; its frequency oracle is the Count-Mean-Sketch:

* the server publishes k independent hash functions ``h_1..h_k : X -> [m]``;
* each user samples one hash index j uniformly, encodes her value as the
  one-hot vector of ``h_j(x)`` over the m buckets, randomizes every bit with
  the symmetric unary encoding at budget ε, and sends (j, noisy vector);
* the server debiases each row's bucket counts and answers a query x by
  averaging, over the k rows, the debiased count of bucket ``h_j(x)``, with a
  collision correction factor ``m/(m-1)`` (a uniformly random colliding value
  adds 1/m of its mass to every bucket).

It has the same O~(sqrt(n))-memory / O(1)-query profile as Hashtogram but uses
mean-of-rows instead of disjoint repetitions with sign hashes, so it serves
both as an industrial baseline for the E4/A2 style comparisons and as an
alternative final-stage oracle.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.frequency.base import FrequencyOracle
from repro.hashing.kwise import KWiseHash
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_domain_element, check_epsilon, check_positive_int


class CountMeanSketchOracle(FrequencyOracle):
    """ε-LDP Count-Mean-Sketch frequency oracle.

    Parameters
    ----------
    domain_size:
        Size of the value domain |X|.
    epsilon:
        Per-user privacy budget (one report per user).
    num_hashes:
        Number of hash rows k (Apple uses 65536 buckets x 1024 hashes at scale;
        laptop-scale defaults are far smaller).
    num_buckets:
        Bucket range m of each hash; ``None`` picks ``max(16, ceil(sqrt(n)))``
        when :meth:`collect` learns n.
    """

    def __init__(self, domain_size: int, epsilon: float, num_hashes: int = 16,
                 num_buckets: Optional[int] = None) -> None:
        self.domain_size = check_positive_int(domain_size, "domain_size")
        self.epsilon = check_epsilon(epsilon)
        self.delta = 0.0
        self.num_hashes = check_positive_int(num_hashes, "num_hashes")
        if num_buckets is not None:
            check_positive_int(num_buckets, "num_buckets")
        self.num_buckets = num_buckets
        self._num_users = 0
        self._hashes: List[KWiseHash] = []
        self._debiased: Optional[np.ndarray] = None
        self._row_counts: Optional[np.ndarray] = None
        # Symmetric unary-encoding bit probabilities at budget epsilon.
        half = math.exp(epsilon / 2.0)
        self._p = half / (half + 1.0)
        self._q = 1.0 / (half + 1.0)

    # ----- wire protocol --------------------------------------------------------------

    def public_params(self, num_users: Optional[int] = None,
                      rng: RandomState = None):
        """Sample wire-level public parameters for this oracle configuration."""
        from repro.protocol.count_mean_sketch import CountMeanSketchParams
        from repro.protocol.wire import default_buckets
        num_buckets = self.num_buckets or default_buckets(num_users or 1)
        return CountMeanSketchParams.create(self.domain_size, self.epsilon,
                                            num_hashes=self.num_hashes,
                                            num_buckets=num_buckets, rng=rng)

    def _load_wire_aggregate(self, aggregator) -> None:
        """Adopt a finalized wire aggregate (hash rows + debiased table)."""
        params = aggregator.params
        self.num_buckets = params.num_buckets
        self._hashes = list(params.hashes)
        self._debiased = aggregator.debiased()
        self._row_counts = aggregator.row_counts.copy()
        self._num_users = aggregator.num_reports
        self._report_bits = params.report_bits
        self._server_state_size = aggregator.state_size
        self._public_randomness_bits = params.public_randomness_bits

    # ----- collection ----------------------------------------------------------------

    def collect(self, values: Sequence[int], rng: RandomState = None,
                workers: int = 1, chunk_size: Optional[int] = None) -> None:
        """Simulate the full protocol: ``encode_batch → absorb_batch → finalize``.

        The generator first samples the published hash rows
        (:meth:`public_params`), then seeds the engine's canonical chunk
        plan (:func:`repro.engine.run_simulation`); chunked streaming keeps
        the m-bit reports from materializing an O(n * m) matrix and makes
        the result bit-identical for any ``workers`` count.
        """
        from repro.engine import run_simulation
        gen = as_generator(rng)
        values = np.asarray(values, dtype=np.int64)
        params = self.public_params(num_users=int(values.size), rng=gen)
        aggregator = run_simulation(params, values, rng=gen, workers=workers,
                                    chunk_size=chunk_size).aggregator
        self._load_wire_aggregate(aggregator)

    # ----- estimation -----------------------------------------------------------------

    def estimate(self, x: int) -> float:
        self._require_collected()
        x = check_domain_element(x, self.domain_size)
        m = self.num_buckets
        total = 0.0
        for row in range(self.num_hashes):
            bucket = int(self._hashes[row](x))
            row_total = float(self._row_counts[row])
            # Collision correction: a colliding value contributes its full count
            # with probability 1/m, so subtract the expected collision mass and
            # rescale by m/(m-1); then rescale the row's share to the population.
            row_estimate = (self._debiased[row, bucket] - row_total / m) * m / (m - 1)
            total += row_estimate
        return float(total)

    def estimate_many(self, xs) -> np.ndarray:
        self._require_collected()
        xs = np.asarray(list(xs), dtype=np.int64)
        if xs.size == 0:
            return np.zeros(0)
        if xs.min() < 0 or xs.max() >= self.domain_size:
            raise ValueError("queries outside the declared domain")
        m = self.num_buckets
        totals = np.zeros(xs.shape, dtype=float)
        for row in range(self.num_hashes):
            buckets = np.asarray(self._hashes[row](xs))
            row_total = float(self._row_counts[row])
            totals += (self._debiased[row, buckets] - row_total / m) * m / (m - 1)
        return totals

    # ----- accounting ------------------------------------------------------------------

    @property
    def public_randomness_bits(self) -> int:
        """Cached when the wire aggregate is adopted (see the hashtogram note)."""
        return getattr(self, "_public_randomness_bits", 0)

    @property
    def estimator_variance(self) -> float:
        """Approximate variance of one frequency estimate (noise + collisions)."""
        if self._row_counts is None:
            return float("nan")
        var_user = self._q * (1.0 - self._q) / (self._p - self._q) ** 2
        noise = float(sum(count * var_user for count in self._row_counts))
        collisions = float(sum(count / max(self.num_buckets, 2)
                               for count in self._row_counts))
        return noise + collisions

    def expected_error(self, beta: float) -> float:
        """High-probability error bound for one query (Gaussian approximation)."""
        if not 0 < beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        return math.sqrt(2.0 * self.estimator_variance * math.log(2.0 / beta))
