"""Hashtogram: the general-domain frequency oracle of Theorem 3.7.

Construction (following Bassily-Nissim-Stemmer-Thakurta [3]):

* users are partitioned into ``num_repetitions`` groups;
* repetition t publishes a pairwise independent bucket hash
  ``h_t : X -> [num_buckets]`` and a sign hash ``s_t : X -> {-1, +1}``;
* each user in repetition t runs the *small-domain* oracle
  (:class:`~repro.frequency.explicit.ExplicitHistogramOracle`) over the domain
  of (bucket, sign-bit) cells on her pair ``(h_t(x), s_t(x))``;
* to answer a query x, the server combines, across repetitions, the signed
  difference of the two cells x hashes into — collisions cancel in expectation
  thanks to the sign hash (the count-sketch trick), and summing over the
  disjoint repetitions yields an unbiased estimate of ``f_S(x)``.

The server memory is ``num_repetitions * 2 * num_buckets`` scalars — with the
default ``num_buckets ≈ sqrt(n)`` this is the ``O~(sqrt(n))`` row of Table 1 —
and each query costs O(num_repetitions) time.

The wire-level client/server decomposition lives in
:mod:`repro.protocol.hashtogram`; :meth:`HashtogramOracle.collect` is the
one-shot simulation convenience built on it
(``encode_batch → absorb_batch → finalize``).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.frequency.base import FrequencyOracle
from repro.frequency.explicit import ExplicitHistogramOracle
from repro.hashing.kwise import KWiseHash, SignHash
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_domain_element, check_epsilon, check_positive_int


class HashtogramOracle(FrequencyOracle):
    """ε-LDP frequency oracle for arbitrary (large) domains.

    Parameters
    ----------
    domain_size:
        Size of the value domain |X|.
    epsilon:
        Per-user privacy budget (each user sends a single report).
    num_repetitions:
        Number of independent hash repetitions R (more repetitions reduce the
        collision-induced variance; the default 5 matches the O~(1) public
        randomness budget).
    num_buckets:
        Bucket range of each repetition.  ``None`` (default) selects
        ``max(16, ceil(sqrt(n)))`` when :meth:`collect` learns n.
    inner_randomizer:
        Randomizer used by the per-repetition small-domain oracle
        ("hadamard", "oue", or "krr").
    """

    def __init__(self, domain_size: int, epsilon: float, num_repetitions: int = 5,
                 num_buckets: Optional[int] = None,
                 inner_randomizer: str = "hadamard") -> None:
        self.domain_size = check_positive_int(domain_size, "domain_size")
        self.epsilon = check_epsilon(epsilon)
        self.delta = 0.0
        self.num_repetitions = check_positive_int(num_repetitions, "num_repetitions")
        if num_buckets is not None:
            check_positive_int(num_buckets, "num_buckets")
        self.num_buckets = num_buckets
        self.inner_randomizer = inner_randomizer
        self._num_users = 0
        self._bucket_hashes: List[KWiseHash] = []
        self._sign_hashes: List[SignHash] = []
        self._inner_oracles: List[ExplicitHistogramOracle] = []
        self._rep_sizes: List[int] = []

    # ----- wire protocol --------------------------------------------------------------

    def public_params(self, num_users: Optional[int] = None,
                      rng: RandomState = None):
        """Sample wire-level public parameters for this oracle configuration.

        ``num_users`` resolves the default ``num_buckets ≈ sqrt(n)`` when no
        explicit bucket count was given.
        """
        from repro.protocol.hashtogram import HashtogramParams
        from repro.protocol.wire import default_buckets
        num_buckets = self.num_buckets or default_buckets(num_users or 1)
        return HashtogramParams.create(self.domain_size, self.epsilon,
                                       num_repetitions=self.num_repetitions,
                                       num_buckets=num_buckets,
                                       inner_randomizer=self.inner_randomizer,
                                       rng=rng)

    def _load_wire_aggregate(self, aggregator) -> None:
        """Adopt a finalized wire aggregate (hashes + inner oracles + sizes)."""
        params = aggregator.params
        self.num_buckets = params.num_buckets
        self._bucket_hashes = list(params.bucket_hashes)
        self._sign_hashes = list(params.sign_hashes)
        repetitions = [aggregator.repetition(t)
                       for t in range(params.num_repetitions)]
        self._inner_oracles = [inner.finalize() for inner in repetitions]
        self._rep_sizes = [inner.num_reports for inner in repetitions]
        self._num_users = aggregator.num_reports
        self._report_bits = params.report_bits
        self._server_state_size = aggregator.state_size
        self._public_randomness_bits = params.public_randomness_bits

    # ----- collection ---------------------------------------------------------------

    def collect(self, values: Sequence[int], rng: RandomState = None,
                workers: int = 1, chunk_size: Optional[int] = None) -> None:
        """Simulate the full protocol: ``encode_batch → absorb_batch → finalize``.

        The generator first samples the published hash functions
        (:meth:`public_params`) and then seeds the engine's canonical chunk
        plan (:func:`repro.engine.run_simulation`), so a wire-level engine
        run with the same seed — serial or across ``workers`` processes —
        reproduces ``collect`` bit for bit.
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
        total = 0.0
        for t, oracle in enumerate(self._inner_oracles):
            if oracle.num_users == 0:
                continue  # an empty repetition contributes no signal
            bucket = int(self._bucket_hashes[t](x))
            sign = int(self._sign_hashes[t](x))
            plus = oracle.estimate(2 * bucket + 1)
            minus = oracle.estimate(2 * bucket)
            total += sign * (plus - minus)
        return float(total)

    def estimate_many(self, xs) -> np.ndarray:
        self._require_collected()
        xs = np.asarray(list(xs), dtype=np.int64)
        if xs.size == 0:
            return np.zeros(0)
        if xs.min() < 0 or xs.max() >= self.domain_size:
            raise ValueError("queries outside the declared domain")
        totals = np.zeros(xs.shape, dtype=float)
        for t, oracle in enumerate(self._inner_oracles):
            if oracle.num_users == 0:
                continue  # an empty repetition contributes no signal
            buckets = np.asarray(self._bucket_hashes[t](xs))
            signs = np.asarray(self._sign_hashes[t](xs)).astype(float)
            plus = oracle.estimate_many(2 * buckets + 1)
            minus = oracle.estimate_many(2 * buckets)
            totals += signs * (plus - minus)
        return totals

    # ----- accounting -----------------------------------------------------------------

    @property
    def public_randomness_bits(self) -> int:
        """Bits of public randomness consumed by the published hash functions.

        Cached when the wire aggregate is adopted — re-summing
        ``description_bits`` over the hash objects on every accounting call
        is avoidable O(num_repetitions) work.
        """
        return getattr(self, "_public_randomness_bits", 0)

    @property
    def estimator_variance(self) -> float:
        """Approximate variance of a single frequency estimate.

        The noise contributions of the repetitions add up (each repetition
        holds a disjoint subset of users), and each repetition additionally
        contributes collision variance of roughly ``n_t / num_buckets``.
        """
        if not self._inner_oracles:
            return float("nan")
        total = 0.0
        for oracle, n_t in zip(self._inner_oracles, self._rep_sizes, strict=True):
            total += 2.0 * n_t * oracle.estimator_variance_per_user
            total += n_t / max(self.num_buckets, 1)
        return total

    def expected_error(self, beta: float) -> float:
        """High-probability error bound for one query (Gaussian approximation)."""
        if not 0 < beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        return math.sqrt(2.0 * self.estimator_variance * math.log(2.0 / beta))
