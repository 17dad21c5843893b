"""Small-domain frequency oracle (the Theorem 3.8 variant of Hashtogram).

Each user randomizes her value *directly* over the domain with one of three
interchangeable local randomizers, and the server debiases the aggregate:

* ``"hadamard"`` (default) — Hadamard response: O(1) communication per user,
  constant per-user variance, server decodes the exact per-row counts with
  the integer transform :func:`~repro.randomizers.hadamard.hadamard_outputs`.
  This is what the heavy-hitters protocol uses internally.
* ``"oue"`` — optimised unary encoding: k bits of communication, minimal
  variance among bit-flipping schemes.
* ``"krr"`` — generalised (k-ary) randomized response: log k bits of
  communication, best for very small domains.

The wire-level client/server decomposition lives in
:mod:`repro.protocol.explicit`: :meth:`collect` is a simulation convenience
implemented exactly as ``encode_batch → absorb_batch → finalize`` over the
same :class:`~repro.protocol.explicit.ExplicitHistogramParams`, so a sharded
deployment reproduces ``collect()``'s estimates bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.frequency.base import FrequencyOracle
from repro.randomizers.hadamard import fast_walsh_hadamard_transform
from repro.utils.bits import next_power_of_two
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_domain_element, check_epsilon, check_positive_int

__all__ = ["ExplicitHistogramOracle", "fast_walsh_hadamard_transform"]


class ExplicitHistogramOracle(FrequencyOracle):
    """ε-LDP frequency oracle over a small explicit domain.

    Parameters
    ----------
    domain_size:
        Number of possible values k (queries are integers in [0, k)).
    epsilon:
        Per-user privacy budget.
    randomizer:
        One of ``"hadamard"``, ``"oue"``, ``"krr"``.
    """

    def __init__(self, domain_size: int, epsilon: float,
                 randomizer: str = "hadamard") -> None:
        self.domain_size = check_positive_int(domain_size, "domain_size")
        self.epsilon = check_epsilon(epsilon)
        self.delta = 0.0
        if randomizer not in ("hadamard", "oue", "krr"):
            raise ValueError("randomizer must be 'hadamard', 'oue' or 'krr'")
        self.randomizer = randomizer
        self._num_users = 0
        self._histogram: Optional[np.ndarray] = None

        exp_eps = math.exp(epsilon)
        if randomizer == "hadamard":
            self._padded = next_power_of_two(domain_size + 1)
            self._keep_prob = exp_eps / (exp_eps + 1.0)
            self._attenuation = (exp_eps - 1.0) / (exp_eps + 1.0)
            self._report_bits = math.log2(self._padded) + 1.0
            self._server_state_size = self._padded
        elif randomizer == "oue":
            self._p = 0.5
            self._q = 1.0 / (exp_eps + 1.0)
            self._report_bits = float(domain_size)
            self._server_state_size = domain_size
        else:  # krr
            self._p = exp_eps / (exp_eps + domain_size - 1.0)
            self._q = 1.0 / (exp_eps + domain_size - 1.0)
            self._report_bits = max(math.log2(domain_size), 1.0)
            self._server_state_size = domain_size

    # ----- wire protocol --------------------------------------------------------

    def public_params(self):
        """The wire-level public parameters of this oracle configuration."""
        from repro.protocol.explicit import ExplicitHistogramParams
        return ExplicitHistogramParams(self.domain_size, self.epsilon,
                                       self.randomizer)

    def _load_wire_aggregate(self, histogram: np.ndarray, num_users: int,
                             state_size: int) -> None:
        """Adopt a finalized server aggregate (the wire path's last step)."""
        self._histogram = np.asarray(histogram, dtype=float)
        self._num_users = int(num_users)
        self._server_state_size = int(state_size)

    # ----- collection -----------------------------------------------------------

    def collect(self, values: Sequence[int], rng: RandomState = None,
                workers: int = 1, chunk_size: Optional[int] = None) -> None:
        """Simulate the full protocol: ``encode_batch → absorb_batch → finalize``.

        The simulation runs the engine's canonical chunk plan
        (:func:`repro.engine.run_simulation`): encoding is streamed in
        chunks with pre-drawn per-chunk seeds, so the OUE variant's k-bit
        reports never materialize an O(n * k) matrix and the result is
        bit-identical for any ``workers`` count.
        """
        from repro.engine import run_simulation
        gen = as_generator(rng)
        values = np.asarray(values, dtype=np.int64)
        params = self.public_params()
        aggregator = run_simulation(params, values, rng=gen, workers=workers,
                                    chunk_size=chunk_size).aggregator
        self._load_wire_aggregate(aggregator.histogram(),
                                  aggregator.num_reports,
                                  aggregator.state_size)

    # ----- estimation -------------------------------------------------------------

    def estimate(self, x: int) -> float:
        self._require_collected()
        x = check_domain_element(x, self.domain_size)
        return float(self._histogram[x])

    def estimate_many(self, xs) -> np.ndarray:
        self._require_collected()
        xs = np.asarray(list(xs), dtype=np.int64)
        if xs.size and (xs.min() < 0 or xs.max() >= self.domain_size):
            raise ValueError("queries outside the declared domain")
        return self._histogram[xs].astype(float)

    def histogram(self) -> np.ndarray:
        """Debiased frequency estimates for the entire domain."""
        self._require_collected()
        return np.array(self._histogram, copy=True)

    # ----- analysis ------------------------------------------------------------------

    @property
    def estimator_variance_per_user(self) -> float:
        """Per-user variance of the debiased estimator for a single cell."""
        if self.randomizer == "hadamard":
            return 1.0 / self._attenuation**2
        return self._q * (1.0 - self._q) / (self._p - self._q) ** 2

    def expected_error(self, beta: float) -> float:
        """High-probability error bound for a single query at failure probability β.

        Gaussian-approximation bound: ``sqrt(2 n Var ln(2/β))``, matching the
        ``O((1/ε) sqrt(n log(1/β)))`` shape of Theorem 3.8.
        """
        if not 0 < beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        return math.sqrt(2.0 * max(self._num_users, 1)
                         * self.estimator_variance_per_user * math.log(2.0 / beta))
