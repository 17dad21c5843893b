"""Experiment E9: the Theorem 7.2 lower bound and its anti-concentration engine.

Two parts:

* the counting experiment — the replicated-database construction from the
  proof of Theorem 7.2 run against the optimal ε-LDP counting protocol, with
  the measured (1-β)-quantile error compared to the
  ``Ω((1/ε) sqrt(n log(1/β)))`` curve and the matching upper bound; and
* the anti-concentration curve — exact escape probabilities of a
  Poisson-binomial sum from intervals of the Corollary 7.6 width, verifying
  that the β it promises is actually attained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.lowerbounds.anti_concentration import (
    corollary_interval_halfwidth,
    interval_escape_probability,
    poisson_binomial_moments,
)
from repro.lowerbounds.counting import CountingLowerBoundExperiment
from repro.utils.rng import RandomState


@dataclass
class LowerBoundConfig:
    """Configuration for the lower-bound experiments."""

    num_users: int = 8_000
    epsilon: float = 1.0
    betas: List[float] = field(default_factory=lambda: [0.3, 0.1, 0.03, 0.01])
    num_trials: int = 300
    anticoncentration_bits: int = 400
    rng: RandomState = 0


def run_counting_lower_bound(config: LowerBoundConfig | None = None
                             ) -> List[Dict[str, object]]:
    """Measured error quantiles of the counting protocol vs the Theorem 7.2 curve."""
    config = config or LowerBoundConfig()
    experiment = CountingLowerBoundExperiment(config.num_users, config.epsilon)
    summary = experiment.run_trials(config.num_trials, rng=config.rng)
    rows = []
    for beta in config.betas:
        rows.append({
            "beta": beta,
            "measured_quantile_error": summary.quantile(beta),
            "lower_bound": experiment.lower_bound_curve([beta])[0],
            "upper_bound": experiment.upper_bound_error(beta),
            "num_source_bits": experiment.num_source_bits,
        })
    return rows


def run_anti_concentration(config: LowerBoundConfig | None = None
                           ) -> List[Dict[str, object]]:
    """Exact escape probabilities from Corollary 7.6-width intervals."""
    config = config or LowerBoundConfig()
    probabilities = [0.5] * config.anticoncentration_bits
    mean, variance = poisson_binomial_moments(probabilities)
    rows = []
    for beta in config.betas:
        halfwidth = corollary_interval_halfwidth(variance, beta, constant=0.5)
        escape = interval_escape_probability(probabilities, mean - halfwidth,
                                             mean + halfwidth)
        rows.append({
            "beta": beta,
            "interval_halfwidth": halfwidth,
            "exact_escape_probability": escape,
            "escape_at_least_beta": escape >= beta,
        })
    return rows

