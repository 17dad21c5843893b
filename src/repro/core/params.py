"""Parameter derivation for Algorithm PrivateExpanderSketch.

The paper sets (for universal constants C_M, C_Y, C_ℓ, C_g, C_f):

* ``M  = C_M · log|X| / log log|X|``  — number of coordinates,
* ``Y  = log^{C_Y} |X|``              — range of the per-coordinate hashes,
* ``ℓ  = C_ℓ · log|X|``               — per-(coordinate, bucket) list length,
* ``B  = Θ(ε sqrt(n) / log^{3/2}|X|)`` — number of partition buckets (from the
  proof of Event E1),
* detection threshold ``C_f · (log log|X| / ε) · sqrt(n / log|X|)``.

The asymptotic constants are unspecified; :meth:`ProtocolParameters.derive`
instantiates them with practical values (every field can be overridden), and
records both the paper-formula value and the value actually used so that
experiments can report the mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.utils.validation import (
    check_epsilon,
    check_positive_int,
    check_probability,
)


@dataclass(frozen=True)
class ProtocolParameters:
    """Concrete parameters of one PrivateExpanderSketch execution.

    Attributes
    ----------
    domain_size, num_users, epsilon, beta:
        Problem parameters (|X|, n, ε, failure probability β).
    num_coordinates:
        M — number of independent coordinates / user groups.
    num_buckets:
        B — range of the partition hash g.
    hash_range:
        Y — range of the per-coordinate hashes h_m.
    list_size:
        ℓ — maximum number of (y, z) pairs kept per (coordinate, bucket).
    expander_degree:
        d — degree of the neighbourhood expander used by the code.
    code_rate:
        Rate of the outer Reed-Solomon code (message/codeword length ratio).
    alpha:
        Fraction of coordinates a heavy hitter may lose and still be decoded.
    threshold_std:
        Detection threshold expressed in standard deviations of the
        per-coordinate oracle noise (the practical counterpart of the C_f
        constant).
    partition_independence:
        Independence of the partition hash g (the paper's C_g · log|X|).
    oracle_randomizer:
        Inner randomizer of the per-coordinate frequency oracles.
    final_oracle_repetitions / final_oracle_buckets:
        Configuration of the step-5 Hashtogram over the original domain.
    """

    domain_size: int
    num_users: int
    epsilon: float
    beta: float
    num_coordinates: int
    num_buckets: int
    hash_range: int
    list_size: int
    expander_degree: int = 2
    code_rate: float = 0.5
    alpha: float = 0.25
    threshold_std: float = 2.0
    partition_independence: int = 8
    oracle_randomizer: str = "hadamard"
    final_oracle_repetitions: int = 5
    final_oracle_buckets: Optional[int] = None
    notes: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive_int(self.domain_size, "domain_size")
        check_positive_int(self.num_users, "num_users")
        check_epsilon(self.epsilon)
        check_probability(self.beta, "beta", allow_zero=False, allow_one=False)
        check_positive_int(self.num_coordinates, "num_coordinates")
        check_positive_int(self.num_buckets, "num_buckets")
        check_positive_int(self.hash_range, "hash_range")
        check_positive_int(self.list_size, "list_size")
        check_positive_int(self.expander_degree, "expander_degree")
        if not 0 < self.code_rate <= 1:
            raise ValueError("code_rate must lie in (0, 1]")
        check_probability(self.alpha, "alpha", allow_zero=True, allow_one=False)

    # ----- derivation -------------------------------------------------------------

    @classmethod
    def derive(cls, num_users: int, domain_size: int, epsilon: float, beta: float,
               **overrides) -> "ProtocolParameters":
        """Derive practical parameters from (n, |X|, ε, β).

        Every keyword in ``overrides`` replaces the derived value of the field
        with the same name, so experiments can sweep a single knob while
        keeping the rest of the derivation.
        """
        check_positive_int(num_users, "num_users")
        check_positive_int(domain_size, "domain_size")
        check_epsilon(epsilon)
        check_probability(beta, "beta", allow_zero=False, allow_one=False)

        log_domain = max(math.log2(domain_size), 2.0)
        loglog_domain = max(math.log2(log_domain), 1.0)

        # M = C_M log|X| / loglog|X| with C_M chosen so that laptop-scale
        # domains land on a single-digit number of coordinates.  The lower
        # clamp of 6 keeps the outer code's field (p >= |X|^{1/(rate*M)})
        # small enough that the per-coordinate oracle domain stays enumerable.
        paper_m = 2.0 * log_domain / loglog_domain
        num_coordinates = int(min(max(round(paper_m), 6), 16))

        # Y = polylog(|X|).  Kept at a small power of two: the per-coordinate
        # oracle domain is B * Y * (p * Y^d) and Y enters with exponent d+1.
        hash_range = 16 if log_domain <= 40 else 32

        # B = Θ(ε sqrt(n) / log^{3/2}|X|), clamped to a sane range.
        paper_b = epsilon * math.sqrt(num_users) / (log_domain ** 1.5)
        num_buckets = int(min(max(round(paper_b), 2), 64))

        # ℓ = C_ℓ log|X|.
        list_size = int(max(8, round(2 * log_domain)))

        params = cls(
            domain_size=domain_size,
            num_users=num_users,
            epsilon=epsilon,
            beta=beta,
            num_coordinates=num_coordinates,
            num_buckets=num_buckets,
            hash_range=hash_range,
            list_size=list_size,
            notes={
                "paper_num_coordinates": paper_m,
                "paper_num_buckets": paper_b,
            },
        )
        if overrides:
            unknown = set(overrides) - set(params.__dataclass_fields__)
            if unknown:
                raise TypeError(f"unknown parameter overrides: {sorted(unknown)}")
            params = replace(params, **overrides)
        return params

    # ----- derived quantities -------------------------------------------------------

    @property
    def epsilon_per_stage(self) -> float:
        """Privacy budget of each of the two stages (ε/2 each, as in the paper)."""
        return self.epsilon / 2.0

    @property
    def num_components(self) -> int:
        """Number of components of the packed symbol z reported per user.

        The implementation reports one uniformly chosen component of
        ``(chunk, neighbour hashes)`` per user — the chunk plus ``d``
        neighbour hash values — rather than the full packed symbol, so the
        per-coordinate oracle domain stays enumerable (the full packed
        symbol would make it exponential in ``d``).
        """
        return self.expander_degree + 1

    def detection_threshold(self) -> float:
        """The paper-formula detection threshold C_f·(loglog|X|/ε)·sqrt(n/log|X|)."""
        log_domain = max(math.log2(self.domain_size), 2.0)
        loglog_domain = max(math.log2(log_domain), 1.0)
        return loglog_domain / self.epsilon * math.sqrt(self.num_users / log_domain)

    def theoretical_error(self, constant: float = 1.0) -> float:
        """The Theorem 3.13 error bound ``(C/ε) sqrt(n log(|X|/β))``."""
        return (constant / self.epsilon
                * math.sqrt(self.num_users * math.log(self.domain_size / self.beta)))

    def describe(self) -> Dict[str, float]:
        """Flat dictionary of all parameters (for logging and EXPERIMENTS.md)."""
        out = {
            "domain_size": self.domain_size,
            "num_users": self.num_users,
            "epsilon": self.epsilon,
            "beta": self.beta,
            "num_coordinates": self.num_coordinates,
            "num_buckets": self.num_buckets,
            "hash_range": self.hash_range,
            "list_size": self.list_size,
            "expander_degree": self.expander_degree,
            "code_rate": self.code_rate,
            "alpha": self.alpha,
            "threshold_std": self.threshold_std,
        }
        out.update(self.notes)
        return out
