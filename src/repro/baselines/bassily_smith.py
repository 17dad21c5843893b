"""A Bassily-Smith [4]-style baseline: frequency oracle plus full-domain scan.

Table 1 credits Bassily and Smith (STOC 2015) with the first succinct
histogram protocol attaining the optimal ``sqrt(n log|X|)/ε`` error (up to the
β-dependence), but with server time ``O~(n^{2.5})``, user time ``O~(n^{1.5})``
and — in the simpler variant the paper's introduction alludes to — a runtime
"at least linear in |X|", which is what makes it impractical for large
domains.

This baseline reproduces that cost/accuracy profile in the simplest faithful
way, since Table 1's comparison needs only its error and its |X|-scan cost,
not the original construction: it builds a Hashtogram frequency oracle
with the full privacy budget, *scans every domain element*, and keeps elements
whose estimate clears the noise floor.  Success amplification uses
``R = Θ(log(1/β))`` repetitions over disjoint user groups with a median
combine, which reproduces the stronger-than-necessary β-dependence of the
pre-[3] constructions.  It is intended to be run on moderate domains only; the
benchmarks use it to populate the Bassily-Smith column of Table 1 and to show
the |X|-scan blow-up empirically.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

from repro.core.protocol import HeavyHitterProtocol
from repro.core.results import HeavyHitterResult
from repro.frequency.hashtogram import HashtogramOracle
from repro.utils.rng import RandomState, as_generator
from repro.utils.timer import ResourceMeter, Timer
from repro.utils.validation import check_positive_int, check_probability


class DomainScanHeavyHitters(HeavyHitterProtocol):
    """Frequency-oracle-scan heavy hitters (Bassily-Smith-style baseline).

    Parameters
    ----------
    domain_size, epsilon:
        Problem parameters.  The protocol enumerates all of [0, domain_size),
        so it refuses domains above ``max_scan_domain``.
    beta:
        Target failure probability; drives the repetition count.
    num_repetitions:
        Explicit override of the repetition count.
    max_scan_domain:
        Guard against accidentally scanning astronomically large domains.
    """

    name = "domain_scan_bs"

    def __init__(self, domain_size: int, epsilon: float, beta: float = 0.05,
                 num_repetitions: int | None = None,
                 max_scan_domain: int = 1 << 22) -> None:
        super().__init__(domain_size, epsilon)
        self.beta = check_probability(beta, "beta", allow_zero=False, allow_one=False)
        self.num_repetitions = num_repetitions
        self.max_scan_domain = int(max_scan_domain)
        if domain_size > self.max_scan_domain:
            raise ValueError(
                f"DomainScanHeavyHitters enumerates the domain and refuses "
                f"|X| = {domain_size} > {self.max_scan_domain}; this is the very "
                f"limitation the paper's protocol removes")

    def repetitions_for_beta(self) -> int:
        if self.num_repetitions is not None:
            return check_positive_int(self.num_repetitions, "num_repetitions")
        return max(1, int(round(math.log2(1.0 / self.beta))))

    def run(self, values: Sequence[int], rng: RandomState = None,
            chunk_size: int | None = None) -> HeavyHitterResult:
        gen = as_generator(rng)
        values = self._validate_values(values)
        num_users = int(values.size)
        meter = ResourceMeter()
        repetitions = self.repetitions_for_beta()

        # ----- collection: one oracle per repetition over a disjoint user group -------
        oracles = []
        group_sizes = []
        with Timer() as user_timer:
            assignment = self.partition_users(num_users, repetitions, gen)
            for r in range(repetitions):
                members = values[assignment == r]
                group_sizes.append(int(members.size))
                oracle = HashtogramOracle(self.domain_size, self.epsilon)
                oracle.collect(members, gen, chunk_size=chunk_size)
                oracles.append(oracle)
        meter.add_user_time(user_timer.elapsed)
        meter.add_communication(int(sum(
            o.report_bits * s
            for o, s in zip(oracles, group_sizes, strict=True))))
        meter.add_public_randomness(sum(o.public_randomness_bits for o in oracles))

        # ----- the domain scan (the expensive part) -------------------------------------
        with Timer() as scan_timer:
            all_elements = np.arange(self.domain_size)
            per_rep = np.stack([o.estimate_many(all_elements) for o in oracles])
            # Each repetition only saw n/R users; rescale to the full population
            # before the median combine.
            scales = np.array([num_users / max(s, 1) for s in group_sizes])
            scaled = per_rep * scales[:, None]
            combined = np.median(scaled, axis=0)
            noise_floor = float(np.median(
                [o.expected_error(self.beta) * num_users / max(s, 1)
                 for o, s in zip(oracles, group_sizes, strict=True)]))
            keep = combined >= noise_floor
            estimates: Dict[int, float] = {
                int(x): float(combined[x]) for x in np.nonzero(keep)[0]}
        meter.add_server_time(scan_timer.elapsed)
        meter.observe_server_memory(sum(o.server_state_size for o in oracles)
                                    + self.domain_size)

        return HeavyHitterResult(
            estimates=estimates,
            protocol=self.name,
            num_users=num_users,
            epsilon=self.epsilon,
            meter=meter,
            candidates=list(estimates),
            oracle=oracles[0] if oracles else None,
            metadata={
                "repetitions": repetitions,
                "noise_floor": noise_floor,
                "scanned_domain": self.domain_size,
            },
        )
