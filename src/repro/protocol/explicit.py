"""Wire protocol for the small-domain explicit histogram oracle (Theorem 3.8).

**Paper reference.** Theorem 3.8: for domain size k ≲ n, an ε-LDP frequency
oracle with worst-case error ``O((1/ε) sqrt(n log(k/β)))`` — the
"explicit histogram" building block every larger construction (Hashtogram,
the heavy-hitters stage-1 oracles) instantiates on a derived small domain.

**Report size.** Three interchangeable local randomizers share one
parameter/report format:

* ``"hadamard"`` — a uniformly random Hadamard row index plus one (possibly
  flipped) ±1 entry: ``log2(padded) + 1`` bits on the wire (the
  communication-optimal choice, and the default);
* ``"oue"`` — the full k-bit noisy one-hot vector: ``k`` bits;
* ``"krr"`` — a single (possibly lied-about) domain element: ``log2 k`` bits.

**Server cost.** One integer accumulator of ``padded`` (hadamard) or ``k``
(oue/krr) scalars regardless of n; ingestion is O(1) integer additions per
report.  ``finalize()`` pays O(k) for oue/krr, and O(k log k) for hadamard's
exact integer decode :func:`~repro.randomizers.hadamard.hadamard_outputs`,
whose only float step is the final division by the attenuation.
Aggregation is exact integer accumulation (signed counts per Hadamard row,
per-column one counts, or a value histogram); debiasing happens only in
``finalize()``, so shard merges and snapshot/restore are bit-exact.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.frequency.explicit import ExplicitHistogramOracle
from repro.protocol.wire import (
    ClientEncoder,
    CountLayout,
    PublicParams,
    ReportBatch,
    ServerAggregator,
    int_column,
    register_protocol,
)
from repro.randomizers.hadamard import hadamard_outputs
from repro.utils.bits import next_power_of_two
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_epsilon, check_positive_int


@register_protocol
class ExplicitHistogramParams(PublicParams):
    """Public parameters of the small-domain oracle.

    The small-domain protocol needs no public randomness beyond the
    configuration itself (the Hadamard row choice is each user's *local*
    randomness), so serialization is just the three scalars.
    """

    protocol = "explicit_histogram"

    def __init__(self, domain_size: int, epsilon: float,
                 randomizer: str = "hadamard") -> None:
        self.domain_size = check_positive_int(domain_size, "domain_size")
        self.epsilon = check_epsilon(epsilon)
        if randomizer not in ("hadamard", "oue", "krr"):
            raise ValueError("randomizer must be 'hadamard', 'oue' or 'krr'")
        self.randomizer = randomizer

        exp_eps = math.exp(epsilon)
        if randomizer == "hadamard":
            self.padded = next_power_of_two(domain_size + 1)
            self.keep_prob = exp_eps / (exp_eps + 1.0)
            self.attenuation = (exp_eps - 1.0) / (exp_eps + 1.0)
        elif randomizer == "oue":
            self.p = 0.5
            self.q = 1.0 / (exp_eps + 1.0)
        else:  # krr
            self.p = exp_eps / (exp_eps + domain_size - 1.0)
            self.q = 1.0 / (exp_eps + domain_size - 1.0)

    # ----- serialization ---------------------------------------------------------

    def _payload_dict(self) -> Dict[str, object]:
        return {"domain_size": self.domain_size,
                "epsilon": self.epsilon,
                "randomizer": self.randomizer}

    @classmethod
    def _from_payload(cls, payload: Dict[str, object]) -> "ExplicitHistogramParams":
        return cls(int(payload["domain_size"]), float(payload["epsilon"]),
                   str(payload["randomizer"]))

    # ----- factories -------------------------------------------------------------

    def make_encoder(self) -> "ExplicitHistogramEncoder":
        return ExplicitHistogramEncoder(self)

    def make_aggregator(self) -> "ExplicitHistogramAggregator":
        return ExplicitHistogramAggregator(self)

    # ----- accounting ------------------------------------------------------------

    @property
    def report_bits(self) -> float:
        """Wire size of one report: the serialized payload width in bits."""
        if self.randomizer == "hadamard":
            return math.log2(self.padded) + 1.0          # row index + sign bit
        if self.randomizer == "oue":
            return float(self.domain_size)               # one bit per column
        return max(math.log2(self.domain_size), 1.0)     # the reported value

    @property
    def estimator_variance_per_user(self) -> float:
        """Per-user variance of one debiased cell estimate, from the
        parameters alone (the fitted oracle reports this same figure)."""
        if self.randomizer == "hadamard":
            return 1.0 / self.attenuation**2
        return self.q * (1.0 - self.q) / (self.p - self.q) ** 2

    @property
    def layout(self) -> CountLayout:
        """One accumulator: signed counts per Hadamard row (hadamard),
        per-column one counts (oue), or a value histogram (krr)."""
        return CountLayout(self.padded if self.randomizer == "hadamard"
                           else self.domain_size)


class ExplicitHistogramEncoder(ClientEncoder):
    """Stateless per-user randomizer of the small-domain oracle."""

    params: ExplicitHistogramParams

    def encode_batch(self, values: Sequence[int], rng: RandomState = None,
                     first_user_index: int = 0) -> ReportBatch:
        gen = as_generator(rng)
        params = self.params
        values = np.asarray(values, dtype=np.int64)
        if values.size and (values.min() < 0 or values.max() >= params.domain_size):
            raise ValueError("values outside the declared domain")
        n = values.size
        if params.randomizer == "hadamard":
            # Column 0 of the Hadamard matrix carries no signal, shift by one.
            rows = gen.integers(0, params.padded, size=n)
            parity = np.bitwise_count(np.bitwise_and(rows, values + 1)) & 1
            true_bits = (1 - 2 * parity.astype(np.int64)).astype(np.int8)
            keep = gen.random(n) < params.keep_prob
            bits = np.where(keep, true_bits, -true_bits).astype(np.int8)
            return ReportBatch(params.protocol, {"row": rows, "bit": bits})
        if params.randomizer == "oue":
            onehot = values[:, None] == np.arange(params.domain_size)[None, :]
            uniform = gen.random((n, params.domain_size))
            bits = np.where(onehot, uniform < params.p,
                            uniform < params.q).astype(np.uint8)
            return ReportBatch(params.protocol, {"bits": bits})
        # krr: report the truth w.p. p, otherwise one of the k-1 other values
        # uniformly (each specific lie has probability q).
        k = params.domain_size
        if k == 1:
            reported = np.zeros(n, dtype=np.int64)
        else:
            keep = gen.random(n) < params.p
            lies = gen.integers(0, k - 1, size=n)
            lies += (lies >= values).astype(np.int64)
            reported = np.where(keep, values, lies)
        return ReportBatch(params.protocol, {"value": reported})


class ExplicitHistogramAggregator(ServerAggregator):
    """Exact integer accumulation of small-domain reports."""

    params: ExplicitHistogramParams

    def _report_cells(self, columns) -> List[Tuple[np.ndarray, np.ndarray]]:
        params = self.params
        if params.randomizer == "hadamard":
            rows = int_column(columns, "row", 0, params.padded)
            bits = int_column(columns, "bit", -1, 2)
            if not bits.all():
                raise ValueError("bit column has entries outside {-1, +1}")
            return [(rows[None, :], bits[None, :])]
        k = params.domain_size
        if params.randomizer == "oue":
            return [(np.arange(k)[:, None],
                     int_column(columns, "bits", 0, 2, width=k).T)]
        values = int_column(columns, "value", 0, k)[None, :]
        return [(values, np.ones_like(values))]

    # ----- estimation ---------------------------------------------------------------

    def histogram(self) -> np.ndarray:
        """Debiased frequency estimates for the whole domain."""
        params = self.params
        n = self.num_reports
        if params.randomizer == "hadamard":
            return (hadamard_outputs(self.counts, params.domain_size)
                    / params.attenuation)
        return (self.counts - n * params.q) / (params.p - params.q)

    def finalize(self):
        """Fitted :class:`~repro.frequency.explicit.ExplicitHistogramOracle`."""
        oracle = ExplicitHistogramOracle(self.params.domain_size,
                                         self.params.epsilon,
                                         randomizer=self.params.randomizer)
        oracle._load_wire_aggregate(self.histogram(), self.num_reports,
                                    self.state_size)
        return oracle
