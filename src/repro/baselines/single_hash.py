"""The single-hash heavy-hitters reduction of Bassily et al. [3] (Section 3.1.1).

This is the baseline whose error carries the extra ``sqrt(log(1/β))`` factor
the paper's new protocol removes (Theorem 3.3 vs Theorem 3.13).  The
construction surveyed in Section 3.1.1:

* one public hash ``h : X -> [T]`` maps every input to a hash value;
* each domain element is written as M symbols over an alphabet [W];
* for every coordinate m, a frequency oracle over pairs ``(h(x), x[m])``
  lets the server read off, for every hash value t, the most frequent symbol
  in position m, reconstructing a potential heavy hitter x̂(t) symbol by
  symbol;
* because a single hash fails (collides) with constant probability per heavy
  hitter, the whole scheme is repeated ``R = Θ(log(1/β))`` times with
  independent hashes and the candidate sets are united — and it is exactly
  this repetition that costs the extra ``sqrt(log(1/β))`` in the error, since
  the users (and privacy budget) are split across repetitions.

Users are round-robin partitioned across (repetition, coordinate) pairs; each
user spends ε/2 on her coordinate report and ε/2 on the final estimation
oracle, exactly mirroring the budget split of PrivateExpanderSketch so that
the comparison isolates the structural difference (one shared hash +
repetitions versus per-coordinate hashes + list-recoverable code).

The wire-level decomposition lives in
:class:`repro.protocol.heavy_hitters.SingleHashParams`; :meth:`run` is the
one-shot simulation built on it.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.protocol import HeavyHitterProtocol
from repro.core.results import HeavyHitterResult
from repro.protocol.heavy_hitters import SingleHashParams
from repro.protocol.wire import default_buckets
from repro.utils.bits import bits_needed
from repro.utils.rng import RandomState, as_generator
from repro.utils.timer import ResourceMeter, Timer
from repro.utils.validation import check_positive_int, check_probability


class SingleHashHeavyHitters(HeavyHitterProtocol):
    """Bassily et al. [3]-style heavy hitters with repetition-based amplification.

    Parameters
    ----------
    domain_size, epsilon:
        Problem parameters.
    beta:
        Target failure probability; the number of repetitions is
        ``max(1, round(log2(1/β)))`` — the β-dependence of this protocol.
    hash_range:
        Range T of the shared hash (defaults to ``ceil(sqrt(n))`` at run time).
    symbol_bits:
        Number of bits per reconstructed symbol (alphabet W = 2^symbol_bits).
    num_repetitions:
        Explicit override of the repetition count (otherwise derived from β).
    threshold_std:
        Detection threshold in units of the per-cell oracle noise.
    """

    name = "single_hash_bnst"

    def __init__(self, domain_size: int, epsilon: float, beta: float = 0.05,
                 hash_range: int | None = None, symbol_bits: int = 4,
                 num_repetitions: int | None = None,
                 threshold_std: float = 2.0) -> None:
        super().__init__(domain_size, epsilon)
        self.beta = check_probability(beta, "beta", allow_zero=False, allow_one=False)
        self.hash_range = hash_range
        self.symbol_bits = check_positive_int(symbol_bits, "symbol_bits")
        self.num_repetitions = num_repetitions
        self.threshold_std = float(threshold_std)

    # ----- derived dimensions ---------------------------------------------------

    @property
    def alphabet_size(self) -> int:
        return 1 << self.symbol_bits

    @property
    def num_symbols(self) -> int:
        """Number of symbols M needed to spell out one domain element."""
        return max(1, math.ceil(bits_needed(self.domain_size) / self.symbol_bits))

    def repetitions_for_beta(self) -> int:
        if self.num_repetitions is not None:
            return check_positive_int(self.num_repetitions, "num_repetitions")
        return max(1, int(round(math.log2(1.0 / self.beta))))

    # ----- wire parameters ------------------------------------------------------

    def public_params(self, num_users: int,
                      rng: RandomState = None) -> SingleHashParams:
        """Sample the serializable wire parameters for a ``num_users`` run."""
        hash_range = self.hash_range or default_buckets(num_users)
        return SingleHashParams.create(
            num_users, self.domain_size, self.epsilon,
            repetitions=self.repetitions_for_beta(),
            num_symbols=self.num_symbols, symbol_bits=self.symbol_bits,
            hash_range=hash_range, threshold_std=self.threshold_std, rng=rng)

    # ----- execution ----------------------------------------------------------------

    def run(self, values: Sequence[int], rng: RandomState = None,
            chunk_size: int | None = None) -> HeavyHitterResult:
        """One-shot simulation: ``encode_batch → absorb_batch → finalize``."""
        from repro.engine.engine import encode_concat
        gen = as_generator(rng)
        values = self._validate_values(values)
        num_users = int(values.size)
        meter = ResourceMeter()

        with Timer() as setup_timer:
            wire = self.public_params(num_users, rng=gen)
        meter.bump("setup_time_s", setup_timer.elapsed)
        meter.add_public_randomness(wire.public_randomness_bits)

        with Timer() as user_timer:
            batch = encode_concat(wire, values, gen, chunk_size=chunk_size)
        meter.add_user_time(user_timer.elapsed)
        meter.add_communication(int(wire.report_bits * num_users))

        with Timer() as ingest_timer:
            aggregator = wire.make_aggregator()
            aggregator.absorb_batch(batch)
        meter.add_server_time(ingest_timer.elapsed)

        with Timer() as finalize_timer:
            result = aggregator.finalize(meter=meter)
        meter.add_server_time(finalize_timer.elapsed)
        return result
