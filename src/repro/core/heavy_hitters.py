"""Algorithm PrivateExpanderSketch (Section 3.3): optimal-error LDP heavy hitters.

The execution follows the paper's algorithm box step by step:

Public randomness
    A round-robin partition of the users into M groups I_1, ..., I_M, pairwise
    independent hashes ``h_1, ..., h_M : X -> [Y]``, and an
    O(log|X|)-wise independent partition hash ``g : X -> [B]``.  The
    unique-list-recoverable code (Enc, Dec) of Theorem 3.6 is built on the
    h_m's.  All of it is packaged as serializable wire parameters
    (:class:`~repro.protocol.heavy_hitters.ExpanderSketchParams`).

Step 1
    For every coordinate m, the users in I_m run a frequency oracle with
    privacy ε/2 over the derived values ``(g(x), h_m(x), E~nc(x)_m)``.  The
    oracle is the small-domain Hashtogram variant (Hadamard response +
    fast Walsh-Hadamard decoding), so the server obtains estimates
    ``f̂_{S_m}(b, y, z)`` for every cell.

Steps 2-3
    For every (m, b, y) the server takes the arg-max over z and keeps the pair
    (y, z) if its estimated frequency clears the detection threshold, building
    the lists L^b_m (at most ℓ entries each, largest estimates first).

Step 4
    For every partition bucket b, the list-recoverable decoder returns the
    candidate set Ĥ^b; Ĥ is their union.

Step 5
    A second Hashtogram with privacy ε/2 over the *original* domain estimates
    the frequency of every candidate; the output is Est = {(x, f̂(x)) : x ∈ Ĥ}.

Each user participates in exactly one coordinate oracle and the final oracle,
spending ε/2 + ε/2 = ε, so the protocol is ε-LDP exactly as in the paper.

:meth:`PrivateExpanderSketch.run` is the one-shot simulation entry point: it
encodes every user through the stateless wire encoder
(``encode_batch``), then streams the server side one coordinate at a time so
its peak memory stays a single coordinate oracle.  A sharded deployment
instead uses :class:`~repro.protocol.heavy_hitters.ExpanderSketchAggregator`
(``absorb_batch`` on each shard, ``merge``, ``finalize``), which reproduces
``run()``'s estimates bit for bit from the same encoded reports.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.params import ProtocolParameters
from repro.core.protocol import HeavyHitterProtocol
from repro.core.results import HeavyHitterResult
from repro.engine.engine import encode_concat
from repro.frequency.hashtogram import HashtogramOracle
from repro.protocol.heavy_hitters import (
    ExpanderSketchParams,
    append_coordinate_lists,
    decode_candidate_lists,
    detection_threshold,
    final_subbatch,
    stage1_best,
    stage1_subbatch,
)
from repro.utils.rng import RandomState, as_generator
from repro.utils.timer import ResourceMeter, Timer
from repro.utils.validation import check_probability


class PrivateExpanderSketch(HeavyHitterProtocol):
    """The paper's heavy-hitters protocol with optimal worst-case error.

    Parameters
    ----------
    domain_size:
        Size of the input domain |X| (inputs are integers in [0, |X|)).
    epsilon:
        Total per-user privacy budget (split ε/2 + ε/2 across the two stages).
    beta:
        Target failure probability (drives the parameter derivation only).
    params:
        Fully explicit :class:`ProtocolParameters`; if omitted they are derived
        from (n, |X|, ε, β) at :meth:`run` time.
    small_domain_cutoff:
        For domains no larger than this the protocol falls back to querying a
        single frequency oracle on every domain element, as the paper suggests
        for the regime n > |X| (Section 3.3, remark before Theorem 3.13).
        Set to 0 to disable the fallback.
    max_cells:
        Safety cap on the per-coordinate oracle domain B*Y*Z; exceeding it
        raises with a hint to shrink Y or the expander degree.
    **overrides:
        Forwarded to :meth:`ProtocolParameters.derive`.
    """

    name = "private_expander_sketch"

    def __init__(self, domain_size: int, epsilon: float, beta: float = 0.05,
                 params: ProtocolParameters | None = None,
                 small_domain_cutoff: int = 1024,
                 max_cells: int = 1 << 24,
                 **overrides) -> None:
        super().__init__(domain_size, epsilon)
        self.beta = check_probability(beta, "beta", allow_zero=False, allow_one=False)
        self._explicit_params = params
        self._overrides = overrides
        self.small_domain_cutoff = int(small_domain_cutoff)
        self.max_cells = int(max_cells)

    # ----- parameterisation ---------------------------------------------------------

    def parameters_for(self, num_users: int) -> ProtocolParameters:
        """The parameters used for a database with ``num_users`` users."""
        if self._explicit_params is not None:
            return self._explicit_params
        return ProtocolParameters.derive(num_users, self.domain_size, self.epsilon,
                                         self.beta, **self._overrides)

    def public_params(self, num_users: int,
                      rng: RandomState = None) -> ExpanderSketchParams:
        """Sample the serializable wire parameters for a ``num_users`` run."""
        return ExpanderSketchParams.create(num_users, self.domain_size,
                                           self.epsilon,
                                           self.parameters_for(num_users),
                                           rng=rng)

    # ----- execution -------------------------------------------------------------------

    def run(self, values: Sequence[int], rng: RandomState = None,
            chunk_size: int | None = None) -> HeavyHitterResult:
        gen = as_generator(rng)
        values = self._validate_values(values)
        num_users = int(values.size)
        meter = ResourceMeter()

        if 0 < self.small_domain_cutoff >= self.domain_size:
            return self._run_small_domain(values, gen, meter)

        # ----- public randomness -----------------------------------------------------
        with Timer() as setup_timer:
            wire = self.public_params(num_users, rng=gen)
        params = wire.params
        meter.add_public_randomness(wire.public_randomness_bits)
        meter.bump("setup_time_s", setup_timer.elapsed)

        num_cells = wire.num_cells
        if num_cells > self.max_cells:
            raise ValueError(
                f"per-coordinate oracle domain has {num_cells} cells "
                f"(> max_cells={self.max_cells}); reduce hash_range or "
                f"expander_degree, or increase num_coordinates")

        # ----- client side: every user encodes one wire report -------------------------
        # The engine's canonical chunk stream (per-chunk seeds pre-drawn from
        # `gen`) makes this encoding bit-identical to a multiprocess
        # `repro.engine.run_simulation` run with the same seed.
        with Timer() as user_timer:
            batch = encode_concat(wire, values, gen, chunk_size=chunk_size)
        meter.add_user_time(user_timer.elapsed)
        meter.add_communication(int(wire.report_bits * num_users))

        # ----- steps 1-3: per-coordinate ingestion and the lists L^b_m -----------------
        # The one-shot simulation streams one coordinate at a time and keeps
        # only the (y, z) lists, so its working memory never holds more than a
        # single coordinate aggregator (plus the final-stage Hashtogram
        # below).  Sharded deployments use ExpanderSketchAggregator instead.
        coordinates = np.asarray(batch.columns["coordinate"], dtype=np.int64)
        group_sizes: List[int] = []
        lists: List[List[List[tuple]]] = [
            [[] for _ in range(params.num_coordinates)]
            for _ in range(params.num_buckets)]
        peak_oracle_state = 0
        shape = (params.num_buckets, params.hash_range,
                 wire.code.z_alphabet_size)
        for m in range(params.num_coordinates):
            aggregator = wire.stage1.make_aggregator()
            with Timer() as ingest_timer:
                aggregator.absorb_batch(
                    stage1_subbatch(batch, coordinates == m,
                                    wire.stage1.protocol))
            meter.add_server_time(ingest_timer.elapsed)
            group_sizes.append(aggregator.num_reports)
            peak_oracle_state = max(peak_oracle_state, aggregator.state_size)
            with Timer() as list_timer:
                best_z, best_value = stage1_best(aggregator, shape)
                append_coordinate_lists(
                    best_z, best_value,
                    detection_threshold(aggregator, params.threshold_std), m,
                    params.list_size, lists)
            meter.add_server_time(list_timer.elapsed)

        # ----- step 4: decode every bucket --------------------------------------------------
        with Timer() as decode_timer:
            candidates = decode_candidate_lists(wire.code, lists,
                                                params.num_buckets)
        meter.add_server_time(decode_timer.elapsed)

        # ----- step 5: final frequency estimates --------------------------------------------
        with Timer() as final_timer:
            final_aggregator = wire.final.make_aggregator()
            final_aggregator.absorb_batch(
                final_subbatch(batch, wire.final.protocol))
            final_oracle: HashtogramOracle = final_aggregator.finalize()
        meter.add_server_time(final_timer.elapsed)

        with Timer() as estimate_timer:
            estimates: Dict[int, float] = {}
            if candidates:
                estimated = final_oracle.estimate_many(candidates)
                estimates = {int(x): float(a)
                             for x, a in zip(candidates, estimated, strict=True)}
        meter.add_server_time(estimate_timer.elapsed)

        meter.observe_server_memory(
            peak_oracle_state
            + final_aggregator.state_size
            + sum(len(per_coord) * 2
                  for per_bucket in lists for per_coord in per_bucket))

        return HeavyHitterResult(
            estimates=estimates,
            protocol=self.name,
            num_users=num_users,
            epsilon=self.epsilon,
            meter=meter,
            candidates=candidates,
            oracle=final_oracle,
            metadata={"parameters": params.describe(),
                      "group_sizes": group_sizes,
                      "num_cells": num_cells,
                      "report_bits": wire.report_bits,
                      "server_state_size": (peak_oracle_state
                                            + final_aggregator.state_size),
                      "list_sizes": [len(per_coord)
                                     for per_bucket in lists
                                     for per_coord in per_bucket]},
        )

    # ----- internals ----------------------------------------------------------------------

    def _run_small_domain(self, values: np.ndarray, gen: np.random.Generator,
                          meter: ResourceMeter) -> HeavyHitterResult:
        """Small-domain fallback: query a single frequency oracle on every element.

        This is the paper's observation that for n > |X| one can apply the
        frequency oracle of Theorem 3.7 to every item of X and keep the same
        guarantees.
        """
        with Timer() as user_timer:
            oracle = HashtogramOracle(self.domain_size, self.epsilon)
            oracle.collect(values, gen)
        meter.add_user_time(user_timer.elapsed)
        meter.add_communication(int(oracle.report_bits * values.size))
        meter.add_public_randomness(oracle.public_randomness_bits)

        with Timer() as server_timer:
            all_estimates = oracle.estimate_many(np.arange(self.domain_size))
            # Keep the O(n / Delta)-sized head of the histogram: elements whose
            # estimate clears the oracle's own noise floor.
            noise_floor = oracle.expected_error(beta=self.beta)
            estimates = {int(x): float(a) for x, a in enumerate(all_estimates)
                         if a >= noise_floor}
        meter.add_server_time(server_timer.elapsed)
        meter.observe_server_memory(oracle.server_state_size)

        return HeavyHitterResult(
            estimates=estimates,
            protocol=self.name,
            num_users=int(values.size),
            epsilon=self.epsilon,
            meter=meter,
            candidates=list(estimates),
            oracle=oracle,
            metadata={"mode": "small_domain_enumeration",
                      "noise_floor": float(noise_floor),
                      "report_bits": float(oracle.report_bits),
                      "server_state_size": int(oracle.server_state_size)},
        )
