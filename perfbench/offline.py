"""Workload ``hh_offline``: PrivateExpanderSketch end to end, in process.

One engine round (``run_simulation(workers=1)``: client encode + absorb),
then ``finalize()`` into the heavy-hitter list.  Repeated while the run's
time budget lasts; every pass must equal the legacy
``PrivateExpanderSketch.run`` path (a different, per-coordinate streaming
code path) bit for bit, computed untimed after the measured passes.

The public parameters are rebuilt a few times after every pass, so the
``setup_s`` samples span the whole run, as the other metrics' do: on a
shared host the speed of a ~10 ms build shifts in phases lasting seconds,
and builds taken back to back would all land in one phase.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from common import (
    Outcome,
    log,
    lower_quartile,
    median,
    no_span,
    pass_budget,
    peak_rss_mb,
)

SIZES = {"full": {"num_users": 400_000, "domain_size": 1 << 20},
         "tiny": {"num_users": 20_000, "domain_size": 1 << 14}}
EPSILON = 1.0
HEAVY_FRACTIONS = (0.20, 0.10, 0.05)
#: parameter constructions after every pass; ``setup_s`` is the lower
#: quartile of these and the first one
SETUPS_PER_PASS = 4


@dataclass
class Inputs:
    values: np.ndarray
    planted: tuple
    params_seed: int
    num_users: int
    domain_size: int


def make_inputs(seed: int, shape: Dict[str, int]) -> Inputs:
    """Everything the system receives, derived from ``seed`` and the
    ``num_users``/``domain_size`` of ``shape`` alone."""
    from repro.workloads.distributions import planted_workload

    gen = np.random.default_rng([seed, 0x0FF1])
    workload = planted_workload(shape["num_users"], shape["domain_size"],
                                HEAVY_FRACTIONS, rng=gen)
    params_seed = int(gen.integers(0, 2**63 - 1))
    return Inputs(workload.values, workload.heavy_elements, params_seed,
                  shape["num_users"], shape["domain_size"])


@dataclass
class PassResult:
    ingest_s: float
    result_s: float
    engine_ingest_s: float
    candidates: list
    estimates: Dict[int, float]


def _one_pass(params, inputs: Inputs, plan_state: dict,
              recorder=None) -> PassResult:
    from repro.engine import run_simulation

    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = plan_state
    span = recorder.span if recorder is not None else no_span
    start = time.perf_counter()
    with span("bench.ingest"):
        result = run_simulation(params, inputs.values, rng=rng, workers=1)
    barrier = time.perf_counter()
    with span("bench.result"):
        heavy = result.finalize()
    answered = time.perf_counter()
    return PassResult(barrier - start, answered - barrier, result.ingest_s,
                      list(heavy.candidates), dict(heavy.estimates))


def _build_params(sketch, inputs: Inputs):
    """One timed construction of the public parameters from the run's
    params seed: ``(params, generator after the build, seconds)``."""
    gen = np.random.default_rng(inputs.params_seed)
    start = time.perf_counter()
    params = sketch.public_params(inputs.num_users, rng=gen)
    return params, gen, time.perf_counter() - start


def _handoff_bytes(params, inputs: Inputs, plan_state: dict):
    """Bytes per report handed from encoder to aggregator, in memory and
    as binary ``reports`` frames (untimed; same chunk plan)."""
    from repro.engine import encode_stream
    from repro.server import encode_reports_frame

    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = plan_state
    column_bytes = frame_bytes = 0
    for batch in encode_stream(params, inputs.values, rng=rng):
        column_bytes += sum(col.nbytes for col in batch.columns.values())
        frame_bytes += len(encode_reports_frame(batch, 0, "binary"))
    return column_bytes / inputs.num_users, frame_bytes / inputs.num_users


def run(seed: int, seconds: float, trace: bool, size: str,
        doctor_reference: bool = False) -> Outcome:
    from repro.core.heavy_hitters import PrivateExpanderSketch

    out = Outcome()
    inputs = make_inputs(seed, SIZES[size])
    sketch = PrivateExpanderSketch(inputs.domain_size, EPSILON)
    params, gen, first_setup_s = _build_params(sketch, inputs)
    # `gen` now sits exactly where PrivateExpanderSketch.run leaves it
    # before encoding, so the engine's chunk plan matches the legacy path
    plan_state = gen.bit_generator.state
    setup_times = [first_setup_s]
    out.meta.update({"num_users": inputs.num_users,
                     "domain_size": inputs.domain_size, "epsilon": EPSILON,
                     "heavy_fractions": list(HEAVY_FRACTIONS),
                     "planted": [int(x) for x in inputs.planted]})

    budget = seconds / 2 if trace else seconds
    passes: List[PassResult] = []
    started = time.perf_counter()
    last_pass_s = None
    while pass_budget(budget, time.perf_counter() - started, last_pass_s):
        pass_started = time.perf_counter()
        passes.append(_one_pass(params, inputs, plan_state))
        setup_times += [_build_params(sketch, inputs)[2]
                        for _ in range(SETUPS_PER_PASS)]
        last_pass_s = time.perf_counter() - pass_started
    log(f"hh_offline: {len(passes)} untraced pass(es), "
        f"{len(setup_times)} setups")
    rss = peak_rss_mb(os.getpid())

    traced: Optional[PassResult] = None
    dumps = []
    if trace:
        import spans
        recorder = spans.SpanRecorder("hh_offline", role="bench")
        spans.instrument(recorder)
        cpu0 = time.process_time()
        traced = _one_pass(params, inputs, plan_state, recorder)
        traced_cpu_s = time.process_time() - cpu0
        dumps = [recorder.to_dict()]

    # ----- correctness (untimed) --------------------------------------------------
    reference = sketch.run(inputs.values, rng=inputs.params_seed)
    ref_estimates = dict(reference.estimates)
    if doctor_reference:
        key = next(iter(ref_estimates), None)
        if key is None:
            ref_estimates[-1] = 0.0
        else:
            ref_estimates[key] += 1.0
    for index, p in enumerate(passes + ([traced] if traced else [])):
        out.attempted += inputs.num_users
        out.check(p.candidates == list(reference.candidates)
                  and p.estimates == ref_estimates,
                  f"pass {index}: heavy-hitter list differs from the legacy "
                  f"run()", inputs.num_users)
    column_bytes, frame_bytes = _handoff_bytes(params, inputs, plan_state)

    out.metrics = {
        "setup_s": lower_quartile(setup_times),
        "ingest_reports_per_s": inputs.num_users / lower_quartile(
            [p.ingest_s for p in passes]),
        "result_s": lower_quartile([p.result_s for p in passes]),
        "wire_bytes_per_report": column_bytes,
        "peak_rss_mb": rss,
    }
    out.meta.update({"passes": len(passes),
                     "setup_samples": len(setup_times),
                     "result_samples": len(passes),
                     "samples": {
                         "ingest_s": [round(p.ingest_s, 5) for p in passes],
                         "result_s": [round(p.result_s, 5) for p in passes],
                         "setup_s": [round(x, 6) for x in setup_times]},
                     "candidates": len(reference.candidates),
                     "wire_bytes_note": "in-process encoded column bytes"})
    if trace:
        import spans
        layers = spans.layer_metrics(dumps)
        untraced_e2e = median([p.ingest_s + p.result_s for p in passes])
        layers.update({
            "engine.ingest_s": traced.engine_ingest_s,
            "binary.wire_bits_per_report": 8.0 * frame_bytes,
            "binary.claimed_bits_per_report": float(params.report_bits),
            "cpu.client_s": traced_cpu_s,
            "trace.overhead_frac": (traced.ingest_s + traced.result_s)
            / untraced_e2e - 1.0,
        })
        out.layers = layers
        out.self_times = spans.self_time_report(dumps)
    return out
