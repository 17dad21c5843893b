"""Ablation experiments A1 and A2: per-coordinate hashing and Hashtogram sizing.

A1 — hashing structure: PrivateExpanderSketch uses *independent per-coordinate
hashes* combined by a list-recoverable code, versus the single shared hash of
the Bassily et al. [3] reduction (which then needs repetitions).  The ablation
runs both on the same planted workload at a fixed β and reports recall and the
realised repetition count — isolating the structural change responsible for
the improved β-dependence.

A2 — Hashtogram internals: the bucket-count / repetition trade-off of the
final-stage frequency oracle.  More buckets reduce collision noise but raise
memory; more repetitions reduce variance per query but add public randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.analysis.metrics import score_heavy_hitters, true_frequencies
from repro.baselines.single_hash import SingleHashHeavyHitters
from repro.core.heavy_hitters import PrivateExpanderSketch
from repro.frequency.hashtogram import HashtogramOracle
from repro.utils.rng import RandomState, as_generator
from repro.workloads.distributions import planted_workload, zipf_workload


@dataclass
class HashingAblationConfig:
    """Configuration for ablation A1."""

    num_users: int = 40_000
    domain_size: int = 1 << 20
    epsilon: float = 4.0
    betas: List[float] = field(default_factory=lambda: [0.2, 0.02, 0.002])
    heavy_fractions: List[float] = field(default_factory=lambda: [0.3, 0.2])
    rng: RandomState = 0


def run_hashing_ablation(config: HashingAblationConfig | None = None
                         ) -> List[Dict[str, object]]:
    """A1: per-coordinate hashes + code versus a single hash + repetitions."""
    config = config or HashingAblationConfig()
    gen = as_generator(config.rng)
    workload = planted_workload(config.num_users, config.domain_size,
                                config.heavy_fractions, rng=gen)
    threshold = min(workload.heavy_frequencies)
    rows = []
    for beta in config.betas:
        ours = PrivateExpanderSketch(config.domain_size, config.epsilon, beta)
        baseline = SingleHashHeavyHitters(config.domain_size, config.epsilon, beta)
        ours_result = ours.run(workload.values, rng=gen)
        baseline_result = baseline.run(workload.values, rng=gen)
        ours_score = score_heavy_hitters(ours_result.estimates, workload.values,
                                         threshold)
        baseline_score = score_heavy_hitters(baseline_result.estimates,
                                             workload.values, threshold)
        rows.append({
            "beta": beta,
            "ours_recall": ours_score.recall,
            "ours_max_error": ours_score.max_estimation_error,
            "baseline_recall": baseline_score.recall,
            "baseline_max_error": baseline_score.max_estimation_error,
            "baseline_repetitions": baseline_result.metadata["repetitions"],
        })
    return rows


@dataclass
class HashtogramAblationConfig:
    """Configuration for ablation A2."""

    num_users: int = 30_000
    domain_size: int = 1 << 18
    epsilon: float = 1.0
    bucket_counts: List[int] = field(default_factory=lambda: [32, 128, 512])
    repetition_counts: List[int] = field(default_factory=lambda: [1, 3, 7])
    num_queries: int = 100
    rng: RandomState = 0


def run_hashtogram_ablation(config: HashtogramAblationConfig | None = None
                            ) -> List[Dict[str, object]]:
    """A2: Hashtogram error/memory across bucket and repetition settings."""
    config = config or HashtogramAblationConfig()
    gen = as_generator(config.rng)
    values = zipf_workload(config.num_users, config.domain_size,
                           support=2_000, rng=gen)
    truth = true_frequencies(values)
    heavy = [x for x, _ in sorted(truth.items(), key=lambda kv: -kv[1])[:20]]
    queries = np.concatenate([
        np.asarray(heavy),
        gen.integers(0, config.domain_size, size=config.num_queries - len(heavy)),
    ])
    rows = []
    for buckets in config.bucket_counts:
        for repetitions in config.repetition_counts:
            oracle = HashtogramOracle(config.domain_size, config.epsilon,
                                      num_repetitions=repetitions,
                                      num_buckets=buckets)
            oracle.collect(values, gen)
            estimates = oracle.estimate_many(queries)
            errors = np.array([abs(est - truth.get(int(q), 0))
                               for q, est in zip(queries, estimates, strict=True)])
            rows.append({
                "num_buckets": buckets,
                "num_repetitions": repetitions,
                "max_error": float(errors.max()),
                "rms_error": float(np.sqrt((errors**2).mean())),
                "server_memory_items": oracle.server_state_size,
                "public_randomness_bits": oracle.public_randomness_bits,
            })
    return rows
