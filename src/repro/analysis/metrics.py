"""Scoring heavy-hitter outputs against the requirements of Definition 3.1.

A heavy-hitters protocol with error Δ and failure probability β must output a
list ``Est ⊆ X × R`` such that (with probability 1-β):

1. every estimate in the list is within Δ of the true frequency, and
2. every Δ-heavy element appears in the list,

while keeping the list length ``O(n/Δ)``.  :func:`score_heavy_hitters` measures
all three quantities for a concrete output so benchmarks and tests can check
them directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.utils.rng import RandomState, as_generator


def true_frequencies(data: Sequence[int]) -> Dict[int, int]:
    """Exact multiplicities ``f_S(x)`` of every element appearing in ``data``."""
    arr = np.asarray(data)
    if arr.dtype.kind in "iu" and arr.ndim == 1:
        elements, counts = np.unique(arr, return_counts=True)
        return {int(x): int(c) for x, c in zip(elements, counts, strict=True)}
    return dict(Counter(int(x) for x in data))


def heavy_elements(data: Sequence[int], threshold: float) -> List[int]:
    """All elements with multiplicity at least ``threshold`` (Δ-heavy elements)."""
    freq = true_frequencies(data)
    return sorted(x for x, f in freq.items() if f >= threshold)


def frequency_estimation_errors(estimates: Mapping[int, float],
                                data: Sequence[int]) -> Dict[int, float]:
    """Absolute error of each estimate against the true multiplicity in ``data``."""
    freq = true_frequencies(data)
    return {int(x): abs(float(a) - freq.get(int(x), 0)) for x, a in estimates.items()}


def probe_queries(values: Sequence[int], domain_size: int, count: int,
                  rng: RandomState) -> List[int]:
    """The items a served-vs-offline check queries: the five most frequent
    items of ``values`` (count ties broken on the smaller item), then
    ``count`` uniform probes of ``[0, domain_size)`` drawn from ``rng``."""
    top = sorted(true_frequencies(values).items(),
                 key=lambda kv: (-kv[1], kv[0]))[:5]
    probes = as_generator(rng).integers(0, domain_size, size=count)
    return [int(x) for x, _ in top] + [int(x) for x in probes]


@dataclass(frozen=True)
class HeavyHitterScore:
    """Quality metrics of one heavy-hitters output against ground truth.

    Attributes
    ----------
    max_estimation_error:
        ``max |a - f_S(x)|`` over the returned list (0 if the list is empty).
    missed_heavy:
        Δ-heavy elements (for the given Δ) that are *not* in the returned list.
    recall:
        Fraction of Δ-heavy elements present in the list (1.0 if there are none).
    detection_threshold:
        The smallest frequency ``f`` such that every element with true frequency
        >= f was recovered.  This is the empirical analogue of the "for every x
        with f_S(x) >= Δ, x ∈ Est" guarantee: a smaller value is better.
    list_size:
        Length of the returned list.
    false_positive_mass:
        Sum of estimated frequencies attributed to elements with true frequency
        zero (useful for diagnosing decode noise).
    """

    max_estimation_error: float
    missed_heavy: Tuple[int, ...]
    recall: float
    detection_threshold: float
    list_size: int
    false_positive_mass: float

    @property
    def succeeded(self) -> bool:
        """True if every Δ-heavy element was recovered (recall == 1)."""
        return not self.missed_heavy


def score_heavy_hitters(estimates: Mapping[int, float], data: Sequence[int],
                        threshold: float) -> HeavyHitterScore:
    """Score an output list against Definition 3.1 with error parameter Δ=threshold."""
    freq = true_frequencies(data)
    est = {int(x): float(a) for x, a in estimates.items()}

    errors = [abs(a - freq.get(x, 0)) for x, a in est.items()]
    max_err = max(errors) if errors else 0.0

    heavy = [x for x, f in freq.items() if f >= threshold]
    missed = tuple(sorted(x for x in heavy if x not in est))
    recall = 1.0 if not heavy else (len(heavy) - len(missed)) / len(heavy)

    # Empirical detection threshold: smallest f such that all elements with
    # true frequency >= f appear in the list.  Computed by scanning true
    # frequencies from the largest downwards.
    by_freq = sorted(freq.items(), key=lambda kv: -kv[1])
    detection = 0.0
    for x, f in by_freq:
        if x not in est:
            detection = float(f) + 1.0
            break
    false_mass = sum(a for x, a in est.items() if freq.get(x, 0) == 0 and a > 0)

    return HeavyHitterScore(
        max_estimation_error=float(max_err),
        missed_heavy=missed,
        recall=float(recall),
        detection_threshold=float(detection),
        list_size=len(est),
        false_positive_mass=float(false_mass),
    )


def query_errors(oracle_estimates: Mapping[int, float], data: Sequence[int],
                 query_set: Iterable[int]) -> np.ndarray:
    """Vectorized absolute errors of an estimate table over a query set.

    The estimate table is anything mapping elements to estimates — a plain
    dict, a :class:`~repro.core.results.HeavyHitterResult`'s ``estimates``,
    or the output of a fitted oracle's batch ``estimate_many`` zipped with
    its queries.  Unlisted queries count as estimate 0.
    """
    freq = true_frequencies(data)
    queries = np.asarray(list(query_set), dtype=np.int64)
    if queries.size == 0:
        return np.zeros(0)
    estimates = np.array([float(oracle_estimates.get(int(x), 0.0))
                          for x in queries.tolist()])
    truth = np.array([freq.get(int(x), 0) for x in queries.tolist()],
                     dtype=float)
    return np.abs(estimates - truth)


def worst_case_frequency_error(oracle_estimates: Mapping[int, float],
                               data: Sequence[int],
                               query_set: Iterable[int]) -> float:
    """Worst-case error of a frequency oracle over an explicit query set."""
    errors = query_errors(oracle_estimates, data, query_set)
    return float(errors.max()) if errors.size else 0.0


def mean_squared_frequency_error(oracle_estimates: Mapping[int, float],
                                 data: Sequence[int],
                                 query_set: Iterable[int]) -> float:
    """Mean squared error of a frequency oracle over an explicit query set."""
    errors = query_errors(oracle_estimates, data, query_set)
    if errors.size == 0:
        return 0.0
    return float(np.mean(errors**2))


def empirical_failure_rate(scores: Sequence[HeavyHitterScore]) -> float:
    """Fraction of trials in which at least one Δ-heavy element was missed."""
    if not scores:
        raise ValueError("scores must be non-empty")
    return sum(0 if s.succeeded else 1 for s in scores) / len(scores)
