"""Hadamard response: a communication-optimal one-bit local randomizer.

The Apple iOS deployment [33] and the Hashtogram frequency oracle of Bassily
et al. [3] both rely on randomizing a *single bit of a Hadamard transform* of
the one-hot encoding: user i holding value x samples a uniformly random index
j and reports ``(j, b)`` where b is the Hadamard entry ``H[j, x]`` flipped with
probability ``1/(e^ε + 1)``.

Privacy: for a fixed published index j, the report bit is a binary randomized
response on ``H[j, x]`` and is therefore ε-DP; the index itself is independent
of x.  Utility: ``E[b · H[j, v]] = (e^ε - 1)/(e^ε + 1) · H_hat`` allows an
unbiased frequency estimator for every v with O(1) communication per user —
exactly the O(1)-communication column of Table 1.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.randomizers.base import LocalRandomizer
from repro.utils.bits import next_power_of_two
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_domain_element, check_epsilon, check_positive_int


def hadamard_entry(row: int, column: int) -> int:
    """Entry ``H[row, column]`` of the (unnormalised) Hadamard matrix, in {-1, +1}.

    ``H[r, c] = (-1)^{<r, c>}`` where <r, c> is the inner product of the binary
    expansions; computed via the parity of ``popcount(r & c)``.
    """
    return -1 if bin(row & column).count("1") % 2 else 1


def hadamard_matrix(order: int) -> np.ndarray:
    """The full (unnormalised) ±1 Hadamard matrix of a power-of-two order.

    Built by Sylvester's recursion ``H_{2n} = [[H_n, H_n], [H_n, -H_n]]`` —
    ``log2(order)`` vectorized doubling steps instead of ``order**2``
    Python-level :func:`hadamard_entry` calls.  Entry for entry this equals
    ``hadamard_entry(r, c)`` (regression-tested), since Sylvester's
    recursion and the ``(-1)^{popcount(r & c)}`` definition describe the
    same matrix.
    """
    if order < 1 or order & (order - 1):
        raise ValueError("order must be a power of two")
    matrix = np.ones((1, 1), dtype=np.int64)
    while matrix.shape[0] < order:
        matrix = np.block([[matrix, matrix], [matrix, -matrix]])
    return matrix


def _butterflies(vec: np.ndarray) -> np.ndarray:
    """In-place unnormalised Walsh-Hadamard transform of a power-of-two vector.

    Radix-4: each pass applies two butterfly levels to the quadruples at
    stride h, using one n/4 scratch buffer; an odd level count ends with
    one radix-2 pass over the two halves, a scratch-sized slice at a time.
    Every value ever written is a signed sum of inputs, so no partial sum
    exceeds ``sum(|vec|)``: the int32 decode relies on it.
    """
    n = vec.shape[0]
    scratch = np.empty(max(n // 4, 1), dtype=vec.dtype)
    h = 1
    while 4 * h <= n:
        quad = vec.reshape(-1, 4, h)
        x0, x1, x2, x3 = quad[:, 0], quad[:, 1], quad[:, 2], quad[:, 3]
        # comments: the written slot's value in terms of the pass's inputs
        diff01 = np.subtract(x0, x1, out=scratch.reshape(-1, h))
        x0 += x1                        # x0 + x1
        np.add(x2, x3, out=x1)          # x2 + x3
        np.subtract(x2, x3, out=x3)     # x2 - x3
        np.subtract(x0, x1, out=x2)     # x0 + x1 - x2 - x3 (final)
        x0 += x1                        # x0 + x1 + x2 + x3 (final)
        np.add(diff01, x3, out=x1)      # x0 - x1 + x2 - x3 (final)
        np.subtract(diff01, x3, out=x3)  # x0 - x1 - x2 + x3 (final)
        h *= 4
    if 2 * h == n:
        for start in range(0, h, scratch.size):
            left = vec[start:start + scratch.size]
            right = vec[h + start:h + start + scratch.size]
            np.subtract(left, right, out=scratch)
            left += right
            right[...] = scratch
    return vec


def fast_walsh_hadamard_transform(vector: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform (length must be a power of two).

    Returns a new float array (the butterflies run in place on one copy).
    """
    vec = np.array(vector, dtype=float, copy=True)
    n = vec.shape[0]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    return _butterflies(vec)


def _decode_dtype(bound: int) -> type:
    """The narrowest exact decode dtype for partial sums within ``bound``."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def hadamard_outputs(accumulator: np.ndarray, count: int) -> np.ndarray:
    """Exact integer outputs ``1..count`` of the Walsh-Hadamard transform.

    ``accumulator`` (signed counts per Hadamard row) has length
    P = ``next_power_of_two(count + 1)``.  With halves a, b and Q = P/2,
    outputs 0..Q-1 are FWHT_Q(a + b), and outputs Q..count are FWHT_m of
    (a - b) summed over blocks of length m = next_power_of_two(count + 1 - Q).
    Every partial sum is a signed sum of accumulator cells, so its magnitude
    is at most ``sum(|accumulator|) <= P * max|accumulator|`` and the result
    is exact in any summation order.  When that bound fits int32 the decode
    runs in int32, half the memory traffic of int64.  The bound is read from
    the cells themselves, never from a report count: a restored snapshot's
    cells need not be bounded by its ``num_reports``.

    Head and folded tail are transformed in one buffer of Q + m cells; the
    result is the view of its outputs 1..count.
    """
    size = accumulator.shape[0]
    if size != next_power_of_two(count + 1):
        raise ValueError(f"accumulator length {size} is not "
                         f"next_power_of_two({count} + 1)")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    dtype = _decode_dtype(
        size * max(int(accumulator.max()), -int(accumulator.min())))
    half = size // 2
    a, b = accumulator[:half], accumulator[half:]
    upper = count + 1 - half
    width = next_power_of_two(upper)
    buffer = np.empty(half + width, dtype=dtype)
    head, tail = buffer[:half], buffer[half:]
    np.add(a, b, out=head, dtype=dtype)  # widen int32 cells before adding
    np.subtract(a.reshape(-1, width).sum(axis=0, dtype=dtype),
                b.reshape(-1, width).sum(axis=0, dtype=dtype), out=tail)
    _butterflies(head)
    _butterflies(tail)
    return buffer[1:half + upper]


class HadamardResponse(LocalRandomizer):
    """Hadamard-response local randomizer over a domain of size k.

    The domain is padded to the next power of two K >= k + 1 (index 0 of the
    Hadamard matrix is reserved so that every domain element maps to a
    non-trivial column).
    """

    def __init__(self, epsilon: float, domain_size: int) -> None:
        self.epsilon = check_epsilon(epsilon)
        self.delta = 0.0
        self.domain_size = check_positive_int(domain_size, "domain_size")
        self.padded_size = next_power_of_two(domain_size + 1)
        exp_eps = math.exp(epsilon)
        self._keep_prob = exp_eps / (exp_eps + 1.0)
        #: multiplicative attenuation of the signal caused by the bit flipping
        self.attenuation = (exp_eps - 1.0) / (exp_eps + 1.0)

    def _column(self, x: int) -> int:
        """Column of the Hadamard matrix assigned to domain element x."""
        return x + 1  # reserve column 0 (the all-ones column carries no signal)

    def randomize(self, x, rng: RandomState = None) -> Tuple[int, int]:
        x = check_domain_element(self.resolve_input(x), self.domain_size)
        gen = as_generator(rng)
        row = int(gen.integers(0, self.padded_size))
        bit = hadamard_entry(row, self._column(x))
        if gen.random() >= self._keep_prob:
            bit = -bit
        return (row, bit)

    def log_prob(self, x, report) -> float:
        x = check_domain_element(self.resolve_input(x), self.domain_size)
        row, bit = int(report[0]), int(report[1])
        if not 0 <= row < self.padded_size or bit not in (-1, 1):
            raise ValueError("invalid Hadamard report")
        true_bit = hadamard_entry(row, self._column(x))
        p_bit = self._keep_prob if bit == true_bit else 1.0 - self._keep_prob
        return math.log(p_bit / self.padded_size)

    def report_space(self) -> Optional[List]:
        if self.padded_size > 64:
            return None
        return [(row, bit) for row in range(self.padded_size) for bit in (-1, 1)]

    @property
    def report_bits(self) -> float:
        return math.log2(self.padded_size) + 1.0

    # ----- aggregation -----------------------------------------------------------

    def unbiased_frequency(self, reports, value: int) -> float:
        """Unbiased estimate of the frequency of ``value`` from all reports.

        For a user holding v, ``E[bit * H[row, col(v')] ] = attenuation`` when
        v' = v and 0 otherwise (columns of H are orthogonal and row is uniform),
        so summing ``bit * H[row, col(value)] / attenuation`` over reports gives
        an unbiased frequency estimate.
        """
        value = check_domain_element(value, self.domain_size)
        col = self._column(value)
        total = 0.0
        for row, bit in reports:
            total += bit * hadamard_entry(int(row), col)
        return total / self.attenuation

    def unbiased_histogram(self, reports) -> np.ndarray:
        """Frequency estimates for the whole domain.

        The reports are first reduced to one exact signed count per Hadamard
        row (all ±1 additions), then decoded by :func:`hadamard_outputs`, the
        exact integer transform the wire aggregator uses: O(n + K log K)
        time and O(K) memory (K = ``padded_size``), never materializing H.
        The integer totals equal the per-value :meth:`unbiased_frequency`
        sums exactly.
        """
        counts = np.zeros(self.padded_size, dtype=np.int64)
        entries = np.asarray(list(reports), dtype=np.int64).reshape(-1, 2)
        if entries.size:
            np.add.at(counts, entries[:, 0], entries[:, 1])
        return hadamard_outputs(counts, self.domain_size) / self.attenuation

    @property
    def estimator_variance_per_user(self) -> float:
        """Per-user variance of the frequency estimator (for a non-held element)."""
        return 1.0 / self.attenuation**2
