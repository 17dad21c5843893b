"""k-wise independent hash functions via polynomial hashing.

A degree-(k-1) polynomial with uniformly random coefficients over a prime
field ``F_p`` with ``p >= |X|`` evaluates to a k-wise independent family on
``X``; reducing the value modulo the range size gives an (almost uniform)
k-wise independent hash into ``[range_size]``.  This is the textbook
construction the paper relies on for its pairwise independent hashes
``h_1, ..., h_M`` and the ``O(log |X|)``-wise independent partition hash ``g``.

All evaluations are vectorised over numpy arrays.  :class:`StackedKWiseHash`
evaluates many hashes that share a prime and range in one pass, one hash
chosen per input.

The exact int64 kernel
----------------------
:func:`horner_mod` is the Horner loop every client encoder runs (here and
in :meth:`repro.codes.reed_solomon.ReedSolomonCode.evaluate_at`).  It
works in place on two int64 buffers, the values and one scratch (made at
the first reduction), and reduces lazily.  The loop carries ``bound``, an
upper bound on every value: a coefficient is below ``p``, so after a step
``v <- v * x + c`` with ``x <= x_max`` the bound becomes
``bound * x_max + (p - 1)``.  Before a step whose new bound would pass
``2^63 - 1`` the values are reduced mod ``p`` (the bound falls back to
``p - 1``); so no intermediate ever wraps, and since reducing mod ``p``
commutes with ``+`` and ``*``, the result equals reducing at every step.
For a hash, ``x_max = p - 1`` and the first step's bound is
``(p - 1)^2 + (p - 1) = p (p - 1)``, which fits in 63 bits exactly when
:func:`_int64_exact` holds (primes up to 3,037,000,493).  At
``p = 1,048,583`` (the ``2^20`` domain) a reduction falls on every second
step; at the ``2^31 + 11`` assignment field, on every step.

A reduction is ``v - (v // p) * p``, not numpy's ``%``: numpy divides by
a scalar through a precomputed multiply, several times faster than its
int64 remainder, and every value is non-negative, so both agree.
The final reduction into the range is a mask ``v & (r - 1)`` when ``r``
is a power of two, and skipped when ``r >= p``.  Inputs ``x >= p`` are
reduced mod ``p`` first (one ``max`` pass tells).  Primes past
:func:`_int64_exact` run on Python ints in an object array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.hashing.primes import next_prime
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

ArrayLike = Union[int, Sequence[int], np.ndarray]


@dataclass(frozen=True)
class KWiseHash:
    """A single hash function drawn from a k-wise independent family.

    Parameters
    ----------
    coefficients:
        Tuple of ``k`` coefficients in ``[0, prime)``; ``coefficients[0]`` is
        the constant term.
    prime:
        The field modulus (a prime >= the domain size).
    range_size:
        The size of the hash range ``[0, range_size)``.

    Notes
    -----
    The description length of the function is ``k * ceil(log2(prime))`` bits;
    this is what the protocol counts as "public randomness per user" in
    Table 1.
    """

    coefficients: tuple
    prime: int
    range_size: int

    def __post_init__(self) -> None:
        # Horner state cached once per hash: the reversed coefficients as
        # plain ints reduced mod p (which leaves every value unchanged and
        # is the coefficient bound `horner_mod` relies on).  (frozen
        # dataclass: set via object.__setattr__; not a field, so
        # eq/repr/asdict are unchanged.)
        object.__setattr__(self, "_rev_coefficients",
                           tuple(int(c) % self.prime
                                 for c in reversed(self.coefficients)))

    @property
    def independence(self) -> int:
        """The k of the k-wise independent family this was drawn from."""
        return len(self.coefficients)

    @property
    def description_bits(self) -> int:
        """Number of bits needed to communicate this hash function."""
        return self.independence * max(int(self.prime - 1).bit_length(), 1)

    def __call__(self, x: ArrayLike) -> Union[int, np.ndarray]:
        """Evaluate the hash on a scalar or an array of domain elements."""
        if isinstance(x, (int, np.integer)):
            # Fast scalar path: pure-int Horner, no np.atleast_1d allocation.
            if x < 0:
                raise ValueError("hash inputs must be non-negative integers")
            return self._evaluate_scalar(int(x))
        scalar = np.isscalar(x)
        arr = np.atleast_1d(np.asarray(x, dtype=np.int64))
        if arr.size and (arr.min() < 0):
            raise ValueError("hash inputs must be non-negative integers")
        out = self._evaluate(arr)
        if scalar:
            return int(out[0])
        return out

    def _evaluate_scalar(self, x: int) -> int:
        # Python ints are exact for any prime; results match `_evaluate` bit
        # for bit on both its int64 and its object path.
        p = self.prime
        x_mod = x % p
        value = 0
        for coef in self._rev_coefficients:
            value = (value * x_mod + coef) % p
        return value % self.range_size

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        return _horner(self._rev_coefficients, arr, self.prime,
                       self.range_size)


def _int64_exact(prime: int) -> bool:
    """Whether int64 Horner mod ``prime`` is exact: the largest intermediate,
    ``(p - 1) * (p - 1) + (p - 1) = p * (p - 1)``, fits in 63 bits."""
    return prime * (prime - 1) < (1 << 63)


#: the largest value an int64 holds
_INT64_MAX = (1 << 63) - 1


def _reduce(vals: np.ndarray, modulus: int,
            scratch: Optional[np.ndarray]) -> np.ndarray:
    """``vals %= modulus`` in place for non-negative ``vals``, as
    ``vals - (vals // modulus) * modulus``; returns the scratch buffer
    (allocated on first use)."""
    if scratch is None:
        scratch = np.empty_like(vals)
    np.floor_divide(vals, modulus, out=scratch)
    np.multiply(scratch, modulus, out=scratch)
    np.subtract(vals, scratch, out=vals)
    return scratch


def horner_mod(columns: Sequence, x: np.ndarray, prime: int, x_max: int,
               range_size: int) -> np.ndarray:
    """``poly(x) mod prime mod range_size`` in int64, reducing lazily.

    ``columns`` are the coefficients, highest degree first, each a scalar
    or an array broadcastable against ``x`` with every entry in
    ``[0, prime)``; ``x`` is non-negative int64 with no entry above
    ``x_max``.  ``(prime - 1) * (x_max + 1)`` must fit in int64.  Returns
    a fresh array of the broadcast shape; see the module docstring for
    the reduction schedule and why it is exact.
    """
    shape = np.broadcast_shapes(x.shape, *(np.shape(c) for c in columns))
    vals = np.empty(shape, dtype=np.int64)
    scratch = None
    top = prime - 1
    # The first step of 0 * x + c_top is c_top itself.
    vals[...] = columns[0] if columns else 0
    bound = top
    for coef in columns[1:]:
        if bound * x_max + top > _INT64_MAX:
            scratch = _reduce(vals, prime, scratch)
            bound = top
        np.multiply(vals, x, out=vals)
        np.add(vals, coef, out=vals)
        bound = bound * x_max + top
    if bound > top:
        scratch = _reduce(vals, prime, scratch)
    if top >= range_size:
        if range_size & (range_size - 1):
            _reduce(vals, range_size, scratch)
        else:
            np.bitwise_and(vals, range_size - 1, out=vals)
    return vals


def _horner(columns: Sequence, x: np.ndarray, prime: int,
            range_size: int) -> np.ndarray:
    """``poly(x) mod prime mod range_size`` by Horner's rule.

    ``columns`` are the coefficients, highest degree first and already
    reduced mod ``prime``; each is a scalar or an array broadcastable
    against ``x``.  Primes past :func:`_int64_exact` run on Python ints in
    an object array.
    """
    if _int64_exact(prime):
        if x.size and x.max() >= prime:
            x = x % prime
        return horner_mod(columns, x, prime, prime - 1, range_size)
    x_mod = x.astype(object) % prime
    # The first step of 0 * x + c_top is c_top itself.
    vals = columns[0] if columns else 0
    for coef in columns[1:]:
        vals = (vals * x_mod + coef) % prime
    vals = np.broadcast_to(vals % range_size,
                           np.broadcast_shapes(np.shape(vals), x.shape))
    return vals.astype(np.int64)


class StackedKWiseHash:
    """Many k-wise hashes over one prime and range, evaluated in one pass.

    ``stack(which, x)`` is ``hashes[which[i]](x[i])`` elementwise (``which``
    and ``x`` broadcast), computed by a single Horner pass over gathered
    coefficient columns instead of one call per hash.  Hashes of lower
    independence are zero-padded at the high-degree end, which leaves their
    values unchanged.
    """

    def __init__(self, hashes: Sequence[KWiseHash]) -> None:
        hashes = list(hashes)
        if not hashes:
            raise ValueError("need at least one hash to stack")
        if len({(h.prime, h.range_size) for h in hashes}) != 1:
            raise ValueError("stacked hashes must share one prime and range")
        self.prime = hashes[0].prime
        self.range_size = hashes[0].range_size
        depth = max(h.independence for h in hashes)
        dtype = np.int64 if _int64_exact(self.prime) else object
        # (depth, len(hashes)): row j holds every hash's j-th Horner
        # coefficient, highest degree first.
        self._table = np.zeros((depth, len(hashes)), dtype=dtype)
        for i, h in enumerate(hashes):
            self._table[depth - h.independence:, i] = h._rev_coefficients

    def __call__(self, which: ArrayLike, x: ArrayLike) -> np.ndarray:
        which = np.asarray(which, dtype=np.intp)
        x = np.asarray(x, dtype=np.int64)
        if x.size and x.min() < 0:
            raise ValueError("hash inputs must be non-negative integers")
        return _horner([row[which] for row in self._table], x, self.prime,
                       self.range_size)


@dataclass(frozen=True)
class KWiseHashFamily:
    """A k-wise independent hash family ``X -> [range_size]``.

    Draw members with :meth:`sample`; the family is characterised by the
    domain size (which fixes the prime field), the range size, and the
    independence parameter k.
    """

    domain_size: int
    range_size: int
    independence: int
    prime: int

    @classmethod
    def create(cls, domain_size: int, range_size: int, independence: int = 2
               ) -> "KWiseHashFamily":
        """Build a family for ``[0, domain_size) -> [0, range_size)``."""
        check_positive_int(domain_size, "domain_size")
        check_positive_int(range_size, "range_size")
        check_positive_int(independence, "independence")
        prime = next_prime(max(domain_size, range_size, 2))
        return cls(domain_size=domain_size, range_size=range_size,
                   independence=independence, prime=prime)

    def sample(self, rng: RandomState = None) -> KWiseHash:
        """Draw one hash function uniformly from the family."""
        gen = as_generator(rng)
        coefs = [int(gen.integers(0, self.prime)) for _ in range(self.independence)]
        # Degree-(k-1) coefficient should be non-zero so the polynomial has
        # full degree; this does not affect independence and avoids the
        # degenerate constant function for tiny families.
        if self.independence > 1 and coefs[-1] == 0:
            coefs[-1] = int(gen.integers(1, self.prime))
        return KWiseHash(coefficients=tuple(coefs), prime=self.prime,
                         range_size=self.range_size)

    def sample_many(self, count: int, rng: RandomState = None) -> List[KWiseHash]:
        """Draw ``count`` independent hash functions."""
        gen = as_generator(rng)
        return [self.sample(gen) for _ in range(count)]


def pairwise_hash(domain_size: int, range_size: int, rng: RandomState = None) -> KWiseHash:
    """Draw a single pairwise independent hash ``[domain_size] -> [range_size]``."""
    family = KWiseHashFamily.create(domain_size, range_size, independence=2)
    return family.sample(rng)


def kwise_hash(domain_size: int, range_size: int, independence: int,
               rng: RandomState = None) -> KWiseHash:
    """Draw a single k-wise independent hash with the given independence."""
    family = KWiseHashFamily.create(domain_size, range_size, independence)
    return family.sample(rng)


def sign_hash(domain_size: int, rng: RandomState = None, independence: int = 4) -> "SignHash":
    """Draw a +/-1 valued hash (used by count-sketch style estimators)."""
    base = KWiseHashFamily.create(domain_size, 2, independence).sample(rng)
    return SignHash(base)


@dataclass(frozen=True)
class SignHash:
    """A hash function into {-1, +1}, built from a k-wise binary hash."""

    base: KWiseHash

    def __call__(self, x: ArrayLike) -> Union[int, np.ndarray]:
        val = self.base(x)
        if np.isscalar(val):
            return 1 if val == 1 else -1
        return np.where(np.asarray(val) == 1, 1, -1).astype(np.int64)

    @property
    def description_bits(self) -> int:
        return self.base.description_bits


def total_description_bits(hashes: Iterable) -> int:
    """Sum of description lengths for a collection of hash functions."""
    return int(sum(h.description_bits for h in hashes))
