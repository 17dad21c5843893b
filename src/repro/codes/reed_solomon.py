"""Reed-Solomon codes over GF(p) with a Berlekamp-Welch decoder.

Role in the reproduction
------------------------
Appendix B of the paper requires "a (standard) error-correcting code
(enc, dec) with constant rate that can correct an Ω(1)-fraction of errors"
whose codeword is split into ``M`` chunks.  We use a Reed-Solomon code with
one chunk per coordinate: each chunk is a single field symbol, the rate is
``k/M`` (a constant, 1/2 by default) and Berlekamp-Welch decoding corrects any
``(M - k) / 2`` symbol errors, i.e. a constant fraction of the coordinates.
This substitutes for the linear-time Spielman/Guruswami codes cited by the
paper; only polynomial-time decoding matters for the statistical claims being
reproduced, and Reed-Solomon decodes exactly up to its error budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.codes.gf import PrimeField
from repro.hashing.primes import next_prime
from repro.utils.bits import int_to_symbols, symbols_to_int
from repro.utils.validation import check_positive_int


class DecodingFailure(Exception):
    """Raised when the decoder cannot produce a codeword within the error budget."""


@dataclass(frozen=True)
class ReedSolomonCode:
    """An [M, k] Reed-Solomon code over GF(p).

    Parameters
    ----------
    message_length:
        Number of message symbols k.
    codeword_length:
        Number of codeword symbols M (evaluation points); requires M <= p.
    prime:
        Field size p; every symbol lies in [0, p).

    The code corrects up to ``(M - k) // 2`` erroneous symbols.
    """

    message_length: int
    codeword_length: int
    prime: int

    def __post_init__(self) -> None:
        check_positive_int(self.message_length, "message_length")
        check_positive_int(self.codeword_length, "codeword_length")
        if self.codeword_length < self.message_length:
            raise ValueError("codeword_length must be >= message_length")
        if self.codeword_length > self.prime:
            raise ValueError("codeword_length cannot exceed the field size")

    # ----- constructors ------------------------------------------------------

    @classmethod
    def for_domain(cls, domain_size: int, num_chunks: int, rate: float = 0.5
                   ) -> "ReedSolomonCode":
        """Build a code able to encode any element of ``[0, domain_size)``
        into ``num_chunks`` symbols at (approximately) the requested rate.

        The message length is ``ceil(rate * num_chunks)`` and the field size is
        the smallest prime large enough that ``domain_size <= p^k`` and
        ``p >= num_chunks``.
        """
        check_positive_int(domain_size, "domain_size")
        check_positive_int(num_chunks, "num_chunks")
        if not 0 < rate <= 1:
            raise ValueError("rate must lie in (0, 1]")
        k = max(int(rate * num_chunks), 1)
        # Smallest prime p with p^k >= domain_size and p > num_chunks.
        p = next_prime(max(num_chunks + 1, 2))
        while p**k < domain_size:
            p = next_prime(p + 1)
        return cls(message_length=k, codeword_length=num_chunks, prime=p)

    # ----- properties --------------------------------------------------------

    @property
    def field(self) -> PrimeField:
        return PrimeField(self.prime)

    @property
    def max_correctable_errors(self) -> int:
        """Number of symbol errors Berlekamp-Welch is guaranteed to correct."""
        return (self.codeword_length - self.message_length) // 2

    @property
    def rate(self) -> float:
        return self.message_length / self.codeword_length

    @property
    def max_domain_size(self) -> int:
        """Largest integer domain representable by a message (p^k)."""
        return self.prime**self.message_length

    # ----- integer <-> message symbol packing --------------------------------

    def message_from_int(self, value: int) -> List[int]:
        """Pack an integer into ``message_length`` base-p symbols."""
        return int_to_symbols(value, self.message_length, self.prime)

    def int_from_message(self, message: Sequence[int]) -> int:
        """Inverse of :meth:`message_from_int`."""
        return symbols_to_int(message, self.prime)

    # ----- encode / decode ----------------------------------------------------

    def encode(self, message: Sequence[int]) -> List[int]:
        """Encode k message symbols into M codeword symbols.

        The message symbols are interpreted as the coefficients of a polynomial
        of degree < k, evaluated at the points 0, 1, ..., M-1.
        """
        if len(message) != self.message_length:
            raise ValueError(f"message must have {self.message_length} symbols")
        gf = self.field
        poly = [gf.normalize(m) for m in message]
        return [gf.poly_eval(poly, x) for x in range(self.codeword_length)]

    def encode_int(self, value: int) -> List[int]:
        """Encode an integer in ``[0, p^k)`` into M codeword symbols."""
        return self.encode(self.message_from_int(value))

    def evaluate_at(self, values, points) -> "np.ndarray":
        """Vectorised codeword symbols: ``encode_int(v)[point]`` elementwise.

        ``values`` and ``points`` broadcast against each other, so a client
        batch asks for each user's own coordinate only, while
        :meth:`encode_batch` asks for every point.  The base-p digits of
        the values come from floor divisions (``d = q - (q // p) * p``),
        then one :func:`~repro.hashing.kwise.horner_mod` pass over them in
        int64 with the points as ``x <= M - 1``: it reduces mod p only when
        the next step could pass 2^63, so once at the end whenever
        ``p * M^k`` fits, and otherwise before each step that needs it.
        """
        import numpy as np

        from repro.hashing.kwise import horner_mod

        values = np.asarray(values, dtype=np.int64)
        points = np.asarray(points, dtype=np.int64)
        if values.size and (values.min() < 0 or values.max() >= self.max_domain_size):
            raise ValueError("values outside the representable domain")
        if points.size and (points.min() < 0
                            or points.max() >= self.codeword_length):
            raise ValueError("evaluation points outside [0, codeword_length)")
        # Base-p digits of every value, highest first; the top one needs no
        # reduction, since every value is below p^k.
        digits = []
        remaining = values
        for _ in range(self.message_length - 1):
            quotient = remaining // self.prime
            digit = np.multiply(quotient, self.prime)
            np.subtract(remaining, digit, out=digit)
            digits.append(digit)
            remaining = quotient
        digits.append(remaining)
        return horner_mod(digits[::-1], points, self.prime,
                          self.codeword_length - 1, self.prime)

    def encode_batch(self, values) -> "np.ndarray":
        """Row i is ``encode_int(values[i])``: shape ``(len(values), M)``."""
        import numpy as np

        return self.evaluate_at(np.asarray(values, dtype=np.int64).reshape(-1, 1),
                                np.arange(self.codeword_length))

    def decode(self, received: Sequence[Optional[int]],
               max_errors: Optional[int] = None) -> List[int]:
        """Decode a received word with errors and/or erasures.

        Parameters
        ----------
        received:
            Length-M sequence; ``None`` marks an erasure, otherwise a symbol in
            [0, p).  Erasures are handled by restriction to the known positions.
        max_errors:
            Error budget to attempt (defaults to the maximum correctable count
            given the number of erasures).

        Returns
        -------
        The k message symbols.

        Raises
        ------
        DecodingFailure
            If no codeword within the error budget explains the received word.
        """
        if len(received) != self.codeword_length:
            raise ValueError(f"received word must have {self.codeword_length} symbols")
        gf = self.field
        positions = [i for i, r in enumerate(received) if r is not None]
        values = [gf.normalize(received[i]) for i in positions]
        num_known = len(positions)
        if num_known < self.message_length:
            raise DecodingFailure("too many erasures to determine the message")

        budget = (num_known - self.message_length) // 2
        if max_errors is not None:
            budget = min(budget, int(max_errors))

        # Fast path: try plain interpolation on the first k known points and
        # check global consistency; succeeds when there are no errors.
        candidate = self._try_interpolation(positions, values)
        if candidate is not None:
            return candidate

        for num_errors in range(1, budget + 1):
            candidate = self._berlekamp_welch(positions, values, num_errors)
            if candidate is not None:
                return candidate
        raise DecodingFailure(
            f"could not decode within {budget} errors on {num_known} known symbols")

    def decode_int(self, received: Sequence[Optional[int]],
                   max_errors: Optional[int] = None) -> int:
        """Decode and repack the message symbols into an integer."""
        return self.int_from_message(self.decode(received, max_errors))

    # ----- internals ----------------------------------------------------------

    def _try_interpolation(self, positions: Sequence[int], values: Sequence[int]
                           ) -> Optional[List[int]]:
        """Interpolate through the first k points; accept only if consistent."""
        gf = self.field
        k = self.message_length
        xs = positions[:k]
        ys = values[:k]
        poly = gf.lagrange_interpolate(xs, ys)
        if gf.poly_degree(poly) >= k:
            return None
        for pos, val in zip(positions, values, strict=True):
            if gf.poly_eval(poly, pos) != val:
                return None
        padded = list(poly) + [0] * (k - len(poly))
        return padded[:k]

    def _berlekamp_welch(self, positions: Sequence[int], values: Sequence[int],
                         num_errors: int) -> Optional[List[int]]:
        """Berlekamp-Welch decoding assuming exactly <= num_errors errors.

        Solve for polynomials E (monic, degree e) and Q (degree < e + k) with
        ``Q(x_i) = r_i * E(x_i)`` for every known position; then the message
        polynomial is Q / E if the division is exact.
        """
        gf = self.field
        k = self.message_length
        e = num_errors
        num_q = e + k          # unknown coefficients of Q
        num_e = e              # unknown coefficients of E (monic => x^e implicit)
        unknowns = num_q + num_e

        matrix: List[List[int]] = []
        rhs: List[int] = []
        for x, r in zip(positions, values, strict=True):
            row = [0] * unknowns
            # Q coefficients: + x^j
            power = 1
            for j in range(num_q):
                row[j] = power
                power = (power * x) % gf.p
            # E coefficients: - r * x^j  (for j < e)
            power = 1
            for j in range(num_e):
                row[num_q + j] = (-r * power) % gf.p
                power = (power * x) % gf.p
            # Monic term of E contributes r * x^e to the RHS.
            rhs.append((r * pow(x, e, gf.p)) % gf.p)
            matrix.append(row)

        solution = gf.solve_linear_system(matrix, rhs)
        if solution is None:
            return None
        q_poly = gf.poly_trim(solution[:num_q])
        e_poly = gf.poly_trim(solution[num_q:] + [1])  # monic
        message_poly = gf.poly_divides_exactly(q_poly, e_poly)
        if message_poly is None:
            return None
        if gf.poly_degree(message_poly) >= k:
            return None
        # Verify the error budget: the number of disagreeing positions must be
        # at most num_errors, otherwise this is a spurious solution.
        disagreements = 0
        for x, r in zip(positions, values, strict=True):
            if gf.poly_eval(message_poly, x) != r:
                disagreements += 1
        if disagreements > num_errors:
            return None
        padded = list(message_poly) + [0] * (k - len(message_poly))
        return padded[:k]
