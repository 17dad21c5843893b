"""Error-correcting codes and the unique-list-recoverable code of Theorem 3.6.

Layers, bottom-up:

* :mod:`repro.codes.gf` — arithmetic over a prime field GF(p): modular
  inverses, polynomial evaluation/interpolation, and Gaussian elimination.
* :mod:`repro.codes.reed_solomon` — a constant-rate Reed-Solomon code with a
  Berlekamp-Welch decoder; this plays the role of the "standard error
  correcting code with constant rate correcting an Ω(1) fraction of errors"
  required by Appendix B (substituting for linear-time Spielman codes: only
  polynomial-time decoding matters for the statistical claims reproduced).
* :mod:`repro.codes.list_recoverable` — the (α, ℓ, L)-unique-list-recoverable
  code (Enc, Dec) of Theorem 3.6 / Appendix B: the encoder interleaves
  Reed-Solomon chunks with expander-neighbourhood hash values, and the decoder
  builds the layered graph over [M]×[Y], finds spectral clusters, and decodes
  each cluster's chunks with the outer code.
"""

from repro.codes.gf import PrimeField
from repro.codes.list_recoverable import (
    EncodedSymbol,
    ListRecoveryParameters,
    UniqueListRecoverableCode,
)
from repro.codes.reed_solomon import DecodingFailure, ReedSolomonCode

__all__ = [
    "PrimeField",
    "ReedSolomonCode",
    "DecodingFailure",
    "UniqueListRecoverableCode",
    "ListRecoveryParameters",
    "EncodedSymbol",
]
