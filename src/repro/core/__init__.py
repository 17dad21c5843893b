"""The paper's primary contribution: the ``PrivateExpanderSketch`` protocol.

* :mod:`repro.core.params` — derivation of the protocol parameters
  (M, B, Y, ℓ, thresholds) from (n, |X|, ε, β), following the formulas in
  Algorithm PrivateExpanderSketch with practical constants.
* :mod:`repro.core.protocol` — the protocol abstraction shared with all
  baselines (run a distributed database through local randomizers, account for
  the Table 1 resource columns).
* :mod:`repro.core.results` — the result object (Definition 3.1's ``Est`` list
  plus resource accounting).
* :mod:`repro.core.heavy_hitters` — Algorithm PrivateExpanderSketch itself.

The first three sit *below* :mod:`repro.protocol` (the wire form of the
protocol is built from them); :mod:`repro.core.heavy_hitters` sits above it
(it runs that wire form), so it is imported on first access to
``PrivateExpanderSketch``, never when the package loads.
"""

from repro.core.params import ProtocolParameters
from repro.core.protocol import HeavyHitterProtocol
from repro.core.results import HeavyHitterResult

__all__ = [
    "ProtocolParameters",
    "HeavyHitterProtocol",
    "HeavyHitterResult",
    "PrivateExpanderSketch",
]


def __getattr__(name: str):
    if name == "PrivateExpanderSketch":
        from repro.core.heavy_hitters import PrivateExpanderSketch
        return PrivateExpanderSketch
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
