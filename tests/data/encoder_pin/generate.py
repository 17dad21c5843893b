"""Regenerate the committed encoder-output pin (``pins.json``).

For every registered protocol, at fixed seeds and small shapes, the pin
holds the SHA-256 of every column ``ClientEncoder.encode_batch`` returns
(with its dtype and shape) and one draw from the generator after the
encode, so a change to what a client sends, or to how much randomness it
consumes, shows up as a changed pin.  The shapes cover the hash fields the
encoders use: the small domain's prime, the ``2^20`` domain's prime
1,048,583, the ``2^31 + 11`` assignment field, and user indices that wrap
past the assignment domain.

The perfbench correctness gates compare two paths that share the same
hashing kernels, so they cannot see a kernel that drifts; this pin can.
Deterministic by construction (fixed seeds, no wall clock):

    PYTHONPATH=src python tests/data/encoder_pin/generate.py

rewrites ``pins.json``; regenerate it only for an intended change to the
reports clients send.  ``tests/test_encoder_pin.py`` compares a fresh
:func:`collect` with the committed file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "src"))

from repro.protocol.wire import protocol_class, protocol_names  # noqa: E402

OUT = Path(__file__).parent / "pins.json"

#: (num_users, domain_size, epsilon, params seed)
SHAPES = ((800, 1 << 12, 4.0, 0), (5000, 1 << 20, 1.0, 1))
#: (batch size, encode seed, first_user_index); the last batch's user
#: indices wrap past the 2^31 assignment domain
BATCHES = ((300, 11, 12_345), (257, 12, (1 << 31) - 100))


def _column_pin(column: np.ndarray) -> dict:
    column = np.ascontiguousarray(column)
    return {"dtype": column.dtype.str,
            "shape": [int(n) for n in column.shape],
            "sha256": hashlib.sha256(column.tobytes()).hexdigest()}


def collect() -> list:
    """One entry per (protocol, shape, batch), in a fixed order."""
    cases = []
    for name in protocol_names():
        for num_users, domain_size, epsilon, seed in SHAPES:
            params = protocol_class(name).for_workload(
                num_users, domain_size, epsilon,
                rng=np.random.default_rng(seed))
            encoder = params.make_encoder()
            for size, encode_seed, first_user_index in BATCHES:
                gen = np.random.default_rng(encode_seed)
                values = gen.integers(0, domain_size, size=size)
                values[:3] = (0, domain_size - 1, domain_size // 2)
                batch = encoder.encode_batch(
                    values, gen, first_user_index=first_user_index)
                cases.append({
                    "protocol": name,
                    "domain_size": domain_size,
                    "first_user_index": first_user_index,
                    "columns": {key: _column_pin(col) for key, col
                                in sorted(batch.columns.items())},
                    "next_draw": int(gen.integers(0, 1 << 62)),
                })
    return cases


def main() -> None:
    payload = {
        "_comment": "encode_batch output pin; regenerate with "
                    "`PYTHONPATH=src python tests/data/encoder_pin/"
                    "generate.py` (see tests/test_encoder_pin.py)",
        "cases": collect(),
    }
    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({len(payload['cases'])} cases)")


if __name__ == "__main__":
    main()
