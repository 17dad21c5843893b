"""Regenerate the committed version-2 snapshot fixtures (``*.bin``).

Each case is a two-epoch ``WindowedAggregator.capture()`` payload written
by ``write_snapshot(path, payload, format="binary")``.  The first eight are
the version-1 fixture cases of ``tests/data/snapshot_v1`` (same parameters,
values and epochs), ingested by this code; the last three load hand-made
``{"counts": ...}`` states, whose values reach the wider wire dtypes: an
all-nonnegative column past 2^16 (``<u4``), a long column of small cells
with a few wide ones (a patched column) and cells past int32 (``<i8``).
Running

    PYTHONPATH=src python tests/data/snapshot_v2/generate.py

rewrites every ``.bin``; ``tests/test_properties.py`` requires a fresh
build of each case to write the committed bytes exactly, and every
committed file to restore and pack back to its own body.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, Dict

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "src"))

from repro.baselines.single_hash import SingleHashHeavyHitters  # noqa: E402
from repro.core.heavy_hitters import PrivateExpanderSketch  # noqa: E402
from repro.protocol import (  # noqa: E402
    CountMeanSketchParams,
    HashtogramParams,
    RapporParams,
)
from repro.protocol.explicit import ExplicitHistogramParams  # noqa: E402
from repro.protocol.wire import SNAPSHOT_VERSION  # noqa: E402
from repro.server.snapshot import write_snapshot  # noqa: E402
from repro.server.window import (  # noqa: E402
    WINDOW_SNAPSHOT_FORMAT,
    WindowedAggregator,
)

OUT = Path(__file__).parent


def _ingested(params, num_users: int) -> WindowedAggregator:
    """The version-1 fixture recipe: the first 2n/5 values at D // 2, the
    first half into epoch 0, the second half into epoch 1."""
    domain = params.domain_size
    values = np.random.default_rng(11).integers(0, domain, size=num_users)
    values[:2 * num_users // 5] = domain // 2
    half = num_users // 2
    encoder = params.make_encoder()
    windowed = WindowedAggregator(params, window=4)
    windowed.absorb_batch(encoder.encode_batch(
        values[:half], np.random.default_rng(1)), 0)
    windowed.absorb_batch(encoder.encode_batch(
        values[half:], np.random.default_rng(2), first_user_index=half), 1)
    return windowed


def _loaded(params, *states: np.ndarray) -> WindowedAggregator:
    """Epochs 0, 1, ... holding ``states`` (a layout without report-count
    groups, so any counts are valid; each epoch claims 3 reports)."""
    return WindowedAggregator.from_snapshot({
        "format": WINDOW_SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION,
        "params": params.to_dict(), "window": 4,
        "epochs": [{"epoch": epoch, "num_reports": 3,
                    "state": {"counts": counts.tolist()}}
                   for epoch, counts in enumerate(states)]})


def _hadamard_patched() -> WindowedAggregator:
    params = ExplicitHistogramParams(8000, 1.0, "hadamard")
    gen = np.random.default_rng(7)
    states = []
    for epoch in range(2):
        counts = gen.integers(-3, 4, size=params.padded)
        wide = gen.choice(params.padded, size=20, replace=False)
        counts[wide] = gen.integers(70_000, 2**31 - 1, size=wide.size)
        if epoch:
            counts[wide[:5]] *= -1
        states.append(counts)
    return _loaded(params, *states)


def _krr_unsigned() -> WindowedAggregator:
    params = ExplicitHistogramParams(16, 1.0, "krr")
    gen = np.random.default_rng(8)
    return _loaded(params, gen.integers(70_000, 2**31 - 1, size=16),
                   gen.integers(0, 2**31 - 1, size=16))


def _hadamard_int64() -> WindowedAggregator:
    params = ExplicitHistogramParams(64, 1.0, "hadamard")
    gen = np.random.default_rng(9)
    return _loaded(params, gen.integers(-2**40, 2**40, size=params.padded),
                   gen.integers(-5, 6, size=params.padded))


CASES: Dict[str, Callable[[], WindowedAggregator]] = {
    "explicit_hadamard": lambda: _ingested(
        ExplicitHistogramParams(64, 1.0, "hadamard"), 300),
    "explicit_oue": lambda: _ingested(
        ExplicitHistogramParams(16, 1.0, "oue"), 300),
    "explicit_krr": lambda: _ingested(
        ExplicitHistogramParams(16, 1.0, "krr"), 300),
    "hashtogram": lambda: _ingested(HashtogramParams.create(
        64, 1.0, num_repetitions=3, num_buckets=4, rng=0), 300),
    "count_mean_sketch": lambda: _ingested(CountMeanSketchParams.create(
        64, 1.0, num_hashes=3, num_buckets=8, rng=0), 300),
    "rappor": lambda: _ingested(
        RapporParams.create(64, 2.0, num_bits=16, rng=0), 300),
    "expander_sketch": lambda: _ingested(PrivateExpanderSketch(
        domain_size=256, epsilon=4.0, num_buckets=1, hash_range=4,
        expander_degree=2, final_oracle_repetitions=2,
        final_oracle_buckets=4, threshold_std=1.0).public_params(
            1000, rng=np.random.default_rng(3)), 1000),
    "single_hash": lambda: _ingested(SingleHashHeavyHitters(
        domain_size=256, epsilon=4.0, num_repetitions=1,
        hash_range=4).public_params(300, rng=np.random.default_rng(5)), 300),
    "hadamard_patched": _hadamard_patched,
    "krr_unsigned": _krr_unsigned,
    "hadamard_int64": _hadamard_int64,
}


def main() -> None:
    for name, build in CASES.items():
        write_snapshot(OUT / f"{name}.bin", build().capture(),
                       format="binary")
        print(f"wrote {name}.bin")


if __name__ == "__main__":
    main()
