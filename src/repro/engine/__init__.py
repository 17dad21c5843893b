"""Multiprocess simulation engine over the client/server wire API.

The engine makes the ROADMAP's "heavy traffic" scenarios runnable on laptop
and CI hardware: it partitions a user population into deterministic chunks
(:mod:`repro.engine.partition`), runs the ``encode_batch → absorb_batch``
loop for each chunk — in-process or across a ``ProcessPoolExecutor``
(:mod:`repro.engine.engine`) — and merges the exact-integer aggregator states
with the wire API's commutative merge, so the finalized estimates are
bit-identical for any worker count.  :mod:`repro.engine.bench` measures the
scaling and backs ``python -m repro.cli bench``.

Typical million-user run (see ``examples/million_user_run.py``)::

    from repro.engine import run_simulation
    from repro.protocol import HashtogramParams

    params = HashtogramParams.create(1 << 20, 1.0, num_buckets=1024, rng=0)
    result = run_simulation(params, values, rng=1, workers=4)
    oracle = result.finalize()          # == the workers=1 run, bit for bit

The same canonical chunk stream (:func:`encode_stream`) is what
``python -m repro.cli load-test`` feeds to the live ingestion service
(:mod:`repro.server`) — and because the plan and seeds are fixed up front,
the *served* estimates are verifiable bit-for-bit against
:func:`run_simulation` under the same seed (see ``docs/architecture.md``).
"""

from repro.engine.bench import run_engine_bench
from repro.engine.engine import (
    EngineResult,
    encode_concat,
    encode_stream,
    routed_stream,
    run_simulation,
    seeded_inputs,
)
from repro.engine.partition import (
    Chunk,
    ShardPartition,
    default_chunk_size,
    derive_chunk_seeds,
    make_plan,
    plan_chunks,
)

__all__ = [
    "Chunk",
    "EngineResult",
    "ShardPartition",
    "default_chunk_size",
    "derive_chunk_seeds",
    "encode_concat",
    "encode_stream",
    "make_plan",
    "plan_chunks",
    "routed_stream",
    "run_engine_bench",
    "run_simulation",
    "seeded_inputs",
]
