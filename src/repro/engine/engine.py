"""Multiprocess simulation engine over the client/server wire API.

The local model is embarrassingly parallel: every user encodes independently,
and server aggregation is a commutative, associative merge of exact integer
states.  This engine exploits both facts to run the chunk-streamed
``encode_batch → absorb_batch`` loop of :mod:`repro.protocol` across a
``ProcessPoolExecutor``:

1. :func:`repro.engine.partition.make_plan` cuts the population into
   contiguous chunks and draws one client seed per chunk up front;
2. the chunks are split into one contiguous span per worker; each worker
   process rebuilds the (pickle-stable) public parameters, encodes its chunks
   with their pre-drawn seeds, and absorbs them into a local aggregator;
3. the per-worker states are summed exactly, the way a cluster router
   sums its shards' (:func:`repro.protocol.binary.fold_states`), and
   finalized once.

Because the chunk plan and the chunk seeds never depend on the worker count,
``run_simulation(..., workers=N)`` is **bit-identical** to
``run_simulation(..., workers=1)`` — and to the legacy serial
``FrequencyOracle.collect`` / ``HeavyHitterProtocol.run`` shims, which stream
the same plan through :func:`encode_stream`.

The worker→parent result channel is the binary state container of
:mod:`repro.protocol.binary`: each worker returns one packed blob of its
exact integer state, and the parent loads the first blob with the
parameters it already holds and adds the others into it straight from
their packed columns, instead of unpickling — and therefore re-deriving —
a full parameter object per worker result.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.partition import Chunk, make_plan
from repro.protocol.binary import fold_states, pack_state, unpack_state
from repro.protocol.wire import (
    PublicParams,
    ReportBatch,
    ServerAggregator,
    child_state,
    protocol_class,
)
from repro.utils.rng import RandomState, as_generator

__all__ = ["EngineResult", "run_simulation", "encode_stream",
           "encode_concat", "routed_stream", "seeded_inputs"]


def _ingest_span(params: PublicParams, values_span: np.ndarray,
                 chunks: Sequence[Chunk], span_start: int) -> ServerAggregator:
    """Worker body: encode+absorb a contiguous span of chunks locally.

    Module-level so it pickles; ``params`` round-trips through its
    ``to_dict()`` payload (see ``PublicParams.__reduce__``).
    """
    encoder = params.make_encoder()
    aggregator = params.make_aggregator()
    for chunk in chunks:
        local = values_span[chunk.start - span_start:chunk.stop - span_start]
        aggregator.absorb_batch(encoder.encode_batch(
            local, chunk.generator(), first_user_index=chunk.start))
    return aggregator


def _ingest_span_packed(params: PublicParams, values_span: np.ndarray,
                        chunks: Sequence[Chunk], span_start: int) -> bytes:
    """:func:`_ingest_span` returning a packed binary state blob instead of
    the aggregator object.

    Pickling the aggregator ships its public parameters with it (through
    their ``to_dict()`` payload), so the parent re-runs parameter
    construction once *per worker result* — for the expander sketch that
    rebuilds the entire list-recoverable code each time.  The binary state
    channel ships only the report count and the packed integer state,
    packed from the worker's live counts; the parent sums the blobs with
    the parameters it already holds, bit-identically.
    """
    aggregator = _ingest_span(params, values_span, chunks, span_start)
    return pack_state(child_state(aggregator))


@dataclass
class EngineResult:
    """Outcome of one engine run: the merged aggregate plus run accounting."""

    aggregator: ServerAggregator
    params: PublicParams
    num_users: int
    workers: int
    num_chunks: int
    #: wall-clock seconds of the parallel encode+absorb phase
    ingest_s: float
    #: wall-clock seconds spent loading and summing the per-worker states
    merge_s: float

    @property
    def elapsed_s(self) -> float:
        return self.ingest_s + self.merge_s

    @property
    def reports_per_s(self) -> float:
        """End-to-end ingest throughput (encode + absorb + merge)."""
        return self.num_users / max(self.elapsed_s, 1e-9)

    def finalize(self):
        """Debias the merged aggregate into a fitted estimator."""
        return self.aggregator.finalize()


def encode_stream(params: PublicParams, values: Sequence[int],
                  rng: RandomState = None,
                  chunk_size: Optional[int] = None) -> Iterator[ReportBatch]:
    """The canonical serial chunk stream: one ``ReportBatch`` per plan chunk.

    This is exactly what each engine worker computes for its chunks; the
    legacy one-shot simulation paths iterate it in-process, which is why
    their outputs match the multiprocess engine bit for bit under the same
    seed.  It is also the load generator of ``repro.cli load-test``: the
    same stream shipped to a live :mod:`repro.server` ingestion service
    must produce served estimates bit-identical to :func:`run_simulation`
    with the same ``rng`` seed.  ``rng`` is consumed only to draw the
    per-chunk seeds.
    """
    values = np.asarray(values, dtype=np.int64)
    yield from _encode_plan(params, values,
                            make_plan(params, values.size, rng, chunk_size))


def _encode_plan(params: PublicParams, values: np.ndarray,
                 plan: Sequence[Chunk]) -> Iterator[ReportBatch]:
    encoder = params.make_encoder()
    for chunk in plan:
        yield encoder.encode_batch(values[chunk.start:chunk.stop],
                                   chunk.generator(),
                                   first_user_index=chunk.start)


def routed_stream(params: PublicParams, values: Sequence[int],
                  rng: RandomState = None, chunk_size: Optional[int] = None
                  ) -> Tuple[List[ReportBatch], List[int]]:
    """:func:`encode_stream` plus each batch's shard-routing key.

    Both come from one plan, so ``routes[i]`` is the
    :attr:`~repro.engine.partition.Chunk.route_key` of the chunk that
    ``batches[i]`` encodes: the stream a client sends to a cluster router.
    """
    values = np.asarray(values, dtype=np.int64)
    plan = make_plan(params, values.size, rng, chunk_size)
    return (list(_encode_plan(params, values, plan)),
            [chunk.route_key for chunk in plan])


def seeded_inputs(protocol: str, num_users: int, domain_size: int,
                  epsilon: float, seed: RandomState,
                  distribution: str = "zipf"
                  ) -> Tuple[np.ndarray, PublicParams, int]:
    """The seeded run every served-vs-offline check replays: one generator
    draws the values, then the parameters, then the 63-bit plan seed.

    ``distribution`` is ``zipf`` (support capped at 2000 items),
    ``uniform``, or ``planted`` (heavy hitters at 30%, 20% and 10% of the
    users over a uniform background).  ``protocol`` names a registered
    protocol, whose ``for_workload`` builds the parameters.  The plan seed
    is the ``rng`` to give :func:`run_simulation` and
    :func:`routed_stream` alike, so the served and offline runs draw
    identical per-chunk client randomness.
    """
    from repro.workloads.distributions import (
        planted_workload,
        uniform_workload,
        zipf_workload,
    )

    gen = as_generator(seed)
    if distribution == "zipf":
        values = zipf_workload(num_users, domain_size,
                               support=min(2_000, domain_size), rng=gen)
    elif distribution == "uniform":
        values = uniform_workload(num_users, domain_size, rng=gen)
    elif distribution == "planted":
        values = planted_workload(num_users, domain_size,
                                  heavy_fractions=[0.3, 0.2, 0.1],
                                  rng=gen).values
    else:
        raise ValueError(f"unknown distribution {distribution!r} "
                         f"(expected zipf, uniform or planted)")
    params = protocol_class(protocol).for_workload(num_users, domain_size,
                                                   epsilon, rng=gen)
    return values, params, int(gen.integers(0, 2**63 - 1))


def encode_concat(params: PublicParams, values: Sequence[int],
                  rng: RandomState = None,
                  chunk_size: Optional[int] = None) -> ReportBatch:
    """Materialize the whole canonical chunk stream as one columnar batch.

    Used by simulation paths that need the full batch at once (the
    heavy-hitters ``run()`` streams the *server* side per coordinate but
    holds every encoded report, exactly as before).
    """
    values = np.asarray(values, dtype=np.int64)
    batches = list(encode_stream(params, values, rng, chunk_size))
    if not batches:
        return ReportBatch(params.protocol, {})
    if len(batches) == 1:
        return batches[0]
    # consume=True releases each chunk column as it is copied, so the wide
    # (OUE / Bloom-bit) report matrices never exist in two full copies.
    return ReportBatch.concat(batches, consume=True)


def run_simulation(params: PublicParams, values: Sequence[int],
                   rng: RandomState = None, workers: int = 1,
                   chunk_size: Optional[int] = None) -> EngineResult:
    """Simulate one full collection round, optionally across processes.

    Parameters
    ----------
    params:
        Public parameters of any registered wire protocol.
    values:
        ``values[i]`` is user i's true value.
    rng:
        Seed/generator consumed only to draw the per-chunk client seeds
        (the server holds no secret randomness).
    workers:
        ``1`` runs in-process; ``N > 1`` spreads the chunk plan over a
        ``ProcessPoolExecutor`` of N workers.  The finalized estimates are
        bit-identical for every value of ``workers``.
    chunk_size:
        Rows per chunk; default
        :func:`repro.engine.partition.default_chunk_size`.

    Returns
    -------
    EngineResult
        The merged aggregator plus throughput accounting; call
        ``.finalize()`` for the fitted estimator.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    values = np.asarray(values, dtype=np.int64)
    plan = make_plan(params, values.size, rng, chunk_size)

    if not plan:
        return EngineResult(aggregator=params.make_aggregator(), params=params,
                            num_users=0, workers=workers, num_chunks=0,
                            ingest_s=0.0, merge_s=0.0)

    num_tasks = min(workers, len(plan))
    if num_tasks == 1:
        start = time.perf_counter()
        aggregator = _ingest_span(params, values, plan, span_start=0)
        ingest_s = time.perf_counter() - start
        return EngineResult(aggregator=aggregator, params=params,
                            num_users=int(values.size), workers=workers,
                            num_chunks=len(plan), ingest_s=ingest_s,
                            merge_s=0.0)

    spans: List[List[Chunk]] = [list(part) for part in
                                np.array_split(np.asarray(plan, dtype=object),
                                               num_tasks)]
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=num_tasks) as executor:
        futures = []
        for span in spans:
            span_start, span_stop = span[0].start, span[-1].stop
            futures.append(executor.submit(
                _ingest_span_packed, params, values[span_start:span_stop],
                span, span_start))
        blobs = [future.result() for future in futures]
    ingest_s = time.perf_counter() - start

    # the router's sum: the first blob loads, the others are added into it
    # straight from their packed columns
    start = time.perf_counter()
    merged = fold_states(params, [unpack_state(blob, arrays=False)
                                  for blob in blobs])
    merge_s = time.perf_counter() - start
    return EngineResult(aggregator=merged, params=params,
                        num_users=int(values.size), workers=workers,
                        num_chunks=len(plan), ingest_s=ingest_s,
                        merge_s=merge_s)
