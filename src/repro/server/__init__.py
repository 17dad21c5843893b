"""Streaming aggregation service over the client/server wire API.

This package turns the simulation-oriented wire API of :mod:`repro.protocol`
into an actual long-lived service: an asyncio TCP server that a fleet of
clients streams :class:`~repro.protocol.wire.ReportBatch` payloads to, with
live queries, durable crash-safe snapshots, and windowed (epoch-rolled)
collection.  The layer map (see ``docs/architecture.md``):

* :mod:`repro.server.framing` — length-prefixed frames (the transport):
  JSON control frames plus bit-packed binary ``reports`` frames
  (``docs/wire-protocol.md`` §8), distinguished by the payload magic byte;
  the ``MESSAGES`` table of the vocabulary, and ``MessageEndpoint``, the
  connection loop that dispatches each request to its handler by name;
* :mod:`repro.server.window`  — :class:`WindowedAggregator`, epoch-tagged
  aggregators with a rolling bit-exact merge;
* :mod:`repro.server.snapshot` — atomic durable snapshot files
  (:class:`SnapshotStore`);
* :mod:`repro.server.service` — :class:`AggregationServer`, the bounded-queue
  ingestion loop and the server's message handlers;
* :mod:`repro.server.client`  — :class:`AggregationClient` (blocking) and
  :class:`AsyncAggregationClient` (asyncio).

Quick start (or ``python -m repro.cli serve`` / ``load-test``)::

    import asyncio
    from repro.protocol import HashtogramParams
    from repro.server import AggregationServer, AggregationClient

    params = HashtogramParams.create(1 << 16, 1.0, num_buckets=64, rng=0)

    async def main():
        server = AggregationServer(params, snapshot_dir="ckpt")
        host, port = await server.start()
        # ... clients connect, stream batches, query live estimates ...
        await server.serve_until_stopped()

The guarantee this package inherits from the merge algebra: a served
estimate equals — bit for bit — the offline
:func:`repro.engine.run_simulation` estimate over the same reports, no
matter how the reports were batched, interleaved across connections, or
checkpoint/restored in between.
"""

from repro.server.client import (
    AggregationClient,
    AsyncAggregationClient,
    ServerError,
    ShardUnavailable,
)
from repro.server.framing import (
    WIRE_FORMATS,
    FrameError,
    decode_frame,
    encode_frame,
    encode_reports_frame,
    frame_bytes,
    read_frame,
    read_frame_payload,
    read_frame_sync,
    write_frame,
    write_frame_sync,
)
from repro.server.service import AggregationServer, ServerStats
from repro.server.snapshot import SnapshotStore, read_snapshot, write_snapshot
from repro.server.window import WindowedAggregator

__all__ = [
    "AggregationClient",
    "AggregationServer",
    "AsyncAggregationClient",
    "FrameError",
    "ServerError",
    "ShardUnavailable",
    "ServerStats",
    "SnapshotStore",
    "WIRE_FORMATS",
    "WindowedAggregator",
    "decode_frame",
    "encode_frame",
    "encode_reports_frame",
    "frame_bytes",
    "read_frame",
    "read_frame_payload",
    "read_frame_sync",
    "read_snapshot",
    "write_frame",
    "write_frame_sync",
    "write_snapshot",
]
