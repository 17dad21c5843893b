"""Client/server wire API for every LDP protocol in the library.

The local model's deployment shape — millions of clients each shipping one
short randomized report to an untrusted server — is made explicit by three
abstractions (see :mod:`repro.protocol.wire`):

* :class:`PublicParams` — serializable public randomness/configuration the
  server publishes (``to_dict``/``from_dict`` round-trip);
* :class:`ClientEncoder` — stateless per-user encoding:
  ``encode(value, rng) -> Report`` and the vectorized ``encode_batch``;
* :class:`ServerAggregator` — incremental ``absorb``/``absorb_batch``
  ingestion into exact integer state, commutative/associative ``merge`` for
  sharded aggregation, JSON-safe ``snapshot()``/``from_snapshot()``
  checkpoints that restore bit-identically, and ``finalize()`` into a
  fitted estimator.

Report batches travel only in the binary columnar codec of
:mod:`repro.protocol.binary` (columns bit-packed to their value widths
behind a struct header, unpacked once on ingest); aggregator state
travels in the same codec or as the JSON-safe snapshots above, and both
restore to bit-identical aggregates.

The layers above: :mod:`repro.engine` runs this API across a process pool
for simulation; :mod:`repro.server` serves it over TCP as a long-lived
ingestion service (see ``docs/architecture.md``).

Concrete wire protocols::

    ExplicitHistogramParams   small-domain oracle (Theorem 3.8)
    HashtogramParams          general-domain oracle (Theorem 3.7)
    CountMeanSketchParams     Apple-style Count-Mean-Sketch [33]
    RapporParams              basic RAPPOR reports [12]
    ExpanderSketchParams      PrivateExpanderSketch heavy hitters (Section 3.3)
    SingleHashParams          single-hash baseline of Bassily et al. [3]

Typical sharded deployment::

    from repro.protocol import HashtogramParams, merge_aggregators

    params = HashtogramParams.create(domain_size=1 << 20, epsilon=1.0,
                                     num_buckets=256, rng=0)
    payload = params.to_dict()                      # ship to clients

    encoder = HashtogramParams.from_dict(payload).make_encoder()
    batch = encoder.encode_batch(values, rng=1)     # clients randomize

    shards = [params.make_aggregator() for _ in range(4)]
    for shard, part in zip(shards, batch.split(4)):
        shard.absorb_batch(part)                    # workers ingest
    oracle = merge_aggregators(shards).finalize()   # bit-exact vs 1 server
    oracle.estimate(x)
"""

from repro.protocol.binary import (
    BinaryFormatError,
    decode_reports_payload,
    encode_reports_payload,
    is_binary_payload,
    pack_state,
    unpack_state,
)
from repro.protocol.count_mean_sketch import (
    CountMeanSketchAggregator,
    CountMeanSketchEncoder,
    CountMeanSketchParams,
)
from repro.protocol.explicit import (
    ExplicitHistogramAggregator,
    ExplicitHistogramEncoder,
    ExplicitHistogramParams,
)
from repro.protocol.hashtogram import (
    HashtogramAggregator,
    HashtogramEncoder,
    HashtogramParams,
)
from repro.protocol.heavy_hitters import (
    ExpanderSketchAggregator,
    ExpanderSketchEncoder,
    ExpanderSketchParams,
    SingleHashAggregator,
    SingleHashEncoder,
    SingleHashParams,
)
from repro.protocol.rappor import (
    RapporAggregate,
    RapporAggregator,
    RapporEncoder,
    RapporParams,
)
from repro.protocol.wire import (
    ClientEncoder,
    PublicParams,
    Report,
    ReportBatch,
    ServerAggregator,
    merge_aggregators,
    register_protocol,
)

__all__ = [
    "Report",
    "ReportBatch",
    "PublicParams",
    "ClientEncoder",
    "ServerAggregator",
    "merge_aggregators",
    "register_protocol",
    "BinaryFormatError",
    "decode_reports_payload",
    "encode_reports_payload",
    "is_binary_payload",
    "pack_state",
    "unpack_state",
    "ExplicitHistogramParams",
    "ExplicitHistogramEncoder",
    "ExplicitHistogramAggregator",
    "HashtogramParams",
    "HashtogramEncoder",
    "HashtogramAggregator",
    "CountMeanSketchParams",
    "CountMeanSketchEncoder",
    "CountMeanSketchAggregator",
    "RapporParams",
    "RapporEncoder",
    "RapporAggregator",
    "RapporAggregate",
    "ExpanderSketchParams",
    "ExpanderSketchEncoder",
    "ExpanderSketchAggregator",
    "SingleHashParams",
    "SingleHashEncoder",
    "SingleHashAggregator",
]
