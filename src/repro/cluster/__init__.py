"""Sharded cluster serving: a router tier over N shard aggregation servers.

This package is the first step from "a server" to "a fleet".  It scales the
streaming aggregation service of :mod:`repro.server` horizontally by
exploiting the property the wire API was designed around — every
aggregator's state is exact integers and ``merge`` is a commutative,
associative sum — so splitting the report stream across K independent shard
servers loses nothing: merging the K shard states reproduces single-server
aggregation **bit for bit**.

* :class:`~repro.cluster.supervisor.ClusterSupervisor` — spawns and
  monitors the N shard subprocesses (each a full ``repro.cli serve``
  service with its own snapshot directory) and restarts a dead shard from
  its newest snapshot.
* :class:`~repro.cluster.router.ClusterRouter` — the single endpoint
  clients talk to: hash-partitions ``reports`` frames across the shards
  with the published pairwise-independent
  :class:`~repro.engine.partition.ShardPartition` (forwarding payload bytes
  verbatim — no column decode), answers ``query`` by pulling every shard's
  packed state and merging exactly, and journals forwarded frames so a
  killed shard converges bit-identically after snapshot-restore replay.

Quick start (or ``python -m repro.cli serve-cluster --shards 3`` /
``load-test --cluster 3``)::

    import asyncio
    from repro.cluster import ClusterRouter, ClusterSupervisor
    from repro.protocol import HashtogramParams

    params = HashtogramParams.create(1 << 16, 1.0, num_buckets=64, rng=0)

    async def main():
        with ClusterSupervisor(params, 3, "cluster-home") as supervisor:
            supervisor.start()
            router = ClusterRouter(params, supervisor=supervisor, rng=0)
            host, port = await router.start()
            # ... AggregationClient(host, port) works unchanged ...
            await router.serve_until_stopped()

The cluster guarantee, asserted end-to-end by ``load-test --cluster``: the
served estimates equal the offline :func:`repro.engine.run_simulation`
estimates bit for bit, for any shard count, any frame interleaving, and
through a shard crash mid-ingest.
"""

import importlib
from typing import Dict, List

#: where every public name lives, imported on first access: ``import
#: repro.cluster.supervisor`` loads no router, protocol layer or numpy, so
#: ``serve-cluster`` launches its shards before it loads them
_SOURCES = {
    "repro.cluster.router": ("ROUTER_ID", "ClusterError", "ClusterRouter",
                             "RouterStats"),
    "repro.cluster.supervisor": ("ClusterSupervisor", "ShardHandle",
                                 "spawn_server_process"),
}
_EXPORTS: Dict[str, str] = {name: module for module, names in _SOURCES.items()
                            for name in names}

__all__ = [
    "ROUTER_ID",
    "ClusterError",
    "ClusterRouter",
    "ClusterSupervisor",
    "RouterStats",
    "ShardHandle",
    "spawn_server_process",
]


def __getattr__(name: str):
    """Resolve a public name, or a not-yet-imported submodule, on first use
    (PEP 562, as the ``repro`` package root does)."""
    if name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    source = _EXPORTS.get(name)
    if source is not None:
        value = getattr(importlib.import_module(source), name)
    else:
        try:
            value = importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute "
                                 f"{name!r}") from None
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
