"""Tests for elastic cluster membership (:mod:`repro.cluster.shardmap` and
the router's online add/drain/rolling-restart transitions).

Two layers.  The :class:`ShardMap` unit tests pin the versioned,
epoch-stamped routing value itself: legal transitions, id tombstones,
epoch-cut lookup, structural validation, and the checksummed on-disk
store that is every transition's commit point.  The integration tests
(marked ``cluster``) run real shard subprocesses through grow, drain,
grow-then-drain, rolling-restart, and a full router restart — each
mid-ingest — and assert the north-star guarantee survives every one:
queries answer **bit-identically** to the offline
:func:`repro.engine.run_simulation` reference under the same seed.
"""

import asyncio
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cluster import ClusterRouter, ClusterSupervisor
from repro.cluster.shardmap import (
    RoutingEntry,
    ShardMap,
    ShardMapError,
    ShardMapStore,
)
from repro.engine import ShardPartition, routed_stream, run_simulation
from repro.protocol import ExplicitHistogramParams, HashtogramParams
from repro.server import AggregationClient
from repro.server.snapshot import SnapshotCorruptError
from test_cluster import running_cluster


def _partition(num_shards, rng=0):
    return ShardPartition.sample(num_shards, rng=rng)


def _map2():
    return ShardMap.initial(2, _partition(2))


# --------------------------------------------------------------------------------------
# the shard map value
# --------------------------------------------------------------------------------------

class TestShardMapTransitions:
    def test_initial_map(self):
        shard_map = _map2()
        assert shard_map.version == 1
        assert shard_map.shard_ids == (0, 1)
        assert shard_map.active_ids == (0, 1)
        assert shard_map.retired == ()
        assert len(shard_map.entries) == 1
        assert shard_map.entries[0].cut_epoch is None

    def test_grow_routes_only_new_epochs_through_the_new_shard(self):
        grown = _map2().with_joining(2).with_activated(2, cut_epoch=5,
                                                       partition=_partition(3))
        assert grown.version == 3
        assert grown.active_ids == (0, 1, 2)
        # epochs below the cut keep their original owners
        for epoch in range(5):
            for key in range(0, 4096, 64):
                assert grown.shard_for(key, epoch) in (0, 1)
        # from the cut on, all three shards take traffic
        owners = {grown.shard_for(key, 5) for key in range(0, 65536, 64)}
        assert owners == {0, 1, 2}

    def test_joining_shard_owns_no_epochs(self):
        joining = _map2().with_joining(2)
        assert joining.status_of(2) == "joining"
        assert joining.active_ids == (0, 1)
        assert not joining.is_routable(2)

    def test_drain_rewrites_every_entry_and_tombstones_the_id(self):
        grown = _map2().with_joining(2).with_activated(2, 3, _partition(3))
        draining = grown.with_drained_routing(0, target_id=1)
        assert draining.status_of(0) == "draining"
        assert not draining.is_routable(0)
        assert 0 in draining.live_ids  # still holds state until the handoff
        # its keyspace lands on the merge target in every epoch range
        for epoch in (0, 3, 99):
            for key in range(0, 4096, 64):
                assert draining.shard_for(key, epoch) != 0
        removed = draining.with_removed(0)
        assert removed.shard_ids == (1, 2)
        assert removed.retired == (0,)

    def test_ids_are_never_reused(self):
        removed = (_map2().with_joining(2).with_activated(2, 3, _partition(3))
                   .with_drained_routing(0, 1).with_removed(0))
        # shard 0 is retired: the next id skips over the tombstone
        assert removed.next_id == 3
        with pytest.raises(ShardMapError, match="unknown shard id 0"):
            removed.status_of(0)

    def test_transition_preconditions(self):
        shard_map = _map2()
        with pytest.raises(ShardMapError, match="already in the map"):
            shard_map.with_joining(1)
        with pytest.raises(ShardMapError, match="not joining"):
            shard_map.with_activated(0, 3, _partition(2))
        with pytest.raises(ShardMapError, match="not active"):
            shard_map.with_joining(2).with_drained_routing(2, 0)
        with pytest.raises(ShardMapError, match="different active shard"):
            shard_map.with_drained_routing(0, 0)
        with pytest.raises(ShardMapError, match="only draining or joining"):
            shard_map.with_drained_routing(0, 1).with_removed(1)

    def test_activation_cut_must_advance(self):
        grown = _map2().with_joining(2).with_activated(2, 4, _partition(3))
        again = grown.with_joining(3)
        with pytest.raises(ShardMapError, match="must exceed"):
            again.with_activated(3, 4, _partition(4))

    def test_cannot_drain_below_one_shard(self):
        drained = _map2().with_drained_routing(0, 1).with_removed(0)
        # the sole survivor can never be drained: there is no distinct
        # active shard left to take its keyspace
        with pytest.raises(ShardMapError):
            drained.with_drained_routing(1, 1)
        with pytest.raises(ShardMapError):
            drained.with_drained_routing(1, 0)

    def test_entry_for_picks_largest_cut_not_exceeding_epoch(self):
        shard_map = (_map2()
                     .with_joining(2).with_activated(2, 3, _partition(3))
                     .with_joining(3).with_activated(3, 7, _partition(4)))
        assert shard_map.entry_for(0).cut_epoch is None
        assert shard_map.entry_for(2).cut_epoch is None
        assert shard_map.entry_for(3).cut_epoch == 3
        assert shard_map.entry_for(6).cut_epoch == 3
        assert shard_map.entry_for(7).cut_epoch == 7
        assert shard_map.entry_for(10_000).cut_epoch == 7
        assert shard_map.newest_partition.num_shards == 4


class TestShardMapValidation:
    def test_rejects_unsorted_or_duplicate_ids(self):
        with pytest.raises(ShardMapError, match="duplicate or unsorted"):
            ShardMap(version=1, statuses=((1, "active"), (0, "active")),
                     entries=(RoutingEntry(None, (0, 1), _partition(2)),))

    def test_rejects_retired_overlap(self):
        with pytest.raises(ShardMapError, match="disjoint"):
            ShardMap(version=1, statuses=((0, "active"), (1, "active")),
                     entries=(RoutingEntry(None, (0, 1), _partition(2)),),
                     retired=(1,))

    def test_rejects_unknown_status(self):
        with pytest.raises(ShardMapError, match="unknown status"):
            ShardMap(version=1, statuses=((0, "zombie"), (1, "active")),
                     entries=(RoutingEntry(None, (1,), _partition(1)),))

    def test_rejects_entry_referencing_non_active_shard(self):
        with pytest.raises(ShardMapError, match="non-active"):
            ShardMap(version=1, statuses=((0, "active"), (1, "draining")),
                     entries=(RoutingEntry(None, (0, 1), _partition(2)),))

    def test_rejects_missing_all_epoch_entry(self):
        with pytest.raises(ShardMapError, match="cover all"):
            ShardMap(version=1, statuses=((0, "active"),),
                     entries=(RoutingEntry(3, (0,), _partition(1)),))

    def test_rejects_non_ascending_cuts(self):
        entries = (RoutingEntry(None, (0,), _partition(1)),
                   RoutingEntry(5, (0,), _partition(1)),
                   RoutingEntry(3, (0,), _partition(1)))
        with pytest.raises(ShardMapError, match="ascending"):
            ShardMap(version=1, statuses=((0, "active"),), entries=entries)

    def test_entry_rejects_partition_arity_mismatch(self):
        with pytest.raises(ShardMapError, match="slots"):
            RoutingEntry(None, (0, 1, 2), _partition(2))

    def test_round_trip_preserves_everything(self):
        shard_map = (_map2().with_joining(2).with_activated(2, 3,
                                                            _partition(3))
                     .with_drained_routing(0, 1).with_removed(0))
        clone = ShardMap.from_dict(shard_map.to_dict())
        assert clone == shard_map
        for epoch in (0, 3, 9):
            for key in range(0, 2048, 32):
                assert clone.shard_for(key, epoch) == \
                       shard_map.shard_for(key, epoch)

    def test_from_dict_rejects_foreign_documents(self):
        with pytest.raises(ShardMapError, match="not a shard map"):
            ShardMap.from_dict({"format": "something-else"})
        document = _map2().to_dict()
        document["format_version"] = 99
        with pytest.raises(ShardMapError, match="format version"):
            ShardMap.from_dict(document)


class TestShardMapStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ShardMapStore(tmp_path / "shardmap.json")
        shard_map = _map2().with_joining(2).with_activated(2, 1,
                                                           _partition(3))
        store.save(shard_map)
        assert store.load() == shard_map

    def test_missing_file_loads_none(self, tmp_path):
        assert ShardMapStore(tmp_path / "absent.json").load() is None

    def test_corrupt_map_is_loud(self, tmp_path):
        # the map is the commit point of every transition: a damaged file
        # must never be guessed around
        store = ShardMapStore(tmp_path / "shardmap.json")
        store.save(_map2())
        raw = bytearray(store.path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        store.path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError):
            store.load()


# --------------------------------------------------------------------------------------
# live transitions, mid-ingest, against the offline reference
# --------------------------------------------------------------------------------------

def _stream(params, num_users, plan_seed, chunk_size, epochs=4):
    """Workload + chunk stream + per-chunk routes and banded epoch tags."""
    gen = np.random.default_rng(3)
    values = gen.integers(0, params.domain_size, size=num_users)
    values[: num_users // 4] = params.domain_size // 2
    offline = run_simulation(params, values, rng=plan_seed,
                             chunk_size=chunk_size).finalize()
    batches, routes = routed_stream(params, values, plan_seed, chunk_size)
    tags = [(i * epochs) // len(batches) for i in range(len(batches))]
    return values, offline, batches, routes, tags


@pytest.mark.cluster
class TestOnlineMembership:
    def test_grow_mid_ingest_is_bit_identical(self, tmp_path):
        params = HashtogramParams.create(1 << 12, 1.0, num_buckets=16, rng=0)
        values, offline, batches, routes, tags = _stream(params, 600, 7, 64)
        queries = list(range(48))
        with running_cluster(params, 2, tmp_path) as (_, _r, host, port):
            with AggregationClient(host, port) as client:
                for i, batch in enumerate(batches):
                    if i == len(batches) // 3:
                        reply = client.add_shard()
                        assert reply["type"] == "shard_added"
                        assert reply["shard"] == 2
                        # the cut lands strictly above every seen epoch
                        assert reply["cut_epoch"] > tags[i - 1]
                    client.send_batch(batch, epoch=tags[i], route=routes[i])
                assert client.sync() == len(values)
                served = client.query(queries)
                document = client.shard_map()["map"]
                stats = client.stats()
        assert np.array_equal(served, offline.estimate_many(queries))
        grown = ShardMap.from_dict(document)
        assert grown.active_ids == (0, 1, 2)
        assert len(grown.entries) == 2
        # the new shard genuinely absorbed post-cut traffic
        by_shard = {s["shard"]: s["reports_absorbed"]
                    for s in stats["shards"]}
        assert by_shard[2] > 0

    def test_drain_mid_ingest_hands_off_and_reaps(self, tmp_path):
        params = ExplicitHistogramParams(64, 1.0, "hadamard")
        values, offline, batches, routes, tags = _stream(params, 480, 11, 48)
        queries = list(range(32))
        with running_cluster(params, 3, tmp_path) as cluster:
            supervisor, _router, host, port = cluster
            with AggregationClient(host, port) as client:
                for i, batch in enumerate(batches):
                    if i == len(batches) // 2:
                        reply = client.drain_shard(1)
                        assert reply["type"] == "drained"
                        assert reply["shard"] == 1
                        assert reply["target"] in (0, 2)
                        assert reply["num_reports"] >= 0
                    client.send_batch(batch, epoch=tags[i], route=routes[i])
                assert client.sync() == len(values)
                served = client.query(queries)
                document = client.shard_map()["map"]
            # the drained subprocess is reaped, not left running
            assert not supervisor.shards[1].alive
        assert np.array_equal(served, offline.estimate_many(queries))
        drained = ShardMap.from_dict(document)
        assert drained.active_ids == (0, 2)
        assert drained.retired == (1,)

    def test_grow_then_drain_round_trip(self, tmp_path):
        params = HashtogramParams.create(1 << 12, 1.0, num_buckets=16, rng=0)
        values, offline, batches, routes, tags = _stream(params, 600, 13, 50)
        queries = list(range(40))
        n = len(batches)
        with running_cluster(params, 2, tmp_path) as (_, _r, host, port):
            with AggregationClient(host, port) as client:
                for i, batch in enumerate(batches):
                    if i == n // 4:
                        added = client.add_shard()
                    if i == (3 * n) // 4:
                        drained = client.drain_shard(0)
                    client.send_batch(batch, epoch=tags[i], route=routes[i])
                assert client.sync() == len(values)
                served = client.query(queries)
                document = client.shard_map()["map"]
        assert np.array_equal(served, offline.estimate_many(queries))
        assert added["shard"] == 2
        assert drained["shard"] == 0
        final = ShardMap.from_dict(document)
        assert final.active_ids == (1, 2)
        assert final.retired == (0,)
        assert final.next_id == 3

    def test_drain_is_idempotent_for_retired_ids(self, tmp_path):
        params = ExplicitHistogramParams(64, 1.0, "hadamard")
        with running_cluster(params, 2, tmp_path) as (_, _r, host, port):
            with AggregationClient(host, port) as client:
                first = client.drain_shard(0)
                again = client.drain_shard(0)
        assert first["type"] == "drained"
        # a retried drain of an already-retired id reports success without
        # re-running the transition (clients retry on router recovery)
        assert again["type"] == "drained"
        assert again.get("already") or again["shard"] == 0

    def test_rolling_restart_mid_ingest(self, tmp_path):
        params = ExplicitHistogramParams(64, 1.0, "hadamard")
        values, offline, batches, routes, tags = _stream(params, 480, 17, 48)
        queries = list(range(32))
        with running_cluster(params, 2, tmp_path) as cluster:
            supervisor, _router, host, port = cluster
            with AggregationClient(host, port) as client:
                half = len(batches) // 2
                for i in range(half):
                    client.send_batch(batches[i], epoch=tags[i],
                                      route=routes[i])
                reply = client.rolling_restart()
                assert reply["type"] == "restarted"
                assert reply["shards"] == [0, 1]
                for i in range(half, len(batches)):
                    client.send_batch(batches[i], epoch=tags[i],
                                      route=routes[i])
                assert client.sync() == len(values)
                served = client.query(queries)
            assert all(shard.restarts >= 1 for shard in supervisor.shards)
        assert np.array_equal(served, offline.estimate_many(queries))

    def test_rolling_restart_over_a_killed_shard(self, tmp_path):
        # Shard 1 is SIGKILLed before the rolling restart reaches it: its
        # checkpoint fails, recovery restarts it from its snapshot and
        # replays the journal, the checkpoint is retried, and only then
        # does the planned restart run.
        params = ExplicitHistogramParams(64, 1.0, "hadamard")
        values, offline, batches, routes, tags = _stream(params, 480, 23, 48)
        queries = list(range(32))
        with running_cluster(params, 2, tmp_path) as cluster:
            supervisor, _router, host, port = cluster
            with AggregationClient(host, port) as client:
                half = len(batches) // 2
                for i in range(half):
                    client.send_batch(batches[i], epoch=tags[i],
                                      route=routes[i])
                client.sync()
                supervisor.kill(1)
                reply = client.rolling_restart()
                assert reply["type"] == "restarted"
                assert reply["shards"] == [0, 1]
                for i in range(half, len(batches)):
                    client.send_batch(batches[i], epoch=tags[i],
                                      route=routes[i])
                assert client.sync() == len(values)
                served = client.query(queries)
            assert supervisor.shards[0].restarts == 1
            assert supervisor.shards[1].restarts >= 2
        assert np.array_equal(served, offline.estimate_many(queries))

    def test_drain_into_a_killed_survivor(self, tmp_path):
        # The drain target is SIGKILLed first: the state push recovers it
        # (restart from snapshot, journal replay) before it absorbs the
        # handoff and is checkpointed.
        params = ExplicitHistogramParams(64, 1.0, "hadamard")
        values, offline, batches, routes, tags = _stream(params, 480, 29, 48)
        queries = list(range(32))
        with running_cluster(params, 3, tmp_path) as cluster:
            supervisor, _router, host, port = cluster
            with AggregationClient(host, port) as client:
                half = len(batches) // 2
                for i in range(half):
                    client.send_batch(batches[i], epoch=tags[i],
                                      route=routes[i])
                client.sync()
                supervisor.kill(2)
                reply = client.drain_shard(1, target=2)
                assert reply["type"] == "drained"
                assert (reply["shard"], reply["target"]) == (1, 2)
                for i in range(half, len(batches)):
                    client.send_batch(batches[i], epoch=tags[i],
                                      route=routes[i])
                assert client.sync() == len(values)
                served = client.query(queries)
                document = client.shard_map()["map"]
            assert supervisor.shards[2].restarts >= 1
            assert not supervisor.shards[1].alive
        assert np.array_equal(served, offline.estimate_many(queries))
        assert ShardMap.from_dict(document).active_ids == (0, 2)


# --------------------------------------------------------------------------------------
# a full router restart between transitions (journals + persisted map)
# --------------------------------------------------------------------------------------

@contextmanager
def _manual_router(params, supervisor, **kwargs):
    """A router whose lifetime the test controls (stop ≠ cluster stop)."""
    router = ClusterRouter(params, supervisor=supervisor, rng=0, **kwargs)
    started = threading.Event()
    shared = {}

    def run() -> None:
        async def main() -> None:
            shared["loop"] = asyncio.get_running_loop()
            shared["hp"] = await router.start("127.0.0.1", 0)
            started.set()
            await router.serve_until_stopped()
        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(30), "router failed to start"
    try:
        yield router, shared["hp"]
    finally:
        shared["loop"].call_soon_threadsafe(router._stopping.set)
        thread.join(30)
        assert not thread.is_alive(), "router thread did not stop"


@pytest.mark.cluster
class TestRouterRestartResume:
    def test_membership_and_journals_survive_router_replacement(self,
                                                                tmp_path):
        params = ExplicitHistogramParams(64, 1.0, "hadamard")
        values, offline, batches, routes, tags = _stream(params, 480, 19, 40)
        queries = list(range(32))
        n = len(batches)
        supervisor = ClusterSupervisor(params, 2, tmp_path)
        supervisor.start()
        try:
            with _manual_router(params, supervisor) as (_, (host, port)):
                with AggregationClient(host, port) as client:
                    for i in range(n // 2):
                        if i == n // 4:
                            added = client.add_shard()
                        client.send_batch(batches[i], epoch=tags[i],
                                          route=routes[i])
                    # sync (so every fire-and-forget frame is delivered)
                    # but deliberately no snapshot barrier: the journals
                    # keep every frame, and the replacement router must
                    # load them and resume stamping above their watermark
                    client.sync()
            assert any(path.stat().st_size > 0
                       for path in tmp_path.glob("journal-shard-*.bin"))
            with _manual_router(params, supervisor) as (_, (host, port)):
                with AggregationClient(host, port) as client:
                    resumed = ShardMap.from_dict(client.shard_map()["map"])
                    assert resumed.active_ids == (0, 1, 2)
                    for i in range(n // 2, n):
                        if i == (3 * n) // 4:
                            drained = client.drain_shard(1)
                        client.send_batch(batches[i], epoch=tags[i],
                                          route=routes[i])
                    assert client.sync() == len(values)
                    served = client.query(queries)
                    final = ShardMap.from_dict(client.shard_map()["map"])
        finally:
            supervisor.stop()
        assert added["shard"] == 2
        assert drained["shard"] == 1
        assert final.active_ids == (0, 2)
        assert final.retired == (1,)
        assert np.array_equal(served, offline.estimate_many(queries))
