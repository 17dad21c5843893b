"""Tests for the sharded cluster serving tier (:mod:`repro.cluster`).

The contract under test is the cluster version of the repo's north-star
guarantee: a K-shard cluster — router + K independent shard server
processes — answers every query **bit-identically** to the offline
:func:`repro.engine.run_simulation` reference under the same seed, for
every registered protocol, through any frame interleaving, and through a
``SIGKILL``-ed shard that is restarted from its snapshot and replayed from
the router's journal.  Also covered: the published pairwise-independent
:class:`~repro.engine.partition.ShardPartition`, the shard-routing header
of binary ``reports`` frames, the router's refusal of frames a shard could
not decode (JSON ``reports`` frames among them), and the ``state``
(state-pull) frame the router's query path is built on.
"""

import asyncio
import struct
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from protocol_cases import protocol_cases
from repro.cluster import ClusterRouter, ClusterSupervisor
import repro.cluster.router as router_module
from repro.cluster.router import _ShardLink
from repro.engine import ShardPartition, make_plan, routed_stream, run_simulation
from repro.engine.partition import ROUTE_PRIME
from repro.protocol import ExplicitHistogramParams, HashtogramParams
from repro.protocol.binary import (
    BinaryFormatError,
    PackedColumn,
    check_reports_payload,
    decode_reports_payload,
    encode_reports_payload,
)
from repro.protocol.wire import load_child_state
from repro.server import (
    AggregationClient,
    AggregationServer,
    ServerError,
    ShardUnavailable,
    decode_frame,
)
from repro.server.framing import (
    encode_reports_frame,
    encode_state_frame,
    frame_bytes,
    read_frame_sync,
)
from repro.server.window import WindowedAggregator

from test_server import legacy_json_reports_frame

DOMAIN = 1 << 12


# --------------------------------------------------------------------------------------
# the published shard partition
# --------------------------------------------------------------------------------------

class TestShardPartition:
    def test_deterministic_and_in_range(self):
        partition = ShardPartition.sample(4, rng=0)
        keys = [0, 1, 4096, 123_456, ROUTE_PRIME - 1, ROUTE_PRIME + 5]
        first = [partition.shard_of(k) for k in keys]
        second = [partition.shard_of(k) for k in keys]
        assert first == second
        assert all(0 <= s < 4 for s in first)

    def test_serialization_round_trip(self):
        partition = ShardPartition.sample(5, rng=7)
        clone = ShardPartition.from_dict(partition.to_dict())
        assert clone == partition
        assert [clone.shard_of(k) for k in range(50)] == \
               [partition.shard_of(k) for k in range(50)]

    def test_covers_every_shard(self):
        partition = ShardPartition.sample(3, rng=0)
        shards = {partition.shard_of(k * 1024) for k in range(200)}
        assert shards == {0, 1, 2}

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError, match="num_shards"):
            ShardPartition.sample(0, rng=0)

    def test_chunk_route_key_is_first_user_index(self):
        params = ExplicitHistogramParams(64, 1.0)
        plan = make_plan(params, 5000, rng=0, chunk_size=1024)
        assert [c.route_key for c in plan] == [c.start for c in plan]


# --------------------------------------------------------------------------------------
# the shard-routing header on reports frames
# --------------------------------------------------------------------------------------

def _small_batch(n=64, seed=0):
    params = HashtogramParams.create(DOMAIN, 1.0, num_buckets=16, rng=0)
    gen = np.random.default_rng(seed)
    values = gen.integers(0, DOMAIN, size=n)
    return params, params.make_encoder().encode_batch(values, gen)


class TestRoutedFrames:
    def test_binary_route_header_round_trip(self):
        params, batch = _small_batch()
        payload = encode_reports_payload(batch, epoch=5, route=4096)
        header = check_reports_payload(payload)
        assert header == {"epoch": 5, "route": 4096, "seq": None,
                          "num_reports": len(batch),
                          "protocol": params.protocol}
        epoch, decoded = decode_reports_payload(payload)
        assert epoch == 5
        plain = encode_reports_payload(batch, epoch=5)
        _, reference = decode_reports_payload(plain)
        for key in reference.columns:
            assert np.array_equal(decoded.columns[key], reference.columns[key])

    def test_binary_unrouted_header_peeks_none(self):
        _, batch = _small_batch()
        header = check_reports_payload(encode_reports_payload(batch, epoch=2))
        assert header["route"] is None
        assert header["num_reports"] == len(batch)

    def test_negative_route_keys_survive(self):
        _, batch = _small_batch()
        payload = encode_reports_payload(batch, route=-7)
        assert check_reports_payload(payload)["route"] == -7

    def test_unknown_flag_bits_rejected(self):
        _, batch = _small_batch()
        payload = bytearray(encode_reports_payload(batch))
        payload[3] = 0x04  # an undefined flag bit
        with pytest.raises(BinaryFormatError, match="unknown header flags"):
            decode_reports_payload(bytes(payload))
        with pytest.raises(BinaryFormatError, match="unknown header flags"):
            check_reports_payload(bytes(payload))

    def test_decoded_frame_carries_route_field(self):
        _, batch = _small_batch()
        frame = encode_reports_frame(batch, epoch=3, route=11)
        message = decode_frame(frame[4:])
        assert message["type"] == "reports"
        assert message["route"] == 11
        assert message["epoch"] == 3

    def test_json_frame_omits_route_by_default(self):
        _, batch = _small_batch()
        message = decode_frame(encode_reports_frame(batch)[4:])
        assert "route" not in message


# --------------------------------------------------------------------------------------
# in-process cluster harness (real shard subprocesses, router on a thread)
# --------------------------------------------------------------------------------------

@contextmanager
def running_cluster(params, num_shards, base_dir, **router_kwargs):
    """A live cluster: supervised shard subprocesses + router event loop."""
    supervisor = ClusterSupervisor(params, num_shards, base_dir)
    supervisor.start()
    router = ClusterRouter(params, supervisor=supervisor, rng=0,
                           **router_kwargs)
    started = threading.Event()
    address = {}

    def run() -> None:
        async def main() -> None:
            address["hp"] = await router.start("127.0.0.1", 0)
            started.set()
            await router.serve_until_stopped()
        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        assert started.wait(30), "cluster router failed to start"
        host, port = address["hp"]
        yield supervisor, router, host, port
        try:
            with AggregationClient(host, port) as client:
                client.shutdown()
        except OSError:
            pass  # already stopped by the test body
        thread.join(30)
    finally:
        supervisor.stop()


def _workload(params, num_users, seed=3):
    gen = np.random.default_rng(seed)
    values = gen.integers(0, params.domain_size, size=num_users)
    values[: num_users // 4] = params.domain_size // 2  # a planted heavy hitter
    return values


CLUSTER_CASES = dict(protocol_cases(num_users=600))


@pytest.mark.cluster
class TestClusterBitIdentity:
    @pytest.mark.parametrize("name", sorted(CLUSTER_CASES))
    def test_cluster_matches_offline_engine(self, tmp_path, name):
        params = CLUSTER_CASES[name]
        values = _workload(params, 600)
        plan_seed = 7
        offline = run_simulation(params, values,
                                 rng=np.random.default_rng(plan_seed),
                                 chunk_size=128).finalize()
        batches, routes = routed_stream(params, values, plan_seed, 128)
        queries = [int(x) for x in
                   np.random.default_rng(1).integers(0, params.domain_size,
                                                     size=32)]
        with running_cluster(params, 2, tmp_path) as (_, _router, host, port):
            with AggregationClient(host, port) as client:
                published = client.hello()
                assert published == params
                for batch, route in zip(batches, routes, strict=True):
                    client.send_batch(batch, route=route)
                assert client.sync() == len(values)
                served = client.query(queries)
        assert np.array_equal(served, offline.estimate_many(queries)), name

    def test_binary_frames_and_three_shards(self, tmp_path):
        params = CLUSTER_CASES["hashtogram"]
        values = _workload(params, 900)
        plan_seed = 11
        offline = run_simulation(params, values,
                                 rng=np.random.default_rng(plan_seed),
                                 chunk_size=128).finalize()
        batches, routes = routed_stream(params, values, plan_seed, 128)
        queries = list(range(40))
        with running_cluster(params, 3, tmp_path) as (_, router, host, port):
            with AggregationClient(host, port) as client:
                client.hello()
                for batch, route in zip(batches, routes, strict=True):
                    client.send_batch(batch, route=route)
                assert client.sync() == len(values)
                served = client.query(queries)
                stats = client.stats()
        assert np.array_equal(served, offline.estimate_many(queries))
        # the partition actually split the stream (with only a handful of
        # chunk keys a shard may legitimately stay empty; full coverage is
        # asserted over many keys in TestShardPartition)
        absorbed = [s["reports_absorbed"] for s in stats["shards"]]
        assert sum(absorbed) == len(values)
        assert sum(1 for a in absorbed if a > 0) >= 2
        assert stats["router"]["frames_forwarded"] == len(batches)

    def test_unrouted_frames_round_robin(self, tmp_path):
        params = CLUSTER_CASES["explicit"]
        values = _workload(params, 400)
        plan_seed = 5
        offline = run_simulation(params, values,
                                 rng=np.random.default_rng(plan_seed),
                                 chunk_size=64).finalize()
        batches, _ = routed_stream(params, values, plan_seed, 64)
        queries = list(range(20))
        with running_cluster(params, 2, tmp_path) as (_, router, host, port):
            with AggregationClient(host, port) as client:
                for i, batch in enumerate(batches):
                    client.send_batch(batch)  # no route key
                assert client.sync() == len(values)
                served = client.query(queries)
                stats = client.stats()
        assert np.array_equal(served, offline.estimate_many(queries))
        assert stats["router"]["frames_unrouted"] == len(batches)

    def test_windowed_query_exact_across_shards(self, tmp_path):
        params = CLUSTER_CASES["explicit"]
        values = _workload(params, 480)
        plan_seed = 9
        batches, routes = routed_stream(params, values, plan_seed, 60)
        assert len(batches) >= 4
        # single-server reference over the same epoch tagging
        reference = WindowedAggregator(params)
        for i, batch in enumerate(batches):
            reference.absorb_batch(batch, epoch=i)
        queries = list(range(24))
        with running_cluster(params, 2, tmp_path) as (_, _router, host, port):
            with AggregationClient(host, port) as client:
                for i, (batch, route) in enumerate(zip(batches, routes, strict=True)):
                    client.send_batch(batch, epoch=i, route=route)
                client.sync()
                for window in (1, 3, None):
                    served = client.query(queries, window=window)
                    expected = reference.finalize(window).estimate_many(queries)
                    assert np.array_equal(served, expected), window

    def test_rejects_mismatched_protocol(self, tmp_path):
        params = CLUSTER_CASES["explicit"]
        other = CLUSTER_CASES["hashtogram"]
        _, batch = _small_batch()
        with running_cluster(params, 2, tmp_path) as (_, router, host, port):
            with AggregationClient(host, port) as client:
                client.send_batch(batch, route=0)
                assert client.sync() == 0
                stats = client.stats()
        assert stats["router"]["frames_rejected"] == 1
        assert other.protocol in stats["router"]["last_rejection"]


def _cut_data(payload):
    """The frame with its last 8 data bytes cut off (header intact)."""
    return payload[:-8]


def _false_count(payload):
    """The frame with a header ``num_reports`` of 2^20 (columns intact)."""
    out = bytearray(payload)
    struct.pack_into("<Q", out, 12, 1 << 20)  # after magic..flags + epoch
    return bytes(out)


@pytest.mark.cluster
class TestRouterRejectsUndecodableFrames:
    """A frame the shard could not decode is rejected at the router: once
    journaled it would fail every replay and take the shard down."""

    @pytest.mark.parametrize("corrupt", [_cut_data, _false_count],
                             ids=["cut_data", "false_count"])
    def test_corrupt_frame_rejected_shard_stays_up(self, tmp_path, corrupt):
        params = CLUSTER_CASES["hashtogram"]
        values = _workload(params, 600)
        offline = run_simulation(params, values,
                                 rng=np.random.default_rng(19),
                                 chunk_size=600).finalize()
        (batch,), _ = routed_stream(params, values, 19, 600)
        payload = encode_reports_payload(batch, route=0)
        with pytest.raises(BinaryFormatError):  # the router's table check
            check_reports_payload(corrupt(payload))
        queries = list(range(32))
        with running_cluster(params, 2, tmp_path) as (_, _router, host, port):
            with AggregationClient(host, port) as client:
                client.send_raw(frame_bytes(corrupt(payload)))
                client.send_raw(frame_bytes(payload))
                assert client.sync() == len(values)
                served = client.query(queries)
                stats = client.stats()
        assert np.array_equal(served, offline.estimate_many(queries))
        assert stats["router"]["frames_rejected"] == 1
        assert stats["router"]["shard_restarts"] == 0

    def test_json_reports_frame_refused(self, tmp_path):
        params, batch = _small_batch()
        with running_cluster(params, 2, tmp_path) as (_, _router, host, port):
            with AggregationClient(host, port) as client:
                client.send_raw(legacy_json_reports_frame(batch))
                client.send_batch(batch, route=0)
                assert client.sync() == len(batch)
                stats = client.stats()
        assert stats["router"]["frames_rejected"] == 1
        assert stats["router"]["frames_forwarded"] == 1
        assert "JSON reports frames" in stats["router"]["last_rejection"]

    def test_kind2_frame_answered_with_error_and_state_pulls_sum(
            self, tmp_path, monkeypatch):
        # A client never sends state to a router: its kind-2 frame gets an
        # error reply (not a silent report rejection), and the connection
        # then pulls the shards' summed state as a kind-2 reply.  The router
        # sums the pulled replies from their wire columns.
        params, batch = _small_batch(200)
        state = encode_state_frame({"type": "absorb_state", "handoff": 1,
                                    "state": {"counts": np.arange(4)}})
        summed = []
        real_fold = router_module.fold_states

        def spying_fold(params_, states):
            summed.extend(type(state["state"]["counts"]) for state in states)
            return real_fold(params_, states)

        monkeypatch.setattr(router_module, "fold_states", spying_fold)
        with running_cluster(params, 2, tmp_path) as (_, _router, host, port):
            with AggregationClient(host, port) as client:
                client.send_batch(batch, epoch=2, route=0)
                client.send_batch(batch, epoch=3, route=1)
                client.sync()
                client.send_raw(state)
                error = read_frame_sync(client._stream)
                pull = client.pull_state()
                stats = client.stats()
        assert error["type"] == "error" and "kind-2" in error["error"]
        assert summed == [PackedColumn, PackedColumn]
        assert stats["router"]["frames_rejected"] == 0
        assert pull["epochs"] == [2, 3]
        assert all(type(e) is int for e in pull["epochs"])
        assert type(pull["num_reports"]) is int
        reference = params.make_aggregator().absorb_batch(batch) \
                                            .absorb_batch(batch)
        assert np.array_equal(pull["state"]["state"]["counts"],
                              reference.counts)


# --------------------------------------------------------------------------------------
# shard failure: SIGKILL mid-ingest, snapshot-restore, journal replay
# --------------------------------------------------------------------------------------

@pytest.mark.cluster
class TestShardFailure:
    def test_kill_one_shard_mid_ingest_converges(self, tmp_path):
        params = CLUSTER_CASES["hashtogram"]
        values = _workload(params, 4000)
        plan_seed = 13
        offline = run_simulation(params, values,
                                 rng=np.random.default_rng(plan_seed),
                                 chunk_size=256).finalize()
        batches, routes = routed_stream(params, values, plan_seed, 256)
        assert len(batches) >= 8
        queries = [int(x) for x in
                   np.random.default_rng(2).integers(0, params.domain_size,
                                                     size=48)]
        # A small checkpoint threshold so auto-checkpoints run during the
        # first half: the post-kill replay then exercises the
        # restore-from-snapshot path, not just an empty-state replay.
        with running_cluster(params, 3, tmp_path,
                             checkpoint_reports=512) as cluster:
            supervisor, router, host, port = cluster
            with AggregationClient(host, port) as client:
                half = len(batches) // 2
                for i in range(half):
                    client.send_batch(batches[i], route=routes[i])
                client.sync()
                supervisor.kill(1)  # SIGKILL, mid-collection
                for i in range(half, len(batches)):
                    client.send_batch(batches[i], route=routes[i])
                # the barrier detects the dead shard on fan-out; the router
                # restarts it from its snapshot and replays the journal
                assert client.sync() == len(values)
                served = client.query(queries)
                stats = client.stats()
            assert supervisor.shards[1].restarts >= 1
        assert stats["router"]["shard_restarts"] >= 1
        assert int(stats["reports_absorbed"]) == len(values)
        assert np.array_equal(served, offline.estimate_many(queries))

    def test_kill_then_explicit_snapshot_barrier(self, tmp_path):
        params = CLUSTER_CASES["explicit"]
        values = _workload(params, 600)
        plan_seed = 17
        offline = run_simulation(params, values,
                                 rng=np.random.default_rng(plan_seed),
                                 chunk_size=100).finalize()
        batches, routes = routed_stream(params, values, plan_seed, 100)
        queries = list(range(16))
        with running_cluster(params, 2, tmp_path) as cluster:
            supervisor, router, host, port = cluster
            with AggregationClient(host, port) as client:
                for batch, route in zip(batches[:3], routes[:3], strict=True):
                    client.send_batch(batch, route=route)
                client.snapshot()  # explicit barrier: journals clear
                supervisor.kill(0)
                for batch, route in zip(batches[3:], routes[3:], strict=True):
                    client.send_batch(batch, route=route)
                assert client.sync() == len(values)
                served = client.query(queries)
        assert np.array_equal(served, offline.estimate_many(queries))


@pytest.mark.cluster
class TestShardUnavailableAndHealth:
    """The bounded recovery ladder and the ``health`` fan-out frame."""

    def test_dead_shard_without_supervisor_raises_typed_error(self, tmp_path):
        # No supervisor: the ladder can only reconnect, never restart, so a
        # SIGKILL-ed shard must surface as a typed ShardUnavailable reply —
        # within a bounded time, not a hang.
        params = CLUSTER_CASES["hashtogram"]
        supervisor = ClusterSupervisor(params, 2, tmp_path)
        supervisor.start()
        try:
            router = ClusterRouter(params, endpoints=supervisor.endpoints(),
                                   rng=0, connect_timeout=0.5,
                                   request_timeout=1.0, recovery_attempts=2,
                                   backoff_base=0.01)
            started = threading.Event()
            address = {}

            def run() -> None:
                async def main() -> None:
                    address["hp"] = await router.start("127.0.0.1", 0)
                    started.set()
                    await router.serve_until_stopped()
                asyncio.run(main())

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            assert started.wait(30), "router failed to start"
            host, port = address["hp"]
            with AggregationClient(host, port, timeout=30.0) as client:
                assert client.query([0, 1, 2]) is not None  # cluster is up
                supervisor.kill(1)
                begin = time.monotonic()
                with pytest.raises(ShardUnavailable, match="shard 1"):
                    client.query([0, 1, 2])
                assert time.monotonic() - begin < 15.0
                # the typed error is also a ServerError (one except clause
                # catches both), and the cluster stays up for a shutdown
                assert issubclass(ShardUnavailable, ServerError)
                client.shutdown()
            thread.join(30)
        finally:
            supervisor.stop()

    def test_health_fanout_and_recovery(self, tmp_path):
        params = CLUSTER_CASES["hashtogram"]
        values = _workload(params, 800)
        batches, routes = routed_stream(params, values, 19, 100)
        with running_cluster(params, 2, tmp_path) as cluster:
            supervisor, router, host, port = cluster
            with AggregationClient(host, port) as client:
                reply = client.health()
                assert reply["type"] == "health"
                assert reply["status"] == "ok"
                assert reply["num_shards"] == 2
                assert [s["status"] for s in reply["shards"]] == ["ok", "ok"]

                supervisor.kill(1)
                degraded = client.health()
                assert degraded["status"] == "degraded"
                by_shard = {s["shard"]: s for s in degraded["shards"]}
                assert by_shard[0]["status"] == "ok"
                assert by_shard[1]["status"] == "unreachable"
                assert by_shard[1]["last_fault"]

                # ingest traffic drives the recovery ladder (restart +
                # journal replay); health then reports all-ok again
                for batch, route in zip(batches, routes, strict=True):
                    client.send_batch(batch, route=route)
                assert client.sync() == len(values)
                recovered = client.health()
                assert recovered["status"] == "ok"
                by_shard = {s["shard"]: s for s in recovered["shards"]}
                assert by_shard[1]["restarts"] >= 1
                assert all(s["status"] == "ok"
                           for s in recovered["shards"])
                # the router stamps a strictly increasing seq per link
                assert all(s["seq"] >= 0 for s in recovered["shards"])
                assert sum(s["num_reports"]
                           for s in recovered["shards"]) == len(values)


# --------------------------------------------------------------------------------------
# the state-pull frame on a single server (the router's query primitive)
# --------------------------------------------------------------------------------------

class TestStatePull:
    def test_pull_state_rebuilds_bit_identically(self):
        from test_server import running_server

        params, batch = _small_batch(200)
        with running_server(params) as (server, host, port):
            with AggregationClient(host, port) as client:
                client.send_batch(batch, epoch=4)
                client.sync()
                pull = client.pull_state()
        assert pull["num_reports"] == len(batch)
        assert pull["epochs"] == [4]
        rebuilt = load_child_state(params, pull["state"])
        reference = params.make_aggregator().absorb_batch(batch)
        assert np.array_equal(rebuilt.finalize().estimate_many(range(32)),
                              reference.finalize().estimate_many(range(32)))

    def test_pull_state_min_epoch_cutoff(self):
        from test_server import running_server

        params, _ = _small_batch()
        encoder = params.make_encoder()
        gen = np.random.default_rng(0)
        with running_server(params) as (server, host, port):
            with AggregationClient(host, port) as client:
                for epoch in (1, 2, 3):
                    values = gen.integers(0, DOMAIN, size=50)
                    client.send_batch(encoder.encode_batch(values, gen),
                                      epoch=epoch)
                client.sync()
                everything = client.pull_state()
                newest_two = client.pull_state(min_epoch=1)
                empty = client.pull_state(min_epoch=10)
        assert everything["epochs"] == [1, 2, 3]
        assert newest_two["epochs"] == [2, 3]
        assert newest_two["num_reports"] == 100
        assert empty["epochs"] == []
        assert empty["num_reports"] == 0

    def test_window_and_min_epoch_mutually_exclusive(self):
        params, _ = _small_batch()
        windowed = WindowedAggregator(params)
        with pytest.raises(ValueError, match="mutually exclusive"):
            windowed.select_epochs(window=2, min_epoch=3)

    def test_server_rejects_both_selectors(self):
        from test_server import running_server

        params, batch = _small_batch()
        with running_server(params) as (server, host, port):
            with AggregationClient(host, port) as client:
                client.send_batch(batch)
                client.sync()
                with pytest.raises(ServerError, match="mutually exclusive"):
                    client.pull_state(window=1, min_epoch=0)


# --------------------------------------------------------------------------------------
# async-safety regressions (defects found by `python -m repro.tools.lint`)
# --------------------------------------------------------------------------------------

class TestRouterAsyncSafetyRegressions:
    """Pin the fixes for the RPL3 findings of the static-analysis suite."""

    @staticmethod
    def _params():
        return HashtogramParams.create(DOMAIN, 1.0, num_buckets=16, rng=0)

    def test_concurrent_router_start_raises_exactly_once(self):
        # RPL302: ClusterRouter.start() used to read self._server, await
        # the shard handshakes, then write it — two concurrent start()
        # calls both passed the guard.
        params = self._params()

        async def main():
            shard = AggregationServer(params)
            host, port = await shard.start("127.0.0.1", 0)
            router = ClusterRouter(params, endpoints=[(host, port)], rng=0)
            results = await asyncio.gather(router.start("127.0.0.1", 0),
                                           router.start("127.0.0.1", 0),
                                           return_exceptions=True)
            errors = [r for r in results
                      if isinstance(r, RuntimeError)
                      and "already started" in str(r)]
            assert len(errors) == 1, results
            await router.stop()
            await shard.stop()

        asyncio.run(main())

    def test_shardlink_close_detaches_before_awaiting(self):
        # RPL302: _ShardLink.close() used to null reader/writer only after
        # awaiting wait_closed(), so a connect() racing the close had its
        # fresh streams clobbered.  The streams must now be detached
        # before the first await.
        params = self._params()

        async def main():
            shard = AggregationServer(params)
            host, port = await shard.start("127.0.0.1", 0)
            link = _ShardLink(0, host, port)
            await link.connect()
            writer = link.writer
            observed = {}
            real_wait = writer.wait_closed

            async def spying_wait_closed():
                observed["writer_during_wait"] = link.writer
                await real_wait()

            writer.wait_closed = spying_wait_closed
            await link.close()
            assert observed["writer_during_wait"] is None
            assert link.writer is None and link.reader is None
            await shard.stop()

        asyncio.run(main())
