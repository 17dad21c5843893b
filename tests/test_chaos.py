"""Tests for the deterministic fault-injection harness (:mod:`repro.chaos`).

Three layers: the seeded :class:`~repro.chaos.schedule.FaultSchedule`
(same seed → byte-identical schedule and digest, every generated schedule
covers all seven fault kinds), the frame-aware
:class:`~repro.chaos.transport.FaultyTransport` proxy (clean passthrough,
pop-once fault firing, monotone frame counter across reconnects), and —
marked ``chaos`` — a full :class:`~repro.chaos.runner.ChaosRunner` run
asserting the faulted cluster still answers **bit-identically** to the
offline engine.
"""

import asyncio
import contextlib
import itertools
import json
import os

import numpy as np
import pytest

from repro.chaos import (
    CLIENT_WIRE_KINDS,
    FAULT_KINDS,
    MEMBERSHIP_KINDS,
    PROCESS_KINDS,
    WIRE_KINDS,
    ChaosRunner,
    FaultEvent,
    FaultSchedule,
    FaultyTransport,
)
from repro.protocol import HashtogramParams
from repro.server import (
    AggregationServer,
    AsyncAggregationClient,
    FrameError,
    ServerError,
)
from test_server import running_server


def _params():
    return HashtogramParams.create(1 << 10, 1.0, num_buckets=16, rng=0)


def _batch(params, seed=3, n=800):
    gen = np.random.default_rng(seed)
    values = gen.integers(0, params.domain_size, size=n)
    return params.make_encoder().encode_batch(values, gen)


# --------------------------------------------------------------------------------------
# the seeded schedule
# --------------------------------------------------------------------------------------

class TestFaultSchedule:
    def test_same_seed_same_schedule_and_digest(self):
        a = FaultSchedule.generate(7, num_frames=24, num_shards=3)
        b = FaultSchedule.generate(7, num_frames=24, num_shards=3)
        assert a.events == b.events
        assert a.digest() == b.digest()
        assert a.seed == 7

    def test_different_seeds_differ(self):
        a = FaultSchedule.generate(7, num_frames=24, num_shards=3)
        b = FaultSchedule.generate(8, num_frames=24, num_shards=3)
        assert a.digest() != b.digest()

    def test_generated_schedule_covers_every_kind(self):
        for seed in range(5):
            schedule = FaultSchedule.generate(seed, num_frames=20,
                                              num_shards=2)
            assert set(schedule.kinds) == set(FAULT_KINDS), seed

    def test_round_trip_preserves_digest(self, tmp_path):
        schedule = FaultSchedule.generate(11, num_frames=16, num_shards=2)
        clone = FaultSchedule.from_dict(schedule.to_dict())
        assert clone.events == schedule.events
        assert clone.seed == schedule.seed
        path = schedule.save(tmp_path / "sched.json")
        loaded = FaultSchedule.load(path)
        assert loaded.events == schedule.events
        assert loaded.digest() == schedule.digest()
        # the saved artifact embeds the digest it will replay under
        assert json.loads(path.read_text())["digest"] == schedule.digest()

    def test_fault_maps_partition_by_family(self):
        schedule = FaultSchedule.generate(13, num_frames=20, num_shards=2)
        wire = {e for target in ("client", "shard-0", "shard-1")
                for e in schedule.wire_faults(target).values()}
        process = {e for events in schedule.process_faults().values()
                   for e in events}
        assert all(e.kind in WIRE_KINDS for e in wire)
        assert all(e.kind in PROCESS_KINDS for e in process)
        assert wire | process == set(schedule.events)
        assert not (wire & process)
        # the client leg never sees a corrupt fault (undetectable loss)
        assert all(e.kind in CLIENT_WIRE_KINDS
                   for e in schedule.wire_faults("client").values())

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("client", 1, "explode")
        with pytest.raises(ValueError, match="frame must be"):
            FaultEvent("client", -1, "delay")
        for kind in ("kill", "sigstop", "corrupt"):
            with pytest.raises(ValueError, match="must target a shard"):
                FaultEvent("client", 1, kind)
        assert FaultEvent("shard-2", 1, "kill").shard == 2
        assert FaultEvent("client", 1, "stall").shard is None

    def test_generate_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="num_frames"):
            FaultSchedule.generate(0, num_frames=1, num_shards=2)
        with pytest.raises(ValueError, match="num_shards"):
            FaultSchedule.generate(0, num_frames=10, num_shards=0)


# --------------------------------------------------------------------------------------
# the membership-mode schedule (chaos-test --membership)
# --------------------------------------------------------------------------------------

class TestMembershipSchedule:
    def _generate(self, seed=7, **overrides):
        kwargs = dict(num_frames=24, num_shards=2, add_frame=6,
                      drain_frame=12, drain_shard=0)
        kwargs.update(overrides)
        return FaultSchedule.generate_membership(seed, **kwargs)

    def test_same_seed_same_schedule_and_digest(self):
        a, b = self._generate(), self._generate()
        assert a.events == b.events
        assert a.digest() == b.digest()
        assert self._generate(seed=8).digest() != a.digest()

    def test_covers_every_membership_kind_plus_one_kill(self):
        for seed in range(5):
            schedule = self._generate(seed=seed)
            assert set(schedule.kinds) == set(MEMBERSHIP_KINDS) | {"kill"}, \
                seed

    def test_placement_respects_the_transition_choreography(self):
        for seed in range(8):
            schedule = self._generate(seed=seed)
            by_kind = {event.kind: event for event in schedule.events}
            # corrupt-snapshot fires before the add (original shards only)
            corrupt = by_kind["corrupt-snapshot"]
            assert 1 <= corrupt.frame < 6
            assert corrupt.shard in (0, 1)
            # torn-journal fires strictly between add and drain, at the
            # router (it restarts the whole routing tier)
            tear = by_kind["torn-journal"]
            assert 6 < tear.frame < 12
            assert tear.target == "router"
            # the plain kill targets the freshly added shard, after the add
            kill = by_kind["kill"]
            assert kill.shard == 2
            assert 6 < kill.frame < 12
            # drain-race SIGKILLs the drained shard exactly at the drain
            race = by_kind["drain-race"]
            assert race.frame == 12
            assert race.shard == 0

    def test_membership_faults_partition(self):
        schedule = self._generate()
        membership = {e for events in schedule.membership_faults().values()
                      for e in events}
        process = {e for events in schedule.process_faults().values()
                   for e in events}
        assert all(e.kind in MEMBERSHIP_KINDS for e in membership)
        assert all(e.kind in PROCESS_KINDS for e in process)
        assert membership | process == set(schedule.events)
        assert not (membership & process)

    def test_round_trip_preserves_digest(self, tmp_path):
        schedule = self._generate()
        clone = FaultSchedule.from_dict(schedule.to_dict())
        assert clone.events == schedule.events
        path = schedule.save(tmp_path / "membership-sched.json")
        assert FaultSchedule.load(path).digest() == schedule.digest()

    def test_rejects_degenerate_choreography(self):
        with pytest.raises(ValueError, match="add_frame"):
            self._generate(add_frame=12, drain_frame=6)
        with pytest.raises(ValueError, match="add_frame"):
            self._generate(add_frame=0)
        with pytest.raises(ValueError, match="add_frame"):
            self._generate(drain_frame=30, num_frames=24)
        with pytest.raises(ValueError, match="drain_shard"):
            self._generate(drain_shard=5)

    def test_membership_kinds_do_not_perturb_default_schedules(self):
        # MEMBERSHIP_KINDS must stay out of FAULT_KINDS: the default
        # generator cycles that tuple, so folding them in would silently
        # change every existing seeded schedule and its replay digest
        assert not set(MEMBERSHIP_KINDS) & set(FAULT_KINDS)
        schedule = FaultSchedule.generate(7, num_frames=24, num_shards=3)
        assert all(e.kind in FAULT_KINDS for e in schedule.events)

    def test_membership_event_validation(self):
        with pytest.raises(ValueError, match="must target a shard"):
            FaultEvent("client", 1, "drain-race")
        with pytest.raises(ValueError, match="must target a shard"):
            FaultEvent("router", 1, "corrupt-snapshot")
        with pytest.raises(ValueError, match="target the\n?.*router|router"):
            FaultEvent("shard-0", 1, "torn-journal")
        assert FaultEvent("router", 3, "torn-journal").shard is None


# --------------------------------------------------------------------------------------
# the fault-injecting proxy
# --------------------------------------------------------------------------------------

class TestFaultyTransport:
    def test_rejects_process_kind_faults(self):
        with pytest.raises(ValueError, match="not a wire fault"):
            FaultyTransport("client", ("127.0.0.1", 1),
                            {1: FaultEvent("shard-0", 1, "kill")})

    def test_clean_passthrough_is_invisible(self):
        params = _params()
        batch = _batch(params)
        queries = list(range(32))
        expected = (params.make_aggregator().absorb_batch(batch)
                    .finalize().estimate_many(queries))

        async def main():
            with running_server(params) as (_, host, port):
                proxy = FaultyTransport("client", (host, port))
                phost, pport = await proxy.start()
                client = await AsyncAggregationClient.connect(
                    phost, pport, timeout=10.0)
                try:
                    assert await client.hello() == params
                    await client.send_batch(batch)
                    assert await client.sync() == len(batch)
                    served = await client.query(queries)
                finally:
                    await client.close()
                    await proxy.stop()
                # only the reports frame ticked the counter; control
                # frames (hello/sync/query) pass through uncounted
                assert proxy.frames == 1
                assert proxy.fired == []
                return served

        assert np.array_equal(asyncio.run(main()), expected)

    def test_reset_fires_once_then_counter_keeps_running(self):
        params = _params()
        batch = _batch(params)
        event = FaultEvent("client", 1, "reset")

        async def main():
            with running_server(params) as (_, host, port):
                proxy = FaultyTransport("client", (host, port), {1: event})
                phost, pport = await proxy.start()
                client = await AsyncAggregationClient.connect(
                    phost, pport, timeout=5.0)
                try:
                    with pytest.raises((OSError, TimeoutError, FrameError,
                                        asyncio.IncompleteReadError)):
                        await client.send_batch(batch)  # frame 1 → reset
                        await client.sync()
                finally:
                    await client.close()
                assert proxy.fired == [event]
                # pop-once: a fresh connection through the same proxy is
                # clean, and the frame counter spans connections
                retry = await AsyncAggregationClient.connect(
                    phost, pport, timeout=10.0)
                try:
                    await retry.send_batch(batch)
                    absorbed = await retry.sync()
                finally:
                    await retry.close()
                    await proxy.stop()
                assert absorbed == len(batch)
                assert proxy.frames == 2

        asyncio.run(main())

    def test_delay_fault_forwards_intact(self):
        params = _params()
        batch = _batch(params)
        event = FaultEvent("client", 1, "delay", 0.05)

        async def main():
            with running_server(params) as (_, host, port):
                proxy = FaultyTransport("client", (host, port), {1: event})
                phost, pport = await proxy.start()
                client = await AsyncAggregationClient.connect(
                    phost, pport, timeout=10.0)
                try:
                    await client.send_batch(batch)
                    absorbed = await client.sync()
                finally:
                    await client.close()
                    await proxy.stop()
                assert absorbed == len(batch)  # delayed, not lost
                assert proxy.fired == [event]

        asyncio.run(main())


# --------------------------------------------------------------------------------------
# the same proxy over the shared-memory ring (both legs shm, zero sockets)
# --------------------------------------------------------------------------------------

_SHM_SEQ = itertools.count()


@contextlib.asynccontextmanager
async def _shm_proxied_server(params, faults=None):
    """In-process server on a ring, fronted by a FaultyTransport on a ring.

    Yields ``(proxy, address)`` where ``address`` dials *through* the
    proxy — the exact client↔router leg of a chaos run, minus sockets.
    """
    n = next(_SHM_SEQ)
    upstream = f"chaos-up-{os.getpid()}-{n}"
    front = f"chaos-front-{os.getpid()}-{n}"
    server = AggregationServer(params)
    await server.start(transport="shm", shm_name=upstream)
    proxy = FaultyTransport("client", f"shm://{upstream}", faults)
    await proxy.start(listen=f"shm://{front}")
    try:
        yield proxy, f"shm://{front}"
    finally:
        await proxy.stop()
        await server.stop()


class TestFaultyTransportShm:
    """Wire faults must behave identically when the wire is a ring."""

    def test_clean_passthrough_is_bit_identical(self):
        params = _params()
        batch = _batch(params)
        queries = list(range(32))
        expected = (params.make_aggregator().absorb_batch(batch)
                    .finalize().estimate_many(queries))

        async def main():
            async with _shm_proxied_server(params) as (proxy, address):
                assert proxy.address == address
                with pytest.raises(RuntimeError, match="non-TCP"):
                    proxy.endpoint  # noqa: B018 - the raise is the point
                client = await AsyncAggregationClient.dial(address,
                                                           timeout=10.0)
                try:
                    assert await client.hello() == params
                    await client.send_batch(batch)
                    assert await client.sync() == len(batch)
                    served = await client.query(queries)
                finally:
                    await client.close()
                assert proxy.frames == 1
                assert proxy.fired == []
                return served

        assert np.array_equal(asyncio.run(main()), expected)

    def test_reset_on_ring_pops_once_and_retry_converges(self):
        params = _params()
        batch = _batch(params)
        queries = list(range(32))
        expected = (params.make_aggregator().absorb_batch(batch)
                    .finalize().estimate_many(queries))
        event = FaultEvent("client", 1, "reset")

        async def main():
            async with _shm_proxied_server(params, {1: event}) as (proxy,
                                                                   address):
                client = await AsyncAggregationClient.dial(address,
                                                           timeout=5.0)
                try:
                    with pytest.raises((OSError, TimeoutError, FrameError,
                                        asyncio.IncompleteReadError)):
                        await client.send_batch(batch)  # frame 1 → reset
                        await client.sync()
                finally:
                    await client.close()
                assert proxy.fired == [event]
                retry = await AsyncAggregationClient.dial(address,
                                                          timeout=10.0)
                try:
                    await retry.send_batch(batch)
                    assert await retry.sync() == len(batch)
                    served = await retry.query(queries)
                finally:
                    await retry.close()
                assert proxy.frames == 2  # counter spans ring connections
                return served

        assert np.array_equal(asyncio.run(main()), expected)

    def test_corrupt_on_ring_is_rejected_and_retry_converges(self):
        params = _params()
        batch = _batch(params)
        queries = list(range(32))
        expected = (params.make_aggregator().absorb_batch(batch)
                    .finalize().estimate_many(queries))
        event = FaultEvent("shard-0", 1, "corrupt")

        async def main():
            async with _shm_proxied_server(params, {1: event}) as (proxy,
                                                                   address):
                client = await AsyncAggregationClient.dial(address,
                                                           timeout=5.0)
                try:
                    # the flipped magic must be *detected*: the server
                    # answers with an error frame and drops the connection
                    with pytest.raises((OSError, TimeoutError, FrameError,
                                        ServerError,
                                        asyncio.IncompleteReadError)):
                        await client.send_batch(batch)
                        await client.sync()
                finally:
                    await client.close()
                assert proxy.fired == [event]
                retry = await AsyncAggregationClient.dial(address,
                                                          timeout=10.0)
                try:
                    await retry.send_batch(batch)
                    assert await retry.sync() == len(batch)
                    served = await retry.query(queries)
                    health = await retry.health()
                finally:
                    await retry.close()
                # exactly one copy of the batch landed: corrupt → reject
                assert health["num_reports"] == len(batch)
                return served

        assert np.array_equal(asyncio.run(main()), expected)

    def test_delay_on_ring_forwards_intact(self):
        params = _params()
        batch = _batch(params)
        event = FaultEvent("client", 1, "delay", 0.05)

        async def main():
            async with _shm_proxied_server(params, {1: event}) as (proxy,
                                                                   address):
                client = await AsyncAggregationClient.dial(address,
                                                           timeout=10.0)
                try:
                    await client.send_batch(batch)
                    absorbed = await client.sync()
                finally:
                    await client.close()
                assert absorbed == len(batch)  # delayed, not lost
                assert proxy.fired == [event]

        asyncio.run(main())


# --------------------------------------------------------------------------------------
# the full harness (marked: spawns a real faulted cluster, takes ~30s)
# --------------------------------------------------------------------------------------

@pytest.mark.chaos
@pytest.mark.slow
class TestChaosRunnerIntegration:
    @pytest.mark.parametrize("protocol", ["hashtogram", "expander_sketch"])
    def test_seeded_run_is_bit_identical_under_faults(self, tmp_path,
                                                      protocol):
        runner = ChaosRunner(protocol=protocol, num_users=4_000,
                             num_shards=2, seed=7, domain_size=1024,
                             base_dir=tmp_path, deadline=0.5)
        result = runner.run()
        assert result.identical
        assert np.array_equal(result.served, result.expected)
        # the exact state, which still differs when every estimate is 0
        assert result.state_identical
        # the acceptance bar: at least five distinct kinds actually fired
        assert len(result.fired_kinds) >= 5
        assert result.schedule.seed == 7
        assert result.health.get("status") == "ok"
        assert result.num_users == 4_000

    def test_spurious_timeout_costs_only_a_retry(self, tmp_path):
        # the router times out, reconnects and replays its journal; the
        # shard dedupes what it sees twice (§7.1)
        deadline = 0.3
        schedule = FaultSchedule([FaultEvent("shard-0", 1, "delay",
                                             4 * deadline)])
        runner = ChaosRunner(num_users=2_000, num_shards=2, seed=7,
                             domain_size=1024, base_dir=tmp_path,
                             schedule=schedule, deadline=deadline)
        result = runner.run()
        assert result.fired_kinds == ("delay",)
        assert result.identical and result.state_identical
        assert "Timeout" in str(result.health["shards"][0]["last_fault"])

    @pytest.mark.parametrize("transport", ["tcp", "shm"])
    def test_membership_run_is_bit_identical(self, tmp_path, transport):
        # grow 2→3, drain back to 2, under all three membership fault
        # kinds plus a kill of the freshly added shard — still bit-exact
        runner = ChaosRunner(num_users=2_000, num_shards=2, seed=7,
                             domain_size=1024, base_dir=tmp_path,
                             membership=True, transport=transport,
                             deadline=0.5)
        result = runner.run()
        assert result.identical and result.state_identical
        assert np.array_equal(result.served, result.expected)
        assert set(result.fired_kinds) == \
            {"kill", "drain-race", "torn-journal", "corrupt-snapshot"}
        detail = result.membership
        assert detail["transport"] == transport
        assert detail["add"]["type"] == "shard_added"
        assert detail["add"]["shard"] == 2
        assert detail["drain"]["type"] == "drained"
        assert detail["drain"]["shard"] == detail["drain_shard"]
        final = detail["final_map"]
        active = sorted(s["id"] for s in final["shards"]
                        if s["status"] == "active")
        assert active == sorted({0, 1, 2} - {detail["drain_shard"]})
        assert final["retired"] == [detail["drain_shard"]]
