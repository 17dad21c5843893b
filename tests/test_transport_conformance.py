"""Backend-agnostic conformance suite for :mod:`repro.transport`.

Every registered backend must honor the same frame-level contract —
byte-identical round trips, streaming frames larger than any internal
buffer, builtin :class:`TimeoutError` on a passed deadline, ``None`` (and
an empty-partial :class:`asyncio.IncompleteReadError`) on a clean peer
close, exact seq-stamped redelivery dedup through a real server, and full
cluster bit-identity against the offline engine.

Adding a backend to the matrix = registering one :class:`BackendCase`
row in ``CASES`` below; every test in this file then runs against it
unchanged.  The rows encode only what genuinely differs per backend: how
to mint a fresh bind address, which dial options shrink its internal
buffers (to force wrap-around), and how to start an
:class:`~repro.server.service.AggregationServer` on it.
"""

import asyncio
import contextlib
import itertools
import json
import os
import struct
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

import numpy as np
import pytest

from repro import transport
from repro.cluster import ClusterRouter, ClusterSupervisor
from repro.engine import encode_stream, run_simulation
from repro.protocol import HashtogramParams
from repro.server import AggregationClient, AggregationServer, FrameError
from repro.server.framing import (
    MAX_FRAME_BYTES,
    encode_reports_frame,
    frame_bytes,
    read_frame_payload,
)

_SEQ = itertools.count()


def _fresh(tag: str) -> str:
    """A collision-proof shm segment name for one test."""
    return f"conf-{tag}-{os.getpid()}-{next(_SEQ)}"


async def _start_tcp(server: AggregationServer) -> str:
    host, port = await server.start()
    return f"tcp://{host}:{port}"


async def _start_shm(server: AggregationServer) -> str:
    name = _fresh("serve")
    await server.start(transport="shm", shm_name=name)
    return f"shm://{name}"


@dataclass(frozen=True)
class BackendCase:
    """Everything the suite needs to know about one backend."""

    name: str
    #: mint a fresh serve address (``listener.address`` is the dial address)
    bind: Callable[[], str]
    #: start an AggregationServer on this backend; returns its dial address
    start_server: Callable[..., Any]
    #: dial options that shrink internal buffers far below one test frame
    small_buffers: Dict[str, Any] = field(default_factory=dict)


CASES = [
    BackendCase(name="tcp",
                bind=lambda: "tcp://127.0.0.1:0",
                start_server=_start_tcp),
    BackendCase(name="shm",
                bind=lambda: f"shm://{_fresh('bind')}",
                start_server=_start_shm,
                small_buffers={"ring_bytes": 1 << 16}),
]


@pytest.fixture(params=CASES, ids=lambda case: case.name)
def case(request):
    return request.param


def _params():
    return HashtogramParams.create(1 << 10, 1.0, num_buckets=16, rng=0)


def _batch(params, seed=3, n=400):
    gen = np.random.default_rng(seed)
    values = gen.integers(0, params.domain_size, size=n)
    return params.make_encoder().encode_batch(values, gen)


@contextlib.asynccontextmanager
async def _echo_listener(case, **dial_options):
    """An echo peer plus one dialed connection to it."""

    async def echo(reader, writer):
        try:
            while True:
                payload = await read_frame_payload(reader)
                if payload is None:
                    break
                writer.write(frame_bytes(payload))
                await writer.drain()
        except (OSError, FrameError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    listener = await transport.serve(echo, case.bind())
    conn = await transport.dial(listener.address, timeout=10.0,
                                **dial_options)
    try:
        yield conn
    finally:
        conn.close()
        await conn.wait_closed()
        listener.close()
        await listener.wait_closed()


@contextlib.asynccontextmanager
async def _serving(case, params, **server_kwargs):
    """A real AggregationServer on this backend; yields its dial address."""
    server = AggregationServer(params, **server_kwargs)
    address = await case.start_server(server)
    try:
        yield address
    finally:
        await server.stop()


# --------------------------------------------------------------------------------------
# frame contract: round trips, buffers, deadlines, EOF
# --------------------------------------------------------------------------------------

class TestFrameContract:
    def test_round_trip_is_byte_identical(self, case):
        gen = np.random.default_rng(0)
        payloads = [b"{}", b'{"type":"hello"}',
                    bytes([0xB1]) + gen.bytes(1),
                    bytes([0xB1]) + gen.bytes(257),
                    bytes([0xB1]) + gen.bytes(1 << 16)]

        async def main():
            async with _echo_listener(case) as conn:
                for payload in payloads:
                    await conn.send(payload, timeout=10.0)
                    echoed = await conn.recv(timeout=10.0)
                    assert echoed == payload
                    assert isinstance(echoed, bytes)

        asyncio.run(main())

    def test_frames_larger_than_internal_buffers_stream_through(self, case):
        """One frame far bigger than the backend's buffer must stream.

        With ``small_buffers`` the shm ring is 64 KiB, so a 1 MiB frame
        can never fit at once — it must flow incrementally while the
        peer drains, and come back byte-identical.
        """
        gen = np.random.default_rng(1)
        big = bytes([0xB1]) + gen.bytes(1 << 20)

        async def main():
            async with _echo_listener(case, **case.small_buffers) as conn:
                for _ in range(3):  # thrice: wraps the ring many times over
                    await conn.send(big, timeout=30.0)
                    assert await conn.recv(timeout=30.0) == big

        asyncio.run(main())

    def test_oversized_announced_frame_raises_frame_error(self, case):
        bogus_header = struct.pack("!I", MAX_FRAME_BYTES + 1)

        async def liar(reader, writer):
            writer.write(bogus_header)
            try:
                await writer.drain()
            except OSError:
                pass

        async def main():
            listener = await transport.serve(liar, case.bind())
            conn = await transport.dial(listener.address, timeout=10.0)
            try:
                with pytest.raises(FrameError, match="exceeds"):
                    await conn.recv(timeout=10.0)
            finally:
                conn.close()
                await conn.wait_closed()
                listener.close()
                await listener.wait_closed()

        asyncio.run(main())

    def test_recv_deadline_raises_builtin_timeout(self, case):
        async def mute(reader, writer):
            # never answer; hold the link open until the peer gives up
            try:
                await read_frame_payload(reader)
            except (OSError, asyncio.IncompleteReadError):
                pass
            finally:
                writer.close()

        async def main():
            listener = await transport.serve(mute, case.bind())
            conn = await transport.dial(listener.address, timeout=10.0)
            try:
                with pytest.raises(TimeoutError) as excinfo:
                    await conn.recv(timeout=0.2)
                # the builtin, on every Python version — not asyncio's alias
                assert type(excinfo.value) is TimeoutError
            finally:
                conn.close()
                await conn.wait_closed()
                listener.close()
                await listener.wait_closed()

        asyncio.run(main())

    def test_peer_close_is_clean_eof(self, case):
        async def slam(reader, writer):
            writer.close()

        async def main():
            listener = await transport.serve(slam, case.bind())
            conn = await transport.dial(listener.address, timeout=10.0)
            try:
                assert await conn.recv(timeout=10.0) is None
                # the duck-typed reader contract under the frame layer: a
                # between-frames close is IncompleteReadError(partial=b"")
                with pytest.raises(asyncio.IncompleteReadError) as excinfo:
                    await conn.reader.readexactly(4)
                assert excinfo.value.partial == b""
            finally:
                conn.close()
                await conn.wait_closed()
                listener.close()
                await listener.wait_closed()

        asyncio.run(main())

    def test_dialing_nothing_raises_connection_error(self, case):
        address = ("tcp://127.0.0.1:1" if case.name == "tcp"
                   else f"shm://{_fresh('ghost')}")

        async def main():
            with pytest.raises(OSError):
                await transport.dial(address, timeout=5.0)

        asyncio.run(main())


# --------------------------------------------------------------------------------------
# registry API (backend-independent)
# --------------------------------------------------------------------------------------

class TestRegistry:
    def test_both_builtin_backends_are_registered(self):
        assert set(transport.backend_names()) >= {"tcp", "shm"}

    def test_duplicate_registration_rejected(self):
        existing = transport.get_backend("tcp")
        with pytest.raises(ValueError, match="already registered"):
            transport.register_backend(existing)

    def test_address_parsing(self):
        assert transport.parse_address("tcp://h:1") == ("tcp", "h:1")
        assert transport.parse_address("shm://ring") == ("shm", "ring")
        for bad in ("h:1", "tcp://", "://x", "smoke-signal://x"):
            with pytest.raises(ValueError):
                transport.parse_address(bad)
        assert transport.format_address("shm", "ring") == "shm://ring"


# --------------------------------------------------------------------------------------
# through a real server: dedup, half-duplex interleave
# --------------------------------------------------------------------------------------

class TestServerContract:
    def test_seq_stamped_redelivery_dedups_exactly(self, case):
        """§7.1 redelivery: the same seq-stamped frame lands exactly once."""
        params = _params()
        batch = _batch(params)
        frame = encode_reports_frame(batch, seq=7)

        async def main():
            async with _serving(case, params) as address:
                conn = await transport.dial(address, timeout=10.0)
                try:
                    conn.writer.write(frame)
                    conn.writer.write(frame)  # verbatim journal redelivery
                    await conn.writer.drain()
                    await conn.send(b'{"type": "sync"}', timeout=10.0)
                    synced = json.loads(await conn.recv(timeout=10.0))
                    await conn.send(b'{"type": "health"}', timeout=10.0)
                    health = json.loads(await conn.recv(timeout=10.0))
                finally:
                    conn.close()
                    await conn.wait_closed()
                assert synced["num_reports"] == len(batch)
                assert health["num_reports"] == len(batch)
                assert health["max_seq"] == 7

        asyncio.run(main())

    def test_half_duplex_interleave_on_one_link(self, case):
        """Regression: queries must not corrupt in-flight ingest.

        One link carries fire-and-forget ``reports`` writes from one task
        while another task runs request/reply ``query``/``health`` on the
        very same connection — replies must stay well-formed and every
        report must land.
        """
        from repro.server import AsyncAggregationClient

        params = _params()
        batch = _batch(params, n=200)
        rounds = 12
        queries = list(range(16))
        expected_total = rounds * len(batch)

        async def main():
            async with _serving(case, params) as address:
                client = await AsyncAggregationClient.dial(address,
                                                           timeout=15.0)
                replies = []

                async def ingest():
                    for _ in range(rounds):
                        await client.send_batch(batch)
                        await asyncio.sleep(0)

                async def probe():
                    for _ in range(4):
                        replies.append(await client.query(queries))
                        health = await client.health()
                        assert health["status"] == "ok"

                try:
                    await asyncio.gather(ingest(), probe())
                    absorbed = await client.sync()
                    final = await client.query(queries)
                finally:
                    await client.close()
                assert absorbed == expected_total
                for served in replies:
                    assert served.shape == (len(queries),)
                return final

        final = asyncio.run(main())
        offline = _params().make_aggregator()
        for _ in range(rounds):
            offline.absorb_batch(batch)
        assert np.array_equal(
            final, offline.finalize().estimate_many(queries))


# --------------------------------------------------------------------------------------
# end-to-end: a sharded cluster on each transport vs the offline engine
# --------------------------------------------------------------------------------------

@contextlib.contextmanager
def _running_cluster(params, num_shards, base_dir, transport_name):
    supervisor = ClusterSupervisor(params, num_shards, base_dir,
                                   transport=transport_name)
    supervisor.start()
    router = ClusterRouter(params, supervisor=supervisor, rng=0,
                           transport=transport_name)
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
        yield host, port
        try:
            with AggregationClient(host, port) as client:
                client.shutdown()
        except OSError:
            pass
        thread.join(30)
    finally:
        supervisor.stop()


@pytest.mark.cluster
class TestClusterBitIdentity:
    def test_cluster_matches_offline_engine_on_every_backend(self, case,
                                                             tmp_path):
        params = _params()
        gen = np.random.default_rng(3)
        values = gen.integers(0, params.domain_size, size=600)
        plan_seed = 7
        offline = run_simulation(params, values,
                                 rng=np.random.default_rng(plan_seed),
                                 chunk_size=128).finalize()
        batches = list(encode_stream(params, values,
                                     rng=np.random.default_rng(plan_seed),
                                     chunk_size=128))
        routes, start = [], 0
        for batch in batches:
            routes.append(start)
            start += len(batch)
        queries = [int(x) for x in
                   np.random.default_rng(1).integers(
                       0, params.domain_size, size=32)]
        with _running_cluster(params, 2, tmp_path,
                              case.name) as (host, port):
            with AggregationClient(host, port) as client:
                assert client.hello() == params
                for batch, route in zip(batches, routes, strict=True):
                    client.send_batch(batch, route=route)
                assert client.sync() == len(values)
                served = client.query(queries)
        expected = offline.estimate_many(queries)
        assert np.array_equal(served, expected), case.name
