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
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np
import pytest

from repro import transport
from repro.cluster import ClusterRouter, ClusterSupervisor
from repro.engine import routed_stream, run_simulation
from repro.protocol import HashtogramParams
from repro.server import (
    AggregationClient,
    AggregationServer,
    FrameError,
    WindowedAggregator,
)
from repro.server.framing import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_reports_frame,
    encode_state_frame,
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
    #: the per-direction buffer those options leave, bytes (``None``: the
    #: backend's buffers are the kernel's, not chosen at dial time)
    small_buffer_bytes: Any = None


CASES = [
    BackendCase(name="tcp",
                bind=lambda: "tcp://127.0.0.1:0",
                start_server=_start_tcp),
    BackendCase(name="shm",
                bind=lambda: f"shm://{_fresh('bind')}",
                start_server=_start_shm,
                small_buffers={"ring_bytes": 1 << 16},
                small_buffer_bytes=1 << 16),
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


#: an echo peer in its own process: serves the address in argv[1], prints
#: its dial address, and echoes every frame until its stdin closes
_ECHO_PEER = """
import asyncio, sys
from repro import transport
from repro.server.framing import frame_bytes, read_frame_payload

async def echo(reader, writer):
    try:
        while (payload := await read_frame_payload(reader)) is not None:
            writer.write(frame_bytes(payload))
            await writer.drain()
    except (OSError, asyncio.IncompleteReadError):
        pass
    finally:
        writer.close()

async def main():
    listener = await transport.serve(echo, sys.argv[1])
    print(listener.address, flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    listener.close()
    await listener.wait_closed()

asyncio.run(main())
"""


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

    def test_frames_over_twice_the_buffer_cross_processes_both_ways(self,
                                                                  case):
        """Frames larger than 2x the ring move between two processes.

        The echo peer runs in its own process, so producer and consumer
        of each ring really are two processes sharing the segment, and
        the test sends while it receives: both directions stream frames
        of 2-8x the ring capacity at once, as a shard flushing a state
        reply bigger than its ring does.
        """
        ring = case.small_buffer_bytes or 1 << 16
        gen = np.random.default_rng(2)
        frames = [bytes([0xB1]) + gen.bytes(size)
                  for size in (2 * ring + 1, 3 * ring + 5, 8 * ring)] * 3
        src = Path(transport.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        peer = subprocess.Popen([sys.executable, "-c", _ECHO_PEER,
                                 case.bind()], env=env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)

        async def main():
            conn = await transport.dial(address, timeout=10.0,
                                        **case.small_buffers)
            try:
                async def send_all():
                    for frame in frames:
                        await conn.send(frame, timeout=30.0)

                async def recv_all():
                    return [await conn.recv(timeout=30.0) for _ in frames]

                _, echoed = await asyncio.gather(send_all(), recv_all())
            finally:
                conn.close()
                await conn.wait_closed()
            return echoed

        try:
            address = peer.stdout.readline().decode().strip()
            assert address, "the echo peer did not start"
            assert asyncio.run(main()) == frames
        finally:
            peer.stdin.close()
            assert peer.wait(timeout=30) == 0
            peer.stdout.close()

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

    def test_state_frames_keep_their_reply_types(self, case):
        """``state``, ``handoff_state`` and ``absorb_state`` travel as
        kind-2 frames; every reply field keeps the JSON type it had in a
        JSON frame, and every state loads back bit for bit."""
        from repro.protocol.wire import load_child_state
        from repro.server import AsyncAggregationClient

        params = _params()
        batches = [_batch(params, seed=s) for s in (3, 4, 5)]
        expected = WindowedAggregator(params)
        for epoch, batch in enumerate(batches):
            expected.absorb_batch(batch, epoch)

        async def request(conn, frame: bytes):
            conn.writer.write(frame)
            await conn.writer.drain()
            return decode_frame(await conn.recv(timeout=10.0))

        async def main():
            async with _serving(case, params) as source, \
                    _serving(case, params) as target:
                client = await AsyncAggregationClient.dial(source,
                                                           timeout=10.0)
                try:
                    for epoch, batch in enumerate(batches):
                        await client.send_batch(batch, epoch)
                    pulled = await client.pull_state(min_epoch=0)
                finally:
                    await client.close()
                conn = await transport.dial(source, timeout=10.0)
                try:
                    handed = await request(conn, frame_bytes(
                        b'{"type": "handoff", "handoff": 4}'))
                finally:
                    conn.close()
                    await conn.wait_closed()
                conn = await transport.dial(target, timeout=10.0)
                try:
                    absorb = encode_state_frame({
                        "type": "absorb_state", "handoff": 4,
                        "state": handed["state"]})
                    first = await request(conn, absorb)
                    again = await request(conn, absorb)
                finally:
                    conn.close()
                    await conn.wait_closed()
                return pulled, handed, first, again

        pulled, handed, first, again = asyncio.run(main())
        assert pulled["type"] == "state" and pulled["epochs"] == [1, 2]
        assert [type(e) for e in pulled["epochs"]] == [int, int]
        assert type(pulled["num_reports"]) is int
        assert type(pulled["state"]["num_reports"]) is int
        counts = pulled["state"]["state"]["counts"]
        assert counts.dtype == np.int32  # the width the shard holds it at
        assert np.array_equal(counts, expected.merged(min_epoch=0).counts)
        rebuilt = load_child_state(params, pulled["state"])
        assert rebuilt.num_reports == pulled["num_reports"]

        assert handed["type"] == "handoff_state"
        assert type(handed["handoff"]) is int and handed["handoff"] == 4
        assert type(handed["num_reports"]) is int
        assert handed["protocol"] == params.protocol
        restored = WindowedAggregator.from_snapshot(handed["state"])
        assert restored.epochs == [0, 1, 2]
        for epoch in restored.epochs:
            assert np.array_equal(restored.merged(min_epoch=epoch - 1).counts,
                                  expected.merged(min_epoch=epoch - 1).counts)
        assert first == {"type": "absorbed", "handoff": 4,
                         "absorbed": handed["num_reports"], "deduped": False,
                         "num_reports": handed["num_reports"]}
        assert type(first["absorbed"]) is int
        assert type(first["deduped"]) is bool
        assert again["deduped"] is True and again["absorbed"] == 0

    def test_unexpected_kind2_request_gets_an_error_frame(self, case):
        """A kind-2 frame other than ``absorb_state`` is answered with an
        ``error`` frame, and the connection and server keep serving."""
        params = _params()
        message = {"type": "state", "epochs": [0],
                   "state": {"counts": np.arange(8)}}

        async def main():
            async with _serving(case, params) as address:
                conn = await transport.dial(address, timeout=10.0)
                try:
                    replies = []
                    for kind in ("state", "hello", "handoff_state"):
                        conn.writer.write(encode_state_frame(
                            dict(message, type=kind)))
                        await conn.writer.drain()
                        replies.append(json.loads(
                            await conn.recv(timeout=10.0)))
                    # a JSON-era absorb_state (base64 text state) is refused
                    await conn.send(json.dumps({
                        "type": "absorb_state", "handoff": 1,
                        "state": "c3RhdGU="}).encode(), timeout=10.0)
                    replies.append(json.loads(await conn.recv(timeout=10.0)))
                    await conn.send(b'{"type": "hello"}', timeout=10.0)
                    hello = json.loads(await conn.recv(timeout=10.0))
                finally:
                    conn.close()
                    await conn.wait_closed()
                return replies, hello

        replies, hello = asyncio.run(main())
        for reply in replies[:3]:
            assert reply["type"] == "error"
            assert "unexpected kind-2" in reply["error"]
        assert replies[3]["type"] == "error"
        assert "kind-2" in replies[3]["error"]
        assert hello["type"] == "params"

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
        batches, routes = routed_stream(params, values, plan_seed, 128)
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
