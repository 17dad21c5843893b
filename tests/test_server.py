"""Tests for the streaming aggregation service (:mod:`repro.server`).

Covers the frame layer (sync and async flavors share bytes), the live
server end to end against the offline engine (the served estimates must be
**bit-identical** to :func:`repro.engine.run_simulation` under the same
seed), windowed queries over epochs, error reporting, and — the durability
contract — a server that is ``SIGKILL``-ed after a snapshot and restored
into a fresh process finishing the collection bit-identically.
"""

import asyncio
import base64
import io
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine import encode_stream, run_simulation
from repro.protocol import ExplicitHistogramParams, HashtogramParams
from repro.protocol.wire import ReportBatch, json_safe
from repro.server import (
    AggregationClient,
    AggregationServer,
    AsyncAggregationClient,
    FrameError,
    ServerError,
    decode_frame,
    encode_frame,
    encode_reports_frame,
    read_frame_sync,
    write_frame_sync,
)

SRC_ROOT = str(Path(repro.__file__).resolve().parent.parent)


# --------------------------------------------------------------------------------------
# framing
# --------------------------------------------------------------------------------------

class TestFraming:
    def test_sync_round_trip(self):
        stream = io.BytesIO()
        write_frame_sync(stream, {"type": "hello", "n": 3})
        write_frame_sync(stream, {"type": "sync"})
        stream.seek(0)
        assert read_frame_sync(stream) == {"type": "hello", "n": 3}
        assert read_frame_sync(stream) == {"type": "sync"}
        assert read_frame_sync(stream) is None  # clean EOF

    def test_async_reads_sync_bytes(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"type": "stats"}))
            reader.feed_eof()
            from repro.server import read_frame
            first = await read_frame(reader)
            second = await read_frame(reader)
            return first, second
        first, second = asyncio.run(run())
        assert first == {"type": "stats"}
        assert second is None

    def test_rejects_non_object_payload(self):
        with pytest.raises(FrameError, match="JSON object"):
            decode_frame(b"[1, 2, 3]")

    def test_rejects_invalid_json(self):
        with pytest.raises(FrameError, match="invalid JSON"):
            decode_frame(b"{nope")

    def test_rejects_oversized_announcement(self):
        stream = io.BytesIO(struct.pack("!I", (1 << 30) + 1) + b"x")
        with pytest.raises(FrameError, match="limit"):
            read_frame_sync(stream)

    def test_rejects_truncated_frame(self):
        stream = io.BytesIO(struct.pack("!I", 10) + b"{}")
        with pytest.raises(FrameError, match="mid-frame"):
            read_frame_sync(stream)


# --------------------------------------------------------------------------------------
# in-process server harness
# --------------------------------------------------------------------------------------

@contextmanager
def running_server(params, **kwargs):
    """Run an :class:`AggregationServer` on its own event-loop thread."""
    server = AggregationServer(params, **kwargs)
    started = threading.Event()
    address = {}

    def run() -> None:
        async def main() -> None:
            address["hp"] = await server.start("127.0.0.1", 0)
            started.set()
            await server.serve_until_stopped()
        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    host, port = address["hp"]
    try:
        yield server, host, port
    finally:
        try:
            with AggregationClient(host, port) as client:
                client.shutdown()
        except OSError:
            pass  # already stopped by the test body
        thread.join(10)
        assert not thread.is_alive(), "server thread failed to stop"


def _small_params():
    return HashtogramParams.create(1 << 10, 1.0, num_buckets=16, rng=0)


def legacy_json_reports_frame(batch, epoch=0):
    """A ``reports`` frame in the retired JSON form (base64 columns)."""
    columns = {key: {"dtype": col.dtype.str,
                     "shape": [int(n) for n in col.shape],
                     "data": base64.b64encode(
                         np.ascontiguousarray(col).tobytes()).decode("ascii")}
               for key, col in batch.columns.items()}
    return encode_frame({"type": "reports", "epoch": epoch,
                         "batch": {"protocol": batch.protocol,
                                   "encoding": "b64",
                                   "num_reports": len(batch),
                                   "columns": columns}})


def _state_leaves(payload):
    """Every count of a ``child_state`` payload, in a fixed order, as arrays."""
    if isinstance(payload, dict):
        return [leaf for key in sorted(payload)
                for leaf in _state_leaves(payload[key])]
    if isinstance(payload, list) and payload and isinstance(payload[0], dict):
        return [leaf for item in payload for leaf in _state_leaves(item)]
    return [np.asarray(payload, dtype=np.int64)]


class TestServerEndToEnd:
    def test_served_estimates_bit_identical_to_engine(self):
        params = _small_params()
        values = np.random.default_rng(5).integers(0, 1 << 10, size=12_000)
        offline = run_simulation(params, values,
                                 rng=np.random.default_rng(7)).finalize()
        queries = list(range(128))
        with running_server(params) as (_, host, port):
            with AggregationClient(host, port) as client:
                assert client.hello() == params
                for batch in encode_stream(params, values,
                                           rng=np.random.default_rng(7)):
                    client.send_batch(batch)
                assert client.sync() == values.size
                served = client.query(queries)
        assert np.array_equal(served, offline.estimate_many(queries))

    def test_json_reports_frame_refused_connection_stays_usable(self):
        params = _small_params()
        batch = params.make_encoder().encode_batch(
            [1, 2, 3], np.random.default_rng(0))
        with running_server(params) as (_, host, port):
            with AggregationClient(host, port) as client:
                client.hello()
                client.send_raw(legacy_json_reports_frame(batch))
                assert client.sync() == 0  # dropped, and never answered
                stats = client.stats()
                assert stats["batches_received"] == 1
                assert stats["reports_absorbed"] == 0
                assert "JSON reports frames" in stats["last_rejection"]
                # binary frames on the same connection still land
                client.send_batch(batch)
                assert client.sync() == len(batch)
                served = client.query(list(range(8)))
        expected = params.make_aggregator().absorb_batch(batch).finalize()
        assert np.array_equal(served, expected.estimate_many(list(range(8))))

    def test_hello_advertises_binary_only(self):
        with running_server(_small_params()) as (_, host, port):
            with AggregationClient(host, port) as client:
                write_frame_sync(client._stream, {"type": "hello"})
                reply = read_frame_sync(client._stream)
        assert reply["wire_formats"] == ["binary"]

    def test_client_accepts_only_binary_wire_format(self):
        with pytest.raises(ValueError, match="wire_format"):
            AggregationClient("127.0.0.1", 1, wire_format="json")
        with pytest.raises(ValueError, match="wire_format"):
            encode_reports_frame(_small_params().make_encoder().encode_batch(
                [1], np.random.default_rng(0)), 0, "json")

    def test_windowed_queries_over_epochs(self):
        params = ExplicitHistogramParams(32, 1.0, "krr")
        encoder = params.make_encoder()
        per_epoch = {}
        with running_server(params, window=10) as (_, host, port):
            with AggregationClient(host, port) as client:
                for epoch in range(3):
                    values = np.random.default_rng(epoch).integers(
                        0, 32, size=1_000)
                    batch = encoder.encode_batch(
                        values, np.random.default_rng(100 + epoch))
                    per_epoch[epoch] = batch
                    client.send_batch(batch, epoch=epoch)
                client.sync()
                queries = list(range(32))
                stats = client.stats()
                assert stats["epochs"] == [0, 1, 2]
                all_epochs = client.query(queries)
                newest_only = client.query(queries, window=1)
        reference_all = params.make_aggregator()
        for batch in per_epoch.values():
            reference_all.absorb_batch(batch)
        reference_newest = params.make_aggregator().absorb_batch(per_epoch[2])
        assert np.array_equal(
            all_epochs, reference_all.finalize().estimate_many(queries))
        assert np.array_equal(
            newest_only, reference_newest.finalize().estimate_many(queries))

    def test_async_client(self):
        params = ExplicitHistogramParams(32, 1.0, "krr")
        values = np.random.default_rng(3).integers(0, 32, size=1_500)
        batches = list(encode_stream(params, values,
                                     rng=np.random.default_rng(4)))
        reference = params.make_aggregator()
        for batch in batches:
            reference.absorb_batch(batch)
        queries = list(range(32))

        async def drive(host, port):
            async with await AsyncAggregationClient.connect(host, port) as client:
                assert await client.hello() == params
                assert await client.send_stream(batches) == values.size
                assert await client.sync() == values.size
                stats = await client.stats()
                assert stats["reports_absorbed"] == values.size
                return await client.query(queries)

        with running_server(params) as (_, host, port):
            served = asyncio.run(drive(host, port))
        assert np.array_equal(served,
                              reference.finalize().estimate_many(queries))

    def test_concurrent_connections_interleave(self):
        params = _small_params()
        values = np.random.default_rng(11).integers(0, 1 << 10, size=8_000)
        offline = run_simulation(params, values, rng=np.random.default_rng(13),
                                 chunk_size=512).finalize()
        batches = list(encode_stream(params, values,
                                     rng=np.random.default_rng(13),
                                     chunk_size=512))
        queries = list(range(64))
        workers = 3
        with running_server(params) as (_, host, port):
            def send(worker):
                with AggregationClient(host, port) as client:
                    for i in range(worker, len(batches), workers):
                        client.send_batch(batches[i])
                    client.sync()
            threads = [threading.Thread(target=send, args=(w,))
                       for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with AggregationClient(host, port) as client:
                assert client.sync() == values.size
                served = client.query(queries)
        assert np.array_equal(served, offline.estimate_many(queries))

    def test_foreign_protocol_batch_is_rejected(self):
        # `reports` frames are fire-and-forget: a foreign batch must be
        # dropped and *accounted*, never answered — an error frame would
        # occupy the next request's reply slot and desynchronize the
        # connection forever.
        params = _small_params()
        foreign = ExplicitHistogramParams(16, 1.0, "krr")
        batch = foreign.make_encoder().encode_batch(
            [1, 2, 3], np.random.default_rng(0))
        with running_server(params) as (_, host, port):
            with AggregationClient(host, port) as client:
                client.send_batch(batch)
                assert client.sync() == 0
                stats = client.stats()
                assert stats["reports_rejected"] == len(batch)
                assert "cannot ingest" in stats["last_rejection"]
                # reply stream still aligned: distinct request kinds in a row
                assert list(client.query([1, 2])) == [0.0, 0.0]
                assert client.stats()["type"] == "stats"

    def test_stale_epoch_is_dropped_not_fatal(self):
        params = ExplicitHistogramParams(16, 1.0, "krr")
        batch = params.make_encoder().encode_batch(
            [1, 2, 3], np.random.default_rng(0))
        with running_server(params, window=2) as (_, host, port):
            with AggregationClient(host, port) as client:
                for epoch in (5, 6, 7):
                    client.send_batch(batch, epoch=epoch)
                client.sync()
                # Epoch 4 already rolled out of the window: the batch is
                # dropped and accounted for, and the server keeps serving.
                client.send_batch(batch, epoch=4)
                client.sync()
                stats = client.stats()
                assert stats["epochs"] == [6, 7]
                assert stats["reports_rejected"] == len(batch)
                assert "retention window" in stats["last_rejection"]
                assert stats["reports_absorbed"] == 3 * len(batch)

    def test_malformed_columns_are_dropped_not_fatal(self):
        # Correct protocol tag, but columns that don't fit the protocol:
        # the drain task must reject the batch and keep serving (a dead
        # drain would deadlock every later sync).
        params = _small_params()
        with running_server(params) as (_, host, port):
            with AggregationClient(host, port) as client:
                bogus = ReportBatch(params.protocol,
                                    {"bogus": np.array([1, 2])})
                client.send_raw(encode_reports_frame(bogus))
                assert client.sync() == 0
                stats = client.stats()
                assert stats["reports_rejected"] == 2
                assert stats["last_rejection"]
                # and a good batch afterwards still lands
                good = params.make_encoder().encode_batch(
                    [1, 2, 3], np.random.default_rng(0))
                client.send_batch(good)
                assert client.sync() == 3

    def test_shutdown_completes_with_idle_connection(self):
        # Python >= 3.12.1: Server.wait_closed() waits for every handler,
        # so shutdown must actively close idle connections or it hangs.
        params = _small_params()
        with running_server(params) as (_, host, port):
            idle = AggregationClient(host, port)
            try:
                with AggregationClient(host, port) as client:
                    assert client.shutdown() == 0
                # running_server's finally asserts the thread stopped within
                # its timeout, which is the actual regression check.
            finally:
                idle.close()

    def test_query_on_empty_server_returns_zeros(self):
        with running_server(_small_params()) as (_, host, port):
            with AggregationClient(host, port) as client:
                assert list(client.query([0, 1, 2])) == [0.0, 0.0, 0.0]

    def test_partial_batch_failure_rolls_back_atomically(self):
        # A hashtogram batch whose columns decode fine but whose inner
        # payload is corrupt for one repetition must not leave the other
        # repetitions' accumulators mutated (absorb is atomic server-side).
        params = _small_params()
        encoder = params.make_encoder()
        good = encoder.encode_batch(np.arange(100) % 50,
                                    np.random.default_rng(0))
        corrupt = encoder.encode_batch(np.arange(100) % 50,
                                       np.random.default_rng(1))
        # out-of-range Hadamard rows for the *last* repetition only: earlier
        # repetitions would absorb before the failure without rollback
        rows = np.array(corrupt.columns["row"], copy=True)
        last_rep = corrupt.columns["repetition"] == params.num_repetitions - 1
        rows[last_rep] = 1 << 40
        corrupt.columns["row"] = rows
        queries = list(range(50))
        with running_server(params) as (_, host, port):
            with AggregationClient(host, port) as client:
                client.send_batch(good)
                client.sync()
                before = client.query(queries)
                client.send_batch(corrupt)
                client.sync()
                after = client.query(queries)
                stats = client.stats()
        assert stats["reports_rejected"] == len(corrupt)
        assert stats["reports_absorbed"] == len(good)
        assert np.array_equal(before, after)

    def test_partial_batch_failure_rolls_back_nested_composite(self):
        # The expander sketch absorbs every stage-1 coordinate before its
        # final oracle, so out-of-range final-oracle rows fail the batch
        # only after every stage-1 accumulator has already absorbed it.
        from repro.core.heavy_hitters import PrivateExpanderSketch
        params = PrivateExpanderSketch(domain_size=1 << 8, epsilon=4.0
                                       ).public_params(
            2_000, rng=np.random.default_rng(3))
        encoder = params.make_encoder()
        good = encoder.encode_batch(np.arange(500) % 50,
                                    np.random.default_rng(0))
        corrupt = encoder.encode_batch(np.arange(300) % 50,
                                       np.random.default_rng(1),
                                       first_user_index=500)
        rows = np.array(corrupt.columns["fin_row"], copy=True)
        rows[-1] = 1 << 40
        corrupt.columns["fin_row"] = rows
        assert set(corrupt.columns["coordinate"].tolist()) == \
            set(range(params.params.num_coordinates))
        with running_server(params) as (_, host, port):
            with AggregationClient(host, port) as client:
                client.send_batch(good)
                client.sync()
                before = client.pull_state()
                client.send_batch(corrupt)
                client.sync()
                after = client.pull_state()
                stats = client.stats()
        assert stats["reports_rejected"] == len(corrupt)
        assert stats["reports_absorbed"] == len(good)
        assert after["num_reports"] == before["num_reports"] == len(good)
        old, new = _state_leaves(before["state"]), _state_leaves(after["state"])
        assert len(old) == len(new)
        assert old[-1].size == params.layout.size > \
            params.params.num_coordinates
        assert all(np.array_equal(a, b) for a, b in zip(old, new))

    def test_malformed_report_values_are_rejected_not_counted(self):
        # A well-framed batch whose sign column carries 1000 for one
        # report: absorb validates values, so the frame is rejected whole
        # instead of that report being counted a thousand times.
        params = ExplicitHistogramParams(64, 1.0)
        encoder = params.make_encoder()
        good = encoder.encode_batch(np.arange(100) % 64,
                                    np.random.default_rng(0))
        bad = encoder.encode_batch(np.arange(100) % 64,
                                   np.random.default_rng(1))
        bits = bad.columns["bit"].astype(np.int64)
        bits[-1] = 1000
        bad.columns["bit"] = bits
        queries = list(range(64))
        with running_server(params) as (_, host, port):
            with AggregationClient(host, port) as client:
                client.send_batch(good)
                client.sync()
                before = client.query(queries)
                client.send_batch(bad)
                client.sync()
                after = client.query(queries)
                stats = client.stats()
        assert stats["reports_rejected"] == len(bad)
        assert stats["reports_absorbed"] == len(good)
        assert "bit column" in stats["last_rejection"]
        assert np.array_equal(before, after)

    def test_sparse_epoch_query_window_is_value_based(self):
        params = ExplicitHistogramParams(16, 1.0, "krr")
        batch = params.make_encoder().encode_batch(
            [1, 2, 3], np.random.default_rng(0))
        with running_server(params) as (_, host, port):
            with AggregationClient(host, port) as client:
                client.send_batch(batch, epoch=0)
                client.send_batch(batch, epoch=50)
                client.sync()
                write_frame_sync(client._stream,
                                 {"type": "query", "items": [1], "window": 24})
                reply = read_frame_sync(client._stream)
        # epoch 0 is 50 epochs old: a last-24-epochs query must exclude it.
        assert reply["epochs"] == [50]
        assert reply["num_reports"] == len(batch)

    def test_snapshot_without_store_errors(self):
        with running_server(_small_params()) as (_, host, port):
            with AggregationClient(host, port) as client:
                with pytest.raises(ServerError, match="snapshot"):
                    client.snapshot()

    def test_unknown_frame_type_errors(self):
        with running_server(_small_params()) as (_, host, port):
            with AggregationClient(host, port) as client:
                write_frame_sync(client._stream, {"type": "subscribe"})
                reply = read_frame_sync(client._stream)
                assert reply["type"] == "error"
                assert "unknown frame type" in reply["error"]

    def test_in_process_snapshot_restore(self, tmp_path):
        params = _small_params()
        values = np.random.default_rng(17).integers(0, 1 << 10, size=6_000)
        batches = list(encode_stream(params, values,
                                     rng=np.random.default_rng(19)))
        queries = list(range(64))
        with running_server(params, snapshot_dir=tmp_path) as (_, host, port):
            with AggregationClient(host, port) as client:
                for batch in batches[:len(batches) // 2]:
                    client.send_batch(batch)
                client.sync()
                snapshot_path = client.snapshot()
        restored = AggregationServer.restore(snapshot_path)
        for batch in batches[len(batches) // 2:]:
            restored.windowed.absorb_batch(batch)
        straight = params.make_aggregator()
        for batch in batches:
            straight.absorb_batch(batch)
        assert np.array_equal(
            restored.windowed.finalize().estimate_many(queries),
            straight.finalize().estimate_many(queries))

    def test_checkpoints_are_binary_and_json_files_still_restore(self,
                                                                 tmp_path):
        from repro.server.snapshot import read_snapshot, write_snapshot
        params = _small_params()
        batch = params.make_encoder().encode_batch(
            np.arange(2_000) % 1000, np.random.default_rng(3))
        with running_server(params, snapshot_dir=tmp_path) as (_, host, port):
            with AggregationClient(host, port) as client:
                client.send_batch(batch)
                client.sync()
                binary_path = Path(client.snapshot())
        assert binary_path.suffix == ".bin"
        payload = read_snapshot(binary_path)
        json_path = write_snapshot(tmp_path / "legacy.json",
                                   json_safe(payload), "json")
        queries = list(range(64))
        answers = [AggregationServer.restore(path).windowed.finalize()
                   .estimate_many(queries) for path in (binary_path, json_path)]
        assert np.array_equal(answers[0], answers[1])
        assert np.array_equal(
            answers[0], params.make_aggregator().absorb_batch(batch)
            .finalize().estimate_many(queries))


# --------------------------------------------------------------------------------------
# kill -9 and restore, across real processes
# --------------------------------------------------------------------------------------

def _spawn_serve(extra_args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
         "--port", "0", "--quiet", *extra_args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=tmp_path)
    line = proc.stdout.readline()
    assert line.startswith("LISTENING "), f"unexpected first line {line!r}"
    _, host, port = line.split()
    return proc, host, int(port)


class TestKillAndRestore:
    def test_sigkill_then_restore_is_bit_identical(self, tmp_path):
        params = ExplicitHistogramParams(256, 1.0, "hadamard")
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(params.to_dict()))
        snapshot_dir = tmp_path / "ckpt"

        values = np.random.default_rng(23).integers(0, 256, size=10_000)
        batches = list(encode_stream(params, values,
                                     rng=np.random.default_rng(29)))
        half = len(batches) // 2
        queries = list(range(256))

        proc, host, port = _spawn_serve(
            ["--params-file", str(params_file),
             "--snapshot-dir", str(snapshot_dir)], tmp_path)
        try:
            with AggregationClient(host, port) as client:
                for batch in batches[:half]:
                    client.send_batch(batch)
                client.sync()
                snapshot_path = client.snapshot()
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
            proc.stdout.close()

        proc, host, port = _spawn_serve(
            ["--restore", snapshot_path,
             "--snapshot-dir", str(snapshot_dir)], tmp_path)
        try:
            with AggregationClient(host, port) as client:
                assert client.sync() == sum(len(b) for b in batches[:half])
                for batch in batches[half:]:
                    client.send_batch(batch)
                assert client.sync() == values.size
                served = client.query(queries)
                client.shutdown()
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()

        straight = params.make_aggregator()
        for batch in batches:
            straight.absorb_batch(batch)
        assert np.array_equal(served,
                              straight.finalize().estimate_many(queries))


# --------------------------------------------------------------------------------------
# async-safety regressions (defects found by `python -m repro.tools.lint`)
# --------------------------------------------------------------------------------------

class TestAsyncSafetyRegressions:
    """Pin the fixes for the RPL3 findings of the static-analysis suite."""

    def test_concurrent_start_raises_exactly_once(self):
        # RPL302: start() used to read self._server, await, then write it —
        # two concurrent start() calls both passed the guard and the first
        # bound server (and its drain task) leaked.
        server = AggregationServer(_small_params())

        async def main():
            results = await asyncio.gather(server.start("127.0.0.1", 0),
                                           server.start("127.0.0.1", 0),
                                           return_exceptions=True)
            errors = [r for r in results if isinstance(r, RuntimeError)]
            assert len(errors) == 1, results
            await server.stop()

        asyncio.run(main())

    def test_snapshot_write_does_not_block_event_loop(self, tmp_path):
        # RPL301: the snapshot handler used to call SnapshotStore.save on
        # the event loop; a slow disk froze every other connection.  The
        # save now runs in an executor, so a hello on a second connection
        # must complete while the write is still in flight.
        gate = threading.Event()
        entered = threading.Event()

        with running_server(_small_params(),
                            snapshot_dir=tmp_path) as (server, host, port):
            real_save = server.store.save

            def stalled_save(payload):
                entered.set()
                assert gate.wait(10), "test never released the save"
                return real_save(payload)

            server.store.save = stalled_save

            snap_path = {}

            def request_snapshot():
                with AggregationClient(host, port) as client:
                    snap_path["path"] = client.snapshot()

            hello_ok = threading.Event()

            def request_hello():
                with AggregationClient(host, port) as client:
                    client.hello()
                    hello_ok.set()

            snap_thread = threading.Thread(target=request_snapshot,
                                           daemon=True)
            snap_thread.start()
            assert entered.wait(10), "snapshot request never reached save()"
            try:
                threading.Thread(target=request_hello, daemon=True).start()
                served_while_saving = hello_ok.wait(5)
            finally:
                gate.set()
            snap_thread.join(10)
            assert served_while_saving, \
                "hello blocked while the snapshot write was in flight"
            assert Path(snap_path["path"]).is_file()


# --------------------------------------------------------------------------------------
# delivery sequencing, health, and client deadlines (the cluster-hardening tier)
# --------------------------------------------------------------------------------------

class TestSequencingAndHealth:
    """Spec §7.1: a not-larger ``seq`` is an exact redelivery — drop it."""

    def _stamped(self, params, seed, seq):
        values = np.random.default_rng(seed).integers(0, 1 << 10, size=1_200)
        batch = params.make_encoder().encode_batch(values,
                                                   np.random.default_rng(seed))
        return batch, encode_reports_frame(batch, seq=seq)

    def test_sequenced_redelivery_dropped_exactly(self):
        params = _small_params()
        batch1, frame1 = self._stamped(params, 3, 1)
        batch2, frame2 = self._stamped(params, 4, 2)
        queries = list(range(64))
        expected = (params.make_aggregator().absorb_batch(batch1)
                    .absorb_batch(batch2).finalize().estimate_many(queries))
        with running_server(params) as (_, host, port):
            with AggregationClient(host, port) as client:
                client.send_raw(frame1)
                assert client.sync() == len(batch1)
                client.send_raw(frame1)  # byte-identical redelivery (replay)
                assert client.sync() == len(batch1)
                client.send_raw(frame2)  # watermark advances: absorbed
                assert client.sync() == len(batch1) + len(batch2)
                assert client.stats()["reports_deduped"] == len(batch1)
                assert client.health()["max_seq"] == 2
                served = client.query(queries)
        assert np.array_equal(served, expected)

    def test_unsequenced_frames_never_deduped(self):
        # Plain clients don't stamp seq; identical frames must all absorb.
        params = _small_params()
        batch, _ = self._stamped(params, 5, 1)
        frame = encode_reports_frame(batch)  # no seq field
        with running_server(params) as (_, host, port):
            with AggregationClient(host, port) as client:
                client.send_raw(frame)
                client.send_raw(frame)
                assert client.sync() == 2 * len(batch)
                assert client.stats()["reports_deduped"] == 0

    def test_health_probe_reports_watermark(self):
        params = _small_params()
        batch, frame = self._stamped(params, 6, 7)
        with running_server(params) as (_, host, port):
            with AggregationClient(host, port) as client:
                reply = client.health()
                assert reply["status"] == "ok"
                assert reply["protocol"] == params.protocol
                assert reply["max_seq"] is None
                assert reply["num_reports"] == 0
                client.send_raw(frame)
                client.sync()
                reply = client.health()
                assert reply["max_seq"] == 7
                assert reply["num_reports"] == len(batch)


class TestClientDeadlines:
    """A wedged server must surface as ``TimeoutError``, never a silent hang."""

    @contextmanager
    def _black_hole(self):
        # A listener whose kernel backlog completes the TCP handshake but
        # whose owner never accepts, reads, or writes a byte — the stalled
        # server pathology the timeout hardening exists for.
        sock = socket.socket()
        try:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
            yield sock.getsockname()
        finally:
            sock.close()

    def test_sync_client_times_out_on_stalled_server(self):
        with self._black_hole() as (host, port):
            client = AggregationClient(host, port, timeout=0.5)
            try:
                with pytest.raises(TimeoutError):
                    client.hello()
            finally:
                client.close()

    def test_async_client_times_out_on_stalled_server(self):
        async def main():
            with self._black_hole() as (host, port):
                client = await AsyncAggregationClient.connect(host, port,
                                                              timeout=0.5)
                try:
                    with pytest.raises(TimeoutError):
                        await client.hello()
                finally:
                    await client.close()

        asyncio.run(main())
