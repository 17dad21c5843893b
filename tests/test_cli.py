"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses(self):
        args = build_parser().parse_args(["run", "table1", "--quick"])
        assert args.experiment == "table1"
        assert args.quick


class TestListCommand:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out


class TestRunCommand:
    def test_unknown_experiment(self, capsys):
        assert main(["run", "does-not-exist"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_quick_composed_rr(self, capsys):
        assert main(["run", "composed-rr", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E7" in out
        assert "worst_case_loss" in out

    def test_quick_lower_bound_has_two_tables(self, capsys):
        assert main(["run", "lower-bound", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E9a" in out and "E9b" in out

    def test_quick_frequency_oracle(self, capsys):
        assert main(["run", "frequency-oracle", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "hashtogram" in out

    def test_every_experiment_is_registered_with_description(self):
        for experiment in EXPERIMENTS.values():
            assert experiment.description
            assert callable(experiment.tables) and callable(experiment.check)
            assert experiment.full is not experiment.quick
            assert type(experiment.full) is type(experiment.quick)


class TestQuickstartCommand:
    def test_quickstart_small(self, capsys):
        assert main(["quickstart", "--num-users", "15000", "--epsilon", "4.0"]) == 0
        out = capsys.readouterr().out
        assert "recovered heavy hitters" in out
        assert "communication per user" in out


class TestSimulateCommand:
    def _estimates_table(self, out: str) -> str:
        """The output rows up to (not including) the timing lines."""
        return out.split("\nreport size")[0]

    def test_sharded_simulate(self, capsys):
        assert main(["simulate", "--shards", "3", "--num-users", "5000"]) == 0
        out = capsys.readouterr().out
        assert "3 shard(s)" in out and "reports/s" in out

    def test_workers_bit_identical(self, capsys):
        base = ["simulate", "--num-users", "5000", "--domain-size", "4096"]
        assert main(base + ["--workers", "1"]) == 0
        out_serial = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        out_parallel = capsys.readouterr().out
        assert "engine worker(s)" in out_parallel
        assert (self._estimates_table(out_serial).replace("1 engine", "N engine")
                == self._estimates_table(out_parallel).replace("2 engine",
                                                               "N engine"))

    def test_rejects_bad_worker_count(self, capsys):
        assert main(["simulate", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_rejects_unknown_protocol_naming_the_registered_ones(self,
                                                                 capsys):
        assert main(["simulate", "--protocol", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown protocol 'nope'" in err
        assert "expander_sketch" in err and "single_hash" in err


class TestBenchCommand:
    def test_writes_bench_json(self, tmp_path, capsys):
        output = tmp_path / "BENCH_engine.json"
        assert main(["bench", "--num-users", "5000", "--workers", "1,2",
                     "--domain-size", "4096", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "engine scaling" in out and str(output) in out

        import json
        payload = json.loads(output.read_text())
        assert payload["benchmark"] == "engine_scaling"
        assert payload["host"]["cpu_count"] >= 1
        rows = payload["results"]
        assert [row["workers"] for row in rows] == [1, 2]
        for row in rows:
            assert row["protocol"] == "hashtogram"
            assert row["reports_per_s"] > 0
            assert row["identical_to_1_worker"] is True
        assert rows[0]["speedup_vs_1"] == 1.0

    def test_rejects_malformed_workers(self, capsys):
        assert main(["bench", "--workers", "two"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_rejects_unknown_protocol(self, capsys):
        assert main(["bench", "--protocols", "telepathy"]) == 2
        assert "telepathy" in capsys.readouterr().err

    def test_baseline_is_the_one_worker_run_regardless_of_order(self, tmp_path,
                                                                capsys):
        output = tmp_path / "bench.json"
        assert main(["bench", "--num-users", "4000", "--workers", "2,1",
                     "--domain-size", "1024", "--output", str(output)]) == 0
        capsys.readouterr()
        import json
        rows = json.loads(output.read_text())["results"]
        by_workers = {row["workers"]: row for row in rows}
        assert by_workers[1]["speedup_vs_1"] == 1.0
        assert by_workers[2]["identical_to_1_worker"] is True


class TestMembershipScript:
    """The ``--membership add:FRAC,drain:FRAC[:SHARD]`` mini-language."""

    def _parse(self, text):
        from repro.cli import _parse_membership_script
        return _parse_membership_script(text)

    def test_single_add(self):
        assert self._parse("add:0.5") == [(0.5, "add", 0)]

    def test_drain_defaults_to_shard_zero(self):
        assert self._parse("drain:0.25") == [(0.25, "drain", 0)]

    def test_drain_with_explicit_shard(self):
        assert self._parse("drain:0.75:3") == [(0.75, "drain", 3)]

    def test_list_is_sorted_by_fraction(self):
        script = self._parse("drain:0.66:1,add:0.33")
        assert script == [(0.33, "add", 0), (0.66, "drain", 1)]

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="add:FRAC"):
            self._parse("shrink:0.5")

    def test_rejects_missing_fraction(self):
        with pytest.raises(ValueError, match="add:FRAC"):
            self._parse("add")

    def test_rejects_non_numeric_fraction(self):
        with pytest.raises(ValueError, match="bad fraction"):
            self._parse("add:half")

    @pytest.mark.parametrize("fraction", ["0", "1", "1.5", "-0.2"])
    def test_rejects_out_of_range_fractions(self, fraction):
        with pytest.raises(ValueError, match="strictly between"):
            self._parse(f"add:{fraction}")

    def test_rejects_shard_id_on_add(self):
        with pytest.raises(ValueError, match="only drain"):
            self._parse("add:0.5:2")

    def test_parser_wires_the_flags(self):
        parser = build_parser()
        args = parser.parse_args(["load-test", "--cluster", "2",
                                  "--membership", "add:0.33,drain:0.66"])
        assert args.membership == "add:0.33,drain:0.66"
        args = parser.parse_args(["chaos-test", "--membership",
                                  "--transport", "shm"])
        assert args.membership is True
        assert args.transport == "shm"
        assert args.min_kinds is None
        args = parser.parse_args(["cluster-ctl", "drain-shard", "--server",
                                  "127.0.0.1:9000", "--shard", "1"])
        assert args.verb == "drain-shard"
        assert args.shard == 1

    def test_load_test_membership_requires_cluster(self, capsys):
        assert main(["load-test", "--membership", "add:0.5"]) == 2
        assert "--cluster" in capsys.readouterr().err

    def test_chaos_membership_requires_two_shards(self, capsys):
        assert main(["chaos-test", "--membership", "--cluster", "1"]) == 2
        assert "--cluster" in capsys.readouterr().err


class TestLoadTest:
    """``load-test`` end to end: the served estimates must equal the
    offline engine bit for bit."""

    def _bit_identical(self, capsys, *argv):
        assert main(["load-test", *argv]) == 0
        out = capsys.readouterr().out
        assert "BIT-IDENTICAL" in out
        return out

    def test_single_server(self, capsys):
        self._bit_identical(capsys, "--quick", "--users", "3000")

    @pytest.mark.cluster
    def test_cluster_of_expander_sketch(self, capsys):
        self._bit_identical(capsys, "--quick", "--users", "3000",
                            "--cluster", "2", "--protocol", "expander_sketch",
                            "--domain-size", "1024")

    @pytest.mark.cluster
    def test_membership_transitions_mid_stream(self, capsys):
        out = self._bit_identical(
            capsys, "--cluster", "2", "--users", "4000", "--epochs", "4",
            "--domain-size", "4096", "--membership", "add:0.33,drain:0.66")
        assert "membership transitions mid-stream" in out

    def test_lost_batch_fails_and_closes_every_client(self, monkeypatch,
                                                      capsys):
        import gc
        import sys
        import warnings

        from repro.server import AggregationClient

        send_batch = AggregationClient.send_batch

        def drop_first_chunk(self, batch, epoch=0, route=None):
            if route != 0:
                send_batch(self, batch, epoch=epoch, route=route)

        monkeypatch.setattr(AggregationClient, "send_batch", drop_first_chunk)
        # An unclosed socket warns from its finalizer, where the error the
        # filter makes of the warning reaches sys.unraisablehook.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert main(["load-test", "--quick", "--users", "3000"]) == 1
            gc.collect()
        assert "absorbed" in capsys.readouterr().err
        assert [str(u.exc_value) for u in unraisable] == []


class TestServeSigterm:
    """SIGTERM's loop handler is gone before ``loop.close()`` closes the
    loop's self-pipe, so a late SIGTERM cannot write to a closed fd."""

    @pytest.mark.parametrize("verb", ["serve", "serve-cluster"])
    def test_handler_removed_before_loop_closes(self, monkeypatch, tmp_path,
                                                verb):
        import signal
        from asyncio.unix_events import _UnixSelectorEventLoop

        from repro.cluster import ClusterRouter
        from repro.server import AggregationServer

        handlers_at_close = []
        close = _UnixSelectorEventLoop.close

        def recording_close(loop):
            handlers_at_close.append(set(loop._signal_handlers))
            close(loop)

        monkeypatch.setattr(_UnixSelectorEventLoop, "close", recording_close)
        endpoint = AggregationServer if verb == "serve" else ClusterRouter
        start = endpoint.start

        async def start_then_stop(self, *args, **kwargs):
            address = await start(self, *args, **kwargs)
            self.request_stop()
            return address

        monkeypatch.setattr(endpoint, "start", start_then_stop)
        argv = [verb, "--quiet", "--port", "0", "--domain-size", "1024",
                "--num-users", "1000"]
        if verb == "serve-cluster":
            argv += ["--shards", "1", "--base-dir", str(tmp_path)]
        previous = signal.getsignal(signal.SIGTERM)
        try:
            assert main(argv) == 0
            assert signal.getsignal(signal.SIGTERM) == (
                signal.SIG_IGN if verb == "serve" else previous)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert handlers_at_close
        assert signal.SIGTERM not in handlers_at_close[-1]


class TestDecodeFrameCommand:
    def test_prints_packed_columns_of_a_payload_and_a_journal(
            self, tmp_path, capsys):
        import numpy as np

        from repro.cluster.journal import FrameJournal, RecordLog
        from repro.protocol import HashtogramParams
        from repro.protocol.binary import encode_reports_payload

        params = HashtogramParams.create(1 << 10, 1.0, num_buckets=16, rng=0)
        batch = params.make_encoder().encode_batch(
            np.arange(100), np.random.default_rng(0))
        payload = encode_reports_payload(batch, epoch=3, seq=9)
        (tmp_path / "frame.bin").write_bytes(payload)
        journal = FrameJournal(tmp_path / "shard.journal", fsync=False)
        journal.append(payload, len(batch), 9)
        journal.close()
        for name in ("frame.bin", "shard.journal"):
            assert main(["decode-frame", str(tmp_path / name)]) == 0
            out = capsys.readouterr().out
            assert "epoch=3  route=None  seq=9  num_reports=100" in out
            row = batch.columns["row"]
            assert (f"row              p6     6 bits  shape (100,)  "
                    f"min {row.min()}  max {row.max()}") in out
            assert "bit              s1     1 bits" in out
        (tmp_path / "cut.bin").write_bytes(payload[:-1])
        assert main(["decode-frame", str(tmp_path / "cut.bin")]) == 1
        assert "past the frame" in capsys.readouterr().err
        # a crash leaves a torn tail: the intact records still print
        torn = tmp_path / "torn.journal"
        torn.write_bytes((tmp_path / "shard.journal").read_bytes()
                         + b"\x10\x00\x00")
        assert main(["decode-frame", str(torn)]) == 0
        out = capsys.readouterr().out
        assert "record 0 (seq 9, 100 reports)" in out
        assert "torn tail: 3 B past the last intact record" in out
        # an intact record too short for a journal entry is an error
        short = RecordLog(tmp_path / "short.journal", fsync=False)
        short.append(b"\x01\x02")
        short.close()
        assert main(["decode-frame", str(tmp_path / "short.journal")]) == 1
        assert "shorter than its fixed prefix" in capsys.readouterr().err
