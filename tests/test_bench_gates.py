"""The benchmark-regression gates must catch doctored BENCH payloads.

CI runs ``benchmarks/bench_server_ingest.py --check BENCH_server.json
--baseline BENCH_baseline.json --engine BENCH_engine.json``; these tests
pin down the gate logic itself — a payload matching baseline passes, a
payload whose binary ingest throughput collapsed (or whose frames grew past
the wire-bytes-per-report ceiling, or whose expander-sketch finalize,
checkpoint or client-encode rate collapsed) fails — and run the actual ``--check`` entry point
against a doctored file, exactly as the CI self-test step does.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_server_ingest import (  # noqa: E402 - path set up above
    check_checkpoint_regression,
    check_encode_regression,
    check_engine_regression,
    check_finalize_regression,
    check_throughput_regression,
    check_wire_shrink,
    main,
)

BASELINE = {
    "baseline": "bench-regression-baseline",
    "max_drop": 0.40,
    "server": {"hashtogram": {"binary": 20_000_000}},
    "wire_bytes_per_report": {"hashtogram": 4.1},
    "engine": {"hashtogram": 4_000_000},
    "finalize": {"expander_sketch": 50_000_000},
    "checkpoint": {"expander_sketch": 80_000_000},
    "encode": {"expander_sketch": 2_500_000},
}


def _server_payload(binary_rate=20_000_000, wire_bytes=4_002_368):
    return {"results": [
        {"protocol": "hashtogram", "wire_format": "binary",
         "num_users": 1_000_000, "reports_per_s": binary_rate,
         "wire_bytes": wire_bytes},
    ]}


def _engine_payload(rate=4_000_000, workers=1):
    return {"results": [{"protocol": "hashtogram", "workers": workers,
                         "reports_per_s": rate}]}


class TestThroughputGate:
    def test_matching_baseline_passes(self):
        assert check_throughput_regression(_server_payload(), BASELINE) == []

    def test_faster_host_passes(self):
        payload = _server_payload(binary_rate=60_000_000)
        assert check_throughput_regression(payload, BASELINE) == []

    def test_drop_within_margin_passes(self):
        payload = _server_payload(binary_rate=13_000_000)  # -35%
        assert check_throughput_regression(payload, BASELINE) == []

    def test_drop_beyond_margin_fails(self):
        payload = _server_payload(binary_rate=10_000_000)  # -50%
        failures = check_throughput_regression(payload, BASELINE)
        assert len(failures) == 1
        assert "hashtogram/binary" in failures[0]
        assert "regressed" in failures[0]

    def test_missing_measured_row_fails(self):
        payload = {"results": []}
        failures = check_throughput_regression(payload, BASELINE)
        assert any("no measured row" in f for f in failures)

    def test_baseline_max_drop_is_honored(self):
        tight = dict(BASELINE, max_drop=0.10)
        payload = _server_payload(binary_rate=17_000_000)  # -15%
        assert check_throughput_regression(payload, BASELINE) == []
        assert check_throughput_regression(payload, tight) != []


class TestEngineGate:
    def test_matching_baseline_passes(self):
        assert check_engine_regression(_engine_payload(), BASELINE) == []

    def test_collapsed_throughput_fails(self):
        failures = check_engine_regression(_engine_payload(rate=1_000_000),
                                           BASELINE)
        assert any("engine/hashtogram" in f for f in failures)

    def test_only_one_worker_rows_count(self):
        payload = {"results": [
            {"protocol": "hashtogram", "workers": 4,
             "reports_per_s": 16_000_000},
        ]}
        failures = check_engine_regression(payload, BASELINE)
        assert any("no measured 1-worker row" in f for f in failures)


def _finalize_payload(rate=50_000_000):
    return dict(_server_payload(), finalize={
        "expander_sketch": {"protocol": "expander_sketch",
                            "cells_per_s": rate}})


class TestFinalizeGate:
    def test_matching_baseline_passes(self):
        assert check_finalize_regression(_finalize_payload(), BASELINE) == []

    def test_collapsed_throughput_fails(self):
        # the float transform the integer decode replaced ran 6.5-10.7M
        failures = check_finalize_regression(
            _finalize_payload(rate=5_600_000), BASELINE)
        assert len(failures) == 1
        assert "finalize/expander_sketch" in failures[0]
        assert "regressed" in failures[0]

    def test_committed_floor_separates_serial_from_parallel_decode(self):
        # On the recording host the serial int64 decode peaked at 27.0M
        # cells/s and the parallel int32 decode never measured under 51.7M:
        # the committed floor must fail the first and pass the second.
        committed = json.loads((Path(__file__).resolve().parent.parent
                                / "BENCH_baseline.json").read_text())
        failures = check_finalize_regression(
            _finalize_payload(rate=27_000_000), committed)
        assert len(failures) == 1
        assert "finalize/expander_sketch" in failures[0]
        assert check_finalize_regression(
            _finalize_payload(rate=51_700_000), committed) == []

    def test_missing_protocol_row_fails(self):
        payload = dict(_server_payload(), finalize={"other": {
            "protocol": "other", "cells_per_s": 1}})
        failures = check_finalize_regression(payload, BASELINE)
        assert any("no measured row" in f for f in failures)

    def test_payload_without_finalize_section_is_not_gated(self):
        assert check_finalize_regression(_server_payload(), BASELINE) == []


def _checkpoint_payload(rate=80_000_000):
    return dict(_server_payload(), checkpoint={
        "expander_sketch": {"protocol": "expander_sketch",
                            "cells_per_s": rate}})


class TestCheckpointGate:
    def test_matching_baseline_passes(self):
        assert check_checkpoint_regression(_checkpoint_payload(),
                                           BASELINE) == []

    def test_list_form_state_fails(self):
        # the list-form capture this floor guards against ran ~10x slower
        failures = check_checkpoint_regression(
            _checkpoint_payload(rate=13_000_000), BASELINE)
        assert len(failures) == 1
        assert "checkpoint/expander_sketch" in failures[0]
        assert "regressed" in failures[0]

    def test_missing_protocol_row_fails(self):
        payload = dict(_server_payload(), checkpoint={"other": {
            "protocol": "other", "cells_per_s": 1}})
        failures = check_checkpoint_regression(payload, BASELINE)
        assert any("no measured row" in f for f in failures)

    def test_payload_without_checkpoint_section_is_not_gated(self):
        assert check_checkpoint_regression(_server_payload(), BASELINE) == []

    def test_finalize_and_checkpoint_gates_are_independent(self):
        payload = dict(_finalize_payload(rate=1),
                       checkpoint=_checkpoint_payload()["checkpoint"])
        assert check_checkpoint_regression(payload, BASELINE) == []
        assert check_finalize_regression(payload, BASELINE) != []


def _encode_payload(rate=2_500_000):
    return dict(_server_payload(), encode={
        "expander_sketch": {"protocol": "expander_sketch",
                            "reports_per_s": rate}})


class TestEncodeGate:
    def test_matching_baseline_passes(self):
        assert check_encode_regression(_encode_payload(), BASELINE) == []

    def test_mask_loop_rate_fails(self):
        # the per-coordinate mask loops this floor guards against encoded
        # 0.76-1.1M reports/s
        failures = check_encode_regression(_encode_payload(rate=1_100_000),
                                           BASELINE)
        assert len(failures) == 1
        assert "encode/expander_sketch" in failures[0]
        assert "reports/s" in failures[0]

    def test_missing_protocol_row_fails(self):
        payload = dict(_server_payload(), encode={"other": {
            "protocol": "other", "reports_per_s": 1}})
        failures = check_encode_regression(payload, BASELINE)
        assert any("no measured row" in f for f in failures)

    def test_payload_without_encode_section_is_not_gated(self):
        assert check_encode_regression(_server_payload(), BASELINE) == []


class TestWireShrinkGate:
    def test_healthy_shrink_passes(self):
        assert check_wire_shrink(_server_payload(), BASELINE) == []

    def test_regressed_shrink_fails(self):
        payload = _server_payload(wire_bytes=10_000_000)  # 10 B per report
        failures = check_wire_shrink(payload, BASELINE)
        assert len(failures) == 1
        assert "10.0000 B per report" in failures[0]

    def test_ceiling_has_no_max_drop_headroom(self):
        payload = _server_payload(wire_bytes=4_100_001)  # just over 4.1 B
        assert check_wire_shrink(payload, BASELINE) != []

    def test_missing_wire_bytes_row_fails(self):
        failures = check_wire_shrink({"results": []}, BASELINE)
        assert any("no measured wire_bytes row" in f for f in failures)


class TestCheckEntryPoint:
    """The CI invocation end to end, including the doctored-file self-test."""

    @pytest.fixture()
    def committed_baseline(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"
        assert path.exists(), "BENCH_baseline.json must be committed"
        return path

    def test_committed_baseline_shape(self, committed_baseline):
        baseline = json.loads(committed_baseline.read_text())
        assert baseline["baseline"] == "bench-regression-baseline"
        assert 0.0 < float(baseline["max_drop"]) < 1.0
        assert "hashtogram" in baseline["server"]
        assert set(baseline["server"]["hashtogram"]) == {"binary"}
        assert float(baseline["wire_bytes_per_report"]["hashtogram"]) == 4.1
        assert "hashtogram" in baseline["engine"]
        assert float(baseline["finalize"]["expander_sketch"]) > 0
        assert float(baseline["checkpoint"]["expander_sketch"]) > 0
        assert float(baseline["encode"]["expander_sketch"]) > 0

    def test_doctored_payload_fails_check(self, tmp_path, committed_baseline,
                                          capsys):
        baseline = json.loads(committed_baseline.read_text())
        reference = float(baseline["server"]["hashtogram"]["binary"])
        doctored = _server_payload(binary_rate=int(reference * 0.1))
        path = tmp_path / "BENCH_doctored.json"
        path.write_text(json.dumps(doctored))
        code = main(["--check", str(path),
                     "--baseline", str(committed_baseline)])
        assert code == 1
        assert "regressed" in capsys.readouterr().err

    def test_healthy_payload_passes_check(self, tmp_path, committed_baseline):
        baseline = json.loads(committed_baseline.read_text())
        healthy = _server_payload(
            binary_rate=int(float(baseline["server"]["hashtogram"]["binary"])))
        path = tmp_path / "BENCH_healthy.json"
        path.write_text(json.dumps(healthy))
        assert main(["--check", str(path),
                     "--baseline", str(committed_baseline)]) == 0

    def test_doctored_finalize_fails_check(self, tmp_path, committed_baseline,
                                           capsys):
        baseline = json.loads(committed_baseline.read_text())
        healthy = _server_payload(
            binary_rate=int(float(baseline["server"]["hashtogram"]["binary"])))
        reference = float(baseline["finalize"]["expander_sketch"])
        healthy["finalize"] = {"expander_sketch": {
            "protocol": "expander_sketch", "cells_per_s": int(reference)}}
        path = tmp_path / "BENCH_finalize.json"
        path.write_text(json.dumps(healthy))
        assert main(["--check", str(path),
                     "--baseline", str(committed_baseline)]) == 0
        healthy["finalize"]["expander_sketch"]["cells_per_s"] = int(
            reference * 0.05)
        path.write_text(json.dumps(healthy))
        assert main(["--check", str(path),
                     "--baseline", str(committed_baseline)]) == 1
        assert "finalize/expander_sketch" in capsys.readouterr().err

    def test_doctored_checkpoint_fails_check(self, tmp_path,
                                             committed_baseline, capsys):
        baseline = json.loads(committed_baseline.read_text())
        healthy = _server_payload(
            binary_rate=int(float(baseline["server"]["hashtogram"]["binary"])))
        reference = float(baseline["checkpoint"]["expander_sketch"])
        healthy["checkpoint"] = {"expander_sketch": {
            "protocol": "expander_sketch", "cells_per_s": int(reference)}}
        path = tmp_path / "BENCH_checkpoint.json"
        path.write_text(json.dumps(healthy))
        assert main(["--check", str(path),
                     "--baseline", str(committed_baseline)]) == 0
        healthy["checkpoint"]["expander_sketch"]["cells_per_s"] = int(
            reference * 0.05)
        path.write_text(json.dumps(healthy))
        assert main(["--check", str(path),
                     "--baseline", str(committed_baseline)]) == 1
        assert "checkpoint/expander_sketch" in capsys.readouterr().err

    def test_doctored_encode_fails_check(self, tmp_path, committed_baseline,
                                         capsys):
        baseline = json.loads(committed_baseline.read_text())
        healthy = _server_payload(
            binary_rate=int(float(baseline["server"]["hashtogram"]["binary"])))
        reference = float(baseline["encode"]["expander_sketch"])
        healthy["encode"] = {"expander_sketch": {
            "protocol": "expander_sketch", "reports_per_s": int(reference)}}
        path = tmp_path / "BENCH_encode.json"
        path.write_text(json.dumps(healthy))
        assert main(["--check", str(path),
                     "--baseline", str(committed_baseline)]) == 0
        healthy["encode"]["expander_sketch"]["reports_per_s"] = int(
            reference * 0.05)
        path.write_text(json.dumps(healthy))
        assert main(["--check", str(path),
                     "--baseline", str(committed_baseline)]) == 1
        assert "encode/expander_sketch" in capsys.readouterr().err

    def test_engine_requires_baseline(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(_server_payload()))
        assert main(["--check", str(path), "--engine", str(path)]) == 2

    def test_check_requires_baseline(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(_server_payload()))
        assert main(["--check", str(path)]) == 2

    def test_doctored_wire_bytes_fail_check(self, tmp_path,
                                            committed_baseline, capsys):
        path = tmp_path / "BENCH_wire.json"
        path.write_text(json.dumps(_server_payload(wire_bytes=22_670_000)))
        assert main(["--check", str(path),
                     "--baseline", str(committed_baseline)]) == 1
        assert "B per report" in capsys.readouterr().err
