"""Self-tests of the benchmark itself (not of the program under test).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

They check the declarations in ``BENCHMARK.json``, run every workload at
a tiny size in both modes, confirm that a doctored offline reference makes
the command fail, and pin down how quartiles and span self time are computed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import common  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("hh_offline", "hh_cluster_shm")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args: str, cwd: str = ROOT, timeout: float = 170.0):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


# ----- declarations ------------------------------------------------------------------

def test_benchmark_json_names_and_keys():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    names = [w["name"] for w in spec["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
            keys = {"name", "unit", "better"} | (
                {"bound"} if kind == "end_to_end" else set())
            assert set(metric) == keys, metric
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_every_span_metric_is_declared():
    declared = {m["name"] for m in _spec()["per_layer"]}
    assert set(spans.SPAN_METRICS) <= declared
    assert set(spans.COUNTER_METRICS) <= declared
    assert "trace.unattributed_s" in declared


# ----- the command -------------------------------------------------------------------

def _result(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_tiny(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if kind == "end_to_end":
            assert metric["value"] > 0, name
    # every end-to-end metric is printed by name and unit
    if kind == "end_to_end":
        for name, unit in declared.items():
            assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                             proc.stdout, re.M), name
    meta = json.loads(next(line[5:] for line in proc.stdout.splitlines()
                           if line.startswith("meta ")))
    assert meta["seed"] == 5 and meta["host"]["nproc"] >= 1
    assert meta["result_samples"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_doctored_reference_fails_the_run(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", "0", "--size", "tiny", "--doctor-reference")
    assert proc.returncode == 1
    result = _result(proc)
    assert result["correct"] is False and result["failed"] > 0
    assert "MISMATCH" in proc.stdout


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "hh_offline", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ----- measurement rules -------------------------------------------------------------

def test_lower_quartile_interpolates_and_takes_one_sample():
    assert common.lower_quartile([5.0, 1.0, 4.0, 2.0, 3.0]) == 2.0
    assert common.lower_quartile([1.0, 2.0]) == pytest.approx(1.25)
    assert common.lower_quartile([7.0]) == 7.0


def test_self_time_and_unattributed_time():
    dump = {"role": "bench", "counters": {}, "spans": [
        # id, name, start, end, parent
        (1, "bench.ingest", 0.0, 10.0, None),
        (2, "protocol.encode", 1.0, 5.0, 1),
        (3, "hashing.eval", 2.0, 3.0, 2),
        (4, "hashing.eval", 2.5, 4.0, 2),   # overlaps its sibling
        (5, "framing.read", 6.0, 9.0, 1),   # a wait span covers nothing
    ]}
    times = spans.layer_times([dump])
    assert times["protocol.encode"]["self_s"] == pytest.approx(2.0)
    assert times["hashing.eval"]["calls"] == 2
    assert times["hashing.eval"]["self_s"] == pytest.approx(2.5)
    assert times["bench.ingest"]["self_s"] == pytest.approx(3.0)
    assert spans.unattributed_s([dump]) == pytest.approx(6.0)
