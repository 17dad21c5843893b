"""Execute matrix cells: offline engine reference, live serving, bit-identity.

Every cell computes the offline :func:`repro.engine.run_simulation`
reference from its derived seed.  Engine cells (``shards == 0``) verify the
multi-worker run against a serial 1-worker run; serving cells spawn a real
``serve`` / ``serve-cluster`` subprocess tree (the same
:func:`repro.cluster.supervisor.spawn_server_process` path the CLI and the
chaos harness use), stream the canonical chunk stream at it over the cell's
wire format, and verify the served estimates equal the offline reference
**bit for bit**.  Either way the cell's committed fields are a pure
function of the cell seed; wall-clock throughput is kept in a separate
``timing`` payload that never reaches committed output.

Results are cached per cell digest (JSON files under the cache directory),
so an interrupted ``matrix run`` resumes where it stopped and a re-render
needs no re-execution.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.matrix.config import (
    SCHEMA_VERSION,
    Cell,
    MatrixConfig,
    expand_cells,
)

#: committed (deterministic) result fields, in rendering order
DETERMINISTIC_FIELDS = ("check", "bit_identical", "top5_max_err",
                        "probe_mean_err", "report_bits", "state_scalars")


@dataclass(frozen=True)
class CellResult:
    """One executed (or cache-restored) cell."""

    cell: Cell
    #: committed fields — a pure function of the cell seed
    deterministic: Dict[str, object]
    #: host-dependent fields — never rendered into committed output
    timing: Dict[str, object]
    #: True when the result came from the cache, not a fresh execution
    cached: bool

    @property
    def bit_identical(self) -> bool:
        return bool(self.deterministic["bit_identical"])


def _workload(cell: Cell, gen) -> np.ndarray:
    from repro.workloads.distributions import (
        planted_workload,
        uniform_workload,
        zipf_workload,
    )

    if cell.distribution == "zipf":
        return zipf_workload(cell.users, cell.domain_size,
                             support=min(2_000, cell.domain_size), rng=gen)
    if cell.distribution == "uniform":
        return uniform_workload(cell.users, cell.domain_size, rng=gen)
    # planted: three fixed-fraction heavy hitters over a uniform background
    return planted_workload(cell.users, cell.domain_size,
                            heavy_fractions=[0.3, 0.2, 0.1], rng=gen).values


def _spawn(params, cell: Cell):
    """Start the cell's live serving tree; returns ``(proc, host, port)``."""
    from repro.cluster.supervisor import spawn_server_process

    extra: Tuple[str, ...] = ()
    if cell.shards >= 2:
        verb = "serve-cluster"
        extra = ("--shards", str(cell.shards), "--transport", cell.transport)
    else:
        verb = "serve"
        if cell.transport != "tcp":
            extra = ("--transport", cell.transport)
    with tempfile.NamedTemporaryFile("w", suffix="-params.json",
                                     delete=False) as handle:
        json.dump(params.to_dict(), handle)
        params_file = handle.name
    try:
        return spawn_server_process(verb, params_file, extra)
    finally:
        # The LISTENING line is printed only after the child loaded the
        # parameters, so the file is removable on every path.
        os.unlink(params_file)


def _drive_live(params, cell: Cell, batches, routes,
                queries: List[int]) -> Tuple[np.ndarray, int, float]:
    """Stream the chunk stream at a live server; return served estimates."""
    import subprocess

    from repro.server import AggregationClient

    proc, host, port = _spawn(params, cell)
    stopped = False
    try:
        with AggregationClient(host, port) as client:
            published = client.hello()
            if published != params:
                raise RuntimeError(
                    f"cell {cell.label()}: the spawned server published "
                    f"different parameters than this cell's")
            start = time.perf_counter()
            for batch, route in zip(batches, routes, strict=True):
                client.send_batch(batch, epoch=0, route=route)
            absorbed = client.sync()
            ingest_s = time.perf_counter() - start
            served = client.query(queries)
            client.shutdown()
            stopped = True
        return np.asarray(served), int(absorbed), ingest_s
    finally:
        try:
            if not stopped:
                proc.terminate()
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover - wedged child
            proc.kill()
            proc.wait(timeout=15)
        proc.stdout.close()


def run_cell(cell: Cell, num_queries: int = 32) -> Dict[str, Any]:
    """Execute one cell; returns the JSON-safe cached payload."""
    from repro.analysis.metrics import true_frequencies
    from repro.engine import encode_stream, make_plan, run_simulation
    from repro.protocol.wire import protocol_class
    from repro.utils.rng import as_generator

    gen = as_generator(cell.seed)
    values = _workload(cell, gen)
    params = protocol_class(cell.protocol).for_workload(
        cell.users, cell.domain_size, cell.epsilon, rng=gen)
    plan_seed = int(gen.integers(0, 2**63 - 1))

    offline = run_simulation(params, values,
                             rng=np.random.default_rng(plan_seed),
                             workers=cell.workers)
    oracle = offline.finalize()

    truth = true_frequencies(values)
    # Deterministic top-5: break count ties on the item id.
    top5 = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    probes = np.random.default_rng(cell.seed).integers(
        0, cell.domain_size, size=num_queries)
    queries = [int(x) for x, _ in top5] + [int(x) for x in probes]
    expected = np.asarray(oracle.estimate_many(queries))

    timing: Dict[str, object] = {
        "offline_reports_per_s": int(offline.reports_per_s),
    }
    if cell.shards == 0:
        check = "engine==serial"
        if cell.workers == 1:
            identical = True
        else:
            serial = run_simulation(params, values,
                                    rng=np.random.default_rng(plan_seed),
                                    workers=1).finalize()
            identical = bool(np.array_equal(
                expected, np.asarray(serial.estimate_many(queries))))
    else:
        check = "served==offline"
        batches = list(encode_stream(params, values,
                                     rng=np.random.default_rng(plan_seed)))
        routes = [chunk.route_key for chunk in
                  make_plan(params, cell.users,
                            rng=np.random.default_rng(plan_seed))]
        served, absorbed, ingest_s = _drive_live(params, cell, batches,
                                                 routes, queries)
        identical = (absorbed == cell.users
                     and bool(np.array_equal(served, expected)))
        timing["serve_ingest_s"] = round(ingest_s, 4)
        timing["serve_reports_per_s"] = int(cell.users / max(ingest_s, 1e-9))

    top5_errors = [abs(float(e) - count)
                   for (_, count), e in zip(top5, expected[:len(top5)],
                                            strict=True)]
    probe_errors = [abs(float(e) - truth.get(int(q), 0))
                    for q, e in zip(probes, expected[len(top5):], strict=True)]
    deterministic: Dict[str, object] = {
        "check": check,
        "bit_identical": identical,
        "top5_max_err": round(max(top5_errors), 3) if top5_errors else 0.0,
        "probe_mean_err": round(float(np.mean(probe_errors)), 3)
        if probe_errors else 0.0,
        "report_bits": round(float(params.report_bits), 1),
        "state_scalars": int(oracle.server_state_size),
    }
    return {
        "schema": SCHEMA_VERSION,
        "digest": cell.digest(),
        "axes": cell.axes(),
        "seed": cell.seed,
        "index": cell.index,
        "deterministic": deterministic,
        "timing": timing,
    }


def _cache_path(cache_dir: Path, cell: Cell) -> Path:
    return cache_dir / f"cell-{cell.digest()}.json"


def _load_cached(cache_dir: Path, cell: Cell) -> Optional[Dict[str, Any]]:
    path = _cache_path(cache_dir, cell)
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (payload.get("schema") != SCHEMA_VERSION
            or payload.get("digest") != cell.digest()):
        return None
    return payload


def run_matrix(config: MatrixConfig, quick: bool = False,
               cache_dir: Optional[Path] = None, force: bool = False,
               progress: Optional[Callable[[str], None]] = None,
               ) -> List[CellResult]:
    """Execute (or cache-restore) every cell of a serving config, in order.

    ``cache_dir`` defaults to ``.matrix_cache/<config name>`` under the
    current directory.  ``force`` ignores and overwrites cached results;
    otherwise a cell whose digest is cached is restored without executing,
    which is what makes an interrupted run resumable.
    """
    cells = expand_cells(config, quick=quick)
    cache_dir = Path(cache_dir) if cache_dir is not None \
        else Path(".matrix_cache") / config.name
    cache_dir.mkdir(parents=True, exist_ok=True)
    results: List[CellResult] = []
    for cell in cells:
        payload = None if force else _load_cached(cache_dir, cell)
        cached = payload is not None
        if payload is None:
            if progress is not None:
                progress(f"[{cell.index + 1}/{len(cells)}] {cell.label()}")
            payload = run_cell(cell, num_queries=config.queries)
            _cache_path(cache_dir, cell).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n")
        elif progress is not None:
            progress(f"[{cell.index + 1}/{len(cells)}] {cell.label()} "
                     f"(cached)")
        results.append(CellResult(cell=cell,
                                  deterministic=dict(payload["deterministic"]),
                                  timing=dict(payload["timing"]),
                                  cached=cached))
    return results
