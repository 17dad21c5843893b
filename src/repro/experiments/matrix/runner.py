"""Execute matrix cells: offline engine reference, live serving, bit-identity.

Every cell computes the offline :func:`repro.engine.run_simulation`
reference from its derived seed.  Engine cells (``shards == 0``) verify the
multi-worker run against a serial 1-worker run; serving cells spawn a real
``serve`` / ``serve-cluster`` subprocess tree
(:func:`repro.cluster.supervisor.spawned_server`, as ``load-test`` does),
stream the routed chunk stream at it, and verify the served estimates equal
the offline reference **bit for bit**.  The inputs and the queries come
from the same helpers ``load-test`` and ``chaos-test`` use:
:func:`repro.engine.seeded_inputs` and
:func:`repro.analysis.metrics.probe_queries`.  Either way the cell's
committed fields are a pure function of the cell seed; wall-clock
throughput is kept in a separate ``timing`` payload that never reaches
committed output.

Results are cached per cell digest (JSON files under the cache directory),
so an interrupted ``matrix run`` resumes where it stopped and a re-render
needs no re-execution.
"""

from __future__ import annotations

import json
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


def _drive_live(params, cell: Cell, batches, routes,
                queries: List[int]) -> Tuple[np.ndarray, int, float]:
    """Stream the chunk stream at a live server; return served estimates."""
    from repro.cluster.supervisor import spawned_server
    from repro.server import AggregationClient

    if cell.shards >= 2:
        verb = "serve-cluster"
        extra: Tuple[str, ...] = ("--shards", str(cell.shards),
                                  "--transport", cell.transport)
    else:
        verb = "serve"
        extra = ("--transport", cell.transport) \
            if cell.transport != "tcp" else ()
    with spawned_server(params, verb, extra) as server, \
            AggregationClient(server.host, server.port) as client:
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
        server.stopping = True
    return np.asarray(served), int(absorbed), ingest_s


def run_cell(cell: Cell, num_queries: int = 32) -> Dict[str, Any]:
    """Execute one cell; returns the JSON-safe cached payload."""
    from repro.analysis.metrics import probe_queries, true_frequencies
    from repro.engine import routed_stream, run_simulation, seeded_inputs

    values, params, plan_seed = seeded_inputs(
        cell.protocol, cell.users, cell.domain_size, cell.epsilon, cell.seed,
        cell.distribution)

    offline = run_simulation(params, values, rng=plan_seed,
                             workers=cell.workers)
    oracle = offline.finalize()

    queries = probe_queries(values, cell.domain_size, num_queries, cell.seed)
    expected = np.asarray(oracle.estimate_many(queries))

    timing: Dict[str, object] = {
        "offline_reports_per_s": int(offline.reports_per_s),
    }
    if cell.shards == 0:
        check = "engine==serial"
        if cell.workers == 1:
            identical = True
        else:
            serial = run_simulation(params, values, rng=plan_seed,
                                    workers=1).finalize()
            identical = bool(np.array_equal(
                expected, np.asarray(serial.estimate_many(queries))))
    else:
        check = "served==offline"
        batches, routes = routed_stream(params, values, rng=plan_seed)
        served, absorbed, ingest_s = _drive_live(params, cell, batches,
                                                 routes, queries)
        identical = (absorbed == cell.users
                     and bool(np.array_equal(served, expected)))
        timing["serve_ingest_s"] = round(ingest_s, 4)
        timing["serve_reports_per_s"] = int(cell.users / max(ingest_s, 1e-9))

    truth = true_frequencies(values)
    errors = [abs(float(e) - truth.get(q, 0))
              for q, e in zip(queries, expected, strict=True)]
    split = len(queries) - num_queries
    top5_errors, probe_errors = errors[:split], errors[split:]
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
