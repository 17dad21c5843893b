"""``python -m repro.cli matrix run|list|render`` — the matrix CLI verbs.

Kept out of ``repro.cli`` so the (heavy, YAML-needing) matrix machinery is
imported only when a matrix verb actually runs.

Output routing: a ``kind: serving`` run renders a results table
(``<name>.md``) and accuracy-curve CSV (``<name>_accuracy.csv``).  When the
config is ``committed`` and the full cell set ran, they go to
``docs/experiments/`` (the drift-checked locations); a ``--quick`` slice or
a ``committed: false`` config writes them under the cache directory
instead, so a partial run can never overwrite a committed artifact.  The
host-dependent ``<name>_timing.csv`` always stays in the cache directory.
A ``kind: paper`` config renders its ``--quick`` tables to its ``output``
path (EXPERIMENTS.md); a full render needs ``--output``, so host-dependent
tables never overwrite the committed file.  A paper render exits 1, after
writing, when a table breaks one of the paper's claims (``CLAIM FAILED:``).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments.matrix.config import (
    ConfigError,
    MatrixConfig,
    expand_cells,
    load_config,
)

#: where `matrix list` looks when no config paths are given
DEFAULT_CONFIG_DIR = Path("experiments/configs")

#: committed destination for serving tables (drift-checked by CI)
COMMITTED_DIR = Path("docs/experiments")


def _discover(paths: List[str]) -> List[Path]:
    if paths:
        return [Path(p) for p in paths]
    if not DEFAULT_CONFIG_DIR.is_dir():
        return []
    return sorted(DEFAULT_CONFIG_DIR.glob("*.yaml"))


def _cache_dir(config: MatrixConfig, override: Optional[str]) -> Path:
    if override is not None:
        return Path(override)
    return Path(".matrix_cache") / config.name


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def _run_serving(config: MatrixConfig, args) -> int:
    from repro.experiments.matrix.render import (
        render_accuracy_csv,
        render_serving_md,
        render_timing_csv,
    )
    from repro.experiments.matrix.runner import run_matrix

    cache_dir = _cache_dir(config, args.cache_dir)
    results = run_matrix(config, quick=args.quick, cache_dir=cache_dir,
                         force=args.force, progress=print)
    if config.committed and not args.quick:
        out_dir = COMMITTED_DIR
    else:
        out_dir = cache_dir / "out"
    _write(out_dir / f"{config.name}.md", render_serving_md(config, results))
    _write(out_dir / f"{config.name}_accuracy.csv",
           render_accuracy_csv(results))
    _write(cache_dir / f"{config.name}_timing.csv",
           render_timing_csv(results))
    if args.timings:
        from repro.experiments.reporting import format_table
        rows = [{"cell": r.cell.index, **r.cell.axes(), **r.timing}
                for r in results]
        print(format_table(rows, title="\nhost-dependent timings "
                                        "(never committed):"))
    failures = [r for r in results if not r.bit_identical]
    for failure in failures:
        print(f"matrix: cell {failure.cell.index} ({failure.cell.label()}) "
              f"FAILED {failure.deterministic['check']}", file=sys.stderr)
    if failures:
        return 1
    print(f"matrix: all {len(results)} cells BIT-IDENTICAL "
          f"({sum(1 for r in results if r.cached)} from cache)")
    return 0


def _run_paper(config: MatrixConfig, args) -> int:
    if not args.quick and args.output is None:
        print(f"matrix {args.verb}: a full render is host-dependent and would "
              f"overwrite {config.output}; pass --output PATH (or --quick)",
              file=sys.stderr)
        return 2
    from repro.experiments.matrix.paper import render_paper_md

    text, failures = render_paper_md(config, quick=args.quick, progress=print)
    _write(Path(args.output or config.output), text)
    for failure in failures:
        print(f"CLAIM FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_matrix(args) -> int:
    """Entry point behind ``repro.cli``'s ``matrix`` subcommand."""
    try:
        if args.verb == "list":
            # argparse routes the first positional into `config`.
            named = [args.config] if args.config else []
            configs = _discover(named + list(args.configs))
            if not configs:
                print(f"matrix list: no configs found under "
                      f"{DEFAULT_CONFIG_DIR}/", file=sys.stderr)
                return 2
            for path in configs:
                config = load_config(path)
                if config.kind == "serving":
                    shape = (f"{len(expand_cells(config))} cells "
                             f"({len(expand_cells(config, quick=True))} quick)")
                else:
                    shape = f"{len(config.sections)} sections -> {config.output}"
                print(f"{path}: [{config.kind}] {config.name} — {shape}")
                print(f"    {config.description}")
            return 0
        if args.config is None:
            print(f"matrix {args.verb}: a config path is required",
                  file=sys.stderr)
            return 2
        if args.configs:
            print(f"matrix {args.verb}: exactly one config path is expected "
                  f"(got extra {args.configs})", file=sys.stderr)
            return 2
        config = load_config(Path(args.config))
        if config.kind == "paper":
            return _run_paper(config, args)
        if args.verb == "render":
            # render = run without --force: only uncached cells execute.
            args.force = False
        return _run_serving(config, args)
    except ConfigError as exc:
        print(f"matrix: {exc}", file=sys.stderr)
        return 2
