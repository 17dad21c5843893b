"""Shared helpers for the host-performance benchmarks.

A benchmark runs its measurement exactly once (rounds=1) under
pytest-benchmark — the quantity of interest is the *output table* (printed
to stdout and attached to ``benchmark.extra_info``), with the timing as a
secondary, host-dependent figure.

Run with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag shows the tables inline.  The paper's experiments are not
here: they live in ``repro.experiments.registry`` and render into
EXPERIMENTS.md (``python -m repro.cli matrix render
experiments/configs/paper.yaml --quick``).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.experiments import format_table


def run_once(benchmark, func: Callable, *args, **kwargs):
    """Execute ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def report(benchmark, title: str, rows: List[Dict[str, object]]) -> None:
    """Print a formatted table and attach the rows to the benchmark record."""
    print()
    print(format_table(rows, title=title))
    benchmark.extra_info["title"] = title
    benchmark.extra_info["rows"] = rows
