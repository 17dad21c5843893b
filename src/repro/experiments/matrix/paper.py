"""Render EXPERIMENTS.md from a ``kind: paper`` matrix config.

The ordered sections (experiment name, title, paper-vs-measured commentary)
live in ``experiments/configs/paper.yaml``; each section's tables, its two
configurations and its claim check come from the experiment registry
(:mod:`repro.experiments.registry`):

* **quick** — the tables ``python -m repro.cli run <experiment> --quick``
  prints, with host-dependent timing columns stripped.  Seeded and
  deterministic: this is what the committed EXPERIMENTS.md records and what
  CI regenerates to fail on drift.
* **full** — the tables ``python -m repro.cli run <experiment>`` prints.
  They include host-dependent columns, so they are for local reading and
  go to an explicit ``--output``, never over the committed file.

Either way every section's ``check`` runs on its tables, and the claims
they break come back next to the text.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.experiments.matrix.config import ConfigError, MatrixConfig
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.reporting import format_markdown_table

HEADER = """# EXPERIMENTS — paper vs. measured

This file is rendered by the matrix runner from its section config:
``python -m repro.cli matrix render experiments/configs/paper.yaml
--output PATH``; every table below is what ``python -m repro.cli run
<experiment>`` prints, and the render fails when a table breaks one of the
paper's claims its experiment checks.  The paper is a theory paper: its
quantitative content is Table 1 plus the theorem statements, so "paper
value" below means the asymptotic formula evaluated at the experiment's
parameters (unit constants unless stated), and the check is on *shape* —
who wins, how quantities scale in n, β, ε, k — not on absolute constants
(see the scope note in README.md).

All measurements below come from the in-process simulator (users are
simulated locally and the server aggregation is real); timings are
host-dependent.
"""

QUICK_HEADER = """# EXPERIMENTS — paper vs. measured (quick configuration)

This file is rendered by the matrix runner from its section config —
``python -m repro.cli matrix render experiments/configs/paper.yaml --quick``
— and checked for drift in CI; every table below is exactly what
``python -m repro.cli run <experiment> --quick`` prints (deterministic
seeds; host-dependent timing columns are omitted).  The render fails when a
table breaks one of the paper's claims its experiment checks.  For the
larger configuration, render without ``--quick`` to an ``--output`` path.
Schema and determinism policy: docs/experiments.md.

The paper is a theory paper: its quantitative content is Table 1 plus the
theorem statements, so "paper value" below means the asymptotic formula
evaluated at the experiment's parameters (unit constants unless stated),
and the check is on *shape* — who wins, how quantities scale in n, β, ε, k
— not on absolute constants (see the scope note in README.md).

All measurements come from the in-process simulator (users are simulated
locally and the server aggregation is real).
"""


def strip_host_dependent(rows):
    """Drop measured timing columns (keep formula strings like ``O~(n)``)."""
    drop = set()
    for row in rows:
        for key, value in row.items():
            if "time" in key and not isinstance(value, str):
                drop.add(key)
    if not drop:
        return rows
    return [{k: v for k, v in row.items() if k not in drop} for row in rows]


def render_paper_md(config: MatrixConfig, quick: bool = False,
                    progress: Optional[Callable[[str], None]] = None
                    ) -> Tuple[str, List[str]]:
    """The EXPERIMENTS.md text for a paper config, and the claims its
    tables break as ``"<experiment>: <claim>"`` (empty when all hold)."""
    parts = [QUICK_HEADER if quick else HEADER]
    failures: List[str] = []
    for section in config.sections:
        name = section.experiment
        experiment = EXPERIMENTS.get(name)
        if experiment is None:
            raise ConfigError(
                f"paper config {config.name!r}: unknown experiment {name!r}")
        if progress is not None:
            progress(f"running: {section.title} ...")
        parts.append(f"\n## {section.title}\n")
        parts.append(section.commentary + "\n")
        if quick:
            parts.append(f"\nReproduce: ``python -m repro.cli run {name} "
                         "--quick``\n")
        tables = experiment.tables(experiment.quick if quick else experiment.full)
        failures += [f"{name}: {claim}" for claim in experiment.check(tables)]
        for subtitle, rows in tables:
            if quick:
                rows = strip_host_dependent(rows)
            parts.append(f"\n**{subtitle}**\n")
            parts.append(format_markdown_table(rows) + "\n")
    return "\n".join(parts), failures
