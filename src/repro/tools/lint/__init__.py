"""Repo-native static analysis (``python -m repro.tools.lint src/ tests/``).

Six AST rule families enforce the invariants the test suite cannot see
(they are properties of *code shape*, not of any one run): RPL1
determinism, RPL2 exact-integer aggregator state, RPL3 async safety,
RPL4 wire-schema agreement with ``docs/wire-protocol.md``, RPL5
protocol-registry contracts, RPL6 the layer DAG of module-level imports.
The catalog, the suppression-pragma policy, and the guide to adding a rule
live in ``docs/static-analysis.md``.
"""

from repro.tools.lint.diagnostics import Diagnostic, Severity
from repro.tools.lint.engine import (
    LintConfig,
    LintEngine,
    ModuleContext,
    Rule,
    lint_paths,
    main,
)

__all__ = [
    "Diagnostic",
    "LintConfig",
    "LintEngine",
    "ModuleContext",
    "Rule",
    "Severity",
    "lint_paths",
    "main",
]
