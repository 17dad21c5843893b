"""Every third-party package ``src/`` imports is declared in pyproject.toml.

An undeclared import works on a host that happens to have the package and
fails on a clean install, so this walks every ``import`` statement under
``src/`` (module-level and inside functions, found with ``ast``) and
requires each top-level name that is neither the standard library nor
``repro`` to be a declared dependency or optional extra.  It needs
``tomllib`` (Python 3.11+) and skips on older interpreters.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

REPO = Path(__file__).resolve().parent.parent

#: import name of a distribution whose import name differs from it
IMPORT_NAMES = {"pyyaml": "yaml"}


def declared_imports():
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    requirements = list(project.get("dependencies", []))
    for extra in project.get("optional-dependencies", {}).values():
        requirements += extra
    names = set()
    for requirement in requirements:
        dist = re.match(r"[A-Za-z0-9._-]+", requirement).group(0).lower()
        names.add(IMPORT_NAMES.get(dist, dist.replace("-", "_")))
    return names


def imported_top_levels():
    """Top-level module -> files under ``src/`` that import it."""
    found = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                found.setdefault(top, set()).add(str(path.relative_to(REPO)))
    return found


def test_every_third_party_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"} | declared_imports()
    undeclared = {name: sorted(paths)
                  for name, paths in imported_top_levels().items()
                  if name not in allowed}
    assert undeclared == {}


def test_the_walk_sees_function_level_imports():
    found = imported_top_levels()
    # cli.py imports its verbs' layers inside functions; yaml is imported
    # only by the matrix config loader
    assert "repro" in found and "numpy" in found and "yaml" in found
    assert "networkx" not in found
