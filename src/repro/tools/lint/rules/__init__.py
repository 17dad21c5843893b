"""Rule registry for the repro lint suite.

A rule family is one module under ``repro.tools.lint.rules`` holding a
:class:`~repro.tools.lint.engine.Rule` subclass decorated with
:func:`register_rule`.  :func:`all_rules` imports every family module
(so registration is a side effect of import) and returns one fresh
instance per registered class — rules may keep per-run state, so the
engine must never share instances across runs.
"""

from __future__ import annotations

import importlib
from typing import List, Type

_REGISTRY: List[type] = []

#: family modules, imported lazily by :func:`all_rules`
_FAMILY_MODULES = (
    "determinism",
    "exactness",
    "async_safety",
    "wire_schema",
    "contracts",
    "layers",
)


def register_rule(cls: type) -> type:
    """Class decorator adding a Rule subclass to the registry (idempotent)."""
    if cls not in _REGISTRY:
        _REGISTRY.append(cls)
    return cls


def all_rules() -> List["object"]:
    """Fresh instances of every registered rule, in registration order."""
    for name in _FAMILY_MODULES:
        importlib.import_module(f"{__name__}.{name}")
    return [cls() for cls in _REGISTRY]


def registered_classes() -> List[Type]:
    """The registered rule classes themselves (for tests/introspection)."""
    for name in _FAMILY_MODULES:
        importlib.import_module(f"{__name__}.{name}")
    return list(_REGISTRY)
