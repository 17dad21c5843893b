"""RPL6 — layer DAG: module-level imports only go down the declared layers.

A shard, a router and a client each start as ``python -m repro.cli``, and
everything their modules import at load time is paid on every cold start.
:data:`LAYERS` declares which layer may import which at module level; a
layer may import everything below it (the transitive closure of its
edges), and the table is acyclic, so the import graph is too.  The serving
layers (``transport``, ``server``, ``cluster``, ``protocol``, ``engine``)
therefore never load ``accounting``, ``structure``, ``lowerbounds``,
``experiments`` or scipy, and ``cluster.supervisor``, which
``serve-cluster`` uses to launch its shards first, loads no numpy.  An
import inside a function is not checked: it runs only when the function
does, which is how ``cli.py`` dispatches its verbs and how the package
root resolves its public names.

Scope: every module of the ``repro`` package whose layer is declared.
Imports under ``if TYPE_CHECKING:`` never run and are not checked.

Rules
-----
RPL601  a module-level import of a layer that is not below this module's
        own layer (``import scipy`` in ``repro/server/``, or
        ``from repro import X`` anywhere inside the package).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Optional, Tuple

from repro.tools.lint.engine import ModuleContext, Rule
from repro.tools.lint.rules import register_rule

#: layer -> the layers its modules may import at module level (and, through
#: them, every layer below).  A layer is a ``repro`` subpackage, a single
#: module declared as its own layer (``core.heavy_hitters`` runs the wire
#: protocol, the rest of ``core`` is built into it; ``cluster.supervisor``
#: launches shards before its process loads numpy), the package root
#: (``""``, which imports nothing at load), or a third-party package whose
#: load time is budgeted here (``numpy``, ``scipy``).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "": (),
    "cli": (),
    "tools": (),
    "scipy": (),
    "numpy": (),
    "utils": ("numpy",),
    "hashing": ("utils",),
    "randomizers": ("hashing",),
    "frequency": ("randomizers",),
    "graphs": ("utils",),
    "codes": ("graphs", "hashing"),
    "core": ("utils",),
    "protocol": ("codes", "core", "frequency"),
    "engine": ("protocol",),
    "server": ("protocol",),
    "transport": ("server",),
    "cluster.supervisor": (),
    "cluster": ("cluster.supervisor", "engine", "transport"),
    "chaos": ("cluster",),
    "core.heavy_hitters": ("engine",),
    "baselines": ("protocol",),
    "analysis": ("utils",),
    "workloads": ("utils",),
    "applications": ("frequency",),
    "accounting": ("randomizers",),
    "lowerbounds": ("analysis", "randomizers"),
    "structure": ("analysis", "randomizers", "scipy"),
    "experiments": ("accounting", "applications", "baselines",
                    "core.heavy_hitters", "lowerbounds", "structure",
                    "workloads"),
}

#: third-party packages that are layers of their own
EXTERNAL = frozenset({"numpy", "scipy"})


def _closure(layer: str) -> FrozenSet[str]:
    seen, stack = set(), list(LAYERS[layer])
    while stack:
        below = stack.pop()
        if below not in seen:
            seen.add(below)
            stack.extend(LAYERS[below])
    return frozenset(seen)


#: layer -> every layer it may import at module level
BELOW: Dict[str, FrozenSet[str]] = {layer: _closure(layer) for layer in LAYERS}


def layer_of(module: str) -> Optional[str]:
    """The declared layer of a dotted module name relative to ``repro``.

    ``"core.heavy_hitters"`` -> ``"core.heavy_hitters"``,
    ``"core.params"`` -> ``"core"``, ``""`` (the package root) -> ``""``;
    ``None`` if no declared layer covers the module.
    """
    parts = module.split(".") if module else []
    for end in range(len(parts), 0, -1):
        prefix = ".".join(parts[:end])
        if prefix in LAYERS:
            return prefix
    return "" if not parts else None


def _is_type_checking(test: ast.AST) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


@register_rule
class LayerRule(Rule):
    family = "RPL6"

    def begin_module(self, ctx: ModuleContext) -> None:
        module: Optional[str] = None
        if "repro" in ctx.path.parts:
            parts = [part[:-3] if part.endswith(".py") else part
                     for part in ctx.package_parts]
            if parts and parts[-1] == "__init__":
                parts.pop()
            module = ".".join(parts)
        ctx.facts[self.family] = (module,
                                  None if module is None else layer_of(module))

    def _check(self, node: ast.AST, ctx: ModuleContext,
               targets: Tuple[str, ...]) -> None:
        _, layer = ctx.facts[self.family]
        if layer is None or ctx.enclosing_function() is not None:
            return
        if any(isinstance(parent, ast.If) and _is_type_checking(parent.test)
               for parent in ctx.stack):
            return
        for target in targets:
            head, _, rest = target.partition(".")
            if head in EXTERNAL:
                target_layer: Optional[str] = head
            elif head == "repro":
                target_layer = layer_of(rest)
            else:
                continue
            if target_layer is None or target_layer == layer \
                    or target_layer in BELOW[layer]:
                continue
            where = f"`{layer}` layer" if layer else "package root"
            ctx.report(
                node, "RPL601",
                f"module-level import of `{target}` from the {where} "
                f"(`{target_layer or 'repro'}` is not below it in the "
                f"layer DAG)",
                hint="import it inside the function that needs it (the "
                     "verb-dispatch pattern), or add the edge to "
                     "repro.tools.lint.rules.layers.LAYERS if the layer "
                     "really belongs below this one")

    def visit_Import(self, node: ast.Import, ctx: ModuleContext) -> None:
        self._check(node, ctx, tuple(alias.name for alias in node.names))

    def visit_ImportFrom(self, node: ast.ImportFrom,
                         ctx: ModuleContext) -> None:
        base = node.module or ""
        if node.level:
            module, _ = ctx.facts[self.family]
            if module is None:
                return
            package = module.split(".") if module else []
            if ctx.path.name != "__init__.py":
                package = package[:-1]
            package = package[:len(package) - (node.level - 1)]
            base = ".".join(["repro", *package, *filter(None, [base])])
        if base == "repro":
            # `from repro import transport` names a subpackage; any other
            # name resolves through the package root
            targets = tuple(f"repro.{alias.name}"
                            if alias.name in LAYERS else "repro"
                            for alias in node.names)
        else:
            targets = (base,)
        self._check(node, ctx, targets)
