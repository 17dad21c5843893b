"""RPL2 — exactness: no floating point in the aggregator bit-identity zone.

Sharded serving answers bit-identically to one server *only because*
``ServerAggregator`` state is exact integers: integer addition is
associative, so any shard assignment, merge order, JSON/binary snapshot
round trip, or journal replay reproduces the single-server state exactly
(``docs/wire-protocol.md`` §4).  One float creeping into ``absorb``,
``merge``, or the snapshot path turns "bit-identical" into
"approximately equal" — and K-shard tests pass on small inputs where the
rounding happens to cancel.

Scope: methods named ``absorb*``, ``_report_cells`` (the per-protocol
batch -> flat cells hook), ``merge``/``_merge_impl``,
``snapshot``/``_state_dict``, ``restore``/``_load_state`` of (direct or
transitive) ``ServerAggregator`` subclasses under ``repro/protocol``.
``finalize`` is deliberately *outside* the zone — debiasing is float math
by design; the invariant is that floats appear only after the last merge.
The zone also holds the module-level exact decode finalize runs first
(:data:`_EXACT_FUNCTIONS`): the integer Walsh-Hadamard transform and the
integer arg-max of the heavy-hitter reducer, whose outputs must equal the
float path's bit for bit.

Rules
-----
RPL201  float literal inside a hot-zone method.
RPL202  true division ``/`` (use ``//`` — or move the math to finalize).
RPL203  float dtype: ``np.float32``/``float64``/``floating`` references,
        ``dtype=float``, ``astype(float)``.
RPL204  ``float(...)`` cast inside a hot-zone method.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

from repro.tools.lint.engine import ModuleContext, Rule
from repro.tools.lint.rules import register_rule

#: the aggregator base class anchoring the hot zone
_BASE = "ServerAggregator"

#: method names forming the bit-identity hot zone
_HOT_EXACT = frozenset({"merge", "_merge_impl", "snapshot", "restore",
                        "_state_dict", "_load_state", "_report_cells"})

#: module-level exact-decode functions in the zone, by module file
_EXACT_FUNCTIONS = {
    "randomizers/hadamard.py": frozenset({"hadamard_outputs",
                                          "_butterflies"}),
    "protocol/heavy_hitters.py": frozenset({"_best_cells"}),
}

_NUMPY_FLOAT_ATTRS = frozenset({
    "float16", "float32", "float64", "float128", "float_", "single",
    "double", "half", "longdouble", "floating",
})


def _is_float_dtype_expr(node: ast.AST, ctx: ModuleContext) -> bool:
    if isinstance(node, ast.Name) and node.id == "float":
        return True
    if isinstance(node, ast.Attribute):
        resolved = ctx.resolve_dotted(node) or ""
        return (resolved.startswith("numpy.")
                and resolved.rsplit(".", 1)[-1] in _NUMPY_FLOAT_ATTRS)
    return False


@register_rule
class ExactnessRule(Rule):
    family = "RPL2"

    def begin_module(self, ctx: ModuleContext) -> None:
        """Map the module's aggregator classes (transitively via local bases)."""
        if ctx.zone != "protocol":
            return
        bases: Dict[str, Set[str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                names = set()
                for base in node.bases:
                    dotted = ctx.dotted(base)
                    if dotted:
                        names.add(dotted.rsplit(".", 1)[-1])
                bases[node.name] = names
        aggregators: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, parents in bases.items():
                if name in aggregators:
                    continue
                if _BASE in parents or parents & aggregators:
                    aggregators.add(name)
                    changed = True
        ctx.facts[self.family] = aggregators

    # ----- zone test ------------------------------------------------------------------

    def _hot_method(self, ctx: ModuleContext) -> Optional[str]:
        exact = _EXACT_FUNCTIONS.get(ctx.module_file)
        if exact and len(ctx.stack) > 1 \
                and isinstance(ctx.stack[1], ast.FunctionDef) \
                and ctx.stack[1].name in exact:
            return ctx.stack[1].name
        aggregators = ctx.facts.get(self.family)
        if not aggregators:
            return None
        cls, method = ctx.enclosing_method()
        if cls is None or cls.name not in aggregators or method is None:
            return None
        name = method.name
        if name.startswith("absorb") or name == "_absorb_columns" \
                or name in _HOT_EXACT:
            return f"{cls.name}.{name}"
        return None

    # ----- rules ----------------------------------------------------------------------

    def visit_Constant(self, node: ast.Constant, ctx: ModuleContext) -> None:
        if not isinstance(node.value, float):
            return
        where = self._hot_method(ctx)
        if where:
            ctx.report(
                node, "RPL201",
                f"float literal {node.value!r} inside {where}: aggregator "
                f"state must stay exact integers until finalize()",
                hint="keep the value integral (scaled counts) or move the "
                     "float math into finalize()")

    def _check_div(self, node: ast.AST, op: ast.AST,
                   ctx: ModuleContext) -> None:
        if not isinstance(op, ast.Div):
            return
        where = self._hot_method(ctx)
        if where:
            ctx.report(
                node, "RPL202",
                f"true division `/` inside {where} produces floats; "
                f"aggregator state must stay exact",
                hint="use floor division `//` on integers, or defer the "
                     "division to finalize()")

    def visit_BinOp(self, node: ast.BinOp, ctx: ModuleContext) -> None:
        self._check_div(node, node.op, ctx)

    def visit_AugAssign(self, node: ast.AugAssign, ctx: ModuleContext) -> None:
        self._check_div(node, node.op, ctx)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        where = self._hot_method(ctx)
        if not where:
            return
        if isinstance(node.func, ast.Name) and node.func.id == "float":
            ctx.report(
                node, "RPL204",
                f"float(...) cast inside {where}: aggregator state must "
                f"stay exact integers until finalize()",
                hint="use int(...) — or move the cast to finalize()")
            return
        # numpy float *attributes* (np.float64 et al.) are reported once by
        # visit_Attribute; here we catch the bare-`float`-as-dtype spellings.
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id == "float":
                    ctx.report(
                        node, "RPL203",
                        f"astype to a float dtype inside {where}",
                        hint="keep integer dtypes in the hot zone; widen "
                             "with astype(np.int64) if overflow looms")
        for keyword in node.keywords:
            if keyword.arg == "dtype" \
                    and isinstance(keyword.value, ast.Name) \
                    and keyword.value.id == "float":
                ctx.report(
                    keyword.value, "RPL203",
                    f"float dtype in {where}: aggregator arrays must be "
                    f"integer dtyped",
                    hint="use an integer dtype (np.int64) for accumulator "
                         "arrays")

    def visit_Attribute(self, node: ast.Attribute, ctx: ModuleContext) -> None:
        if node.attr not in _NUMPY_FLOAT_ATTRS:
            return
        where = self._hot_method(ctx)
        if not where:
            return
        resolved = ctx.resolve_dotted(node) or ""
        if resolved.startswith("numpy."):
            ctx.report(
                node, "RPL203",
                f"numpy float dtype reference `{resolved}` inside {where}",
                hint="the bit-identity zone is integer-only; move float "
                     "work to finalize()")
