"""RPL5 — protocol contracts: every registered protocol is structurally whole.

``@register_protocol`` is a runtime registry: nothing checks at import
time that the registered :class:`PublicParams` subclass can actually
build its encoder and aggregator, or that the aggregator it builds
implements the full serving surface (``absorb`` … ``from_snapshot``) the
server, the engine, the snapshot store, and the cluster router all call.
A protocol missing a hook registers fine and explodes on first use — in
whichever subsystem happens to touch the missing method first.

This family builds a cross-module class index during the walk and checks,
once all files are seen (``finish``):

RPL501  a required method/hook is missing from the class (including
        everything inherited inside the linted set; an *unindexed* base
        named ``ServerAggregator`` is credited with the base-class
        surface — absorb/absorb_batch/merge/snapshot/restore/
        from_snapshot — but never with the abstract hooks).
RPL502  a required method exists but its positional arity is incompatible
        with how the callers invoke it.
RPL503  a ``@register_protocol`` params class is missing part of the
        params contract (``make_encoder``/``make_aggregator``/
        ``_payload_dict``/``_from_payload``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.tools.lint.engine import LintEngine, ModuleContext, Rule
from repro.tools.lint.rules import register_rule

_BASE = "ServerAggregator"

#: methods the ServerAggregator base implements concretely; an unindexed
#: base of this name provides them (lets fixture trees omit wire.py)
_BASE_PROVIDED = frozenset({"absorb", "absorb_batch", "merge", "snapshot",
                            "restore", "from_snapshot"})

#: aggregator serving surface: name -> positional arity *at the call site*
#: (excluding the implicit self/cls; ``from_snapshot`` is static)
_AGGREGATOR_SURFACE = {
    "absorb": 1, "absorb_batch": 1, "merge": 1, "finalize": 0,
    "snapshot": 0, "restore": 1, "from_snapshot": 1,
}

#: the protocol hook the base's public surface delegates to (abstract on
#: base): a validated batch -> flat cell indices and weights; merge,
#: snapshot and restore act on the flat counts vector in the base alone
_AGGREGATOR_HOOKS = {"_report_cells": 1}

#: public method -> the abstract hook its base implementation delegates to
_HOOK_FOR = {"absorb_batch": "_report_cells"}

#: params contract for @register_protocol classes (call-site arities)
_PARAMS_SURFACE = {
    "make_encoder": 0, "make_aggregator": 0, "_payload_dict": 0,
    "_from_payload": 1,
}


@dataclass
class _Method:
    node: ast.AST
    min_pos: int      # required positional args (no default), incl. self/cls
    max_pos: float    # total positional args, math.inf when *args
    is_abstract: bool
    is_static: bool


@dataclass
class _Class:
    name: str
    node: ast.ClassDef
    ctx: ModuleContext
    bases: Tuple[str, ...]
    methods: Dict[str, _Method] = field(default_factory=dict)
    registered: bool = False
    #: class name returned by this class's own ``make_aggregator``
    aggregator: Optional[str] = None


def _decorator_tails(node: ast.AST, ctx: ModuleContext) -> Set[str]:
    tails = set()
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        dotted = ctx.resolve_dotted(target)
        if dotted:
            tails.add(dotted.rsplit(".", 1)[-1])
    return tails


def _is_abstract_body(fn: ast.AST) -> bool:
    """Docstring-only, ``...``/``pass``-only, or ``raise NotImplementedError``."""
    body = list(fn.body)
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
            and stmt.value.value is Ellipsis:
        return True
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) \
            and exc.id == "NotImplementedError"
    return False


def _method_info(fn: ast.AST, ctx: ModuleContext) -> _Method:
    tails = _decorator_tails(fn, ctx)
    args = fn.args
    positional = list(args.posonlyargs) + list(args.args)
    total = len(positional)
    min_pos = total - len(args.defaults)
    max_pos: float = float("inf") if args.vararg else total
    return _Method(
        node=fn,
        min_pos=min_pos,
        max_pos=max_pos,
        is_abstract="abstractmethod" in tails or _is_abstract_body(fn),
        is_static="staticmethod" in tails,
    )


def _returned_class(fn: ast.AST) -> Optional[str]:
    """Name of the class a ``return Cls(...)`` factory method constructs."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Name):
            return node.value.func.id
    return None


@register_rule
class ContractRule(Rule):
    family = "RPL5"

    def __init__(self) -> None:
        self._classes: Dict[str, _Class] = {}

    # ----- indexing (per module) ------------------------------------------------------

    def begin_module(self, ctx: ModuleContext) -> None:
        if ctx.zone != "protocol":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = tuple(
                dotted.rsplit(".", 1)[-1]
                for dotted in (ctx.dotted(base) for base in node.bases)
                if dotted)
            info = _Class(
                name=node.name, node=node, ctx=ctx, bases=bases,
                registered="register_protocol" in _decorator_tails(node, ctx))
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods[item.name] = _method_info(item, ctx)
                    if item.name == "make_aggregator":
                        info.aggregator = _returned_class(item)
            self._classes[node.name] = info

    # ----- resolution helpers ---------------------------------------------------------

    def _lookup(self, cls: _Class, method: str) -> Tuple[Optional[_Method],
                                                         Optional[str]]:
        """Resolve ``method`` along the base chain.

        Returns ``(definition, provider)`` — the nearest *non-abstract*
        definition in the indexed chain and the class it lives on.  When
        the chain escapes through an unindexed ``ServerAggregator`` base
        that provides the name concretely, returns ``(None, _BASE)``.
        """
        seen: Set[str] = set()
        queue: List[str] = [cls.name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            info = self._classes.get(name)
            if info is None:
                if name == _BASE and method in _BASE_PROVIDED:
                    return None, _BASE
                continue
            found = info.methods.get(method)
            if found is not None and not found.is_abstract:
                return found, name
            if found is None or found.is_abstract:
                queue.extend(info.bases)
        return None, None

    def _check_surface(self, cls: _Class, surface: Dict[str, int],
                       missing_code: str, what: str) -> None:
        for method, arity in surface.items():
            found, provider = self._lookup(cls, method)
            if found is None and provider == _BASE:
                continue
            if found is None:
                cls.ctx.report(
                    cls.node, missing_code,
                    f"{what} `{cls.name}` does not implement `{method}` "
                    f"anywhere in its class chain; every caller of the "
                    f"registered protocol surface will crash on it",
                    hint=f"implement `{method}` (or inherit a concrete "
                         f"implementation) — see the ServerAggregator/"
                         f"PublicParams contract in protocol/wire.py")
                continue
            # instance/class methods receive an implicit first argument
            expected = arity if found.is_static else arity + 1
            if not (found.min_pos <= expected <= found.max_pos):
                owner = provider if provider == cls.name else \
                    f"{cls.name} (inherited from {provider})"
                anchor = found.node if provider == cls.name else cls.node
                cls.ctx.report(
                    anchor, "RPL502",
                    f"`{owner}.{method}` takes "
                    f"{found.min_pos}..{found.max_pos:g} positional "
                    f"argument(s) but the protocol surface calls it with "
                    f"{expected}",
                    hint="match the base-class signature; extra parameters "
                         "must carry defaults")

    def _check_hooks(self, cls: _Class) -> None:
        """The base implementations of the public surface delegate to
        abstract state hooks; each hook is required exactly when the class
        still *uses* the base implementation of its public counterpart."""
        for public, hook in _HOOK_FOR.items():
            _, provider = self._lookup(cls, public)
            if provider != _BASE:
                continue  # public method overridden: hook not reached
            found, hook_provider = self._lookup(cls, hook)
            if found is None and hook_provider != _BASE:
                cls.ctx.report(
                    cls.node, "RPL501",
                    f"registered aggregator `{cls.name}` inherits the base "
                    f"`{public}` but never implements its delegate hook "
                    f"`{hook}`; the first `{public}` call will raise",
                    hint=f"implement `{hook}` (arity "
                         f"{_AGGREGATOR_HOOKS[hook]}) or override "
                         f"`{public}` wholesale")

    # ----- the cross-module pass ------------------------------------------------------

    def finish(self, engine: LintEngine) -> None:
        aggregator_roots: Dict[str, _Class] = {}
        for cls in self._classes.values():
            if not cls.registered:
                continue
            self._check_surface(cls, _PARAMS_SURFACE, "RPL503",
                                "registered params class")
            maker, _ = self._lookup(cls, "make_aggregator")
            if maker is None:
                continue  # already reported as RPL503
            target = _returned_class(maker.node)
            if target is not None and target in self._classes:
                aggregator_roots.setdefault(target, self._classes[target])
        for cls in aggregator_roots.values():
            self._check_surface(cls, _AGGREGATOR_SURFACE, "RPL501",
                                "registered aggregator")
            self._check_hooks(cls)
