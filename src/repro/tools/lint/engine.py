"""The rule engine: one AST walk per file, pluggable rule dispatch.

:class:`LintEngine` parses every target file once, then performs a single
pre-order walk of the tree.  Rules never walk the tree themselves — they
register ``visit_<NodeType>`` methods and the engine dispatches each node
to every interested rule, so adding a rule family costs one class, not one
traversal (see ``docs/static-analysis.md`` §"adding a rule").

Rules see a :class:`ModuleContext` carrying everything positional checks
need: the ancestor stack (``enclosing``), the import alias table
(``resolve_dotted`` maps ``np.random.rand`` to ``numpy.random.rand``), the
repo zone the file lives in (``zone`` — the ``repro`` subpackage), and
``report(...)``, which applies ``--select``/``--ignore`` filtering and
suppression pragmas before recording a :class:`Diagnostic`.

Cross-module rules (the protocol-contract family) additionally implement
``finish(engine)``, called once after every file has been walked.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.tools.lint.diagnostics import Diagnostic, PragmaIndex, selected

__all__ = ["LintConfig", "LintEngine", "ModuleContext", "Rule", "lint_paths"]

#: statement fields evaluated *after* the rest of the node at runtime;
#: visiting them last keeps the pre-order walk aligned with execution
#: order, which the await-race detector depends on (``self.x = await f()``
#: reads/awaits before it stores).
_LAST_FIELDS = {
    ast.Assign: ("targets",),
    ast.AnnAssign: ("target",),
    ast.AugAssign: ("target",),
    ast.For: ("target", "body", "orelse"),
    ast.AsyncFor: ("target", "body", "orelse"),
}


class LintConfig:
    """Run-wide options shared by the engine and the rules."""

    def __init__(self, select: Sequence[str] = (), ignore: Sequence[str] = (),
                 wire_doc: Optional[Path] = None) -> None:
        self.select = tuple(select)
        self.ignore = tuple(ignore)
        #: explicit path of the wire-schema document; when ``None`` each
        #: RPL4-checked file looks for ``docs/wire-protocol.md`` upward
        #: from its own location.
        self.wire_doc = Path(wire_doc) if wire_doc is not None else None


class ModuleContext:
    """Per-file state handed to every rule callback."""

    def __init__(self, path: Path, source: str, tree: ast.Module,
                 config: LintConfig) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.config = config
        self.pragmas = PragmaIndex.parse(source)
        self.diagnostics: List[Diagnostic] = []
        #: ancestor chain of the node currently being visited (module first)
        self.stack: List[ast.AST] = []
        #: import alias table: local name -> fully qualified dotted prefix
        self.aliases: Dict[str, str] = {}
        #: free-form per-rule scratch space, keyed by rule family
        self.facts: Dict[str, object] = {}
        parts = path.parts
        if "repro" in parts:
            anchor = len(parts) - 1 - parts[::-1].index("repro")
            self.package_parts: Tuple[str, ...] = parts[anchor + 1:]
        else:
            self.package_parts = (path.name,)
        self._collect_aliases(tree)

    # ----- path classification -------------------------------------------------------

    @property
    def zone(self) -> str:
        """The ``repro`` subpackage this file belongs to (``""`` at top level)."""
        return self.package_parts[0] if len(self.package_parts) > 1 else ""

    @property
    def module_file(self) -> str:
        """File name relative to the ``repro`` package, e.g. ``cli.py``."""
        return "/".join(self.package_parts)

    # ----- imports -------------------------------------------------------------------

    def _collect_aliases(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def dotted(self, node: ast.AST) -> Optional[str]:
        """Dotted source form of a Name/Attribute chain, or ``None``."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    def resolve_dotted(self, node: ast.AST) -> Optional[str]:
        """Dotted form with the leading import alias expanded.

        ``np.random.rand`` resolves to ``numpy.random.rand`` when the
        module did ``import numpy as np``; ``time()`` resolves to
        ``time.time`` under ``from time import time``.
        """
        dotted = self.dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        expanded = self.aliases.get(head)
        if expanded is None:
            return dotted
        return f"{expanded}.{rest}" if rest else expanded

    # ----- ancestry ------------------------------------------------------------------

    def enclosing(self, *types: Type[ast.AST]) -> Optional[ast.AST]:
        """Nearest ancestor of any of the given node types."""
        for node in reversed(self.stack):
            if isinstance(node, types):
                return node
        return None

    def enclosing_function(self) -> Optional[ast.AST]:
        return self.enclosing(ast.FunctionDef, ast.AsyncFunctionDef)

    def enclosing_class(self) -> Optional[ast.ClassDef]:
        node = self.enclosing(ast.ClassDef)
        return node if isinstance(node, ast.ClassDef) else None

    def in_async_function(self) -> bool:
        """Is the current node inside an ``async def`` body?

        A synchronous helper nested inside an ``async def`` shields its own
        body (it may legally block when handed to an executor).
        """
        return isinstance(self.enclosing_function(), ast.AsyncFunctionDef)

    def enclosing_method(self) -> Tuple[Optional[ast.ClassDef],
                                        Optional[ast.AST]]:
        """The (class, method) pair the current node is lexically inside.

        The method is the outermost function whose direct parent in the
        stack is the class, so code in helpers nested inside a method still
        attributes to that method.
        """
        chain = self.stack
        for i, node in enumerate(chain):
            if isinstance(node, ast.ClassDef) and i + 1 < len(chain) \
                    and isinstance(chain[i + 1],
                                   (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node, chain[i + 1]
        return None, None

    # ----- reporting -----------------------------------------------------------------

    def report(self, node: ast.AST, code: str, message: str,
               severity: str = "error", hint: Optional[str] = None) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        if not selected(code, self.config.select, self.config.ignore):
            return
        if self.pragmas.suppresses(line, code):
            return
        self.diagnostics.append(Diagnostic(
            path=str(self.path), line=line, col=col, code=code,
            message=message, severity=severity, hint=hint))


class Rule:
    """Base class for one rule family.

    Subclasses set ``family`` (the id prefix, e.g. ``"RPL1"``) and declare
    ``visit_<NodeType>`` callbacks; the engine discovers them by name and
    dispatches during its single walk.  ``begin_module``/``end_module``
    bracket each file; ``finish`` runs once per engine run for
    cross-module checks.
    """

    family = "RPL0"

    def begin_module(self, ctx: ModuleContext) -> None:  # pragma: no cover
        pass

    def end_module(self, ctx: ModuleContext) -> None:  # pragma: no cover
        pass

    def finish(self, engine: "LintEngine") -> None:  # pragma: no cover
        pass


class LintEngine:
    """Walk each file once, dispatching nodes to every registered rule."""

    def __init__(self, rules: Sequence[Rule], config: LintConfig) -> None:
        self.rules = list(rules)
        self.config = config
        self.contexts: List[ModuleContext] = []
        self.errors: List[Diagnostic] = []
        self._handlers: Dict[type, List[Callable]] = {}
        for rule in self.rules:
            for name in dir(rule):
                if not name.startswith("visit_"):
                    continue
                node_type = getattr(ast, name[len("visit_"):], None)
                if node_type is None:
                    raise ValueError(f"{type(rule).__name__}.{name} does not "
                                     f"name an ast node type")
                self._handlers.setdefault(node_type, []).append(
                    getattr(rule, name))

    # ----- file collection ------------------------------------------------------------

    @staticmethod
    def collect_files(paths: Sequence[Path]) -> List[Path]:
        files: List[Path] = []
        for path in paths:
            if path.is_dir():
                files.extend(sorted(p for p in path.rglob("*.py")
                                    if "__pycache__" not in p.parts))
            elif path.suffix == ".py":
                files.append(path)
        seen = set()
        unique = []
        for path in files:
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                unique.append(path)
        return unique

    # ----- driving --------------------------------------------------------------------

    def run(self, paths: Sequence[Path]) -> List[Diagnostic]:
        for path in self.collect_files(paths):
            self._lint_file(path)
        for rule in self.rules:
            rule.finish(self)
        diagnostics = list(self.errors)
        for ctx in self.contexts:
            diagnostics.extend(ctx.diagnostics)
            diagnostics.extend(ctx.pragmas.policy_findings(
                str(ctx.path), self.config.select, self.config.ignore))
        return sorted(
            (d for d in diagnostics
             if selected(d.code, self.config.select, self.config.ignore)),
            key=Diagnostic.sort_key)

    def _lint_file(self, path: Path) -> None:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            self.errors.append(Diagnostic(
                path=str(path), line=getattr(exc, "lineno", 1) or 1, col=1,
                code="RPL002", message=f"cannot parse file: {exc}"))
            return
        ctx = ModuleContext(path, source, tree, self.config)
        self.contexts.append(ctx)
        for rule in self.rules:
            rule.begin_module(ctx)
        self._walk(tree, ctx)
        for rule in self.rules:
            rule.end_module(ctx)

    def _walk(self, node: ast.AST, ctx: ModuleContext) -> None:
        for handler in self._handlers.get(type(node), ()):
            handler(node, ctx)
        last_fields = _LAST_FIELDS.get(type(node), ())
        ctx.stack.append(node)
        try:
            for name, value in ast.iter_fields(node):
                if name in last_fields:
                    continue
                self._walk_field(value, ctx)
            for name in last_fields:
                self._walk_field(getattr(node, name, None), ctx)
        finally:
            ctx.stack.pop()

    def _walk_field(self, value, ctx: ModuleContext) -> None:
        if isinstance(value, ast.AST):
            self._walk(value, ctx)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.AST):
                    self._walk(item, ctx)


def lint_paths(paths: Sequence[Path], select: Sequence[str] = (),
               ignore: Sequence[str] = (),
               wire_doc: Optional[Path] = None) -> List[Diagnostic]:
    """Run the full rule suite over ``paths``; returns sorted diagnostics."""
    from repro.tools.lint.rules import all_rules

    config = LintConfig(select=select, ignore=ignore, wire_doc=wire_doc)
    engine = LintEngine(all_rules(), config)
    return engine.run([Path(p) for p in paths])


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.tools.lint src/ tests/``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.lint",
        description="repo-native static analysis: determinism (RPL1), "
                    "exact-integer state (RPL2), async safety (RPL3), "
                    "wire-schema drift (RPL4), protocol contracts (RPL5), "
                    "layer DAG (RPL6)")
    parser.add_argument("paths", nargs="+", type=Path,
                        help="files or directories to lint")
    parser.add_argument("--select", default="",
                        help="comma-separated rule ids/families to enable "
                             "(default: all)")
    parser.add_argument("--ignore", default="",
                        help="comma-separated rule ids/families to disable")
    parser.add_argument("--fix-hints", action="store_true",
                        help="print a fix hint under each finding")
    parser.add_argument("--wire-doc", type=Path, default=None,
                        help="wire-schema document for RPL4 (default: "
                             "docs/wire-protocol.md found upward from each "
                             "checked file)")
    parser.add_argument("--statistics", action="store_true",
                        help="print a per-rule finding count summary")
    args = parser.parse_args(argv)

    select = [c for c in args.select.split(",") if c.strip()]
    ignore = [c for c in args.ignore.split(",") if c.strip()]
    missing = [str(p) for p in args.paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    diagnostics = lint_paths(args.paths, select=select, ignore=ignore,
                             wire_doc=args.wire_doc)
    for diagnostic in diagnostics:
        print(diagnostic.format(show_hint=args.fix_hints))
    if args.statistics and diagnostics:
        counts: Dict[str, int] = {}
        for diagnostic in diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        for code in sorted(counts):
            print(f"{counts[code]:6d}  {code}")
    if diagnostics:
        print(f"found {len(diagnostics)} finding(s)", file=sys.stderr)
        return 1
    print("repro-lint: clean", file=sys.stderr)
    return 0
