"""RPL3 — async safety: the ingest loop must never block or race itself.

The server and cluster tiers are single-threaded asyncio: throughput
comes from the event loop never stalling, and correctness ("queries never
observe a half-absorbed batch") comes from state mutations happening
atomically *between* awaits.  Both properties are invisible to unit tests
— a blocking disk write inside a handler still passes every functional
assertion, it just freezes every other connection while it runs.

Scope: ``repro/server``, ``repro/cluster``, ``repro/transport``, and
``repro/cli.py`` — only code lexically inside ``async def`` (synchronous
helpers may block; they are expected to run in executors).  The transport
zone matters most for the shm ring: its async wait paths *spin* on shared
counters, and one ``time.sleep`` there freezes every link on the loop.

Rules
-----
RPL301  blocking call on the event loop: ``time.sleep``, synchronous file
        IO (``open``, ``Path.read_text``/``write_bytes`` …),
        ``subprocess.*``, ``Future.result()``, and the repo's own known
        blocking surfaces (``SnapshotStore.save`` via ``self.store.save``,
        ``read_snapshot``/``write_snapshot``, ``ClusterSupervisor``
        methods, ``spawn_server_process`` and its two steps
        ``launch_server_process``/``await_listening``, and the
        ``spawned_server`` block around it).  Fix: hand the call to
        ``loop.run_in_executor`` / ``asyncio.to_thread``.
RPL302  check-then-act across an await: an instance attribute is read,
        an ``await`` yields the loop, and the attribute is then written —
        without an ``async with <lock>`` guarding both.  Another task can
        interleave at the await and invalidate the read (the classic
        lost-update/TOCTOU shape of the ingest loop).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.tools.lint.engine import ModuleContext, Rule
from repro.tools.lint.rules import register_rule

#: fully-qualified calls that block the event loop
_BLOCKING_CALLS = frozenset({
    "time.sleep", "os.system", "os.popen", "os.waitpid", "os.wait",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "socket.create_connection", "urllib.request.urlopen",
    "shutil.copy", "shutil.copytree", "shutil.rmtree",
})

#: method names that are blocking regardless of receiver
_BLOCKING_METHODS = frozenset({
    "read_text", "read_bytes", "write_text", "write_bytes",
})

#: repo-native blocking entry points (module-level functions)
_REPO_BLOCKING_FUNCS = frozenset({
    "read_snapshot", "write_snapshot", "spawn_server_process",
    "spawned_server", "launch_server_process", "await_listening", "reap_processes",
})

#: repo-native blocking methods, keyed by a substring of the receiver chain
_REPO_BLOCKING_METHODS = (
    # SnapshotStore: sync disk IO behind `<...>.store.<method>(...)`
    ("store", frozenset({"save", "load_latest"})),
    # ClusterSupervisor: spawns/waits on subprocesses synchronously
    ("supervisor", frozenset({"start", "stop", "restart", "poll",
                              "terminate", "kill", "wait", "add_shard",
                              "retire", "launch", "await_started"})),
)


def _receiver_chain(node: ast.Attribute) -> str:
    parts: List[str] = []
    value = node.value
    while isinstance(value, ast.Attribute):
        parts.append(value.attr)
        value = value.value
    if isinstance(value, ast.Name):
        parts.append(value.id)
    return ".".join(reversed(parts))


def _self_target(node: ast.AST) -> Optional[str]:
    """Dotted path of a ``self.<...>`` attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return "self." + ".".join(reversed(parts))
    return None


def _mentions_lock(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and "lock" in sub.attr.lower():
            return True
        if isinstance(sub, ast.Name) and "lock" in sub.id.lower():
            return True
    return False


@register_rule
class AsyncSafetyRule(Rule):
    family = "RPL3"

    def _active(self, ctx: ModuleContext) -> bool:
        return (ctx.zone in ("server", "cluster", "transport")
                or ctx.module_file == "cli.py")

    # ----- RPL301: blocking calls -----------------------------------------------------

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if not self._active(ctx) or not ctx.in_async_function():
            return
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name == "open":
                ctx.report(
                    node, "RPL301",
                    "synchronous open() inside `async def` blocks the "
                    "event loop for the duration of the IO",
                    hint="await loop.run_in_executor(None, ...) or "
                         "asyncio.to_thread(...) around the file work")
                return
            if name == "input" or name in _REPO_BLOCKING_FUNCS:
                ctx.report(
                    node, "RPL301",
                    f"blocking call `{name}(...)` inside `async def` "
                    f"stalls every other connection on this loop",
                    hint="offload to an executor: await "
                         "loop.run_in_executor(None, ...)")
                return
        resolved = ctx.resolve_dotted(node.func)
        if resolved in _BLOCKING_CALLS:
            ctx.report(
                node, "RPL301",
                f"blocking call `{resolved}` inside `async def` stalls the "
                f"event loop",
                hint="use the asyncio equivalent (asyncio.sleep, "
                     "create_subprocess_exec) or an executor")
            return
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            receiver = _receiver_chain(node.func)
            if attr == "result" and not node.args and not node.keywords:
                ctx.report(
                    node, "RPL301",
                    "Future.result() inside `async def` deadlocks or blocks "
                    "the loop; futures must be awaited",
                    hint="await the future (or wrap with asyncio.wrap_future)")
                return
            if attr in _BLOCKING_METHODS:
                ctx.report(
                    node, "RPL301",
                    f"synchronous file IO `.{attr}(...)` inside `async def` "
                    f"blocks the event loop",
                    hint="offload to an executor: await "
                         "loop.run_in_executor(None, ...)")
                return
            for marker, methods in _REPO_BLOCKING_METHODS:
                if attr in methods and marker in receiver.lower().split("."):
                    ctx.report(
                        node, "RPL301",
                        f"`{receiver}.{attr}(...)` does blocking work "
                        f"(disk/subprocess) inside `async def`",
                        hint="offload to an executor: await "
                             "loop.run_in_executor(None, ...)")
                    return

    # ----- RPL302: check-then-act across an await -------------------------------------

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef,
                               ctx: ModuleContext) -> None:
        if not self._active(ctx):
            return
        events: List[Tuple[str, Optional[str], ast.AST]] = []
        self._collect(node.body, events, guarded=False)
        self._scan(events, ctx)

    def _collect(self, body, events, guarded: bool) -> None:
        """Flatten statements into (kind, key, node) events in source order.

        ``kind`` is ``read``/``write``/``await``; events inside an
        ``async with <lock>`` are dropped (the lock serializes them), and
        nested function bodies are skipped (they run on their own schedule).
        """
        for stmt in body:
            self._collect_node(stmt, events, guarded)

    def _collect_node(self, node: ast.AST, events, guarded: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, ast.AsyncWith):
            inner_guarded = guarded or any(
                _mentions_lock(item.context_expr) for item in node.items)
            for item in node.items:
                self._collect_node(item.context_expr, events, guarded)
            self._collect(node.body, events, inner_guarded)
            return
        if isinstance(node, ast.Await):
            self._collect_node(node.value, events, guarded)
            events.append(("await", None, node))
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            # evaluation order: value first, then the target stores
            value = getattr(node, "value", None)
            if isinstance(node, ast.AugAssign):
                # `self.x += <no await>` is atomic on the event loop — the
                # read only races when the RHS itself yields to the loop
                key = _self_target(node.target)
                rhs_awaits = any(isinstance(sub, ast.Await)
                                 for sub in ast.walk(node.value))
                if key is not None and not guarded and rhs_awaits:
                    events.append(("read", key, node.target))
            if value is not None:
                self._collect_node(value, events, guarded)
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                self._collect_target(target, events, guarded)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            key = _self_target(node)
            if key is not None and not guarded:
                events.append(("read", key, node))
            # fall through: visit the value chain for awaits nested deeper
        for child in ast.iter_child_nodes(node):
            self._collect_node(child, events, guarded)

    def _collect_target(self, target: ast.AST, events, guarded: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._collect_target(element, events, guarded)
            return
        if isinstance(target, ast.Attribute):
            key = _self_target(target)
            if key is not None and not guarded:
                events.append(("write", key, target))
            return
        if isinstance(target, ast.Subscript):
            self._collect_node(target.value, events, guarded)

    def _scan(self, events, ctx: ModuleContext) -> None:
        reported = set()
        for i, (kind, key, node) in enumerate(events):
            if kind != "write" or key in reported:
                continue
            awaits = [j for j, e in enumerate(events[:i]) if e[0] == "await"]
            if not awaits:
                continue
            for j, (other_kind, other_key, _other) in enumerate(events[:i]):
                if other_kind == "read" and other_key == key \
                        and any(j < a < i for a in awaits):
                    reported.add(key)
                    ctx.report(
                        node, "RPL302",
                        f"`{key}` is read, the coroutine awaits (another "
                        f"task may run), and `{key}` is then written — a "
                        f"check-then-act race on shared server state",
                        hint="hold an asyncio.Lock across the read+write "
                             "(`async with self._lock:`), or commit the "
                             "write before the first await")
                    break
