"""Fork- and signal-safety rules for the supervisor/service layer.

The fleet forks worker process groups and reacts to SIGTERM/SIGINT; the
failure modes are classic and brutal to debug:

* a child forked while the parent holds a lock inherits the *held* lock
  with nobody to release it (instant deadlock in the child), and a
  ``fork()`` with an open socket shares the fd — two processes then
  read the same stream;
* a worker ``Popen``\\ ed into the supervisor's session dies with it and
  escapes group-kill/orphan-reap semantics — every managed spawn must
  pass ``start_new_session=True`` (``FORK-SAFETY``);
* the child of an ``os.fork()`` that returns or raises into its caller
  runs a second copy of the parent's loop (the daemon's, the zygote's),
  so its branch must leave through ``os._exit`` on every path, and a
  child that runs a job must call ``os.setsid()`` first, as a
  ``Popen``\\ ed worker must start a new session (``FORK-SAFETY``);
* a Python signal handler runs between two arbitrary bytecodes of the
  main loop: touching the journal (fsync!), logging, or allocating in a
  handler reenters whatever the interrupted frame was doing.  Handlers
  are restricted to the async-safe core — set flags, ``os.write`` — and
  anything they *call* must transitively satisfy the same contract
  (``SIGNAL-SAFETY``, a whole-program check over the call graph).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    build_call_graph,
    walk_shallow,
)
from repro.analysis.core import (
    Finding,
    ProgramRule,
    Rule,
    Severity,
    SourceModule,
    enclosing_symbols,
    register,
    resolve_dotted,
)
from repro.analysis.typestate import functions_of

SERVICE_SCOPE = ("src/repro/supervisor", "tools")

#: Calls that create a child process.
SPAWN_CALLS = {
    "subprocess.Popen",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "os.fork",
    "os.forkpty",
    "os.posix_spawn",
    "os.posix_spawnp",
    "multiprocessing.Process",
}

#: Long-lived managed spawns that must lead their own session so
#: group-kill / orphan-reaping semantics hold.
SESSION_REQUIRED_SPAWNS = {"subprocess.Popen"}

#: Calls that run a job: a forked child reaching one must lead its own
#: session first.
JOB_ENTRY_CALLS = {
    "repro.supervisor.worker.main",
    "repro.supervisor.worker.run_spec",
    "repro.supervisor.worker.run_spec_file",
}

_LOCKISH_CTORS = ("Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition")


def _is_lockish(expr: ast.expr) -> Optional[str]:
    """A name for the lock-like object this expression denotes, or None."""
    target = expr
    if isinstance(target, ast.Call):
        target = target.func
    if isinstance(target, ast.Attribute):
        leaf = target.attr
    elif isinstance(target, ast.Name):
        leaf = target.id
    else:
        return None
    if "lock" in leaf.lower() or leaf in _LOCKISH_CTORS:
        return leaf
    return None


def _is_call_stmt(stmt: ast.stmt, dotted: str, origins: dict[str, str]) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and resolve_dotted(stmt.value.func, origins) == dotted
    )


def _tests_zero(test: ast.expr, name: str) -> Optional[bool]:
    """True when ``test`` holds exactly if ``name`` is 0 (``pid == 0``,
    ``not pid``), False when exactly if it is not (``pid``, ``pid !=
    0``, ``pid > 0``), None for any other test."""
    def is_name(node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id == name

    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return True if is_name(test.operand) else None
    if is_name(test):
        return False
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, right = test.left, test.comparators[0]
        if is_name(right):
            left, right = right, left
        if is_name(left) and isinstance(right, ast.Constant) and right.value == 0:
            if isinstance(test.ops[0], ast.Eq):
                return True
            if isinstance(test.ops[0], (ast.NotEq, ast.Gt)):
                return False
    return None


def _fork_child_branch(scope: ast.AST, call: ast.Call) -> Optional[list[ast.stmt]]:
    """The statements the child of ``pid = os.fork()`` runs: the branch
    of the first later ``if`` in the same block that tests ``pid``
    against zero.  None when there is no such ``if``."""
    for node in walk_shallow(scope):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for i, stmt in enumerate(block):
                if not (
                    isinstance(stmt, ast.Assign)
                    and stmt.value is call
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                ):
                    continue
                for later in block[i + 1:]:
                    if isinstance(later, ast.If):
                        zero = _tests_zero(later.test, stmt.targets[0].id)
                        if zero is not None:
                            return later.body if zero else later.orelse
                return None
    return None


def _always_exits(body: list[ast.stmt], origins: dict[str, str]) -> bool:
    """``body`` reaches ``os._exit`` on every path, exceptions included:
    past constant assignments it is ``os._exit(...)`` itself, or a
    ``try`` whose ``finally`` starts with it."""
    for stmt in body:
        if _is_call_stmt(stmt, "os._exit", origins):
            return True
        if (
            isinstance(stmt, ast.Try)
            and stmt.finalbody
            and _is_call_stmt(stmt.finalbody[0], "os._exit", origins)
        ):
            return True
        inert = isinstance(stmt, ast.Pass) or (
            isinstance(stmt, (ast.Assign, ast.AnnAssign))
            and isinstance(stmt.value, ast.Constant)
        )
        if not inert:
            return False
    return False


def _unsessioned_job_calls(
    body: list[ast.stmt], origins: dict[str, str], sessioned: bool = False
) -> Iterator[ast.Call]:
    """Job-entry calls in ``body`` not preceded, on the straight-line
    path, by an ``os.setsid()`` statement."""
    for stmt in body:
        if _is_call_stmt(stmt, "os.setsid", origins):
            sessioned = True
        elif isinstance(stmt, (ast.Try, ast.With)):
            yield from _unsessioned_job_calls(stmt.body, origins, sessioned)
            if isinstance(stmt, ast.Try):
                for block in [h.body for h in stmt.handlers] + [
                    stmt.orelse,
                    stmt.finalbody,
                ]:
                    yield from _unsessioned_job_calls(block, origins, sessioned)
        elif not sessioned:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and resolve_dotted(node.func, origins) in JOB_ENTRY_CALLS
                ):
                    yield node


@register
class ForkSafetyRule(Rule):
    id = "FORK-SAFETY"
    severity = Severity.ERROR
    description = (
        "no child process may be spawned while a lock is held or (for "
        "fork) a socket is open, managed Popen workers must lead their "
        "own session (start_new_session=True), and a fork child must "
        "leave through os._exit (calling os.setsid() before any job)"
    )
    scope = SERVICE_SCOPE

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.tree is None:
            return
        origins = module.origins
        symbols = enclosing_symbols(module.tree)
        scopes: list[ast.AST] = [module.tree, *functions_of(module.tree)]
        for scope in scopes:
            yield from self._check_scope(module, scope, origins, symbols)

    def _spawn_calls(
        self, scope: ast.AST, origins: dict[str, str]
    ) -> list[tuple[ast.Call, str]]:
        out = []
        for node in walk_shallow(scope):
            if isinstance(node, ast.Call):
                dotted = resolve_dotted(node.func, origins)
                if dotted in SPAWN_CALLS:
                    out.append((node, dotted))
        return out

    def _check_scope(
        self,
        module: SourceModule,
        scope: ast.AST,
        origins: dict[str, str],
        symbols: dict[int, str],
    ) -> Iterator[Finding]:
        spawns = self._spawn_calls(scope, origins)
        if not spawns:
            return
        spawn_ids = {id(call) for call, _ in spawns}

        # 1. Spawn inside a `with <lock>` block.
        for node in walk_shallow(scope):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            held = [
                name
                for item in node.items
                if (name := _is_lockish(item.context_expr)) is not None
            ]
            if not held:
                continue
            for inner in ast.walk(node):
                if id(inner) in spawn_ids:
                    assert isinstance(inner, ast.Call)
                    yield self.finding(
                        module,
                        inner,
                        f"child process spawned while holding {held[0]!r}; "
                        "the child inherits the held lock state and can "
                        "deadlock against the parent",
                        symbol=symbols.get(id(inner), ""),
                    )

        # 2. Spawn lexically between .acquire() and .release() on the
        #    same receiver.
        acquires: dict[str, list[int]] = {}
        releases: dict[str, list[int]] = {}
        for node in walk_shallow(scope):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire", "release")
            ):
                recv = ast.dump(node.func.value)
                bucket = acquires if node.func.attr == "acquire" else releases
                bucket.setdefault(recv, []).append(node.lineno)
        for recv, acq_lines in acquires.items():
            rel_lines = releases.get(recv, [])
            for call, _dotted in spawns:
                if any(
                    a < call.lineno and any(r > call.lineno for r in rel_lines)
                    for a in acq_lines
                ):
                    yield self.finding(
                        module,
                        call,
                        "child process spawned between .acquire() and "
                        ".release(); the child inherits the held lock state",
                        symbol=symbols.get(id(call), ""),
                    )

        # 3. fork() after a socket was created in the same scope.
        socket_lines = [
            node.lineno
            for node in walk_shallow(scope)
            if isinstance(node, ast.Call)
            and resolve_dotted(node.func, origins) == "socket.socket"
        ]
        for call, dotted in spawns:
            if dotted in ("os.fork", "os.forkpty") and any(
                line < call.lineno for line in socket_lines
            ):
                yield self.finding(
                    module,
                    call,
                    "fork() while a socket created in this function may "
                    "still be open; the fd is shared and both processes "
                    "will read the same stream",
                    symbol=symbols.get(id(call), ""),
                )

        # 4. Managed Popen must detach into its own session.
        for call, dotted in spawns:
            if dotted not in SESSION_REQUIRED_SPAWNS:
                continue
            detached = any(
                kw.arg == "start_new_session"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in call.keywords
            )
            if not detached:
                yield self.finding(
                    module,
                    call,
                    "subprocess.Popen without start_new_session=True: the "
                    "child shares the supervisor's session/group, so "
                    "group-kill and orphan-reaping cannot manage it",
                    symbol=symbols.get(id(call), ""),
                )

        # 5. A fork child leaves through os._exit on every path, and
        #    leads its own session before it runs a job.
        for call, dotted in spawns:
            if dotted != "os.fork":
                continue
            child = _fork_child_branch(scope, call)
            if child is None:
                yield self.finding(
                    module,
                    call,
                    "fork() without a recognizable child branch: assign "
                    "the pid and test it (`if pid == 0:`) so the child's "
                    "exit path can be checked",
                    symbol=symbols.get(id(call), ""),
                )
                continue
            if not _always_exits(child, origins):
                yield self.finding(
                    module,
                    call,
                    "the child branch of this fork() can return or raise "
                    "into its caller and run a second copy of the parent's "
                    "loop: wrap it in try/finally with os._exit(...) first "
                    "in the finally",
                    symbol=symbols.get(id(call), ""),
                )
            for job in _unsessioned_job_calls(child, origins):
                yield self.finding(
                    module,
                    job,
                    f"forked child runs {resolve_dotted(job.func, origins)}() "
                    "before os.setsid(): it stays in the parent's process "
                    "group, so group kills and orphan reaping cannot "
                    "manage it",
                    symbol=symbols.get(id(job), ""),
                )


# -- signal safety -----------------------------------------------------------

#: Dotted calls a signal handler may make.
SAFE_HANDLER_CALLS = {
    "os.write",
    "os.kill",
    "os.killpg",
    "os._exit",
    "os.getpid",
}

#: Attribute method calls considered allocation-only-safe (used to
#: format the byte payload of an os.write).
SAFE_METHOD_CALLS = {"encode"}


@register
class SignalSafetyRule(ProgramRule):
    id = "SIGNAL-SAFETY"
    severity = Severity.ERROR
    description = (
        "signal handlers (and everything they transitively call) may "
        "only set flags and os.write; logging, journal fsyncs, or other "
        "reentrant work must be deferred to the main loop"
    )
    scope = SERVICE_SCOPE

    def check_program(self, modules: list[SourceModule]) -> Iterator[Finding]:
        graph = build_call_graph(modules)
        seen: set[tuple[str, int, str]] = set()
        for info in graph.functions.values():
            origins = info.module.origins
            bag = graph.name_bag(info)
            # Prefilter: signal.signal() needs the attr/name "signal" or
            # an aliased import of it in the call-name bag.
            if "signal" not in bag and not any(
                origins.get(name, "").startswith("signal") for name in bag
            ):
                continue
            for node in walk_shallow(info.node):
                if not (
                    isinstance(node, ast.Call)
                    and resolve_dotted(node.func, origins) == "signal.signal"
                    and len(node.args) >= 2
                ):
                    continue
                handler = node.args[1]
                for target in self._handler_candidates(graph, info, handler):
                    checker = _HandlerChecker(graph, target)
                    for path, at, message in checker.run():
                        key = (path, at.lineno, message)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield self.finding_at(
                            path,
                            at,
                            f"{message} (reachable from signal handler "
                            f"{target.qualname}); handlers may only set "
                            "flags and os.write — defer the rest to the "
                            "main loop",
                            symbol=target.qualname,
                        )

    def _handler_candidates(
        self, graph: CallGraph, registrar: FunctionInfo, handler: ast.expr
    ) -> list[FunctionInfo]:
        if isinstance(handler, ast.Attribute):
            dotted_leaf = handler.attr
            if dotted_leaf in ("SIG_IGN", "SIG_DFL", "default_int_handler"):
                return []
            # self._on_sigterm / obj.handler: same-module methods first,
            # program-wide by name otherwise.
            candidates = graph.by_method_name.get(dotted_leaf, [])
            local = [c for c in candidates if c.path == registrar.path]
            return local or candidates
        if isinstance(handler, ast.Name):
            return [
                c
                for c in graph.functions.values()
                if c.path == registrar.path and c.name == handler.id
            ]
        return []


class _HandlerChecker:
    """Transitive allowlist walk from one handler function."""

    def __init__(self, graph: CallGraph, root: FunctionInfo):
        self.graph = graph
        self.root = root
        self.visiting: set[tuple[str, str]] = set()
        self.problems: list[tuple[str, ast.AST, str]] = []

    def run(self) -> list[tuple[str, ast.AST, str]]:
        self._check_function(self.root)
        return self.problems

    def _check_function(self, info: FunctionInfo) -> None:
        if info.key in self.visiting:
            return  # cycle: optimistically safe while being proven
        self.visiting.add(info.key)
        origins = info.module.origins
        for node in walk_shallow(info.node):
            if not isinstance(node, ast.Call):
                continue
            self._check_call(info, node, origins)

    def _check_call(
        self, info: FunctionInfo, call: ast.Call, origins: dict[str, str]
    ) -> None:
        dotted = resolve_dotted(call.func, origins)
        if dotted is not None:
            if dotted in SAFE_HANDLER_CALLS or dotted.startswith("signal."):
                return
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in SAFE_METHOD_CALLS
        ):
            return
        callees = self.graph.resolve_call(
            info.module, info, call, all_candidates=True
        )
        if callees:
            for callee in callees:
                self._check_function(callee)
            return
        name = (
            dotted
            or (call.func.id if isinstance(call.func, ast.Name) else None)
            or (
                f"<obj>.{call.func.attr}"
                if isinstance(call.func, ast.Attribute)
                else "<dynamic>"
            )
        )
        self.problems.append(
            (
                info.path,
                call,
                f"call to {name}() is not async-signal-safe",
            )
        )
