"""Closure-capable pickling: the serializer under every snapshot.

Simulated workloads are built from closures — ``constant_rates`` returns
a lambda, barrier phases capture their generation in a cell, fault plans
carry ``when`` predicates.  Stdlib :mod:`pickle` refuses all of these
("Can't pickle local object"), and the container image has neither
``dill`` nor ``cloudpickle``.  :class:`SnapshotPickler` closes the gap
with ``reducer_override``:

* module-level functions still pickle by reference (the default);
* local functions / lambdas are serialized *by value*: marshalled code
  object, defaults, closure cells, and the globals the code actually
  references (computed from ``co_names``, recursively through nested
  code constants);
* closure cells are first-class picklables, so two closures sharing a
  cell (e.g. all waiters of one barrier generation) share it again after
  restore — identity is preserved through the pickle memo.

On restore, a by-value function prefers its original module's live
``__dict__`` as globals (so it keeps seeing module state); if the module
is not importable — or was ``__main__``, which is a *different* module
in the restoring process — the globals captured at save time are used
instead.

Classes that an older build pickled by reference but this build no
longer has are looked up under their new names (:data:`MOVED_CLASSES`),
so snapshots written before such a change still load.

Determinism note: ``marshal`` output is stable for a given CPython
version, which is also the natural compatibility boundary of a snapshot
(the header records the Python version; see :mod:`repro.checkpoint.snapshot`).
"""

from __future__ import annotations

import builtins
import importlib
import io
import marshal
import pickle
import sys
import types
from typing import Any, Optional

#: Modules whose functions must never be captured by value (the
#: reconstructors below live here; capturing them would recurse).
_SELF_MODULE = __name__

#: ``(module, name)`` pickled by older builds -> where the class lives
#: now.  The removed macro-tick engine held only its machine, exactly
#: like the event engine, so its snapshots continue on ``events``.
MOVED_CLASSES: dict[tuple[str, str], tuple[str, str]] = {
    ("repro.sim.fastpath", "FastPathEngine"): ("repro.sim.events", "EventEngine"),
}


class SnapshotPicklingError(TypeError):
    """An object inside the snapshot surface cannot be serialized."""


def _is_importable(obj: types.FunctionType) -> bool:
    """Whether the default save-by-reference would round-trip ``obj``."""
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname or "<lambda>" in qualname:
        return False
    mod = sys.modules.get(module)
    if mod is None:
        return False
    target: Any = mod
    for part in qualname.split("."):
        target = getattr(target, part, None)
        if target is None:
            return False
    return target is obj


def _referenced_names(code: types.CodeType) -> set[str]:
    """Global names referenced by ``code``, including nested code consts."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _referenced_names(const)
    return names


def _capture_globals(fn: types.FunctionType) -> dict:
    """The subset of ``fn.__globals__`` its code can actually touch.

    Modules are captured as :class:`_ModuleRef` markers (re-imported on
    restore) so a function may reference ``np`` without dragging the
    whole module object through the pickle stream.
    """
    captured: dict = {}
    fn_globals = fn.__globals__
    for name in _referenced_names(fn.__code__):
        if name not in fn_globals:
            continue
        value = fn_globals[name]
        if isinstance(value, types.ModuleType):
            captured[name] = _ModuleRef(value.__name__)
        else:
            captured[name] = value
    return captured


class _ModuleRef:
    """Save-time marker for a module-valued global."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __reduce__(self) -> tuple:
        return (_ModuleRef, (self.name,))


# -- reconstructors (module-level, so they pickle by reference) -------------


def _rebuild_cell(contents: object) -> types.CellType:
    return types.CellType(contents)


def _rebuild_empty_cell() -> types.CellType:
    return types.CellType()


def _resolve_globals(module: Optional[str], captured: dict) -> dict:
    if module and module not in ("__main__", "__mp_main__"):
        try:
            mod = sys.modules.get(module) or importlib.import_module(module)
            return mod.__dict__
        except ImportError:
            pass
    g = {"__builtins__": builtins}
    for name, value in captured.items():
        if isinstance(value, _ModuleRef):
            value = importlib.import_module(value.name)
        g[name] = value
    g["__name__"] = module or "<snapshot>"
    return g


def _rebuild_function(
    code_bytes: bytes,
    module: Optional[str],
    qualname: str,
    defaults,
    kwdefaults,
    closure,
    captured: dict,
):
    code = marshal.loads(code_bytes)
    fn = types.FunctionType(
        code,
        _resolve_globals(module, captured),
        code.co_name,
        defaults,
        closure,
    )
    fn.__qualname__ = qualname
    fn.__module__ = module
    if kwdefaults:
        fn.__kwdefaults__ = dict(kwdefaults)
    return fn


class SnapshotPickler(pickle.Pickler):
    """``pickle.Pickler`` that serializes local functions by value."""

    def reducer_override(self, obj: object):
        if isinstance(obj, types.CellType):
            try:
                return (_rebuild_cell, (obj.cell_contents,))
            except ValueError:  # empty cell
                return (_rebuild_empty_cell, ())
        if isinstance(obj, types.FunctionType):
            if _is_importable(obj) or obj.__module__ == _SELF_MODULE:
                return NotImplemented  # default save-by-reference
            try:
                code_bytes = marshal.dumps(obj.__code__)
            except ValueError as exc:  # pragma: no cover - exotic code objects
                raise SnapshotPicklingError(
                    f"cannot marshal code of {obj.__qualname__!r}: {exc}"
                ) from exc
            return (
                _rebuild_function,
                (
                    code_bytes,
                    obj.__module__,
                    obj.__qualname__,
                    obj.__defaults__,
                    obj.__kwdefaults__,
                    obj.__closure__,
                    _capture_globals(obj),
                ),
            )
        return NotImplemented


def dumps(obj: Any, protocol: int = pickle.DEFAULT_PROTOCOL) -> bytes:
    buf = io.BytesIO()
    try:
        SnapshotPickler(buf, protocol=protocol).dump(obj)
    except SnapshotPicklingError:
        raise
    except (TypeError, pickle.PicklingError) as exc:
        # One typed error for "this graph is not snapshot-safe", whatever
        # layer of pickle tripped over it — callers (System.save, the
        # supervisor worker) report it as a permanent failure.
        raise SnapshotPicklingError(str(exc)) from exc
    return buf.getvalue()


class _Unpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        module, name = MOVED_CLASSES.get((module, name), (module, name))
        return super().find_class(module, name)


def loads(data: bytes) -> Any:
    return _Unpickler(io.BytesIO(data)).load()
