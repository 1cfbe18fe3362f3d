"""Outside-in layer tracing: wrap the layers' functions from here, not in ``src/``.

:func:`install` walks the table in :mod:`perf.layers`, replaces each target
(a method on its class, or a module-level function in every ``repro`` module
that imported it) with a timing wrapper, and returns the :class:`Tracer`
that collects what the wrappers measure.  It must run before any world is
built: event callbacks are bound methods captured at scheduling time.

Each thread keeps a stack of open calls, so a call's *self* time is its
duration minus the time spent in wrapped callees (nested and recursive
calls included).  Per-event functions only aggregate ``[calls, total, self,
hits]`` per target (``hits`` sums the target's ``measure`` over its calls);
``span`` targets additionally keep every call as a span (name, start, end,
causing span, and an identifier shared by all spans of one point) in memory
until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
import types
from typing import Callable, Dict, List, Tuple

from .layers import TARGETS, Target

#: A module may bind a C function under a target's name (``orjson.loads``).
_FUNCTIONS = (types.FunctionType, types.BuiltinFunctionType)

#: What ``result`` holds while (and if) the wrapped call raises.
_RAISED = object()

#: Spans kept per process; beyond this only the aggregates grow (counted in
#: ``spans_dropped``), so a mis-tabled per-event span cannot exhaust memory.
MAX_SPANS = 200_000


class _ThreadState:
    __slots__ = ("stack", "spans_open", "agg", "spans", "busy", "busy_since")

    def __init__(self) -> None:
        #: child-time accumulator of every open wrapped call, innermost last
        self.stack: List[float] = []
        #: ids of the open *span* calls (a subset of ``stack``)
        self.spans_open: List[int] = []
        #: target name -> [calls, total_s, self_s, hits]
        self.agg: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        #: wall-clock intervals during which this thread was inside any
        #: wrapped call (what ``trace.unattributed_share`` is taken against)
        self.busy: List[Tuple[float, float]] = []
        self.busy_since = 0.0


class Tracer:
    """Collects aggregates and spans from every wrapper in this process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        #: ``next`` on a count holds the GIL for the whole increment
        self._span_ids = itertools.count(1)
        self.spans_dropped = 0
        #: targets whose ``measure``/``ident`` raised (a refactor changed a
        #: signature); reported with the unresolved targets
        self.measure_failed: set = set()
        self.layer_of: Dict[str, str] = {}
        self.unresolved: List[str] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- per-thread state ----------------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    # -- wrappers ------------------------------------------------------------------------

    def wrap(self, fn: Callable, target: Target, name: str) -> Callable:
        """Return ``fn`` timed under ``name`` (see the module docstring)."""
        self.layer_of[name] = target.layer
        get_state = self._state
        clock = time.perf_counter
        measure = target.measure
        ident = target.ident
        keep_span = target.span
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = get_state()
            stack = state.stack
            if not stack:
                state.busy_since = time.time()
            stack.append(0.0)
            if keep_span:
                span_id = next(tracer._span_ids)
                parent = state.spans_open[-1] if state.spans_open else 0
                state.spans_open.append(span_id)
                wall_start = time.time()
            result = _RAISED
            started = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    state.busy.append((state.busy_since, time.time()))
                record = state.agg.get(name)
                if record is None:
                    record = state.agg[name] = [0, 0.0, 0.0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children
                if measure is not None and result is not _RAISED:
                    try:
                        record[3] += measure(args, kwargs, result)
                    except Exception:  # noqa: BLE001 - never break the program
                        tracer.measure_failed.add(name)
                if keep_span:
                    state.spans_open.pop()
                    if len(state.spans) < MAX_SPANS:
                        key = None
                        if ident is not None and result is not _RAISED:
                            try:
                                key = ident(args, kwargs, result)
                            except Exception:  # noqa: BLE001 - never break the program
                                tracer.measure_failed.add(name)
                        state.spans.append(
                            (span_id, parent, name, wall_start, elapsed, key)
                        )
                    else:
                        tracer.spans_dropped += 1

        wrapper.__perf_wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------------------

    def install(self, targets=TARGETS) -> "Tracer":
        """Wrap every resolvable target; unresolved ones are named, not fatal."""
        _import_all("repro")
        for target in targets:
            try:
                resolved = _resolve(target.path)
            except (ImportError, AttributeError):
                resolved = []
            if not resolved:
                self.unresolved.append(target.path)
                continue
            for owner, attr, fn, name in resolved:
                original = vars(owner)[attr]
                wrapper = self.wrap(fn, target, name)
                self._installed.append((owner, attr, original))
                if isinstance(original, property):
                    setattr(
                        owner,
                        attr,
                        property(wrapper, original.fset, original.fdel, original.__doc__),
                    )
                elif isinstance(original, (classmethod, staticmethod)):
                    setattr(owner, attr, type(original)(wrapper))
                else:
                    setattr(owner, attr, wrapper)
                if isinstance(owner, types.ModuleType) and isinstance(
                    fn, types.FunctionType
                ):
                    # ``from x import f`` bindings elsewhere still hold ``fn``;
                    # ``python -m perf.run_one`` is ``__main__``, not ``perf.*``.
                    # (Not for a C function: ``json.loads`` under a repro name
                    # is still ``json.loads`` to the rest of the process.)
                    for module in list(sys.modules.values()):
                        if module is owner or not getattr(
                            module, "__name__", ""
                        ).startswith(("repro", "perf", "__main__")):
                            continue
                        for key, value in list(vars(module).items()):
                            if value is fn:
                                self._installed.append((module, key, fn))
                                setattr(module, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    # -- results -------------------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything measured so far (set-up is not part of the ledger)."""
        with self._lock:
            for state in self._states:
                state.agg.clear()
                state.spans.clear()
                state.busy.clear()

    def snapshot(self) -> Dict[str, object]:
        """Merged aggregates, spans and busy intervals of all threads."""
        targets: Dict[str, List[float]] = {}
        spans: List[tuple] = []
        busy: List[Tuple[float, float]] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, record in list(state.agg.items()):
                merged = targets.setdefault(name, [0, 0.0, 0.0, 0])
                for index, value in enumerate(record):
                    merged[index] += value
            spans.extend(state.spans)
            busy.extend(state.busy)
        return {
            "pid": os.getpid(),
            "targets": {
                name: {
                    "layer": self.layer_of[name],
                    "calls": record[0],
                    "total_s": record[1],
                    "self_s": record[2],
                    "hits": record[3],
                }
                for name, record in sorted(targets.items())
            },
            "spans": [
                {
                    "id": "%d.%d" % (os.getpid(), span[0]),
                    "parent": "%d.%d" % (os.getpid(), span[1]) if span[1] else None,
                    "name": span[2],
                    "start": span[3],
                    "duration_s": span[4],
                    "key": span[5],
                }
                for span in sorted(spans, key=lambda span: span[3])
            ],
            "busy": sorted(busy),
            "spans_dropped": self.spans_dropped,
            "unresolved": self.unresolved + sorted(self.measure_failed),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


def install() -> Tracer:
    return Tracer().install()


def _import_all(package: str) -> None:
    """Import every submodule, so from-import bindings exist to be rebound."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if info.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:
            # an optional dependency is missing; nothing of it can run either
            continue


def _resolve(path: str) -> List[Tuple[object, str, Callable, str]]:
    """``(owner, attribute, function, name)`` for a dotted target.

    ``pkg.mod.Class.method`` (plain, class or static method, or a property,
    timed through its getter) and ``pkg.mod.function`` name one function;
    ``pkg.mod.Class.*`` names every plain method the class itself defines
    (no dunders, properties, static or class methods).
    """
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: object = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        rest = parts[split:]
        break
    else:
        raise ImportError(path)
    for part in rest[:-1]:
        owner = getattr(owner, part)
    short = ".".join(parts[1:-1])
    last = rest[-1]
    if last == "*":
        return [
            (owner, attr, value, "%s.%s" % (short, attr))
            for attr, value in sorted(vars(owner).items())
            if isinstance(value, types.FunctionType)
            and not attr.startswith("__")
            and not hasattr(value, "__perf_wrapped__")
        ]
    value = vars(owner).get(last)
    if isinstance(value, property):
        value = value.fget
    elif isinstance(value, (classmethod, staticmethod)):
        value = value.__func__
    if not isinstance(value, _FUNCTIONS) or hasattr(value, "__perf_wrapped__"):
        raise AttributeError(path)
    return [(owner, last, value, "%s.%s" % (short, last))]


def covered_seconds(
    intervals: List[Tuple[float, float]], start: float, end: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered
