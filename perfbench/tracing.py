"""Spans around the program's public functions, patched in from outside.

A :class:`Tracer` replaces each traced function at every place the program
looks it up: the defining module, every other module that imported it by
name (``relabel`` in ``spreadlab.symmetry``, ``compose`` and ``q_inner`` in
``spreadlab.suites``, ...), and the class dict for methods.  Module-level
functions reached through a module global, such as ``monoid.evaluate`` from
``IncreasingMap.__call__``, are covered by patching that global.

Each call records one span: name, start, end and the span that was open when
it started.  Spans are kept in flat arrays in memory and reduced to per-name
call counts and self times when the run ends; self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from functools import cached_property
from typing import Callable

import numpy as np

OBSERVE = "trace.observe"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[Callable[[], None]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span as a child of the span now open."""
        self.span_name.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` with a span named ``name`` around each call.

        ``observe(args, kwargs, result)`` runs after the span closes; its own
        time is recorded as a ``trace.observe`` span so that it is not charged
        to the enclosing layer's self time.
        """
        nid = self._intern(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                t0 = clock()
                observe(args, kwargs, result)
                self.record(OBSERVE, t0, clock())
            return result

        return traced

    def install(self, name: str, module: str, path: str, observe: Callable | None = None) -> None:
        """Trace ``module.path`` (``func`` or ``Class.method``) under ``name``.

        Import every module of the package first: one imported later binds
        the original function, not the traced one.
        """
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if outer:
            original = owner.__dict__[attr]
            if isinstance(original, cached_property):
                func = original.func
                original.func = self.wrap(name, func, observe)
                self._undo.append(lambda: setattr(original, "func", func))
            else:
                setattr(owner, attr, self.wrap(name, original, observe))
                self._undo.append(lambda: setattr(owner, attr, original))
            return
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, observe)
        for alias_module, alias in aliases(original, module.split(".")[0]):
            setattr(alias_module, alias, wrapped)
            self._undo.append(lambda m=alias_module, a=alias: setattr(m, a, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def summary(self) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self seconds)}`` over every recorded span."""
        return self_times(self.names, self.span_name, self.parent, self.start, self.end)


def aliases(obj, package: str) -> list[tuple[object, str]]:
    """Every (module, attribute) of ``package`` bound to ``obj``."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is obj:
                out.append((mod, attr))
    return out


def self_times(names, span_name, parent, start, end) -> dict[str, tuple[int, float]]:
    """Per-name call counts and self times from flat span arrays."""
    span_name = np.asarray(span_name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    own = duration - child_time
    calls = np.bincount(span_name, minlength=len(names))
    seconds = np.bincount(span_name, weights=own, minlength=len(names))
    return {name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(names)}
