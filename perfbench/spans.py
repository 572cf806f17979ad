"""In-memory span recorder that wraps brainpbpk functions from outside.

Each traced name is a dotted ``module.attr`` (or ``module.Class.method``)
inside the ``brainpbpk`` package. The object found there is replaced by a
timing wrapper at *every* place in the package that binds it, because
modules import functions by name (``defit`` binds ``expm_propagate``,
``training`` binds ``grad`` and ``linear_interp``, ``solvers`` binds scipy's
``expm``); patching only the defining module would miss those call sites.

Spans are kept in flat arrays and written out once, at the end, as one
``.npz`` file. A span stores its name, the workload operation it belongs to
(spans of one operation share that identifier), its parent span, its start
and end, and the time covered by its direct children, from which self time
follows.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Records nested spans around wrapped functions; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.op_ids: list[str] = []
        self.op = -1
        self.name = array("i")
        self.op_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        # per-name callbacks: before(args, kwargs) and after(result)
        self.before: dict[str, callable] = {}
        self.after: dict[str, callable] = {}

    # -- operations ----------------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        """Spans recorded from now on belong to operation ``op_id``."""
        self.op_ids.append(op_id)
        self.op = len(self.op_ids) - 1

    def innermost(self, dotted: str) -> int:
        """Index of the innermost open span named ``dotted``, or -1."""
        idx = self._name_idx.get(dotted)
        for span in reversed(self._stack):
            if self.name[span] == idx:
                return span
        return -1

    # -- wrapping ------------------------------------------------------------

    def install(self, package, dotted_names) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and
                   (key == package.__name__ or key.startswith(package.__name__ + "."))]
        for dotted in dotted_names:
            mod_name, _, rest = dotted.partition(".")
            owner = sys.modules[f"{package.__name__}.{mod_name}"]
            *path, attr = rest.split(".")
            for part in path:
                owner = getattr(owner, part)
            target = getattr(owner, attr)
            wrapper = self._wrap(dotted, target)
            if path:  # a method: patch the class attribute
                self._patch(owner, attr, target, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, key, target, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, dotted: str, fn):
        idx = self._name_idx.setdefault(dotted, len(self.names))
        if idx == len(self.names):
            self.names.append(dotted)
        stack, clock = self._stack, time.perf_counter
        name, op_of, parent = self.name, self.op_of, self.parent
        start, end, child = self.start, self.end, self.child
        before, after = self.before, self.after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook = before.get(dotted)
            if hook is not None:
                hook(args, kwargs)
            span = len(name)
            name.append(idx)
            op_of.append(self.op)
            parent.append(stack[-1] if stack else -1)
            child.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                end[span] = t1
                if stack:
                    child[stack[-1]] += t1 - t0
            hook = after.get(dotted)
            if hook is not None:
                hook(result)
            return result
        return wrapper

    # -- results -------------------------------------------------------------

    def arrays(self):
        """(name index, op index, duration, self time) as numpy arrays."""
        dur = np.array(self.end) - np.array(self.start)
        return (np.array(self.name, dtype=np.int32),
                np.array(self.op_of, dtype=np.int32),
                dur, dur - np.array(self.child))

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), ops=np.array(self.op_ids),
                 name=np.array(self.name, dtype=np.int32),
                 op=np.array(self.op_of, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 child=np.array(self.child))
