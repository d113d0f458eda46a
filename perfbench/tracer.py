"""In-memory spans around the calls into the hlsp layers.

The traced run wraps every binding of the public functions of
``hlsp.problem``, ``hlsp.cascade``, ``hlsp.newton`` and
``hlsp.factorization``. Several modules import those functions by name
(``rrqr`` is bound in cascade, newton and problem; ``validate_problem``
and ``tag_bound_rows`` in cascade), so each binding site is rebound, not
only the defining module. The solve and apply methods of the
factorization objects and the null-space chain extension are wrapped on
their classes. Everything is restored when the ``instrumented`` block
exits, so untraced solves run the original code.

Spans stay in flat in-memory arrays (parent, solve id, name, start, end)
and are analysed or written out only after the timed loop.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("problem", "cascade", "newton", "factorization")

# public methods timed on their classes, as (layer, class, method)
CLASS_METHODS = (
    ("factorization", "Rrqr", "solve_basic"),
    ("factorization", "Rrqr", "solve_transpose_basic"),
    ("factorization", "StagedFactorization", "solve_basic"),
    ("factorization", "OrthoTransform", "apply"),
    ("factorization", "OrthoTransform", "apply_transpose"),
    ("cascade", "NullSpaceChain", "extend"),
)


class SpanRecorder:
    """Flat span store: span i has a parent span (or -1), a solve id and a name."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self.parent = array("q")
        self.solve = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.solve_id = -1
        self.givens_columns = 0
        self.householder_columns = 0

    def code(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def begin_solve(self):
        """Start a new solve id; spans opened from now on carry it."""
        self.solve_id += 1
        return self.solve_id

    def wrap(self, name, fn, on_result=None):
        code = self.code(name)
        parent, solve, names = self.parent, self.solve, self.name
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            solve.append(self.solve_id)
            names.append(code)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_staged_columns(self, staged):
        self.givens_columns += staged.givens_columns
        self.householder_columns += staged.householder_columns

    def table(self):
        """Spans as numpy arrays, with durations and self times."""
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return SpanTable(
            names=list(self.names),
            name=np.frombuffer(self.name, dtype=np.int64).copy(),
            parent=parent,
            solve=np.frombuffer(self.solve, dtype=np.int64).copy(),
            duration=dur,
        )


class SpanTable:
    """Read-only analysis of recorded spans."""

    def __init__(self, names, name, parent, solve, duration):
        self.names = names
        self.name = name
        self.parent = parent
        self.solve = solve
        self.duration = duration
        self.self_time = self_times(parent, duration)

    def mask(self, *names):
        codes = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, codes)

    def total(self, *names):
        """Inclusive time of the named spans, counting nested members once."""
        group = self.mask(*names)
        return float(self.duration[group & ~has_ancestor_in(self.parent, group)].sum())

    def total_self(self, *names):
        return float(self.self_time[self.mask(*names)].sum())

    def count(self, *names):
        return int(self.mask(*names).sum())

    def child_counts(self, parent_name, child_name):
        """Number of child_name spans directly under each parent_name span."""
        parents = np.nonzero(self.mask(parent_name))[0]
        children = self.parent[self.mask(child_name)]
        per_parent = np.bincount(children[children >= 0], minlength=len(self.parent))
        return per_parent[parents]

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=self.name,
            parent=self.parent,
            solve=self.solve,
            duration=self.duration,
            self_time=self.self_time,
        )


def self_times(parent, duration):
    """Duration minus the durations of the direct children.

    Calls nest synchronously, so the children of a span cover disjoint
    parts of its interval.
    """
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def has_ancestor_in(parent, group):
    """True for spans with some ancestor in ``group``.

    Each pass reaches one level further up; the loop ends after as many
    passes as the span tree is deep.
    """
    has_parent = parent >= 0
    out = np.zeros(len(parent), dtype=bool)
    while True:
        up = np.zeros_like(out)
        up[has_parent] = (group | out)[parent[has_parent]]
        if np.array_equal(up, out):
            return out
        out = up


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (
            inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not attr.startswith("_")
        ):
            yield attr, obj


@contextmanager
def instrumented(recorder):
    """Rebind every hlsp binding of the layers' public functions to a span wrapper."""
    layers = {layer: importlib.import_module(f"hlsp.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in layers.items():
        for attr, fn in _public_functions(module):
            hook = recorder.count_staged_columns if fn.__name__ == "staged_rrqr" else None
            wrappers[fn] = recorder.wrap(f"{layer}.{attr}", fn, hook)
    patched = []
    try:
        for modname, module in list(sys.modules.items()):
            if modname != "hlsp" and not modname.startswith("hlsp."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    patched.append((module, attr, obj))
        for layer, cls_name, meth in CLASS_METHODS:
            cls = getattr(layers[layer], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, recorder.wrap(f"{layer}.{cls_name}.{meth}", fn))
            patched.append((cls, meth, fn))
        yield recorder
    finally:
        for owner, attr, obj in reversed(patched):
            setattr(owner, attr, obj)
