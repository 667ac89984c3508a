"""Spans and counters around superell's layer boundaries, from outside.

A span wraps one public function or method of a layer.  Wrapping replaces
the original object wherever superell binds it: the defining module, every
``from .x import y`` copy in the other modules, and the package namespace,
so ``superell.cartier.count_points`` is traced as well as
``superell.curve.count_points``.  Each call records (name, start, end,
parent); self time is a span's duration less the durations of its direct
children.

The ``ff`` operator counts come from a separate counting pass whose
wrappers only increment a counter, so their cost never enters a span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, qualified name) of every span, named "<module>.<qualname>".
SPANS = (
    ("cli", "main"),
    ("exprparse", "parse_curve"),
    ("ff", "make_field"),
    ("poly", "Polynomial.eval"),
    ("poly", "Polynomial.__mul__"),
    ("poly", "poly_pow"),
    ("linalg", "FieldMatrix.charpoly"),
    ("linalg", "FieldMatrix.nullspace"),
    ("linalg", "FieldMatrix.rank"),
    ("linalg", "FieldMatrix.__matmul__"),
    ("linalg", "spin"),
    ("linalg", "is_invariant_subspace"),
    ("curve", "count_points"),
    ("cartier", "hasse_witt"),
    ("cartier", "classify_p_rank"),
    ("cartier", "crosscheck_superspecial"),
    ("canrep", "canonical_module"),
    ("canrep", "decide_irreducibility"),
    ("canrep", "_sample_algebra_element"),
)

# Work measured at a span boundary: span name -> f(args, result).
WORK = {
    "curve.count_points": ("curve.points_enumerated", lambda args, res: args[0].p ** args[1]),
    "linalg.spin": ("linalg.spin.dim_sum", lambda args, res: len(res)),
}

# Counted, never timed.
COUNTED = (
    ("ff", "FieldElement.__mul__"),
    ("ff", "FieldElement.__add__"),
    ("ff", "FieldElement.__sub__"),
    ("ff", "FieldElement.__pow__"),
)


def _resolve(module: str, qualname: str):
    """(owner, attribute, original) for a superell function or method."""
    owner = sys.modules[f"superell.{module}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Patches:
    """Replaces objects everywhere superell binds them; undone by restore()."""

    def __init__(self):
        self._undo = []

    def replace(self, module: str, qualname: str, make_wrapper):
        owner, attr, original = _resolve(module, qualname)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "superell" or name.startswith("superell.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Records spans per operation and folds them into per-name totals."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index) of the current op
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self.calls_under = defaultdict(int)     # (name, parent name) -> calls
        self.self_s_under = defaultdict(float)
        self._stack = []
        self._patches = Patches()

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack      # shared by all wrappers, so parents cross layers
        clock = time.perf_counter
        work = WORK.get(name)
        totals = self.work

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if work is not None:
                totals[work[0]] += work[1](args, result)
            return result

        return traced

    def install(self):
        for module, qualname in SPANS:
            name = f"{module}.{qualname}"
            self._patches.replace(module, qualname, lambda fn, name=name: self._wrap(name, fn))

    def uninstall(self):
        self._patches.restore()

    def fold(self):
        """Add the current op's spans to the totals and clear them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            own = end - start - child[i]
            self.calls[name] += 1
            self.self_s[name] += own
            if parent >= 0:
                key = (name, spans[parent][0])
                self.calls_under[key] += 1
                self.self_s_under[key] += own
        spans.clear()


class Counter:
    """Counts calls of the ff operators; adds no timing of its own."""

    def __init__(self):
        self.calls = {f"{m}.{q}": 0 for m, q in COUNTED}
        self._patches = Patches()

    def install(self):
        for module, qualname in COUNTED:
            self._patches.replace(module, qualname, lambda fn, name=f"{module}.{qualname}": self._count(name, fn))

    def _count(self, name, fn):
        calls = self.calls

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    def uninstall(self):
        self._patches.restore()
