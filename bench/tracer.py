"""Spans around circumlib's public functions, recorded from outside the library.

Each traced function is replaced, for the duration of a `Tracer.installed()`
block, in every circumlib namespace that binds it, so the wrapper runs
wherever a caller looks the name up (`from .linalg import gram` in
circumcenter.py binds its own `gram`). Methods are replaced on their class.
Spans are kept in memory as [name, parent, start, end]; a layer's self time
is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter

# (metric prefix, module, attribute). A dotted attribute names a method of a
# class defined in that module; `Problem` is traced through its constructor.
TRACED = [
    ("linalg.gram", "circumlib.linalg", "gram"),
    ("linalg.solve_spd", "circumlib.linalg", "solve_spd"),
    ("linalg.max_independent_subset", "circumlib.linalg", "max_independent_subset"),
    ("linalg.orthonormalize", "circumlib.linalg", "orthonormalize"),
    ("circumcenter.circumcenter", "circumlib.circumcenter", "circumcenter"),
    ("circumcenter.dedup", "circumlib.circumcenter", "dedup"),
    ("circumcenter.verify_equidistant", "circumlib.circumcenter", "verify_equidistant"),
    ("circumcenter.circumcenter_gram", "circumlib.circumcenter", "circumcenter_gram"),
    ("affine.reflect", "circumlib.affine", "reflect"),
    ("affine.project", "circumlib.affine", "project"),
    ("affine.distance_to", "circumlib.affine", "distance_to"),
    ("affine.from_span", "circumlib.affine", "from_span"),
    ("affine.intersect", "circumlib.affine", "intersect"),
    ("affine.friedrichs_cos", "circumlib.affine", "friedrichs_cos"),
    ("solvers.run", "circumlib.solvers", "run"),
    ("solvers.cdrm_step", "circumlib.solvers", "cdrm_step"),
    ("solvers.crm_step", "circumlib.solvers", "crm_step"),
    ("solvers.dr_step", "circumlib.solvers", "dr_step"),
    ("solvers.map_step", "circumlib.solvers", "map_step"),
    ("solvers.Problem", "circumlib.solvers", "Problem.__init__"),
    ("problems.Xorshift64Star.orthogonal", "circumlib.problems", "Xorshift64Star.orthogonal"),
    ("problems.Xorshift64Star.normal_vector", "circumlib.problems", "Xorshift64Star.normal_vector"),
    ("problems.generate_two_subspace", "circumlib.problems", "generate_two_subspace"),
    ("problems.load_problem", "circumlib.problems", "load_problem"),
    ("problems.save_problem", "circumlib.problems", "save_problem"),
    ("problems.load_points", "circumlib.problems", "load_points"),
    ("cli.main", "circumlib.cli", "main"),
]

METHODS = ("cdrm", "crm", "dr", "map")


class Tracer:
    """Records spans and result counts while installed."""

    def __init__(self):
        self._stack: list[int] = []
        self.reset()

    def reset(self):
        self.spans: list[list] = []
        self.exists = 0
        self.iters = {m: 0 for m in METHODS}

    def _on_result(self, name: str, result):
        if name == "circumcenter.circumcenter" and not result.is_empty:
            self.exists += 1
        elif name == "solvers.run":
            self.iters[result.method.value] += result.num_steps

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            self._on_result(name, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced function for the duration of the block."""
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "circumlib" or key.startswith("circumlib.")
        ]
        undo = []
        try:
            for name, module, attr in TRACED:
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig))
                    continue
                orig = getattr(owner, attr)
                wrapper = self._wrap(name, orig)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            undo.append((ns, key, orig))
                            setattr(ns, key, wrapper)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per traced name over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: (0, 0.0) for name, _, _ in TRACED}
        for i, (name, _, t0, t1) in enumerate(self.spans):
            calls, self_s = out[name]
            out[name] = (calls + 1, self_s + (t1 - t0) - child[i])
        return out
