"""Span tracer that wraps ``treetrace``'s public functions from outside.

``install`` replaces each public function of the traced modules by a
wrapper, both on its own module and under every name another module
imported it as (``cli.q_form``, ``surgery.q_form``, the package attribute).
A wrapper records nothing unless an operation is open, so the workload's
own checks stay out of the trace.  Each span is
``(name, start, end, parent span index, operation id)``; spans stay in
memory and are written out when the run ends.

Per-term leaf helpers are left unwrapped: they run millions of times per
run, a span each would swamp the timings, and their time lands in the
caller's self time instead.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

MODULES = ("exact", "symplectic", "trees", "forms", "surgery", "grammar",
           "cli")
LEAF_HELPERS = {
    "exact.scalar",
    "symplectic.a", "symplectic.b", "symplectic.hvec",
    "symplectic.label_omega", "symplectic.label_omega_bar",
    "symplectic.generator_label_image", "symplectic.max_index",
    "trees.tree", "trees.key_labels", "trees.s2l2_max_index",
    "forms.key_bidegree", "forms.nabla_pair",
    "surgery.conway_coefficient", "surgery.jones_h_derivative",
}


def _terms(value) -> int:
    # A bare tuple is one basic tensor; anything else is a FreeVec.
    return 1 if isinstance(value, tuple) else len(value)


# Work counts taken at a boundary: name -> fn(args, result) -> {counter: n}.
COUNTERS = {
    "trees.tau2_bscc_twist": lambda args, out: {"terms_out": len(out)},
    "forms.nabla": lambda args, out: {
        "term_pairs": len(args[0]) * len(args[1])},
    "symplectic.coinvariant_reduce": lambda args, out: {
        "terms_in": _terms(args[0]), "terms_out": len(out)},
    "symplectic.gl_generator_action": lambda args, out: {
        "terms_out": len(out)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._op = None

    def _bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
            if count is not None:
                for key, n in count(args, out).items():
                    self._bump("%s.%s" % (name, key), n)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every public function of the traced modules, under all the
        names it is bound to, and count ``FreeVec.__init__`` calls."""
        package = sys.modules["treetrace"]
        modules = [package] + [sys.modules["treetrace." + m] for m in MODULES]
        for short in MODULES:
            module = sys.modules["treetrace." + short]
            for attr, fn in list(vars(module).items()):
                name = "%s.%s" % (short, attr)
                if (attr.startswith("_") or isinstance(fn, type)
                        or not callable(fn) or name in LEAF_HELPERS
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                wrapper = self.wrap(name, fn)
                for other in modules:
                    for alias, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, alias, wrapper)
        freevec = sys.modules["treetrace.exact"].FreeVec
        init = freevec.__init__

        def counted_init(vec, *args, **kwargs):
            if self._op is not None:
                self._bump("exact.FreeVec.inits")
            init(vec, *args, **kwargs)

        freevec.__init__ = counted_init

    @contextmanager
    def operation(self, op_id: int, kind: str):
        """Open operation ``op_id``: a root span that every wrapped call
        made inside it nests under."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._op = op_id
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._op = None
            self._stack.pop()
            self.spans[index] = ("bench." + kind, start, end, None, op_id)


def self_times(spans: list) -> list:
    """Each span's duration less the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarise(spans: list, scale: dict) -> dict:
    """Per-function calls and normalised self milliseconds, the first call's
    normalised duration, and a check that the self times of each
    operation's spans add up to its root span.  ``scale`` maps operation id
    to the normalisation factor of the chunk it ran in."""
    calls, self_ms, first_ms, roots, by_op = {}, {}, {}, {}, {}
    for (name, start, end, parent, op), mine in zip(spans, self_times(spans)):
        f = scale[op] * 1e3
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + mine * f
        by_op[op] = by_op.get(op, 0.0) + mine * f
        first_ms.setdefault(name, (end - start) * f)
        if parent is None:
            roots[op] = (end - start) * f
    worst = max((abs(by_op[op] - roots[op]) for op in roots), default=0.0)
    return {"calls": calls, "self_ms": self_ms, "first_ms": first_ms,
            "op_ms": sum(roots.values()), "identity_error_ms": worst}
