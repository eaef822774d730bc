"""Per-layer spans, recorded from outside the package.

A :class:`Tracer` keeps one aggregate per span name: the number of calls
and the self time, which is the span's duration minus the time covered
by the spans opened inside it.  :func:`patched` wraps the named functions
of each package module for the duration of a ``with`` block and puts
every original back afterwards.

A function is patched wherever it is looked up: on its class for methods
(including aliases such as ``__radd__ = __add__``), and in every loaded
``puiseux`` module that bound it by name (``from .series import
substitute_series`` binds a second reference).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from fractions import Fraction

# module -> qualified names.  Each gets <module>.<qualname>.calls and .self_s.
TARGETS = {
    "series": ("PuiseuxSeries.__init__", "PuiseuxSeries.__mul__",
               "PuiseuxSeries.__add__", "PuiseuxSeries.pow_rational",
               "PuiseuxSeries.invert", "substitute_series"),
    "coefficients": ("poly_roots", "ParamPoly.__mul__", "ParamPoly.__add__",
                     "AlgebraicNumber.__mul__", "AlgebraicNumber.inverse"),
    "polyutils": ("rational_roots", "isolate_real_roots", "irreducible_factors"),
    "contour": ("Contour.breaking_points",),
    "algebraic": ("solve_algebraic", "recenter", "breaking_data"),
    "ode": ("solve_all", "initial_terms", "continue_proper",
            "solve_algebraic_type", "MonomialODE.substitute", "verify_branch",
            "expand_rational"),
    "ratfunc": ("RatFunc.__mul__", "RatFunc.__add__"),
    "parsing": ("parse_algebraic_equation", "parse_ode",
                "parse_integral_factor_problem"),
    "liouville": ("Element.__mul__", "Element.__add__", "Element.differentiate"),
    "first_integrals": ("solve_w", "verify_constant", "ghost_roots"),
    "cli": ("main",),
}


class Tracer:
    """Aggregated spans and counters; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}  # name -> [calls, self seconds]
        self.counts = {}  # name -> number (sums and maxima read at call sites)
        self._open = []  # [name, start, seconds covered by child spans]

    def enter(self, name):
        self._open.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, child = self._open.pop()
        span = self.clock() - start
        rec = self.spans.setdefault(name, [0, 0.0])
        rec[0] += 1
        rec[1] += span - child
        if self._open:
            self._open[-1][2] += span

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    def observe(self, observer, args, result):
        """Run ``observer``; its time counts as child time of the open span,
        so that it lands in no layer's self time."""
        start = self.clock()
        observer(self, args, result)
        if self._open:
            self._open[-1][2] += self.clock() - start

    def wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                tracer.observe(observe, args, result)
            return result

        return traced


# -- observers: counts read from arguments and results ---------------------------


def _mul_pairs(tracer, args, _result):
    a, b = args[0], args[1]
    if hasattr(b, "terms"):
        tracer.add("series.mul.term_pairs", len(a.terms) * len(b.terms))


def _root_search(tracer, _args, result):
    if result.unresolved is not None:
        tracer.add("coefficients.poly_roots.unresolved_calls", 1)


def _rational_roots_input(tracer, args, _result):
    p = [Fraction(c) for c in args[0]]
    while p and not p[-1]:
        p.pop()
    tracer.maximum("polyutils.rational_roots.degree_max", len(p) - 1)
    bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in p), default=0)
    tracer.maximum("polyutils.rational_roots.coeff_bits_max", bits)


OBSERVERS = {
    "series.PuiseuxSeries.__mul__": _mul_pairs,
    "coefficients.poly_roots": _root_search,
    "polyutils.rational_roots": _rational_roots_input,
}


# -- patching ----------------------------------------------------------------------


PACKAGE = "puiseux"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and name.split(".")[0] == PACKAGE]


def _bindings(module, qualname):
    """Every (owner, attribute) through which callers reach the target."""
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *classes, attr = qualname.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = owner.__dict__[attr]
    if classes:
        return original, [(owner, a) for a, v in vars(owner).items()
                          if v is original]
    return original, [(m, a) for m in _package_modules()
                      for a, v in vars(m).items() if v is original]


@contextlib.contextmanager
def patched(tracer):
    """Wrap every target with a span named ``<module>.<qualname>``."""
    saved = []
    try:
        for module, names in TARGETS.items():
            for qualname in names:
                name = f"{module}.{qualname}"
                original, where = _bindings(module, qualname)
                wrapper = tracer.wrap(name, original, OBSERVERS.get(name))
                for owner, attr in where:
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer):
    """``<name>.calls`` and ``<name>.self_s`` for every target, plus counts."""
    out = {}
    for module, names in TARGETS.items():
        for qualname in names:
            name = f"{module}.{qualname}"
            calls, self_s = tracer.spans.get(name, (0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
    counts = tracer.counts
    out["series.mul.term_pairs"] = (counts.get("series.mul.term_pairs", 0), "count")
    calls = tracer.spans.get("coefficients.poly_roots", (0, 0.0))[0]
    unresolved = counts.get("coefficients.poly_roots.unresolved_calls", 0)
    out["coefficients.poly_roots.unresolved"] = (
        unresolved / calls if calls else 0.0, "ratio")
    for key in ("polyutils.rational_roots.degree_max",
                "polyutils.rational_roots.coeff_bits_max"):
        out[key] = (counts.get(key, 0), "count")
    return out
