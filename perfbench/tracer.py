"""Spans around the package's layer entry points, recorded from outside.

``install`` replaces each entry point below with a wrapper that records a
span (name, start, end, parent) in memory. The replacement is made in the
defining module and in every module of the package that imported the same
function by name (``spectrum.factor_dense``, ``morphism.factor_dense``,
``noether.factor_dense``, ``noether.groebner_basis``), so no call path
escapes. A call made while a span of the same name is open is folded into
that span: ``is_irreducible`` calling ``_is_irreducible_dense``, or
``enumerate_points`` recursing, counts once.

Nothing is patched unless ``install`` is called; untraced runs never import
this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

PACKAGE = "scheme_explorer"

# (module, function, span name)
FUNCTIONS = (
    ("arith", "factor_dense", "arith.factor_dense"),
    ("arith", "is_irreducible", "arith.is_irreducible"),
    ("arith", "_is_irreducible_dense", "arith.is_irreducible"),
    ("algebra", "groebner_basis", "algebra.groebner_basis"),
    ("algebra", "normal_form_list", "algebra.normal_form"),
    ("spectrum", "enumerate_points", "spectrum.enumerate_points"),
    ("spectrum", "closure_fiber_points", "spectrum.closure_fiber_points"),
    ("morphism", "fiber", "morphism.fiber"),
    ("noether", "noether_normalize", "noether.noether_normalize"),
    ("proj", "segre_kernel", "proj.kernel"),
    ("proj", "veronese_kernel", "proj.kernel"),
    ("proj", "conic_kernel", "proj.kernel"),
    ("sheaf", "structure_sheaf", "sheaf.structure_sheaf"),
    ("sheaf", "sheafify", "sheaf.sheafify"),
    ("dsl", "parse", "dsl.parse"),
    ("cli", "run_script", "cli.run_script"),
    ("cli", "render_json", "cli.render"),
)

# (module, class, method, span name)
METHODS = (
    ("multipoly", "Poly", "__add__", "multipoly.poly_arith"),
    ("multipoly", "Poly", "__sub__", "multipoly.poly_arith"),
    ("multipoly", "Poly", "__mul__", "multipoly.poly_arith"),
    ("sheaf", "LocalizedFiniteRing", "__init__", "sheaf.localized_ring"),
)

# Counted, not timed: one Cantor-Zassenhaus random draw.
COUNTED = (("arith", "_random_elem", "arith.cz_draws.calls"),)

MODULES = ("arith", "multipoly", "algebra", "spectrum", "morphism", "noether",
           "proj", "sheaf", "dsl", "cli")


class Tracer:
    """In-memory spans plus counters measured at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # (name id, start, end, parent span index or -1)
        self._stack = []
        self._depth = []
        self.counters = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def active(self, name):
        return name in self._ids and self._depth[self._ids[name]] > 0

    def bump(self, counter, k=1):
        self.counters[counter] = self.counters.get(counter, 0) + k

    def wrap(self, name, fn, observe=None):
        nid = self._id(name)
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth[nid]:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            depth[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[nid] -= 1
                spans[idx] = (nid, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def counted(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.bump(counter)
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters}, handle)


def install(tracer):
    """Wrap every entry point; returns the patched 'module.attr' names."""
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    observers = _observers(tracer)
    patched = []

    def replace(orig, new):
        for mname, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    patched.append(f"{mname}.{attr}")

    for mname, fname, span in FUNCTIONS:
        orig = getattr(mods[mname], fname)
        replace(orig, tracer.wrap(span, orig, observers.get(fname)))
    for mname, fname, counter in COUNTED:
        orig = getattr(mods[mname], fname)
        replace(orig, tracer.counted(counter, orig))
    for mname, cname, meth, span in METHODS:
        cls = getattr(mods[mname], cname)
        setattr(cls, meth, tracer.wrap(span, getattr(cls, meth)))
        patched.append(f"{mname}.{cname}.{meth}")
    return patched


def _observers(tracer):
    def normal_form(args, result):
        # useful work of Buchberger: reductions that did not reach zero
        if tracer.active("algebra.groebner_basis"):
            tracer.bump("algebra.normal_form.in_gb")
            if not result.is_zero():
                tracer.bump("algebra.normal_form.in_gb_nonzero")

    def sheafify(args, result):
        presheaf, (sheaf, _) = args[0], result
        space = presheaf.space
        for u in space.opens:
            size = 1
            for x in u:
                size *= len(presheaf.stalk(x))
            tracer.bump("sheaf.sheafify.families", size)
            tracer.bump("sheaf.sheafify.kept", len(sheaf.sections[u]))

    def render(args, result):
        tracer.bump("cli.render.bytes", len(result))

    return {"normal_form_list": normal_form, "sheafify": sheafify, "render_json": render}


def summarize(names, spans):
    """Per span name: calls and self time (duration minus child spans)."""
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "self_s": 0.0} for name in names}
    for i, (nid, start, end, parent) in enumerate(spans):
        rec = out[names[nid]]
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child[i]
    return out
