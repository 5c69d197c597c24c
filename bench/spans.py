"""In-process tracing of hopfgalois, from outside the package.

``Tracer.install()`` replaces the public callables of each module (the
layers) with wrappers that time every call.  A wrapper keeps a stack of
open calls, so a call's self time is its duration minus the time covered
by wrapped calls made inside it.  Two kinds of record are kept:

* driver functions (catalog, verify, stabilizer, hcmod, spherical, cli)
  are stored as individual spans, each with its own id and the id of the
  enclosing driver span;
* arithmetic functions (numberfield, params, polyring, linalg, smash) are
  called millions of times, so they are aggregated per (function,
  enclosing driver span) into a count, an inclusive time and a child
  time, which keeps the trace's memory bounded.

A function bound into other modules by ``from .x import f`` is replaced in
every loaded hopfgalois module that holds it.  ``uninstall()`` restores
the originals.
"""

from __future__ import annotations

import sys
import time
import types

PACKAGE = "hopfgalois"

# layer -> [(class name, or None for module level; attribute names, or
# None for every public function defined in the module)].  A class marked
# in OPERATOR_CLASSES also gets every operator in OPERATORS it defines.
OPERATORS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
             "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
             "__pow__", "__eq__")
OPERATOR_CLASSES = frozenset(("ParamElem", "Poly", "RatFunc", "SmashElement"))
TARGETS = {
    "numberfield": [("NumberField", ("add", "sub", "mul", "inv", "div"))],
    "params": [("ParamElem", ("inverse",))],
    "polyring": [("Poly", ("substitute",)),
                 ("RatFunc", ("inverse", "__init__", "substitute")),
                 (None, ("try_divide", "taylor_jet"))],
    "linalg": [(None, None)],
    "smash": [("SmashElement", ("scale", "apply")),
              ("Setting", ("gp_act", "validate")),
              ("InfGenerator", ("act",))],
    "catalog": [(None, None)],
    "verify": [(None, None)],
    "stabilizer": [(None, None)],
    "hcmod": [(None, None)],
    "spherical": [(None, None), (None, ("_word_pool",))],
    "cli": [(None, None)],
}
AGGREGATED = frozenset(("numberfield", "params", "polyring", "linalg",
                        "smash"))
LAYERS = tuple(TARGETS)


def param_terms(x):
    return len(x.num) + len(x.den)


def ratfunc_terms(rf):
    """Parameter-polynomial terms summed over every coefficient of num and den."""
    return sum(param_terms(c) for p in (rf.num, rf.den)
               for c in p.terms.values())


def smash_terms(el):
    """Numerator-plus-denominator terms summed over the element's coefficients."""
    return sum(len(rf.num.terms) + len(rf.den.terms) for rf in el.terms.values())


class Tracer:
    """Span stack, aggregated records, stored spans and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []       # child time accumulated by each open call
        self.agg = {}         # (name, parent span id) -> [count, incl, child]
        self.spans = []       # [id, name, parent id, start, end, child]
        self.current = 0      # id of the innermost open stored span
        self.depth = {layer: 0 for layer in LAYERS}
        self.outer_incl = {layer: 0.0 for layer in LAYERS}
        self.counters = {"numberfield.ext_calls": 0, "polyring.ratfunc_new": 0,
                         "polyring.try_divide_found": 0, "linalg.cells": 0,
                         "spherical.morita_products": 0, "hcmod.module_dim": 0}
        self.peaks = {"params.peak_terms": 0, "polyring.peak_terms": 0,
                      "smash.peak_terms": 0, "linalg.max_rows": 0,
                      "linalg.max_cols": 0}
        self._patched = []    # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name, layer, hook=None):
        """A timed stand-in for ``fn``; ``hook(args, kwargs, result, outer)``
        runs after each call that returns."""
        stack = self.stack
        clock = self.clock
        depth = self.depth
        outer_incl = self.outer_incl
        stored = layer not in AGGREGATED
        agg = self.agg
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            outer = depth[layer] == 0
            depth[layer] += 1
            parent = tracer.current
            if stored:
                span = [len(spans) + 1, name, parent, 0.0, 0.0, 0.0]
                spans.append(span)
                tracer.current = span[0]
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                depth[layer] -= 1
                if outer:
                    outer_incl[layer] += elapsed
                if stored:
                    span[3] = start
                    span[4] = end
                    span[5] = frame[0]
                    tracer.current = parent
                else:
                    rec = agg.get((name, parent))
                    if rec is None:
                        agg[(name, parent)] = [1, elapsed, frame[0]]
                    else:
                        rec[0] += 1
                        rec[1] += elapsed
                        rec[2] += frame[0]
            if hook is not None:
                hook(args, kwargs, result, outer)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counter hooks ---------------------------------------------------------

    def _bump(self, key, n=1):
        self.counters[key] += n

    def _peak(self, key, value):
        if value > self.peaks[key]:
            self.peaks[key] = value

    def _hook_for(self, layer, cls_name, attr):
        if layer == "numberfield":
            def hook(args, kwargs, result, outer):
                if args[0].degree > 1:
                    self._bump("numberfield.ext_calls")
            return hook
        if layer == "params":
            def hook(args, kwargs, result, outer):
                if result is not NotImplemented and hasattr(result, "den"):
                    self._peak("params.peak_terms", param_terms(result))
            return hook
        if cls_name == "RatFunc" and attr == "__init__":
            def hook(args, kwargs, result, outer):
                if not (kwargs.get("_normalized") or
                        (len(args) > 3 and args[3])):
                    self._bump("polyring.ratfunc_new")
                self._peak("polyring.peak_terms", ratfunc_terms(args[0]))
            return hook
        if attr == "try_divide":
            def hook(args, kwargs, result, outer):
                if result is not None:
                    self._bump("polyring.try_divide_found")
            return hook
        if layer == "linalg":
            def hook(args, kwargs, result, outer):
                rows = args[0] if args else None
                if outer and isinstance(rows, list) and rows \
                        and isinstance(rows[0], list):
                    self._peak("linalg.max_rows", len(rows))
                    self._peak("linalg.max_cols", len(rows[0]))
                    self._bump("linalg.cells", len(rows) * len(rows[0]))
            return hook
        if cls_name == "SmashElement":
            def hook(args, kwargs, result, outer):
                if hasattr(result, "setting") and hasattr(result, "terms"):
                    self._peak("smash.peak_terms", smash_terms(result))
            return hook
        if attr == "_word_pool":
            def hook(args, kwargs, result, outer):
                self._bump("spherical.morita_products", len(result) ** 2)
            return hook
        if attr == "cyclic_module":
            def hook(args, kwargs, result, outer):
                self._bump("hcmod.module_dim", result.dim)
            return hook
        return None

    # -- patching --------------------------------------------------------------

    def install(self):
        """Wrap every target callable; the package must already be imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or
                                         n.startswith(PACKAGE + "."))]
        for layer, groups in TARGETS.items():
            module = sys.modules["%s.%s" % (PACKAGE, layer)]
            for cls_name, attrs in groups:
                if cls_name is not None:
                    cls = getattr(module, cls_name)
                    if cls_name in OPERATOR_CLASSES:
                        attrs = attrs + tuple(op for op in OPERATORS
                                              if op in cls.__dict__)
                    for attr in attrs:
                        original = cls.__dict__[attr]
                        name = "%s.%s.%s" % (layer, cls_name, attr)
                        self._set(cls, attr, original, self.wrap(
                            original, name, layer,
                            self._hook_for(layer, cls_name, attr)))
                    continue
                for attr in (attrs or public_functions(module)):
                    original = getattr(module, attr)
                    wrapper = self.wrap(original, "%s.%s" % (layer, attr),
                                        layer, self._hook_for(layer, None, attr))
                    for holder in modules:
                        for key, value in list(vars(holder).items()):
                            if value is original:
                                self._set(holder, key, original, wrapper)

    def _set(self, owner, attr, original, replacement):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def dump(self):
        """The trace as plain data: aggregated records, spans and counters."""
        return {
            "records": [[name, parent, c, incl, child]
                        for (name, parent), (c, incl, child)
                        in sorted(self.agg.items())],
            "spans": self.spans,
            "outer_incl": self.outer_incl,
            "counters": dict(self.counters, **self.peaks),
        }


def public_functions(module):
    """Names of the public functions defined in (not imported into) a module."""
    return sorted(name for name, value in vars(module).items()
                  if isinstance(value, types.FunctionType)
                  and not name.startswith("_")
                  and value.__module__ == module.__name__)
