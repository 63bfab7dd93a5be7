"""Layer tracing from outside the program.

The tracer wraps public functions and methods of volcalc's modules (the
layer table below) for the duration of a traced round and records one span
(name, start, end, parent) per call, plus counts.  Every binding of a
wrapped object is replaced, including names imported into other volcalc
modules (heatexp's `parametrix`, volterra's `gaussian_moment`, ...), and
restored afterwards.  Nothing under src/ changes.

A layer's self time is its span's duration minus the time its child spans
cover.  Each job is a root span, so the self times of all spans add up to
the jobs' wall time.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, span name or None, call counter or None)
LAYERS = (
    ("symcore", "CoefficientField.__init__", None, "symcore.fields_built"),
    ("symcore", "CoefficientField.__mul__", "symcore.field_mul", "symcore.field_mul_calls"),
    ("symcore", "CoefficientField.evaluate", "symcore.field_eval", "symcore.field_eval_calls"),
    ("symcore", "ParabolicSymbol.deriv", "symcore.symbol_deriv", None),
    ("volterra", "parametrix", "volterra.parametrix", None),
    ("volterra", "sharp_exact", "volterra.sharp", None),
    ("volterra", "sharp_product", "volterra.sharp", None),
    ("volterra", "CausalKernel.diagonal_value", "volterra.diagonal_value",
     "volterra.diagonal_value_calls"),
    ("volterra", "causality_check", "volterra.causality", None),
    ("deform", "homogeneity_defect", "deform.homogeneity_defect", None),
    ("moments", "gaussian_moment", "moments.gaussian_moment", "moments.gaussian_moment_calls"),
    ("heatexp", "heat_coefficients", "heatexp.heat_coefficients", None),
    ("semigroup", "discretize", "semigroup.discretize", None),
    ("semigroup", "fit_diagonal_expansion", "semigroup.fit", None),
    ("semigroup", "dunford_heat", "semigroup.dunford", None),
    ("semigroup", "heat_diagonal", "semigroup.heat_diagonal", None),
    ("semigroup", "log_coefficient_estimate", "semigroup.log_ladder", None),
    ("semigroup", "hy_heat", "semigroup.hy_heat", None),
    ("semigroup", "matrix_heat_reference", "semigroup.reference", None),
)


def _amplitude_count(res):
    return sum(len(c.amplitudes) for c in res.symbol.term_map().values())


def _contour_solves(args, kwargs, out):
    import volcalc.semigroup as sg

    t = args[1] if len(args) > 1 else kwargs["t"]
    quad = (args[2] if len(args) > 2 else kwargs.get("quad")) or sg.default_quadrature(t)
    return 2 * len(quad.nodes(t)[0])


# counters read from a call's result: name -> (args, kwargs, result) -> int
OUTPUT_COUNTS = {
    "volterra.parametrix": ("volterra.symbol_amplitudes",
                            lambda a, k, out: _amplitude_count(out)),
    "semigroup.discretize": ("semigroup.galerkin_modes", lambda a, k, out: out.size),
    "semigroup.dunford": ("semigroup.contour_solves", _contour_solves),
}


class Tracer:
    """Span and count recorder; `install` wraps the layers, `remove` restores them."""

    def __init__(self):
        self.on = False
        self.spans = []      # [name, start, end, parent index]
        self.counts = {}
        self.self_s = {}
        self._stack = []     # (span index, child time accumulator)
        self._patches = []

    def reset(self):
        self.spans, self.counts, self.self_s, self._stack = [], {}, {}, []

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append([idx, 0.0])

    def _close(self):
        end = time.perf_counter()
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        self.self_s[span[0]] = self.self_s.get(span[0], 0.0) + dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def run_job(self, fn):
        """Run one job as a root span with recording switched on."""
        self.on = True
        self._open("job")
        try:
            return fn()
        finally:
            self._close()
            self.on = False

    def _wrap(self, fn, span, counter):
        tracer = self
        post = OUTPUT_COUNTS.get(span)

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if counter:
                tracer.count(counter)
            if span is None:
                return fn(*args, **kwargs)
            tracer._open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if post:
                tracer.on = False
                try:
                    tracer.count(post[0], post[1](args, kwargs, out))
                finally:
                    tracer.on = True
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "volcalc" or name.startswith("volcalc.")) and m is not None]
        for modname, attr, span, counter in LAYERS:
            module = sys.modules[f"volcalc.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._wrap(orig, span, counter)
                for key, val in list(cls.__dict__.items()):
                    if val is orig:  # aliases such as __rmul__ = __mul__
                        self._patches.append((cls, key, val))
                        setattr(cls, key, wrapped)
            else:
                orig = getattr(module, attr)
                wrapped = self._wrap(orig, span, counter)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, key, val))
                            setattr(mod, key, wrapped)

    def remove(self):
        for owner, key, val in reversed(self._patches):
            setattr(owner, key, val)
        self._patches = []

    def layer_names(self):
        names = {span for _, _, span, _ in LAYERS if span}
        return sorted(names)

    def counter_names(self):
        names = {c for _, _, _, c in LAYERS if c}
        names.update(name for name, _ in OUTPUT_COUNTS.values())
        return sorted(names)
