"""Per-layer tracing of fdq from outside the package.

A layer is one ``fdq`` module.  ``Tracer.install`` wraps every public
function of a layer and every public or arithmetic method of its classes.
Function wrappers replace each binding of the original in every ``fdq.*``
module (modules import each other with ``from .x import y``); class methods
are patched on the class.

Each wrapped call is a span with a name, a start, an end and a parent (the
enclosing span).  Spans are aggregated as they close, because a run opens
millions of them: a layer's self time is the duration of its spans minus the
time their child spans cover.  Everything runs on one thread, so no layer
waits on another and busy time is self time.  Spans are recorded only while
``active`` is set, so the benchmark's own checks stay out of the figures.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("series", "observables", "star", "functionals", "diffops", "reps",
          "matrices", "modules", "exprio", "cli")

# Arithmetic dunders are where the series and observable layers do their
# work; other dunders (__init__, __eq__, __hash__, __repr__) are left alone.
_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__neg__", "__matmul__", "__pow__", "__call__"}

# Private functions wrapped for their counters: the elimination core.
_PRIVATE = {"matrices": {"_echelonize"}}

_PARSE = {"parse", "parse_series"}
_JSON = {"serialize", "deserialize"}


class _Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_time")

    def __init__(self, name, layer, start, parent):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.child_time = 0.0


class Tracer:
    """Installs span wrappers on fdq and aggregates them into layer metrics."""

    def __init__(self):
        self.active = False
        self.current = None
        self.calls = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.raised = dict.fromkeys(LAYERS, 0)
        self.exprio_s = {"parse": 0.0, "print": 0.0, "json": 0.0}
        self.parse_bytes = 0
        self.parse_calls = 0
        self.max_terms = 0
        self.term_pairs = 0
        self.distinct_pairs = set()
        self.samples = 0
        self.pivots = 0
        self.psd_minors = 0
        self.nonzero_exits = 0
        self.precision_exhausted = 0

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every layer; rebind wrapped functions in every fdq.* module."""
        import fdq.cli  # noqa: F401  (imports every layer)
        from fdq.errors import PrecisionExhausted
        from fdq.observables import PolyObservable

        self._precision_exhausted = PrecisionExhausted
        self._poly = PolyObservable
        self._hook_map = self._hooks()
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"fdq.{layer}"]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) and not name.startswith("_"):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and (
                        not name.startswith("_")
                        or name in _PRIVATE.get(layer, ())):
                    replaced[obj] = self._wrap(layer, name, obj)
        targets = [m for n, m in list(sys.modules.items())
                   if n == "fdq" or n.startswith("fdq.")]
        for module in targets:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, name, replaced[obj])

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            span = f"{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                setattr(cls, name,
                        classmethod(self._wrap(layer, span, attr.__func__)))
            elif isinstance(attr, staticmethod):
                setattr(cls, name,
                        staticmethod(self._wrap(layer, span, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(layer, span, attr))

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        self.calls[key] = 0
        hook = self._hook_map.get(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            parent = tracer.current
            span = _Span(name, layer, perf_counter(), parent)
            tracer.current = span
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span)
                tracer._raised(span, exc)
                raise
            tracer._close(span)
            if hook is not None:
                hook(args, result, span)
            return result

        return wrapper

    def _close(self, span):
        span.end = perf_counter()
        duration = span.end - span.start
        self.self_s[span.layer] += duration - span.child_time
        parent = self.current = span.parent
        if parent is not None:
            parent.child_time += duration
        if span.layer == "exprio" and (parent is None
                                       or not _inside(parent, "exprio")):
            if span.name in _PARSE:
                self.exprio_s["parse"] += duration
            elif span.name in _JSON or "json" in span.name:
                self.exprio_s["json"] += duration
            elif span.name.endswith("_text"):
                self.exprio_s["print"] += duration

    def _raised(self, span, exc):
        """Count an exception once per layer boundary it crosses."""
        if span.parent is None or span.parent.layer != span.layer:
            self.raised[span.layer] += 1
            if span.layer == "matrices" and isinstance(
                    exc, self._precision_exhausted):
                self.precision_exhausted += 1

    # -- counters at layer boundaries ------------------------------------------

    def _hooks(self):
        return {
            "star.star_multiply": self._on_star,
            "functionals.positivity_scan": self._on_scan,
            "matrices._echelonize": self._on_echelonize,
            "modules.gram_psd_check": self._on_psd,
            "exprio.parse": self._on_parse,
            "exprio.parse_series": self._on_parse,
            "cli.run_command": self._on_command,
            **{f"observables.{name}": self._on_observable
               for name in self._observable_names()},
        }

    @staticmethod
    def _observable_names():
        import fdq.observables as obs
        names = [n for n, f in vars(obs).items()
                 if inspect.isfunction(f) and not n.startswith("_")
                 and f.__module__ == obs.__name__]
        for n, attr in vars(obs.PolyObservable).items():
            if not n.startswith("_") or n in _DUNDERS:
                names.append(f"PolyObservable.{n}")
        return names

    def _on_observable(self, args, result, span):
        if isinstance(result, self._poly) and len(result.terms) > self.max_terms:
            self.max_terms = len(result.terms)

    def _on_star(self, args, result, span):
        spec, f, g = args[:3]
        self.term_pairs += len(f.terms) * len(g.terms)
        key = (spec.name, spec.signature.n, spec.signature.chart, spec.order)
        for e1 in f.terms:
            for e2 in g.terms:
                self.distinct_pairs.add((key, e1, e2))

    def _on_scan(self, args, result, span):
        self.samples += len(result.rows)

    def _on_echelonize(self, args, result, span):
        self.pivots += len(result)

    def _on_psd(self, args, result, span):
        self.psd_minors += (1 << args[0].nrows) - 1

    def _on_parse(self, args, result, span):
        if span.parent is None or not _inside(span.parent, "exprio"):
            self.parse_calls += 1
            self.parse_bytes += len(args[0].encode())

    def _on_command(self, args, result, span):
        if result != 0:
            self.nonzero_exits += 1

    # -- report -----------------------------------------------------------------

    def _sum(self, *keys):
        return sum(self.calls.get(k, 0) for k in keys)

    def _layer_calls(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        s = self.self_s
        pairs = self.term_pairs
        return {
            "series.mul_calls": (self._sum("series.FormalSeries.__mul__"), "count"),
            "series.add_calls": (self._sum("series.FormalSeries.__add__",
                                           "series.FormalSeries.__sub__"), "count"),
            "series.invert_calls": (self._sum("series.FormalSeries.invert"), "count"),
            "series.coeff_mul_calls": (self._sum(
                "series.GaussianRational.__mul__",
                "series.GaussianRational.__rmul__"), "count"),
            "series.self_s": (s["series"], "s"),
            "observables.calls": (self._layer_calls("observables"), "count"),
            "observables.max_terms": (self.max_terms, "count"),
            "observables.self_s": (s["observables"], "s"),
            "star.multiply_calls": (self._sum("star.star_multiply"), "count"),
            "star.term_pairs": (pairs, "count"),
            "star.distinct_pair_ratio": (
                len(self.distinct_pairs) / pairs if pairs else 0.0, "ratio"),
            "star.equiv_calls": (self._sum("star.apply_equiv"), "count"),
            "star.self_s": (s["star"], "s"),
            "functionals.scan_calls": (
                self._sum("functionals.positivity_scan"), "count"),
            "functionals.samples": (self.samples, "count"),
            "functionals.self_s": (s["functionals"], "s"),
            "diffops.calls": (self._layer_calls("diffops"), "count"),
            "diffops.self_s": (s["diffops"], "s"),
            "reps.calls": (self._layer_calls("reps"), "count"),
            "reps.self_s": (s["reps"], "s"),
            "matrices.elim_calls": (self._sum("matrices._echelonize"), "count"),
            "matrices.pivots": (self.pivots, "count"),
            "matrices.algebra_products": (
                self._sum("matrices.MatrixStarAlgebra.product"), "count"),
            "matrices.precision_exhausted": (self.precision_exhausted, "count"),
            "matrices.self_s": (s["matrices"], "s"),
            "modules.psd_calls": (self._sum("modules.gram_psd_check"), "count"),
            "modules.psd_minors": (self.psd_minors, "count"),
            "modules.fedosov_calls": (self._sum("modules.fedosov_project"), "count"),
            "modules.self_s": (s["modules"], "s"),
            "exprio.parse_calls": (self.parse_calls, "count"),
            "exprio.parse_bytes": (self.parse_bytes, "B"),
            "exprio.parse_s": (self.exprio_s["parse"], "s"),
            "exprio.print_s": (self.exprio_s["print"], "s"),
            "exprio.json_s": (self.exprio_s["json"], "s"),
            "cli.commands": (self._sum("cli.run_command"), "count"),
            "cli.nonzero_exits": (self.nonzero_exits, "count"),
            "cli.self_s": (s["cli"], "s"),
            **{f"{layer}.raised": (self.raised[layer], "count")
               for layer in LAYERS},
        }


def _inside(span, layer):
    while span is not None:
        if span.layer == layer:
            return True
        span = span.parent
    return False
