"""Per-layer tracing of otto_rel from outside the package.

Each layer is a public function of an otto_rel module.  ``Tracer.install``
finds the function object and rebinds every global of every ``otto_rel``
module that refers to that object, so copies made by ``from .core import
relativistic_factor`` are traced too.  A layer whose function no longer
exists is reported as absent and reads zero.

Coarse calls (one per request or per optimum) record a span each: name,
start, end, parent span and request id.  Per-point calls only add to a
counter and to accumulated self time.  A call's self time is its duration
minus the time of the traced calls nested inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

PACKAGE = "otto_rel"


@dataclass(frozen=True)
class Layer:
    """Functions traced under one metric prefix.

    ``names`` are aggregated (e.g. the sc and se variants of one optimum);
    ``span`` marks coarse calls that record a span per call.
    """

    metric: str
    module: str
    names: tuple[str, ...]
    span: bool = False


LAYERS = (
    Layer("cli.main", "cli", ("main",), span=True),
    Layer("optima.optimize", "optima", ("optimize",), span=True),
    Layer("optima.eta_omega", "optima", ("eta_omega_sc", "eta_omega_se"), span=True),
    Layer("oracle.maximize", "oracle", ("maximize",), span=True),
    Layer("phase_diagram.rasterize", "phase_diagram", ("rasterize",), span=True),
    Layer("phase_diagram.mode_fractions", "phase_diagram", ("mode_fractions",), span=True),
    Layer("optima.eta_max", "optima", ("eta_max_sc", "eta_max_se")),
    Layer("cubic.principal_trig_root", "cubic", ("principal_trig_root",)),
    Layer("core.heats_and_work", "core", ("heats_and_work",)),
    Layer("core.relativistic_factor", "core", ("relativistic_factor",)),
    Layer("high_temperature.performance", "high_temperature", ("performance",)),
    Layer("high_temperature.work", "high_temperature", ("work",)),
    Layer("high_temperature.qh", "high_temperature", ("qh",)),
    Layer("high_temperature.eta", "high_temperature", ("eta",)),
    Layer("phase_diagram.classify_by_signs", "phase_diagram", ("classify_by_signs",)),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _find(layer: Layer, name: str):
    """The function object, looked up in its module first, then package-wide."""
    home = sys.modules.get(f"{PACKAGE}.{layer.module}")
    candidates = [home] if home is not None else []
    candidates += _package_modules()
    for module in candidates:
        fn = vars(module).get(name)
        if callable(fn):
            return fn
    return None


class Tracer:
    """Counters, self times and spans for the layers in ``LAYERS``."""

    def __init__(self) -> None:
        self.calls = {layer.metric: 0 for layer in LAYERS}
        self.self_s = {layer.metric: 0.0 for layer in LAYERS}
        self.evals = 0
        self.fallbacks = 0
        self.cells = 0
        self.max_rel_residual = 0.0
        self.spans: list[dict] = []
        self.request = None
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            for name in layer.names:
                fn = _find(layer, name)
                if fn is None:
                    self.absent.append(f"{layer.module}.{name}")
                elif id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(fn, layer, name))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn, layer: Layer, name: str):
        stack, clock, spans, open_spans = self._stack, time.perf_counter, self.spans, self._open
        calls, self_s, metric = self.calls, self.self_s, layer.metric
        observer = _OBSERVERS.get(metric)
        count_evals = metric == "oracle.maximize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_evals and args:
                args = (self._count_evals(args[0]),) + args[1:]
            span = None
            if layer.span:
                span = {"name": name, "parent": open_spans[-1] if open_spans else None,
                        "request": self.request}
                open_spans.append(len(spans))
                spans.append(span)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                own = end - start - children[0]
                calls[metric] += 1
                self_s[metric] += own
                if span is not None:
                    open_spans.pop()
                    span.update(start=start, end=end, self=own)
            if observer is not None:
                observer(self, fn, args, kwargs, result)
            return result

        return traced

    def _count_evals(self, objective):
        def counted_objective(*args, **kwargs):
            self.evals += 1
            return objective(*args, **kwargs)

        return counted_objective

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer number this tracer measures, keyed by metric name."""
        out = {}
        for layer in LAYERS:
            out[f"{layer.metric}.calls"] = self.calls[layer.metric]
            out[f"{layer.metric}.self_s"] = self.self_s[layer.metric]
        maximize_calls = self.calls["oracle.maximize"]
        optimize_calls = self.calls["optima.optimize"]
        out["oracle.maximize.evals_per_call"] = self.evals / maximize_calls if maximize_calls else 0.0
        out["optima.optimize.fallback_ratio"] = self.fallbacks / optimize_calls if optimize_calls else 0.0
        out["phase_diagram.rasterize.cells"] = self.cells
        out["cubic.principal_trig_root.max_rel_residual"] = self.max_rel_residual
        return out


def _residual(tracer: Tracer, fn, args, kwargs, root) -> None:
    # Recompute |p(root)| / max(1, |a2|, |a1|, |a0|) from the cubic passed in.
    cubic = args[0] if args else kwargs.get("cubic")
    try:
        a2, a1, a0 = cubic.a2, cubic.a1, cubic.a0
    except AttributeError:
        return
    residual = abs(((root + a2) * root + a1) * root + a0) / max(1.0, abs(a2), abs(a1), abs(a0))
    tracer.max_rel_residual = max(tracer.max_rel_residual, residual)


def _fallback(tracer: Tracer, fn, args, kwargs, report) -> None:
    if getattr(report, "source", None) == "oracle-fallback":
        tracer.fallbacks += 1


def _cells(tracer: Tracer, fn, args, kwargs, result) -> None:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    resolution = bound.arguments.get("resolution")
    if isinstance(resolution, int):
        tracer.cells += resolution * resolution


_OBSERVERS = {
    "cubic.principal_trig_root": _residual,
    "optima.optimize": _fallback,
    "phase_diagram.rasterize": _cells,
}
