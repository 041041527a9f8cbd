"""Outside-in tracing for the benchmark.

Spans are recorded by wrappers that the benchmark installs on the module
attributes the library actually calls through: the ``from .x import f``
bindings in ``cli`` (plus ``cli._quad_cf_ch1`` and ``cli.run_experiment``),
``analytics.spherical_density`` and ``simulate.sample_radial_hyperbolic``.
Nothing inside the package is edited; the wrappers are removed again when
the traced pass ends.  Spans are kept in memory and written out by the
caller when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Attributes of spaceform_areas.cli that are wrapped, and the other
# (module, attribute) binding sites the library calls through.
CLI_BINDINGS = (
    "run_experiment", "_quad_cf_ch1",
    "cf_marginal_cp", "levy_cf", "winding_limit_cf",
    "spherical_density", "berger_kernel", "berger_limit_kernel",
    "ch1_joint_density", "ch1_loop_slice",
    "sample_area", "girsanov_cf_estimator", "sample_planar_area",
    "sample_winding",
    "jacobi_poly",
    "empirical_cf", "ks_statistic",
)
OTHER_BINDINGS = (
    ("analytics", "spherical_density"),
    ("simulate", "sample_radial_hyperbolic"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.attrs]


def _describe(base: str, args: tuple) -> tuple[str, dict]:
    """Span name and attributes for a call: samplers taking a Geometry get
    its kind as a name suffix, and every SimConfig contributes its paths."""
    name, attrs = base, {}
    if args and hasattr(args[0], "kind"):
        name = f"{base}.{args[0].kind}"
    for a in args:
        if hasattr(a, "paths") and hasattr(a, "horizon"):
            attrs["paths"] = a.paths
    if base == "simulate.girsanov_cf_estimator":
        attrs["lam"] = float(args[1])
    return name, attrs


class Tracer:
    """Collects spans (name, start, end, parent) from wrapped calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        base = f"{layer}.{fn.__name__.lstrip('_')}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            name, attrs = _describe(base, args)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, attrs)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, package):
        """Install wrappers on every binding site; restore them on exit."""
        sites = [(package.cli, attr) for attr in CLI_BINDINGS]
        sites += [(getattr(package, mod), attr)
                  for mod, attr in OTHER_BINDINGS]
        saved = []
        try:
            for module, attr in sites:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

def _matches(span, prefix) -> bool:
    return span.name == prefix or span.name.startswith(prefix + ".")


def _matching(spans, prefix):
    return [s for s in spans if _matches(s, prefix)]


def calls(spans, prefix) -> int:
    return len(_matching(spans, prefix))


def busy(spans, prefix) -> float:
    return sum(s.duration for s in _matching(spans, prefix))


def self_time(spans, prefix) -> float:
    """Span time minus the time covered by direct child spans.  Children of
    one span run one after another on the calling thread, so they do not
    overlap and their durations add."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return sum(s.duration - child[i] for i, s in enumerate(spans)
               if _matches(s, prefix))


def _per_call(spans, prefix, scale) -> float:
    n = calls(spans, prefix)
    return scale * busy(spans, prefix) / n if n else 0.0


def _paths_per_s(spans, prefix) -> float:
    t = busy(spans, prefix)
    paths = sum(s.attrs["paths"] for s in _matching(spans, prefix))
    return paths / t if t else 0.0


def _lam_max_over_min(spans, prefix) -> float:
    """Slowest lambda call's busy time over the fastest one's, among the
    calls at the most common path count."""
    found = _matching(spans, prefix)
    if not found:
        return 0.0
    paths = statistics.mode(s.attrs["paths"] for s in found)
    times = [s.duration for s in found if s.attrs["paths"] == paths]
    return max(times) / min(times) if len(times) > 1 else 0.0


def sampler_busy(spans) -> float:
    """Busy time of top-level sampler calls (not nested in another one)."""
    total = 0.0
    for s in _matching(spans, "simulate"):
        if s.parent < 0 or not spans[s.parent].name.startswith("simulate."):
            total += s.duration
    return total


@dataclass
class TraceData:
    spans: list          # spans of the traced pass at the workload's threads
    probe_spans: list    # spans of the --threads 1 probe pass, or []
    traced: dict         # the traced pass's record from the caller
    untraced_wall_ref: float  # wall_ref of the untraced passes


def _thread_speedup(d: TraceData) -> float:
    """Sampler busy time at --threads 1 over that at the workload's
    threads."""
    t2 = sampler_busy(d.spans)
    return sampler_busy(d.probe_spans) / t2 if d.probe_spans and t2 else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    source: str          # span name (prefix) whose calls feed the metric
    homes: tuple         # workloads on which it must not read zero
    value: object        # TraceData -> float


SH, CH, LH = "short-horizon", "ch-quadrature", "long-horizon"
ALL = (SH, CH, LH)


def _busy(source, homes):
    return LayerMetric(f"{source}.busy_s", "s", "lower", source, homes,
                       lambda d: busy(d.spans, source))


def _calls(source, homes):
    return LayerMetric(f"{source}.calls", "count", "lower", source, homes,
                       lambda d: calls(d.spans, source))


def _self(source, homes):
    return LayerMetric(f"{source}.self_s", "s", "lower", source, homes,
                       lambda d: self_time(d.spans, source))


_AREA_CP = "simulate.sample_area.cp"
_GIR_CP = "simulate.girsanov_cf_estimator.cp"
_CH1 = "hyperbolic_kernels.ch1_joint_density"
_SPH = "densities.spherical_density"

LAYER_METRICS = (
    _busy(_AREA_CP, (SH, LH)),
    LayerMetric(f"{_AREA_CP}.paths_per_s", "1/s", "higher", _AREA_CP,
                (SH, LH), lambda d: _paths_per_s(d.spans, _AREA_CP)),
    _busy("simulate.sample_area.ch", (CH, LH)),
    _busy(_GIR_CP, (SH,)),
    LayerMetric(f"{_GIR_CP}.lam_max_over_min", "ratio", "lower", _GIR_CP,
                (SH,), lambda d: _lam_max_over_min(d.spans, _GIR_CP)),
    _busy("simulate.girsanov_cf_estimator.ch", (CH,)),
    _busy("simulate.sample_radial_hyperbolic", (CH,)),
    _busy("simulate.sample_winding", (LH,)),
    _busy("simulate.sample_planar_area", (SH,)),
    LayerMetric("simulate.thread_speedup", "ratio", "higher", "simulate",
                (SH,), _thread_speedup),
    _calls(_CH1, (CH,)),
    _busy(_CH1, (CH,)),
    LayerMetric(f"{_CH1}.ms_per_eval", "ms", "lower", _CH1, (CH,),
                lambda d: _per_call(d.spans, _CH1, 1e3)),
    _calls(_SPH, ALL),
    _busy(_SPH, ALL),
    LayerMetric(f"{_SPH}.us_per_eval", "us", "lower", _SPH, ALL,
                lambda d: _per_call(d.spans, _SPH, 1e6)),
    _calls("densities.berger_kernel", (CH,)),
    _busy("densities.berger_kernel", (CH,)),
    _calls("analytics.cf_marginal_cp", (SH, LH)),
    _self("analytics.cf_marginal_cp", (SH, LH)),
    _calls("stats.empirical_cf", ALL),
    _busy("stats.empirical_cf", ALL),
    _busy("stats.ks_statistic", (LH,)),
    _calls("specfun.jacobi_poly", (CH,)),
    _busy("specfun.jacobi_poly", (CH,)),
    _self("cli.quad_cf_ch1", (CH,)),
    _self("cli.run_experiment", ALL),
    LayerMetric("trace.overhead_frac", "ratio", "lower", "cli.run_experiment",
                ALL,
                lambda d: d.traced["wall_s"] / d.traced["reference_s"]
                / d.untraced_wall_ref - 1.0),
)


def layer_metrics(data: TraceData, workload: str):
    """Every per-layer metric's value, then the tracer self-test: how many
    metrics the workload should exercise, and those among them that read
    zero calls, or zero.  A wrapper that patched only the defining module,
    and missed the binding that cli calls through, shows up here."""
    values, checked, failures = {}, 0, []
    for m in LAYER_METRICS:
        v = float(m.value(data))
        values[m.name] = v
        if workload in m.homes:
            checked += 1
            if calls(data.spans, m.source) == 0 or v == 0:
                failures.append(m.name)
    return values, checked, failures
