"""Span recording around the toolkit's public functions, and the per-layer
metrics derived from the spans.

Spans are recorded only from the benchmark: each probe replaces a public
function at the name its callers look it up by (``nfdof.experiments.decompose``
and ``nfdof.linksim.decompose`` are two probes on the same function) with a
wrapper that opens a span, calls the original and closes the span.  A
layer's self time is the duration of its spans minus the part covered by
their child spans.  Calls run on one thread, so spans nest strictly and the
covered part is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``clock`` is replaceable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.warnings: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name=name, start=self.clock(), parent=parent)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        except BaseException:
            sp.failed = True
            raise
        finally:
            sp.end = self.clock()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.duration
    return [sp.duration - c for sp, c in zip(spans, child)]


# --- probes --------------------------------------------------------------------


def _shape(h):
    return getattr(getattr(h, "entries", h), "shape", (0, 0))


def _channel_counts(args, kwargs, result):
    n_r, n_t = _shape(result)
    return {"entries": n_r * n_t}


def _modes_counts(args, kwargs, result):
    n_r, n_t = _shape(args[0] if args else kwargs["h"])
    return {"work_n3": n_r * n_t * min(n_r, n_t)}


def _rung_counts(args, kwargs, result):
    m = args[3] if len(args) > 3 else kwargs["m_nodes"]
    return {"m": m, "entries": m * m, "work_m3": m ** 3}


def _link_counts(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {"symbols": config.n_symbols}


@dataclass(frozen=True)
class Probe:
    """Wrap ``module.attr`` in a span named ``span``; ``count`` maps
    (args, kwargs, result) to the counters stored on the span."""

    module: str
    attr: str
    span: str
    count: object = None


PROBES = (
    Probe("nfdof.experiments", "run_experiment", "experiments.run"),
    Probe("nfdof.experiments", "validate_config", "experiments.validate"),
    Probe("nfdof.experiments", "emit_plot_data", "experiments.emit"),
    Probe("nfdof.experiments", "save_link_report", "experiments.emit"),
    Probe("nfdof.experiments", "build_ula", "geometry.build_ula"),
    Probe("nfdof.experiments", "continuous_aperture", "geometry.continuous_aperture"),
    Probe("nfdof.experiments", "rayleigh_distance", "geometry.rayleigh_distance"),
    Probe("nfdof.experiments", "los_nusw_channel", "channel.los_nusw", _channel_counts),
    Probe("nfdof.experiments", "los_usw_channel", "channel.los_usw", _channel_counts),
    Probe("nfdof.experiments", "frobenius_normalized", "channel.normalize"),
    Probe("nfdof.experiments", "decompose", "modes.decompose", _modes_counts),
    Probe("nfdof.linksim", "decompose", "modes.decompose", _modes_counts),
    Probe("nfdof.experiments", "converge_spectrum", "kernel.ladder"),
    Probe("nfdof.kernel", "build_kernel", "kernel.rung", _rung_counts),
    Probe("nfdof.kernel", "gauss_legendre_segment", "kernel.nodes"),
    Probe("nfdof.kernel", "cap_spectrum", "kernel.eig"),
    Probe("nfdof.experiments", "cap_edof1", "kernel.cap_edof"),
    Probe("nfdof.experiments", "cap_edof2", "kernel.cap_edof"),
    Probe("nfdof.experiments", "dof", "metrics.count"),
    Probe("nfdof.experiments", "edof1", "metrics.count"),
    Probe("nfdof.experiments", "edof2", "metrics.count"),
    Probe("nfdof.experiments", "edof1_limit_linear", "metrics.count"),
    Probe("nfdof.experiments", "edof3_auto", "metrics.edof3"),
    Probe("nfdof.experiments", "metrics_report", "metrics.report"),
    Probe("nfdof.experiments", "waterfill", "metrics.waterfill"),
    Probe("nfdof.metrics", "dof", "metrics.count"),
    Probe("nfdof.metrics", "edof1", "metrics.count"),
    Probe("nfdof.metrics", "edof2", "metrics.count"),
    Probe("nfdof.metrics", "edof3_auto", "metrics.edof3"),
    Probe("nfdof.metrics", "edof3", "metrics.edof3"),
    Probe("nfdof.metrics", "edof3_envelope", "metrics.edof3"),
    Probe("nfdof.metrics", "capacity", "metrics.capacity"),
    Probe("nfdof.metrics", "waterfill", "metrics.waterfill"),
    Probe("nfdof.experiments", "run_link", "linksim.run", _link_counts),
    Probe("nfdof.linksim", "mode_coupling", "linksim.coupling"),
    Probe("nfdof.linksim", "qpsk_symbols", "linksim.chunk"),
    Probe("nfdof.linksim", "precode", "linksim.chunk"),
    Probe("nfdof.linksim", "transmit_awgn", "linksim.transmit"),
    Probe("nfdof.linksim", "combine", "linksim.chunk"),
)

ROOT_SPAN = "cli.main"


def _wrap(tracer: Tracer, probe: Probe, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(probe.span) as sp:
            result = fn(*args, **kwargs)
            if probe.count is not None:
                # a changed signature must not fail the call being measured
                try:
                    sp.counts.update(probe.count(args, kwargs, result))
                except (LookupError, AttributeError, TypeError, ValueError) as exc:
                    tracer.warnings.append(f"{probe.module}.{probe.attr}: not counted: {exc!r}")
            return result
    return traced


class Probes:
    """Installs the probes for one traced pass and restores the originals.

    A probe whose name no longer exists is skipped and reported in
    ``missing``; metrics that need its span are then reported as absent.
    """

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.missing: list[str] = []
        self.installed_spans: set[str] = set()
        for probe in probes:
            try:
                module = importlib.import_module(probe.module)
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, probe.attr, None)):
                self.missing.append(f"{probe.module}.{probe.attr}")
            else:
                self.installed_spans.add(probe.span)

    @contextmanager
    def installed(self, tracer: Tracer):
        saved = []
        try:
            for probe in self.probes:
                if f"{probe.module}.{probe.attr}" in self.missing:
                    continue
                module = importlib.import_module(probe.module)
                fn = getattr(module, probe.attr)
                saved.append((module, probe.attr, fn))
                setattr(module, probe.attr, _wrap(tracer, probe, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


# --- per-layer metrics ---------------------------------------------------------

LAYERS = ("geometry", "channel", "modes", "kernel", "metrics", "linksim",
          "experiments", "cli")

COUNT = "count"
SECONDS = "s"
RATE = "1/s"


@dataclass(frozen=True)
class LayerMetric:
    """``exact`` metrics are counts, or ratios of counts, that must repeat
    exactly between passes; the others are measured times or rates."""

    name: str
    unit: str
    needs: tuple  # span names that must have an installed probe
    better: str = "lower"

    @property
    def exact(self) -> bool:
        return self.unit not in (SECONDS, RATE)


GEOMETRY = ("geometry.build_ula", "geometry.continuous_aperture")
CHANNEL = ("channel.los_nusw", "channel.los_usw", "channel.normalize")
METRICS = ("metrics.count", "metrics.edof3", "metrics.report", "metrics.capacity",
           "metrics.waterfill")


def layer_metric_table(config_stems) -> tuple:
    """Every per-layer metric with its unit and the spans it is computed
    from; the order is the report order."""
    t = [
        LayerMetric("geometry.calls", COUNT, GEOMETRY),
        LayerMetric("geometry.s", SECONDS, GEOMETRY),
        LayerMetric("channel.calls", COUNT, CHANNEL),
        LayerMetric("channel.s", SECONDS, CHANNEL),
        LayerMetric("channel.entries", COUNT, CHANNEL[:2]),
        LayerMetric("modes.calls", COUNT, ("modes.decompose",)),
        LayerMetric("modes.s", SECONDS, ("modes.decompose",)),
        LayerMetric("modes.work_n3", COUNT, ("modes.decompose",)),
        LayerMetric("kernel.ladders", COUNT, ("kernel.ladder",)),
        LayerMetric("kernel.rungs", COUNT, ("kernel.rung",)),
        LayerMetric("kernel.useful_rung_ratio", "ratio", ("kernel.ladder", "kernel.rung"),
                    "higher"),
        LayerMetric("kernel.nodes_calls", COUNT, ("kernel.nodes",)),
        LayerMetric("kernel.nodes_s", SECONDS, ("kernel.nodes",)),
        LayerMetric("kernel.assembly_s", SECONDS, ("kernel.rung",)),
        LayerMetric("kernel.eig_s", SECONDS, ("kernel.eig",)),
        LayerMetric("kernel.m_max", COUNT, ("kernel.rung",)),
        LayerMetric("kernel.entries", COUNT, ("kernel.rung",)),
        LayerMetric("kernel.work_m3", COUNT, ("kernel.rung",)),
        LayerMetric("kernel.failures", COUNT, ("kernel.ladder",)),
        LayerMetric("metrics.waterfill_calls", COUNT, ("metrics.waterfill",)),
        LayerMetric("metrics.waterfill_s", SECONDS, ("metrics.waterfill",)),
        LayerMetric("metrics.capacity_calls", COUNT, ("metrics.capacity",)),
        LayerMetric("metrics.edof3_s", SECONDS, ("metrics.edof3",)),
        LayerMetric("metrics.s", SECONDS, METRICS),
        LayerMetric("linksim.s", SECONDS, ("linksim.run",)),
        LayerMetric("linksim.chunks", COUNT, ("linksim.transmit",)),
        LayerMetric("linksim.chunk_s", SECONDS, ("linksim.transmit", "linksim.chunk")),
        LayerMetric("linksim.svd_s", SECONDS, ("linksim.run", "modes.decompose")),
        LayerMetric("linksim.symbols_per_s", RATE, ("linksim.run",), "higher"),
        LayerMetric("experiments.validate_s", SECONDS, ("experiments.validate",)),
        LayerMetric("experiments.emit_s", SECONDS, ("experiments.emit",)),
        LayerMetric("experiments.self_s", SECONDS, ("experiments.run",)),
        LayerMetric("experiments.files_written", COUNT, ()),
        LayerMetric("experiments.bytes_written", "B", ()),
    ]
    t += [LayerMetric(f"experiments.config_s.{stem}", SECONDS, ()) for stem in config_stems]
    t += [
        LayerMetric("cli.self_s", SECONDS, ()),
        LayerMetric("cli.exit_nonzero", COUNT, ()),
    ]
    return tuple(t)


def layer_values(spans: list[Span], out_stats: dict) -> dict:
    """Per-layer values of one traced pass.

    ``spans`` has one ``cli.main`` root span per config run, carrying the
    counters ``stem`` and ``exit_nonzero``; ``out_stats`` holds the
    ``files`` and ``bytes`` the pass wrote.
    """
    own = self_times(spans)
    layer_s = dict.fromkeys(LAYERS, 0.0)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    entered = dict.fromkeys(LAYERS, 0)
    for i, sp in enumerate(spans):
        layer = sp.name.split(".")[0]
        layer_s[layer] += own[i]
        self_s[sp.name] = self_s.get(sp.name, 0.0) + own[i]
        calls[sp.name] = calls.get(sp.name, 0) + 1
        parent_layer = spans[sp.parent].name.split(".")[0] if sp.parent is not None else None
        if parent_layer != layer:
            entered[layer] += 1

    def total(name, key):
        return sum(sp.counts.get(key, 0) for sp in spans if sp.name == name)

    ladders = calls.get("kernel.ladder", 0)
    rungs = calls.get("kernel.rung", 0)
    link_s = sum(sp.duration for sp in spans if sp.name == "linksim.run")
    v = {
        "geometry.calls": entered["geometry"],
        "geometry.s": layer_s["geometry"],
        "channel.calls": entered["channel"],
        "channel.s": layer_s["channel"],
        "channel.entries": total("channel.los_nusw", "entries")
        + total("channel.los_usw", "entries"),
        "modes.calls": entered["modes"],
        "modes.s": layer_s["modes"],
        "modes.work_n3": total("modes.decompose", "work_n3"),
        "kernel.ladders": ladders,
        "kernel.rungs": rungs,
        "kernel.useful_rung_ratio": ladders / rungs if rungs else 0.0,
        "kernel.nodes_calls": calls.get("kernel.nodes", 0),
        "kernel.nodes_s": self_s.get("kernel.nodes", 0.0),
        "kernel.assembly_s": self_s.get("kernel.rung", 0.0),
        "kernel.eig_s": self_s.get("kernel.eig", 0.0),
        "kernel.m_max": max((sp.counts.get("m", 0) for sp in spans if sp.name == "kernel.rung"),
                            default=0),
        "kernel.entries": total("kernel.rung", "entries"),
        "kernel.work_m3": total("kernel.rung", "work_m3"),
        "kernel.failures": sum(1 for sp in spans if sp.name == "kernel.ladder" and sp.failed),
        "metrics.waterfill_calls": calls.get("metrics.waterfill", 0),
        "metrics.waterfill_s": self_s.get("metrics.waterfill", 0.0),
        "metrics.capacity_calls": calls.get("metrics.capacity", 0),
        "metrics.edof3_s": self_s.get("metrics.edof3", 0.0),
        "metrics.s": layer_s["metrics"],
        "linksim.s": layer_s["linksim"],
        "linksim.chunks": calls.get("linksim.transmit", 0),
        "linksim.chunk_s": self_s.get("linksim.transmit", 0.0)
        + self_s.get("linksim.chunk", 0.0),
        "linksim.svd_s": sum((own[i] for i, sp in enumerate(spans)
                             if sp.name == "modes.decompose" and sp.parent is not None
                             and spans[sp.parent].name == "linksim.run"), 0.0),
        "linksim.symbols_per_s": total("linksim.run", "symbols") / link_s if link_s else 0.0,
        "experiments.validate_s": self_s.get("experiments.validate", 0.0),
        "experiments.emit_s": self_s.get("experiments.emit", 0.0),
        "experiments.self_s": self_s.get("experiments.run", 0.0),
        "experiments.files_written": out_stats["files"],
        "experiments.bytes_written": out_stats["bytes"],
        "cli.self_s": layer_s["cli"],
        "cli.exit_nonzero": total(ROOT_SPAN, "exit_nonzero"),
    }
    for sp in spans:
        if sp.name == ROOT_SPAN:
            key = f"experiments.config_s.{sp.counts['stem']}"
            v[key] = v.get(key, 0.0) + sp.duration
    return v


def summarize(table, passes: list[dict], installed_spans: set) -> tuple[dict, list[str]]:
    """Combine the values of several traced passes: the median for times,
    the value itself for counts, which must repeat exactly.  Metrics whose
    spans have no installed probe are left out.  Returns the metrics and
    any warnings."""
    out, warnings = {}, []
    for m in table:
        absent = [s for s in m.needs if s not in installed_spans]
        if absent:
            warnings.append(f"{m.name} absent: no probe for {', '.join(absent)}")
            continue
        values = [p.get(m.name, 0 if m.exact else 0.0) for p in passes]
        if m.exact:
            if any(v != values[0] for v in values):
                warnings.append(f"{m.name} differs between traced passes: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        out[m.name] = {"value": value, "unit": m.unit}
    return out, warnings
