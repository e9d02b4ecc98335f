"""Tests of the benchmark itself.

    python3 -m pytest nfbench/test_bench.py -q
"""

import json
from pathlib import Path

import pytest

from check import compare_csv, compare_json
from harness import ALL_STEMS, ROOT, Calibration, import_toolkit, load_workload, run_pass
from spans import (PROBES, Probe, Probes, Tracer, layer_metric_table, layer_values,
                   self_times, summarize)

cli = import_toolkit()


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children():
    # root [0, 10] > a [1, 6] > b [2, 5] > c [3, 4]; root > d [7, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        with tracer.span("d"):
            pass
    names = [sp.name for sp in tracer.spans]
    assert names == ["root", "a", "b", "c", "d"]
    assert self_times(tracer.spans) == [3, 2, 2, 1, 2]


def test_failed_span_is_closed_and_marked():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3]))
    with pytest.raises(ValueError), tracer.span("root"):
        with tracer.span("inner"):
            raise ValueError("boom")
    assert [sp.failed for sp in tracer.spans] == [True, True]
    assert self_times(tracer.spans) == [2, 1]


def test_nested_metric_spans_partition_the_root():
    import nfdof.experiments
    import numpy as np

    spectrum = np.geomspace(1.0, 1e-3, 12)
    tracer = Tracer()
    with Probes().installed(tracer):
        nfdof.experiments.metrics_report(spectrum, [0.5, 5.0, 50.0])
    spans = tracer.spans
    assert spans[0].name == "metrics.report" and spans[0].parent is None

    def chain(i):
        names = []
        while i is not None:
            names.append(spans[i].name)
            i = spans[i].parent
        return names[::-1]

    chains = {tuple(chain(i)) for i in range(len(spans))}
    assert ("metrics.report", "metrics.edof3", "metrics.edof3", "metrics.capacity",
            "metrics.waterfill") in chains
    own = self_times(spans)
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(spans[0].duration, rel=1e-9, abs=1e-12)
    # the originals are back after the pass
    assert nfdof.experiments.metrics_report.__module__ == "nfdof.metrics"
    assert not hasattr(nfdof.experiments.metrics_report, "__wrapped__")


def _traced_pass(probes, configs, reference, scratch):
    tracer = Tracer()
    with probes.installed(tracer):
        res = run_pass(cli, configs, scratch, reference, tracer)
    return res, layer_values(tracer.spans, {"files": res.files, "bytes": res.bytes})


def test_counts_repeat_across_traced_runs(tmp_path):
    configs, reference = load_workload("shipped")
    probes = Probes()
    assert probes.missing == []
    runs = [_traced_pass(probes, configs, reference, tmp_path) for _ in range(2)]
    for res, _ in runs:
        assert (res.attempted, res.failed, res.problems) == (7, 0, [])
    table = layer_metric_table(ALL_STEMS)
    first, second = (values for _, values in runs)
    exact = [m.name for m in table if m.exact]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    assert first["metrics.waterfill_calls"] > 0 and first["linksim.chunks"] > 0
    assert first["kernel.rungs"] > first["kernel.ladders"] > 0
    metrics, warnings = summarize(table, [first, second], probes.installed_spans)
    assert warnings == []
    assert set(metrics) == {m.name for m in table}


def test_missing_probe_makes_its_metrics_absent():
    renamed = tuple(Probe(p.module, "no_such_function", p.span) if p.span == "kernel.eig"
                    else p for p in PROBES)
    probes = Probes(renamed)
    assert probes.missing == ["nfdof.kernel.no_such_function"]
    table = layer_metric_table(ALL_STEMS)
    values = {m.name: 0 for m in table}
    metrics, warnings = summarize(table, [values], probes.installed_spans)
    assert "kernel.eig_s" not in metrics and "kernel.assembly_s" in metrics
    assert any("kernel.eig_s absent" in w for w in warnings)


def test_count_error_warns_without_failing_the_call():
    import nfdof.kernel

    probe = Probe("nfdof.kernel", "gauss_legendre_segment", "kernel.nodes",
                  lambda args, kwargs, result: {"m": kwargs["no_such_argument"]})
    tracer = Tracer()
    with Probes((probe,)).installed(tracer):
        _, weights = nfdof.kernel.gauss_legendre_segment((0, 0, 0), (0, 0, 1), 8)
    assert weights.size == 8
    assert [sp.counts for sp in tracer.spans] == [{}]
    assert "not counted" in tracer.warnings[0]


def test_failing_configs_are_counted_and_the_pass_continues(tmp_path, monkeypatch):
    import nfdof.experiments

    _, reference = load_workload("shipped")
    rejected = tmp_path / "rejected.json"
    rejected.write_text(json.dumps({"experiment": "spectrum", "no_such_key": 1}))

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(nfdof.experiments, "edof1_limit_linear", boom)
    configs = [rejected, ROOT / "configs" / "edof_vs_n.json", ROOT / "configs" / "spectrum.json"]
    tracer = Tracer()
    res = run_pass(cli, configs, tmp_path / "out", reference, tracer)
    assert (res.attempted, res.failed) == (3, 2)
    values = layer_values(tracer.spans, {"files": res.files, "bytes": res.bytes})
    assert values["cli.exit_nonzero"] == 2
    assert not res.identical
    assert any("exit code 2" in p for p in res.problems)
    assert any("RuntimeError: injected" in p for p in res.problems)
    assert not any(p.startswith("spectrum") for p in res.problems)


def test_calibration_scales_to_the_reference_speed():
    cal = Calibration()
    cal.sample()
    assert len(cal.samples) == Calibration.REPEATS and min(cal.samples) > 0
    cal.samples = [2 * Calibration.REFERENCE_S, 4 * Calibration.REFERENCE_S,
                   2 * Calibration.REFERENCE_S]
    assert cal.scale() == 0.5


CSV = """# seed=0
# timestamp=1970-01-01T00:00:00Z
mode_index,sigma
1,1.0
2,0.5
3,1e-19
"""


@pytest.mark.parametrize("text, ok", [
    (CSV, True),
    (CSV.replace("1970-01-01", "2024-05-01"), True),         # timestamp ignored
    (CSV.replace("0.5\n", "0.50001\n"), True),                # within RTOL
    (CSV.replace("1e-19", "3e-17"), True),                    # round-off tail
    (CSV.replace("0.5\n", "0.5006\n"), False),                # beyond RTOL
    (CSV.replace("2,0.5", "4,0.5"), False),                   # integer column
    (CSV.replace("seed=0", "seed=1"), False),                 # provenance
    (CSV + "4,0.1\n", False),                                 # extra row
])
def test_csv_check_tolerances(text, ok):
    assert (compare_csv(text, CSV) == []) is ok


def test_json_check_keeps_integers_exact():
    ref = json.dumps({"dof": 15, "rows": [[1.0, 2.0], [3.0, 1e-20]], "timestamp": "a"})
    assert compare_json(ref.replace('"a"', '"b"'), ref) == []
    assert compare_json(ref.replace("1e-20", "2e-20"), ref) == []
    assert compare_json(ref.replace("15", "16"), ref) != []
    assert compare_json(ref.replace("3.0", "3.01"), ref) != []


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    table = [(m.name, m.unit, m.better) for m in layer_metric_table(ALL_STEMS)]
    assert listed == table + [("trace_overhead_s", "s", "lower")]
    assert [w["name"] for w in bench["workloads"]] == ["shipped", "array-large",
                                                       "kernel-nearfield"]
    assert Path(ROOT / bench["paths"][0]).resolve() == Path(__file__).resolve().parent
