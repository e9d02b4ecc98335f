import dataclasses
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nfdof.experiments
import nfdof.modes
import nfdof.spec
from conftest import WAVELENGTH, csv_fmt, nusw_channel, ula_pair
from nfdof.channel import frobenius_normalized, los_nusw_channel, los_usw_channel
from nfdof.errors import ConfigError
from nfdof.experiments import (ResultTable, _summary_text, config_hash, emit_plot_data,
                               run_experiment, validate_config)
from nfdof.metrics import dof, edof3_auto, metrics_report
from nfdof.modes import decompose, toeplitz_matrix


def spectrum_config(**overrides):
    cfg = {
        "experiment": "spectrum",
        "carrier": {"wavelength_m": 0.01},
        "geometry": {"aperture_m": 1.37, "n_elements": [32], "distances_m": [15.0]},
        "seed": 1,
    }
    cfg.update(overrides)
    return cfg


def read_csv_rows(path):
    """The numeric rows of a CSV written by ``emit_plot_data``: the lines
    after the provenance lines and the header row."""
    body = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [[float(x) for x in line.split(",")] for line in body[1:]]


class TestValidation:
    def test_valid_config_passes(self):
        validate_config(spectrum_config())

    def test_spec_holds_defaults_and_seed_override(self):
        spec = validate_config(spectrum_config())
        assert (spec.experiment, spec.seed, spec.model) == ("spectrum", 1, "nusw")
        assert spec.wavelength == 0.01
        assert spec.sizes == ((32, 1.37),) and spec.distances == (15.0,)
        assert spec.tables == (("spectrum_n32_d15", (32, 1.37, 15.0)),)
        assert (spec.dominance, spec.delta_step) == (0.01, 0.01)
        assert (spec.tol, spec.max_nodes) == (1e-6, 4096)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config(spectrum_config(extra_knob=3))

    def test_unknown_geometry_key_rejected(self):
        cfg = spectrum_config()
        cfg["geometry"]["tilt_deg"] = 10
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config(cfg)

    def test_missing_carrier_rejected(self):
        cfg = spectrum_config()
        del cfg["carrier"]
        with pytest.raises(ConfigError, match="carrier"):
            validate_config(cfg)

    def test_inconsistent_carrier_rejected(self):
        cfg = spectrum_config(carrier={"frequency_hz": 28e9, "wavelength_m": 0.01})
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['frequency_hz'\] in carrier"):
            validate_config(cfg)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            validate_config(spectrum_config(experiment="beam-scan"))

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="model"):
            validate_config(spectrum_config(model="planar"))

    def test_aperture_and_spacing_mutually_exclusive(self):
        cfg = spectrum_config()
        cfg["geometry"]["element_spacing_m"] = 0.005
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(cfg)

    def test_nonpositive_distance_rejected(self):
        cfg = spectrum_config()
        cfg["geometry"]["distances_m"] = [15.0, -1.0]
        with pytest.raises(ConfigError, match="positive"):
            validate_config(cfg)

    def test_validation_errors_before_any_output(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(spectrum_config(extra=1), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


# experiment: (where its grid sits, the range rule of the grid's values, a config)
GRID_CONFIGS = {
    "cap-edof-vs-distance": (
        ("geometry", "distances_m"), nfdof.spec._LENGTH,
        {"experiment": "cap-edof-vs-distance", "carrier": {"wavelength_m": 0.01},
         "geometry": {"apertures_m": [1.0]}}),
    "edof3-vs-snr": (
        ("metrics", "snr_db"), nfdof.spec._SNR_DB_LIMIT,
        {"experiment": "edof3-vs-snr", "carrier": {"wavelength_m": 0.01},
         "geometry": {"aperture_m": 1.0, "n_elements": 4, "distances_m": [15.0]},
         "metrics": {}}),
}


@st.composite
def accepted_grids(draw):
    """An experiment and a {start, stop, count, spacing} grid that
    validate_config accepts in its config."""
    kind = draw(st.sampled_from(sorted(GRID_CONFIGS)))
    rule = GRID_CONFIGS[kind][1]
    spacing = draw(st.sampled_from(["log", "linear"]))
    # log spacing needs positive endpoints
    low = max(5e-324, rule["minimum"]) if spacing == "log" else rule["minimum"]
    values = st.floats(min_value=low, max_value=rule["maximum"])
    return kind, {"start": draw(values), "stop": draw(values),
                  "count": draw(st.integers(2, 3000)), "spacing": spacing}


class TestGridExpansion:
    @settings(max_examples=200, deadline=None)
    @given(case=accepted_grids())
    # np.geomspace gives 3000.000000000001 in the middle, past the SNR limit
    @example(case=("edof3-vs-snr", {"start": 3000.0, "stop": 3000.0, "count": 3,
                                    "spacing": "log"}))
    def test_runner_reads_numpy_grid_bit_for_bit(self, case):
        kind, grid = case
        (section, key), rule, base = GRID_CONFIGS[kind]
        cfg = json.loads(json.dumps(base))
        cfg[section][key] = grid
        spec = validate_config(cfg)
        seen = []

        def record(spec, prov, key):
            seen.append(spec)
            return [[0.0]], {}

        with mock.patch.dict(nfdof.experiments.EXPERIMENTS, {kind: (("x",), record)}):
            with tempfile.TemporaryDirectory() as out:
                run_experiment(cfg, out_dir=out)
        field = "distances" if kind == "cap-edof-vs-distance" else "snr_db"
        assert isinstance(getattr(spec, field), nfdof.spec.Grid)
        space = np.geomspace if grid["spacing"] == "log" else np.linspace
        # numpy's values, but one rounded past an endpoint reads that endpoint
        lo, hi = sorted((grid["start"], grid["stop"]))
        want = tuple(lo if x < lo else hi if x > hi else float(x)
                     for x in space(grid["start"], grid["stop"], grid["count"]))
        got = getattr(seen[0], field)
        assert type(got) is tuple and list(map(float.hex, got)) == list(map(float.hex, want))
        # validate checks only the endpoints: every value between them obeys their rule
        for i, value in enumerate(got):
            nfdof.spec._number(value, f"value {i}", **rule)


# one small config of each experiment, with at least two tables where it has more than one
CONTRACT_CONFIGS = {
    "spectrum": {"geometry": {"aperture_m": 0.3, "n_elements": [8, 16],
                              "distances_m": [15.0, 40.0]}},
    "edof-vs-n": {"geometry": {"aperture_m": 0.3, "n_elements": [8, 16],
                               "distances_m": [15.0, 40.0]}},
    "edof2-vs-n": {"geometry": {"aperture_m": 0.2, "n_elements": [8],
                                "distances_m": [10.0, 30.0]}},
    "edof3-vs-snr": {"geometry": {"aperture_m": 0.3, "n_elements": 8,
                                  "distances_m": [15.0, 40.0]},
                     "metrics": {"snr_db": [0.0, 10.0]}},
    "cap-edof-vs-distance": {"geometry": {"apertures_m": [0.2, 0.3],
                                          "distances_m": {"start": 10.0, "stop": 50.0,
                                                          "count": 3}}},
    "link-sim": {"geometry": {"aperture_m": 0.3, "n_elements": 8, "distance_m": 15.0},
                 "link": {"active_modes": 2, "snr_db": 20.0, "n_symbols": 100}},
}


class TestTableContract:
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("kind", list(CONTRACT_CONFIGS))
    def test_run_writes_the_tables_of_the_spec_in_order(self, kind, threads, tmp_path):
        cfg = {"experiment": kind, "carrier": {"wavelength_m": 0.01}, "seed": 1,
               **CONTRACT_CONFIGS[kind]}
        names = [name for name, _ in validate_config(cfg).tables]
        tables = run_experiment(cfg, out_dir=tmp_path, threads=threads)
        assert [t.name for t in tables] == names
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(f"{n}.csv" for n in names)


class TestSpectrumExperiment:
    def test_plateau_then_decay_curve(self, tmp_path):
        cfg = spectrum_config(geometry={"aperture_m": 1.37, "n_elements": [256],
                                        "distances_m": [15.0]})
        tables = run_experiment(cfg, out_dir=tmp_path)
        assert len(tables) == 1
        rows = tables[0].rows
        normalized = [r[2] for r in rows]
        assert normalized[0] == 1.0
        assert all(b <= a + 1e-12 for a, b in zip(normalized, normalized[1:]))
        assert normalized[19] < 1e-3
        assert (tmp_path / "spectrum_n256_d15.csv").exists()
        assert (tmp_path / "spectrum_summary.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = spectrum_config()
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b", threads=4)
        for name in ("spectrum_n32_d15.csv", "spectrum_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_finder_outputs_are_byte_identical(self, tmp_path, monkeypatch):
        # 1024 elements: the column's estimate is 19.6 at 15 m and 2.0 at
        # 150 m, so 2 * 16 probe columns, and 6 * 32 <= N: each point runs the
        # finder once, on the two parity blocks of the Toeplitz operator
        calls = []
        finder = nfdof.modes._leading_values
        monkeypatch.setattr(nfdof.modes, "_leading_values",
                            lambda sketch, adjoint, n, k: calls.append((n, k))
                            or finder(sketch, adjoint, n, k))
        cfg = spectrum_config(geometry={"aperture_m": 1.37, "n_elements": [1024],
                                        "distances_m": [15.0, 150.0]})
        runs = (("r1_t1", 1), ("r2_t1", 1), ("r3_t4", 4))
        for label, threads in runs:
            run_experiment(cfg, out_dir=tmp_path / label, threads=threads)
        assert calls == [(1024, 32)] * (2 * len(runs))
        for name in ("spectrum_n1024_d15.csv", "spectrum_n1024_d150.csv",
                     "spectrum_summary.json"):
            first = (tmp_path / "r1_t1" / name).read_bytes()
            assert all((tmp_path / label / name).read_bytes() == first for label, _ in runs)
        rows = read_csv_rows(tmp_path / "r1_t1" / "spectrum_n1024_d15.csv")
        # the values the finder leaves out are written as 0.0, one row per element
        assert [r[0] for r in rows] == list(range(1, 1025))
        assert rows[-1][1:] == [0.0, 0.0] and rows[25][1] > 0.0

    def test_cold_and_warm_probe_tables_give_the_same_bytes(self, tmp_path):
        # 16 probes at both sizes: the table keeps n = 1024's transform, which
        # the threads of a cold run compute concurrently, and n = 512's is
        # drawn afresh on every call
        cfg = spectrum_config(geometry={"aperture_m": 1.37, "n_elements": [512, 1024],
                                        "distances_m": [15.0, 150.0]})
        runs = (("cold_t1", 1), ("warm_t1", 1), ("cold_t4", 4), ("warm_t4", 4))
        for label, threads in runs:
            if label.startswith("cold"):
                nfdof.modes._probe_transform.cache_clear()
            run_experiment(cfg, out_dir=tmp_path / label, threads=threads)
        names = sorted(p.name for p in (tmp_path / "cold_t1").iterdir())
        assert len(names) == 5
        for label, _ in runs:
            assert sorted(p.name for p in (tmp_path / label).iterdir()) == names
            for name in names:
                assert (tmp_path / label / name).read_bytes() == \
                    (tmp_path / "cold_t1" / name).read_bytes()

    def test_small_blocks_go_straight_to_the_svd(self, tmp_path, monkeypatch):
        # 64 elements at 50 m: the estimate is 6.5, but 6 times the 2 * 16
        # probes of the two parity blocks do not fit below the 64 columns of
        # the operator, so the finder forms no product and returns None, and
        # the gathered channel is solved by SVD
        calls = []
        finder = nfdof.modes._leading_values

        def recording(sketch, adjoint, n, k):
            found = finder(sketch, adjoint, n, k)
            if found is not None:
                calls.append(k)
            return found

        monkeypatch.setattr(nfdof.modes, "_leading_values", recording)
        cfg = spectrum_config(geometry={"aperture_m": 1.37, "n_elements": [64],
                                        "distances_m": [50.0]})
        tables = run_experiment(cfg, out_dir=tmp_path)
        assert calls == []
        assert all(row[1] > 0.0 for row in tables[0].rows)

    def test_peak_memory_of_one_solve(self, tmp_path):
        # the finder holds the channel's one column and a few (16, 2N)
        # blocks of FFT products for both parity blocks, about 0.09 x the
        # channel with the written tables; any build of half the channel's
        # rows would hold 0.5 x
        n = 1024
        cfg = spectrum_config(geometry={"aperture_m": 1.37, "n_elements": [n],
                                        "distances_m": [15.0]})
        run_experiment(cfg, out_dir=tmp_path / "warm")
        tracemalloc.start()
        try:
            run_experiment(cfg, out_dir=tmp_path / "traced")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.3 * n * n * np.dtype(complex).itemsize

    @pytest.mark.parametrize("experiment", ["spectrum", "edof3-vs-snr"])
    def test_usw_model(self, experiment, tmp_path):
        # the runners that take a model key; link-sim rejects it
        cfg = spectrum_config(experiment=experiment, model="usw")
        if experiment == "edof3-vs-snr":
            cfg["geometry"]["n_elements"] = 32
            cfg["metrics"] = {"snr_db": [0.0, 20.0]}
        tables = run_experiment(cfg, out_dir=tmp_path)
        tx, rx = ula_pair(32, 15.0)
        expected = {}
        for model, build in (("usw", los_usw_channel), ("nusw", los_nusw_channel)):
            h = build(tx, rx, WAVELENGTH)
            if experiment == "spectrum":
                s = decompose(h).singular_values
                expected[model] = list(s / s[0])
            else:  # normalized by default
                s = decompose(frobenius_normalized(h)).singular_values
                expected[model] = [edof3_auto(s, snr) for snr in (1.0, 100.0)]
        got = [row[2] for row in tables[0].rows]
        assert experiment != "spectrum" or got[0] == 1.0
        assert got == pytest.approx(expected["usw"], rel=1e-9, abs=1e-12)
        assert got != pytest.approx(expected["nusw"], rel=1e-9, abs=1e-12)
        summary_path = tmp_path / f"{experiment.replace('-', '_')}_summary.json"
        assert json.loads(summary_path.read_text())["config_echo"]["model"] == "usw"


class TestEdof2VsNExperiment:
    def test_cap_reference_column(self, tmp_path):
        cfg = {
            "experiment": "edof2-vs-n",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"aperture_m": 1.37, "n_elements": [128, 275],
                         "distances_m": [50.0]},
        }
        (table,) = run_experiment(cfg, out_dir=tmp_path)
        assert table.columns == ["n_elements", "aperture_m", "edof2_spd", "edof2_cap"]
        cap_vals = {row[3] for row in table.rows}
        assert len(cap_vals) == 1  # one converged reference per (aperture, d)
        spd_at_half_wavelength = table.rows[-1][2]
        assert abs(spd_at_half_wavelength - table.rows[-1][3]) / table.rows[-1][3] < 0.02


class TestCapDistanceExperiment:
    def test_trends_and_rayleigh_column(self, tmp_path):
        cfg = {
            "experiment": "cap-edof-vs-distance",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"apertures_m": [0.5, 1.0],
                         "distances_m": {"start": 10, "stop": 200, "count": 5}},
        }
        tables = run_experiment(cfg, out_dir=tmp_path)
        assert [t.name for t in tables] == ["cap_edof_vs_distance_a0p5",
                                            "cap_edof_vs_distance_a1"]
        for table in tables:
            e2 = [r[2] for r in table.rows]
            assert all(b <= a for a, b in zip(e2, e2[1:]))
        # rayleigh distance column: 2 A^2 / lambda
        assert tables[0].rows[0][3] == pytest.approx(50.0, rel=1e-12)
        assert tables[1].rows[0][3] == pytest.approx(200.0, rel=1e-12)
        # larger aperture gives more modes at matching distances
        for r_small, r_large in zip(tables[0].rows, tables[1].rows):
            assert r_large[2] > r_small[2]


class TestEdof3Experiment:
    def test_metric_report_in_summary(self, tmp_path):
        cfg = {
            "experiment": "edof3-vs-snr",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"aperture_m": 1.37, "n_elements": 32, "distances_m": [15.0]},
            "metrics": {"snr_db": [0.0, 10.0, 20.0]},
        }
        tables = run_experiment(cfg, out_dir=tmp_path)
        vals = [r[2] for r in tables[0].rows]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        summary = json.loads((tmp_path / "edof3_vs_snr_summary.json").read_text())
        report = summary["metric_reports"]["d15"]
        assert set(report) == {"dof", "edof1", "edof2", "edof3_by_snr",
                               "capacity_by_snr", "config_echo"}
        assert report["config_echo"]["config_hash"] == config_hash(cfg)

    def test_summary_edof3_matches_csv_with_coarse_step(self, tmp_path):
        cfg = {
            "experiment": "edof3-vs-snr",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"aperture_m": 1.37, "n_elements": 64, "distances_m": [15.0]},
            "metrics": {"snr_db": {"start": -10.0, "stop": 40.0, "count": 11,
                                   "spacing": "linear"},
                        "delta_step": 0.05},
        }
        (table,) = run_experiment(cfg, out_dir=tmp_path)
        csv_rows = read_csv_rows(tmp_path / f"{table.name}.csv")
        summary = json.loads((tmp_path / "edof3_vs_snr_summary.json").read_text())
        report = summary["metric_reports"]["d15"]["edof3_by_snr"]
        assert [[r[1], r[2]] for r in csv_rows] == report

    def test_shipped_points_match_the_dense_svd(self, tmp_path):
        # configs/edof3_vs_snr.json: N = 256 of 1.37 m at 15, 50 and 150 m,
        # where the spectrum comes from the finder on the channel's column
        cfg = json.loads((Path(__file__).resolve().parent.parent
                          / "configs" / "edof3_vs_snr.json").read_text())
        assert (cfg["geometry"]["n_elements"], cfg["geometry"]["aperture_m"]) == (256, 1.37)
        run_experiment(cfg, out_dir=tmp_path)
        reports = json.loads((tmp_path / "edof3_vs_snr_summary.json").read_text())[
            "metric_reports"]
        assert list(reports) == ["d15", "d50", "d150"]
        for d, report in zip((15.0, 50.0, 150.0), reports.values()):
            h = frobenius_normalized(nusw_channel(256, d))
            dense = np.linalg.svd(h, compute_uv=False)
            snrs = [snr for snr, _ in report["edof3_by_snr"]]
            step = cfg["metrics"]["delta_step"]
            oracle = metrics_report(dense, snrs, dominance=0.01, delta_step=step)
            assert (report["dof"], report["edof1"]) == (oracle["dof"], oracle["edof1"])
            assert report["edof2"] == pytest.approx(oracle["edof2"], rel=1e-9)
            for key in ("edof3_by_snr", "capacity_by_snr"):
                assert np.array(report[key]) == pytest.approx(np.array(oracle[key]), rel=1e-9)


    EDOF3_SPEC = validate_config({
        "experiment": "edof3-vs-snr", "carrier": {"wavelength_m": 0.01},
        "geometry": {"aperture_m": 1.37, "n_elements": 4, "distances_m": [15.0]},
        "metrics": {"snr_db": [0.0]}})

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 600), aperture=st.floats(0.01, 5.0), d=st.floats(0.5, 1e4))
    @example(n=256, aperture=1.37, d=50.0)
    @example(n=547, aperture=0.01, d=4999.0)
    def test_normalized_column_is_that_of_the_normalized_channel(self, n, aperture, d):
        # n |c_0|**2 + 2 sum_k (n - k) |c_k|**2, a sum of n weighted terms
        # good to about n rounding units, against the squares of the gathered
        # channel summed exactly (math.fsum); np.linalg.norm's sum of the
        # n**2 terms is not that good: 1.26e-13 off at the second example,
        # where n rounding units are 1.21e-13
        column = nfdof.experiments._ula_column(self.EDOF3_SPEC, n, aperture, d, normalize=True)
        raw = nfdof.experiments._ula_column(self.EDOF3_SPEC, n, aperture, d)
        h = toeplitz_matrix(raw)
        norm = math.sqrt(math.fsum(np.concatenate([np.square(h.real).ravel(),
                                                   np.square(h.imag).ravel()])))
        ref = raw * (n / norm)
        assert np.max(np.abs(column / ref - 1)) <= max(n, 8) * 2.0 ** -52

    def test_normalizing_an_all_zero_channel_raises(self, monkeypatch):
        monkeypatch.setattr(nfdof.experiments, "facing_ula_column",
                            lambda *args: np.zeros(4, dtype=complex))
        with pytest.raises(ValueError, match="all-zero"):
            nfdof.experiments._ula_column(self.EDOF3_SPEC, 4, 1.37, 15.0, normalize=True)


def assert_finite_json(path):
    def reject(token):
        raise AssertionError(f"{path.name} holds {token}")
    json.loads(path.read_text(), parse_constant=reject)


class TestLinkSimExperiment:
    def test_vanishing_snr_runs_one_mode(self, tmp_path):
        cfg = {
            "experiment": "link-sim",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"aperture_m": 1.37, "n_elements": 16, "distance_m": 15.0},
            "link": {"active_modes": 3, "snr_db": -300.0, "n_symbols": 2000},
            "seed": 7,
        }
        (table,) = run_experiment(cfg, out_dir=tmp_path)
        rows = read_csv_rows(tmp_path / f"{table.name}.csv")
        assert len(rows) == 1 and rows[0][1] == pytest.approx(1e-30, rel=1e-12)
        assert np.all(np.isfinite(rows))
        for name in ("link_report.json", "link_sim_summary.json"):
            assert_finite_json(tmp_path / name)

    def test_water_fills_only_the_modes_dof_counts(self, tmp_path):
        # sigma_10 / sigma_1 = 9.6e-9 at N = 128 and 150 m lies under the
        # rank tolerance of the 128 x 128 channel (1.28e-8), not under that
        # of 10 values (1e-9): dof counts 9 modes, and 9 get power
        cfg = {
            "experiment": "link-sim",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"aperture_m": 1.37, "n_elements": 128, "distance_m": 150.0},
            "link": {"active_modes": 10, "snr_db": 200.0, "n_symbols": 4000},
            "seed": 1,
        }
        (table,) = run_experiment(cfg, out_dir=tmp_path)
        assert len(read_csv_rows(tmp_path / f"{table.name}.csv")) == 9
        s = decompose(frobenius_normalized(los_nusw_channel(*ula_pair(128, 150.0),
                                                            WAVELENGTH))).singular_values
        assert dof(s) == 9 and 1e-9 < s[9] / s[0] < 1.28e-8

    def test_model_key_rejected(self):
        cfg = {
            "experiment": "link-sim",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"aperture_m": 1.37, "n_elements": 16, "distance_m": 15.0},
            "link": {"active_modes": 2, "snr_db": 10.0, "n_symbols": 2000},
            "model": "usw",
        }
        with pytest.raises(ConfigError, match="model"):
            validate_config(cfg)

    def test_report_and_determinism(self, tmp_path):
        cfg = {
            "experiment": "link-sim",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"aperture_m": 1.37, "n_elements": 16, "distance_m": 15.0},
            "link": {"active_modes": 3, "snr_db": 20.0, "n_symbols": 5000},
            "seed": 42,
        }
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "link_report.json").read_bytes() == \
            (tmp_path / "b" / "link_report.json").read_bytes()
        report = json.loads((tmp_path / "a" / "link_report.json").read_text())
        measured = np.array(report["measured_mode_snr"])
        predicted = np.array(report["predicted_mode_snr"])
        assert np.max(np.abs(measured / predicted - 1.0)) < 0.1

    def test_seed_comes_from_the_config(self, tmp_path):
        # the config the summary echoes reproduces every file of the run, and
        # another config seed changes the draws
        cfg = {
            "experiment": "link-sim",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"aperture_m": 1.37, "n_elements": 16, "distance_m": 15.0},
            "link": {"active_modes": 2, "snr_db": 10.0, "n_symbols": 2000},
            "seed": 42,
        }
        run_experiment(cfg, out_dir=tmp_path / "a")
        echo = json.loads((tmp_path / "a" / "link_sim_summary.json").read_text())["config_echo"]
        run_experiment(echo, out_dir=tmp_path / "b")
        run_experiment({**cfg, "seed": 43}, out_dir=tmp_path / "c")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / "link_report.json").read_bytes() != \
            (tmp_path / "c" / "link_report.json").read_bytes()


class TestEmit:
    def table(self):
        return ResultTable(name="demo", columns=["x", "y"],
                           rows=[[1.0, 2.5], [2.0, 0.125]],
                           provenance={"config_hash": "abc", "version": "0.1.0",
                                       "timestamp": "1970-01-01T00:00:00Z",
                                       "seed": 0, "experiment": "spectrum"})

    def test_empty_table_rejected_without_file(self, tmp_path):
        table = ResultTable(name="empty", columns=["x"], rows=[],
                            provenance={"config_hash": "abc"})
        with pytest.raises(ValueError, match="no rows"):
            emit_plot_data(table, tmp_path / "sub")
        assert not (tmp_path / "sub").exists()

    def test_csv_formatting(self, tmp_path):
        path = emit_plot_data(self.table(), tmp_path)
        text = path.read_text()
        assert "\r" not in text
        assert "x,y\n1,2.5\n2,0.125\n" in text

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_cell_rejected_without_file(self, value, tmp_path):
        table = self.table()
        table.rows[1][1] = value
        with pytest.raises(FloatingPointError, match="non-finite"):
            emit_plot_data(table, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            ResultTable(name="bad", columns=["x", "y"], rows=[[1.0]],
                        provenance={"k": "v"})


def csv_cell(x) -> str:
    """A CSV cell formatted from the number itself: an integral float below
    1e16 as an integer, anything else as its shortest round-trip repr."""
    f = float(x)
    return str(int(f)) if f.is_integer() and abs(f) < 1e16 else repr(f)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 9.999999999999998e15, 1e16, 1e-5, 1e300]
TEXT = st.one_of(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                 st.sampled_from(['say "hi"', "\\", "a\nb", "Größe", "σ₁ / σ", "☃"]))
CELL = st.one_of(st.sampled_from(EDGE_FLOATS),
                 st.floats(allow_nan=False, allow_infinity=False),
                 st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
                 st.integers(-2**60, 2**60).map(float),
                 st.integers(-2**63, 2**63 - 1).map(np.int64),
                 st.integers(-10**20, 10**20))
JSON = st.recursive(st.one_of(st.none(), st.booleans(), st.integers(), TEXT,
                              st.floats(allow_nan=False, allow_infinity=False)),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(TEXT, inner, max_size=3),
                    max_leaves=12)


@st.composite
def result_tables(draw):
    width = draw(st.integers(1, 4))
    return ResultTable(name=draw(TEXT), columns=draw(st.lists(TEXT, min_size=width,
                                                              max_size=width)),
                       rows=draw(st.lists(st.lists(CELL, min_size=width, max_size=width),
                                          max_size=5)),
                       provenance={"config_hash": "abc"})


PROVENANCE = {"config_hash": "abc", "version": "0.1.0", "cells": "-0.0,1.0\n-0"}
SIGNED_ZEROS = ResultTable(name="zeros", columns=["a", "b", "c"],
                           rows=[[-0.0, -0.0, -0.0], [-0.0, 1.0, -3.0], [2.5, -0.0, 0.0]],
                           provenance=PROVENANCE)
ONE_COLUMN = ResultTable(name="one", columns=["a"],
                         rows=[[-0.0], [9.999999999999998e15], [1e16], [5e-324],
                               [2.2250738585072e-308], [-7.0], [-10.0], [-0.0]],
                         provenance=PROVENANCE)


class TestRender:
    """The summary and CSV text joined from each table's cells, against
    ``json.dumps`` of the whole summary and the per-number CSV format."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 4).flatmap(lambda width: st.lists(
        st.lists(st.one_of(st.sampled_from(EDGE_FLOATS + [2.2250738585072e-308, -1.0, -16.0]),
                           st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(-2**60, 2**60).map(float)),
                 min_size=width, max_size=width), min_size=1, max_size=6)))
    @example(rows=SIGNED_ZEROS.rows)
    @example(rows=ONE_COLUMN.rows)
    def test_csv_body_is_the_per_cell_format(self, rows):
        table = ResultTable(name="t", columns=[f"c{j}" for j in range(len(rows[0]))],
                            rows=rows, provenance=PROVENANCE)
        with tempfile.TemporaryDirectory() as out:
            text = emit_plot_data(table, out).read_text()
        head = [f"# {k}={PROVENANCE[k]}" for k in sorted(PROVENANCE)] + [",".join(table.columns)]
        body = "".join(",".join(csv_fmt(repr(float(x))) for x in row) + "\n" for row in rows)
        assert text == "\n".join(head) + "\n" + body

    @settings(max_examples=200, deadline=None)
    @given(tables=st.lists(result_tables(), max_size=3), config=st.dictionaries(TEXT, JSON),
           reports=st.dictionaries(TEXT, st.dictionaries(TEXT, JSON, max_size=4), max_size=3),
           extra=st.dictionaries(TEXT.filter(lambda k: k not in {
               "experiment", "provenance", "config_echo", "tables", "metric_reports"}),
               JSON, max_size=2))
    @example(tables=[dataclasses.replace(t, provenance={"config_hash": "abc"})
                     for t in (SIGNED_ZEROS, ONE_COLUMN)], config={}, reports={}, extra={})
    def test_text_equals_json_dumps_and_csv_cells(self, tables, config, reports, extra):
        head = {"experiment": "spectrum", "provenance": {"seed": 0, "version": "0.1.0"},
                "config_echo": config}
        tail = {"metric_reports": reports, **extra}
        expected = json.dumps({**head, "tables": [
            {"name": t.name, "columns": t.columns,
             "rows": [[float(x) for x in row] for row in t.rows]} for t in tables], **tail},
            indent=2, allow_nan=False)
        assert _summary_text({**head, "tables": tables, **tail}) == expected
        with tempfile.TemporaryDirectory() as out:
            for i, table in enumerate(t for t in tables if t.rows):
                # file names and headers in plain ASCII: only the cells are compared
                plain = dataclasses.replace(table, name=f"t{i}",
                                            columns=[f"c{j}" for j in range(len(table.columns))])
                lines = emit_plot_data(plain, out).read_text().splitlines()[2:]
                assert lines == [",".join(csv_cell(x) for x in row) for row in table.rows]
                assert [[float(x) for x in line.split(",")] for line in lines] == \
                    [[float(x) for x in row] for row in table.rows]

    @settings(max_examples=50, deadline=None)
    @given(table=result_tables().filter(lambda t: t.rows), at=st.integers(0, 10**6),
           value=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_cell_raises(self, table, at, value):
        rows = [list(row) for row in table.rows]
        i = at % (len(rows) * len(table.columns))
        rows[i // len(table.columns)][i % len(table.columns)] = value
        bad = dataclasses.replace(table, rows=rows)
        with pytest.raises(FloatingPointError, match="non-finite"):
            _summary_text({"experiment": "spectrum", "tables": [table, bad]})
        with tempfile.TemporaryDirectory() as out:
            with pytest.raises(FloatingPointError, match="non-finite"):
                emit_plot_data(dataclasses.replace(bad, name="t"), out)
            assert list(Path(out).iterdir()) == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_fails_the_run_without_file(self, value, tmp_path, monkeypatch):
        columns, run = nfdof.experiments.EXPERIMENTS["spectrum"]

        def poisoned(spec, prov, key):
            rows, extra = run(spec, prov, key)
            if key == spec.tables[-1][1]:
                rows[-1][-1] = value
            return rows, extra

        monkeypatch.setitem(nfdof.experiments.EXPERIMENTS, "spectrum", (columns, poisoned))
        cfg = spectrum_config()
        cfg["geometry"]["distances_m"] = [15.0, 50.0]
        with pytest.raises(FloatingPointError, match="non-finite"):
            run_experiment(cfg, out_dir=tmp_path / "o")
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]


class TestOutputDirPrecedence:
    def test_default_is_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("NFDOF_OUT", str(tmp_path / "ignored"))
        run_experiment(spectrum_config())
        assert (tmp_path / "spectrum_n32_d15.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_explicit_out_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NFDOF_OUT", str(tmp_path / "ignored"))
        run_experiment(spectrum_config(), out_dir=tmp_path / "explicit")
        assert (tmp_path / "explicit" / "spectrum_n32_d15.csv").exists()
        assert not (tmp_path / "ignored").exists()
