import json

import numpy as np
import pytest

from nfdof.errors import ConfigError
from nfdof.experiments import (ResultTable, config_hash, emit_plot_data,
                               parse_result_csv, run_experiment, validate_config)


def spectrum_config(**overrides):
    cfg = {
        "experiment": "spectrum",
        "carrier": {"wavelength_m": 0.01},
        "geometry": {"aperture_m": 1.37, "n_elements": [32], "distances_m": [15.0]},
        "seed": 1,
    }
    cfg.update(overrides)
    return cfg


class TestValidation:
    def test_valid_config_passes(self):
        validate_config(spectrum_config())

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
        with pytest.raises(ConfigError, match="carrier"):
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

    def test_usw_model(self, tmp_path):
        cfg = spectrum_config(model="usw")
        tables = run_experiment(cfg, out_dir=tmp_path)
        assert tables[0].rows[0][2] == 1.0
        summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
        assert summary["config_echo"]["model"] == "usw"


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
        csv_rows = parse_result_csv(tmp_path / f"{table.name}.csv").rows
        summary = json.loads((tmp_path / "edof3_vs_snr_summary.json").read_text())
        report = summary["metric_reports"]["d15"]["edof3_by_snr"]
        assert [[r[1], r[2]] for r in csv_rows] == report


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
        rows = parse_result_csv(tmp_path / f"{table.name}.csv").rows
        assert len(rows) == 1 and rows[0][1] == pytest.approx(1e-30, rel=1e-12)
        assert np.all(np.isfinite(rows))
        for name in ("link_report.json", "link_sim_summary.json"):
            assert_finite_json(tmp_path / name)

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

    def test_seed_override_changes_output(self, tmp_path):
        cfg = {
            "experiment": "link-sim",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"aperture_m": 1.37, "n_elements": 16, "distance_m": 15.0},
            "link": {"active_modes": 2, "snr_db": 10.0, "n_symbols": 2000},
            "seed": 42,
        }
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b", seed=43)
        assert (tmp_path / "a" / "link_report.json").read_bytes() != \
            (tmp_path / "b" / "link_report.json").read_bytes()


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
            emit_plot_data(table, "csv", tmp_path / "sub")
        assert not (tmp_path / "sub").exists()

    def test_csv_round_trip_byte_identical(self, tmp_path):
        path = emit_plot_data(self.table(), "csv", tmp_path)
        parsed = parse_result_csv(path)
        path2 = emit_plot_data(parsed, "csv", tmp_path / "again")
        assert path.read_bytes() == path2.read_bytes()

    def test_json_mirrors_columns(self, tmp_path):
        path = emit_plot_data(self.table(), "json", tmp_path)
        payload = json.loads(path.read_text())
        assert payload["columns"] == ["x", "y"]
        assert payload["rows"] == [[1.0, 2.5], [2.0, 0.125]]
        assert payload["provenance"]["config_hash"] == "abc"

    def test_csv_formatting(self, tmp_path):
        path = emit_plot_data(self.table(), "csv", tmp_path)
        text = path.read_text()
        assert "\r" not in text
        assert "x,y\n1,2.5\n2,0.125\n" in text

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            ResultTable(name="bad", columns=["x", "y"], rows=[[1.0]],
                        provenance={"k": "v"})

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data(self.table(), "parquet", tmp_path)


class TestOutputDirPrecedence:
    def test_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("NFDOF_OUT", str(target))
        run_experiment(spectrum_config())
        assert (target / "spectrum_n32_d15.csv").exists()

    def test_explicit_out_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NFDOF_OUT", str(tmp_path / "ignored"))
        run_experiment(spectrum_config(), out_dir=tmp_path / "explicit")
        assert (tmp_path / "explicit" / "spectrum_n32_d15.csv").exists()
        assert not (tmp_path / "ignored").exists()
