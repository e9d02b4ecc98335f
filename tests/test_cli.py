import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfdof import __version__, experiments
from nfdof.cli import (BLAS_THREAD_VARS, EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK,
                       MAX_THREADS, build_parser, main)
from nfdof.spec import LADDER_FLOOR, MAX_COUNT


def fresh_env(**extra):
    """os.environ with this checkout's src/ first on PYTHONPATH, plus ``extra``."""
    root = Path(__file__).resolve().parents[1]
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def spectrum_config():
    return {
        "experiment": "spectrum",
        "carrier": {"wavelength_m": 0.01},
        "geometry": {"aperture_m": 1.37, "n_elements": [16], "distances_m": [15.0]},
    }


class TestCommands:
    def test_version(self, capsys):
        assert main(["version"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == __version__

    def test_validate_ok(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json", spectrum_config())
        assert main(["validate", cfg_path]) == EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_run_writes_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json", spectrum_config())
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == EXIT_OK
        assert (out / "spectrum_n16_d15.csv").exists()
        assert (out / "spectrum_summary.json").exists()

    def test_declared_entry_point_runs(self):
        # Run the entry point that pyproject.toml declares for `nfdof` in a
        # fresh interpreter, as the installed wrapper script does, so the
        # declaration is checked without installing the package.
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["nfdof"]
        module, attr = target.split(":")
        code = f"import sys, {module}; sys.exit({module}.{attr}())"
        proc = subprocess.run([sys.executable, "-c", code, "version"],
                              capture_output=True, text=True, env=fresh_env())
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == __version__

    def test_validate_and_version_load_no_numpy(self):
        root = Path(__file__).resolve().parents[1]
        configs = sorted(root.glob("configs/*.json")) + sorted(root.glob("nfbench/configs/*.json"))
        assert len(configs) == 9
        code = ("import contextlib, io, json, sys\n"
                "from nfdof import cli\n"
                "seen = []\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        seen.append((argv, cli.main(argv), 'numpy' in sys.modules))\n"
                "print(json.dumps(seen))\n")
        argvs = [["validate", str(p)] for p in configs] + [["version"]]
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                              capture_output=True, text=True, env=fresh_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[argv, EXIT_OK, False] for argv in argvs]

    def test_run_pins_one_blas_thread_before_numpy_loads(self, tmp_path):
        # the environment numpy's first import reads, in a fresh interpreter
        code = ("import contextlib, io, json, os, sys\n"
                "from nfdof import cli\n"
                "seen = {}\n"
                "class Watch:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name == 'numpy' and not seen:\n"
                "            seen.update((v, os.environ.get(v)) for v in cli.BLAS_THREAD_VARS)\n"
                "sys.meta_path.insert(0, Watch())\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = cli.main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
                "print(json.dumps([code, seen]))\n")
        cfg_path = write_config(tmp_path / "cfg.json", spectrum_config())
        env = fresh_env(**dict.fromkeys(BLAS_THREAD_VARS, "2"))
        proc = subprocess.run([sys.executable, "-c", code, cfg_path, str(tmp_path / "out")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [EXIT_OK, dict.fromkeys(BLAS_THREAD_VARS, "1")]

    @pytest.mark.skipif(shutil.which("nfdof") is None,
                        reason="the nfdof executable is not on PATH")
    def test_console_script_runs(self):
        proc = subprocess.run(["nfdof", "version"], capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert proc.stdout.strip() == __version__


class TestExitCodes:
    def test_invalid_config_is_2(self, tmp_path):
        cfg = spectrum_config()
        cfg["geometry"]["unknown"] = 1
        cfg_path = write_config(tmp_path / "bad.json", cfg)
        assert main(["validate", cfg_path]) == EXIT_CONFIG
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_malformed_json_is_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == EXIT_CONFIG

    def test_non_utf8_file_is_2(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_deeply_nested_json_is_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        out = tmp_path / "o"
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("error: invalid config") == 2 and err.count("\n") == 2

    @pytest.mark.parametrize("epoch", ["abc", "1e9", "99999999999999", "-1", " 1", ""])
    def test_malformed_source_date_epoch_is_2_before_any_output(self, epoch, tmp_path,
                                                                 monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        cfg_path = write_config(tmp_path / "cfg.json", spectrum_config())
        out = tmp_path / "o"
        assert main(["validate", cfg_path]) == EXIT_CONFIG
        assert main(["run", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("SOURCE_DATE_EPOCH") == 2 and err.count("\n") == 2

    def test_numerical_failure_is_3(self, tmp_path):
        cfg = {
            "experiment": "cap-edof-vs-distance",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"apertures_m": [1.37], "distances_m": [15.0]},
            "kernel": {"tol": 1e-18, "max_nodes": 91},
        }
        cfg_path = write_config(tmp_path / "hard.json", cfg)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL

    def test_linalg_error_is_3_without_traceback(self, tmp_path, monkeypatch, capsys):
        def diverged(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("nfdof.experiments.toeplitz_spectrum", diverged)
        cfg_path = write_config(tmp_path / "cfg.json", spectrum_config())
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "error: numerical failure: SVD did not converge\n"

    @pytest.mark.parametrize("message", [
        "Unable to allocate 149. GiB for an array with shape (100000, 100000) and data "
        "type complex128", ""])
    def test_out_of_memory_is_3_without_traceback(self, message, tmp_path, monkeypatch,
                                                  capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("nfdof.experiments.facing_ula_column", exhausted)
        cfg_path = write_config(tmp_path / "cfg.json", spectrum_config())
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("kind, target, poison", [
        ("cap-edof-vs-distance", "rayleigh_distance", lambda out: float("inf")),
        ("edof3-vs-snr", "metrics_report", lambda out: {**out, "edof1": float("nan")}),
        ("link-sim", "run_link",
         lambda out: dataclasses.replace(out, cross_mode_leakage=float("nan"))),
    ], ids=["csv-cell", "summary", "link-report"])
    def test_non_finite_output_is_3_and_never_written(self, kind, target, poison, tmp_path,
                                                      monkeypatch, capsys):
        real = getattr(experiments, target)
        monkeypatch.setattr(experiments, target, lambda *a, **kw: poison(real(*a, **kw)))
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path / "cfg.json", small_config(kind)),
                     "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: ") and err.count("\n") == 1
        # the summary renders before any file is written
        assert not [p for p in out.rglob("*") if p.is_file()]

    def test_io_failure_is_4(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json", spectrum_config())
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["run", cfg_path, "--out", str(blocker)]) == EXIT_IO


class TestExtremeInputs:
    def test_round_off_modes_count_nowhere_at_1e9_m(self, tmp_path):
        # a rank-1 channel (sigma_2 / sigma_1 = 3.4e-17): no metric may read
        # more than the one mode dof counts, even at 400 and 3000 dB
        cfg = {
            "experiment": "edof3-vs-snr",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"aperture_m": 1.37, "n_elements": 16, "distances_m": [1e9]},
            "metrics": {"snr_db": [0.0, 400.0, 3000.0]},
            "normalize": True,
        }
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path / "far.json", cfg),
                     "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "edof3_vs_snr_summary.json").read_text())
        (report,) = summary["metric_reports"].values()
        assert report["dof"] == 1
        for (snr, edof3), (_, cap) in zip(report["edof3_by_snr"], report["capacity_by_snr"]):
            assert edof3 <= 1.0
            # sigma_1**2 = 256 for the normalized rank-1 16 x 16 channel
            assert cap <= math.log2(1.0 + snr * 256.0) * (1.0 + 1e-12)
        assert [row[2] for row in summary["tables"][0]["rows"]] == \
            [e for _, e in report["edof3_by_snr"]]

    def test_link_sim_past_its_float64_floor_is_3(self, tmp_path, capsys):
        # a predicted per-mode SNR near 1e40, which float64 estimates cannot measure
        cfg = {
            "experiment": "link-sim",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"aperture_m": 1.37, "n_elements": 16, "distance_m": 15.0},
            "link": {"active_modes": 2, "snr_db": 400.0, "n_symbols": 4000},
            "seed": 1,
        }
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path / "loud.json", cfg),
                     "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: ") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("factor, n_symbols, code", [(1.0 / 1.1, 64, EXIT_NUMERICAL),
                                                         (1.1, MAX_COUNT, EXIT_OK)],
                             ids=["below", "above"])
    def test_link_sim_at_the_low_end_of_its_snr_range(self, tmp_path, capsys, factor,
                                                      n_symbols, code):
        # a raw-gain 4 x 4 link at 10 km is rank 1 with sigma_1**2 within 2e-7 of
        # 16 * (lambda / (4 pi d))**2, so snr_db puts the one predicted SNR a
        # factor 1.1 below or above the range's low end, 1e-300
        d = 1e4
        gain = 16.0 * (0.01 / (4.0 * math.pi * d)) ** 2
        cfg = with_leaf(small_config("link-sim", normalize=False),
                        ("geometry", "distance_m"), d)
        cfg["link"] = {"active_modes": 1, "n_symbols": n_symbols,
                       "snr_db": 10.0 * math.log10(factor * 1e-300 / gain)}
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path / "faint.json", cfg),
                     "--out", str(out)]) == code
        if code == EXIT_NUMERICAL:
            assert capsys.readouterr().err.startswith("error: numerical failure: ")
            assert list(out.iterdir()) == []
            return
        assert_finite_outputs(out)
        report = json.loads((out / "link_report.json").read_text())
        assert report["predicted_mode_snr"][0] == pytest.approx(1.1e-300, rel=1e-6)
        assert report["measured_mode_snr"][0] == pytest.approx(1.1e-300, rel=0.01)


class TestSeedAndThreads:
    def test_config_seed_reaches_provenance(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json", {**spectrum_config(), "seed": 77})
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == EXIT_OK
        header = (out / "spectrum_n16_d15.csv").read_text().splitlines()
        assert "# seed=77" in header

    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        # the seed comes only from the config, so the config a summary
        # echoes reproduces its run
        cfg_path = write_config(tmp_path / "cfg.json", spectrum_config())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["run", cfg_path, "--out", str(out), "--seed", "1"])
        assert exit_.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: nfdof ")
        assert "unrecognized arguments: --seed 1" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("epoch, stamp", [("0", "1970-01-01T00:00:00Z"),
                                              ("86400", "1970-01-02T00:00:00Z"),
                                              ("253402300799", "9999-12-31T23:59:59Z")])
    def test_source_date_epoch_reaches_provenance(self, epoch, stamp, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        cfg_path = write_config(tmp_path / "cfg.json", spectrum_config())
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == EXIT_OK
        header = (out / "spectrum_n16_d15.csv").read_text().splitlines()
        assert f"# timestamp={stamp}" in header

    def test_blas_threads_do_not_change_bytes(self, tmp_path):
        # a 5 m aperture at 12 m: OpenBLAS rounds its 235- and 256-node
        # solves differently at one and two threads
        cfg = {"experiment": "cap-edof-vs-distance", "carrier": {"wavelength_m": 0.01},
               "geometry": {"apertures_m": [5.0], "distances_m": [12.0]}}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        outputs = []
        for blas in ("1", "2"):
            out = tmp_path / f"blas{blas}"
            proc = subprocess.run([sys.executable, "-m", "nfdof.cli", "run", cfg_path,
                                   "--out", str(out)], capture_output=True, text=True,
                                  env=fresh_env(OPENBLAS_NUM_THREADS=blas))
            assert proc.returncode == EXIT_OK, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 2 and outputs[0] == outputs[1]

    @pytest.mark.parametrize("threads", ["0", "-1", str(MAX_THREADS + 1), "1000000000", "two"])
    def test_threads_out_of_range_is_a_usage_error(self, threads, tmp_path, monkeypatch,
                                                   capsys):
        # rejected before the config is read (this path does not exist) and
        # before any worker starts
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_pool)
        with pytest.raises(SystemExit) as exit_:
            main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o"),
                  "--threads", threads])
        assert exit_.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: nfdof ") and "argument --threads: " in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    def test_threads_from_1_to_the_bound_parse(self):
        parse = build_parser().parse_args
        assert [parse(["run", "cfg.json", "--threads", t]).threads
                for t in ("1", str(MAX_THREADS))] == [1, MAX_THREADS]

    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg = spectrum_config()
        cfg["geometry"]["distances_m"] = [15.0, 50.0, 150.0]
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["run", cfg_path, "--out", str(tmp_path / "t1")]) == EXIT_OK
        assert main(["run", cfg_path, "--out", str(tmp_path / "t8"),
                     "--threads", "8"]) == EXIT_OK
        for name in ("spectrum_n16_d15.csv", "spectrum_n16_d50.csv",
                     "spectrum_n16_d150.csv", "spectrum_summary.json"):
            assert (tmp_path / "t1" / name).read_bytes() == \
                (tmp_path / "t8" / name).read_bytes()


# One small valid config per experiment, with every optional key present so
# that each one can be mutated.  Sizes are tiny so that a run takes
# milliseconds.
SMALL_CONFIGS = {
    "spectrum": {
        "experiment": "spectrum", "carrier": {"wavelength_m": 0.01},
        "geometry": {"aperture_m": 0.2, "n_elements": [4, 6], "distances_m": [15.0, 50.0]},
        "model": "nusw", "seed": 0,
    },
    "edof-vs-n": {
        "experiment": "edof-vs-n", "carrier": {"wavelength_m": 0.01},
        "geometry": {"element_spacing_m": 0.05, "n_elements": [4, 6],
                     "distances_m": [15.0, 50.0]},
        "metrics": {"dominance": 0.01}, "model": "usw",
    },
    "edof2-vs-n": {
        "experiment": "edof2-vs-n", "carrier": {"wavelength_m": 0.01},
        "geometry": {"aperture_m": 0.2, "n_elements": [4], "distances_m": [15.0, 50.0]},
        "kernel": {"tol": 1e-3, "max_nodes": 100},
    },
    "edof3-vs-snr": {
        "experiment": "edof3-vs-snr", "carrier": {"wavelength_m": 0.01},
        "geometry": {"aperture_m": 0.2, "n_elements": 4, "distances_m": [15.0]},
        "metrics": {"snr_db": {"start": 0.0, "stop": 10.0, "count": 2, "spacing": "linear"},
                    "delta_step": 0.01, "dominance": 0.01},
        "normalize": True,
    },
    "cap-edof-vs-distance": {
        "experiment": "cap-edof-vs-distance", "carrier": {"wavelength_m": 0.01},
        "geometry": {"apertures_m": [0.2, 0.3],
                     "distances_m": {"start": 10.0, "stop": 20.0, "count": 2}},
        "kernel": {"tol": 1e-3, "max_nodes": 100},
        "metrics": {"dominance": 0.01},
    },
    "link-sim": {
        "experiment": "link-sim", "carrier": {"wavelength_m": 0.01},
        "geometry": {"aperture_m": 0.2, "n_elements": 4, "distance_m": 15.0},
        "link": {"active_modes": 2, "snr_db": 10.0, "n_symbols": 64},
        "normalize": True, "seed": 1,
    },
}


def small_config(kind, **top):
    cfg = copy.deepcopy(SMALL_CONFIGS[kind])
    cfg.update(top)
    return cfg


def with_leaf(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def leaf_paths(node, path=()):
    """Paths to every non-container value of a config document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


def assert_finite_outputs(out_dir):
    def reject(token):
        raise AssertionError(f"non-finite token {token}")
    for path in Path(out_dir).rglob("*"):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=reject)
        elif path.suffix == ".csv":
            # provenance lines, then the header row, then numbers only
            body = [line for line in path.read_text().splitlines()
                    if not line.startswith("#")][1:]
            for line in body:
                assert all(math.isfinite(float(v)) for v in line.split(",")), (path, line)


# Each of these configs passed `validate` and then failed in `run` (exit 1 with
# a traceback or exit 3), failed in `validate` itself, or was accepted while
# writing non-finite numbers or overwriting one table with another.
BAD_CONFIGS = {
    "non-unit axis": with_leaf(small_config("spectrum"), ("geometry", "axis"), [0, 0, 2]),
    "zero axis": with_leaf(small_config("spectrum"), ("geometry", "axis"), [0, 0, 0]),
    "non-numeric axis": with_leaf(small_config("spectrum"), ("geometry", "axis"), ["a", 0, 1]),
    "dominance 1.5": with_leaf(small_config("edof-vs-n"), ("metrics", "dominance"), 1.5),
    "dominance string": with_leaf(small_config("cap-edof-vs-distance"),
                                  ("metrics", "dominance"), "x"),
    "metrics not an object": small_config("edof-vs-n", metrics=3),
    "infinite distance": with_leaf(small_config("spectrum"), ("geometry", "distances_m", 1),
                                   float("inf")),
    "output_dir not a string": small_config("spectrum", output_dir=5),
    "negative seed": small_config("link-sim", seed=-1),
    "NaN snr_db": with_leaf(small_config("edof3-vs-snr"), ("metrics", "snr_db"),
                            [0.0, float("nan")]),
    "log grid from 0 dB": with_leaf(small_config("edof3-vs-snr"), ("metrics", "snr_db", "spacing"),
                                    "log"),
    "grid spacing unknown": with_leaf(small_config("edof3-vs-snr"),
                                      ("metrics", "snr_db", "spacing"), "cubic"),
    "normalize string": small_config("edof3-vs-snr", normalize="no"),
    "duplicate distances": with_leaf(small_config("spectrum"), ("geometry", "distances_m"),
                                     [15.0, 15.0]),
    "near-equal distances": with_leaf(small_config("spectrum"), ("geometry", "distances_m"),
                                      [15.0, 15.0000001]),
    "repeated n_elements": with_leaf(small_config("spectrum"), ("geometry", "n_elements"),
                                     [4, 4]),
    "start_nodes above max_nodes": with_leaf(small_config("cap-edof-vs-distance"),
                                             ("kernel", "start_nodes"), 128),
    "max_nodes at the ladder floor": with_leaf(small_config("cap-edof-vs-distance"),
                                               ("kernel", "max_nodes"), LADDER_FLOOR),
    "active_modes above n_elements": with_leaf(small_config("link-sim"),
                                               ("link", "active_modes"), 5),
    "metrics in edof2-vs-n": small_config("edof2-vs-n", metrics={"dominance": 0.5}),
    "axis along the link, elements coincide": small_config(
        "spectrum", geometry={"aperture_m": 1.0, "n_elements": [3], "distances_m": [0.5],
                              "axis": [0, 1, 0]}),
    "axis along the link, distance equals aperture": with_leaf(
        with_leaf(small_config("link-sim"), ("geometry", "axis"), [0, -1, 0]),
        ("geometry", "distance_m"), 0.2),
    # keys no config sets any more
    "removed key geometry.axis": with_leaf(small_config("spectrum"), ("geometry", "axis"),
                                           [0.0, 0.0, 1.0]),
    "removed key output_dir": small_config("spectrum", output_dir="elsewhere"),
    "removed key metrics.rank_tol": with_leaf(small_config("edof-vs-n"),
                                              ("metrics", "rank_tol"), 1e-9),
    "removed key kernel.start_nodes": with_leaf(small_config("edof2-vs-n"),
                                                ("kernel", "start_nodes"), 64),
    "removed key link.dump_symbols": with_leaf(small_config("link-sim"),
                                               ("link", "dump_symbols"), False),
    "removed key carrier.frequency_hz": small_config("edof-vs-n",
                                                     carrier={"frequency_hz": 3e10}),
    "removed key carrier.frequency_hz beside wavelength_m": small_config(
        "spectrum", carrier={"frequency_hz": 299_792_458.0 / 0.01, "wavelength_m": 0.01}),
    # lengths outside [1e-15, 1e15] m
    "distance 1e200": with_leaf(small_config("spectrum"), ("geometry", "distances_m"), [1e200]),
    "distance 1e150": with_leaf(small_config("edof-vs-n"), ("geometry", "distances_m"), [1e150]),
    "link distance 1e16": with_leaf(small_config("link-sim"), ("geometry", "distance_m"), 1e16),
    "aperture 1e-200": with_leaf(small_config("cap-edof-vs-distance"),
                                 ("geometry", "apertures_m"), [1e-200]),
    "element spacing 1e-16": with_leaf(small_config("edof-vs-n"),
                                       ("geometry", "element_spacing_m"), 1e-16),
    "spanned aperture 3e15": with_leaf(small_config("edof-vs-n"),
                                       ("geometry", "element_spacing_m"), 1e15),
    "wavelength 1e200": small_config("edof-vs-n", carrier={"wavelength_m": 1e200}),
    "wavelength from frequency_hz 1e-10": small_config("edof-vs-n",
                                                       carrier={"frequency_hz": 1e-10}),
}

# (experiment, path) of every size that MAX_COUNT bounds
SIZE_LEAVES = [
    ("spectrum", ("geometry", "n_elements", 1)),
    ("link-sim", ("geometry", "n_elements")),
    ("cap-edof-vs-distance", ("kernel", "max_nodes")),
    ("link-sim", ("link", "n_symbols")),
    ("cap-edof-vs-distance", ("geometry", "distances_m", "count")),
    ("edof3-vs-snr", ("metrics", "snr_db", "count")),
]
BAD_CONFIGS["n_elements 1e13"] = with_leaf(small_config("spectrum"),
                                           ("geometry", "n_elements", 1), 1e13)
for kind, leaf in SIZE_LEAVES:
    BAD_CONFIGS[f"{kind} {'.'.join(map(str, leaf))} above the size limit"] = with_leaf(
        small_config(kind), leaf, MAX_COUNT + 1)


class TestBadConfigs:
    @pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
    def test_validate_and_run_both_reject(self, name, tmp_path, monkeypatch, capsys):
        cfg_path = write_config(tmp_path / "bad.json", BAD_CONFIGS[name])
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)  # where a run without --out would write
        assert main(["validate", cfg_path]) == EXIT_CONFIG
        out_args = [] if "output_dir" in name else ["--out", str(work / "out")]
        assert main(["run", cfg_path, *out_args]) == EXIT_CONFIG
        assert list(work.iterdir()) == []
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("error: invalid config") == 2

    @pytest.mark.parametrize("kind", ["edof2-vs-n", "cap-edof-vs-distance"])
    def test_max_nodes_one_above_the_floor_validates_and_runs(self, kind, tmp_path):
        # max_nodes = 16 + 1: the ladder builds 16 nodes, then 17, the cap;
        # 0.2-0.3 m apertures at 10-50 m put the cliff below 1 node, so they agree
        cfg = with_leaf(small_config(kind), ("kernel", "max_nodes"), LADDER_FLOOR + 1)
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["validate", cfg_path]) == EXIT_OK
        assert main(["run", cfg_path, "--out", str(out)]) == EXIT_OK
        assert_finite_outputs(out)
        assert sorted(p.suffix for p in out.iterdir()) == [".csv", ".csv", ".json"]

    @pytest.mark.parametrize("kind, leaf", SIZE_LEAVES)
    def test_size_limit_itself_validates(self, kind, leaf, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json",
                                with_leaf(small_config(kind), leaf, MAX_COUNT))
        assert main(["validate", cfg_path]) == EXIT_OK


@pytest.mark.parametrize("kind", sorted(SMALL_CONFIGS))
def test_small_config_bases_are_valid(kind, tmp_path):
    # the one-leaf property below needs valid bases to tell rejections apart
    cfg_path = write_config(tmp_path / "cfg.json", SMALL_CONFIGS[kind])
    assert main(["validate", cfg_path]) == EXIT_OK
    assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_OK


LEAF_VALUES = [None, True, False, "x", "", -1, 0, 0.5, 1, 2, 3, 1.5, 1e-3, 15.0000001,
               float("nan"), float("inf"), -float("inf"), [], {}, [1.0]]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_and_run_agree_on_one_leaf_change(data, tmp_path_factory):
    kind = data.draw(st.sampled_from(sorted(SMALL_CONFIGS)), label="experiment")
    base = SMALL_CONFIGS[kind]
    path = data.draw(st.sampled_from(list(leaf_paths(base))), label="leaf")
    cfg = with_leaf(base, path, data.draw(st.sampled_from(LEAF_VALUES), label="value"))
    tmp = tmp_path_factory.mktemp("leaf")
    cfg_path = write_config(tmp / "cfg.json", cfg)
    out = tmp / "out"
    validated = main(["validate", cfg_path])
    ran = main(["run", cfg_path, "--out", str(out)])
    assert validated in (EXIT_OK, EXIT_CONFIG)
    assert (validated == EXIT_CONFIG) == (ran == EXIT_CONFIG), (validated, ran)
    if ran == EXIT_CONFIG:
        assert not out.exists()
    if ran == EXIT_OK:
        assert_finite_outputs(out)


@st.composite
def extreme_configs(draw):
    """A small config of one experiment at extreme but legal values: SNRs up
    to 400 dB, distances up to 1e9 m, apertures down to 1 um, wavelengths
    from 1 mm to 1 m and at most 16 elements."""
    kind = draw(st.sampled_from(sorted(SMALL_CONFIGS)), label="experiment")
    n = draw(st.integers(2, 16), label="n_elements")
    a, d, lam = (10.0 ** draw(st.floats(lo, hi), label=label) for label, lo, hi in
                 (("log10 aperture", -6.0, 1.0), ("log10 distance", -3.0, 9.0),
                  ("log10 wavelength", -3.0, 0.0)))
    snr_db = draw(st.floats(-400.0, 400.0), label="snr_db")
    cfg = small_config(kind, carrier={"wavelength_m": lam})
    geo = cfg["geometry"]
    for key, value in (("aperture_m", a), ("apertures_m", [a]), ("element_spacing_m", a / (n - 1)),
                       ("distances_m", [d]), ("distance_m", d)):
        if key in geo:
            geo[key] = value
    if "n_elements" in geo:
        geo["n_elements"] = [n] if isinstance(geo["n_elements"], list) else n
    if "snr_db" in cfg.get("metrics", {}):
        cfg["metrics"]["snr_db"] = [snr_db]
    if "link" in cfg:
        cfg["link"]["snr_db"] = snr_db
    return cfg


@settings(max_examples=100, deadline=None)
@given(cfg=extreme_configs())
def test_extreme_legal_values_end_cleanly(cfg, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("extreme")
    cfg_path = write_config(tmp / "cfg.json", cfg)
    out = tmp / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        validated = main(["validate", cfg_path])
        ran = main(["run", cfg_path, "--out", str(out)])
    assert ran in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (validated == EXIT_CONFIG) == (ran == EXIT_CONFIG), (validated, ran)
    if ran != EXIT_OK:
        return
    assert_finite_outputs(out)
    (summary_path,) = out.glob("*_summary.json")
    summary = json.loads(summary_path.read_text())
    for table in summary["tables"]:
        for row in table["rows"]:
            values = dict(zip(table["columns"], row))
            if "dof" in values:
                assert values["edof1"] <= values["dof"]
    for report in summary.get("metric_reports", {}).values():
        assert report["edof1"] <= report["dof"]
        # the central difference carries about C * eps / delta_step of round-off
        assert all(e <= report["dof"] * (1.0 + 1e-9) for _, e in report["edof3_by_snr"])
