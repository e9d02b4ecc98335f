import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nfdof import __version__
from nfdof.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from nfdof.experiments import MAX_COUNT


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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        code = f"import sys, {module}; sys.exit({module}.{attr}())"
        proc = subprocess.run([sys.executable, "-c", code, "version"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == __version__

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

    def test_numerical_failure_is_3(self, tmp_path):
        cfg = {
            "experiment": "cap-edof-vs-distance",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"apertures_m": [1.37], "distances_m": [15.0]},
            "kernel": {"tol": 1e-18, "start_nodes": 8, "max_nodes": 16},
        }
        cfg_path = write_config(tmp_path / "hard.json", cfg)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL

    def test_io_failure_is_4(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json", spectrum_config())
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["run", cfg_path, "--out", str(blocker)]) == EXIT_IO


class TestSeedAndThreads:
    def test_seed_flag_reaches_provenance(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json", spectrum_config())
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out), "--seed", "77"]) == EXIT_OK
        header = (out / "spectrum_n16_d15.csv").read_text().splitlines()
        assert "# seed=77" in header

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
        "geometry": {"aperture_m": 0.2, "n_elements": [4, 6], "distances_m": [15.0, 50.0],
                     "axis": [0.0, 0.0, 1.0]},
        "model": "nusw", "seed": 0, "output_dir": "unused",
    },
    "edof-vs-n": {
        "experiment": "edof-vs-n", "carrier": {"frequency_hz": 3e10},
        "geometry": {"element_spacing_m": 0.05, "n_elements": [4, 6],
                     "distances_m": [15.0, 50.0]},
        "metrics": {"dominance": 0.01, "rank_tol": 1e-9}, "model": "usw",
    },
    "edof2-vs-n": {
        "experiment": "edof2-vs-n", "carrier": {"wavelength_m": 0.01},
        "geometry": {"aperture_m": 0.2, "n_elements": [4], "distances_m": [15.0, 50.0]},
        "kernel": {"tol": 1e-3, "start_nodes": 8, "max_nodes": 64},
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
        "kernel": {"tol": 1e-3, "start_nodes": 8, "max_nodes": 64},
        "metrics": {"dominance": 0.01},
    },
    "link-sim": {
        "experiment": "link-sim", "carrier": {"wavelength_m": 0.01},
        "geometry": {"aperture_m": 0.2, "n_elements": 4, "distance_m": 15.0},
        "link": {"active_modes": 2, "snr_db": 10.0, "n_symbols": 64, "dump_symbols": False},
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
    "normalize string": small_config("edof3-vs-snr", normalize="no"),
    "duplicate distances": with_leaf(small_config("spectrum"), ("geometry", "distances_m"),
                                     [15.0, 15.0]),
    "near-equal distances": with_leaf(small_config("spectrum"), ("geometry", "distances_m"),
                                      [15.0, 15.0000001]),
    "repeated n_elements": with_leaf(small_config("spectrum"), ("geometry", "n_elements"),
                                     [4, 4]),
    "start_nodes above max_nodes": with_leaf(small_config("cap-edof-vs-distance"),
                                             ("kernel", "start_nodes"), 128),
    "active_modes above n_elements": with_leaf(small_config("link-sim"),
                                               ("link", "active_modes"), 5),
    "metrics in edof2-vs-n": small_config("edof2-vs-n", metrics={"dominance": 0.5}),
    "axis along the link, elements coincide": small_config(
        "spectrum", geometry={"aperture_m": 1.0, "n_elements": [3], "distances_m": [0.5],
                              "axis": [0, 1, 0]}),
    "axis along the link, distance equals aperture": with_leaf(
        with_leaf(small_config("link-sim"), ("geometry", "axis"), [0, -1, 0]),
        ("geometry", "distance_m"), 0.2),
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
        monkeypatch.delenv("NFDOF_OUT", raising=False)
        assert main(["validate", cfg_path]) == EXIT_CONFIG
        out_args = [] if "output_dir" in name else ["--out", str(work / "out")]
        assert main(["run", cfg_path, *out_args]) == EXIT_CONFIG
        assert list(work.iterdir()) == []
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("error: invalid config") == 2

    @pytest.mark.parametrize("kind, leaf", SIZE_LEAVES)
    def test_size_limit_itself_validates(self, kind, leaf, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json",
                                with_leaf(small_config(kind), leaf, MAX_COUNT))
        assert main(["validate", cfg_path]) == EXIT_OK

    def test_negative_seed_flag_is_2_before_any_output(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json", small_config("link-sim"))
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
        assert not out.exists()
        assert "seed" in capsys.readouterr().err


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
