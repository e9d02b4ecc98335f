"""The shipped and benchmark config documents must validate as-is."""

import json
from pathlib import Path

import pytest

from nfdof.experiments import EXPERIMENTS, validate_config
from nfdof.spec import PARSERS

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
BENCH_CONFIG_DIR = ROOT / "nfbench" / "configs"
STRESS_CONFIG_DIR = ROOT / "tools" / "stress"


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_config_is_valid(path):
    validate_config(json.loads(path.read_text()))


# read only: a parse change that rejects a benchmark workload fails here
# rather than in the benchmark run
@pytest.mark.parametrize("path", sorted(BENCH_CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.name)
def test_benchmark_config_is_valid(path):
    validate_config(json.loads(path.read_text()))


# validated, never run: the stress configs are sized for tools/bench_pairs.py --stress
@pytest.mark.parametrize("path", sorted(STRESS_CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.name)
def test_stress_config_is_valid(path):
    validate_config(json.loads(path.read_text()))


def test_all_experiment_kinds_covered():
    kinds = {json.loads(p.read_text())["experiment"]
             for p in CONFIG_DIR.glob("*.json")}
    assert kinds == EXPERIMENTS.keys()
    # every experiment the parse accepts has a runner
    assert list(PARSERS) == list(EXPERIMENTS)
