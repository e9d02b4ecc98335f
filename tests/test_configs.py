"""The shipped config documents must validate as-is."""

import json
from pathlib import Path

import pytest

from nfdof.experiments import EXPERIMENTS, validate_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_config_is_valid(path):
    validate_config(json.loads(path.read_text()))


def test_all_experiment_kinds_covered():
    kinds = {json.loads(p.read_text())["experiment"]
             for p in CONFIG_DIR.glob("*.json")}
    assert kinds == EXPERIMENTS.keys()
