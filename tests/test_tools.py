"""The output comparison of ``tools/traffic_outputs.py`` and the start
check of ``tools/ladder_sweep.py``."""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import ladder_sweep  # noqa: E402
from traffic_outputs import describe_move, moved_columns  # noqa: E402

HEADER = "# experiment=spectrum\n# seed=0\nmode_index,sigma,sigma_over_sigma1\n"


def spectrum_csv(values):
    rows = [f"{i},{v!r},{v / values[0]!r}" for i, v in enumerate(values, 1)]
    return HEADER + "\n".join(rows) + "\n"


def test_a_moved_value_above_the_clip_is_kept_apart_from_the_tail():
    # sigma_1 = 2: the second value lies above the clip of 1e-9 sigma_1 and
    # moves by 1e-15 of itself (5 ulps, 1.1e-15); the third is round-off and
    # moves by 1e-13 sigma_1, which is 0.1 of itself
    ref = [2.0, 0.5, 2e-12]
    new = [2.0, 0.5 * (1 + 1e-15), 2e-12 + 2e-13]
    path = Path("spectrum_n1024_d15.csv")
    moved = moved_columns(path, spectrum_csv(new), spectrum_csv(ref))
    assert set(moved) == {"sigma", "sigma_over_sigma1"}
    for label in moved:
        cell, tail = moved[label]
        assert cell == pytest.approx(1e-15, rel=0.15)
        assert tail == pytest.approx(1e-13, rel=1e-6)
    assert describe_move("sigma", *moved["sigma"]) == "sigma 1.1e-15 (tail 1e-13 of scale)"


def test_each_kind_of_move_is_none_where_it_did_not_happen():
    ref = [2.0, 0.5, 2e-12]
    path = Path("spectrum_n64_d15.csv")
    tail_only = moved_columns(path, spectrum_csv([2.0, 0.5, 3e-12]), spectrum_csv(ref))
    assert tail_only["sigma"] == (None, pytest.approx(5e-13))
    assert describe_move("sigma", *tail_only["sigma"]) == "sigma (tail 5e-13 of scale)"
    cell_only = moved_columns(path, spectrum_csv([2.0, 0.25, 2e-12]), spectrum_csv(ref))
    assert cell_only["sigma"] == (0.5, None)
    assert describe_move("sigma", *cell_only["sigma"]) == "sigma 0.5"
    assert moved_columns(path, spectrum_csv(ref), spectrum_csv(ref)) == {}


def test_the_ladder_start_keeps_its_margins():
    # the sweep exits 1 when the stop rule or the rules put a first agreeing
    # rung under _START, or make the rung below the start agree with it
    assert ladder_sweep.main() == 0
