import contextlib
import json
import math
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import nfdof.channel
import nfdof.kernel
import nfdof.modes
from conftest import (WAVELENGTH, cap_converged, cap_eigenvalues_direct, direct_response,
                      facing_sum_rule, mapped_rule, mirror_verdicts, parity_blocks,
                      parity_split_values, prolate_eigenvalues, quarter_ladder,
                      sampled_kernel, segment_pair, sqrt2_ladder, tilted_pair)
from nfdof.errors import ConvergenceError, SingularGeometryError
from nfdof.experiments import run_experiment
from nfdof.geometry import continuous_aperture, rayleigh_distance
from nfdof.kernel import (build_kernel, cap_spectrum, converge_spectrum, gauss_legendre_rule,
                          gauss_legendre_segment)
from nfdof.metrics import cap_edof1, cap_edof2
from nfdof.spec import LADDER_FLOOR


@pytest.fixture
def rule_calls(monkeypatch):
    """Counts the node counts passed to ``gauss_legendre_rule`` by the
    kernel module, from an empty process-wide rule table; the warm table
    comes back after the test."""
    monkeypatch.setattr(nfdof.kernel, "_RULES", {})
    calls = Counter()
    lock = threading.Lock()
    original = nfdof.kernel.gauss_legendre_rule

    def counting(m):
        with lock:
            calls[m] += 1
        return original(m)

    monkeypatch.setattr(nfdof.kernel, "gauss_legendre_rule", counting)
    return calls


@pytest.fixture
def rung_calls(monkeypatch):
    """Records the node count of every ``build_kernel`` call that the
    kernel module's ladder makes."""
    calls = []
    original = nfdof.kernel.build_kernel

    def counting(tx, rx, carrier, m_nodes):
        calls.append(m_nodes)
        return original(tx, rx, carrier, m_nodes)

    monkeypatch.setattr(nfdof.kernel, "build_kernel", counting)
    return calls


@pytest.fixture
def mirror_tests():
    """Records the verdict of every point-mirror test ``build_kernel`` makes."""
    with mirror_verdicts() as verdicts:
        yield verdicts


def layout_pair(layout, d, aperture, shift, angle):
    """Facing segments, the receive one shifted along its axis by ``shift``
    m ("offset") or tilted by ``angle`` rad ("tilted")."""
    if layout == "offset":
        tx, _ = segment_pair(d, aperture)
        return tx, continuous_aperture((0.0, d, shift - aperture / 2),
                                       (0.0, d, shift + aperture / 2))
    if layout == "tilted":
        return tilted_pair(d, angle, aperture)
    return segment_pair(d, aperture)


def assert_blocks_equal(blocks, expected):
    assert len(blocks) == len(expected) == 2
    for b, ref in zip(blocks, expected):
        assert np.array_equal(b, ref)


def full_g_response(monkeypatch, tx, rx, m):
    """``build_kernel`` with the half-row assembly switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(nfdof.kernel, "_mirror_points", lambda rx_pts, tx_pts: False)
        (h,) = build_kernel(tx, rx, WAVELENGTH, m)
        return h


class TestBuildKernel:
    def test_diagonal_real_positive(self):
        tx, rx = segment_pair(25.0)
        _, k, _ = sampled_kernel(tx, rx, 32)
        diag = np.diag(k)
        assert np.max(np.abs(diag.imag)) <= 1e-14 * np.max(diag.real)
        assert np.all(diag.real > 0.0)

    def test_hermitian_by_construction(self):
        tx, rx = segment_pair(25.0)
        _, k, _ = sampled_kernel(tx, rx, 48)
        assert np.linalg.norm(k - k.conj().T) < 1e-12 * np.linalg.norm(k)

    def test_weighted_trace_quadrature_invariant(self):
        tx, rx = segment_pair(50.0)
        traces = []
        for m in (128, 256):
            _, k, w = sampled_kernel(tx, rx, m)
            traces.append(float(np.sum(w * np.diag(k).real)))
        assert abs(traces[1] - traces[0]) < 1e-8 * abs(traces[1])

    def test_positive_semidefinite(self):
        tx, rx = segment_pair(15.0)
        _, k, w = sampled_kernel(tx, rx, 64)
        w = np.sqrt(w)
        eig = np.linalg.eigvalsh(w[:, None] * k * w[None, :])
        assert eig.min() > -1e-10 * eig.max()

    @pytest.mark.parametrize("m", [33, 64])
    def test_mirror_segments_give_centrosymmetric_kernel(self, m):
        tx, rx = segment_pair(25.0)
        even, odd = build_kernel(tx, rx, WAVELENGTH, m)
        assert not even.flags.writeable and not odd.flags.writeable
        assert (even.shape, odd.shape) == (((m + 1) // 2,) * 2, (m // 2,) * 2)
        h = direct_response(tx, rx, m)
        assert np.array_equal(h, h[::-1, ::-1])
        assert_blocks_equal((even, odd), parity_blocks(h))

    def test_offset_segments_take_the_full_assembly(self, mirror_tests):
        tx, _ = segment_pair(25.0)
        rx = continuous_aperture((0.0, 25.0, -0.5), (0.0, 25.0, 1.0))
        (h,) = build_kernel(tx, rx, WAVELENGTH, 32)
        assert mirror_tests == [False]
        assert not np.array_equal(h, h[::-1, ::-1])
        assert np.array_equal(h, direct_response(tx, rx, 32))

    @pytest.mark.parametrize("m", [33, 64, 91, 724])
    def test_half_row_build_equals_the_full_build(self, m, monkeypatch, mirror_tests):
        # the blocks folded from the top rows are those of the full build
        tx, rx = segment_pair(8.0, 5.0)
        blocks = build_kernel(tx, rx, WAVELENGTH, m)
        assert mirror_tests == [True]
        assert_blocks_equal(blocks, parity_blocks(full_g_response(monkeypatch, tx, rx, m)))

    @settings(max_examples=60, deadline=None)
    @given(layout=st.sampled_from(["mirror", "offset", "tilted"]),
           half=st.integers(4, 60), odd=st.booleans(), d=st.floats(2.0, 200.0),
           aperture=st.floats(0.1, 5.0), shift=st.floats(0.05, 1.0),
           angle=st.floats(0.05, 1.2))
    def test_folded_blocks_equal_those_of_the_direct_response(
            self, layout, half, odd, d, aperture, shift, angle):
        m = 2 * half + odd
        tx, rx = layout_pair(layout, d, aperture, shift, angle)
        built = build_kernel(tx, rx, WAVELENGTH, m)
        h = direct_response(tx, rx, m)
        if layout == "mirror":
            assert_blocks_equal(built, parity_blocks(h))
            assert not any(b.flags.writeable for b in built)
        else:
            (response,) = built
            assert not response.flags.writeable
            assert np.array_equal(response, h)

    def test_tilted_segments_take_the_full_assembly(self, mirror_tests):
        tx, rx = tilted_pair(8.0, 0.3)
        (h,) = build_kernel(tx, rx, WAVELENGTH, 64)
        assert mirror_tests == [False]
        assert np.array_equal(h, direct_response(tx, rx, 64))

    def test_mirror_test_needs_both_node_sets_alike_per_coordinate(self):
        x = np.array([-1.0, 0.0, 1.0])
        zero, one = np.zeros(3), np.ones(3)

        def mirror(r_cols, s_cols):
            return nfdof.kernel._mirror_points(np.column_stack(r_cols),
                                               np.column_stack(s_cols))

        assert mirror((zero, one, x), (zero, zero, 2 * x))
        # an antisymmetric coordinate facing a constant nonzero one
        assert not mirror((zero, x, one), (zero, one, x))
        assert not mirror((zero, one, x + 1e-9), (zero, zero, x))

    def test_too_few_nodes_rejected(self):
        tx, rx = segment_pair(25.0)
        with pytest.raises(ValueError):
            build_kernel(tx, rx, WAVELENGTH, 4)

    def test_overlapping_segments_rejected(self):
        tx = continuous_aperture((0, 0, -1), (0, 0, 1))
        crossing = continuous_aperture((0, -1, 0), (0, 1, 0))
        with pytest.raises(SingularGeometryError):
            build_kernel(tx, crossing, WAVELENGTH, 16)


class TestCapSpectrum:
    def test_far_geometry_single_mode(self):
        aperture = 0.1
        d = 10.0 * rayleigh_distance(aperture, WAVELENGTH)
        tx, rx = segment_pair(d, aperture)
        lam = cap_spectrum(build_kernel(tx, rx, WAVELENGTH, 64)) ** 2
        assert lam[1] / lam[0] < 1e-3

    def test_canonical_dominant_count(self):
        assert cap_edof1(cap_converged(15.0)) == 15
        assert cap_edof1(cap_converged(50.0)) == 6

    def test_odd_node_count_matches_the_full_eigensolve(self):
        tx, rx = segment_pair(15.0)
        _, k, w = sampled_kernel(tx, rx, 33)
        lam = cap_spectrum(build_kernel(tx, rx, WAVELENGTH, 33)) ** 2
        w = np.sqrt(w)
        full = np.linalg.eigvalsh(w[:, None] * k * w[None, :])[::-1]
        assert lam.size == full.size == 33
        assert np.max(np.abs(lam - full)) <= 1e-13 * full[0]

    def test_all_nonnegative(self):
        tx, rx = segment_pair(15.0)
        lam = cap_spectrum(build_kernel(tx, rx, WAVELENGTH, 96)) ** 2
        assert np.all(lam >= 0.0)

    def test_eigenvalue_sum_matches_weighted_trace(self):
        tx, rx = segment_pair(35.0)
        _, k, w = sampled_kernel(tx, rx, 128)
        lam = cap_spectrum(build_kernel(tx, rx, WAVELENGTH, 128)) ** 2
        trace = float(np.sum(w * np.diag(k).real))
        assert abs(lam.sum() - trace) < 1e-10 * trace

    @pytest.mark.parametrize("d", [8.0, 200.0])
    def test_every_value_is_solved(self, d):
        # no rank estimate reaches a kernel: each parity block takes the SVD
        tx, rx = segment_pair(d, 5.0)
        spec = cap_spectrum(build_kernel(tx, rx, WAVELENGTH, 256))
        assert spec.shape == (256,) and not spec.flags.writeable
        assert np.array_equal(spec, parity_split_values(direct_response(tx, rx, 256)))

    @settings(max_examples=60, deadline=None)
    @given(layout=st.sampled_from(["mirror", "offset", "tilted"]),
           half=st.integers(4, 36), odd=st.booleans(), d=st.floats(2.0, 200.0),
           aperture=st.floats(0.1, 3.0), shift=st.floats(0.05, 1.0),
           angle=st.floats(0.05, 1.2))
    def test_squared_singular_values_match_the_direct_eigensolve(
            self, layout, half, odd, d, aperture, shift, angle):
        m = 2 * half + odd
        tx, rx = layout_pair(layout, d, aperture, shift, angle)
        lam = cap_spectrum(build_kernel(tx, rx, WAVELENGTH, m)) ** 2
        ref = cap_eigenvalues_direct(tx, rx, m)
        assert lam.size == ref.size == m
        assert np.max(np.abs(lam - ref)) <= 1e-13 * ref[0]


class TestCapMetrics:
    def test_equal_eigenvalues(self):
        assert cap_edof2(np.full(5, np.sqrt(2.5))) == pytest.approx(5.0, rel=1e-12)

    def test_distance_sweep_decreases(self):
        values = [cap_edof2(cap_converged(d)) for d in (10.0, 36.84, 135.72, 500.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_far_field_limit_near_one(self):
        assert cap_edof2(cap_converged(500.0)) == pytest.approx(1.0, abs=0.1)

    def test_aperture_monotonicity(self):
        d = 50.0
        e1, e2 = [], []
        for aperture in (0.5, 1.0, 1.37, 2.0):
            spec = cap_converged(d, aperture=aperture)
            e1.append(cap_edof1(spec))
            e2.append(cap_edof2(spec))
        assert all(b >= a for a, b in zip(e1, e1[1:]))
        assert all(b > a for a, b in zip(e2, e2[1:]))


class TestConvergeSpectrum:
    def test_converges_quickly_mid_range(self, rung_calls):
        # 1.37 m segments at 50 m: path spread sqrt(50**2 + 1.37**2) - 50 =
        # 1.88 wavelengths, a cliff of pi * 1.88 = 5.9 nodes, so the ladder
        # starts on the floor of 16, and rungs 16 and 17 agree
        tx, rx = segment_pair(50.0)
        spec = converge_spectrum(tx, rx, WAVELENGTH, tol=1e-6)
        m = len(spec)
        assert m == rung_calls[-1] <= 512
        assert rung_calls == [16, 17]
        # the ladder compares all 16 values of the lower rung
        n = rung_calls[-2]
        lam = spec[:n] ** 2
        below = cap_spectrum(build_kernel(tx, rx, WAVELENGTH, rung_calls[-2]))[:n] ** 2
        assert np.max(np.abs(lam - below)) / lam[0] < 1e-6

    def test_infinite_tol_returns_first_iterate(self, rung_calls):
        # 1.37 m segments at 50 m put the cliff, 5.9 nodes, below the floor of 16
        tx, rx = segment_pair(50.0)
        converge_spectrum(tx, rx, WAVELENGTH, tol=1e-6)
        assert rung_calls[0] == 16

    def test_deterministic(self):
        tx, rx = segment_pair(50.0)
        a = converge_spectrum(tx, rx, WAVELENGTH, tol=1e-6)
        b = converge_spectrum(tx, rx, WAVELENGTH, tol=1e-6)
        assert np.array_equal(a, b)

    def test_nonconvergence_raises(self):
        tx, rx = segment_pair(15.0)
        with pytest.raises(ConvergenceError, match="at 91 nodes") as err:
            converge_spectrum(tx, rx, WAVELENGTH, tol=1e-18, max_nodes=91)
        last_change = float(str(err.value).split("change by ")[1].split()[0])
        assert last_change > 1e-18

    def test_ladder_starts_below_the_cliff_and_climbs_by_an_eighth_root_of_2(self, rung_calls):
        # 5 m segments at 20 m: path spread sqrt(20**2 + 5**2) - 20 = 61.6
        # wavelengths, so the cliff estimate pi * 61.6 = 193 nodes, and the
        # ladder starts at the first rung at or above 0.70 * 193 = 135:
        # round(16 * 2**(33/8)) = round(64 * 2**(17/8)) = 140, then 152
        tx, rx = segment_pair(20.0, 5.0)
        spec = converge_spectrum(tx, rx, WAVELENGTH, tol=1e-6)
        assert rung_calls == [140, 152]
        assert len(spec) == 152

    def test_grid_holds_every_rung_of_the_fourth_root_grid(self):
        # 16 * 2**((k + 16)/8) = 64 * 2**(k/8): from rung 16 on, the grid is the
        # 2**(1/8) grid from 64, so every ladder above 64 nodes keeps its rungs
        rungs = [nfdof.kernel._rung(k) for k in range(136)]
        assert {round(64 * 2 ** (k / 4)) for k in range(60)} <= set(rungs)
        assert {round(16 * 2 ** (k / 4)) for k in range(68)} <= set(rungs)
        assert rungs[16:] == [round(64 * 2 ** (k / 8)) for k in range(120)]
        assert rungs[:8] == [16, 17, 19, 21, 23, 25, 27, 29]
        assert rungs[16:24] == [64, 70, 76, 83, 91, 99, 108, 117]
        assert rungs[::8] == [16 * 2 ** j for j in range(17)]

    @pytest.mark.parametrize("cap", [17, 65, 100, 1000])
    def test_rungs_never_exceed_max_nodes(self, cap, rung_calls):
        tx, rx = segment_pair(15.0)
        with pytest.raises(ConvergenceError, match=f"at {cap} nodes"):
            converge_spectrum(tx, rx, WAVELENGTH, tol=1e-300, max_nodes=cap)
        assert max(rung_calls) == rung_calls[-1] == cap
        assert rung_calls == sorted(set(rung_calls))

    def test_max_nodes_must_exceed_the_floor(self, rung_calls):
        tx, rx = segment_pair(15.0)
        with pytest.raises(ValueError, match="max_nodes"):
            converge_spectrum(tx, rx, WAVELENGTH, max_nodes=LADDER_FLOOR)
        assert LADDER_FLOOR == 16 and rung_calls == []

    @pytest.mark.parametrize("d, aperture, cap, first", [
        (8.0, 5.0, 4096, 332),    # cliff pi * 143 = 450 nodes, 0.70 of it 315: 304, 332
        (8.0, 5.0, 600, 279),     # the last rung at or below max_nodes / 2 = 300
        (8.0, 5.0, 100, 49),      # the last rung at or below max_nodes / 2 = 50: 45, 49, 54
        (8.0, 5.0, 20, 16),       # max_nodes / 2 = 10 below the floor of 16
        (150.0, 0.5, 4096, 16),   # cliff at 0.3 nodes
        (20.0, 5.0, 4096, 140),   # 0.70 * 193 = 135: rungs 16, 17, 19, ..., 128, 140
    ])
    def test_infinite_tol_returns_the_start_rung(self, d, aperture, cap, first, rung_calls):
        # the first rung a finite-tol ladder builds, whether or not it
        # converges under the cap
        tx, rx = segment_pair(d, aperture)
        with contextlib.suppress(ConvergenceError):
            converge_spectrum(tx, rx, WAVELENGTH, tol=1e-6, max_nodes=cap)
        assert rung_calls[0] == first

    # every final rung here is at most 256 nodes, and every start is above
    # the floor of 16
    @pytest.mark.parametrize("aperture, d", [(5.0, 20.0), (5.0, 30.0), (5.0, 12.0),
                                             (1.37, 2.0), (1.37, 3.0), (2.0, 4.0), (2.0, 6.0)])
    def test_starting_one_rung_lower_changes_no_result(self, aperture, d, rung_calls,
                                                       monkeypatch):
        # the rung one 2**(1/8) step below the start, the largest below 0.70
        # times the cliff, never agrees with the start, so the ladder started
        # from it climbs through the same rungs to the same values
        tx, rx = segment_pair(d, aperture)
        spec = converge_spectrum(tx, rx, WAVELENGTH, tol=1e-6)
        rungs = list(rung_calls)
        rung = nfdof.kernel._rung
        k = [rung(j) for j in range(40)].index(rungs[0])
        cliff = np.pi * nfdof.kernel._path_spread(tx.segment, rx.segment) / WAVELENGTH
        assert 1 <= k and rung(k - 1) < nfdof.kernel._START * cliff <= rung(k)
        rung_calls.clear()
        monkeypatch.setattr(nfdof.kernel, "_START", rung(k - 1) / cliff * (1 - 1e-9))
        lower = converge_spectrum(tx, rx, WAVELENGTH, tol=1e-6)
        assert rung_calls == [rung(k - 1)] + rungs
        assert len(lower) == len(spec) == rungs[-1]
        assert np.array_equal(lower, spec)

    @settings(max_examples=60, deadline=None)
    @given(aperture=st.floats(0.1, 1.5), d=st.floats(10.0, 1000.0))
    def test_short_ladders_agree_with_a_fixed_256_node_reference(self, aperture, d):
        # a ladder that stops below 35 nodes compares the values it returns
        # only with the rung below; hold every one of them to a fine rule instead
        tol = 1e-6
        tx, rx = segment_pair(d, aperture)
        spec = converge_spectrum(tx, rx, WAVELENGTH, tol=tol)
        m = len(spec)
        assume(m < 35)
        lam = spec ** 2
        ref = cap_spectrum(build_kernel(tx, rx, WAVELENGTH, 256))[:m] ** 2
        assert np.max(np.abs(lam - ref)) <= 10 * tol * ref[0]

    @pytest.mark.parametrize("d", [0.2, 1.0, 3.0, 50.0, 1e9])
    @pytest.mark.parametrize("cap", [17, 65, 100, 101, 4096])
    def test_start_rung_within_floor_and_half_cap(self, d, cap, monkeypatch):
        # the first rung, read with no kernel built: equal stub spectra stop
        # the ladder at its second rung
        calls = []
        monkeypatch.setattr(nfdof.kernel, "build_kernel",
                            lambda tx, rx, carrier, m: calls.append(m) or (np.empty((m, 0)),))
        monkeypatch.setattr(nfdof.kernel, "_block_values", lambda blocks: np.ones(1))
        tx, rx = segment_pair(d, 5.0)
        converge_spectrum(tx, rx, WAVELENGTH, max_nodes=cap)
        # the floor is 16, and rung k is round(16 * 2**(k/8))
        m = calls[0]
        assert 16 <= m <= max(16, cap / 2)
        assert m in {round(16 * 2 ** (k / 8)) for k in range(176)}

    def test_a_change_past_the_top_20_values_keeps_the_ladder_climbing(self, monkeypatch):
        # stub spectra of 30 values: the start rung's 25th eigenvalue is
        # 10 * tol above that of every later rung, and the top 20 never move,
        # so only the third rung agrees with the one below
        tol = 1e-6
        calls = []
        lam = np.geomspace(1.0, 1e-3, 30)
        monkeypatch.setattr(nfdof.kernel, "build_kernel",
                            lambda tx, rx, carrier, m: calls.append(m) or (np.empty((m, 0)),))
        monkeypatch.setattr(nfdof.kernel, "_block_values", lambda blocks: np.sqrt(
            lam + (len(calls) == 1) * 10 * tol * (np.arange(30) == 24)))
        tx, rx = segment_pair(50.0)
        spec = converge_spectrum(tx, rx, WAVELENGTH, tol=tol)
        assert calls == [16, 17, 19]
        assert np.array_equal(spec, np.sqrt(lam))


# (aperture, distance) pairs; 5 m at 3 m and 6 m need 2048-4096 nodes for
# the doubled check, too slow for the suite
WHOLE_SPECTRUM_CASES = [(a, d) for a in (0.5, 1.37, 5.0) for d in (3.0, 6.0, 8.0, 20.0, 150.0)
                        if not (a == 5.0 and d < 8.0)]


@pytest.mark.parametrize("aperture, d", WHOLE_SPECTRUM_CASES)
def test_converged_rung_resolves_the_whole_spectrum(aperture, d):
    tx, rx = segment_pair(d, aperture)
    spec = converge_spectrum(tx, rx, WAVELENGTH, tol=1e-6)
    fine = cap_spectrum(build_kernel(tx, rx, WAVELENGTH, 2 * len(spec)))
    for dominance in (0.01, 0.5):
        assert cap_edof1(spec, dominance) == cap_edof1(fine, dominance)
    assert cap_edof2(spec) == pytest.approx(cap_edof2(fine), rel=1e-12, abs=0)


@pytest.mark.parametrize("aperture, d", [(5.0, 1.0), (5.0, 3.0), (5.0, 8.0), (1.37, 2.0),
                                         (1.37, 15.0), (0.5, 500.0)])
def test_converged_spectrum_meets_the_sum_rule(aperture, d):
    # |g|**2 does not oscillate, so this tests the mapped weights, not the cliff
    values = cap_converged(d, aperture)
    assert np.sum(values ** 2) == pytest.approx(facing_sum_rule(aperture, d), rel=1e-13, abs=0)


# 1.37-5 m apertures at 1-50 m, with d above the distance where the path
# spread reaches 2.5 m: that keeps the cliff below 800 nodes, and the sqrt(2)
# ladder, which converges by 1.26 times the cliff, at or below 1448 nodes
@settings(max_examples=8, deadline=None)
@given(aperture=st.floats(1.37, 5.0), position=st.floats(0.0, 1.0))
@example(aperture=5.0, position=0.0)
@example(aperture=3.0, position=0.91796875)  # stopped at 38 nodes on the top 20 alone
def test_mapped_ladder_matches_the_sqrt2_ladder(aperture, position):
    near = max(1.0, (aperture ** 2 - 2.5 ** 2) / 5.0)
    d = near * (50.0 / near) ** position
    tx, rx = segment_pair(d, aperture)
    old, new = sqrt2_ladder(tx, rx), converge_spectrum(tx, rx, WAVELENGTH, tol=1e-6)
    for dominance in (0.01, 0.5):
        assert cap_edof1(new, dominance) == cap_edof1(old, dominance)
    assert cap_edof2(new) == pytest.approx(cap_edof2(old), rel=1e-12, abs=0)


# 1.37-5 m apertures at 1-50 m: the quarter ladder stops at or below 1448
# nodes, at 5 m at 1 m
@settings(max_examples=8, deadline=None)
@given(aperture=st.floats(1.37, 5.0), position=st.floats(0.0, 1.0))
@example(aperture=5.0, position=0.0)
@example(aperture=5.0, position=np.log(8.0) / np.log(50.0))
# both stopped at 41 nodes on the top 20 alone
@example(aperture=3.078125, position=0.904296875)
@example(aperture=3.21875, position=0.92578125)
def test_mapped_ladder_matches_the_quarter_ladder(aperture, position):
    d = 50.0 ** position
    tx, rx = segment_pair(d, aperture)
    old, new = quarter_ladder(tx, rx), converge_spectrum(tx, rx, WAVELENGTH, tol=1e-6)
    for dominance in (0.01, 0.5):
        assert cap_edof1(new, dominance) == cap_edof1(old, dominance)
    assert cap_edof2(new) == pytest.approx(cap_edof2(old), rel=1e-12, abs=0)


class TestProlateOracle:
    """In the Fresnel limit two parallel facing segments of lengths L_t and
    L_r at distance d have, up to diagonal unitaries and a scale, the sinc
    kernel of bandwidth c = pi L_t L_r / (2 lambda d) (Slepian & Pollak,
    Bell Syst. Tech. J. 40, 1961), so sigma_n**2 / sigma_1**2 approaches
    lambda_n(c) / lambda_0(c) up to Fresnel terms of order (L/d)**2.  The
    oracle shares no node, weight or solver with the toolkit."""

    @staticmethod
    def gap(l_t, l_r, d):
        """The converged kernel spectrum, the prolate ratios lambda_n /
        lambda_0, and their largest difference over the modes above 1e-12."""
        tx = continuous_aperture((0.0, 0.0, -l_t / 2), (0.0, 0.0, l_t / 2))
        rx = continuous_aperture((0.0, d, -l_r / 2), (0.0, d, l_r / 2))
        spec = converge_spectrum(tx, rx, WAVELENGTH, tol=1e-10)
        ratio = spec ** 2 / spec[0] ** 2
        lam = prolate_eigenvalues(np.pi * l_t * l_r / (2 * WAVELENGTH * d))
        n = min(int(np.count_nonzero(ratio > 1e-12)), lam.size)
        return spec, lam / lam[0], float(np.max(np.abs(ratio[:n] - lam[:n] / lam[0])))

    def test_oracle_matches_the_tables_and_the_trace(self):
        assert prolate_eigenvalues(1.0)[0] == pytest.approx(0.5726, abs=5e-5)
        assert np.allclose(prolate_eigenvalues(4.0)[:4], [0.9959, 0.9121, 0.5191, 0.1102],
                           rtol=0, atol=5e-5)
        # the trace of the sinc kernel on [-1, 1] is the Shannon number 2c/pi
        for c in (0.5, 4.0, 20.0, 31.4):
            assert prolate_eigenvalues(c).sum() == pytest.approx(2 * c / np.pi, rel=1e-12)

    @pytest.mark.parametrize("aperture, d", [(1.37, 150.0), (1.37, 50.0), (1.37, 15.0),
                                             (0.5, 10.0)])
    def test_whole_spectrum_at_the_roadmap_geometries(self, aperture, d):
        spec, lam, gap = self.gap(aperture, aperture, d)
        assert gap <= 2 * (aperture / d) ** 2
        assert cap_edof1(spec, dominance=0.01) == np.count_nonzero(lam >= 0.01)

    # d >= 10 max(L) and L <= 2 m keep c below 32: beyond about c = 35 the
    # dropped quartic Fresnel phase, about c (L/d)**2 / 2, outgrows 2 (L/d)**2
    @settings(max_examples=100, deadline=None)
    @given(l_t=st.floats(0.05, 2.0), l_r=st.floats(0.05, 2.0), spacing=st.floats(10.0, 300.0))
    def test_fresnel_limit_of_the_whole_spectrum(self, l_t, l_r, spacing):
        d = spacing * max(l_t, l_r)
        assert self.gap(l_t, l_r, d)[2] <= 2 * (max(l_t, l_r) / d) ** 2

    # beyond L = 2 m the gap grows with c, as about 0.05-0.06 c (L/d)**2;
    # a slope of 2 / (10 pi), the largest c of the property above, keeps
    # every scanned gap (L up to 5 m, c up to 79) within 0.91 of the bound
    @settings(max_examples=100, deadline=None)
    @given(big=st.floats(2.0, 5.0, exclude_min=True), other=st.floats(0.05, 5.0),
           swap=st.booleans(), spacing=st.floats(10.0, 300.0))
    @example(big=5.0, other=5.0, swap=False, spacing=10.0)
    @example(big=2.05, other=2.05, swap=False, spacing=10.0)
    def test_fresnel_limit_of_long_segments(self, big, other, swap, spacing):
        l_t, l_r = (other, big) if swap else (big, other)
        d = spacing * max(l_t, l_r)
        c = np.pi * l_t * l_r / (2 * WAVELENGTH * d)
        bound = 2 * max(1.0, c / (10 * np.pi)) * (max(l_t, l_r) / d) ** 2
        assert self.gap(l_t, l_r, d)[2] <= bound


REPO = Path(__file__).resolve().parent.parent
# the shipped configs and the benchmark's stress configs
TRAFFIC_CONFIGS = sorted(REPO.glob("configs/*.json")) + sorted(
    REPO.glob("nfbench/configs/*.json"))


# the element counts of the points that run the finder, in run order
FINDER_POINTS = {"array_large.json": [1024] * 3, "spectrum.json": [256] * 3,
                 "edof3_vs_snr.json": [256] * 3,
                 **{name: [275] * 3 for name in ("edof_vs_n.json", "edof2_vs_n.json",
                                                 "edof2_vs_n_growing.json")}}


@pytest.mark.parametrize("path", TRAFFIC_CONFIGS, ids=lambda p: p.name)
def test_every_shipped_ladder_takes_the_half_row_build(path, tmp_path, monkeypatch,
                                                        rung_calls, mirror_tests):
    # every kernel assembly builds half its rows, every facing-ULA channel
    # is gathered from its column with no assembly, and every dense
    # values-only solve is of two parity blocks; the spectra of facing-ULA
    # points with N >= 6 k (k = 2 * 16 probe columns for 1.37 m at 15-150
    # m: N = 256, 275 and 1024) run the finder on the parity blocks of the
    # Toeplitz operator, and fold no matrix
    splits, operators = [], []
    original = nfdof.modes._block_values
    finder = nfdof.modes._leading_values

    def recording(blocks):
        splits.append(len(blocks) == 2)
        return original(blocks)

    def operator_finder(sketch, adjoint, n, k):
        found = finder(sketch, adjoint, n, k)
        if found is not None:
            operators.append(n)
        return found

    for module in (nfdof.modes, nfdof.kernel):
        monkeypatch.setattr(module, "_block_values", recording)
    monkeypatch.setattr(nfdof.modes, "_leading_values", operator_finder)
    cfg = json.loads(path.read_text())
    run_experiment(cfg, out_dir=tmp_path)
    assert mirror_tests == [True] * len(mirror_tests)
    assert splits == [True] * len(splits)
    assert splits or operators
    assert operators == FINDER_POINTS.get(path.name, [])
    if cfg["experiment"] in ("cap-edof-vs-distance", "edof2-vs-n"):
        # the SPD side of edof2-vs-n builds a column per grid point, no matrix
        assert rung_calls and len(mirror_tests) == len(rung_calls)
    else:
        assert mirror_tests == []
        if cfg["experiment"] == "link-sim":
            # N = 64: the top rows of the gathered matrix, solved as its parity blocks
            assert splits
        elif cfg["experiment"] == "edof3-vs-snr":
            # N = 256: the finder on the column of the normalized channel
            assert splits == []


class TestGaussLegendreRules:
    """The process-wide table of rules behind ``gauss_legendre_segment``."""

    def test_rule_is_read_only_and_shared(self, rule_calls):
        nodes, weights = gauss_legendre_segment((0.0, 0.0, -1.0), (0.0, 0.0, 1.0), 16)
        gauss_legendre_segment((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), 16)
        assert rule_calls == {16: 1}
        x, w = nfdof.kernel._RULES[16]
        assert np.array_equal(nodes[:, 2], x) and np.array_equal(weights, w)
        ref_x, ref_w = mapped_rule(16, nfdof.kernel._map_alpha(16))
        assert np.allclose(x, ref_x, rtol=0, atol=4e-16)
        assert np.allclose(w, ref_w, rtol=4e-16, atol=0)
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("m", [8, 9, 64, 65, 512, 1024])
    def test_segment_rule_is_the_mapped_rule_and_mirror_exact(self, m):
        nodes, w = gauss_legendre_segment((0.0, 0.0, -1.0), (0.0, 0.0, 1.0), m)
        x = nodes[:, 2]
        ref_x, ref_w = mapped_rule(m, nfdof.kernel._map_alpha(m))
        assert np.max(np.abs(x - ref_x)) <= 4e-16
        assert np.max(np.abs(w / ref_w - 1)) <= 4e-16 * np.sqrt(m)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0)
        # the map takes [-1, 1] onto itself, so the weights sum to 2, to
        # within rho**(-2 m), which alpha(m) holds at (3/4)**128 = 1e-16
        assert abs(w.sum() - 2.0) <= 1e-14

    @pytest.mark.parametrize("m", [8, 9, 16, 64, 65, 70, 128, 181, 256, 362, 1024, 4096])
    def test_map_error_is_that_of_the_64_node_map_at_every_m(self, m):
        # the poles of arcsin(alpha x) at +-1/alpha lie on the Bernstein
        # ellipse of rho = (1 + sqrt(1 - alpha**2)) / alpha, so the map's
        # error is rho**(-2 m); read back from alpha, which is rounded to
        # 2**-53, rho**(2 m) is only good to about m**2 2**-52 / 9 past 256
        alpha = nfdof.kernel._map_alpha(m)
        rho = (1.0 + np.sqrt((1.0 - alpha) * (1.0 + alpha))) / alpha
        bound = max(1e-12, m * m * 2.0 ** -52 / 9)
        assert rho ** (2 * m) == pytest.approx((4 / 3) ** 128, rel=bound, abs=0)

    def test_alpha_rises_with_m_below_1_from_0_96_at_64_nodes(self):
        # 0.96 at the map's own 64 nodes, which the ladder floor of 16 no longer sets
        assert nfdof.kernel._MAP_NODES == 64 != LADDER_FLOOR
        assert abs(nfdof.kernel._map_alpha(64) - 0.96) <= math.ulp(0.96)
        alpha = np.array([nfdof.kernel._map_alpha(m) for m in range(8, 4097)])
        assert np.all(np.diff(alpha) > 0) and alpha[-1] < 1.0
        assert alpha[0] == pytest.approx(0.2, abs=2e-3)

    @pytest.mark.parametrize("m", [8, 9, 64, 65, 512, 1024])
    def test_rule_matches_leggauss_and_is_mirror_exact(self, m):
        x, w = gauss_legendre_rule(m)
        ref_x, ref_w = np.polynomial.legendre.leggauss(m)
        assert np.max(np.abs(x - ref_x)) <= 1e-14
        # leggauss's own endpoint weights are off by 1.5e-14 at m = 1024
        assert np.max(np.abs(w - ref_w)) <= 2e-14
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0)
        # exact for x**(2k), k < m (leggauss misses this by up to 1.2e-11)
        k = np.arange(m)
        moments = np.sum(w[None, :] * x[None, :] ** (2 * k[:, None]), axis=1)
        assert np.max(np.abs(moments * (2 * k + 1) / 2 - 1)) <= 1e-13

    def test_bad_node_count_rejected(self, rule_calls):
        with pytest.raises(ValueError, match="at least one node"):
            gauss_legendre_segment((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0)
        assert 0 not in nfdof.kernel._RULES

    def test_one_rule_per_kernel(self, rule_calls):
        tx, rx = segment_pair(25.0)
        build_kernel(tx, rx, WAVELENGTH, 32)
        assert rule_calls == {32: 1}

    def test_shared_table_gives_identical_spectra(self, rule_calls):
        tx, rx = segment_pair(50.0)
        cold = converge_spectrum(tx, rx, WAVELENGTH, tol=1e-6)
        for _ in range(2):
            warm = converge_spectrum(tx, rx, WAVELENGTH, tol=1e-6)
            assert np.array_equal(warm, cold)
            assert warm.shape == cold.shape
        assert rule_calls and set(rule_calls.values()) == {1}

    @pytest.mark.parametrize("threads", [1, 4])
    def test_one_rule_computation_per_node_count_in_a_run(self, tmp_path, threads,
                                                          rule_calls):
        cfg = {
            "experiment": "cap-edof-vs-distance",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"apertures_m": [0.5, 1.0], "distances_m": [15.0, 40.0, 100.0]},
        }
        run_experiment(cfg, out_dir=tmp_path, threads=threads)
        assert len(rule_calls) >= 2
        assert set(rule_calls.values()) == {1}

    def test_concurrent_lookups_compute_each_rule_once(self, rule_calls):
        sizes = (8, 16, 32, 64)
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker():
                for _ in range(5):
                    seen.extend(gauss_legendre_segment((0.0, 0.0, -1.0), (0.0, 0.0, 1.0), m)
                                for m in sizes)

            workers = [threading.Thread(target=worker) for _ in range(16)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert rule_calls == {m: 1 for m in sizes}
        assert len(seen) == 16 * 5 * len(sizes)
        for m in sizes:
            x, w = nfdof.kernel._RULES[m]
            assert all(np.array_equal(nodes[:, 2], x) and np.array_equal(weights, w)
                       for nodes, weights in seen if weights.size == m)

