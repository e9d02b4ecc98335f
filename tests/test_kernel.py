import json
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nfdof.kernel
from conftest import (CARRIER, WAVELENGTH, cap_converged, cap_eigenvalues_direct,
                      quadrature_g, segment_pair, tilted_pair)
from nfdof.errors import ConvergenceError, SingularGeometryError
from nfdof.experiments import run_experiment
from nfdof.geometry import continuous_aperture, rayleigh_distance
from nfdof.kernel import (GaussLegendreRules, build_kernel, cap_edof1, cap_edof2,
                          cap_spectrum, converge_spectrum, gauss_legendre_rule)
from nfdof.modes import SingularSpectrum


@pytest.fixture
def rule_calls(monkeypatch):
    """Counts the node counts passed to ``gauss_legendre_rule`` by the
    kernel module."""
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

    def counting(tx, rx, carrier, m_nodes, rules=None):
        calls.append(m_nodes)
        return original(tx, rx, carrier, m_nodes, rules)

    monkeypatch.setattr(nfdof.kernel, "build_kernel", counting)
    return calls


@pytest.fixture
def mirror_tests(monkeypatch):
    """Records the verdict of every node-mirror test ``build_kernel`` makes."""
    verdicts = []
    original = nfdof.kernel._mirror_nodes

    def recording(r_nodes, s_nodes):
        verdicts.append(original(r_nodes, s_nodes))
        return verdicts[-1]

    monkeypatch.setattr(nfdof.kernel, "_mirror_nodes", recording)
    return verdicts


def full_g_response(monkeypatch, tx, rx, m):
    """``build_kernel`` with the half-row assembly switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(nfdof.kernel, "_mirror_nodes", lambda r_nodes, s_nodes: False)
        return build_kernel(tx, rx, CARRIER, m).response


def direct_response(tx, rx, m):
    """H = W_r^(1/2) G W_s^(1/2) from the quadrature formula as written."""
    g, s_weights, r_weights = quadrature_g(tx, rx, m)
    return np.sqrt(r_weights)[:, None] * g * np.sqrt(s_weights)[None, :]


class TestBuildKernel:
    def test_diagonal_real_positive(self):
        tx, rx = segment_pair(25.0)
        k = build_kernel(tx, rx, CARRIER, 32).kernel
        diag = np.diag(k)
        assert np.max(np.abs(diag.imag)) <= 1e-14 * np.max(diag.real)
        assert np.all(diag.real > 0.0)

    def test_hermitian_by_construction(self):
        tx, rx = segment_pair(25.0)
        k = build_kernel(tx, rx, CARRIER, 48).kernel
        assert np.linalg.norm(k - k.conj().T) < 1e-12 * np.linalg.norm(k)

    def test_weighted_trace_quadrature_invariant(self):
        tx, rx = segment_pair(50.0)
        traces = []
        for m in (128, 256):
            disc = build_kernel(tx, rx, CARRIER, m)
            traces.append(float(np.sum(disc.tx_weights * np.diag(disc.kernel).real)))
        assert abs(traces[1] - traces[0]) < 1e-8 * abs(traces[1])

    def test_positive_semidefinite(self):
        tx, rx = segment_pair(15.0)
        disc = build_kernel(tx, rx, CARRIER, 64)
        w = np.sqrt(disc.tx_weights)
        eig = np.linalg.eigvalsh(w[:, None] * disc.kernel * w[None, :])
        assert eig.min() > -1e-10 * eig.max()

    @pytest.mark.parametrize("m", [33, 64])
    def test_mirror_segments_give_centrosymmetric_kernel(self, m):
        tx, rx = segment_pair(25.0)
        h = build_kernel(tx, rx, CARRIER, m).response
        assert np.array_equal(h, h[::-1, ::-1])
        assert np.array_equal(h, direct_response(tx, rx, m))

    def test_offset_segments_take_the_full_assembly(self, mirror_tests):
        tx, _ = segment_pair(25.0)
        rx = continuous_aperture((0.0, 25.0, -0.5), (0.0, 25.0, 1.0))
        h = build_kernel(tx, rx, CARRIER, 32).response
        assert mirror_tests == [False]
        assert not np.array_equal(h, h[::-1, ::-1])
        assert np.array_equal(h, direct_response(tx, rx, 32))

    @pytest.mark.parametrize("m", [33, 64, 91, 724])
    def test_half_row_build_equals_the_full_build(self, m, monkeypatch, mirror_tests):
        tx, rx = segment_pair(8.0, 5.0)
        h = build_kernel(tx, rx, CARRIER, m).response
        assert mirror_tests == [True]
        assert np.array_equal(h, full_g_response(monkeypatch, tx, rx, m))

    def test_tilted_segments_take_the_full_assembly(self, mirror_tests):
        tx, rx = tilted_pair(8.0, 0.3)
        h = build_kernel(tx, rx, CARRIER, 64).response
        assert mirror_tests == [False]
        assert np.array_equal(h, direct_response(tx, rx, 64))

    def test_mirror_test_needs_both_node_sets_alike_per_coordinate(self):
        x = np.array([-1.0, 0.0, 1.0])
        zero, one = np.zeros(3), np.ones(3)

        def mirror(r_cols, s_cols):
            return nfdof.kernel._mirror_nodes(np.column_stack(r_cols), np.column_stack(s_cols))

        assert mirror((zero, one, x), (zero, zero, 2 * x))
        # an antisymmetric coordinate facing a constant nonzero one
        assert not mirror((zero, x, one), (zero, one, x))
        assert not mirror((zero, one, x + 1e-9), (zero, zero, x))

    def test_too_few_nodes_rejected(self):
        tx, rx = segment_pair(25.0)
        with pytest.raises(ValueError):
            build_kernel(tx, rx, CARRIER, 4)

    def test_overlapping_segments_rejected(self):
        tx = continuous_aperture((0, 0, -1), (0, 0, 1))
        crossing = continuous_aperture((0, -1, 0), (0, 1, 0))
        with pytest.raises(SingularGeometryError):
            build_kernel(tx, crossing, CARRIER, 16)


class TestCapSpectrum:
    def test_far_geometry_single_mode(self):
        aperture = 0.1
        d = 10.0 * rayleigh_distance(aperture, WAVELENGTH)
        tx, rx = segment_pair(d, aperture)
        lam = cap_spectrum(build_kernel(tx, rx, CARRIER, 64)).values ** 2
        assert lam[1] / lam[0] < 1e-3

    def test_canonical_dominant_count(self):
        assert cap_edof1(cap_converged(15.0)) == 15
        assert cap_edof1(cap_converged(50.0)) == 6

    def test_odd_node_count_matches_the_full_eigensolve(self):
        tx, rx = segment_pair(15.0)
        disc = build_kernel(tx, rx, CARRIER, 33)
        lam = cap_spectrum(disc).values ** 2
        w = np.sqrt(disc.tx_weights)
        full = np.linalg.eigvalsh(w[:, None] * disc.kernel * w[None, :])[::-1]
        assert lam.size == full.size == 33
        assert np.max(np.abs(lam - full)) <= 1e-13 * full[0]

    def test_all_nonnegative(self):
        tx, rx = segment_pair(15.0)
        lam = cap_spectrum(build_kernel(tx, rx, CARRIER, 96)).values ** 2
        assert np.all(lam >= 0.0)

    def test_eigenvalue_sum_matches_weighted_trace(self):
        tx, rx = segment_pair(35.0)
        disc = build_kernel(tx, rx, CARRIER, 128)
        lam = cap_spectrum(disc).values ** 2
        trace = float(np.sum(disc.tx_weights * np.diag(disc.kernel).real))
        assert abs(lam.sum() - trace) < 1e-10 * trace

    @settings(max_examples=60, deadline=None)
    @given(layout=st.sampled_from(["mirror", "offset", "tilted"]),
           half=st.integers(4, 36), odd=st.booleans(), d=st.floats(2.0, 200.0),
           aperture=st.floats(0.1, 3.0), shift=st.floats(0.05, 1.0),
           angle=st.floats(0.05, 1.2))
    def test_squared_singular_values_match_the_direct_eigensolve(
            self, layout, half, odd, d, aperture, shift, angle):
        m = 2 * half + odd
        if layout == "mirror":
            tx, rx = segment_pair(d, aperture)
        elif layout == "offset":
            tx, _ = segment_pair(d, aperture)
            rx = continuous_aperture((0.0, d, shift - aperture / 2),
                                     (0.0, d, shift + aperture / 2))
        else:
            tx, rx = tilted_pair(d, angle, aperture)
        lam = cap_spectrum(build_kernel(tx, rx, CARRIER, m)).values ** 2
        ref = cap_eigenvalues_direct(tx, rx, m)
        assert lam.size == ref.size == m
        assert np.max(np.abs(lam - ref)) <= 1e-13 * ref[0]


class TestCapMetrics:
    def test_equal_eigenvalues(self):
        spec = SingularSpectrum(values=np.full(5, np.sqrt(2.5)), shape=(5, 5))
        assert cap_edof2(spec) == pytest.approx(5.0, rel=1e-12)

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
        tx, rx = segment_pair(50.0)
        spec = converge_spectrum(tx, rx, CARRIER, tol=1e-6)
        m = spec.shape[0]
        assert m == rung_calls[-1] <= 512
        lam = spec.values[:20] ** 2
        below = cap_spectrum(build_kernel(tx, rx, CARRIER, rung_calls[-2])).values[:20] ** 2
        assert np.max(np.abs(lam - below)) / lam[0] < 1e-6

    def test_infinite_tol_returns_first_iterate(self):
        tx, rx = segment_pair(50.0)
        spec = converge_spectrum(tx, rx, CARRIER, tol=np.inf, start_nodes=16)
        assert spec.shape == (16, 16)

    def test_deterministic(self):
        tx, rx = segment_pair(50.0)
        a = converge_spectrum(tx, rx, CARRIER, tol=1e-6)
        b = converge_spectrum(tx, rx, CARRIER, tol=1e-6)
        assert np.array_equal(a.values, b.values)

    def test_nonconvergence_raises(self):
        tx, rx = segment_pair(15.0)
        with pytest.raises(ConvergenceError) as err:
            converge_spectrum(tx, rx, CARRIER, tol=1e-18, start_nodes=8, max_nodes=16)
        assert err.value.nodes == 16
        assert err.value.last_change > 1e-18

    def test_ladder_starts_at_the_cliff_and_climbs_by_sqrt2(self, rung_calls):
        # 5 m segments at 20 m: path spread sqrt(20**2 + 5**2) - 20 = 61.6
        # wavelengths, so the cliff estimate pi * 61.6 = 193 nodes
        tx, rx = segment_pair(20.0, 5.0)
        spec = converge_spectrum(tx, rx, CARRIER, tol=1e-6)
        assert rung_calls == [181, 256, 362]
        assert spec.shape[0] == 362

    @pytest.mark.parametrize("start, cap", [(10, 100), (100, 1000), (12, 64)])
    def test_rungs_never_exceed_max_nodes(self, start, cap, rung_calls):
        tx, rx = segment_pair(15.0)
        with pytest.raises(ConvergenceError) as err:
            converge_spectrum(tx, rx, CARRIER, tol=1e-300, start_nodes=start,
                              max_nodes=cap)
        assert max(rung_calls) == rung_calls[-1] == cap == err.value.nodes
        assert rung_calls == sorted(set(rung_calls))

    @pytest.mark.parametrize("d, aperture, start, cap, first", [
        (8.0, 5.0, 64, 4096, 362),    # cliff pi * 143 = 450 nodes
        (8.0, 5.0, 64, 600, 256),     # capped at max_nodes / 2
        (8.0, 5.0, 400, 4096, 400),   # start_nodes is a floor
        (150.0, 0.5, 64, 4096, 64),   # cliff at 0.3 nodes
        (20.0, 5.0, 16, 4096, 181),   # rungs 16, 23, 32, ..., 128, 181, 256
    ])
    def test_infinite_tol_returns_the_start_rung(self, d, aperture, start, cap, first,
                                                  rung_calls):
        tx, rx = segment_pair(d, aperture)
        spec = converge_spectrum(tx, rx, CARRIER, tol=np.inf, start_nodes=start,
                                 max_nodes=cap)
        assert rung_calls == [spec.shape[0]] == [first]

    @pytest.mark.parametrize("d", [0.2, 1.0, 3.0, 50.0, 1e9])
    @pytest.mark.parametrize("start, cap", [(8, 16), (8, 100), (64, 4096), (50, 101)])
    def test_start_rung_within_floor_and_half_cap(self, d, start, cap, monkeypatch):
        monkeypatch.setattr(nfdof.kernel, "cap_spectrum", lambda disc: disc)
        tx, rx = segment_pair(d, 5.0)
        m = converge_spectrum(tx, rx, CARRIER, tol=np.inf, start_nodes=start,
                              max_nodes=cap).node_count
        assert start <= m <= max(start, cap / 2)
        assert m in {round(start * 2 ** (k / 2)) for k in range(40)}


# (aperture, distance) pairs; 5 m at 3 m and 6 m need 2048-4096 nodes for
# the doubled check, too slow for the suite
WHOLE_SPECTRUM_CASES = [(a, d) for a in (0.5, 1.37, 5.0) for d in (3.0, 6.0, 8.0, 20.0, 150.0)
                        if not (a == 5.0 and d < 8.0)]


@pytest.mark.parametrize("aperture, d", WHOLE_SPECTRUM_CASES)
def test_converged_rung_resolves_the_whole_spectrum(aperture, d):
    tx, rx = segment_pair(d, aperture)
    spec = converge_spectrum(tx, rx, CARRIER, tol=1e-6)
    fine = cap_spectrum(build_kernel(tx, rx, CARRIER, 2 * spec.shape[0]))
    for dominance in (0.01, 0.5):
        assert cap_edof1(spec, dominance) == cap_edof1(fine, dominance)
    assert cap_edof2(spec) == pytest.approx(cap_edof2(fine), rel=1e-12, abs=0)


REPO = Path(__file__).resolve().parent.parent
KERNEL_CONFIGS = [p for p in sorted(REPO.glob("configs/*.json")) + sorted(
    REPO.glob("nfbench/configs/*.json"))
    if json.loads(p.read_text())["experiment"] in ("cap-edof-vs-distance", "edof2-vs-n")]


@pytest.mark.parametrize("path", KERNEL_CONFIGS, ids=lambda p: p.name)
def test_every_shipped_ladder_takes_the_half_row_build(path, tmp_path, rung_calls,
                                                        mirror_tests):
    run_experiment(json.loads(path.read_text()), out_dir=tmp_path)
    assert rung_calls and mirror_tests == [True] * len(rung_calls)


class TestGaussLegendreRules:
    def test_rule_is_read_only_and_shared(self):
        rules = GaussLegendreRules()
        x, w = rules.rule(16)
        assert rules.rule(16)[0] is x
        ref_x, ref_w = gauss_legendre_rule(16)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

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

    def test_bad_node_count_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            GaussLegendreRules().rule(0)

    def test_one_rule_per_kernel(self, rule_calls):
        tx, rx = segment_pair(25.0)
        build_kernel(tx, rx, CARRIER, 32)
        assert rule_calls == {32: 1}

    def test_shared_table_gives_identical_spectra(self):
        tx, rx = segment_pair(50.0)
        fresh = converge_spectrum(tx, rx, CARRIER, tol=1e-6)
        rules = GaussLegendreRules()
        for _ in range(2):
            shared = converge_spectrum(tx, rx, CARRIER, tol=1e-6, rules=rules)
            assert np.array_equal(shared.values, fresh.values)
            assert shared.shape == fresh.shape

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
        rules = GaussLegendreRules()
        sizes = (8, 16, 32, 64)
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker():
                for _ in range(5):
                    seen.extend(rules.rule(m)[0] for m in sizes)

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
        assert len({id(x) for x in seen}) == len(sizes)

