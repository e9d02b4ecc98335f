import sys
import threading
from collections import Counter

import numpy as np
import pytest

import nfdof.kernel
from conftest import CARRIER, WAVELENGTH, cap_converged, segment_pair
from nfdof.channel import los_nusw_channel
from nfdof.errors import ConvergenceError, SingularGeometryError
from nfdof.experiments import run_experiment
from nfdof.geometry import build_ula, continuous_aperture, rayleigh_distance
from nfdof.kernel import (GaussLegendreRules, build_kernel, cap_edof1, cap_edof2,
                          cap_spectrum, converge_spectrum, greens_scalar,
                          load_eigenspectrum, save_eigenspectrum)


@pytest.fixture
def leggauss_calls(monkeypatch):
    """Counts the node counts passed to ``leggauss`` by the kernel module."""
    calls = Counter()
    lock = threading.Lock()
    original = nfdof.kernel.leggauss

    def counting(m):
        with lock:
            calls[m] += 1
        return original(m)

    monkeypatch.setattr(nfdof.kernel, "leggauss", counting)
    return calls


class TestGreensScalar:
    def test_full_wavelength(self):
        g = greens_scalar((0, WAVELENGTH, 0), (0, 0, 0), WAVELENGTH)
        assert g == pytest.approx(1.0 / (4 * np.pi * WAVELENGTH), abs=1e-12)

    def test_half_wavelength(self):
        g = greens_scalar((0, WAVELENGTH / 2, 0), (0, 0, 0), WAVELENGTH)
        assert g == pytest.approx(-1.0 / (2 * np.pi * WAVELENGTH), abs=1e-12)

    def test_matches_siso_channel(self):
        tx = build_ula(1, 0.0, center=(0, 0, 0))
        rx = build_ula(1, 0.0, center=(0, 4.2, 0))
        h = los_nusw_channel(tx, rx, CARRIER).entries[0, 0]
        g = greens_scalar((0, 4.2, 0), (0, 0, 0), WAVELENGTH)
        assert h == pytest.approx(WAVELENGTH * g, rel=1e-14)

    def test_coincident_points_rejected(self):
        with pytest.raises(SingularGeometryError):
            greens_scalar((1, 2, 3), (1, 2, 3), WAVELENGTH)


class TestBuildKernel:
    def test_diagonal_real_positive(self):
        tx, rx = segment_pair(25.0)
        k = build_kernel(tx, rx, CARRIER, 32).kernel
        diag = np.diag(k)
        assert np.max(np.abs(diag.imag)) == 0.0
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
        lam = cap_spectrum(build_kernel(tx, rx, CARRIER, 64)).eigenvalues
        assert lam[1] / lam[0] < 1e-3

    def test_canonical_dominant_count(self):
        assert cap_edof1(cap_converged(15.0)) == 15
        assert cap_edof1(cap_converged(50.0)) == 6

    def test_all_nonnegative(self):
        tx, rx = segment_pair(15.0)
        lam = cap_spectrum(build_kernel(tx, rx, CARRIER, 96)).eigenvalues
        assert np.all(lam >= 0.0)

    def test_eigenvalue_sum_matches_weighted_trace(self):
        tx, rx = segment_pair(35.0)
        disc = build_kernel(tx, rx, CARRIER, 128)
        lam = cap_spectrum(disc).eigenvalues
        trace = float(np.sum(disc.tx_weights * np.diag(disc.kernel).real))
        assert abs(lam.sum() - trace) < 1e-10 * trace


class TestCapMetrics:
    def test_equal_eigenvalues(self):
        from nfdof.kernel import EigenSpectrum
        spec = EigenSpectrum(eigenvalues=np.full(5, 2.5), node_count=5)
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
    def test_converges_quickly_mid_range(self):
        spec = cap_converged(50.0)
        assert spec.node_count <= 512
        assert spec.tol_achieved is not None and spec.tol_achieved < 1e-6

    def test_infinite_tol_returns_first_iterate(self):
        tx, rx = segment_pair(50.0)
        spec = converge_spectrum(tx, rx, CARRIER, tol=np.inf, start_nodes=16)
        assert spec.node_count == 16

    def test_deterministic(self):
        tx, rx = segment_pair(50.0)
        a = converge_spectrum(tx, rx, CARRIER, tol=1e-6)
        b = converge_spectrum(tx, rx, CARRIER, tol=1e-6)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_nonconvergence_raises(self):
        tx, rx = segment_pair(15.0)
        with pytest.raises(ConvergenceError) as err:
            converge_spectrum(tx, rx, CARRIER, tol=1e-18, start_nodes=8, max_nodes=16)
        assert err.value.nodes == 16
        assert err.value.last_change > 1e-18


class TestGaussLegendreRules:
    def test_rule_is_read_only_and_shared(self):
        rules = GaussLegendreRules()
        x, w = rules.rule(16)
        assert rules.rule(16)[0] is x
        ref_x, ref_w = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_bad_node_count_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            GaussLegendreRules().rule(0)

    def test_one_rule_per_kernel(self, leggauss_calls):
        tx, rx = segment_pair(25.0)
        build_kernel(tx, rx, CARRIER, 32)
        assert leggauss_calls == {32: 1}

    def test_shared_table_gives_identical_spectra(self, leggauss_calls):
        tx, rx = segment_pair(50.0)
        fresh = converge_spectrum(tx, rx, CARRIER, tol=1e-6)
        rules = GaussLegendreRules()
        for _ in range(2):
            shared = converge_spectrum(tx, rx, CARRIER, tol=1e-6, rules=rules)
            assert np.array_equal(shared.eigenvalues, fresh.eigenvalues)
            assert shared.node_count == fresh.node_count

    @pytest.mark.parametrize("threads", [1, 4])
    def test_one_leggauss_call_per_node_count_in_a_run(self, tmp_path, threads,
                                                       leggauss_calls):
        cfg = {
            "experiment": "cap-edof-vs-distance",
            "carrier": {"wavelength_m": 0.01},
            "geometry": {"apertures_m": [0.5, 1.0], "distances_m": [15.0, 40.0, 100.0]},
        }
        run_experiment(cfg, out_dir=tmp_path, threads=threads)
        assert set(leggauss_calls) >= {64, 128}
        assert set(leggauss_calls.values()) == {1}

    def test_concurrent_lookups_compute_each_rule_once(self, leggauss_calls):
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
        assert leggauss_calls == {m: 1 for m in sizes}
        assert len(seen) == 16 * 5 * len(sizes)
        assert len({id(x) for x in seen}) == len(sizes)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        spec = cap_converged(50.0)
        _, json_path = save_eigenspectrum(spec, tmp_path / "spec")
        loaded = load_eigenspectrum(json_path)
        assert np.array_equal(spec.eigenvalues, loaded.eigenvalues)
        assert loaded.node_count == spec.node_count
        assert loaded.tol_achieved == spec.tol_achieved
