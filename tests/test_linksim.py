import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import WAVELENGTH, nusw_channel, nusw_modes, run_link_loop
from nfdof.experiments import MAX_COUNT
from nfdof.linksim import (LinkReport, TransmissionConfig, combine, mode_coupling,
                           precode, qpsk_symbols, run_link, save_link_report,
                           transmit_awgn)
from nfdof.metrics import capacity, waterfill


def small_link(n=32, d=15.0):
    h = nusw_channel(n, d)
    return h, nusw_modes(n, d)


class TestPrecode:
    def test_single_mode_unit_symbol(self):
        h, modes = small_link()
        x = precode(np.ones((1, 1)), modes, [1.0])
        assert np.allclose(x[:, 0], modes.right_vectors[:, 0])

    def test_power_accounting(self):
        h, modes = small_link()
        rng = np.random.default_rng(0)
        powers = np.array([2.0, 1.0, 0.5])
        s = qpsk_symbols(3, 100_000, rng)
        assert np.allclose(np.abs(s.view(float)), np.sqrt(0.5), rtol=1e-15)  # unit-power QPSK
        x = precode(s, modes, powers)
        mean_power = np.mean(np.sum(np.abs(x) ** 2, axis=0))
        assert mean_power == pytest.approx(powers.sum(), rel=0.01)

    def test_preserves_symbol_gram(self):
        h, modes = small_link()
        rng = np.random.default_rng(1)
        s = qpsk_symbols(4, 256, rng)
        x = precode(s, modes, np.ones(4))
        assert np.linalg.norm(x.conj().T @ x - s.conj().T @ s) < 1e-10

    def test_too_many_streams_rejected(self):
        h, modes = small_link(n=4)
        with pytest.raises(ValueError):
            precode(np.ones((5, 1)), modes, np.ones(5))


class TestTransmitAwgn:
    def test_noiseless_identity_receive_is_exact(self):
        h, modes = small_link()
        x = np.ones((32, 3), dtype=complex)
        y = transmit_awgn(h, x, 0.0, np.random.default_rng(0), receive=np.eye(32))
        assert np.array_equal(y, h @ x)

    def test_noise_variance_under_a_unitary_receive(self):
        # W n is CN(0, N0 I) when W is unitary
        g = np.random.default_rng(3)
        q, _ = np.linalg.qr(g.standard_normal((10, 10)) + 1j * g.standard_normal((10, 10)))
        h = np.zeros((10, 1), dtype=complex)
        h[0, 0] = 1.0
        x = np.zeros((1, 100_000), dtype=complex)
        y = transmit_awgn(h, x, 0.25, np.random.default_rng(5), receive=q.conj().T)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.25, rel=0.005)

    def test_seeded_determinism(self):
        h, modes = small_link()
        x = np.ones((32, 8), dtype=complex)
        w = modes.left_vectors[:, :4].conj().T
        y1 = transmit_awgn(h, x, 1.0, np.random.default_rng(9), receive=w)
        y2 = transmit_awgn(h, x, 1.0, np.random.default_rng(9), receive=w)
        assert np.array_equal(y1, y2)

    def test_dimension_mismatch_rejected(self):
        h, modes = small_link()
        with pytest.raises(ValueError):
            transmit_awgn(h, np.ones((31, 2), dtype=complex), 0.0,
                          np.random.default_rng(0), receive=np.eye(32))

    @pytest.mark.parametrize("unit", [1j, 0.0], ids=["complex", "real"])
    def test_draws_are_two_standard_normal_calls(self, unit):
        # the recorded link-sim outputs hold these draws: the real parts of the
        # noise are one standard_normal(y.shape) call, the imaginary parts the
        # next; an identity receive matrix projects them exactly
        g = np.random.default_rng(21)
        h = g.standard_normal((12, 5)) + unit * g.standard_normal((12, 5))
        x = g.standard_normal((5, 37)) + unit * g.standard_normal((5, 37))
        y = transmit_awgn(h, x, 0.3, np.random.default_rng(4), receive=np.eye(12))
        ref_rng = np.random.default_rng(4)
        ref = h @ x + np.sqrt(0.3 / 2.0) * (ref_rng.standard_normal((12, 37))
                                           + 1j * ref_rng.standard_normal((12, 37)))
        assert y.dtype == ref.dtype
        assert y.tobytes() == ref.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n_r=st.integers(1, 8), n_t=st.integers(1, 8), k=st.integers(1, 8),
           n_symbols=st.integers(1, 40), unit=st.sampled_from([1j, 0.0]),
           noise_power=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_receive_projects_the_same_draws(self, n_r, n_t, k, n_symbols, unit,
                                             noise_power, seed):
        g = np.random.default_rng(seed)
        h, x, w = (g.standard_normal(shape) + unit * g.standard_normal(shape)
                   for shape in ((n_r, n_t), (n_t, n_symbols), (k, n_r)))
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = transmit_awgn(h, x, noise_power, rng_a, receive=w)
        y = h @ x
        if noise_power > 0:
            a = rng_b.standard_normal(y.shape)
            b = rng_b.standard_normal(y.shape)
            y = y + np.sqrt(noise_power / 2.0) * (a + 1j * b)
        ref = w @ y
        assert got.shape == ref.shape == (k, n_symbols)
        # relative to the magnitudes the products sum, so cancellation in W H x
        # cannot fail an exact-draw match
        scale = np.abs(w) @ (np.abs(h) @ np.abs(x) + np.abs(y))
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("shape", [(3, 31), (3, 32, 1), (32,)])
    def test_receive_shape_mismatch_rejected(self, shape):
        h, modes = small_link()
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="receive"):
            transmit_awgn(h, np.ones((32, 2), dtype=complex), 1.0, rng,
                          receive=np.ones(shape))
        assert rng.bit_generator.state == before


class TestCombine:
    def test_noiseless_round_trip(self):
        h, modes = small_link()
        rng = np.random.default_rng(2)
        k = 6
        powers = np.linspace(2.0, 0.5, k)
        s = qpsk_symbols(k, 500, rng)
        s_hat = combine(h @ precode(s, modes, powers), modes, powers)
        assert np.max(np.abs(s_hat - s)) < 1e-10

    def test_zero_power_rejected(self):
        h, modes = small_link()
        with pytest.raises(ValueError):
            combine(np.ones((32, 1), dtype=complex), modes, [1.0, 0.0])

    def test_cross_mode_leakage_tiny(self):
        h, modes = small_link()
        coupling = mode_coupling(h, modes, np.ones(8))
        off = coupling - np.diag(np.diag(coupling))
        assert np.max(np.abs(off) ** 2) < 1e-20

    def test_equivalent_channel_diagonal(self):
        h, modes = small_link()
        eq = modes.left_vectors.conj().T @ h @ modes.right_vectors
        sigma = modes.singular_values
        assert np.max(np.abs(eq - np.diag(sigma))) < 1e-10 * sigma[0]


class TestRunLink:
    def test_single_mode_far_field(self):
        from conftest import ula_pair
        from nfdof.channel import farfield_planar_channel
        h = farfield_planar_channel(*ula_pair(16, 400.0), WAVELENGTH)
        sigma1 = np.linalg.svd(h, compute_uv=False)[0]
        noise = (sigma1 ** 2) / 100.0
        cfg = TransmissionConfig(mode_powers=[1.0], noise_power=noise,
                                 n_symbols=100_000, seed=3)
        report = run_link(h, cfg)
        assert report.predicted_mode_snr[0] == pytest.approx(100.0, rel=1e-12)
        assert report.measured_mode_snr[0] == pytest.approx(100.0, rel=0.03)

    def test_eight_modes_match_prediction(self):
        h = nusw_channel(64, 15.0)
        s = nusw_modes(64, 15.0).singular_values
        noise = (s[7] ** 2) / 50.0
        powers = np.linspace(1.5, 0.5, 8)
        cfg = TransmissionConfig(mode_powers=powers, noise_power=noise,
                                 n_symbols=100_000, seed=4)
        report = run_link(h, cfg)
        predicted = powers * s[:8] ** 2 / noise
        assert np.allclose(report.predicted_mode_snr, predicted, rtol=1e-12)
        assert np.max(np.abs(report.measured_mode_snr / predicted - 1.0)) < 0.03

    def test_error_correlation_diagonal(self):
        h = nusw_channel(64, 15.0)
        s = nusw_modes(64, 15.0).singular_values
        cfg = TransmissionConfig(mode_powers=np.ones(8),
                                 noise_power=s[7] ** 2, n_symbols=100_000, seed=5)
        report = run_link(h, cfg)
        off = report.error_correlation - np.diag(np.diag(report.error_correlation))
        assert np.max(off) < 5.0 / np.sqrt(cfg.n_symbols)

    def test_error_correlation_diagonal_at_vanishing_snr(self):
        # error powers near 1e203, whose products overflow float64
        h = nusw_channel(16, 15.0)
        s = nusw_modes(16, 15.0).singular_values
        cfg = TransmissionConfig(mode_powers=1e-200 / s[:2] ** 2,
                                 noise_power=1.0, n_symbols=4000, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_link(h, cfg)
        assert np.allclose(report.predicted_mode_snr, 1e-200, rtol=1e-12)
        assert np.max(np.abs(np.diag(report.error_correlation) - 1.0)) <= 1e-12

    def test_low_end_of_the_cli_range_at_max_count(self):
        # summed error powers near MAX_COUNT / SNR = 1e306 stay finite
        h = nusw_channel(16, 15.0)
        s = nusw_modes(16, 15.0).singular_values
        cfg = TransmissionConfig(mode_powers=1e-300 / s[:2] ** 2,
                                 noise_power=1.0, n_symbols=MAX_COUNT, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_link(h, cfg)
        assert np.allclose(report.predicted_mode_snr, 1e-300, rtol=1e-12)
        assert np.allclose(report.measured_mode_snr, 1e-300, rtol=0.01)
        assert np.all(np.isfinite(report.mode_mse))
        assert np.max(np.abs(np.diag(report.error_correlation) - 1.0)) <= 1e-12
        assert report.error_correlation[0, 1] < 5.0 / np.sqrt(MAX_COUNT)

    def test_single_noiseless_symbol(self):
        h = nusw_channel(16, 15.0)
        cfg = TransmissionConfig(mode_powers=[1.0, 1.0],
                                 noise_power=0.0, n_symbols=1, seed=6)
        report = run_link(h, cfg)
        assert np.max(report.mode_mse) < 1e-20

    def test_throughput_tracks_waterfilling_capacity(self):
        # physical (budget, noise) pairs with budget/noise = snr reproduce the
        # normalized waterfilling capacity exactly, so measured throughput
        # should track capacity(spectrum, snr)
        h = nusw_channel(64, 15.0)
        spectrum = nusw_modes(64, 15.0).singular_values
        for snr_db in (0.0, 10.0, 20.0):
            snr = 10.0 ** (snr_db / 10.0)
            noise = spectrum[0] ** 2
            powers = waterfill(spectrum, budget=snr * noise, noise=noise)
            k = np.count_nonzero(powers)
            cfg = TransmissionConfig(mode_powers=powers[:k],
                                     noise_power=noise, n_symbols=100_000, seed=7)
            report = run_link(h, cfg)
            throughput = float(np.sum(np.log2(1.0 + report.measured_mode_snr)))
            reference = capacity(spectrum, snr)
            assert throughput == pytest.approx(reference, rel=0.05)

    def test_deterministic_per_seed(self):
        h = nusw_channel(16, 15.0)
        cfg = TransmissionConfig(mode_powers=[1.0, 0.5],
                                 noise_power=1e-6, n_symbols=10_000, seed=8)
        a = run_link(h, cfg)
        b = run_link(h, cfg)
        assert np.array_equal(a.measured_mode_snr, b.measured_mode_snr)
        assert np.array_equal(a.error_correlation, b.error_correlation)

    def test_noiseless_report_is_not_written(self, tmp_path):
        # its predicted SNRs are +inf, which no output file may hold; the
        # measured ones are 1 / mse of round-off, large but finite
        h = nusw_channel(16, 15.0)
        cfg = TransmissionConfig(mode_powers=[1.0, 1.0],
                                 noise_power=0.0, n_symbols=4, seed=6)
        report = run_link(h, cfg)
        assert np.all(np.isposinf(report.predicted_mode_snr))
        assert np.all(np.isfinite(report.measured_mode_snr))
        assert np.array_equal(report.measured_mode_snr, 1.0 / report.mode_mse)
        with pytest.raises(FloatingPointError, match="report.json"):
            save_link_report(report, tmp_path / "report.json")
        assert list(tmp_path.iterdir()) == []

    def test_report_serialization(self, tmp_path):
        h = nusw_channel(16, 15.0)
        cfg = TransmissionConfig(mode_powers=[1.0, 0.5],
                                 noise_power=1e-6, n_symbols=1000, seed=9)
        report = run_link(h, cfg)
        path = save_link_report(report, tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["n_symbols"] == 1000
        assert len(payload["measured_mode_snr"]) == 2


class TestChunkPipeline:
    """``run_link`` works in the mode domain: each chunk's estimates are
    W (H_eff s + n), computed as (W H_eff) s plus the two real noise fills
    projected by real GEMMs, with H_eff = H V_k diag(sqrt(p)) and
    W = U_k^H / (sqrt(p) sigma) formed once.  ``conftest.run_link_loop``
    precodes each chunk, sends it through H, adds the N_r x n noise and
    combines.  The draws are the same, so only the association of the
    products differs."""

    @settings(max_examples=40, deadline=None)
    @given(n_t=st.integers(1, 8), extra_rx=st.integers(0, 8), data=st.data(),
           noise_power=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           n_symbols=st.sampled_from([1, 2, 8191, 8192, 8193, 16385]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_chunk_precoding(self, n_t, extra_rx, data, noise_power,
                                         n_symbols, seed):
        g = np.random.default_rng(seed)
        n_r = n_t + extra_rx
        h = g.standard_normal((n_r, n_t)) + 1j * g.standard_normal((n_r, n_t))
        k = data.draw(st.integers(1, n_t), label="k")
        powers = data.draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k),
                           label="powers")
        cfg = TransmissionConfig(mode_powers=powers,
                                 noise_power=noise_power, n_symbols=n_symbols, seed=seed)
        got, ref = run_link(h, cfg), run_link_loop(h, cfg)
        assert got.predicted_mode_snr.tobytes() == ref.predicted_mode_snr.tobytes()
        assert got.cross_mode_leakage == ref.cross_mode_leakage
        if noise_power == 0.0:
            # the errors are round-off alone, which the association changes
            assert np.max(got.mode_mse) < 1e-20 and np.max(ref.mode_mse) < 1e-20
            return
        for field in ("measured_mode_snr", "mode_mse", "error_correlation"):
            np.testing.assert_allclose(getattr(got, field), getattr(ref, field),
                                       rtol=1e-12, atol=0, err_msg=field)

    def test_peak_memory_of_three_chunks(self):
        # a chunk holds one real (N_r, n) noise buffer, 4.2 MB here, and k-row
        # blocks, 7.5 MB in all; the bound is 1.25 times that, so a chunk that
        # also held the 8.4 MB N_r x n complex receive block would fail it
        h = nusw_channel(64, 15.0)
        cfg = TransmissionConfig(mode_powers=np.ones(8), noise_power=1.0,
                                 n_symbols=3 * 8192, seed=2)
        run_link(h, cfg)
        tracemalloc.start()
        try:
            run_link(h, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9_400_000


class TestConfigValidation:
    def test_no_mode_power_rejected(self):
        with pytest.raises(ValueError, match="at least one active mode"):
            TransmissionConfig(mode_powers=[], noise_power=1.0, n_symbols=10, seed=0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            TransmissionConfig(mode_powers=[-1.0], noise_power=1.0,
                               n_symbols=10, seed=0)
