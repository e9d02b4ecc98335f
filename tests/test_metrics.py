import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (cap_converged, nusw_spectrum, random_spectrum, ula_pair,
                      waterfill_bruteforce, waterfill_loop, WAVELENGTH)
from nfdof.channel import farfield_planar_channel, frobenius_normalized, los_nusw_channel
from nfdof.errors import ActiveSetChangeError
from nfdof.metrics import (cap_edof1, capacity, dof, edof1, edof1_limit_linear, edof2,
                           edof3, edof3_auto, edof3_envelope, metrics_report, waterfill)
from nfdof.modes import decompose


def planar_spectrum(n=12, d=40.0):
    tx, rx = ula_pair(n, d)
    return decompose(farfield_planar_channel(tx, rx, WAVELENGTH)).singular_values


class TestDof:
    def test_simple_counts(self):
        assert dof(np.array([1.0, 1.0, 0.0, 0.0])) == 2

    def test_planar_is_one(self):
        assert dof(planar_spectrum()) == 1

    def test_iid_full_rank(self):
        rng = np.random.default_rng(2)
        h = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / np.sqrt(2.0)
        assert dof(decompose(h).singular_values) == 8

    def test_zero_leading_rejected(self):
        with pytest.raises(ValueError):
            dof(np.array([0.0, 0.0]))


class TestEdof1:
    def test_threshold_count(self):
        assert edof1(np.array([1.0, 0.99, 0.001]), dominance=0.01) == 2

    def test_planar_is_one(self):
        assert edof1(planar_spectrum()) == 1

    def test_canonical_geometry_matches_kernel_oracle(self):
        # 256-antenna SVD and the independently discretized aperture kernel
        # agree on the dominant-mode count at both distances
        for d, expected in ((15.0, 15), (50.0, 6)):
            count_spd = edof1(nusw_spectrum(256, d))
            count_cap = cap_edof1(cap_converged(d))
            assert count_spd == expected
            assert abs(count_spd - count_cap) <= 1

    def test_invalid_dominance_rejected(self):
        with pytest.raises(ValueError):
            edof1(np.array([1.0]), dominance=1.5)


class TestEdof1Limit:
    def test_canonical_values(self):
        assert edof1_limit_linear(1.37, 1.37, 0.01, 15.0) == pytest.approx(12.5127, abs=5e-4)
        assert edof1_limit_linear(1.37, 1.37, 0.01, 50.0) == pytest.approx(3.7538, abs=5e-4)

    def test_inverse_distance(self):
        base = edof1_limit_linear(1.37, 1.37, 0.01, 25.0)
        assert edof1_limit_linear(1.37, 1.37, 0.01, 50.0) == pytest.approx(base / 2, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            edof1_limit_linear(1.37, 0.0, 0.01, 15.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", range(4))
    def test_non_finite_argument_rejected(self, index, bad):
        args = [1.37, 1.37, 0.01, 15.0]
        args[index] = bad
        with pytest.raises(ValueError, match="finite"):
            edof1_limit_linear(*args)


class TestEdof2:
    def test_equal_modes(self):
        assert edof2(np.ones(4)) == pytest.approx(4.0, rel=1e-12)

    def test_rank_one(self):
        assert edof2(planar_spectrum()) == pytest.approx(1.0, abs=1e-12)

    def test_arithmetic_example_against_matrix_oracle(self):
        s = np.array([1.0, 1.0, 0.1])
        # independent recomputation from the trace/Frobenius form on a
        # diagonal matrix
        hhh = np.diag(s ** 2)
        oracle = (np.trace(hhh) / np.linalg.norm(hhh)) ** 2
        assert edof2(s) == pytest.approx(oracle, rel=1e-12)
        assert edof2(s) == pytest.approx(2.01 ** 2 / 2.0001, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = random_spectrum(rng)
            for c in (1e-6, 0.5, 3.0, 1e8):
                assert edof2(c * s) == pytest.approx(edof2(s), rel=1e-12)

    def test_sandwich_between_one_and_dof(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            s = random_spectrum(rng)
            val = edof2(s)
            assert 1.0 <= val + 1e-12
            assert val <= dof(s) + 1e-12


class TestWaterfill:
    def test_strong_mode_takes_all(self):
        # gains (1, 0.25), budget 1: second mode stays dry
        powers = waterfill(np.array([1.0, 0.5]), budget=1.0, noise=1.0)
        assert np.allclose(powers, [1.0, 0.0], atol=1e-12)
        assert capacity(np.array([1.0, 0.5]), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_two_active_modes(self):
        # gains (1, 0.5), budget 3 -> powers (2, 1)
        s = np.array([1.0, np.sqrt(0.5)])
        powers = waterfill(s, budget=3.0, noise=1.0)
        assert np.allclose(powers, [2.0, 1.0], atol=1e-12)
        assert capacity(s, 3.0) == pytest.approx(np.log2(3) + np.log2(1.5), rel=1e-12)

    def test_single_mode(self):
        powers = waterfill(np.array([2.0]), budget=5.0, noise=1.0)
        assert isinstance(powers, np.ndarray)
        assert powers[0] == pytest.approx(5.0, rel=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            s = random_spectrum(rng)
            budget = 10.0 ** rng.uniform(-1.5, 2.0)
            noise = 10.0 ** rng.uniform(-1.0, 1.0)
            powers = waterfill(s, budget, noise)
            powers_bf, cap_bf = waterfill_bruteforce(s, budget, noise)
            cap_got = float(np.sum(np.log2(1.0 + powers * s ** 2 / noise)))
            assert np.max(np.abs(powers - powers_bf)) < 1e-9
            assert abs(cap_got - cap_bf) < 1e-9

    def test_kkt_invariants(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            s = random_spectrum(rng)
            budget = 10.0 ** rng.uniform(-2.0, 3.0)
            noise = 10.0 ** rng.uniform(-1.0, 1.0)
            powers = waterfill(s, budget, noise)
            gains = s ** 2 / noise
            assert abs(powers.sum() - budget) < 1e-10 * budget
            active = powers > 0
            # the water level: p + 1/g is one value mu on the active set
            levels = powers[active] + 1.0 / gains[active]
            mu = levels[0]
            assert np.all(np.abs(levels - mu) < 1e-9)
            assert np.all(1.0 / gains[~active] >= mu - 1e-12)

    def test_zero_gain_modes_stay_dry(self):
        powers = waterfill(np.array([1.0, 0.0, 0.0]), budget=2.0, noise=1.0)
        assert np.allclose(powers, [2.0, 0.0, 0.0])
        assert np.count_nonzero(powers) == 1

    @settings(max_examples=400, deadline=None)
    @given(values=st.lists(st.one_of(st.just(0.0), st.just(1.0), st.just(0.5),
                                     st.floats(1e-8, 1e3)),
                           min_size=1, max_size=64),
           budget=st.floats(1e-20, 1e6), noise=st.floats(1e-3, 1e3))
    def test_bit_identical_to_loop_reference(self, values, budget, noise):
        s = np.sort(np.array(values))[::-1]
        if s[0] == 0.0:
            s[0] = 1.0
        ref_powers = waterfill_loop(s, budget, noise)
        powers = waterfill(s, budget, noise)
        if np.any(ref_powers > 0):
            assert powers.tobytes() == ref_powers.tobytes()
        else:
            # the budget rounds away against 1/g_1: it all goes to mode 1
            assert powers[0] == budget
            assert not np.any(powers[1:])
        assert np.count_nonzero(powers) >= 1

    def test_tiny_budget_goes_to_strongest_mode(self):
        powers = waterfill(np.array([1.0]), budget=1e-17, noise=1.0)
        assert powers.tolist() == [1e-17]
        assert np.count_nonzero(powers) == 1
        powers = waterfill(np.array([2.0, 1.0, 0.0]), budget=1e-20, noise=1.0)
        assert powers.tolist() == [1e-20, 0.0, 0.0]
        assert 0.0 < capacity(np.array([1.0]), 1e-17) < 1e-16

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_degenerate_inputs_rejected(self, bad):
        with pytest.raises(ValueError, match="budget must be positive and finite"):
            waterfill(np.array([1.0]), budget=bad, noise=1.0)
        with pytest.raises(ValueError, match="noise power must be positive and finite"):
            waterfill(np.array([1.0]), budget=1.0, noise=bad)
        for metric in (capacity, edof3, edof3_envelope):
            with pytest.raises(ValueError, match="snr must be positive and finite"):
                metric(np.array([1.0]), bad)
        with pytest.raises(ValueError):
            waterfill(np.array([0.0]), budget=1.0, noise=1.0)


class TestCapacity:
    def test_siso(self):
        assert capacity(np.array([1.0]), 3.0) == pytest.approx(2.0, rel=1e-12)

    def test_high_snr_slope_four_modes(self):
        s = np.ones(4)
        gain = capacity(s, 4e6) - capacity(s, 1e6)
        assert gain == pytest.approx(8.0, abs=2e-5)

    def test_rank_one_any_policy(self):
        s = planar_spectrum()
        expected = np.log2(1.0 + 7.0 * s[0] ** 2)
        assert capacity(s, 7.0) == pytest.approx(expected, rel=1e-12)

    def test_waterfilling_beats_equal(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            s = random_spectrum(rng)
            snr = 10.0 ** rng.uniform(-1.0, 3.0)
            c_wf = capacity(s, snr)
            k = dof(s)  # equal powers over the dof modes
            c_eq = float(np.sum(np.log2(1.0 + snr / k * s[:k] ** 2)))
            assert c_wf >= c_eq - 1e-12
            if np.ptp(s[: dof(s)]) == 0.0:
                assert c_wf == pytest.approx(c_eq, rel=1e-12)


class TestRoundOffClip:
    @settings(max_examples=200, deadline=None)
    @given(head=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4),
           tail=st.lists(st.floats(-300.0, -10.0), min_size=1, max_size=4),
           snr_db=st.floats(-30.0, 3000.0))
    @example(head=[0.0546875], tail=[-10.0], snr_db=-15.0)
    # one active mode at low SNR, where mu - 1/g_1 with mu = budget + 1/g_1 cancels
    @example(head=[0.0625], tail=[-10.0], snr_db=-22.0)
    def test_tiny_tails_count_nowhere(self, head, tail, snr_db):
        # the tail sits below dof's rank tolerance, 1e-10 * len(s) * sigma_1
        head = np.sort(head)[::-1]
        s = np.concatenate([head, head[0] * 10.0 ** np.sort(tail)[::-1]])
        snr = 10.0 ** (snr_db / 10.0)
        k = dof(s)
        assert k == head.size
        cap = capacity(s, snr)
        assert cap == pytest.approx(waterfill_bruteforce(head, snr, 1.0)[1], rel=1e-9)
        # log2(1 + x) loses about eps / x relative at small x; log1p does not
        assert cap <= k * np.log1p(snr * s[0] ** 2) / np.log(2.0) * (1.0 + 1e-12)
        assert edof3_envelope(s, snr) <= k
        assert edof3_auto(s, snr) <= k
        assert edof1(s, dominance=1e-300) == k


class TestEdof3:
    def test_siso_half_at_unit_snr(self):
        assert edof3(np.array([1.0]), 1.0) == pytest.approx(0.5, abs=1e-9)
        assert edof3_envelope(np.array([1.0]), 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_siso_saturates_at_one(self):
        assert edof3_envelope(np.array([1.0]), 1e9) == pytest.approx(1.0, abs=1e-6)

    def test_planar_never_exceeds_one(self):
        s = planar_spectrum()
        for snr_db in (-10.0, 0.0, 10.0, 30.0, 60.0):
            assert edof3(s, 10.0 ** (snr_db / 10.0)) < 1.0

    def test_round_off_never_lifts_it_above_the_active_count(self):
        # the normalized rank-1 16 x 16 channel at 1e9 m: at 400 dB C is 141
        # bit/s/Hz, whose central difference carries about C * eps / delta_step
        # of round-off and read 1.0000000000005116 before the clamp
        tx, rx = ula_pair(16, 1e9)
        h = frobenius_normalized(los_nusw_channel(tx, rx, WAVELENGTH))
        s = decompose(h).singular_values
        assert dof(s) == 1
        assert edof3(s, 1e40) == 1.0
        assert edof3_auto(s, 1e40) == 1.0

    def test_two_equal_modes(self):
        s = np.array([1.0, 1.0])
        assert edof3_envelope(s, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert edof3(s, 2.0) == pytest.approx(1.0, abs=1e-6)

    def test_finite_difference_matches_envelope(self):
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(500):
            s = random_spectrum(rng)
            snr = 10.0 ** rng.uniform(-2.0, 4.0)
            try:
                fd = edof3(s, snr, delta_step=1e-3)
            except ActiveSetChangeError:
                continue
            checked += 1
            assert abs(fd - edof3_envelope(s, snr)) < 1e-6
        assert checked > 450

    def test_stencil_straddling_transition_raises(self):
        # gains (1, 0.5): the second mode activates exactly at total power 1
        s = np.array([1.0, np.sqrt(0.5)])
        with pytest.raises(ActiveSetChangeError):
            edof3(s, 1.0, delta_step=0.01)
        # the auto variant falls back gracefully and stays near the envelope
        assert edof3_auto(s, 1.0) == pytest.approx(edof3_envelope(s, 1.0), abs=1e-4)

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            s = random_spectrum(rng)
            k = dof(s)
            grid = np.geomspace(1e-3, 1e5, 120)
            vals = [edof3_envelope(s, snr) for snr in grid]
            assert all(0.0 < v < k for v in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_approaches_dof(self):
        s = np.array([2.0, 1.5, 1.0, 0.5])
        total_inv = np.sum(1.0 / s ** 2)
        val = edof3_auto(s, 100.0 * total_inv)
        assert abs(val - 4.0) <= 0.01 * 4.0

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            edof3(np.array([1.0]), 1.0, delta_step=0.2)


class TestSummaries:
    def test_metrics_report_schema(self):
        report = metrics_report(np.array([2.0, 1.0]), [0.5, 1.0, 2.0],
                                config_echo={"tag": "unit"})
        assert set(report) == {"dof", "edof1", "edof2", "edof3_by_snr",
                               "capacity_by_snr", "config_echo"}
        assert len(report["edof3_by_snr"]) == 3
        assert report["config_echo"] == {"tag": "unit"}
        snrs = [row[0] for row in report["capacity_by_snr"]]
        assert snrs == [0.5, 1.0, 2.0]

    def test_metrics_report_edof3_reads_its_step(self):
        s = np.array([2.0, 1.5, 1.0, 0.5])
        snrs = [0.1, 1.0, 10.0, 100.0]
        coarse = metrics_report(s, snrs, delta_step=0.05)["edof3_by_snr"]
        assert coarse == [[snr, edof3_auto(s, snr, delta_step=0.05)] for snr in snrs]
        assert coarse != metrics_report(s, snrs)["edof3_by_snr"]


class TestChannelComparisons:
    def test_near_field_beats_far_field(self):
        near = frobenius_normalized(los_nusw_channel(*ula_pair(256, 15.0), WAVELENGTH))
        far = frobenius_normalized(los_nusw_channel(*ula_pair(256, 300.0), WAVELENGTH))
        sn = decompose(near).singular_values
        sf = decompose(far).singular_values
        snr = 100.0
        assert dof(sn) > dof(sf)
        assert edof1(sn) > edof1(sf)
        assert edof2(sn) > edof2(sf)
        assert edof3_envelope(sn, snr) > edof3_envelope(sf, snr)

    def test_edof3_can_exceed_edof1_and_edof2(self):
        s = decompose(frobenius_normalized(
            los_nusw_channel(*ula_pair(256, 15.0), WAVELENGTH))).singular_values
        e1, e2 = edof1(s), edof2(s)
        exceeded = any(edof3_envelope(s, 10.0 ** (db / 10.0)) > max(e1, e2)
                       for db in range(0, 41, 5))
        assert exceeded

    def test_edof1_tracks_edof2_when_dominant_gains_are_flat(self):
        # empirical observation on the canonical near-field geometry, where
        # the dominant gains are nearly equal; not a universal identity
        from conftest import nusw_spectrum
        for d in (15.0, 50.0):
            s = nusw_spectrum(256, d)
            assert abs(edof1(s) - edof2(s)) <= 3.0
