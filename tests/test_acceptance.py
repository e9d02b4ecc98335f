"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Shared heavyweight inputs (large SVDs, converged kernel spectra) are
cached in conftest, so the whole gate stays well under the runtime budget.
"""

import numpy as np
import pytest

from conftest import (WAVELENGTH, cap_converged, nusw_spectrum,
                      random_spectrum, sampled_kernel, segment_pair, ula_pair,
                      waterfill_bruteforce)
# the criteria read the package's public names, as a user of the library would
from nfdof import (ActiveSetChangeError, TransmissionConfig, build_kernel, build_ula,
                   cap_edof1, cap_edof2, cap_spectrum, capacity, combine, decompose, dof,
                   edof1, edof1_limit_linear, edof2, edof3, edof3_auto, edof3_envelope,
                   farfield_planar_channel, frobenius_normalized, los_nusw_channel, precode,
                   run_link, waterfill)
from nfdof.experiments import run_experiment
from nfdof.linksim import qpsk_symbols


def _criterion(cid, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {cid:02d} {description}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_c01_far_field_collapse():
    ok = True
    details = []
    for tx_n, rx_n in ((16, 16), (5, 12)):
        tx = build_ula(tx_n, 1.37, center=(0, 0, 0), axis=(0, 0, 1))
        rx = build_ula(rx_n, 1.37, center=(0, 400.0, 0), axis=(0, 0, 1))
        for h in (farfield_planar_channel(tx, rx, WAVELENGTH),
                  frobenius_normalized(farfield_planar_channel(tx, rx, WAVELENGTH))):
            s = decompose(h).spectrum
            ok &= dof(s) == 1
            ok &= edof1(s) == 1
            ok &= abs(edof2(s) - 1.0) <= 1e-9
            for snr_db in (-10.0, 0.0, 10.0, 30.0):
                ok &= edof3(s, 10.0 ** (snr_db / 10.0)) < 1.0
        details.append(f"{rx_n}x{tx_n}")
    _criterion(1, "far-field collapse", ok, ", ".join(details))


def test_c02_dominant_mode_limit_agreement():
    parts = []
    within_limit_band = True
    kernel_agrees = True
    for d in (15.0, 50.0):
        spd, cap = nusw_spectrum(256, d), cap_converged(d)
        half_spd = edof1(spd, dominance=0.5)
        half_cap = cap_edof1(cap, dominance=0.5)
        count_spd = edof1(spd, dominance=0.01)
        count_cap = cap_edof1(cap, dominance=0.01)
        limit = edof1_limit_linear(1.37, 1.37, WAVELENGTH, d)
        within_limit_band &= abs(half_spd - limit) <= 2.0
        within_limit_band &= abs(half_cap - limit) <= 2.0
        kernel_agrees &= abs(count_spd - count_cap) <= 1
        parts.append(f"d={d:g}: half-power spd={half_spd} cap={half_cap} "
                     f"limit={limit:.2f}; 20 dB spd={count_spd} cap={count_cap}")
    # The limit L_t*L_r/(lambda*d) is the Shannon number of the prolate
    # spheroidal spectrum: the index where sigma_n^2/sigma_1^2 falls through
    # 1/2.  So the half-power counts (discrete SVD and Nystrom kernel) are
    # held to +/-2 of it.  The 20 dB counts also take in the plunge region,
    # whose width grows with ln(1/dominance), and sit 2-3 modes above the
    # limit; for them the check is only that SPD and CAP agree within 1.
    _criterion(2, "dominant-mode count vs asymptotic limit",
               within_limit_band and kernel_agrees, "; ".join(parts))


def test_c03_spd_to_cap_edof2_convergence():
    ok = True
    parts = []
    for d in (15.0, 50.0, 150.0):
        spd = edof2(nusw_spectrum(275, d))
        cap = cap_edof2(cap_converged(d))
        rel = abs(spd - cap) / cap
        ok &= rel < 0.02
        parts.append(f"d={d:g}: {rel * 100:.2f}%")
        grown = [edof2(nusw_spectrum(n, d, aperture=(n - 1) * WAVELENGTH / 2))
                 for n in (16, 32, 64, 128, 275)]
        ok &= all(b >= a - 1e-12 for a, b in zip(grown, grown[1:]))
    _criterion(3, "half-wavelength arrays reach the continuous-aperture edof2",
               ok, "; ".join(parts))


def test_c04_distance_monotonicity():
    grid = np.geomspace(10.0, 500.0, 13)
    spd_e1, spd_e2, cap_e1, cap_e2 = [], [], [], []
    for d in grid:
        s = nusw_spectrum(275, float(d))
        spd_e1.append(edof1(s))
        spd_e2.append(edof2(s))
        spec = cap_converged(float(d))
        cap_e1.append(cap_edof1(spec))
        cap_e2.append(cap_edof2(spec))

    def non_increasing(v):
        return all(b <= a + 1e-12 for a, b in zip(v, v[1:]))

    ok = (non_increasing(spd_e1) and non_increasing(spd_e2)
          and non_increasing(cap_e1) and non_increasing(cap_e2))
    steps1 = np.diff(cap_e1)
    steps2 = np.diff(cap_e2)
    co_monotone = bool(np.all(steps1 * steps2 >= 0.0))
    _criterion(4, "edof non-increasing in distance, continuous curves co-monotone",
               ok and co_monotone,
               f"spd edof1 {spd_e1[0]}->{spd_e1[-1]}, cap edof2 "
               f"{cap_e2[0]:.2f}->{cap_e2[-1]:.3f}")


def test_c05_capacity_slope_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    for _ in range(500):
        s = random_spectrum(rng)
        snr = 10.0 ** rng.uniform(-2.0, 4.0)
        try:
            fd = edof3(s, snr, delta_step=1e-3)
        except ActiveSetChangeError:
            continue
        checked += 1
        worst = max(worst, abs(fd - edof3_envelope(s, snr)))
    siso = edof3(np.array([1.0]), 1.0)
    s4 = np.array([2.0, 1.5, 1.0, 0.5])
    high = edof3_auto(s4, 100.0 * float(np.sum(1.0 / s4 ** 2)))
    ok = (checked >= 450 and worst < 1e-6
          and abs(siso - 0.5) <= 1e-9
          and abs(high - 4.0) <= 0.01 * 4.0)
    _criterion(5, "derivative edof3 matches analytic envelope",
               ok, f"{checked} spectra, worst {worst:.2e}, siso {siso:.12f}")


def test_c06_high_snr_ordering():
    s = decompose(frobenius_normalized(
        los_nusw_channel(*ula_pair(256, 15.0), WAVELENGTH))).spectrum
    e1 = edof1(s)
    e2 = edof2(s)
    crossing = None
    for snr_db in np.arange(-10.0, 40.5, 2.5):
        e3 = edof3_envelope(s, 10.0 ** (snr_db / 10.0))
        if e3 > e1 and e3 > e2:
            crossing = snr_db
            break
    _criterion(6, "edof3 exceeds edof1 and edof2 at high SNR",
               crossing is not None and crossing <= 40.0,
               f"first at {crossing} dB (edof1={e1}, edof2={e2:.2f})")


def test_c07_waterfilling_oracle():
    rng = np.random.default_rng(7)
    worst_p = 0.0
    worst_c = 0.0
    for _ in range(1000):
        s = random_spectrum(rng)
        budget = 10.0 ** rng.uniform(-1.5, 2.0)
        noise = 10.0 ** rng.uniform(-1.0, 1.0)
        powers = waterfill(s, budget, noise)
        powers_bf, cap_bf = waterfill_bruteforce(s, budget, noise)
        cap_got = float(np.sum(np.log2(1.0 + powers * s ** 2 / noise)))
        worst_p = max(worst_p, float(np.max(np.abs(powers - powers_bf))))
        worst_c = max(worst_c, abs(cap_got - cap_bf))
    ok = worst_p < 1e-9 and worst_c < 1e-9
    _criterion(7, "water-filling matches active-set enumeration",
               ok, f"worst power dev {worst_p:.2e}, capacity dev {worst_c:.2e}")


def test_c08_high_snr_slope():
    s = np.ones(4)
    slope = (capacity(s, 4e6) - capacity(s, 1e6)) / 2.0
    ok = 3.8 <= slope <= 4.0
    _criterion(8, "four equal modes give four bits per octave", ok,
               f"slope {slope:.6f}")


def test_c09_link_fidelity():
    h = los_nusw_channel(*ula_pair(64, 15.0), WAVELENGTH)
    modes = decompose(h)
    k = 8
    powers = np.linspace(1.5, 0.5, k)
    rng = np.random.default_rng(90)
    symbols = qpsk_symbols(k, 2000, rng)
    received = h @ precode(symbols, modes, powers)
    noiseless_err = float(np.max(np.abs(combine(received, modes, powers) - symbols)))

    noise = float(modes.singular_values[k - 1] ** 2) / 50.0
    cfg = TransmissionConfig(mode_powers=powers, noise_power=noise,
                             n_symbols=100_000, seed=91)
    report = run_link(h, cfg)
    snr_dev = float(np.max(np.abs(report.measured_mode_snr
                                  / report.predicted_mode_snr - 1.0)))
    off = report.error_correlation - np.diag(np.diag(report.error_correlation))
    corr_ok = float(np.max(off)) < 5.0 / np.sqrt(cfg.n_symbols)
    ok = noiseless_err < 1e-10 and snr_dev < 0.03 and corr_ok
    _criterion(9, "mode-multiplexed link matches per-mode predictions", ok,
               f"noiseless {noiseless_err:.1e}, snr dev {snr_dev * 100:.2f}%")


def test_c10_kernel_convergence():
    tx, rx = segment_pair(50.0)
    ok = True
    spectra = {}
    for m in (256, 512):
        _, k, w = sampled_kernel(tx, rx, m)
        ok &= np.linalg.norm(k - k.conj().T) < 1e-12 * np.linalg.norm(k)
        w = np.sqrt(w)
        eig = np.linalg.eigvalsh(w[:, None] * k * w[None, :])
        ok &= eig.min() > -1e-10 * eig.max()
        spectra[m] = cap_spectrum(build_kernel(tx, rx, WAVELENGTH, m)).values ** 2
    change = float(np.max(np.abs(spectra[512][:20] - spectra[256][:20]))
                   / spectra[512][0])
    ok &= change < 1e-6
    _criterion(10, "quadrature-stable herm./psd kernel spectrum", ok,
               f"top-20 change {change:.2e}")


def _acceptance_configs():
    carrier = {"wavelength_m": 0.01}
    return [
        {"experiment": "spectrum", "carrier": carrier,
         "geometry": {"aperture_m": 1.37, "n_elements": [16], "distances_m": [15.0]},
         "seed": 1},
        {"experiment": "edof-vs-n", "carrier": carrier,
         "geometry": {"aperture_m": 1.37, "n_elements": [8, 16], "distances_m": [15.0]},
         "seed": 1},
        {"experiment": "edof2-vs-n", "carrier": carrier,
         "geometry": {"element_spacing_m": 0.005, "n_elements": [16, 32],
                      "distances_m": [50.0]},
         "seed": 1},
        {"experiment": "edof3-vs-snr", "carrier": carrier,
         "geometry": {"aperture_m": 1.37, "n_elements": 16, "distances_m": [50.0]},
         "metrics": {"snr_db": [0.0, 10.0, 20.0]}, "seed": 1},
        {"experiment": "cap-edof-vs-distance", "carrier": carrier,
         "geometry": {"apertures_m": [0.3],
                      "distances_m": {"start": 10.0, "stop": 100.0, "count": 4}},
         "seed": 1},
        {"experiment": "link-sim", "carrier": carrier,
         "geometry": {"aperture_m": 1.37, "n_elements": 16, "distance_m": 15.0},
         "link": {"active_modes": 2, "snr_db": 10.0, "n_symbols": 2000},
         "seed": 5},
    ]


def test_c11_reproducibility(tmp_path):
    ok = True
    for cfg in _acceptance_configs():
        kind = cfg["experiment"]
        dirs = []
        for label, threads in (("r1_t1", 1), ("r2_t1", 1), ("r3_t8", 8)):
            out = tmp_path / kind / label
            run_experiment(cfg, out_dir=out, threads=threads)
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        for other in dirs[1:]:
            ok &= sorted(p.name for p in other.iterdir()) == names
            for name in names:
                ok &= (dirs[0] / name).read_bytes() == (other / name).read_bytes()
    _criterion(11, "byte-identical outputs across reruns and thread counts", ok,
               f"{len(_acceptance_configs())} experiments x 3 runs")
