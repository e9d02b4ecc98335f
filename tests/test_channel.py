import numpy as np
import pytest

from conftest import CARRIER, WAVELENGTH, ula_pair
from nfdof.channel import (farfield_planar_channel, frobenius_normalized, los_nusw_channel,
                           los_usw_channel)
from nfdof.errors import SingularGeometryError
from nfdof.geometry import build_ula, rayleigh_distance
from nfdof.modes import decompose


def siso_pair(distance):
    tx = build_ula(1, 0.0, center=(0, 0, 0))
    rx = build_ula(1, 0.0, center=(0, distance, 0))
    return tx, rx


class TestNusw:
    def test_full_wavelength_distance(self):
        tx, rx = siso_pair(WAVELENGTH)
        h = los_nusw_channel(tx, rx, CARRIER).entries[0, 0]
        assert h == pytest.approx(1.0 / (4.0 * np.pi), abs=1e-15)

    def test_half_wavelength_phase_inversion(self):
        # amplitude lam/(4 pi d) at d = lam/2 is 1/(2 pi); phase exp(-1j pi) = -1
        tx, rx = siso_pair(WAVELENGTH / 2)
        h = los_nusw_channel(tx, rx, CARRIER).entries[0, 0]
        assert h == pytest.approx(-1.0 / (2.0 * np.pi), abs=1e-15)

    def test_amplitudes_follow_distances(self):
        # 2x2 parallel ULAs: the two aligned paths are shorter than the two
        # cross paths, so NUSW amplitudes split into two distinct levels
        tx, rx = ula_pair(2, 15.0)
        h = los_nusw_channel(tx, rx, CARRIER).entries
        d_aligned = 15.0
        d_cross = np.hypot(15.0, 1.37)
        assert abs(h[0, 0]) == pytest.approx(WAVELENGTH / (4 * np.pi * d_aligned), rel=1e-12)
        assert abs(h[0, 1]) == pytest.approx(WAVELENGTH / (4 * np.pi * d_cross), rel=1e-12)
        assert abs(h[0, 0]) > abs(h[0, 1])
        assert not np.allclose(abs(h), abs(h[0, 0]))

    def test_amplitude_invariant(self):
        tx, rx = ula_pair(7, 9.0)
        h = los_nusw_channel(tx, rx, CARRIER).entries
        diff = rx.elements[:, None, :] - tx.elements[None, :, :]
        d = np.linalg.norm(diff, axis=-1)
        assert np.max(np.abs(np.abs(h) * (4 * np.pi * d) / WAVELENGTH - 1.0)) < 1e-12

    def test_reciprocity(self):
        tx, rx = ula_pair(5, 11.0)
        fwd = los_nusw_channel(tx, rx, CARRIER).entries
        bwd = los_nusw_channel(rx, tx, CARRIER).entries
        assert np.max(np.abs(fwd - bwd.T)) < 1e-12 * np.max(np.abs(fwd))

    def test_coincident_elements_rejected(self):
        tx = build_ula(2, 1.0)
        with pytest.raises(SingularGeometryError):
            los_nusw_channel(tx, tx, CARRIER)


class TestUsw:
    def test_uniform_amplitudes(self):
        tx, rx = ula_pair(6, 15.0)
        h = los_usw_channel(tx, rx, CARRIER).entries
        expected = WAVELENGTH / (4 * np.pi * 15.0)
        assert np.max(np.abs(np.abs(h) - expected)) < 1e-15

    def test_siso_equals_nusw(self):
        tx, rx = siso_pair(3 * WAVELENGTH)
        hu = los_usw_channel(tx, rx, CARRIER).entries[0, 0]
        hn = los_nusw_channel(tx, rx, CARRIER).entries[0, 0]
        assert hu == pytest.approx(hn, rel=1e-15)

    def test_differs_from_nusw_entrywise(self):
        tx, rx = ula_pair(64, 15.0)
        hu = los_usw_channel(tx, rx, CARRIER).entries
        hn = los_nusw_channel(tx, rx, CARRIER).entries
        assert np.max(np.abs(hn - hu)) > 0.0

    def test_nusw_converges_to_usw_with_distance(self):
        tx = build_ula(8, 1.37)
        diffs = []
        for d in np.geomspace(5.0, 5000.0, 10):
            rx = build_ula(8, 1.37, center=(0, d, 0))
            hn = los_nusw_channel(tx, rx, CARRIER).entries
            hu = los_usw_channel(tx, rx, CARRIER).entries
            diffs.append(np.max(np.abs(hn - hu) / np.abs(hu)))
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-7


class TestPlanar:
    def test_rank_one(self):
        tx, rx = ula_pair(16, 50.0)
        s = decompose(farfield_planar_channel(tx, rx, CARRIER)).singular_values
        assert s[1] / s[0] < 1e-12

    def test_principal_gain(self):
        tx, rx = ula_pair(16, 50.0)
        s = decompose(farfield_planar_channel(tx, rx, CARRIER)).singular_values
        assert s[0] == pytest.approx(16 * WAVELENGTH / (4 * np.pi * 50.0), rel=1e-12)

    def test_siso_equals_nusw(self):
        tx, rx = siso_pair(5.0)
        hp = farfield_planar_channel(tx, rx, CARRIER).entries[0, 0]
        hn = los_nusw_channel(tx, rx, CARRIER).entries[0, 0]
        assert hp == pytest.approx(hn, rel=1e-12)

    def test_usw_aligns_with_planar_far_out(self):
        d = 100.0 * rayleigh_distance(1.37, WAVELENGTH)
        tx, rx = ula_pair(16, d)
        mu = decompose(los_usw_channel(tx, rx, CARRIER))
        mp = decompose(farfield_planar_channel(tx, rx, CARRIER))
        left = abs(np.vdot(mu.left_vectors[:, 0], mp.left_vectors[:, 0]))
        right = abs(np.vdot(mu.right_vectors[:, 0], mp.right_vectors[:, 0]))
        assert left > 0.999 and right > 0.999


class TestNormalization:
    def test_frobenius_target(self):
        tx, rx = ula_pair(16, 15.0)
        h = frobenius_normalized(los_nusw_channel(tx, rx, CARRIER))
        assert np.linalg.norm(h.entries) ** 2 == pytest.approx(16 * 16, rel=1e-12)
