import numpy as np
import pytest

from conftest import CARRIER, WAVELENGTH, nusw_channel, nusw_spectrum, ula_pair
from nfdof.channel import farfield_planar_channel
from nfdof.metrics import dof
from nfdof.modes import ModeDecomposition, SingularSpectrum, decompose


class TestDecompose:
    def test_identity(self):
        md = decompose(np.eye(4, dtype=complex))
        assert np.allclose(md.singular_values, np.ones(4))

    def test_planar_rank_one(self):
        tx, rx = ula_pair(12, 40.0)
        md = decompose(farfield_planar_channel(tx, rx, CARRIER))
        assert md.singular_values[0] == pytest.approx(
            12 * WAVELENGTH / (4 * np.pi * 40.0), rel=1e-12)
        assert md.singular_values[1] < 1e-12 * md.singular_values[0]

    def test_plateau_then_decay(self):
        s = nusw_spectrum(256, 15.0).values
        assert s[19] / s[0] < 1e-3
        # plateau: the first ten modes stay within 1% of the strongest
        assert s[9] / s[0] > 0.99

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        md = decompose(h)
        k = md.n_modes
        assert np.linalg.norm(md.left_vectors.conj().T @ md.left_vectors - np.eye(k)) < 1e-10
        assert np.linalg.norm(md.right_vectors.conj().T @ md.right_vectors - np.eye(k)) < 1e-10

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        md = decompose(h)
        rebuilt = md.left_vectors @ np.diag(md.singular_values) @ md.right_vectors.conj().T
        assert np.linalg.norm(h - rebuilt) < 1e-10 * np.linalg.norm(h)

    def test_mode_count(self):
        md = decompose(np.ones((3, 7)))
        assert md.n_modes == 3
        assert md.spectrum.shape == (3, 7)

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6), (256, 256)])
    def test_values_only_matches_full_svd(self, shape):
        if shape == (256, 256):
            h = nusw_channel(256, 15.0)
        else:
            rng = np.random.default_rng(3)
            h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = decompose(h)
        values = decompose(h, vectors=False)
        assert isinstance(values, SingularSpectrum)
        assert values.shape == full.spectrum.shape == shape
        assert values.values.shape == full.singular_values.shape
        assert np.max(np.abs(values.values - full.singular_values)) \
            <= 1e-13 * full.singular_values[0]
        assert dof(values) == dof(full.spectrum)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            decompose(np.zeros((4, 4), dtype=complex))

    def test_nonfinite_rejected(self):
        h = np.ones((2, 2), dtype=complex)
        h[0, 0] = np.nan
        with pytest.raises(ValueError):
            decompose(h)
        with pytest.raises(ValueError):
            decompose(h, vectors=False)


class TestSingularSpectrum:
    def test_descending_enforced(self):
        with pytest.raises(ValueError, match="descending"):
            SingularSpectrum(values=np.array([1.0, 2.0]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SingularSpectrum(values=np.array([1.0, -0.1]))

    def test_values_read_only(self):
        s = SingularSpectrum(values=np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            s.values[0] = 5.0
        assert len(s) == 2
