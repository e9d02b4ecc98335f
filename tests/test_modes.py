import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CARRIER, WAVELENGTH, nusw_channel, nusw_spectrum, ula_pair
from nfdof.channel import farfield_planar_channel, los_nusw_channel, los_usw_channel
from nfdof.geometry import build_ula
from nfdof.metrics import dof
from nfdof.modes import ModeDecomposition, SingularSpectrum, decompose, parity_blocks, split_values


def svd_values(m):
    return np.linalg.svd(m, compute_uv=False)


def random_matrix(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def centrosymmetric(seed, n, hermitian):
    m = random_matrix(seed, (n, n))
    m = m + m[::-1, ::-1]
    return m + m.conj().T if hermitian else m


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

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6), (256, 256), (275, 275)])
    def test_values_only_matches_full_svd(self, shape):
        if shape[0] == shape[1]:  # facing ULAs: the parity split
            h = nusw_channel(shape[0], 15.0)
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


class TestParitySplit:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), hermitian=st.booleans())
    def test_split_values_match_the_full_solve(self, n, seed, hermitian):
        m = centrosymmetric(seed, n, hermitian)
        even, odd = parity_blocks(m)
        assert even.shape == ((n + 1) // 2,) * 2 and odd.shape == (n // 2,) * 2
        full = svd_values(m)
        split = split_values(m)
        assert np.max(np.abs(split - full)) <= 1e-13 * full[0]
        if hermitian:
            assert np.array_equal(even, even.conj().T) and np.array_equal(odd, odd.conj().T)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 40), extra=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_other_matrices_take_the_full_solve(self, n, extra, seed):
        if extra:  # rectangular, even if mirror-symmetric
            m = random_matrix(seed, (n, n + extra))
            m = m + m[::-1, ::-1]
        else:
            m = random_matrix(seed, (n, n))
        assert parity_blocks(m) is None
        assert np.array_equal(split_values(m), svd_values(m))
        assert np.array_equal(decompose(m, vectors=False).values, svd_values(m))

    def test_too_small_or_not_a_matrix(self):
        assert parity_blocks(np.ones((1, 1))) is None
        assert parity_blocks(np.ones(4)) is None

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 275, 1024])
    def test_facing_ulas_give_exactly_centrosymmetric_channels(self, n):
        for d in (15.0, 50.0, 150.0):
            tx, rx = ula_pair(n, d)
            for h in (los_nusw_channel(tx, rx, CARRIER).entries,
                      los_usw_channel(tx, rx, CARRIER).entries):
                assert np.array_equal(h, h[::-1, ::-1]), (n, d)

    def test_axis_along_the_link_takes_the_full_svd(self):
        axis = (0.0, 1.0, 0.0)
        tx = build_ula(64, 1.37, center=(0.0, 0.0, 0.0), axis=axis)
        rx = build_ula(64, 1.37, center=(0.0, 15.0, 0.0), axis=axis)
        h = los_nusw_channel(tx, rx, CARRIER).entries
        assert parity_blocks(h) is None
        assert np.array_equal(decompose(h, vectors=False).values, svd_values(h))


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
