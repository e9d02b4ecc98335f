import numpy as np
import pytest

from nfdof.geometry import build_ula, continuous_aperture, rayleigh_distance

NON_FINITE = [np.nan, np.inf, -np.inf]


class TestBuildUla:
    def test_two_element_endpoints(self):
        ula = build_ula(2, 1.0, center=(0, 0, 0), axis=(0, 0, 1))
        assert np.allclose(ula.elements, [[0, 0, -0.5], [0, 0, 0.5]])

    def test_half_wavelength_spacing(self):
        ula = build_ula(275, 1.37, center=(0, 0, 0), axis=(0, 0, 1))
        spacing = np.linalg.norm(ula.elements[1] - ula.elements[0])
        assert spacing == pytest.approx(0.005, rel=1e-12)

    def test_symmetry_about_center(self):
        center = np.array([1.0, -2.0, 3.0])
        axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        ula = build_ula(11, 2.5, center=center, axis=axis)
        residual = np.linalg.norm(np.sum(ula.elements - center, axis=0))
        assert residual < 1e-12 * 2.5

    @pytest.mark.parametrize("n", [2, 3, 16, 275, 1024])
    def test_same_array_as_the_pairwise_check(self, n):
        axis = np.array([1.0, -2.0, 2.0]) / 3.0
        for ula in (build_ula(n, 1.37, center=(0.0, 15.0, 0.0)),
                    build_ula(n, 2.5, center=(1.0, -2.0, 3.0), axis=axis)):
            # brute force: every pairwise distance, all nonzero off the diagonal
            diff = ula.elements[:, None, :] - ula.elements[None, :, :]
            dist = np.sqrt(np.sum(diff * diff, axis=-1))
            assert np.all(dist[~np.eye(n, dtype=bool)] > 0.0)
            assert dist[0, -1] == dist.max()  # the end pair spans the array
        mirrored = build_ula(n, 2.5, axis=axis).elements
        assert np.array_equal(mirrored, -mirrored[::-1])

    def test_collapsed_elements_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            build_ula(3, 1.0, center=(0.0, 0.0, 1e16))

    def test_non_finite_elements_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            build_ula(3, 1.0, center=(0.0, float("inf"), 0.0))

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            build_ula(4, 1.0, axis=(0, 0, 2))

    def test_negative_aperture_rejected(self):
        with pytest.raises(ValueError):
            build_ula(4, -1.0)

    def test_single_element_positive_aperture_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            build_ula(1, 0.5)


class TestRayleighDistance:
    def test_zero_aperture(self):
        assert rayleigh_distance(0.0, 0.01) == 0.0

    def test_canonical_aperture(self):
        assert rayleigh_distance(1.37, 0.01) == pytest.approx(375.38, rel=1e-12)

    def test_unit_aperture(self):
        assert rayleigh_distance(1.0, 0.01) == pytest.approx(200.0, rel=1e-15)

    def test_quadratic_in_aperture(self):
        for a in (0.3, 1.37, 7.5):
            assert rayleigh_distance(2 * a, 0.01) == 4 * rayleigh_distance(a, 0.01)

    def test_linear_in_frequency(self):
        for lam in (0.5, 0.01, 0.003):
            assert rayleigh_distance(1.37, lam / 2) == 2 * rayleigh_distance(1.37, lam)

    def test_nonpositive_wavelength_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_distance(1.0, 0.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("index", [0, 1])
    def test_non_finite_argument_rejected(self, index, bad):
        args = [1.37, 0.01]
        args[index] = bad
        with pytest.raises(ValueError, match="finite"):
            rayleigh_distance(*args)


class TestArrayConstruction:
    def test_continuous_aperture_length(self):
        seg = continuous_aperture((0, 0, -0.5), (0, 0, 0.5))
        assert np.linalg.norm(seg.segment[1] - seg.segment[0]) == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(seg.center, [0, 0, 0])

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            continuous_aperture((1, 2, 3), (1, 2, 3))

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("coordinate", range(6))
    def test_non_finite_endpoint_rejected(self, coordinate, bad):
        endpoints = np.array([[0.0, 0.0, -0.5], [0.0, 15.0, 0.5]])
        endpoints.flat[coordinate] = bad
        with pytest.raises(ValueError, match="finite"):
            continuous_aperture(*endpoints)

    def test_elements_are_immutable(self):
        ula = build_ula(4, 1.0)
        with pytest.raises(ValueError):
            ula.elements[0, 0] = 9.9
