import numpy as np
import pytest

from nfdof.geometry import (SPEED_OF_LIGHT, CarrierConfig, build_ula, continuous_aperture,
                            discrete_array, rayleigh_distance)


class TestCarrierConfig:
    def test_from_frequency(self):
        c = CarrierConfig.from_frequency(28e9)
        assert c.wavelength == pytest.approx(SPEED_OF_LIGHT / 28e9, rel=1e-15)

    def test_from_wavelength(self):
        c = CarrierConfig.from_wavelength(0.01)
        assert c.frequency == pytest.approx(SPEED_OF_LIGHT / 0.01, rel=1e-15)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            CarrierConfig(frequency=28e9, wavelength=0.01)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            CarrierConfig.from_frequency(0.0)


class TestBuildUla:
    def test_two_element_endpoints(self):
        ula = build_ula(2, 1.0, center=(0, 0, 0), axis=(0, 0, 1))
        assert np.allclose(ula.elements, [[0, 0, -0.5], [0, 0, 0.5]])
        assert ula.aperture == pytest.approx(1.0, rel=1e-15)

    def test_half_wavelength_spacing(self):
        ula = build_ula(275, 1.37, center=(0, 0, 0), axis=(0, 0, 1))
        spacing = np.linalg.norm(ula.elements[1] - ula.elements[0])
        assert spacing == pytest.approx(0.005, rel=1e-12)
        assert spacing == pytest.approx(ula.aperture / 274, rel=1e-12)

    def test_single_element(self):
        ula = build_ula(1, 0.0, center=(0, 7.0, 0))
        assert ula.n_elements == 1
        assert np.allclose(ula.elements[0], [0, 7.0, 0])
        assert ula.aperture == 0.0

    def test_symmetry_about_center(self):
        center = np.array([1.0, -2.0, 3.0])
        axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        ula = build_ula(11, 2.5, center=center, axis=axis)
        residual = np.linalg.norm(np.sum(ula.elements - center, axis=0))
        assert residual < 1e-12 * ula.aperture

    @pytest.mark.parametrize("n", [2, 3, 16, 275, 1024])
    def test_same_array_as_the_pairwise_check(self, n):
        axis = np.array([1.0, -2.0, 2.0]) / 3.0
        for ula in (build_ula(n, 1.37, center=(0.0, 15.0, 0.0)),
                    build_ula(n, 2.5, center=(1.0, -2.0, 3.0), axis=axis)):
            ref = discrete_array(ula.elements)
            assert np.array_equal(ula.elements, ref.elements)
            assert ula.aperture == ref.aperture
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
        with pytest.raises(ValueError):
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


class TestArrayConstruction:
    def test_duplicate_elements_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            discrete_array([[0, 0, 0], [0, 0, 1], [0, 0, 0]])

    def test_aperture_is_max_pairwise_distance(self):
        arr = discrete_array([[0, 0, 0], [0, 0, 1], [0, 0, 5], [0, 3, 0]])
        assert arr.aperture == pytest.approx(np.sqrt(34), rel=1e-15)

    def test_continuous_aperture_length(self):
        seg = continuous_aperture((0, 0, -0.5), (0, 0, 0.5))
        assert seg.aperture == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(seg.center, [0, 0, 0])

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            continuous_aperture((1, 2, 3), (1, 2, 3))

    def test_elements_are_immutable(self):
        ula = build_ula(4, 1.0)
        with pytest.raises(ValueError):
            ula.elements[0, 0] = 9.9
