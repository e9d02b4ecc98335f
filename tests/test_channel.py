import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (WAVELENGTH, channel_entries, direct_response, mirror_verdicts,
                      parity_blocks, segment_pair, tilted_pair, ula_pair)
from nfdof.channel import (facing_ula_column, farfield_planar_channel, frobenius_normalized,
                           los_nusw_channel, los_usw_channel)
from nfdof.errors import SingularGeometryError
from nfdof.geometry import ArrayGeometry, build_ula, continuous_aperture, rayleigh_distance
from nfdof.kernel import build_kernel, cap_spectrum, converge_spectrum
from nfdof.metrics import edof1_limit_linear
from nfdof.modes import decompose

BUILDERS = {"nusw": los_nusw_channel, "usw": los_usw_channel}


def siso_pair(distance):
    def antenna(y):
        return ArrayGeometry(kind="discrete", elements=np.array([[0.0, y, 0.0]]))
    return antenna(0.0), antenna(distance)


class TestNusw:
    def test_full_wavelength_distance(self):
        tx, rx = siso_pair(WAVELENGTH)
        h = los_nusw_channel(tx, rx, WAVELENGTH)[0, 0]
        assert h == pytest.approx(1.0 / (4.0 * np.pi), abs=1e-15)

    def test_half_wavelength_phase_inversion(self):
        # amplitude lam/(4 pi d) at d = lam/2 is 1/(2 pi); phase exp(-1j pi) = -1
        tx, rx = siso_pair(WAVELENGTH / 2)
        h = los_nusw_channel(tx, rx, WAVELENGTH)[0, 0]
        assert h == pytest.approx(-1.0 / (2.0 * np.pi), abs=1e-15)

    def test_amplitudes_follow_distances(self):
        # 2x2 parallel ULAs: the two aligned paths are shorter than the two
        # cross paths, so NUSW amplitudes split into two distinct levels
        tx, rx = ula_pair(2, 15.0)
        h = los_nusw_channel(tx, rx, WAVELENGTH)
        d_aligned = 15.0
        d_cross = np.hypot(15.0, 1.37)
        assert abs(h[0, 0]) == pytest.approx(WAVELENGTH / (4 * np.pi * d_aligned), rel=1e-12)
        assert abs(h[0, 1]) == pytest.approx(WAVELENGTH / (4 * np.pi * d_cross), rel=1e-12)
        assert abs(h[0, 0]) > abs(h[0, 1])
        assert not np.allclose(abs(h), abs(h[0, 0]))

    def test_amplitude_invariant(self):
        tx, rx = ula_pair(7, 9.0)
        h = los_nusw_channel(tx, rx, WAVELENGTH)
        diff = rx.elements[:, None, :] - tx.elements[None, :, :]
        d = np.linalg.norm(diff, axis=-1)
        assert np.max(np.abs(np.abs(h) * (4 * np.pi * d) / WAVELENGTH - 1.0)) < 1e-12

    def test_reciprocity(self):
        tx, rx = ula_pair(5, 11.0)
        fwd = los_nusw_channel(tx, rx, WAVELENGTH)
        bwd = los_nusw_channel(rx, tx, WAVELENGTH)
        assert np.max(np.abs(fwd - bwd.T)) < 1e-12 * np.max(np.abs(fwd))

    def test_coincident_and_unbounded_elements_rejected(self):
        tx = build_ula(2, 1.0)
        with pytest.raises(SingularGeometryError):
            los_nusw_channel(tx, tx, WAVELENGTH)
        # a squared distance past the float range, or a coordinate that is
        # not finite, once gave an all-NaN channel
        far = build_ula(2, 1.0, center=(0.0, 1e160, 0.0))
        unbounded = ArrayGeometry(kind="discrete", elements=np.array([[0.0, np.inf, 0.0]]))
        for rx in (far, unbounded):
            for build in BUILDERS.values():
                with pytest.raises(ValueError, match="finite"):
                    build(tx, rx, WAVELENGTH)


class TestUsw:
    def test_uniform_amplitudes(self):
        tx, rx = ula_pair(6, 15.0)
        h = los_usw_channel(tx, rx, WAVELENGTH)
        expected = WAVELENGTH / (4 * np.pi * 15.0)
        assert np.max(np.abs(np.abs(h) - expected)) < 1e-15

    def test_siso_equals_nusw(self):
        tx, rx = siso_pair(3 * WAVELENGTH)
        hu = los_usw_channel(tx, rx, WAVELENGTH)[0, 0]
        hn = los_nusw_channel(tx, rx, WAVELENGTH)[0, 0]
        assert hu == pytest.approx(hn, rel=1e-15)

    def test_differs_from_nusw_entrywise(self):
        tx, rx = ula_pair(64, 15.0)
        hu = los_usw_channel(tx, rx, WAVELENGTH)
        hn = los_nusw_channel(tx, rx, WAVELENGTH)
        assert np.max(np.abs(hn - hu)) > 0.0

    def test_nusw_converges_to_usw_with_distance(self):
        tx = build_ula(8, 1.37)
        diffs = []
        for d in np.geomspace(5.0, 5000.0, 10):
            rx = build_ula(8, 1.37, center=(0, d, 0))
            hn = los_nusw_channel(tx, rx, WAVELENGTH)
            hu = los_usw_channel(tx, rx, WAVELENGTH)
            diffs.append(np.max(np.abs(hn - hu) / np.abs(hu)))
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-7

    def test_coincident_points_are_reported_before_coincident_centers(self):
        # the usw amplitude reads the centre distance after the assembly, so
        # a coincident element pair wins over coincident centres
        tx = build_ula(3, 1.0)
        with pytest.raises(SingularGeometryError, match=r"points coincide \(d = 0\)"):
            los_usw_channel(tx, tx, WAVELENGTH)
        # crossed ULAs with an even count share a centre but no element
        tx, rx = build_ula(4, 1.0), build_ula(4, 1.0, axis=(1.0, 0.0, 0.0))
        with pytest.raises(SingularGeometryError, match="array centers coincide"):
            los_usw_channel(tx, rx, WAVELENGTH)
        assert np.all(np.isfinite(los_nusw_channel(tx, rx, WAVELENGTH)))


class TestPlanar:
    def test_rank_one(self):
        tx, rx = ula_pair(16, 50.0)
        s = decompose(farfield_planar_channel(tx, rx, WAVELENGTH)).singular_values
        assert s[1] / s[0] < 1e-12

    def test_principal_gain(self):
        tx, rx = ula_pair(16, 50.0)
        s = decompose(farfield_planar_channel(tx, rx, WAVELENGTH)).singular_values
        assert s[0] == pytest.approx(16 * WAVELENGTH / (4 * np.pi * 50.0), rel=1e-12)

    def test_siso_equals_nusw(self):
        tx, rx = siso_pair(5.0)
        hp = farfield_planar_channel(tx, rx, WAVELENGTH)[0, 0]
        hn = los_nusw_channel(tx, rx, WAVELENGTH)[0, 0]
        assert hp == pytest.approx(hn, rel=1e-12)

    def test_usw_aligns_with_planar_far_out(self):
        d = 100.0 * rayleigh_distance(1.37, WAVELENGTH)
        tx, rx = ula_pair(16, d)
        mu = decompose(los_usw_channel(tx, rx, WAVELENGTH))
        mp = decompose(farfield_planar_channel(tx, rx, WAVELENGTH))
        left = abs(np.vdot(mu.left_vectors[:, 0], mp.left_vectors[:, 0]))
        right = abs(np.vdot(mu.right_vectors[:, 0], mp.right_vectors[:, 0]))
        assert left > 0.999 and right > 0.999


class TestNormalization:
    def test_frobenius_target(self):
        tx, rx = ula_pair(16, 15.0)
        h = frobenius_normalized(los_nusw_channel(tx, rx, WAVELENGTH))
        assert np.linalg.norm(h) ** 2 == pytest.approx(16 * 16, rel=1e-12)


# every public builder of a channel, a channel column or an aperture response,
# and every closed-form length that takes a wavelength, called at one wavelength
WAVELENGTH_BUILDERS = {
    "rayleigh_distance": lambda lam: rayleigh_distance(1.37, lam),
    "edof1_limit_linear": lambda lam: edof1_limit_linear(1.37, 1.37, lam, 15.0),
    "los_nusw_channel": lambda lam: los_nusw_channel(*ula_pair(4, 15.0), lam),
    "los_usw_channel": lambda lam: los_usw_channel(*ula_pair(4, 15.0), lam),
    "farfield_planar_channel": lambda lam: farfield_planar_channel(*ula_pair(4, 15.0), lam),
    "facing_ula_column": lambda lam: facing_ula_column("usw", 4, 1.37, 15.0, lam),
    "build_kernel": lambda lam: build_kernel(*segment_pair(15.0), lam, 8),
    "converge_spectrum": lambda lam: converge_spectrum(*segment_pair(15.0), lam),
}


class TestWavelengthRule:
    @pytest.mark.parametrize("lam", [0.0, -0.01, float("nan"), float("inf")])
    @pytest.mark.parametrize("builder", sorted(WAVELENGTH_BUILDERS))
    def test_builder_rejects_a_wavelength_that_is_not_positive_and_finite(self, builder,
                                                                           lam):
        with pytest.raises(ValueError, match="wavelength must be positive and finite"):
            WAVELENGTH_BUILDERS[builder](lam)


class TestSharedAssembly:
    """Channels and kernel responses come from one spherical-wave assembly;
    only ``build_kernel`` builds the top half of the rows, for exact mirror
    nodes, and folds them."""

    @pytest.mark.parametrize("model", sorted(BUILDERS))
    @pytest.mark.parametrize("n_r, n_t", [(5, 12), (12, 5), (7, 7), (64, 64)])
    def test_mirror_ula_channels_build_every_row(self, model, n_r, n_t):
        # no mirror test is made, and the full build is still bitwise
        # centrosymmetric for mirror points
        tx = build_ula(n_t, 1.37)
        rx = build_ula(n_r, 1.37, center=(0.0, 15.0, 0.0))
        with mirror_verdicts() as verdicts:
            h = BUILDERS[model](tx, rx, WAVELENGTH)
        assert verdicts == []
        assert h.shape == (n_r, n_t)
        assert np.array_equal(h, h[::-1, ::-1])
        assert np.array_equal(h, channel_entries(model, tx, rx))

    def test_builders_return_read_only_arrays(self):
        tx, rx = ula_pair(6, 15.0)
        for build in (los_nusw_channel, los_usw_channel, farfield_planar_channel):
            h = build(tx, rx, WAVELENGTH)
            assert type(h) is np.ndarray and h.dtype == complex
            with pytest.raises(ValueError):
                h[0, 0] = 0.0
            with pytest.raises(ValueError):
                frobenius_normalized(h)[0, 0] = 0.0

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["nusw", "usw", "kernel"]),
           layout=st.sampled_from(["mirror", "offset", "tilted"]),
           n_r=st.integers(2, 40), n_t=st.integers(2, 40), d=st.floats(2.0, 200.0),
           ap_r=st.floats(0.1, 1.5), ap_t=st.floats(0.1, 1.5),
           shift=st.floats(0.05, 1.0), angle=st.floats(0.05, 1.2))
    def test_every_response_equals_the_full_build(self, kind, layout, n_r, n_t, d,
                                                  ap_r, ap_t, shift, angle):
        with mirror_verdicts() as verdicts:
            if kind == "kernel":
                m = max(n_r, 8)
                tx, rx = segment_pair(d, ap_t)
                if layout == "offset":
                    rx = continuous_aperture((0.0, d, shift - ap_t / 2),
                                             (0.0, d, shift + ap_t / 2))
                elif layout == "tilted":
                    tx, rx = tilted_pair(d, angle, ap_t)
                built = build_kernel(tx, rx, WAVELENGTH, m)
                full = direct_response(tx, rx, m)
                inputs = (tx.segment, rx.segment)
            else:
                axis = (0.0, np.sin(angle), np.cos(angle)) if layout == "tilted" \
                    else (0.0, 0.0, 1.0)
                center = (0.0, d, shift if layout == "offset" else 0.0)
                tx = build_ula(n_t, ap_t)
                rx = build_ula(n_r, ap_r, center=center, axis=axis)
                built = (BUILDERS[kind](tx, rx, WAVELENGTH),)
                full = channel_entries(kind, tx, rx)
                inputs = (tx.elements, rx.elements)
        # a mirror kernel comes back as the parity blocks of the response
        expected = parity_blocks(full) if len(built) == 2 else (full,)
        assert verdicts == ([layout == "mirror"] if kind == "kernel" else [])
        for b, ref in zip(built, expected, strict=True):
            assert np.array_equal(b, ref)
            assert not b.flags.writeable
            assert not any(np.shares_memory(b, a) for a in inputs)
        # the even block is a view of the computed top rows
        assert built[-1].flags.c_contiguous

    @pytest.mark.parametrize("build, n, layout", [
        (los_nusw_channel, 1024, "mirror"),
        (los_nusw_channel, 512, "offset"),
        (build_kernel, 724, "mirror"),
    ])
    def test_peak_memory_of_one_build(self, build, n, layout):
        # the old assembly held a (rows, N_t, 3) difference tensor, its square
        # and the complex temporaries of the entry formula beside the result:
        # 2.5 x the result on a mirror pair, 4.5 x on an offset pair.  A
        # channel, mirror pair or not, now holds its result and one float
        # distance per entry, 1.5 x.  A kernel is measured with its solve:
        # its top rows, folded into the parity blocks, hold 0.80 x one n x n
        # response, where forming the response and then its blocks held 1.52 x
        if build is build_kernel:
            tx, rx = segment_pair(8.0, 5.0)
            bound = 0.85

            def run():
                cap_spectrum(build_kernel(tx, rx, WAVELENGTH, n))
        else:
            tx = build_ula(n, 1.37)
            rx = build_ula(n, 1.37, center=(0.0, 15.0, 0.3 if layout == "offset" else 0.0))
            bound = 1.6

            def run():
                build(tx, rx, WAVELENGTH)
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n * n * np.dtype(complex).itemsize
