import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nfdof.modes
from conftest import (APERTURE, WAVELENGTH, cap_converged, nusw_channel, nusw_spectrum,
                      parity_blocks, parity_split_values, segment_pair, ula_pair)
from nfdof.channel import (facing_ula_column, farfield_planar_channel, los_nusw_channel,
                           los_usw_channel)
from nfdof.errors import SingularGeometryError
from nfdof.geometry import build_ula
from nfdof.kernel import _path_spread
from nfdof.metrics import dof, edof1, edof2
from nfdof.modes import (ModeDecomposition, _half_phase_excursion, _leading_values,
                         _parity_products, _probe_transform, decompose, toeplitz_matrix,
                         toeplitz_spectrum)


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
        md = decompose(farfield_planar_channel(tx, rx, WAVELENGTH))
        assert md.singular_values[0] == pytest.approx(
            12 * WAVELENGTH / (4 * np.pi * 40.0), rel=1e-12)
        assert md.singular_values[1] < 1e-12 * md.singular_values[0]

    def test_plateau_then_decay(self):
        s = nusw_spectrum(256, 15.0)
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

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6), (256, 256), (275, 275)])
    def test_values_only_matches_full_svd(self, shape):
        if shape[0] == shape[1]:  # facing ULAs: the parity split
            h = nusw_channel(shape[0], 15.0)
        else:
            rng = np.random.default_rng(3)
            h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = decompose(h)
        assert isinstance(full, ModeDecomposition)
        values = parity_split_values(h)
        assert values.shape == full.singular_values.shape
        assert np.max(np.abs(values - full.singular_values)) \
            <= 1e-13 * full.singular_values[0]
        assert dof(values) == dof(full.singular_values)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            decompose(np.zeros((4, 4), dtype=complex))

    def test_nonfinite_rejected(self):
        h = np.ones((2, 2), dtype=complex)
        h[0, 0] = np.nan
        with pytest.raises(ValueError):
            decompose(h)
        with pytest.raises(ValueError):
            toeplitz_spectrum(h[:, 0])


class TestParitySplit:
    """``fold_parity`` through the ``parity_blocks`` oracle, which finds the
    symmetry by comparing entries, against the SVD of every value."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), hermitian=st.booleans())
    def test_split_values_match_the_full_solve(self, n, seed, hermitian):
        m = centrosymmetric(seed, n, hermitian)
        even, odd = parity_blocks(m)
        assert even.shape == ((n + 1) // 2,) * 2 and odd.shape == (n // 2,) * 2
        full = svd_values(m)
        split = parity_split_values(m)
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
        assert np.array_equal(parity_split_values(m), svd_values(m))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 41), seed=st.integers(0, 2**32 - 1), hermitian=st.booleans(),
           i=st.integers(0, 40), j=st.integers(0, 40),
           how=st.sampled_from(["none", "ulp", "conj", "nan"]))
    @example(n=5, seed=0, hermitian=False, i=2, j=0, how="ulp")
    @example(n=5, seed=0, hermitian=False, i=0, j=2, how="ulp")
    @example(n=5, seed=0, hermitian=False, i=2, j=2, how="ulp")
    @example(n=6, seed=0, hermitian=True, i=3, j=2, how="nan")
    def test_verdict_equals_the_all_entries_test(self, n, seed, hermitian, i, j, how):
        # parity_blocks compares half of the entries; one changed entry
        # anywhere, the middle row and column included, must not slip by
        m = centrosymmetric(seed, n, hermitian)
        i, j = i % n, j % n
        if how == "ulp":
            m[i, j] = complex(np.nextafter(m[i, j].real, np.inf), m[i, j].imag)
        elif how == "conj":
            m[i, j] = np.conj(m[i, j])
        elif how == "nan":
            m[i, j] = complex(np.nan, m[i, j].imag)
        expected = np.array_equal(m, m[::-1, ::-1])
        assert expected or how != "none"
        assert (parity_blocks(m) is not None) == expected

    def test_too_small_or_not_a_matrix(self):
        assert parity_blocks(np.ones((1, 1))) is None
        assert parity_blocks(np.ones(4)) is None

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 275, 1024])
    def test_facing_ulas_give_exactly_centrosymmetric_channels(self, n):
        for d in (15.0, 50.0, 150.0):
            tx, rx = ula_pair(n, d)
            for h in (los_nusw_channel(tx, rx, WAVELENGTH),
                      los_usw_channel(tx, rx, WAVELENGTH)):
                assert np.array_equal(h, h[::-1, ::-1]), (n, d)

    def test_axis_along_the_link_takes_the_full_svd(self):
        axis = (0.0, 1.0, 0.0)
        tx = build_ula(64, 1.37, center=(0.0, 0.0, 0.0), axis=axis)
        rx = build_ula(64, 1.37, center=(0.0, 15.0, 0.0), axis=axis)
        h = los_nusw_channel(tx, rx, WAVELENGTH)
        assert parity_blocks(h) is None
        assert np.array_equal(parity_split_values(h), svd_values(h))


def ranked_matrix(seed, n, rank, tail, centro):
    """An n x n matrix with ``rank`` values in [0.01, 1] and the other
    values spread over three decades down from ``tail`` times the rank
    tolerance of ``dof``; ``centro`` averages it with its mirror, which keeps
    the tail at its level and at most doubles the rank."""
    rng = np.random.default_rng(seed)
    head = np.concatenate([[1.0], rng.uniform(0.01, 1.0, rank - 1)])
    s = np.concatenate([head, tail * 1e-10 * n * np.logspace(0, -3, n - rank)])
    u = np.linalg.qr(random_matrix(seed + 1, (n, n)))[0]
    v = np.linalg.qr(random_matrix(seed + 2, (n, n)))[0]
    m = (u * s) @ v.conj().T
    return (m + m[::-1, ::-1]) / 2 if centro else m


def probes(n, k):
    """k complex Gaussian probes of length n from ``default_rng(0)``, as the
    finder draws them, as the columns of an (n, k) block."""
    rng = np.random.default_rng(0)
    return (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))).T


def parity_probes(n, k, sign):
    """The probes w + sign J w of the even (``sign`` 1) or odd (-1) parity
    block of an n x n centrosymmetric matrix, w being :func:`probes`, in the
    block's orthonormal basis: their top n - n // 2 or n // 2 entries, the
    odd-n middle entry divided by sqrt(2)."""
    w = probes(n, k)
    x = (w + sign * w[::-1])[:n - n // 2 if sign > 0 else n // 2]
    x[n // 2:] /= np.sqrt(2)
    return x


def finder_values(m, estimate):
    """The range finder on the dense square ``m`` as one block through its
    matrix products, from k = max(32, ceil(estimate)) probes, padded with
    0.0 to the size of ``m``; every value by SVD where 6 k > n, or a doubling
    passes it."""
    n = m.shape[0]
    k = max(32, math.ceil(estimate))
    found = _leading_values([(lambda k: m @ probes(n, k), lambda y: m.conj().T @ y)], n, k)
    return padded(found, n) if found is not None else svd_values(m)


def block_finder_values(m, estimate):
    """The range finder on the two parity blocks of the dense centrosymmetric
    ``m`` through their matrix products, from k = max(16, ceil(estimate / 2))
    probes per block, as ``toeplitz_spectrum`` runs it, padded with 0.0 to the
    size of ``m``; every value by SVD where 6 (2 k) > n, or a doubling passes
    it."""
    n = m.shape[0]
    k = max(16, math.ceil(estimate / 2))
    products = [(lambda k, b=b, sign=sign: b @ parity_probes(n, k, sign),
                 lambda y, b=b: b.conj().T @ y)
                for b, sign in zip(parity_blocks(m), (1, -1))]
    found = _leading_values(products, n, k)
    return padded(found, n) if found is not None else parity_split_values(m)


def padded(values, n):
    out = np.zeros(n)
    out[:values.size] = values
    return out


def spread_estimate(d, aperture=APERTURE):
    """pi * (path spread) / wavelength of the facing ULAs at ``d``."""
    tx, rx = segment_pair(d, aperture)
    return np.pi * _path_spread(tx.segment, rx.segment) / WAVELENGTH


def gathered(column):
    """The Toeplitz matrix column[|i - j|], indexed entry by entry."""
    i = np.arange(column.size)
    return column[np.abs(i[:, None] - i[None, :])]


class TestRankRevealing:
    """The randomized range finder, on dense matrices through their products,
    as one block or as two parity blocks, and on the parity blocks of the
    Toeplitz operator of facing ULAs, against the SVD of every value."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(192, 320), seed=st.integers(0, 2**32 - 4),
           rank=st.integers(1, 60), tail=st.sampled_from([1e-6, 1e-4, 0.5, 0.9, 1.1, 2.0]),
           centro=st.booleans(), estimate=st.sampled_from([1.0, 10.0, 32.0, "n/6"]))
    @example(n=200, seed=0, rank=50, tail=1e-6, centro=False, estimate=1.0)
    @example(n=201, seed=0, rank=40, tail=1e-6, centro=True, estimate=1.0)
    def test_same_metrics_as_the_full_solve(self, n, seed, rank, tail, centro, estimate):
        m = ranked_matrix(seed, n, rank, tail, centro)
        full = parity_split_values(m)
        # from n = 192 every draw enters the finder; n // 6 is the widest k it lets in
        estimate = n // 6 if estimate == "n/6" else estimate
        fast = finder_values(m, estimate)
        assert fast.shape == (n,)
        assert dof(fast) == dof(full)
        for dominance in (0.01, 0.5):
            assert edof1(fast, dominance=dominance) == edof1(full, dominance=dominance)
        # the values every metric reads agree; the rest are round-off
        k = dof(full)
        assert np.max(np.abs(fast[:k] - full[:k])) <= 1e-13 * full[0]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(192, 320), seed=st.integers(0, 2**32 - 4),
           rank=st.integers(1, 60), tail=st.sampled_from([1e-6, 1e-4, 0.5, 0.9, 1.1, 2.0]),
           estimate=st.sampled_from([1.0, 10.0, 32.0, "n/6"]),
           distance=st.sampled_from([None, 15.0, 50.0, 150.0]))
    @example(n=200, seed=0, rank=50, tail=1e-6, estimate=1.0, distance=None)
    @example(n=201, seed=0, rank=40, tail=1e-6, estimate=1.0, distance=None)
    # a finder that skips the sqrt(2) of the even block's middle entry moves
    # edof2 here from 1.782004 to 1.782405
    @example(n=275, seed=0, rank=1, tail=1e-6, estimate=1.0, distance=150.0)
    def test_per_block_finder_has_the_metrics_of_the_full_solve(self, n, seed, rank, tail,
                                                               estimate, distance):
        # a centrosymmetric ranked matrix through its dense parity blocks, or,
        # for a drawn distance, the facing ULAs' Toeplitz operator through
        # toeplitz_spectrum, with N of both parities
        if distance is None:
            m = ranked_matrix(seed, n, rank, tail, centro=True)
            # n // 6 is the widest total k that enters, n // 12 per block
            fast = block_finder_values(m, n // 6 if estimate == "n/6" else estimate)
        else:
            column = facing_ula_column("nusw", n, APERTURE, distance, WAVELENGTH)
            m = gathered(column)
            fast = toeplitz_spectrum(column)
        full = parity_split_values(m)
        assert fast.shape == (n,)
        assert dof(fast) == dof(full)
        for dominance in (0.01, 0.5):
            assert edof1(fast, dominance=dominance) == edof1(full, dominance=dominance)
        k = dof(full)
        assert np.max(np.abs(fast[:k] - full[:k])) <= 1e-13 * full[0]
        assert edof2(fast) == pytest.approx(edof2(full), rel=1e-12)

    @pytest.mark.parametrize("n, d, finder", [(191, 15.0, False), (192, 15.0, True),
                                              (400, 3.0, False)])
    def test_the_finder_runs_from_six_times_its_probes(self, n, d, finder, monkeypatch):
        # the column's estimate is 19.6 at 15 m, so 16 probes per parity
        # block and the finder runs from n = 6 * 32 = 192; it is 93.6 at 3 m,
        # so 47 per block wait for n = 564.  Below that no block product is formed
        calls = []
        self.counting_products(monkeypatch, calls)
        column = facing_ula_column("nusw", n, APERTURE, d, WAVELENGTH)
        m = gathered(column)
        assert parity_blocks(m) is not None
        dense = parity_split_values(m)
        values = toeplitz_spectrum(column)
        if finder:
            # the finder leaves values out
            assert calls == [(kind, parity, 16) for parity in ("even", "odd")
                             for kind in ("product", "adjoint")]
            assert values[-1] == 0.0 and not np.array_equal(values, dense)
        else:
            assert calls == []
            assert np.array_equal(values, dense)

    @staticmethod
    def counting_products(monkeypatch, calls):
        """Record each ``sketch(k)`` as ("product", parity, k) and each
        ``adjoint(y)`` as ("adjoint", parity, y.shape[1])."""
        products = nfdof.modes._parity_products

        def counting(column):
            return [(lambda k, s=sketch, b=parity: calls.append(("product", b, k)) or s(k),
                     lambda y, a=adjoint, b=parity: calls.append(("adjoint", b, y.shape[1]))
                     or a(y))
                    for (sketch, adjoint), parity in zip(products(column), ("even", "odd"))]

        monkeypatch.setattr(nfdof.modes, "_parity_products", counting)

    @pytest.mark.parametrize("aperture, d, widths", [(APERTURE, 15.0, [16]), (0.5, 1.0, [19, 38])])
    def test_one_product_and_one_adjoint_per_attempt(self, aperture, d, widths, monkeypatch):
        # 1024 elements: the estimate is 19.6 for 1.37 m at 15 m, so one
        # attempt at 16 probes per block; it is 37.1 for 0.5 m at 1 m, and 19
        # per block double once, together
        calls = []
        self.counting_products(monkeypatch, calls)
        toeplitz_spectrum(facing_ula_column("nusw", 1024, aperture, d, WAVELENGTH))
        assert calls == [(kind, parity, k) for k in widths for parity in ("even", "odd")
                         for kind in ("product", "adjoint")]

    def test_a_doubling_past_six_times_its_probes_takes_the_dense_solve(self, monkeypatch):
        # 256 elements of 0.5 m at 1 m: the estimate is 37.1, so 19 probes
        # per block enter (6 * 38 = 228), and their doubling to 38 goes to
        # the dense solve
        calls = []
        self.counting_products(monkeypatch, calls)
        column = facing_ula_column("nusw", 256, 0.5, 1.0, WAVELENGTH)
        values = toeplitz_spectrum(column)
        assert [c for c in calls if c[0] == "product"] == [("product", "even", 19),
                                                           ("product", "odd", 19)]
        assert np.array_equal(values, parity_split_values(gathered(column)))

    @pytest.mark.parametrize("n", [7, 8, 255, 256, 275])
    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_block_products_match_the_folded_blocks(self, n, k):
        # the blocks of fold_parity on the gathered top rows, with the odd-n
        # middle row and column of the even block scaled by sqrt(2)
        rng = np.random.default_rng(n + k)
        for column in (facing_ula_column("nusw", n, APERTURE, 3.0, WAVELENGTH),
                       rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            blocks = parity_blocks(gathered(column))
            assert [b.shape[0] for b in blocks] == [n - n // 2, n // 2]
            for block, (sketch, adjoint), sign in zip(blocks, _parity_products(column),
                                                      (1, -1)):
                m = block.shape[0]
                y = random_matrix(n * k + m, (m, k))
                for fast, dense in ((sketch(k), block @ parity_probes(n, k, sign)),
                                    (adjoint(y), block.conj().T @ y)):
                    assert fast.shape == (m, k)
                    np.testing.assert_allclose(fast, dense, rtol=1e-12,
                                               atol=1e-12 * np.max(np.abs(dense)))

    def test_probe_transform_is_read_only_and_reused(self):
        column = facing_ula_column("nusw", 1024, APERTURE, 15.0, WAVELENGTH)
        _probe_transform.cache_clear()
        toeplitz_spectrum(column)
        assert _probe_transform.cache_info()[:2] == (0, 2)  # hits, misses
        table = _probe_transform(1024, 16, 1)
        assert not table.flags.writeable
        w = probes(1024, 16).T
        assert np.array_equal(table, np.fft.fft(w + w[:, ::-1], 2048))
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
        toeplitz_spectrum(column)
        assert _probe_transform.cache_info()[:2] == (3, 2)
        assert _probe_transform(1024, 16, 1) is table
        # only the latest transform of each parity is kept
        for sketch, _ in _parity_products(np.ones(2048, dtype=complex)):
            sketch(16)
        assert _probe_transform.cache_info().currsize == 2
        assert _probe_transform(1024, 16, 1) is not table

    @pytest.mark.parametrize("n, k, kept", [(256, 16, False), (512, 31, False),
                                            (512, 32, True), (8192, 16, True),
                                            (8192, 17, False), (16384, 16, False)])
    def test_one_pair_of_transforms_of_1_to_8_mib_is_kept(self, n, k, kept):
        # kept where 2 n k, counted over both blocks, is 2^15 to 2^18
        products = _parity_products(np.ones(n, dtype=complex))
        _probe_transform.cache_clear()
        for sketch, _ in products:
            sketch(k)
        assert _probe_transform.cache_info().currsize == 2 * kept
        for sketch, _ in products:
            sketch(k)
        assert _probe_transform.cache_info().hits == 2 * kept
        if kept:
            size = sum(_probe_transform(n, k, sign).nbytes for sign in (1, -1))
            assert 1 << 20 <= size <= 1 << 23
        _probe_transform.cache_clear()

    def test_cold_and_warm_tables_give_the_same_bytes(self):
        column = facing_ula_column("nusw", 1024, APERTURE, 50.0, WAVELENGTH)
        _probe_transform.cache_clear()
        cold = toeplitz_spectrum(column).tobytes()
        assert _probe_transform.cache_info().currsize == 2
        assert toeplitz_spectrum(column).tobytes() == cold

    def test_values_left_out_read_zero(self):
        column = facing_ula_column("nusw", 1024, APERTURE, 150.0, WAVELENGTH)
        values = toeplitz_spectrum(column)
        assert values.shape == (1024,)
        assert np.count_nonzero(values) < 1024 and values[-1] == 0.0
        assert np.array_equal(values, np.sort(values)[::-1])
        assert np.array_equal(values, toeplitz_spectrum(column))

    def test_facing_ulas(self):
        # 1024 elements at 15 m: the column's estimate is 19.6
        h = nusw_channel(1024, 15.0)
        full = parity_split_values(h)
        fast = toeplitz_spectrum(facing_ula_column("nusw", 1024, APERTURE, 15.0, WAVELENGTH))
        assert dof(fast) == dof(full) == 25
        assert np.count_nonzero(fast) < 1024 // 4
        assert np.max(np.abs(fast[:25] - full[:25])) <= 1e-13 * full[0]


class TestToeplitzSpectrum:
    """``toeplitz_spectrum`` of the column ``facing_ula_column`` builds, by
    FFT products or by the gathered matrix, against the SVD of the channel
    built from the element coordinates."""

    CHANNELS = {"nusw": los_nusw_channel, "usw": los_usw_channel}

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 600), d=st.sampled_from([3.0, 15.0, 50.0, 150.0, 1e4]),
           model=st.sampled_from(["nusw", "usw"]))
    @example(n=2, d=15.0, model="nusw")
    @example(n=275, d=15.0, model="nusw")
    @example(n=387, d=1e4, model="nusw")
    @example(n=600, d=3.0, model="usw")
    @example(n=1024, d=15.0, model="nusw")
    @example(n=1024, d=1e4, model="usw")
    @example(n=1024, d=50.0, model="nusw")
    @example(n=1024, d=150.0, model="nusw")
    @example(n=2048, d=5.0, model="nusw")
    @example(n=2048, d=3.0, model="nusw")
    @example(n=2048, d=150.0, model="usw")
    def test_same_metrics_as_the_coordinate_build(self, n, d, model):
        tx, rx = ula_pair(n, d)
        h = self.CHANNELS[model](tx, rx, WAVELENGTH)
        column = facing_ula_column(model, n, APERTURE, d, WAVELENGTH)
        assert not column.flags.writeable
        # the column differs from the entries of the rounded coordinates by
        # round-off in the distance, a phase error of a few 1e-12
        assert np.max(np.abs(column - h[:, 0])) <= 1e-11 * np.max(np.abs(column))
        fast = toeplitz_spectrum(column)
        # the brute-force SVD up to 600 elements; the parity split beyond
        exact = svd_values(h) if n <= 600 else parity_split_values(h)
        assert fast.shape == exact.shape == (n,)
        assert dof(fast) == dof(exact)
        for dominance in (0.01, 0.5):
            assert edof1(fast, dominance=dominance) == edof1(exact, dominance=dominance)
        # the values above the clip agree; where the finder runs it
        # writes 0.0 for values below its stop, 1e-13 * n * sigma_1.  Both
        # builds round each phase to about eps * 2 pi d / lambda, which puts
        # a noise floor under the spectrum that can lie above the stop, far
        # below the clip: 6e-11 sigma_1 at 1e4 m and n = 387, where the stop
        # is 3.9e-11 sigma_1
        gap = np.abs(fast - exact)
        assert np.max(gap[:dof(exact)]) <= 1e-13 * exact[0]
        floor = np.finfo(float).eps * 2 * np.pi * np.hypot(d, APERTURE) / WAVELENGTH
        assert np.max(gap) <= 1e-13 * n * exact[0] + floor * np.linalg.norm(h)

    @pytest.mark.parametrize("model", sorted(CHANNELS))
    @pytest.mark.parametrize("n, d", [(64, 15.0), (256, 15.0), (256, 50.0), (256, 150.0)])
    def test_gathered_matrix_is_the_coordinate_build_at_the_shipped_points(self, n, d,
                                                                          model):
        # edof3-vs-snr and link-sim gather their channel from the column, so
        # at every point a shipped config runs it is the coordinate build
        # bit for bit, and their outputs keep their bytes
        tx = build_ula(n, APERTURE, center=(0.0, 0.0, 0.0))
        rx = build_ula(n, APERTURE, center=(0.0, d, 0.0))
        gathered = toeplitz_matrix(facing_ula_column(model, n, APERTURE, d, WAVELENGTH))
        assert not gathered.flags.writeable
        assert np.array_equal(gathered, self.CHANNELS[model](tx, rx, WAVELENGTH))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 191), seed=st.integers(0, 2**32 - 1))
    @example(n=2, seed=0)
    @example(n=3, seed=0)
    @example(n=191, seed=0)
    def test_dense_solve_is_the_parity_split_of_the_gathered_matrix(self, n, seed):
        # k >= 32 probes, so 6 k > n below 192 elements and every column
        # takes the dense solve: the top rows folded with no entry compared
        column = random_matrix(seed, (n,))
        values = toeplitz_spectrum(column)
        assert np.array_equal(values, parity_split_values(toeplitz_matrix(column)))

    def test_toeplitz_matrix_reads_the_column_at_the_index_gap(self):
        column = np.arange(5) + 1j * np.arange(5, 0, -1)
        gathered = toeplitz_matrix(column)
        i, j = np.indices((5, 5))
        assert np.array_equal(gathered, column[np.abs(i - j)])

    def test_spd_edof2_tends_to_the_cap_edof2(self):
        # SPD -> CAP as the array at a fixed aperture gets denser: FFT
        # products of one column against Gauss-Legendre Nystrom, two paths
        # that share no node, weight or solver
        cap = edof2(cap_converged(15.0))
        gaps = [edof2(toeplitz_spectrum(facing_ula_column("nusw", n, APERTURE, 15.0,
                                                          WAVELENGTH))) - cap
                for n in (1024, 2048, 4096)]
        assert all(g > 0 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3 * cap

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 4096), d=st.floats(1.0, 1e4), aperture=st.floats(0.1, 5.0),
           model=st.sampled_from(["nusw", "usw"]))
    @example(n=4096, d=1e4, aperture=0.1, model="nusw")
    @example(n=4096, d=1.0, aperture=5.0, model="usw")
    @example(n=2, d=1.0, aperture=5.0, model="nusw")
    def test_half_phase_excursion_is_the_path_spread(self, n, d, aperture, model):
        # the column's half phase excursion against pi * (path spread) /
        # wavelength of the two segments, computed from their endpoints
        estimate = _half_phase_excursion(facing_ula_column(model, n, aperture, d, WAVELENGTH))
        oracle = spread_estimate(d, aperture)
        bound = 1e-11 * oracle + 1e-9
        # the path changes per element by at most pitch * aperture / hypot(aperture, d)
        if aperture / (n - 1) * aperture / math.hypot(aperture, d) < WAVELENGTH / 2:
            assert abs(estimate - oracle) <= bound
        else:
            # a wrapped phase step is never larger than the true one
            assert estimate <= oracle + bound

    def test_bad_columns_are_rejected(self):
        with pytest.raises(SingularGeometryError):
            facing_ula_column("nusw", 8, APERTURE, 0.0, WAVELENGTH)
        with pytest.raises(ValueError, match="unknown channel model"):
            facing_ula_column("planar", 8, APERTURE, 15.0, WAVELENGTH)
        for n, aperture in ((1, APERTURE), (8, 0.0)):
            with pytest.raises(ValueError, match="n >= 2"):
                facing_ula_column("nusw", n, aperture, 15.0, WAVELENGTH)
        column = np.array(facing_ula_column("nusw", 8, APERTURE, 15.0, WAVELENGTH))
        column[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            toeplitz_spectrum(column)
        with pytest.raises(ValueError, match="all-zero"):
            toeplitz_spectrum(np.zeros(8))
        with pytest.raises(ValueError, match="column"):
            toeplitz_spectrum(np.ones((2, 2)))


class TestSpectrum:
    """A spectrum is a plain array: the metrics check the values they are
    given, and the solvers return theirs read-only."""

    def test_metrics_reject_ascending_values(self):
        with pytest.raises(ValueError, match="descending"):
            dof(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("values, message", [([1.0, -0.1], "non-negative"),
                                                 ([1.0, np.nan], "finite"),
                                                 ([np.inf, 1.0], "finite")])
    def test_metrics_reject_negative_and_non_finite_values(self, values, message):
        with pytest.raises(ValueError, match=message):
            dof(np.array(values))

    @pytest.mark.parametrize("n", [64, 1024], ids=["dense", "finder"])
    def test_solver_results_read_only(self, n):
        s = toeplitz_spectrum(facing_ula_column("nusw", n, APERTURE, 50.0, WAVELENGTH))
        assert s.flags.c_contiguous and not s.flags.writeable
        with pytest.raises(ValueError):
            s[0] = 5.0
