"""SVD decomposition of a channel into orthogonal communication modes.

A spectrum is a plain descending array of singular values: the
``singular_values`` of :func:`decompose`, or what :func:`toeplitz_spectrum` returns.

A square matrix M is centrosymmetric when J M J = M, J being the exchange
matrix that reverses the index order.  The symmetric Toeplitz channel of two
facing ULAs, and the weighted response of two mirror-placed facing apertures,
are centrosymmetric by construction, and then the orthogonal change of basis to
even and odd vectors splits M into two half-size blocks (Cantoni & Butler,
Linear Algebra Appl. 13, 1976) whose singular values together are those of M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import _readonly

_SQRT2 = np.sqrt(2.0)

RANK_TOL = 1e-10
"""Singular values below RANK_TOL times the number of singular values times
sigma_1 are round-off: every metric clips them to zero."""


@dataclass(frozen=True)
class ModeDecomposition:
    """SVD factors H = Psi diag(sigma) Phi^H truncated to min(N_r, N_t) modes.

    ``left_vectors`` (N_r x K) and ``right_vectors`` (N_t x K) have orthonormal
    columns; ``singular_values``, descending, is the spectrum.
    """

    left_vectors: np.ndarray
    right_vectors: np.ndarray
    singular_values: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.singular_values.size


def fold_parity(top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks of an exactly centrosymmetric n x n matrix,
    folded in place from its writable top ``(n + 1) // 2`` rows: with
    p = n // 2, A = top[:p, :p] and B = top[:p, n-p:], they are A + BJ, a
    view of ``top``, and A - BJ, the one new array.  For odd n the middle
    row and column join the even block, scaled by sqrt(2), with the middle
    entry unscaled."""
    rows, n = top.shape
    p = n // 2
    even = top[:, :rows]
    bj = top[:p, ::-1][:, :p]
    a = even[:p, :p]
    odd = a - bj
    a += bj
    if rows > p:
        even[:p, p] *= _SQRT2
        even[p, :p] *= _SQRT2
    return even, odd


def _block_values(blocks) -> np.ndarray:
    """The singular values of all ``blocks``, by SVD, in descending order,
    as a contiguous read-only array."""
    return _readonly(np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False)
                                             for b in blocks]))[::-1])


def _require_solvable(m: np.ndarray):
    if not np.isfinite(m).all():
        raise ValueError("channel matrix must be finite")
    if not np.any(m):
        raise ValueError("cannot decompose an all-zero channel matrix")


def decompose(h) -> ModeDecomposition:
    """SVD of a complex channel matrix, truncated to min(N_r, N_t) modes."""
    m = np.asarray(h, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got shape {m.shape}")
    _require_solvable(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return ModeDecomposition(left_vectors=u, right_vectors=vh.conj().T,
                             singular_values=s)


_FINDER_STOP = RANK_TOL / 1000
"""The finder stops once sigma_k < _FINDER_STOP * n * sigma_1, 1e-3 of the
rank tolerance."""


def _leading_values(blocks, n: int, k: int) -> np.ndarray | None:
    """The leading singular values, descending, of an n x n operator, the
    direct sum of ``blocks``, down to the first of each below
    :data:`_FINDER_STOP` * n * sigma_1: per block, Q from the QR of
    ``sketch(k)``, the block times k Gaussian probes, then the SVD of
    ``adjoint(Q)`` (Halko, Martinsson & Tropp, SIAM Rev. 53(2), 2011, Alg.
    4.1, with no power iteration: the spectra it serves fall by orders of
    magnitude per index past their knee, so one product captures the range,
    ibid., sections 4.5 and 10.2).  k doubles until every block's smallest
    value passes the stop; None once 6 k len(blocks) > n, on entry or after
    a doubling, where the dense solve is faster."""
    while 6 * len(blocks) * k <= n:
        found = [np.linalg.svd(adjoint(np.linalg.qr(sketch(k))[0]), compute_uv=False)
                 for sketch, adjoint in blocks]
        top = max(s[0] for s in found)
        if all(s[-1] < _FINDER_STOP * n * top for s in found):
            return np.sort(np.concatenate(found))[::-1]
        k *= 2
    return None


@lru_cache(maxsize=2)
def _probe_transform(n: int, k: int, sign: int) -> np.ndarray:
    """The read-only FFT to length 2n of k probes w + sign J w of parity
    ``sign`` (1 even, -1 odd), w being complex Gaussian and J the exchange,
    the same on every call, as the rows of a (k, 2n) block: 32 n k bytes.
    The sketch keeps the latest of each parity where 2^15 <= 2 n k <= 2^18,
    1 to 8 MiB for both: kept smaller ones raised the shipped configs' peak
    memory by more than their size, and larger ones would hold too much."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    f = np.fft.fft(w + sign * w[:, ::-1], 2 * n)
    f.setflags(write=False)
    return f


def _parity_products(column: np.ndarray) -> list:
    """``(sketch, adjoint)`` of the even, then the odd :func:`fold_parity`
    block of H_ij = column[|i - j|], of size n, on (m, k) views for a block of
    size m: H times x's n-vector of the block's parity, the top m entries of
    ifft(fft(c) * fft(., 2n)) for the circulant c = [column, 0, column[:0:-1]]
    of size 2n, on the rows of (k, 2n) blocks, its odd-n middle one divided by
    sqrt(2).  A block is symmetric as H is: its adjoint is conj(block conj(.))."""
    n, p = column.size, column.size // 2
    eig = np.fft.fft(np.concatenate([column, [0.0], column[:0:-1]]))

    def products(sign, m):
        def block(spectra):
            rows = np.fft.ifft(spectra * eig)[:, :m]
            rows[:, p:] /= _SQRT2
            return rows

        def sketch(k):
            kept = 1 << 15 <= 2 * n * k <= 1 << 18
            probes = (_probe_transform if kept else _probe_transform.__wrapped__)(n, k, sign)
            return block(probes).T

        def adjoint(y):
            u = np.zeros((y.shape[1], n), dtype=complex)
            u[:, :m] = np.conj(y.T)
            u[:, p:m] /= _SQRT2
            return block(np.fft.fft(u + sign * u[:, ::-1], 2 * n)).conj().T

        return sketch, adjoint

    return [products(1, n - p), products(-1, p)]


def _half_phase_excursion(column: np.ndarray) -> float:
    """Half the total phase change along ``column``: pi * (path spread) /
    lambda where the path changes by less than lambda / 2 per element, and
    less where a phase step wraps."""
    return 0.5 * float(np.abs(np.angle(column[1:] * column[:-1].conj())).sum())


def toeplitz_spectrum(column) -> np.ndarray:
    """The n singular values of :func:`toeplitz_matrix` of ``column``,
    descending, contiguous and read-only.

    From k = max(16, ceil(:func:`_half_phase_excursion` / 2)) probes per
    parity block, :func:`_leading_values` runs on :func:`_parity_products`
    in O(n k) memory while 6 (2 k) <= n, near which the dense solve stops
    being faster; its doubling covers a low estimate, and the values it
    leaves out are round-off by the rank tolerance of every metric and read
    0.0.  Where it returns None, the top ``(n + 1) // 2`` rows gathered from
    the column are folded into the parity blocks (:func:`fold_parity`) and
    solved by SVD.
    """
    column = np.asarray(column, dtype=complex)
    if column.ndim != 1 or column.size < 2:
        raise ValueError(f"expected a column of at least 2 entries, got shape {column.shape}")
    _require_solvable(column)
    n = column.size
    k = max(16, math.ceil(_half_phase_excursion(column) / 2))
    leading = _leading_values(_parity_products(column), n, k)
    if leading is not None:
        values = np.zeros(n)
        values[:leading.size] = leading
        values.setflags(write=False)
        return values
    return _block_values(fold_parity(np.array(toeplitz_matrix(column)[:(n + 1) // 2])))


def toeplitz_matrix(column) -> np.ndarray:
    """Read-only H_ij = column[|i - j|]: the reversed n-windows of [column[:0:-1], column]."""
    full = np.concatenate([column[:0:-1], column])
    return np.lib.stride_tricks.sliding_window_view(full, len(column))[::-1]
