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


def _leading_values(sketch, adjoint, n: int, k: int) -> np.ndarray | None:
    """The n singular values, descending and read-only, of an n x n operator,
    a direct sum of blocks, read as 0.0 past the first of each block below
    :data:`_FINDER_STOP` * n * sigma_1.  ``sketch(k)`` gives each block
    times its share of k Gaussian probe columns and ``adjoint(qs)`` each
    block's adjoint times the Q of its sketch's QR; an SVD follows (Halko,
    Martinsson & Tropp, SIAM Rev. 53(2), 2011, Alg. 4.1, with no power
    iteration: past their knee the spectra it serves fall by orders of
    magnitude per index, so one product captures the range, ibid., sections
    4.5 and 10.2).  k doubles until every block passes the stop; None once
    6 k > n, where the dense solve is faster."""
    while 6 * k <= n:
        found = [np.linalg.svd(b, compute_uv=False)
                 for b in adjoint([np.linalg.qr(s)[0] for s in sketch(k)])]
        top = max(s[0] for s in found)
        if all(s[-1] < _FINDER_STOP * n * top for s in found):
            values = np.sort(np.concatenate(found))[::-1]
            return _readonly(np.pad(values, (0, n - values.size)))
        k *= 2
    return None


@lru_cache(maxsize=1)
def _probe_transform(n: int, k: int) -> np.ndarray:
    """The read-only FFT to length 2n of k complex Gaussian n-vectors w,
    the same on every call, as the rows of a (k, 2n) block: 32 n k bytes.
    The sketch keeps the latest where 2^14 <= n k <= 2^17, 0.5 to 4 MiB:
    kept smaller ones raised the shipped configs' peak memory by more than
    their size, and larger ones would hold too much."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    f = np.fft.fft(w, 2 * n)
    f.setflags(write=False)
    return f


def _parity_products(column: np.ndarray) -> tuple:
    """``(sketch, adjoint)`` of the even and odd :func:`fold_parity` blocks,
    of sizes m = n - n // 2 and p = n // 2, of H_ij = column[|i - j|], one
    transform serving both.  y = H x is the top n of ifft(fft(c) * fft(x,
    2n)), c = [column, 0, column[:0:-1]]; H commutes with the exchange J, so
    the even part is the top m of y + Jy, the odd-n middle row divided by
    sqrt(2), and the odd part the top p of y - Jy.  ``sketch(k)`` applies H
    to k // 2 Gaussian probes w, ``adjoint((q_even, q_odd))`` to v = [x_e +
    x_o, sqrt(2) x_mid, J (x_e - x_o)], x = conj(q.T), halving the parts:
    a block is symmetric as H is, so its adjoint is conj(block conj(.))."""
    n, p = column.size, column.size // 2
    m = n - p
    eig = np.fft.fft(np.concatenate([column, [0.0], column[:0:-1]]))

    def parts(y):
        np.fft.ifft(y, out=y)
        even = y[:, :m] + y[:, p:n][:, ::-1]
        even[:, p:] /= _SQRT2
        return even.T, (y[:, :p] - y[:, m:n][:, ::-1]).T

    def sketch(k):
        kept = 1 << 14 <= n * (k // 2) <= 1 << 17
        return parts((_probe_transform if kept else _probe_transform.__wrapped__)(n, k // 2) * eig)

    def adjoint(qs):
        even, odd = qs
        v = np.zeros((odd.shape[1], 2 * n), dtype=complex)
        np.add(even[:p].T, odd.T, out=v[:, :p])
        np.multiply(even[p:].T, _SQRT2, out=v[:, p:m])
        np.subtract(even[:p].T, odd.T, out=v[:, m:n][:, ::-1])
        np.conjugate(v, out=v)
        return [0.5 * b.conj() for b in parts(np.multiply(np.fft.fft(v, out=v), eig, out=v))]

    return sketch, adjoint


def _half_phase_excursion(column: np.ndarray) -> float:
    """Half the total phase change along ``column``: pi * (path spread) /
    lambda where the path changes by less than lambda / 2 per element, and
    less where a phase step wraps."""
    return 0.5 * float(np.abs(np.angle(column[1:] * column[:-1].conj())).sum())


def toeplitz_spectrum(column) -> np.ndarray:
    """The n singular values of :func:`toeplitz_matrix` of ``column``,
    descending, contiguous and read-only: :func:`_leading_values` on
    :func:`_parity_products`, in O(n k) memory, from k = 2 max(16,
    ceil(:func:`_half_phase_excursion` / 2)) probe columns, half per parity
    block; the values it leaves out are round-off by the rank tolerance of
    every metric.  Where it returns None, the top ``(n + 1) // 2`` rows
    gathered from the column are folded into the parity blocks
    (:func:`fold_parity`) and solved by SVD.
    """
    column = np.asarray(column, dtype=complex)
    if column.ndim != 1 or column.size < 2:
        raise ValueError(f"expected a column of at least 2 entries, got shape {column.shape}")
    _require_solvable(column)
    n = column.size
    k = 2 * max(16, math.ceil(_half_phase_excursion(column) / 2))
    values = _leading_values(*_parity_products(column), n, k)
    if values is None:
        values = _block_values(fold_parity(np.array(toeplitz_matrix(column)[:(n + 1) // 2])))
    return values


def toeplitz_matrix(column) -> np.ndarray:
    """Read-only H_ij = column[|i - j|]: the reversed n-windows of [column[:0:-1], column]."""
    full = np.concatenate([column[:0:-1], column])
    return np.lib.stride_tricks.sliding_window_view(full, len(column))[::-1]
