"""SVD decomposition of a channel into orthogonal communication modes.

A square matrix M is centrosymmetric when J M J = M, J being the exchange
matrix that reverses the index order.  The channel of two mirror-placed
arrays, and the weighted response of two mirror-placed apertures, facing
each other are centrosymmetric, and then the orthogonal change of basis to
even and odd vectors splits M into two half-size blocks (Cantoni & Butler,
Linear Algebra Appl. 13, 1976) whose singular values together are those of M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SingularSpectrum:
    """Non-increasing, non-negative singular values.

    ``shape`` optionally records the (N_r, N_t) of the originating matrix so
    rank tolerances can scale with the larger dimension.
    """

    values: np.ndarray
    shape: tuple[int, int] | None = None

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("spectrum must be a nonempty 1D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("singular values must be finite")
        if np.any(v < 0):
            raise ValueError("singular values must be non-negative")
        if np.any(np.diff(v) > 0):
            raise ValueError("singular values must be sorted in descending order")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ModeDecomposition:
    """SVD factors H = Psi diag(sigma) Phi^H truncated to min(N_r, N_t) modes.

    ``left_vectors`` (N_r x K) and ``right_vectors`` (N_t x K) have orthonormal
    columns; ``singular_values`` is descending.
    """

    left_vectors: np.ndarray
    right_vectors: np.ndarray
    singular_values: np.ndarray

    @property
    def spectrum(self) -> SingularSpectrum:
        shape = (self.left_vectors.shape[0], self.right_vectors.shape[0])
        return SingularSpectrum(values=self.singular_values, shape=shape)

    @property
    def n_modes(self) -> int:
        return self.singular_values.size


def _fold(even: np.ndarray, bj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parity blocks of an exactly centrosymmetric n x n matrix m, with
    p = n // 2, formed in place.

    ``even`` is a writable view holding m[:n-p, :n-p], which becomes the
    even block A + BJ, its middle row and column scaled by sqrt(2) for odd
    n; ``bj`` is m[:p, ::-1][:, :p].  The odd block A - BJ, formed first,
    is the one new array."""
    p = bj.shape[0]
    a = even[:p, :p]
    odd = a - bj
    a += bj
    if even.shape[0] > p:
        even[:p, p] *= _SQRT2
        even[p, :p] *= _SQRT2
    return even, odd


def parity_blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The even and odd blocks of a square matrix with J m J == m exactly,
    or None when ``m`` is not square of size >= 2 or not exactly
    centrosymmetric.

    With p = n // 2, A = m[:p, :p] and B = m[:p, n-p:], the blocks are
    A + BJ (even) and A - BJ (odd).  For odd n the middle row and column
    join the even block, scaled by sqrt(2), with the middle entry unscaled.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        return None
    n = m.shape[0]
    p = n // 2
    # J m J == m: the bottom p rows mirror the top p; an odd middle row mirrors itself
    if not (np.array_equal(m[n - p:], m[:p][::-1, ::-1])
            and (n % 2 == 0 or np.array_equal(m[p], m[p, ::-1]))):
        return None
    return _fold(m[:n - p, :n - p].copy(), m[:p, ::-1][:, :p])


_FINDER_STOP = 1e-13
"""The finder stops once sigma_k < _FINDER_STOP * max(shape) * sigma_1,
1e-3 of the rank tolerance every metric clips at."""


def _leading_values(b: np.ndarray, k: int, dim: int) -> np.ndarray:
    """The leading singular values of ``b`` down to the first one below
    :data:`_FINDER_STOP` * dim * sigma_1, by a randomized range finder
    (Halko, Martinsson & Tropp, SIAM Rev. 53(2), 2011): k Gaussian probes,
    two power iterations with a QR after each product, then the SVD of
    Q^H b.  k doubles until the smallest value passes the stop; once 2k
    reaches the block size every value is computed by SVD instead."""
    rng = np.random.default_rng(0)  # the same probes on every call
    while 2 * k < min(b.shape):
        omega = rng.standard_normal((b.shape[1], k)) + 1j * rng.standard_normal((b.shape[1], k))
        q = np.linalg.qr(b @ omega)[0]
        for _ in range(2):
            # b^H q formed as (q^H b)^H, so b is never copied as a conjugate
            q = np.linalg.qr((q.conj().T @ b).conj().T)[0]
            q = np.linalg.qr(b @ q)[0]
        s = np.linalg.svd(q.conj().T @ b, compute_uv=False)
        if s[-1] < _FINDER_STOP * dim * s[0]:
            return s
        k *= 2
    return np.linalg.svd(b, compute_uv=False)


def _block_values(blocks, shape: tuple[int, int],
                  rank_estimate: float | None) -> np.ndarray:
    """The singular values of the blocks of a matrix of ``shape``, in
    descending order and padded with 0.0 to min(shape).

    With a ``rank_estimate``, a block takes :func:`_leading_values` from
    k = max(32, rank_estimate) probes when 2k is below its size; the values
    it leaves out lie below 1e-13 * max(shape) * sigma_1, round-off by the
    rank tolerance of every metric.  Every other block, and every block
    without an estimate, is solved by SVD."""
    k = None if rank_estimate is None else max(32, math.ceil(rank_estimate))
    found = [_leading_values(b, k, max(shape)) if k is not None and 2 * k < min(b.shape)
             else np.linalg.svd(b, compute_uv=False) for b in blocks]
    leading = np.sort(np.concatenate(found))[::-1]
    values = np.zeros(min(shape))
    values[:leading.size] = leading
    return values


def split_values(m: np.ndarray, rank_estimate: float | None = None) -> np.ndarray:
    """Singular values of ``m`` in descending order, from its two parity
    blocks when it is exactly centrosymmetric; a ``rank_estimate`` selects
    each block's solver as in :func:`_block_values`.  The blocks of a
    centrosymmetric matrix have about min(shape) / 2 rows, so they take the
    finder only for estimates below min(shape) / 4 and from 130 rows."""
    return _block_values(parity_blocks(m) or (m,), m.shape, rank_estimate)


def _require_solvable(m: np.ndarray):
    if not np.isfinite(m).all():
        raise ValueError("channel matrix must be finite")
    if not np.any(m):
        raise ValueError("cannot decompose an all-zero channel matrix")


def rows_spectrum(rows: np.ndarray, n: int,
                  rank_estimate: float | None = None) -> SingularSpectrum:
    """The values-only spectrum of an n x n matrix from the rows that were
    computed of it: all n, or the top (n + 1) // 2 of an exactly
    centrosymmetric matrix whose other rows mirror them, as
    :func:`~nfdof.channel.los_computed_rows` returns them.

    Top rows are folded in place into the parity blocks, so ``rows`` is
    overwritten and the full matrix is never formed.  The values equal
    those of ``decompose(m, vectors=False, rank_estimate)`` bitwise.
    """
    if rows.ndim != 2 or rows.shape[1] != n or rows.shape[0] not in ((n + 1) // 2, n):
        raise ValueError(f"rows of shape {rows.shape} are not the computed rows "
                         f"of an {n} x {n} matrix")
    _require_solvable(rows)
    if rows.shape[0] == n:
        values = split_values(rows, rank_estimate)
    else:
        p = n // 2
        values = _block_values(_fold(rows[:, :n - p], rows[:p, ::-1][:, :p]), (n, n),
                               rank_estimate)
    return SingularSpectrum(values=values, shape=(n, n))


def decompose(h, vectors: bool = True,
              rank_estimate: float | None = None) -> ModeDecomposition | SingularSpectrum:
    """SVD of a complex channel matrix, truncated to min(N_r, N_t) modes.

    With ``vectors=False`` only the singular values are computed, returned
    as a :class:`SingularSpectrum` that keeps the matrix shape (N_r, N_t);
    a centrosymmetric matrix is then solved as its two parity blocks, and a
    ``rank_estimate`` selects the solver as in :func:`split_values`.
    """
    m = np.asarray(h, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got shape {m.shape}")
    _require_solvable(m)
    if not vectors:
        return SingularSpectrum(values=split_values(m, rank_estimate), shape=m.shape)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return ModeDecomposition(left_vectors=u, right_vectors=vh.conj().T,
                             singular_values=s)


def spectrum_values(spectrum) -> np.ndarray:
    """Coerce a SingularSpectrum or array-like to a descending value array."""
    if isinstance(spectrum, SingularSpectrum):
        return spectrum.values
    v = np.asarray(spectrum, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("spectrum must be a nonempty 1D array")
    return v
