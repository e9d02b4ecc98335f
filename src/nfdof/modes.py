"""SVD decomposition of a channel into orthogonal communication modes.

A square matrix M is centrosymmetric when J M J = M, J being the exchange
matrix that reverses the index order.  The channel of two mirror-placed
arrays, and the weighted response of two mirror-placed apertures, facing
each other are centrosymmetric, and then the orthogonal change of basis to
even and odd vectors splits M into two half-size blocks (Cantoni & Butler,
Linear Algebra Appl. 13, 1976) whose singular values together are those of M.
"""

from __future__ import annotations

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

    def __len__(self) -> int:
        return self.values.size


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


def _as_matrix(h) -> np.ndarray:
    entries = getattr(h, "entries", h)
    return np.asarray(entries, dtype=complex)


def parity_blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The even and odd blocks of a square matrix with J m J == m exactly,
    or None when ``m`` is not square of size >= 2 or not exactly
    centrosymmetric.

    With p = n // 2, A = m[:p, :p] and B = m[:p, n-p:], the blocks are
    A + BJ (even) and A - BJ (odd).  For odd n the middle row and column
    join the even block, scaled by sqrt(2), with the middle entry unscaled.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2 \
            or not np.array_equal(m, m[::-1, ::-1]):
        return None
    n = m.shape[0]
    p = n // 2
    a = m[:p, :p]
    bj = m[:p, ::-1][:, :p]
    if n % 2 == 0:
        return a + bj, a - bj
    even = np.empty((p + 1, p + 1), dtype=m.dtype)
    even[:p, :p] = a + bj
    even[:p, p] = _SQRT2 * m[:p, p]
    even[p, :p] = _SQRT2 * m[p, :p]
    even[p, p] = m[p, p]
    return even, a - bj


def split_values(m: np.ndarray) -> np.ndarray:
    """Singular values of ``m`` in descending order, from its two parity
    blocks when it is exactly centrosymmetric."""
    blocks = parity_blocks(m) or (m,)
    values = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks])
    return np.sort(values)[::-1]


def decompose(h, vectors: bool = True) -> ModeDecomposition | SingularSpectrum:
    """SVD of a channel matrix (or raw complex matrix), truncated to
    min(N_r, N_t) modes.

    With ``vectors=False`` only the singular values are computed, returned
    as a :class:`SingularSpectrum` that keeps the matrix shape (N_r, N_t);
    a centrosymmetric matrix is then solved as its two parity blocks.
    """
    m = _as_matrix(h)
    if m.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("channel matrix must be finite")
    if not np.any(m):
        raise ValueError("cannot decompose an all-zero channel matrix")
    if not vectors:
        return SingularSpectrum(values=split_values(m), shape=m.shape)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return ModeDecomposition(left_vectors=u, right_vectors=vh.conj().T,
                             singular_values=s)


def spectrum_values(spectrum) -> np.ndarray:
    """Coerce a SingularSpectrum, ModeDecomposition, or array-like to a
    descending value array."""
    if isinstance(spectrum, ModeDecomposition):
        return np.asarray(spectrum.singular_values, dtype=float)
    if isinstance(spectrum, SingularSpectrum):
        return spectrum.values
    v = np.asarray(spectrum, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("spectrum must be a nonempty 1D array")
    return v
