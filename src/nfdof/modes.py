"""SVD decomposition of a channel into orthogonal communication modes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def decompose(h, vectors: bool = True) -> ModeDecomposition | SingularSpectrum:
    """SVD of a channel matrix (or raw complex matrix), truncated to
    min(N_r, N_t) modes.

    With ``vectors=False`` only the singular values are computed, returned
    as a :class:`SingularSpectrum` that keeps the matrix shape (N_r, N_t).
    """
    m = _as_matrix(h)
    if m.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("channel matrix must be finite")
    if not np.any(m):
        raise ValueError("cannot decompose an all-zero channel matrix")
    if not vectors:
        return SingularSpectrum(values=np.linalg.svd(m, compute_uv=False), shape=m.shape)
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
