"""Transmit/receive aperture geometries and the Rayleigh distance.

Conventions: 3D Cartesian coordinates in meters; the canonical experiment frame
puts the transmitter center at the origin, the receiver center at (0, d, 0) and
both arrays parallel to the z-axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12
"Largest accepted deviation of an array axis from unit norm."


def _positive_finite(value: float, name: str) -> float:
    """``value``, or ValueError naming ``name`` when it is not positive and
    finite (NaN included)."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ArrayGeometry:
    """A transmit or receive aperture.

    ``kind`` is "discrete" (``elements`` holds an (n, 3) point list) or
    "continuous" (``segment`` holds the two (3,) endpoints).  Instances are
    immutable; the coordinate arrays are marked read-only.
    """

    kind: str
    elements: np.ndarray | None = None
    segment: np.ndarray | None = None

    @property
    def center(self) -> np.ndarray:
        if self.kind == "discrete":
            return self.elements.mean(axis=0)
        return self.segment.mean(axis=0)


def continuous_aperture(start, end) -> ArrayGeometry:
    """A continuous linear aperture between two distinct 3D endpoints."""
    seg = np.asarray([start, end], dtype=float)
    if seg.shape != (2, 3):
        raise ValueError(f"endpoints must be two 3D points, got shape {seg.shape}")
    if not np.all(np.isfinite(seg)):
        raise ValueError("continuous aperture endpoints must be finite")
    if np.linalg.norm(seg[1] - seg[0]) == 0.0:
        raise ValueError("continuous aperture endpoints must be distinct")
    return ArrayGeometry(kind="continuous", segment=_readonly(seg))


def build_ula(n_elements: int, aperture: float, center=(0.0, 0.0, 0.0),
              axis=(0.0, 0.0, 1.0)) -> ArrayGeometry:
    """Uniform linear array of ``n_elements`` spanning ``aperture`` meters.

    Elements sit at ``center + (k - (n-1)/2) * (aperture/(n-1)) * axis`` for
    k = 0..n-1, so elements k and n-1-k are exact mirror images about the
    center and the spacing is ``aperture / (n - 1)``.

    Parameters
    ----------
    n_elements : int
        Number of antennas, >= 2.
    aperture : float
        End-to-end array extent in meters, > 0.
    center : array-like of 3 floats
        Array center in meters.
    axis : array-like of 3 floats
        Array orientation; must have unit norm within 1e-12.
    """
    if n_elements < 2:
        raise ValueError(f"n_elements must be >= 2, got {n_elements}")
    if not aperture > 0:
        raise ValueError(f"aperture must be positive, got {aperture}")
    axis = np.asarray(axis, dtype=float)
    center = np.asarray(center, dtype=float)
    if axis.shape != (3,) or center.shape != (3,):
        raise ValueError("center and axis must be 3-vectors")
    if abs(np.linalg.norm(axis) - 1.0) > UNIT_TOL:
        raise ValueError(f"axis must have unit norm within {UNIT_TOL}, got |axis| = "
                         f"{np.linalg.norm(axis)}")
    offsets = (np.arange(n_elements) - 0.5 * (n_elements - 1)) * (aperture / (n_elements - 1))
    pts = center[None, :] + offsets[:, None] * axis[None, :]
    if not np.all(np.isfinite(pts)):
        raise ValueError("element coordinates must be finite")
    # Rounding is monotone along the axis, so elements that collapse onto one
    # point are neighbours.
    steps = pts[1:] - pts[:-1]
    if np.any(np.sqrt(np.sum(steps * steps, axis=-1)) == 0.0):
        raise ValueError("discrete array elements must be pairwise distinct")
    return ArrayGeometry(kind="discrete", elements=_readonly(pts))


def rayleigh_distance(aperture: float, wavelength: float) -> float:
    """Boundary distance 2 * aperture**2 / wavelength between the radiating
    near field and the far field."""
    if not 0.0 <= aperture < np.inf:
        raise ValueError(f"aperture must be non-negative and finite, got {aperture}")
    return 2.0 * aperture * aperture / _positive_finite(wavelength, "wavelength")
