"""Transmit/receive aperture geometries and the Rayleigh distance.

Conventions: 3D Cartesian coordinates in meters; the canonical experiment frame
puts the transmitter center at the origin, the receiver center at (0, d, 0) and
both arrays parallel to the z-axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
"Speed of light in m/s."

UNIT_TOL = 1e-12
"Largest accepted deviation of an array axis from unit norm."


@dataclass(frozen=True)
class CarrierConfig:
    """Carrier frequency (Hz) and wavelength (m), kept mutually consistent."""

    frequency: float
    wavelength: float

    def __post_init__(self):
        if not self.frequency > 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        expected = SPEED_OF_LIGHT / self.frequency
        if abs(self.wavelength - expected) > 1e-12 * expected:
            raise ValueError(
                f"wavelength {self.wavelength} inconsistent with frequency "
                f"{self.frequency} (expected {expected})"
            )

    @classmethod
    def from_frequency(cls, frequency: float) -> "CarrierConfig":
        if not frequency > 0:
            raise ValueError(f"frequency must be positive, got {frequency}")
        return cls(frequency=frequency, wavelength=SPEED_OF_LIGHT / frequency)

    @classmethod
    def from_wavelength(cls, wavelength: float) -> "CarrierConfig":
        if not wavelength > 0:
            raise ValueError(f"wavelength must be positive, got {wavelength}")
        return cls(frequency=SPEED_OF_LIGHT / wavelength, wavelength=wavelength)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ArrayGeometry:
    """A transmit or receive aperture.

    ``kind`` is "discrete" (``elements`` holds an (n, 3) point list) or
    "continuous" (``segment`` holds the two (3,) endpoints).  ``aperture`` is
    the largest pairwise element distance for discrete arrays and the segment
    length for continuous ones.  Instances are immutable; the coordinate
    arrays are marked read-only.
    """

    kind: str
    aperture: float
    elements: np.ndarray | None = None
    segment: np.ndarray | None = None

    @property
    def center(self) -> np.ndarray:
        if self.kind == "discrete":
            return self.elements.mean(axis=0)
        return self.segment.mean(axis=0)

    @property
    def n_elements(self) -> int:
        if self.kind != "discrete":
            raise ValueError("continuous apertures have no element count")
        return self.elements.shape[0]


def discrete_array(elements) -> ArrayGeometry:
    """Wrap an (n, 3) element list, validating distinctness and computing the aperture."""
    pts = np.atleast_2d(np.asarray(elements, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise ValueError(f"elements must be an (n, 3) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("element coordinates must be finite")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    n = pts.shape[0]
    if n > 1:
        off = dist[~np.eye(n, dtype=bool)]
        if np.any(off == 0.0):
            raise ValueError("discrete array elements must be pairwise distinct")
    aperture = float(dist.max())
    return ArrayGeometry(kind="discrete", aperture=aperture, elements=_readonly(pts))


def continuous_aperture(start, end) -> ArrayGeometry:
    """A continuous linear aperture between two distinct 3D endpoints."""
    seg = np.asarray([start, end], dtype=float)
    if seg.shape != (2, 3):
        raise ValueError(f"endpoints must be two 3D points, got shape {seg.shape}")
    length = float(np.linalg.norm(seg[1] - seg[0]))
    if length == 0.0:
        raise ValueError("continuous aperture endpoints must be distinct")
    return ArrayGeometry(kind="continuous", aperture=length, segment=_readonly(seg))


def build_ula(n_elements: int, aperture: float, center=(0.0, 0.0, 0.0),
              axis=(0.0, 0.0, 1.0)) -> ArrayGeometry:
    """Uniform linear array of ``n_elements`` spanning ``aperture`` meters.

    Elements sit at ``center + (k - (n-1)/2) * (aperture/(n-1)) * axis`` for
    k = 0..n-1, so elements k and n-1-k are exact mirror images about the
    center and the spacing is ``aperture / (n - 1)``.  A single-element
    array degenerates to ``center`` and requires ``aperture == 0``.

    Parameters
    ----------
    n_elements : int
        Number of antennas, >= 1.
    aperture : float
        End-to-end array extent in meters, >= 0.
    center : array-like of 3 floats
        Array center in meters.
    axis : array-like of 3 floats
        Array orientation; must have unit norm within 1e-12.
    """
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    if aperture < 0:
        raise ValueError(f"aperture must be non-negative, got {aperture}")
    axis = np.asarray(axis, dtype=float)
    center = np.asarray(center, dtype=float)
    if axis.shape != (3,) or center.shape != (3,):
        raise ValueError("center and axis must be 3-vectors")
    if abs(np.linalg.norm(axis) - 1.0) > UNIT_TOL:
        raise ValueError(f"axis must have unit norm within {UNIT_TOL}, got |axis| = "
                         f"{np.linalg.norm(axis)}")
    if n_elements == 1:
        if aperture > 0:
            raise ValueError("a single-element array cannot have a positive aperture")
        return discrete_array(center[None, :])
    offsets = (np.arange(n_elements) - 0.5 * (n_elements - 1)) * (aperture / (n_elements - 1))
    pts = center[None, :] + offsets[:, None] * axis[None, :]
    if not np.all(np.isfinite(pts)):
        raise ValueError("element coordinates must be finite")
    # Rounding is monotone along the axis, so elements that collapse onto one
    # point are neighbours, and the end pair spans the array.
    steps = pts[1:] - pts[:-1]
    if np.any(np.sqrt(np.sum(steps * steps, axis=-1)) == 0.0):
        raise ValueError("discrete array elements must be pairwise distinct")
    end = pts[-1] - pts[0]
    return ArrayGeometry(kind="discrete", aperture=float(np.sqrt(np.sum(end * end))),
                         elements=_readonly(pts))


def rayleigh_distance(aperture: float, wavelength: float) -> float:
    """Boundary distance 2 * aperture**2 / wavelength between the radiating
    near field and the far field."""
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if aperture < 0:
        raise ValueError(f"aperture must be non-negative, got {aperture}")
    return 2.0 * aperture * aperture / wavelength
