"""LoS MIMO channel synthesis for discrete arrays.

Models
------
nusw          exact spherical wave: per-link amplitude and phase,
              h_nm = lambda/(4*pi*d_nm) * exp(-1j*2*pi*d_nm/lambda)
usw           spherical phase, uniform amplitude taken at the center distance
planar        far-field plane wave, rank-1 outer product by construction

Rows index receive elements, columns index transmit elements.  The phase sign
convention exp(-1j*2*pi*d/lambda) is fixed so written outputs are stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularGeometryError
from .geometry import ArrayGeometry, CarrierConfig

MODELS = ("nusw", "usw", "planar")


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex N_r x N_t gain matrix with model metadata; ``wavelength`` is
    in meters."""

    entries: np.ndarray
    wavelength: float
    model: str

    def __post_init__(self):
        h = np.array(self.entries, dtype=complex, copy=True)
        if h.ndim != 2 or h.shape[0] < 1 or h.shape[1] < 1:
            raise ValueError(f"entries must be a 2D matrix, got shape {h.shape}")
        if not (np.all(np.isfinite(h.real)) and np.all(np.isfinite(h.imag))):
            raise ValueError("channel entries must be finite")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {MODELS}")
        h.setflags(write=False)
        object.__setattr__(self, "entries", h)

    @property
    def n_r(self) -> int:
        return self.entries.shape[0]

    @property
    def n_t(self) -> int:
        return self.entries.shape[1]


def _discrete_pair(tx: ArrayGeometry, rx: ArrayGeometry):
    if tx.kind != "discrete" or rx.kind != "discrete":
        raise ValueError("channel synthesis requires discrete transmit and receive arrays")
    return tx.elements, rx.elements


def _pairwise_distances(tx_pts: np.ndarray, rx_pts: np.ndarray) -> np.ndarray:
    diff = rx_pts[:, None, :] - tx_pts[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def los_nusw_channel(tx: ArrayGeometry, rx: ArrayGeometry,
                     carrier: CarrierConfig) -> ChannelMatrix:
    """Non-uniform spherical-wave channel: exact per-link distance in both
    amplitude and phase."""
    tx_pts, rx_pts = _discrete_pair(tx, rx)
    d = _pairwise_distances(tx_pts, rx_pts)
    if np.any(d == 0.0):
        raise SingularGeometryError("transmit and receive elements coincide (d_nm = 0)")
    lam = carrier.wavelength
    h = lam / (4.0 * np.pi * d) * np.exp(-2j * np.pi * d / lam)
    return ChannelMatrix(entries=h, wavelength=lam, model="nusw")


def los_usw_channel(tx: ArrayGeometry, rx: ArrayGeometry,
                    carrier: CarrierConfig) -> ChannelMatrix:
    """Uniform spherical-wave channel: exact spherical phases, all amplitudes
    pinned to the center-to-center distance.

    A good stand-in for the per-link model once the link distance is several
    times the aperture extents; nothing here gates model choice, callers pick
    the model explicitly.
    """
    tx_pts, rx_pts = _discrete_pair(tx, rx)
    d_ref = float(np.linalg.norm(rx.center - tx.center))
    if d_ref == 0.0:
        raise SingularGeometryError("array centers coincide")
    d = _pairwise_distances(tx_pts, rx_pts)
    if np.any(d == 0.0):
        raise SingularGeometryError("transmit and receive elements coincide (d_nm = 0)")
    lam = carrier.wavelength
    h = lam / (4.0 * np.pi * d_ref) * np.exp(-2j * np.pi * d / lam)
    return ChannelMatrix(entries=h, wavelength=lam, model="usw")


def farfield_planar_channel(tx: ArrayGeometry, rx: ArrayGeometry,
                            carrier: CarrierConfig) -> ChannelMatrix:
    """Far-field planar-wave channel.

    Phases are first order in the element offsets along the boresight unit
    vector u from transmit center to receive center:

        h_nm = lam/(4*pi*d_ref) * exp(-1j*2*pi*(d_ref + u.(r_n - c_r) - u.(t_m - c_t))/lam)

    Built as an outer product of two unit-modulus phase vectors, so it is
    rank 1 by construction.
    """
    tx_pts, rx_pts = _discrete_pair(tx, rx)
    c_t, c_r = tx.center, rx.center
    d_ref = float(np.linalg.norm(c_r - c_t))
    if d_ref == 0.0:
        raise SingularGeometryError("array centers coincide")
    lam = carrier.wavelength
    u = (c_r - c_t) / d_ref
    rx_phase = np.exp(-2j * np.pi * ((rx_pts - c_r) @ u) / lam)
    tx_phase = np.exp(+2j * np.pi * ((tx_pts - c_t) @ u) / lam)
    amp = lam / (4.0 * np.pi * d_ref) * np.exp(-2j * np.pi * d_ref / lam)
    h = amp * np.outer(rx_phase, tx_phase)
    return ChannelMatrix(entries=h, wavelength=lam, model="planar")


def frobenius_normalized(channel: ChannelMatrix) -> ChannelMatrix:
    """Rescale so that ||H||_F**2 = N_t * N_r.

    Used before capacity/EDoF-vs-SNR evaluation so the SNR axis is comparable
    across geometries; pass the raw matrix instead for physical link budgets.
    """
    h = channel.entries
    norm = np.linalg.norm(h)
    if norm == 0.0:
        raise ValueError("cannot normalize an all-zero channel")
    scale = np.sqrt(h.shape[0] * h.shape[1]) / norm
    return ChannelMatrix(entries=h * scale, wavelength=channel.wavelength,
                         model=channel.model)

