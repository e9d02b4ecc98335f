"""LoS MIMO channel synthesis for discrete arrays.

Models
------
nusw          exact spherical wave: per-link amplitude and phase,
              h_nm = lambda/(4*pi*d_nm) * exp(-1j*2*pi*d_nm/lambda)
usw           spherical phase, uniform amplitude taken at the center distance
planar        far-field plane wave, rank-1 outer product by construction

Rows index receive elements, columns index transmit elements.  The phase sign
convention exp(-1j*2*pi*d/lambda) is fixed so written outputs are stable.
Every builder returns a read-only complex ndarray, N_r x N_t or one column.
The shared assembly, :func:`spherical_wave_matrix`, returns writable phases and
distances; each builder multiplies its own amplitude into the phases in place.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularGeometryError
from .geometry import ArrayGeometry, _positive_finite


def _overflow(kind, flag):
    raise ValueError("distances must be finite: a squared distance overflows")


def spherical_wave_matrix(rx_pts: np.ndarray, tx_pts: np.ndarray, wavelength: float):
    """The writable N_r x N_t phases exp(-1j*2*pi*d/lambda) and the
    distances d_ij = |r_i - t_j| between receive points ``rx_pts`` (N_r, 3)
    and transmit points ``tx_pts`` (N_t, 3), as ``(h, d)``.

    Every row is computed for the points given; a caller that needs only
    some rows passes only their points.  The squared distances are summed
    one coordinate at a time, so the build holds at most the phases and one
    float per entry.  A zero distance raises :class:`SingularGeometryError`;
    a distance that is not finite (a coordinate that is not, or a square
    past the float range) or a bad wavelength raises ValueError.
    """
    if not (np.isfinite(rx_pts).all() and np.isfinite(tx_pts).all()):
        raise ValueError("point coordinates must be finite")
    d = np.zeros((rx_pts.shape[0], tx_pts.shape[0]))
    part = np.empty_like(d)
    with np.errstate(over="call", call=_overflow):
        for a, b in zip(rx_pts.T, tx_pts.T):
            d += np.square(np.subtract.outer(a, b, out=part), out=part)
    del part
    if not np.sqrt(d, out=d).all():
        raise SingularGeometryError("transmit and receive points coincide (d = 0)")
    _positive_finite(wavelength, "wavelength")
    h = np.multiply(-2j * np.pi, d)
    return np.exp(np.divide(h, wavelength, out=h), out=h), d


def _discrete_pair(tx: ArrayGeometry, rx: ArrayGeometry):
    if tx.kind != "discrete" or rx.kind != "discrete":
        raise ValueError("channel synthesis requires discrete transmit and receive arrays")
    return tx.elements, rx.elements


def _center_distance(tx: ArrayGeometry, rx: ArrayGeometry) -> float:
    d_ref = float(np.linalg.norm(rx.center - tx.center))
    if d_ref == 0.0:
        raise SingularGeometryError("array centers coincide")
    return d_ref


def _amplitude(h, d, model: str, wavelength: float, center_distance) -> np.ndarray:
    """Multiply the ``model`` amplitude into the phases ``h`` over the
    distances ``d`` in place, mark ``h`` read-only and return it: for nusw
    lambda / (4*pi*d) per entry, which overwrites ``d``, and for usw one
    lambda / (4*pi*d_ref), d_ref from the callable ``center_distance``."""
    if model == "nusw":
        h *= np.divide(wavelength, np.multiply(4.0 * np.pi, d, out=d), out=d)
    elif model == "usw":
        np.multiply(h, wavelength / (4.0 * np.pi * center_distance()), out=h)
    else:
        raise ValueError(f"unknown channel model {model!r}")
    h.setflags(write=False)
    return h


def _los(model: str, tx: ArrayGeometry, rx: ArrayGeometry, wavelength: float) -> np.ndarray:
    tx_pts, rx_pts = _discrete_pair(tx, rx)
    return _amplitude(*spherical_wave_matrix(rx_pts, tx_pts, wavelength), model, wavelength,
                      lambda: _center_distance(tx, rx))


def los_nusw_channel(tx: ArrayGeometry, rx: ArrayGeometry, wavelength: float) -> np.ndarray:
    """Non-uniform spherical-wave channel: exact per-link distance in both
    amplitude and phase."""
    return _los("nusw", tx, rx, wavelength)


def los_usw_channel(tx: ArrayGeometry, rx: ArrayGeometry, wavelength: float) -> np.ndarray:
    """Uniform spherical-wave channel: exact spherical phases, all amplitudes
    pinned to the center-to-center distance.

    A good stand-in for the per-link model once the link distance is several
    times the aperture extents; nothing here gates model choice, callers pick
    the model explicitly.
    """
    return _los("usw", tx, rx, wavelength)


def facing_ula_column(model: str, n: int, aperture: float, distance: float,
                      wavelength: float) -> np.ndarray:
    """The first column f of the ``model`` ("nusw" or "usw") channel of two
    equal, parallel ``n``-element ULAs of ``aperture`` m whose centres face
    each other ``distance`` apart: H_ij = f[|i - j|], symmetric Toeplitz,
    with f[k] at d_k = sqrt(distance**2 + (k * aperture / (n - 1))**2).

    Only these n entries are computed, by :func:`spherical_wave_matrix`
    from one receive point.  They differ from those the matrix builders
    compute from ``build_ula`` coordinates by the rounding of the distances,
    about 1e-12 relative at 15 m.  A zero distance raises
    :class:`SingularGeometryError`, a non-finite aperture or distance ValueError.
    """
    if n < 2 or not 0.0 < aperture < np.inf or not np.isfinite(distance):
        raise ValueError(f"need n >= 2 elements, a positive, finite aperture and a finite "
                         f"distance, got {n}, {aperture}, {distance}")
    tx_pts = np.zeros((n, 3))
    tx_pts[:, 2] = np.arange(n) * (aperture / (n - 1))
    h, d = spherical_wave_matrix(np.array([[0.0, distance, 0.0]]), tx_pts, wavelength)
    return _amplitude(h[0], d[0], model, wavelength, lambda: abs(distance))


def farfield_planar_channel(tx: ArrayGeometry, rx: ArrayGeometry,
                            wavelength: float) -> np.ndarray:
    """Far-field planar-wave channel.

    Phases are first order in the element offsets along the boresight unit
    vector u from transmit center to receive center:

        h_nm = lam/(4*pi*d_ref) * exp(-1j*2*pi*(d_ref + u.(r_n - c_r) - u.(t_m - c_t))/lam)

    Built as an outer product of two unit-modulus phase vectors, so it is
    rank 1 by construction.
    """
    tx_pts, rx_pts = _discrete_pair(tx, rx)
    c_t, c_r = tx.center, rx.center
    d_ref = _center_distance(tx, rx)
    lam = _positive_finite(wavelength, "wavelength")
    u = (c_r - c_t) / d_ref
    rx_phase = np.exp(-2j * np.pi * ((rx_pts - c_r) @ u) / lam)
    tx_phase = np.exp(+2j * np.pi * ((tx_pts - c_t) @ u) / lam)
    amp = lam / (4.0 * np.pi * d_ref) * np.exp(-2j * np.pi * d_ref / lam)
    h = amp * np.outer(rx_phase, tx_phase)
    h.setflags(write=False)
    return h


def frobenius_normalized(h: np.ndarray) -> np.ndarray:
    """Rescale so that ||H||_F**2 = N_t * N_r; the result is read-only.

    Used before capacity/EDoF-vs-SNR evaluation so the SNR axis is comparable
    across geometries; pass the raw matrix instead for physical link budgets.
    """
    norm = np.linalg.norm(h)
    if norm == 0.0:
        raise ValueError("cannot normalize an all-zero channel")
    out = h * (np.sqrt(h.shape[0] * h.shape[1]) / norm)
    out.setflags(write=False)
    return out
