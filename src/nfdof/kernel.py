"""Hermitian kernel eigenanalysis for continuous linear apertures.

The scalar free-space response between a source point s and a field point r is

    g(r, s) = exp(-1j*2*pi*|r - s|/lambda) / (4*pi*|r - s|)

The transmit-side kernel K(s_i, s_j) = integral over the receive segment of
conj(g(r, s_i)) * g(r, s_j) dr plays the role of H H^H; its eigenvalues are the
squared gains of the continuous communication modes.  Both segments are
discretized with Gauss-Legendre quadrature and the eigenproblem is solved for
the symmetrized operator W^(1/2) K W^(1/2) (Nystrom method), which keeps it
Hermitian and positive semidefinite.
"""

from __future__ import annotations

import csv
import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, EigenSolverError, SingularGeometryError
from .geometry import ArrayGeometry, CarrierConfig

ZERO_CLIP = 1e-14
"Eigenvalues below ZERO_CLIP * lambda_1 are clipped to zero (roundoff noise)."


def greens_scalar(field_point, source_point, wavelength: float) -> complex:
    """Scalar free-space response exp(-1j*2*pi*d/lambda)/(4*pi*d) between two
    distinct points d = |field_point - source_point| apart."""
    r = np.asarray(field_point, dtype=float)
    s = np.asarray(source_point, dtype=float)
    d = float(np.linalg.norm(r - s))
    if d == 0.0:
        raise SingularGeometryError("field point and source point coincide")
    return complex(np.exp(-2j * np.pi * d / wavelength) / (4.0 * np.pi * d))


class GaussLegendreRules:
    """Gauss-Legendre rules on [-1, 1], each node count computed once.

    One table serves every kernel ladder of a run, so ``leggauss`` runs once
    per distinct node count.  The returned arrays are read-only; lookups are
    safe from several threads.
    """

    def __init__(self):
        self._rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()

    def rule(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the ``m``-point rule on [-1, 1]."""
        if m < 1:
            raise ValueError(f"need at least one node, got {m}")
        with self._lock:
            if m not in self._rules:
                x, w = leggauss(m)
                x.setflags(write=False)
                w.setflags(write=False)
                self._rules[m] = (x, w)
            return self._rules[m]


def gauss_legendre_segment(start, end, m: int,
                           rules: GaussLegendreRules | None = None):
    """Gauss-Legendre nodes (m, 3) and weights (m,) on a 3D segment; the
    weights carry the physical length measure in meters.  The [-1, 1] rule
    comes from ``rules`` (a fresh table when None)."""
    x, w = (rules or GaussLegendreRules()).rule(m)
    p0 = np.asarray(start, dtype=float)
    p1 = np.asarray(end, dtype=float)
    mid = 0.5 * (p0 + p1)
    half = 0.5 * (p1 - p0)
    nodes = mid[None, :] + x[:, None] * half[None, :]
    weights = w * np.linalg.norm(half)
    return nodes, weights


def _segment_min_distance(p1, q1, p2, q2) -> float:
    """Minimum distance between segments [p1, q1] and [p2, q2]."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    c = float(d1 @ r)
    b = float(d1 @ d2)
    denom = a * e - b * b
    if denom > 0.0:
        s = min(max((b * f - c * e) / denom, 0.0), 1.0)
    else:
        s = 0.0
    t = (b * s + f) / e if e > 0.0 else 0.0
    if t < 0.0:
        t = 0.0
        s = min(max(-c / a, 0.0), 1.0) if a > 0.0 else 0.0
    elif t > 1.0:
        t = 1.0
        s = min(max((b - c) / a, 0.0), 1.0) if a > 0.0 else 0.0
    closest1 = p1 + s * d1
    closest2 = p2 + t * d2
    return float(np.linalg.norm(closest1 - closest2))


@dataclass(frozen=True)
class KernelDiscretization:
    """Quadrature discretization of the transmit-side kernel.

    ``kernel`` is the M x M Hermitian matrix K(s_i, s_j); ``tx_nodes`` and
    ``tx_weights`` are the Gauss-Legendre rule it was sampled on.
    """

    tx_nodes: np.ndarray
    tx_weights: np.ndarray
    kernel: np.ndarray

    @property
    def node_count(self) -> int:
        return self.tx_weights.size


@dataclass(frozen=True)
class EigenSpectrum:
    """Descending eigenvalues lambda_n = sigma_n**2 of the discretized kernel,
    with the quadrature node count that produced them."""

    eigenvalues: np.ndarray
    node_count: int
    tol_achieved: float | None = None

    def __post_init__(self):
        v = np.array(self.eigenvalues, dtype=float, copy=True)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1D array")
        if np.any(np.diff(v) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        if np.any(v < 0):
            raise ValueError("eigenvalues must be non-negative after clipping")
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", v)


def _require_continuous(arr: ArrayGeometry, name: str) -> np.ndarray:
    if arr.kind != "continuous":
        raise ValueError(f"{name} must be a continuous aperture")
    return arr.segment


def build_kernel(tx: ArrayGeometry, rx: ArrayGeometry, carrier: CarrierConfig,
                 m_nodes: int, rules: GaussLegendreRules | None = None
                 ) -> KernelDiscretization:
    """Assemble K(s_i, s_j) = sum_q w_q conj(g(r_q, s_i)) g(r_q, s_j) with
    Gauss-Legendre rules of ``m_nodes`` points on both segments.

    The receive-side sum approximates the integral over the receive segment;
    the transmit nodes are where the kernel is sampled.  The assembled matrix
    is explicitly symmetrized, so Hermiticity is exact.  Both segments map
    the same [-1, 1] rule, taken from ``rules`` (a fresh table when None).
    """
    if m_nodes < 8:
        raise ValueError(f"m_nodes must be >= 8, got {m_nodes}")
    tx_seg = _require_continuous(tx, "tx")
    rx_seg = _require_continuous(rx, "rx")
    if _segment_min_distance(tx_seg[0], tx_seg[1], rx_seg[0], rx_seg[1]) == 0.0:
        raise SingularGeometryError("transmit and receive segments overlap")
    rules = rules or GaussLegendreRules()
    s_nodes, s_weights = gauss_legendre_segment(tx_seg[0], tx_seg[1], m_nodes, rules)
    r_nodes, r_weights = gauss_legendre_segment(rx_seg[0], rx_seg[1], m_nodes, rules)
    diff = r_nodes[:, None, :] - s_nodes[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    lam = carrier.wavelength
    g = np.exp(-2j * np.pi * dist / lam) / (4.0 * np.pi * dist)
    k = g.conj().T @ (r_weights[:, None] * g)
    k = 0.5 * (k + k.conj().T)
    return KernelDiscretization(tx_nodes=s_nodes, tx_weights=s_weights, kernel=k)


def cap_spectrum(disc: KernelDiscretization) -> EigenSpectrum:
    """Eigenvalues of the symmetrized weighted operator W^(1/2) K W^(1/2),
    sorted descending and clipped at numerical zero."""
    sqrt_w = np.sqrt(disc.tx_weights)
    sym = sqrt_w[:, None] * disc.kernel * sqrt_w[None, :]
    try:
        eig = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            f"eigensolver failed on a {disc.node_count}-node kernel: {exc}") from exc
    eig = eig[::-1].copy()
    top = eig[0]
    if top <= 0:
        raise EigenSolverError("kernel has no positive eigenvalue")
    eig[eig < ZERO_CLIP * top] = 0.0
    return EigenSpectrum(eigenvalues=eig, node_count=disc.node_count)


def cap_edof1(spectrum: EigenSpectrum, dominance: float = 0.01) -> int:
    """Count of eigenvalues within the dominance ratio of the largest."""
    if not 0.0 < dominance < 1.0:
        raise ValueError(f"dominance must lie in (0, 1), got {dominance}")
    lam = spectrum.eigenvalues
    if lam[0] <= 0:
        raise ValueError("spectrum has no positive eigenvalue")
    return int(np.count_nonzero(lam >= dominance * lam[0]))


def cap_edof2(spectrum: EigenSpectrum) -> float:
    """(sum lambda)**2 / sum lambda**2, the eigenvalue form of the
    trace-to-Frobenius ratio squared."""
    lam = spectrum.eigenvalues
    if lam[0] <= 0:
        raise ValueError("spectrum has no positive eigenvalue")
    return float(np.sum(lam) ** 2 / np.sum(lam * lam))


def converge_spectrum(tx: ArrayGeometry, rx: ArrayGeometry, carrier: CarrierConfig,
                      tol: float = 1e-6, start_nodes: int = 64,
                      max_nodes: int = 4096, n_track: int = 20,
                      rules: GaussLegendreRules | None = None) -> EigenSpectrum:
    """Double the quadrature node count until the top ``n_track`` eigenvalues
    are stable to ``tol`` relative to lambda_1.

    ``tol=inf`` returns the first iterate.  Non-convergence by ``max_nodes``
    raises :class:`ConvergenceError` with the last observed change attached.
    Every rung takes its quadrature rule from ``rules``; pass one table to
    share the rules between ladders (a fresh table per ladder when None).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    rules = rules or GaussLegendreRules()
    m = start_nodes
    spec = cap_spectrum(build_kernel(tx, rx, carrier, m, rules))
    if math.isinf(tol):
        return spec
    last_change = np.inf
    while m < max_nodes:
        m *= 2
        nxt = cap_spectrum(build_kernel(tx, rx, carrier, m, rules))
        k = min(n_track, len(spec.eigenvalues), len(nxt.eigenvalues))
        last_change = float(np.max(np.abs(nxt.eigenvalues[:k] - spec.eigenvalues[:k]))
                            / nxt.eigenvalues[0])
        spec = nxt
        if last_change < tol:
            return EigenSpectrum(eigenvalues=spec.eigenvalues, node_count=m,
                                 tol_achieved=last_change)
    raise ConvergenceError(
        f"top-{n_track} eigenvalues still change by {last_change:.3e} "
        f"(> tol {tol:.3e}) at {max_nodes} nodes",
        nodes=max_nodes, last_change=last_change, tol=tol)


def save_eigenspectrum(spectrum: EigenSpectrum, base_path) -> tuple[Path, Path]:
    """Write ``<base>.csv`` (index, eigenvalue) plus a JSON sidecar with the
    convergence metadata; floats use repr() for exact round-trips."""
    base = Path(base_path)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "eigenvalue"])
        for i, lam in enumerate(spectrum.eigenvalues, start=1):
            writer.writerow([i, repr(float(lam))])
    meta = {
        "node_count": spectrum.node_count,
        "tol_achieved": spectrum.tol_achieved,
        "csv": csv_path.name,
    }
    with open(json_path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return csv_path, json_path


def load_eigenspectrum(json_path) -> EigenSpectrum:
    """Load a spectrum written by :func:`save_eigenspectrum`."""
    json_path = Path(json_path)
    with open(json_path) as fh:
        meta = json.load(fh)
    with open(json_path.parent / meta["csv"], newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        values = [float(row[1]) for row in reader]
    return EigenSpectrum(eigenvalues=np.asarray(values), node_count=meta["node_count"],
                         tol_achieved=meta["tol_achieved"])
