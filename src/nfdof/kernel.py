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

from .errors import ConvergenceError, EigenSolverError, SingularGeometryError
from .geometry import ArrayGeometry, CarrierConfig
from .modes import parity_blocks, parity_join, split_values

ZERO_CLIP = 1e-14
"Eigenvalues below ZERO_CLIP * lambda_1 are clipped to zero (roundoff noise)."

_NEWTON_STEPS = 20
"Cap on the Newton steps for the Gauss-Legendre roots; 3-4 suffice up to m = 4096."


def greens_scalar(field_point, source_point, wavelength: float) -> complex:
    """Scalar free-space response exp(-1j*2*pi*d/lambda)/(4*pi*d) between two
    distinct points d = |field_point - source_point| apart."""
    r = np.asarray(field_point, dtype=float)
    s = np.asarray(source_point, dtype=float)
    d = float(np.linalg.norm(r - s))
    if d == 0.0:
        raise SingularGeometryError("field point and source point coincide")
    return complex(np.exp(-2j * np.pi * d / wavelength) / (4.0 * np.pi * d))


def _legendre(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """P_m(x) and P_m'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, m):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, m * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def gauss_legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the ``m``-point Gauss-Legendre rule
    on [-1, 1], in O(m**2) operations.

    The non-negative roots of P_m are found by Newton's method from the
    asymptotic estimates cos(pi (4k - 1) / (4m + 2)), with weights
    2 / ((1 - x**2) P_m'(x)**2); the negative half is their mirror image, so
    the nodes are exactly antisymmetric and the weights exactly symmetric.
    """
    if m < 1:
        raise ValueError(f"need at least one node, got {m}")
    k = np.arange(1, (m + 1) // 2 + 1)
    x = (1.0 - 1.0 / (8.0 * m * m) + 1.0 / (8.0 * m ** 3)) \
        * np.cos(np.pi * (4 * k - 1) / (4 * m + 2))
    if m % 2:
        x[-1] = 0.0
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(x, m)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    _, dp = _legendre(x, m)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    h = m // 2
    return np.concatenate([-x[:h], x[::-1]]), np.concatenate([w[:h], w[::-1]])


class GaussLegendreRules:
    """Gauss-Legendre rules on [-1, 1], each node count computed once.

    One table serves every kernel ladder of a run, so
    :func:`gauss_legendre_rule` runs once per distinct node count.  The
    returned arrays are read-only; lookups are safe from several threads.
    """

    def __init__(self):
        self._rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()

    def rule(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the ``m``-point rule on [-1, 1]."""
        with self._lock:
            if m not in self._rules:
                x, w = gauss_legendre_rule(m)
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


def _mirror_nodes(r_nodes: np.ndarray, s_nodes: np.ndarray) -> bool:
    """True when, in every coordinate, both node sets are constant or both
    are exactly antisymmetric (``c[::-1] == -c``).  Then |r_i - s_j| equals
    |r_(m-1-i) - s_(m-1-j)| bitwise, since (-a) - (-b) rounds to -(a - b),
    and G is exactly centrosymmetric."""
    for a, b in zip(r_nodes.T, s_nodes.T):
        constant = np.all(a == a[0]) and np.all(b == b[0])
        if not (constant or (np.array_equal(a[::-1], -a) and np.array_equal(b[::-1], -b))):
            return False
    return True


def build_kernel(tx: ArrayGeometry, rx: ArrayGeometry, carrier: CarrierConfig,
                 m_nodes: int, rules: GaussLegendreRules | None = None
                 ) -> KernelDiscretization:
    """Assemble K(s_i, s_j) = sum_q w_q conj(g(r_q, s_i)) g(r_q, s_j) with
    Gauss-Legendre rules of ``m_nodes`` points on both segments.

    The receive-side sum approximates the integral over the receive segment;
    the transmit nodes are where the kernel is sampled.  The assembled matrix
    is explicitly symmetrized, so Hermiticity is exact.  Both segments map
    the same [-1, 1] rule, taken from ``rules`` (a fresh table when None).

    When the nodes pass :func:`_mirror_nodes`, G is exactly centrosymmetric,
    so only its top ``(m_nodes + 1) // 2`` rows are computed and the rest
    are their mirror image.  When the weighted response W^(1/2) G is exactly
    centrosymmetric (two mirror-placed segments facing each other), K is
    assembled from the two half-size Grams of its parity blocks and is
    exactly centrosymmetric too.
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
    rows = (m_nodes + 1) // 2 if _mirror_nodes(r_nodes, s_nodes) else m_nodes
    diff = r_nodes[:rows, None, :] - s_nodes[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    lam = carrier.wavelength
    g = np.exp(-2j * np.pi * dist / lam) / (4.0 * np.pi * dist)
    if rows < m_nodes:
        g = np.concatenate([g, g[:m_nodes // 2][::-1, ::-1]])
    halves = parity_blocks(np.sqrt(r_weights)[:, None] * g)
    if halves is None:
        k = g.conj().T @ (r_weights[:, None] * g)
        k = 0.5 * (k + k.conj().T)
    else:
        grams = [f.conj().T @ f for f in halves]
        k = parity_join(*(0.5 * (q + q.conj().T) for q in grams))
    return KernelDiscretization(tx_nodes=s_nodes, tx_weights=s_weights, kernel=k)


def cap_spectrum(disc: KernelDiscretization) -> EigenSpectrum:
    """Eigenvalues of the symmetrized weighted operator W^(1/2) K W^(1/2),
    sorted descending and clipped at numerical zero; a centrosymmetric
    operator is solved as its two parity blocks."""
    sqrt_w = np.sqrt(disc.tx_weights)
    sym = sqrt_w[:, None] * disc.kernel * sqrt_w[None, :]
    try:
        eig = split_values(sym, np.linalg.eigvalsh)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            f"eigensolver failed on a {disc.node_count}-node kernel: {exc}") from exc
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


def _path_spread(tx_seg: np.ndarray, rx_seg: np.ndarray) -> float:
    """Largest variation of the path length |r - s| over one segment, seen
    from an endpoint of the other: the farthest minus the nearest distance,
    maximized over the four endpoints."""
    spread = 0.0
    for ends, other in ((tx_seg, rx_seg), (rx_seg, tx_seg)):
        for p in ends:
            far = max(float(np.linalg.norm(p - q)) for q in other)
            spread = max(spread, far - _segment_min_distance(p, p, other[0], other[1]))
    return spread


def _rung(start_nodes: int, k: int) -> int:
    """Node count of rung ``k`` on the sqrt(2) grid from ``start_nodes``;
    every second rung is ``start_nodes * 2**j`` exactly."""
    return round(start_nodes * 2 ** (k / 2))


def converge_spectrum(tx: ArrayGeometry, rx: ArrayGeometry, carrier: CarrierConfig,
                      tol: float = 1e-6, start_nodes: int = 64,
                      max_nodes: int = 4096, n_track: int = 20,
                      rules: GaussLegendreRules | None = None) -> EigenSpectrum:
    """Raise the quadrature node count by sqrt(2) per rung until the top
    ``n_track`` eigenvalues of two successive rungs agree to ``tol``
    relative to lambda_1.

    The rungs are ``round(start_nodes * 2**(k/2))``.  Gauss-Legendre
    convergence of the kernel is a cliff near pi * (path spread) /
    wavelength nodes (:func:`_path_spread`), so the ladder starts at the
    largest rung at or below that count and at or below ``max_nodes / 2``;
    ``start_nodes`` is a floor.  ``max_nodes`` is a hard cap: the last rung
    is clamped to it.  ``tol=inf`` returns the start rung.  Non-convergence
    by ``max_nodes`` raises :class:`ConvergenceError` with the last observed
    change and the largest rung built attached.  Every rung takes its
    quadrature rule from ``rules``; pass one table to share the rules
    between ladders (a fresh table per ladder when None).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    rules = rules or GaussLegendreRules()
    spread = _path_spread(_require_continuous(tx, "tx"), _require_continuous(rx, "rx"))
    limit = min(math.pi * spread / carrier.wavelength, max_nodes / 2)
    k = 0
    while _rung(start_nodes, k + 1) <= limit:
        k += 1
    m = _rung(start_nodes, k)
    spec = cap_spectrum(build_kernel(tx, rx, carrier, m, rules))
    if math.isinf(tol):
        return spec
    last_change = np.inf
    while m < max_nodes:
        k += 1
        m = min(_rung(start_nodes, k), max_nodes)
        nxt = cap_spectrum(build_kernel(tx, rx, carrier, m, rules))
        n = min(n_track, len(spec.eigenvalues), len(nxt.eigenvalues))
        last_change = float(np.max(np.abs(nxt.eigenvalues[:n] - spec.eigenvalues[:n]))
                            / nxt.eigenvalues[0])
        spec = nxt
        if last_change < tol:
            return EigenSpectrum(eigenvalues=spec.eigenvalues, node_count=m,
                                 tol_achieved=last_change)
    raise ConvergenceError(
        f"top-{n_track} eigenvalues still change by {last_change:.3e} "
        f"(> tol {tol:.3e}) at {m} nodes",
        nodes=m, last_change=last_change, tol=tol)


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
