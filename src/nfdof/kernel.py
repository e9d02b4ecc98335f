"""Communication modes of two continuous linear apertures.

The scalar free-space response between a source point s and a field point r is

    g(r, s) = exp(-1j*2*pi*|r - s|/lambda) / (4*pi*|r - s|)

The transmit-side kernel K(s_i, s_j) = integral over the receive segment of
conj(g(r, s_i)) * g(r, s_j) dr plays the role of H H^H; its eigenvalues are the
squared gains of the continuous communication modes.  Both segments are
discretized with Gauss-Legendre quadrature (Nystrom method), which turns the
link into a weighted discrete array: the weighted response
H = W_r^(1/2) G W_s^(1/2) has H^H H = W_s^(1/2) K W_s^(1/2), so the squared
singular values of H are the eigenvalues of the discretized kernel
(D. A. B. Miller, Appl. Opt. 39(11), 2000), and the same values-only SVD that
serves discrete channels solves the aperture pair.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EigenSolverError, SingularGeometryError
from .geometry import ArrayGeometry, CarrierConfig
from .metrics import edof1, edof2
from .modes import SingularSpectrum, decompose

_NEWTON_STEPS = 20
"Cap on the Newton steps for the Gauss-Legendre roots; 3-4 suffice up to m = 4096."


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
    """Quadrature discretization of an aperture pair.

    ``response`` is the M x M weighted response W_r^(1/2) G W_s^(1/2), with
    G_ij = g(r_i, s_j); ``tx_nodes`` and ``tx_weights`` are the transmit
    Gauss-Legendre rule.
    """

    tx_nodes: np.ndarray
    tx_weights: np.ndarray
    response: np.ndarray

    @property
    def node_count(self) -> int:
        return self.tx_weights.size

    @property
    def kernel(self) -> np.ndarray:
        """The sampled kernel K = G^H W_r G, formed on demand."""
        inv = 1.0 / np.sqrt(self.tx_weights)
        return inv[:, None] * (self.response.conj().T @ self.response) * inv[None, :]


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
    """Assemble the weighted response H = W_r^(1/2) G W_s^(1/2) with
    Gauss-Legendre rules of ``m_nodes`` points on both segments, taken from
    ``rules`` (a fresh table when None).

    When the nodes pass :func:`_mirror_nodes`, G is exactly centrosymmetric
    and both weight vectors are exact mirror images, so only the top
    ``(m_nodes + 1) // 2`` rows of H are computed and weighted; the rest are
    their mirror image, and H is exactly centrosymmetric.
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
    h = np.sqrt(r_weights[:rows])[:, None] * g * np.sqrt(s_weights)[None, :]
    if rows < m_nodes:
        h = np.concatenate([h, h[:m_nodes // 2][::-1, ::-1]])
    return KernelDiscretization(tx_nodes=s_nodes, tx_weights=s_weights, response=h)


def cap_spectrum(disc: KernelDiscretization) -> SingularSpectrum:
    """Singular values sigma_n of the weighted response; sigma_n**2 are the
    eigenvalues of the discretized kernel.  A centrosymmetric response is
    solved as its two parity blocks."""
    try:
        return decompose(disc.response, vectors=False)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            f"SVD failed on a {disc.node_count}-node response: {exc}") from exc


# The benchmark probes these names in nfdof.experiments, so they stay as
# aliases of the metrics every spectrum shares.
cap_edof1, cap_edof2 = edof1, edof2


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
                      rules: GaussLegendreRules | None = None) -> SingularSpectrum:
    """Raise the quadrature node count by sqrt(2) per rung until the top
    ``n_track`` eigenvalues sigma_n**2 of two successive rungs agree to
    ``tol`` relative to the largest.

    The rungs are ``round(start_nodes * 2**(k/2))``.  Gauss-Legendre
    convergence of the kernel is a cliff near pi * (path spread) /
    wavelength nodes (:func:`_path_spread`), so the ladder starts at the
    largest rung at or below that count and at or below ``max_nodes / 2``;
    ``start_nodes`` is a floor.  ``max_nodes`` is a hard cap: the last rung
    is clamped to it.  ``tol=inf`` returns the start rung.  Non-convergence
    by ``max_nodes`` raises :class:`ConvergenceError` with the last observed
    change and the largest rung built attached.  Every rung takes its
    quadrature rule from ``rules``; pass one table to share the rules
    between ladders (a fresh table per ladder when None).  The node count of
    the returned spectrum is ``shape[0]``.
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
    lam = spec.values ** 2
    last_change = np.inf
    while m < max_nodes:
        k += 1
        m = min(_rung(start_nodes, k), max_nodes)
        spec = cap_spectrum(build_kernel(tx, rx, carrier, m, rules))
        nxt = spec.values ** 2
        n = min(n_track, lam.size, nxt.size)
        last_change = float(np.max(np.abs(nxt[:n] - lam[:n])) / nxt[0])
        lam = nxt
        if last_change < tol:
            return spec
    raise ConvergenceError(
        f"top-{n_track} eigenvalues still change by {last_change:.3e} "
        f"(> tol {tol:.3e}) at {m} nodes",
        nodes=m, last_change=last_change, tol=tol)
