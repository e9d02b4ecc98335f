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

import numpy as np

from .channel import spherical_wave_matrix
from .errors import ConvergenceError, SingularGeometryError
from .geometry import ArrayGeometry, _positive_finite
from .modes import _block_values, fold_parity
from .spec import LADDER_FLOOR

_NEWTON_STEPS = 20
"Cap on the Newton steps for the Gauss-Legendre roots; 3-4 suffice up to m = 4096."
_MAP_NODES = 64  # the node count whose mapped rule has alpha 0.96; not the ladder floor
_SPREAD_LIMIT = math.sqrt(np.finfo(float).max / 3.0)  # per coordinate: 3 squares stay finite


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


def _map_alpha(m: int) -> float:
    """The alpha of the map x -> arcsin(alpha x) / arcsin(alpha) for ``m`` nodes,
    2 rho / (rho**2 + 1), rho = (4/3)**(:data:`_MAP_NODES` / m): its error rho**(-2 m)
    is (3/4)**128 = 1e-16 at every m, and alpha(64) = 0.96, alpha(16) = 0.58."""
    rho = (4.0 / 3.0) ** (_MAP_NODES / m)
    return 2.0 * rho / (rho * rho + 1.0)


_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_RULES_LOCK = threading.Lock()


def gauss_legendre_segment(start, end, m: int):
    """Gauss-Legendre nodes (m, 3) and weights (m,) on a 3D segment, spread by
    the Kosloff-Tal-Ezer map x -> arcsin(alpha x) / arcsin(alpha) (J. Comput.
    Phys. 104(2), 1993), each weight times the map's derivative
    alpha / (arcsin(alpha) sqrt(1 - (alpha x)**2)), alpha chosen from the
    node count as Hale & Trefethen do (SIAM J. Numer. Anal. 46(2), 2008;
    :func:`_map_alpha`): 0.96 at 64 nodes, 0.9987 at 362, 0.58 at 16, 0.2
    at 8, where the rule is nearly plain Gauss-Legendre.  Larger rules give
    the middle of the segment a nearly uniform node density, not 2/pi of it.
    The map is odd and the upper half of the nodes is mirrored, so they stay exact
    mirror images.  The weights carry the physical length measure in meters.
    The mapped [-1, 1] rule is computed once per node count for the whole
    process and kept read-only; lookups are safe from several threads."""
    with _RULES_LOCK:
        if m not in _RULES:
            x, w = gauss_legendre_rule(m)
            alpha = _map_alpha(m)
            ax, scale = alpha * x, math.asin(alpha)
            w = w * (alpha / scale) / np.sqrt((1.0 - ax) * (1.0 + ax))
            upper = np.arcsin(ax[m // 2:]) / scale
            x = np.concatenate([-upper[::-1][:m // 2], upper])
            x.setflags(write=False)
            w.setflags(write=False)
            _RULES[m] = (x, w)
        x, w = _RULES[m]
    p0 = np.asarray(start, dtype=float)
    p1 = np.asarray(end, dtype=float)
    mid = 0.5 * (p0 + p1)
    half = 0.5 * (p1 - p0)
    nodes = mid[None, :] + x[:, None] * half[None, :]
    weights = w * np.linalg.norm(half)
    return nodes, weights


def _segment_min_distance(p1, q1, p2, q2) -> float:
    """Minimum distance between segments [p1, q1] and [p2, q2], whose square must be finite."""
    # on Python floats, an overflowing difference reads inf without a warning
    spread = max(max(c) - min(c) for c in zip(p1.tolist(), q1.tolist(), p2.tolist(), q2.tolist()))
    if not spread <= _SPREAD_LIMIT:
        raise ValueError(f"distances must be finite when squared: points {spread:g} m apart")
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


def _require_continuous(arr: ArrayGeometry, name: str) -> np.ndarray:
    if arr.kind != "continuous":
        raise ValueError(f"{name} must be a continuous aperture")
    return arr.segment


def _mirror_points(rx_pts: np.ndarray, tx_pts: np.ndarray) -> bool:
    """True when, in every coordinate, both point sets are constant or both
    are exactly antisymmetric (``c[::-1] == -c``).  Then |r_i - t_j| equals
    |r_(n_r-1-i) - t_(n_t-1-j)| bitwise, since (-a) - (-b) rounds to
    -(a - b), and every matrix built from the distances is exactly
    centrosymmetric."""
    for a, b in zip(rx_pts.T, tx_pts.T):
        constant = np.all(a == a[0]) and np.all(b == b[0])
        if not (constant or (np.array_equal(a[::-1], -a) and np.array_equal(b[::-1], -b))):
            return False
    return True


def build_kernel(tx: ArrayGeometry, rx: ArrayGeometry, wavelength: float, m_nodes: int):
    """The weighted response H = W_r^(1/2) G W_s^(1/2), with
    G_ij = g(r_i, s_j) on Gauss-Legendre rules of ``m_nodes`` points on both
    segments, read-only, for :func:`cap_spectrum`.

    :func:`~nfdof.channel.spherical_wave_matrix` gives the phases and
    distances; 1 / (4*pi*d) and the weight roots are multiplied in place, and
    the distances are freed before the fold.  When the nodes are exact mirror
    images (:func:`_mirror_points`), H is exactly centrosymmetric, and only
    its top ``(m_nodes + 1) // 2`` rows are assembled, then folded in place
    into its even and odd parity blocks (:func:`~nfdof.modes.fold_parity`),
    returned as ``(even, odd)``, so no m x m array is formed; else as ``(H,)``.
    """
    if m_nodes < 8:
        raise ValueError(f"m_nodes must be >= 8, got {m_nodes}")
    tx_seg = _require_continuous(tx, "tx")
    rx_seg = _require_continuous(rx, "rx")
    if _segment_min_distance(tx_seg[0], tx_seg[1], rx_seg[0], rx_seg[1]) == 0.0:
        raise SingularGeometryError("transmit and receive segments overlap")
    s_nodes, s_weights = gauss_legendre_segment(tx_seg[0], tx_seg[1], m_nodes)
    r_nodes, r_weights = gauss_legendre_segment(rx_seg[0], rx_seg[1], m_nodes)
    rows = (m_nodes + 1) // 2 if _mirror_points(r_nodes, s_nodes) else m_nodes
    h, d = spherical_wave_matrix(r_nodes[:rows], s_nodes, wavelength)
    h /= np.multiply(4.0 * np.pi, d, out=d)
    del d
    h *= np.sqrt(r_weights[:rows])[:, None]
    h *= np.sqrt(s_weights)
    blocks = fold_parity(h) if rows < m_nodes else (h,)
    for b in blocks:
        b.setflags(write=False)
    return blocks


def cap_spectrum(blocks) -> np.ndarray:
    """The m singular values sigma_n, as a spectrum, of what
    :func:`build_kernel` returns: two parity blocks or one response.
    sigma_n**2 are the eigenvalues of the discretized kernel."""
    return _block_values(blocks)


def _path_spread(tx_seg: np.ndarray, rx_seg: np.ndarray) -> float:
    """Largest variation of the path length |r - s| over one segment, seen
    from an endpoint of the other: the farthest minus the nearest distance,
    maximized over the four endpoints."""
    spread = 0.0
    for ends, other in ((tx_seg, rx_seg), (rx_seg, tx_seg)):
        for p in ends:
            near = _segment_min_distance(p, p, other[0], other[1])  # checks the distances first
            far = max(float(np.linalg.norm(p - q)) for q in other)
            spread = max(spread, far - near)
    return spread


_START = 0.70
"""Fraction of the quadrature cliff at or above which the ladder starts: 3 %
under the lowest first agreeing rung, 0.724, of ``tools/ladder_sweep.py`` at the
floor of 16; margins 4.1e-3 to the rung below the start, 0.199 below that."""


def _rung_change(lower: np.ndarray, upper: np.ndarray) -> float:
    """The ladder's stop measure: the largest change of an eigenvalue of the lower
    rung to the matching one of the upper rung, relative to the upper rung's largest."""
    return float(np.max(np.abs(upper[:lower.size] - lower)) / upper[0])


def _rung(k: int) -> int:
    """Node count of rung ``k`` on the 2**(1/8) grid from :data:`LADDER_FLOOR`, 16:
    every eighth rung is ``16 * 2**j`` exactly, and rung k + 16 is ``round(64 * 2**(k/8))``."""
    return round(LADDER_FLOOR * 2 ** (k / 8))


def converge_spectrum(tx: ArrayGeometry, rx: ArrayGeometry, wavelength: float,
                      tol: float = 1e-6, max_nodes: int = 4096) -> np.ndarray:
    """Raise the quadrature node count by 2**(1/8) per rung until every
    eigenvalue sigma_n**2 of a rung agrees with the matching one of the next
    to ``tol`` relative to the largest (:func:`_rung_change`).

    The rungs are ``round(16 * 2**(k/8))`` (16, 17, 19, 21, ..., 59, 64, 70,
    ...).  Convergence of the mapped Gauss-Legendre rules is a cliff just below
    pi * (path spread) / wavelength nodes (:func:`_path_spread`), so the
    ladder starts at the smallest rung at or above :data:`_START` times that
    count, or the largest at or below ``max_nodes / 2`` if that is lower,
    and never below 16.  ``max_nodes`` must exceed 16 and is a hard cap: the
    last rung is clamped to it.  Non-convergence raises
    :class:`ConvergenceError` whose message states the last observed change and
    the largest rung built.  The node count of the returned spectrum is ``len(spectrum)``.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not max_nodes > LADDER_FLOOR:
        raise ValueError(f"max_nodes must exceed {LADDER_FLOOR}, got {max_nodes}")
    spread = _path_spread(_require_continuous(tx, "tx"), _require_continuous(rx, "rx"))
    start = _START * math.pi * spread / _positive_finite(wavelength, "wavelength")
    k = 0
    while _rung(k) < start and _rung(k + 1) <= max_nodes / 2:
        k += 1
    m = _rung(k)
    lam = cap_spectrum(build_kernel(tx, rx, wavelength, m)) ** 2
    last_change = np.inf
    while m < max_nodes:
        k += 1
        m = min(_rung(k), max_nodes)
        spec = cap_spectrum(build_kernel(tx, rx, wavelength, m))
        nxt = spec ** 2
        last_change = _rung_change(lam, nxt)
        lam = nxt
        if last_change < tol:
            return spec
    raise ConvergenceError(
        f"eigenvalues still change by {last_change:.3e} (> tol {tol:.3e}) at {m} nodes")
