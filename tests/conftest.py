"""Shared geometry builders and cached heavyweight computations.

The canonical setup used across the suite: 1.37 m ULAs facing each other
along the y-axis at 1 cm wavelength, transmitter centered at the origin.
Caching keeps repeated large SVDs and kernel convergences to one evaluation
per parameter set for the whole session.

Every hypothesis property runs under one derandomized profile with no example
database: each run draws the same examples, chosen from the test's code alone,
and no example found by an earlier run is replayed, so a verdict depends on
the code alone.
"""

from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations, count
from unittest import mock

import numpy as np
from hypothesis import settings

import nfdof.kernel
from nfdof.channel import los_nusw_channel
from nfdof.geometry import build_ula, continuous_aperture
from nfdof.kernel import (build_kernel, cap_spectrum, converge_spectrum, gauss_legendre_rule,
                          gauss_legendre_segment)
from nfdof.linksim import LinkReport, combine, mode_coupling, precode, qpsk_symbols
from nfdof.modes import decompose, fold_parity

settings.register_profile("nfdof", derandomize=True, database=None)
settings.load_profile("nfdof")

WAVELENGTH = 0.01
APERTURE = 1.37
Z_AXIS = (0.0, 0.0, 1.0)


def csv_fmt(text: str) -> str:
    """The CSV form of a cell's ``float.__repr__`` text, one cell at a
    time: an integral value below 1e16, which repr writes with a trailing
    .0, loses it (-0.0 reads 0)."""
    if text.endswith(".0"):
        return "0" if text == "-0.0" else text[:-2]
    return text


def ula_pair(n, d, aperture=APERTURE):
    tx = build_ula(n, aperture, center=(0.0, 0.0, 0.0), axis=Z_AXIS)
    rx = build_ula(n, aperture, center=(0.0, d, 0.0), axis=Z_AXIS)
    return tx, rx


def segment_pair(d, aperture=APERTURE):
    tx = continuous_aperture((0.0, 0.0, -aperture / 2), (0.0, 0.0, aperture / 2))
    rx = continuous_aperture((0.0, d, -aperture / 2), (0.0, d, aperture / 2))
    return tx, rx


def tilted_pair(d, angle, aperture=APERTURE):
    """``segment_pair`` with the receive segment turned by ``angle`` rad about
    the x-axis around its centre (0, d, 0)."""
    tx, _ = segment_pair(d, aperture)
    h = 0.5 * aperture * np.array([0.0, np.sin(angle), np.cos(angle)])
    return tx, continuous_aperture((0.0, d, 0.0) - h, (0.0, d, 0.0) + h)


@lru_cache(maxsize=None)
def nusw_channel(n, d, aperture=APERTURE):
    tx, rx = ula_pair(n, d, aperture)
    return los_nusw_channel(tx, rx, WAVELENGTH)


@lru_cache(maxsize=None)
def nusw_modes(n, d, aperture=APERTURE):
    return decompose(nusw_channel(n, d, aperture))


@lru_cache(maxsize=None)
def nusw_spectrum(n, d, aperture=APERTURE):
    return nusw_modes(n, d, aperture).singular_values


@lru_cache(maxsize=None)
def cap_converged(d, aperture=APERTURE, tol=1e-6):
    tx, rx = segment_pair(d, aperture)
    return converge_spectrum(tx, rx, WAVELENGTH, tol=tol)


def waterfill_bruteforce(values, budget, noise):
    """Independent water-filling oracle: enumerate every subset of modes,
    level the water over the subset, keep the feasible allocation with the
    highest capacity.  Exponential, fine for <= 8 modes."""
    values = np.asarray(values, dtype=float)
    gains = values ** 2 / noise
    idx = [i for i in range(gains.size) if gains[i] > 0]
    best_cap = -np.inf
    best_powers = None
    for r in range(1, len(idx) + 1):
        for subset in combinations(idx, r):
            inv = 1.0 / gains[list(subset)]
            mu = (budget + inv.sum()) / r
            powers = mu - inv
            if np.any(powers < -1e-15):
                continue
            powers = np.maximum(powers, 0.0)
            cap = float(np.sum(np.log2(1.0 + powers * gains[list(subset)])))
            if cap > best_cap:
                best_cap = cap
                best_powers = np.zeros(gains.size)
                best_powers[list(subset)] = powers
    return best_powers, best_cap


def random_spectrum(rng, max_modes=8, lo=0.05, hi=3.0):
    k = int(rng.integers(1, max_modes + 1))
    return np.sort(rng.uniform(lo, hi, size=k))[::-1]


def waterfill_loop(values, budget, noise):
    """Reference water-filling as a per-mode loop over the candidate levels
    mu_k = (budget + sum_{j<=k} 1/g_j) / k, keeping the largest k with
    mu_k > 1/g_k.  Returns the powers; activates nothing when the budget
    is lost to rounding against 1/g_1."""
    v = np.asarray(values, dtype=float)
    gains = v * v / noise
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.where(gains > 0, 1.0 / gains, np.inf)
    csum = np.cumsum(inv)
    k_active = 0
    mu = 0.0
    for k in range(1, v.size + 1):
        if not np.isfinite(inv[k - 1]):
            break
        candidate = (budget + csum[k - 1]) / k
        if candidate > inv[k - 1]:
            k_active, mu = k, candidate
    powers = np.zeros_like(v)
    if k_active == 1:
        # mu - 1/g_1 = (budget + 1/g_1) - 1/g_1 cancels; the budget is exact
        powers[0] = budget
    else:
        powers[:k_active] = mu - inv[:k_active]
    return powers


def run_link_loop(h, config, chunk=8192):
    """Reference link run that sends every chunk through the physical
    channel: precode -> H @ x -> noise assembled as a + 1j*b from two
    ``standard_normal`` calls -> combine, over the same spawned chunk seeds
    as ``run_link``.  Returns a ``LinkReport``."""
    modes = decompose(h)
    p, total = config.mode_powers, config.n_symbols
    k = p.size
    sig = modes.singular_values[:k]
    coupling = mode_coupling(h, modes, p)
    off = coupling - np.diag(np.diag(coupling))
    leakage = float(np.max(np.abs(off) ** 2)) if k > 1 else 0.0
    err_power, sym_power = np.zeros(k), np.zeros(k)
    err_cross = np.zeros((k, k), dtype=complex)
    seeds = np.random.SeedSequence(config.seed).spawn((total + chunk - 1) // chunk)
    for i, chunk_seed in enumerate(seeds):
        n = min(chunk, total - i * chunk)
        rng = np.random.default_rng(chunk_seed)
        s = qpsk_symbols(k, n, rng)
        y = h @ precode(s, modes, p)
        y = y + np.sqrt(config.noise_power / 2.0) * (rng.standard_normal(y.shape)
                                                     + 1j * rng.standard_normal(y.shape))
        e = combine(y, modes, p) - s
        err_power += np.sum(np.abs(e) ** 2, axis=1)
        sym_power += np.sum(np.abs(s) ** 2, axis=1)
        err_cross += e @ e.conj().T
    mse = err_power / total
    with np.errstate(divide="ignore"):
        measured = np.where(mse > 0, (sym_power / total) / mse, np.inf)
    predicted = p * sig ** 2 / config.noise_power
    denom = np.outer(np.sqrt(err_power), np.sqrt(err_power))
    corr = np.abs(np.divide(err_cross, denom, out=np.zeros_like(err_cross),
                            where=denom > 0))
    return LinkReport(measured_mode_snr=measured, predicted_mode_snr=predicted,
                      cross_mode_leakage=leakage, mode_mse=mse,
                      error_correlation=corr, n_symbols=total)


@contextmanager
def mirror_verdicts():
    """Records the verdict of every point-mirror test ``build_kernel`` makes
    inside the block."""
    verdicts = []
    original = nfdof.kernel._mirror_points

    def recording(rx_pts, tx_pts):
        verdicts.append(original(rx_pts, tx_pts))
        return verdicts[-1]

    with mock.patch.object(nfdof.kernel, "_mirror_points", recording):
        yield verdicts


def full_distances(rx_pts, tx_pts):
    """Distance oracle: the full N_r x N_t matrix |r_i - t_j|, every entry
    computed, with no mirror."""
    diff = rx_pts[:, None, :] - tx_pts[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def channel_entries(model, tx, rx, wavelength=WAVELENGTH):
    """Channel oracle: nusw or usw entries from the model formulas as
    written, over :func:`full_distances`."""
    d = full_distances(rx.elements, tx.elements)
    if model == "nusw":
        return wavelength / (4.0 * np.pi * d) * np.exp(-2j * np.pi * d / wavelength)
    d_ref = float(np.linalg.norm(rx.center - tx.center))
    return wavelength / (4.0 * np.pi * d_ref) * np.exp(-2j * np.pi * d / wavelength)


def quadrature_g(tx, rx, m, wavelength=WAVELENGTH):
    """G_ij = g(r_i, s_j) on ``m``-node Gauss-Legendre rules of both segments,
    assembled in full from the formula, with the tx and rx weights."""
    s_nodes, s_weights = gauss_legendre_segment(tx.segment[0], tx.segment[1], m)
    r_nodes, r_weights = gauss_legendre_segment(rx.segment[0], rx.segment[1], m)
    dist = full_distances(r_nodes, s_nodes)
    g = np.exp(-2j * np.pi * dist / wavelength) / (4.0 * np.pi * dist)
    return g, s_weights, r_weights


def direct_response(tx, rx, m):
    """Kernel response oracle: H = W_r^(1/2) G W_s^(1/2) from the quadrature
    formula as written, with no mirror."""
    g, s_weights, r_weights = quadrature_g(tx, rx, m)
    return np.sqrt(r_weights)[:, None] * g * np.sqrt(s_weights)[None, :]


def sampled_kernel(tx, rx, m):
    """The response H of :func:`direct_response` on ``m`` nodes, the sampled
    kernel K = G^H W_r G formed from it as W_s^(-1/2) H^H H W_s^(-1/2), and
    the transmit weights W_s."""
    h = direct_response(tx, rx, m)
    _, w = gauss_legendre_segment(tx.segment[0], tx.segment[1], m)
    inv = 1.0 / np.sqrt(w)
    return h, inv[:, None] * (h.conj().T @ h) * inv[None, :], w


def parity_blocks(m):
    """The :func:`~nfdof.modes.fold_parity` blocks of a square matrix with
    J m J == m exactly, found by comparing its entries, or None when ``m`` is
    not square of size >= 2 or not exactly centrosymmetric."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        return None
    n = m.shape[0]
    p = n // 2
    # J m J == m: the bottom p rows mirror the top p; an odd middle row mirrors itself
    if not (np.array_equal(m[n - p:], m[:p][::-1, ::-1])
            and (n % 2 == 0 or np.array_equal(m[p], m[p, ::-1]))):
        return None
    return fold_parity(m[:n - p].copy())


def parity_split_values(m):
    """Every singular value of ``m`` by SVD, of its parity blocks when it
    has them, in descending order."""
    blocks = parity_blocks(m) or (m,)
    return np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks]))[::-1]


def cap_eigenvalues_direct(tx, rx, m):
    """Kernel oracle: descending eigenvalues of W_s^(1/2) (G^H W_r G) W_s^(1/2)
    on ``m``-node rules, solved by one Hermitian eigensolve with no parity
    split."""
    g, s_weights, r_weights = quadrature_g(tx, rx, m)
    k = g.conj().T @ (r_weights[:, None] * g)
    w = np.sqrt(s_weights)
    return np.linalg.eigvalsh(w[:, None] * k * w[None, :])[::-1]


def prolate_eigenvalues(c):
    """Slepian's prolate eigenvalues lambda_n(c), descending: the spectrum of
    the sinc kernel sin(c (x - y)) / (pi (x - y)) on [-1, 1], from numpy
    alone and no toolkit code.

    In the normalized Legendre basis sqrt(k + 1/2) P_k the prolate
    differential operator splits by parity into two symmetric tridiagonals
    (Xiao, Rokhlin & Yarvin, Inverse Problems 17, 2001); their eigenvectors
    beta are the prolate functions psi_n.  The integral equation
    mu_n psi_n(x) = int exp(i c x t) psi_n(t) dt at x = 0 gives
    |mu_n| = sqrt(2) |beta_0 / psi_n(0)| for even n and
    c sqrt(2/3) |beta_1 / psi_n'(0)| for odd n, and
    lambda_n = c |mu_n|**2 / (2 pi).  (The same equation at x = 1 divides
    by psi_n(1), about exp(-c) for the leading modes, and loses every digit
    by c = 47.)
    """
    lam = []
    for parity in (0, 1):
        k = np.arange(parity, 2 * int(c) + 80, 2, dtype=float)
        diag = k * (k + 1) + c * c * (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1))
        j = k[:-1]
        off = c * c * (j + 2) * (j + 1) / ((2 * j + 3) * np.sqrt((2 * j + 1) * (2 * j + 5)))
        _, beta = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        # P_2m(0) = (-1)**m (2m - 1)!! / (2m)!!, and P'_2m+1(0) = (2m + 1) P_2m(0)
        m = np.arange(1, k.size)
        p0 = np.cumprod(np.concatenate([[1.0], -(2 * m - 1) / (2 * m)]))
        at_zero = (np.sqrt(k + 0.5) * (k if parity else 1.0) * p0) @ beta
        mu = (c * np.sqrt(2 / 3) if parity else np.sqrt(2)) * beta[0] / at_zero
        lam.append(c * mu * mu / (2 * np.pi))
    return np.sort(np.concatenate(lam))[::-1]


def mapped_rule(m, alpha):
    """The ``m``-point Gauss-Legendre rule on [-1, 1] under the map
    x -> arcsin(alpha x) / arcsin(alpha), from the formulas as written: the
    nodes mapped, the weights times the map's derivative
    alpha / (arcsin(alpha) sqrt(1 - alpha**2 x**2)), with 1 - alpha**2 x**2
    taken as (1 - alpha x) (1 + alpha x), which keeps its relative accuracy
    where alpha x nears 1 (at alpha = 0.9994, m = 512, the squared form is
    off by 1.4e-14 at the end nodes)."""
    x, w = gauss_legendre_rule(m)
    scale, ax = np.arcsin(alpha), alpha * x
    return np.arcsin(ax) / scale, w * alpha / (scale * np.sqrt((1.0 - ax) * (1.0 + ax)))


def facing_sum_rule(aperture, d):
    """Sum of the squared singular values of two equal segments of length
    ``aperture`` facing each other at ``d``: the double integral of |g|**2,
    int int dx dy / (16 pi**2 (d**2 + (x - y)**2)) =
    (2 q arctan q - ln(1 + q**2)) / (16 pi**2) with q = aperture / d, the
    same at every wavelength."""
    q = aperture / d
    return (2.0 * q * np.arctan(q) - np.log1p(q * q)) / (16.0 * np.pi ** 2)


def sqrt2_ladder(tx, rx, tol=1e-6):
    """The kernel ladder on unmapped Gauss-Legendre rules
    (``gauss_legendre_rule``, uncached) and the sqrt(2) grid round(64 * 2**(k/2)),
    started at the first rung at or above the cliff pi * (path spread) /
    lambda and climbed until the top 20 eigenvalues of two successive rungs
    agree to ``tol``, a stop rule of its own, apart from the ladder's; the
    spectrum of the last rung.  For equal segments
    facing each other at d, as from :func:`segment_pair`, the path spread is
    hypot(d, aperture) - d."""
    d = float(np.linalg.norm(rx.center - tx.center))
    aperture = np.linalg.norm(tx.segment[1] - tx.segment[0])
    cliff = np.pi * (np.hypot(d, aperture) - d) / WAVELENGTH
    rungs = (round(64 * 2 ** (k / 2)) for k in count())
    m = next(r for r in rungs if r >= cliff)

    def plain_segment(start, end, m):
        x, w = gauss_legendre_rule(m)
        mid, half = 0.5 * (start + end), 0.5 * (end - start)
        return mid + x[:, None] * half, w * np.linalg.norm(half)

    with mock.patch.object(nfdof.kernel, "gauss_legendre_segment", plain_segment):
        lam = cap_spectrum(build_kernel(tx, rx, WAVELENGTH, m))[:20] ** 2
        for m in rungs:
            spec = cap_spectrum(build_kernel(tx, rx, WAVELENGTH, m))
            new = spec[:20] ** 2
            if np.max(np.abs(new - lam)) / new[0] < tol:
                return spec
            lam = new


def quarter_ladder(tx, rx, tol=1e-6):
    """The kernel ladder as it was before the map's alpha followed the node
    count: every rule mapped with alpha = 0.96, the 2**(1/4) grid
    round(64 * 2**(k/4)) and the start at 0.76 of the cliff, with a table of
    rules of its own and the ladder's stop rule; the converged spectrum."""
    with mock.patch.multiple(nfdof.kernel, _map_alpha=lambda m: 0.96, _RULES={},
                             _rung=lambda k: round(64 * 2 ** (k / 4)), _START=0.76):
        return converge_spectrum(tx, rx, WAVELENGTH, tol=tol)
