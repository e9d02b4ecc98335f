"""Shared geometry builders and cached heavyweight computations.

The canonical setup used across the suite: 1.37 m ULAs facing each other
along the y-axis at 1 cm wavelength, transmitter centered at the origin.
Caching keeps repeated large SVDs and kernel convergences to one evaluation
per parameter set for the whole session.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

from nfdof.channel import los_nusw_channel
from nfdof.geometry import CarrierConfig, build_ula, continuous_aperture
from nfdof.kernel import converge_spectrum, gauss_legendre_segment
from nfdof.modes import decompose

WAVELENGTH = 0.01
APERTURE = 1.37
CARRIER = CarrierConfig.from_wavelength(WAVELENGTH)
Z_AXIS = (0.0, 0.0, 1.0)


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
    return los_nusw_channel(tx, rx, CARRIER)


@lru_cache(maxsize=None)
def nusw_modes(n, d, aperture=APERTURE):
    return decompose(nusw_channel(n, d, aperture))


@lru_cache(maxsize=None)
def nusw_spectrum(n, d, aperture=APERTURE):
    return nusw_modes(n, d, aperture).spectrum


@lru_cache(maxsize=None)
def cap_converged(d, aperture=APERTURE, tol=1e-6):
    tx, rx = segment_pair(d, aperture)
    return converge_spectrum(tx, rx, CARRIER, tol=tol)


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
    mu_k > 1/g_k.  Returns (powers, water_level); activates nothing when
    the budget is lost to rounding against 1/g_1."""
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
    powers[:k_active] = mu - inv[:k_active]
    return powers, mu


def quadrature_g(tx, rx, m, wavelength=WAVELENGTH):
    """G_ij = g(r_i, s_j) on ``m``-node Gauss-Legendre rules of both segments,
    assembled in full from the formula, with the tx and rx weights."""
    s_nodes, s_weights = gauss_legendre_segment(tx.segment[0], tx.segment[1], m)
    r_nodes, r_weights = gauss_legendre_segment(rx.segment[0], rx.segment[1], m)
    diff = r_nodes[:, None, :] - s_nodes[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    g = np.exp(-2j * np.pi * dist / wavelength) / (4.0 * np.pi * dist)
    return g, s_weights, r_weights


def cap_eigenvalues_direct(tx, rx, m):
    """Kernel oracle: descending eigenvalues of W_s^(1/2) (G^H W_r G) W_s^(1/2)
    on ``m``-node rules, solved by one Hermitian eigensolve with no parity
    split."""
    g, s_weights, r_weights = quadrature_g(tx, rx, m)
    k = g.conj().T @ (r_weights[:, None] * g)
    w = np.sqrt(s_weights)
    return np.linalg.eigvalsh(w[:, None] * k * w[None, :])[::-1]
