"""DoF-family metrics, water-filling power allocation, and capacity.

All functions accept a :class:`~nfdof.modes.SingularSpectrum`, a
:class:`~nfdof.modes.ModeDecomposition`, or a plain descending array of
singular values.  SNR and power quantities are linear ratios with the noise
power normalized to 1 unless stated otherwise.

Metric family
-------------
dof     count of singular values above a numerical-rank threshold; the
        high-SNR capacity slope in bits/s/Hz per octave of power is dof.
edof1   count of dominant modes: sigma_n**2 >= eta * sigma_1**2.
edof2   (sum sigma**2)**2 / sum sigma**4, a low-SNR slope metric that needs
        no threshold.
edof3   derivative of water-filling capacity with respect to an octave power
        increase, d/d delta C(SNR * 2**delta) at delta = 0; the equivalent
        number of parallel single-mode channels at that SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ActiveSetChangeError
from .modes import SingularSpectrum, spectrum_values

LN2 = math.log(2.0)


def _positive_leading(spectrum) -> np.ndarray:
    v = spectrum_values(spectrum)
    if v[0] <= 0:
        raise ValueError("spectrum has no positive singular value")
    return v


def dof(spectrum, rank_tol: float | None = None) -> int:
    """Numerical rank: count of sigma_n >= rank_tol * sigma_1.

    When ``rank_tol`` is None it defaults to 1e-10 times the larger matrix
    dimension (taken from the spectrum's shape metadata when available,
    otherwise the spectrum length).
    """
    v = _positive_leading(spectrum)
    if rank_tol is None:
        if isinstance(spectrum, SingularSpectrum) and spectrum.shape is not None:
            dim = max(spectrum.shape)
        else:
            dim = v.size
        rank_tol = 1e-10 * dim
    return int(np.count_nonzero(v >= rank_tol * v[0]))


def edof1(spectrum, dominance: float = 0.01) -> int:
    """Count of dominant modes, sigma_n**2 >= dominance * sigma_1**2.

    The default power ratio 0.01 keeps modes within 20 dB of the strongest.
    """
    if not 0.0 < dominance < 1.0:
        raise ValueError(f"dominance must lie in (0, 1), got {dominance}")
    v = _positive_leading(spectrum)
    return int(np.count_nonzero(v * v >= dominance * v[0] * v[0]))


def edof1_limit_linear(l_t: float, l_r: float, wavelength: float,
                       distance: float) -> float:
    """Asymptotic dominant-mode count for two parallel line apertures of
    lengths ``l_t`` and ``l_r`` facing each other at ``distance``:

        l_t * l_r / (wavelength * distance)

    This is the Shannon number of the prolate-spheroidal spectrum, where
    sigma_n**2 / sigma_1**2 falls through 1/2.  It approximates the
    half-power count ``edof1(..., dominance=0.5)``, not the default 20 dB
    count, which also takes in the plunge region and sits a few modes above.

    Valid in the paraxial regime distance >> apertures (documented, not
    enforced).
    """
    for name, val in (("l_t", l_t), ("l_r", l_r),
                      ("wavelength", wavelength), ("distance", distance)):
        if val <= 0:
            raise ValueError(f"{name} must be positive, got {val}")
    return l_t * l_r / (wavelength * distance)


def edof2(spectrum) -> float:
    """(sum sigma**2)**2 / sum sigma**4, i.e. (tr(HH^H)/||HH^H||_F)**2.

    Scale invariant; equals k for k equal modes and 1 for a rank-1 channel.
    """
    v = _positive_leading(spectrum)
    p = v * v
    return float(np.sum(p) ** 2 / np.sum(p * p))


@dataclass(frozen=True)
class PowerAllocation:
    """Water-filling result: per-mode powers, the common water level, and the
    total budget.  Powers align with the input spectrum order."""

    powers: np.ndarray
    water_level: float
    budget: float

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.powers > 0))


def waterfill(spectrum, budget: float, noise: float) -> PowerAllocation:
    """Exact water-filling over mode gains g_k = sigma_k**2 / noise.

    Finds the largest active-mode count k whose water level
    mu = (budget + sum_{j<=k} 1/g_j) / k exceeds 1/g_k, then assigns
    powers_j = mu - 1/g_j to active modes and zero elsewhere.  Modes with
    zero gain are never active.  A budget too small to raise the level above
    1/g_1 in floating point goes entirely to the strongest mode.
    """
    if budget <= 0:
        raise ValueError(f"power budget must be positive, got {budget}")
    if noise <= 0:
        raise ValueError(f"noise power must be positive, got {noise}")
    v = _positive_leading(spectrum)
    gains = v * v / noise
    # near-zero gains overflow to inf, which correctly keeps those modes dry
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.where(gains > 0, 1.0 / gains, np.inf)
    dry = np.flatnonzero(~np.isfinite(inv))
    n_finite = int(dry[0]) if dry.size else v.size
    candidates = (budget + np.cumsum(inv[:n_finite])) / np.arange(1, n_finite + 1)
    fits = np.flatnonzero(candidates > inv[:n_finite])
    powers = np.zeros_like(v)
    if fits.size:
        k_active = int(fits[-1]) + 1
        mu = candidates[k_active - 1]
        powers[:k_active] = mu - inv[:k_active]
    elif n_finite:
        mu = inv[0] + budget
        powers[0] = budget
    else:
        mu = 0.0
    return PowerAllocation(powers=powers, water_level=mu, budget=float(budget))


def capacity(spectrum, snr: float, policy: str = "waterfilling") -> float:
    """Channel capacity in bits/s/Hz with noise normalized to 1 and a total
    transmit power of ``snr`` split across modes.

    ``policy="waterfilling"`` uses the optimal allocation; ``policy="equal"``
    splits ``snr`` evenly over the dof modes.
    """
    if snr <= 0:
        raise ValueError(f"snr must be positive, got {snr}")
    v = _positive_leading(spectrum)
    gains = v * v
    if policy == "waterfilling":
        powers = waterfill(v, budget=snr, noise=1.0).powers
    elif policy == "equal":
        k = dof(spectrum)
        powers = np.zeros_like(v)
        powers[:k] = snr / k
    else:
        raise ValueError(f"policy must be 'waterfilling' or 'equal', got {policy!r}")
    # log1p keeps the low-SNR regime accurate where 1 + p*g rounds badly
    return float(np.sum(np.log1p(powers * gains)) / LN2)


def edof3_envelope(spectrum, snr: float) -> float:
    """Analytic value of d/d delta C(snr * 2**delta) at delta = 0 for
    water-filling capacity: k * P / (P + sum_active 1/g_j) with k active modes
    at total power P = snr.

    The water-filling capacity is continuously differentiable in the power
    budget, so this envelope expression is exact at every SNR, including
    active-set transition points.
    """
    if snr <= 0:
        raise ValueError(f"snr must be positive, got {snr}")
    v = _positive_leading(spectrum)
    alloc = waterfill(v, budget=snr, noise=1.0)
    k = alloc.n_active
    gains = v[:k] ** 2
    inv_sum = float(np.sum(1.0 / gains))
    return k * snr / (snr + inv_sum)


def edof3(spectrum, snr: float, delta_step: float = 0.01) -> float:
    """Central-difference estimate of the capacity slope per octave of power,
    [C(snr * 2**d) - C(snr * 2**-d)] / (2 d), with water-filling capacity.

    Raises :class:`ActiveSetChangeError` when the two stencil points use
    different water-filling active sets; retry with a smaller ``delta_step``
    or fall back to :func:`edof3_envelope`.
    """
    if snr <= 0:
        raise ValueError(f"snr must be positive, got {snr}")
    if not 0.0 < delta_step <= 0.05:
        raise ValueError(f"delta_step must lie in (0, 0.05], got {delta_step}")
    v = _positive_leading(spectrum)
    lo, hi = snr * 2.0 ** -delta_step, snr * 2.0 ** delta_step
    k_lo = waterfill(v, budget=lo, noise=1.0).n_active
    k_hi = waterfill(v, budget=hi, noise=1.0).n_active
    if k_lo != k_hi:
        raise ActiveSetChangeError(
            f"active set changes across the stencil at snr={snr} "
            f"({k_lo} vs {k_hi} active modes); shrink delta_step",
            snr=snr, active_low=k_lo, active_high=k_hi)
    c_lo = capacity(v, lo, policy="waterfilling")
    c_hi = capacity(v, hi, policy="waterfilling")
    return (c_hi - c_lo) / (2.0 * delta_step)


def edof3_auto(spectrum, snr: float, delta_step: float = 0.01,
               min_step: float = 1e-6) -> float:
    """Finite-difference edof3 with automatic step shrinking.

    Halves the step whenever the stencil straddles an active-set change and
    falls back to the exact envelope value when the step floor is reached
    (only possible within a vanishing neighborhood of a transition SNR).
    """
    step = delta_step
    while step >= min_step:
        try:
            return edof3(spectrum, snr, delta_step=step)
        except ActiveSetChangeError:
            step *= 0.5
    return edof3_envelope(spectrum, snr)


def metrics_report(spectrum, snr_grid, config_echo: dict | None = None,
                   dominance: float = 0.01, rank_tol: float | None = None,
                   edof3_values=None) -> dict:
    """JSON-ready metric report:

    {dof, edof1, edof2, edof3_by_snr: [[snr, value]...], capacity_by_snr,
     config_echo}

    ``edof3_values`` are the edof3 values already computed on ``snr_grid``
    (for example with a non-default step); when None they come from
    :func:`edof3_auto` with its default step.
    """
    grid = np.asarray(snr_grid, dtype=float)
    v = _positive_leading(spectrum)
    if edof3_values is None:
        edof3_values = [edof3_auto(v, float(s)) for s in grid]
    return {
        "dof": dof(spectrum, rank_tol=rank_tol),
        "edof1": edof1(spectrum, dominance=dominance),
        "edof2": edof2(spectrum),
        "edof3_by_snr": [[float(s), float(e)] for s, e in zip(grid, edof3_values)],
        "capacity_by_snr": [[float(s), capacity(v, float(s))] for s in grid],
        "config_echo": config_echo if config_echo is not None else {},
    }
