"""DoF-family metrics, water-filling power allocation, and capacity.

All functions take a spectrum, a nonempty descending 1D array of finite,
non-negative singular values, and check it.  SNR and power quantities are
linear ratios with the noise power normalized to 1 unless stated otherwise.
Every metric reads the spectrum clipped once at the rank tolerance of ``dof``:
singular values below it are round-off and count as zero.  ``waterfill``
returns the per-mode powers; ``metrics_report`` computes every value it
reports itself, edof3 included, so a runner's CSV and its summary read one
computation.

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

import numpy as np

from .errors import ActiveSetChangeError
from .geometry import _positive_finite
from .modes import RANK_TOL

LN2 = math.log(2.0)


def _clipped(spectrum) -> np.ndarray:
    """The checked singular values of ``spectrum``, with every sigma_n below
    the rank tolerance, :data:`~nfdof.modes.RANK_TOL` times their number
    times sigma_1, set to zero."""
    v = np.asarray(spectrum, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("spectrum must be a nonempty 1D array")
    if not np.isfinite(v).all():
        raise ValueError("singular values must be finite")
    if v[-1] < 0:
        raise ValueError("singular values must be non-negative")
    if np.any(v[1:] > v[:-1]):
        raise ValueError("singular values must be sorted in descending order")
    if v[0] <= 0:
        raise ValueError("spectrum has no positive singular value")
    return np.where(v >= RANK_TOL * v.size * v[0], v, 0.0)


def dof(spectrum) -> int:
    """Numerical rank: count of the singular values the clip every metric
    reads keeps."""
    return int(np.count_nonzero(_clipped(spectrum)))


def edof1(spectrum, dominance: float = 0.01) -> int:
    """Count of dominant modes, sigma_n**2 >= dominance * sigma_1**2.

    The default power ratio 0.01 keeps modes within 20 dB of the strongest.
    """
    if not 0.0 < dominance < 1.0:
        raise ValueError(f"dominance must lie in (0, 1), got {dominance}")
    v = _clipped(spectrum)
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
    for name, val in (("l_t", l_t), ("l_r", l_r), ("distance", distance)):
        if not 0.0 < val < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {val}")
    return l_t * l_r / (_positive_finite(wavelength) * distance)


def edof2(spectrum) -> float:
    """(sum sigma**2)**2 / sum sigma**4, i.e. (tr(HH^H)/||HH^H||_F)**2.

    Scale invariant; equals k for k equal modes and 1 for a rank-1 channel.
    """
    v = _clipped(spectrum)
    p = v * v
    return float(np.sum(p) ** 2 / np.sum(p * p))


# The benchmark probes these names in nfdof.experiments, so they stay as
# aliases of the metrics every spectrum shares.
cap_edof1, cap_edof2 = edof1, edof2


def waterfill(spectrum, budget: float, noise: float) -> np.ndarray:
    """Exact water-filling over mode gains g_k = sigma_k**2 / noise: the
    per-mode powers, aligned with the spectrum order.

    Finds the largest active-mode count k whose water level
    mu = (budget + sum_{j<=k} 1/g_j) / k exceeds 1/g_k, then assigns
    powers_j = mu - 1/g_j to active modes and zero elsewhere, so
    ``np.count_nonzero(powers)`` is k.  Modes with zero gain are never
    active.  When only the strongest mode is active it gets exactly
    ``budget``, also when the budget is too small to raise the level above
    1/g_1 in floating point.
    """
    if not 0.0 < budget < np.inf:
        raise ValueError(f"power budget must be positive and finite, got {budget}")
    if not 0.0 < noise < np.inf:
        raise ValueError(f"noise power must be positive and finite, got {noise}")
    v = _clipped(spectrum)
    gains = v * v / noise
    # near-zero gains overflow to inf, which correctly keeps those modes dry
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.where(gains > 0, 1.0 / gains, np.inf)
    dry = np.flatnonzero(~np.isfinite(inv))
    n_finite = int(dry[0]) if dry.size else v.size
    candidates = (budget + np.cumsum(inv[:n_finite])) / np.arange(1, n_finite + 1)
    fits = np.flatnonzero(candidates > inv[:n_finite])
    powers = np.zeros_like(v)
    if fits.size and fits[-1] > 0:
        k_active = int(fits[-1]) + 1
        powers[:k_active] = candidates[k_active - 1] - inv[:k_active]
    elif n_finite:
        # one active mode takes the whole budget exactly: mu - 1/g_1 with
        # mu = budget + 1/g_1 would cancel to eps * (1/g_1) / budget relative
        powers[0] = budget
    return powers


def capacity(spectrum, snr: float) -> float:
    """Channel capacity in bits/s/Hz with noise normalized to 1 and a total
    transmit power of ``snr`` split across modes by water-filling."""
    if not 0.0 < snr < np.inf:
        raise ValueError(f"snr must be positive and finite, got {snr}")
    v = _clipped(spectrum)
    powers = waterfill(v, budget=snr, noise=1.0)
    # log1p keeps the low-SNR regime accurate where 1 + p*g rounds badly
    return float(np.sum(np.log1p(powers * (v * v))) / LN2)


def edof3_envelope(spectrum, snr: float) -> float:
    """Analytic value of d/d delta C(snr * 2**delta) at delta = 0 for
    water-filling capacity: k * P / (P + sum_active 1/g_j) with k active modes
    at total power P = snr.

    The water-filling capacity is continuously differentiable in the power
    budget, so this envelope expression is exact at every SNR, including
    active-set transition points.
    """
    if not 0.0 < snr < np.inf:
        raise ValueError(f"snr must be positive and finite, got {snr}")
    v = _clipped(spectrum)
    k = np.count_nonzero(waterfill(v, budget=snr, noise=1.0))
    gains = v[:k] ** 2
    inv_sum = float(np.sum(1.0 / gains))
    # snr / (snr + inv_sum) rounds to at most 1, so the value never exceeds k
    return k * (snr / (snr + inv_sum))


def edof3(spectrum, snr: float, delta_step: float = 0.01) -> float:
    """Central-difference estimate of the capacity slope per octave of power,
    [C(snr * 2**d) - C(snr * 2**-d)] / (2 d), with water-filling capacity.

    The estimate is clamped to the stencil's active-mode count.  Raises
    :class:`ActiveSetChangeError` when the two stencil points use
    different water-filling active sets; retry with a smaller ``delta_step``
    or fall back to :func:`edof3_envelope`.
    """
    if not 0.0 < snr < np.inf:
        raise ValueError(f"snr must be positive and finite, got {snr}")
    if not 0.0 < delta_step <= 0.05:
        raise ValueError(f"delta_step must lie in (0, 0.05], got {delta_step}")
    v = _clipped(spectrum)
    lo, hi = snr * 2.0 ** -delta_step, snr * 2.0 ** delta_step
    k_lo = np.count_nonzero(waterfill(v, budget=lo, noise=1.0))
    k_hi = np.count_nonzero(waterfill(v, budget=hi, noise=1.0))
    if k_lo != k_hi:
        raise ActiveSetChangeError(
            f"active set changes across the stencil at snr={snr} "
            f"({k_lo} vs {k_hi} active modes); shrink delta_step")
    c_lo = capacity(v, lo)
    c_hi = capacity(v, hi)
    # the slope of k active modes is below k, but the difference carries
    # about C * eps / delta_step of round-off, which at high SNR exceeds k - slope
    return min((c_hi - c_lo) / (2.0 * delta_step), float(k_lo))


_MIN_STEP = 1e-6
"Step floor of :func:`edof3_auto`."


def edof3_auto(spectrum, snr: float, delta_step: float = 0.01) -> float:
    """Finite-difference edof3 with automatic step shrinking.

    Halves the step whenever the stencil straddles an active-set change and
    falls back to the exact envelope value when the step floor is reached
    (only possible within a vanishing neighborhood of a transition SNR).
    """
    step = delta_step
    while step >= _MIN_STEP:
        try:
            return edof3(spectrum, snr, delta_step=step)
        except ActiveSetChangeError:
            step *= 0.5
    return edof3_envelope(spectrum, snr)


def metrics_report(spectrum, snr_grid, config_echo: dict | None = None,
                   dominance: float = 0.01, delta_step: float = 0.01) -> dict:
    """JSON-ready metric report:

    {dof, edof1, edof2, edof3_by_snr: [[snr, value]...], capacity_by_snr,
     config_echo}

    ``edof3_by_snr`` holds :func:`edof3_auto` at each SNR of ``snr_grid``,
    starting from ``delta_step``.
    """
    grid = np.asarray(snr_grid, dtype=float)
    v = _clipped(spectrum)
    return {
        "dof": dof(spectrum),
        "edof1": edof1(spectrum, dominance=dominance),
        "edof2": edof2(spectrum),
        "edof3_by_snr": [[float(s), edof3_auto(v, float(s), delta_step=delta_step)]
                         for s in grid],
        "capacity_by_snr": [[float(s), capacity(v, float(s))] for s in grid],
        "config_echo": config_echo if config_echo is not None else {},
    }
