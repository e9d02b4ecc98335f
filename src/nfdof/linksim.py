"""Mode-multiplexed link simulation over AWGN.

Transmit K symbols through the top-K communication modes: precode with the
right singular vectors, pass through the channel plus complex Gaussian noise,
and recover with the left singular vectors.  Per-mode SNR should come out as
p_k * sigma_k**2 / N0 with zero cross-mode leakage.

Monte-Carlo runs use unit-power QPSK and one seed per run; symbol chunks draw
from independently spawned child generators keyed by chunk index, so the
aggregate statistics do not depend on execution order.  Every measured
output is read from one K x K matrix, the error Gram G = sum_t e_t e_t^H of
the estimate errors: the per-mode MSE is Re diag G / n, the measured SNR
its inverse (QPSK has unit power) and the error correlation
|G_ij| / sqrt(G_ii G_jj).  ``transmit_awgn`` takes a receive matrix W and
returns W (H x + n), so a run works in the mode domain with
W = U_K^H / (sqrt(p) sigma) and no chunk forms the N_r x n receive block;
the draws are those of precoding each chunk, sending it through H and
combining, up to the association of the products.  Every mode power and
the noise power are positive and finite, and a run measures only predicted
SNRs within ``SNR_RANGE``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import _positive_finite
from .modes import ModeDecomposition, decompose

_CHUNK = 8192

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)

# measured/predicted SNR stays within 1e-4 of its value at SNR 1 up to a
# predicted 1e25 (N = 16 at 15 m, 2 modes at equal SNR, 4000 symbols: 2.6e-5
# at seed 1, 7.6e-5 at worst over seeds 1-10), then round-off bends it: 2.5e-4
# off at 1e26, 5e-4 at 9e26, 3 % at 9e28.  Low SNRs are measured well until the
# error Gram's diagonal, about n_symbols / SNR, nears the float64 maximum: outputs
# stay finite down to 1e-304 at 4000 symbols and 1e-302 at spec.MAX_COUNT symbols
# (the most a config may ask for), and turn to inf or nan one decade lower.
# 1e-300 keeps a factor of 100 at MAX_COUNT.
SNR_RANGE = (1e-300, 1e25)


@dataclass(frozen=True)
class TransmissionConfig:
    """Parameters of one simulated link run; one mode is active per entry
    of ``mode_powers``."""

    mode_powers: np.ndarray
    noise_power: float
    n_symbols: int
    seed: int

    def __post_init__(self):
        p = np.asarray(self.mode_powers, dtype=float)
        if p.size < 1:
            raise ValueError("need at least one active mode")
        if not np.all((0.0 < p) & (p < np.inf)):
            raise ValueError("mode powers must be positive and finite")
        _positive_finite(self.noise_power, "noise power")
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        object.__setattr__(self, "mode_powers", p)


@dataclass(frozen=True)
class LinkReport:
    """Per-mode measurement summary of a simulated run.

    ``predicted_mode_snr`` is p_k sigma_k**2 / N0, within ``SNR_RANGE``, and
    ``measured_mode_snr`` is 1 / ``mode_mse``.  ``error_correlation`` holds
    magnitudes of the normalized error cross-correlation, so mode
    independence shows up as a near-identity matrix.
    """

    measured_mode_snr: np.ndarray
    predicted_mode_snr: np.ndarray
    cross_mode_leakage: float
    mode_mse: np.ndarray
    error_correlation: np.ndarray
    n_symbols: int


def qpsk_symbols(n_modes: int, n_symbols: int, rng) -> np.ndarray:
    """Unit-power QPSK symbol block of shape (n_modes, n_symbols)."""
    idx = rng.integers(0, 4, size=(n_modes, n_symbols))
    return _QPSK[idx]


def precode(symbols: np.ndarray, modes: ModeDecomposition, powers) -> np.ndarray:
    """Map K symbol streams onto transmit vectors x = sum_k sqrt(p_k) phi_k s_k.

    ``symbols`` has shape (K, n_symbols); the result has shape (N_t, n_symbols).
    """
    s = np.atleast_2d(np.asarray(symbols))
    k = s.shape[0]
    if k > modes.n_modes:
        raise ValueError(f"{k} streams exceed the {modes.n_modes} available modes")
    p = np.asarray(powers, dtype=float)
    if p.size != k:
        raise ValueError(f"expected {k} powers, got {p.size}")
    return modes.right_vectors[:, :k] @ (np.sqrt(p)[:, None] * s)


def transmit_awgn(h, x: np.ndarray, noise_power: float, rng, receive) -> np.ndarray:
    """W (H x + n) for a ``receive`` matrix W, with circularly-symmetric noise
    n, E|n_i|**2 = ``noise_power`` (deterministic for a given generator state).

    The real parts of n are one ``standard_normal`` fill of one real buffer
    the size of (H x).real and the imaginary parts the next.  The result is
    (W H) x + W n, and each fill is projected by one real GEMM with
    sqrt(noise_power / 2) [Re W; Im W], so the result has W's rows.
    """
    m = np.asarray(h)
    if m.shape[1] != x.shape[0]:
        raise ValueError(f"channel expects {m.shape[1]} transmit dims, got {x.shape[0]}")
    _positive_finite(noise_power, "noise power")
    w = np.asarray(receive)
    if w.ndim != 2 or w.shape[1] != m.shape[0]:
        raise ValueError(f"receive matrix must have {m.shape[0]} columns, "
                         f"got shape {w.shape}")
    y = np.asarray((w @ m) @ x, dtype=complex)
    k = w.shape[0]
    r = np.sqrt(noise_power / 2.0) * np.concatenate([w.real, w.imag])
    buf = np.empty(m.shape[:1] + x.shape[1:])
    rng.standard_normal(out=buf)
    q = r @ buf  # W a, stacked as [Re; Im]
    y.real += q[:k]
    y.imag += q[k:]
    rng.standard_normal(out=buf)
    np.matmul(r, buf, out=q)  # W b, added as 1j W b
    y.real -= q[k:]
    y.imag += q[:k]
    return y


def combine(y: np.ndarray, modes: ModeDecomposition, powers) -> np.ndarray:
    """Recover symbol estimates s_hat_k = psi_k^H y / (sqrt(p_k) sigma_k)."""
    p = np.asarray(powers, dtype=float)
    k = p.size
    sig = modes.singular_values[:k]
    if np.any(p <= 0) or np.any(sig <= 0):
        raise ValueError("active modes need positive power and positive gain")
    proj = modes.left_vectors[:, :k].conj().T @ y
    return proj / (np.sqrt(p) * sig)[:, None]


def mode_coupling(h, modes: ModeDecomposition, powers) -> np.ndarray:
    """Noiseless symbol-to-estimate transfer matrix; identity when the modes
    diagonalize the channel exactly."""
    m = np.asarray(h)
    p = np.asarray(powers, dtype=float)
    k = p.size
    eq = modes.left_vectors[:, :k].conj().T @ m @ modes.right_vectors[:, :k]
    scale_out = 1.0 / (np.sqrt(p) * modes.singular_values[:k])
    return scale_out[:, None] * eq * np.sqrt(p)[None, :]


def run_link(h, config: TransmissionConfig) -> LinkReport:
    """Run precode -> AWGN channel -> combine over ``config.n_symbols`` QPSK
    symbols and read the per-mode statistics from the error Gram.

    The run works in the mode domain.  The precoder is folded into the
    effective channel H V_K diag(sqrt(p)) and the combiner into the receive
    matrix W = U_K^H / (sqrt(p) sigma), both formed once, and each chunk gets
    its estimates from ``transmit_awgn(..., receive=W)`` and adds its errors'
    K x K Gram to the sum.  A chunk of n symbols holds one real (N_r, n)
    noise buffer and K-row blocks, and no complex N_r x n or N_t x n array.
    The draws per chunk are the same as precoding the chunk, sending it
    through H and combining; ``mode_coupling`` and the leakage still read
    the physical H.

    A predicted SNR outside ``SNR_RANGE``, which float64 estimates cannot
    measure, raises FloatingPointError before any symbol is drawn.
    """
    modes = decompose(h)
    p = config.mode_powers
    k = p.size
    h_eff = np.asarray(h) @ precode(np.eye(k), modes, p)  # precode refuses too many streams
    sig = modes.singular_values[:k]
    predicted = p * sig ** 2 / config.noise_power
    if not SNR_RANGE[0] <= predicted.min() <= predicted.max() <= SNR_RANGE[1]:
        raise FloatingPointError(f"predicted per-mode SNRs {predicted.min():.3g} to "
                                 f"{predicted.max():.3g} leave {list(SNR_RANGE)}, "
                                 "the range link-sim measures")

    coupling = mode_coupling(h, modes, p)
    off = coupling - np.diag(np.diag(coupling))
    leakage = float(np.max(np.abs(off) ** 2)) if k > 1 else 0.0

    gram = np.zeros((k, k), dtype=complex)
    total = config.n_symbols
    receive = combine(np.eye(np.shape(h)[0]), modes, p)
    seeds = np.random.SeedSequence(config.seed).spawn((total + _CHUNK - 1) // _CHUNK)
    for i, chunk_seed in enumerate(seeds):
        rng = np.random.default_rng(chunk_seed)
        s = qpsk_symbols(k, min(_CHUNK, total - i * _CHUNK), rng)
        e = transmit_awgn(h_eff, s, config.noise_power, rng, receive=receive)
        e -= s
        gram += e @ e.conj().T
        del s, e  # freed before the next chunk draws, which holds peak memory down

    err_power = gram.real.diagonal()
    mse = err_power / total
    measured = 1.0 / mse
    # the outer product of the roots: the one of the powers overflows near
    # the low end of SNR_RANGE
    denom = np.outer(np.sqrt(err_power), np.sqrt(err_power))
    corr = np.divide(np.abs(gram), denom, out=np.zeros((k, k)), where=denom > 0)
    return LinkReport(measured_mode_snr=measured, predicted_mode_snr=predicted,
                      cross_mode_leakage=leakage, mode_mse=mse,
                      error_correlation=corr, n_symbols=total)


def save_link_report(report: LinkReport, path) -> Path:
    """Serialize a report to JSON.  A non-finite value raises
    FloatingPointError and writes no file."""
    path = Path(path)
    payload = {
        "n_symbols": report.n_symbols,
        "measured_mode_snr": [float(x) for x in report.measured_mode_snr],
        "predicted_mode_snr": [float(x) for x in report.predicted_mode_snr],
        "cross_mode_leakage": report.cross_mode_leakage,
        "mode_mse": [float(x) for x in report.mode_mse],
        "error_correlation": [[float(x) for x in row]
                              for row in report.error_correlation],
    }
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"{path.name}: {exc}") from None
    path.write_text(text + "\n")
    return path
