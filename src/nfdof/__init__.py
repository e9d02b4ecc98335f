"""Near-field LoS MIMO toolkit: channel synthesis for discrete and continuous
apertures, communication-mode decomposition, DoF/EDoF metrics, water-filling
capacity, and a mode-multiplexed link simulator."""

__version__ = "0.1.0"

from .channel import (farfield_planar_channel, frobenius_normalized, los_nusw_channel,
                      los_usw_channel)
from .errors import (ActiveSetChangeError, ConfigError, ConvergenceError, NfdofError,
                     SingularGeometryError)
from .geometry import ArrayGeometry, build_ula, continuous_aperture, rayleigh_distance
from .kernel import build_kernel, cap_edof1, cap_edof2, cap_spectrum, converge_spectrum
from .linksim import (LinkReport, TransmissionConfig, combine, precode, run_link,
                      transmit_awgn)
from .metrics import (PowerAllocation, capacity, dof, edof1, edof1_limit_linear, edof2,
                      edof3, edof3_auto, edof3_envelope, metrics_report, waterfill)
from .modes import ModeDecomposition, SingularSpectrum, decompose

__all__ = [
    "__version__",
    "ActiveSetChangeError", "ArrayGeometry", "ConfigError", "ConvergenceError",
    "LinkReport", "ModeDecomposition", "NfdofError", "PowerAllocation",
    "SingularGeometryError", "SingularSpectrum",
    "TransmissionConfig", "build_kernel", "build_ula", "cap_edof1", "cap_edof2",
    "cap_spectrum", "capacity", "combine", "continuous_aperture",
    "converge_spectrum", "decompose", "dof", "edof1",
    "edof1_limit_linear", "edof2", "edof3", "edof3_auto", "edof3_envelope",
    "farfield_planar_channel", "frobenius_normalized", "los_nusw_channel",
    "los_usw_channel", "metrics_report", "precode", "rayleigh_distance",
    "run_link", "transmit_awgn", "waterfill",
]
