"""Near-field LoS MIMO toolkit: channel synthesis for discrete and continuous
apertures, communication-mode decomposition, DoF/EDoF metrics, water-filling
capacity, and a mode-multiplexed link simulator.  Each name below loads its
module on first use (PEP 562), so importing the package loads no numpy."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "channel": ("farfield_planar_channel", "frobenius_normalized", "los_nusw_channel",
                "los_usw_channel"),
    "errors": ("ActiveSetChangeError", "ConfigError", "ConvergenceError", "NfdofError",
               "SingularGeometryError"),
    "geometry": ("ArrayGeometry", "build_ula", "continuous_aperture", "rayleigh_distance"),
    "kernel": ("build_kernel", "cap_spectrum", "converge_spectrum"),
    "linksim": ("LinkReport", "TransmissionConfig", "combine", "precode", "run_link",
                "transmit_awgn"),
    "metrics": ("cap_edof1", "cap_edof2", "capacity", "dof", "edof1", "edof1_limit_linear",
                "edof2", "edof3", "edof3_auto", "edof3_envelope", "metrics_report",
                "waterfill"),
    "modes": ("ModeDecomposition", "decompose"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
