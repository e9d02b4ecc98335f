"""Exception types shared across the toolkit."""


class NfdofError(Exception):
    """Base class for toolkit-specific failures."""


class ConfigError(NfdofError):
    """Invalid experiment configuration: bad value, missing or unknown key."""


class SingularGeometryError(NfdofError, ValueError):
    """A source point and a field point coincide, so the gain diverges."""


class ConvergenceError(NfdofError):
    """An iterative refinement stopped before reaching its tolerance."""

    def __init__(self, message, *, nodes=None, last_change=None, tol=None):
        super().__init__(message)
        self.nodes = nodes
        self.last_change = last_change
        self.tol = tol


class ActiveSetChangeError(NfdofError):
    """The derivative stencil straddles a water-filling active-set change.

    Callers may retry with a smaller step; the offending SNR and the active-mode
    counts on both sides of the stencil are attached for diagnostics.
    """

    def __init__(self, message, *, snr=None, active_low=None, active_high=None):
        super().__init__(message)
        self.snr = snr
        self.active_low = active_low
        self.active_high = active_high
