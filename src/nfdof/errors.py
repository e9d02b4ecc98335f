"""Exception types shared across the toolkit."""


class NfdofError(Exception):
    """Base class for toolkit-specific failures."""


class ConfigError(NfdofError):
    """Invalid experiment configuration: bad value, missing or unknown key."""


class SingularGeometryError(NfdofError, ValueError):
    """A source point and a field point coincide, so the gain diverges."""


class ConvergenceError(NfdofError):
    """An iterative refinement stopped before reaching its tolerance.  The
    message states the node count reached, the last change and the tolerance."""


class ActiveSetChangeError(NfdofError):
    """The derivative stencil straddles a water-filling active-set change.

    Callers may retry with a smaller step.  The message states the offending
    SNR and the active-mode counts on both sides of the stencil.
    """
