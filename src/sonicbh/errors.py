"""Exception types shared across the package.

The CLI maps these onto exit codes: config problems -> 2, numerical
tolerance failures -> 3, resolution failures -> 4.
"""


class SonicbhError(Exception):
    """Base class for package errors."""


class ConfigError(SonicbhError):
    """Malformed or inconsistent run configuration."""


class BracketError(ConfigError):
    """The separatrix value sigma_star falls outside the requested bracket."""


class StepFailureError(SonicbhError):
    """ODE integrator could not meet the requested tolerance."""


class CaptureError(SonicbhError):
    """A characteristic left the admissible domain before reaching x0=0."""


class GridMismatchError(SonicbhError):
    """Two field samples do not live on the same radial grid."""


class ToleranceError(SonicbhError):
    """A quadrature or consistency check failed its tolerance."""


class ResolutionError(SonicbhError):
    """Grid resolution insufficient for the requested wavenumber."""


class InstabilityError(SonicbhError):
    """Time stepper detected blow-up (per-step norm growth beyond bound)."""
