"""Exception types shared across the package.

Each type carries its CLI exit code and label, and cli.main prints
"label: message" to stderr and returns the code: 2 for config errors, 3
for numerical failures and any other package error, 4 for resolution.
"""


class SonicbhError(Exception):
    """Base class for package errors."""
    exit_code, label = 3, "error"


class ConfigError(SonicbhError):
    """Malformed or inconsistent run configuration."""
    exit_code, label = 2, "config error"


class StepFailureError(SonicbhError):
    """ODE integrator could not meet the requested tolerance."""
    label = "numerical failure"


class CaptureError(SonicbhError):
    """A characteristic left the admissible domain before reaching x0=0."""


class GridMismatchError(SonicbhError):
    """Two field samples do not live on the same radial grid."""


class ToleranceError(SonicbhError):
    """A quadrature or consistency check failed its tolerance."""
    label = "numerical failure"


class ResolutionError(SonicbhError):
    """Grid resolution insufficient for the requested wavenumber."""
    exit_code, label = 4, "resolution failure"


class InstabilityError(SonicbhError):
    """Time stepper detected blow-up (per-step norm growth beyond bound)."""
