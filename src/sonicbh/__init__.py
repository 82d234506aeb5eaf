"""Particle creation by a draining acoustic black hole, at desk scale.

Horizon geometry from the characteristic ODE of the draining flow,
Klein-Gordon projections of a horizon-hugging wave packet, closed-form
creation densities and totals, a direct finite-difference solver for the
radial wave equation, and a reproducible CLI.  The independent quadrature
twins of the closed forms live with the tests (tests/oracles.py).
"""

from .errors import (CaptureError, ConfigError, GridMismatchError,
                     InstabilityError, ResolutionError, SonicbhError,
                     StepFailureError, ToleranceError)
from .flow import (CharacteristicPath, FlowMap, HorizonCurve, VelocityProfile,
                   find_separatrix, integrate_characteristic)
from .gammatools import packet_fourier, packet_fourier_modulus_sq
from .packets import (FieldOnGrid, PacketParams, eval_packet_profile,
                      mode_initial_data, packet_norm)
from .spectrum import (SpectrumTable, SweepResult, TotalNumber,
                       build_spectrum, creation_density, default_eta_grid,
                       density_from_projections, eikonal_projections,
                       limit_sweep, normalized_number_limit,
                       normalized_number_limit_variant, total_number)

__version__ = "0.1.0"
