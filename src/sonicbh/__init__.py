"""Particle creation by a draining acoustic black hole, at desk scale.

Horizon geometry from the characteristic ODE of the draining flow,
Klein-Gordon projections of a horizon-hugging wave packet, closed-form
creation densities with quadrature twins, a direct finite-difference
solver for the radial wave equation, and a reproducible CLI.
"""

from .errors import (BracketError, CaptureError, ConfigError,
                     GridMismatchError, InstabilityError, ResolutionError,
                     SonicbhError, StepFailureError, ToleranceError)
from .flow import (CharacteristicPath, FlowMap, HorizonCurve, VelocityProfile,
                   characteristic_rhs, find_separatrix,
                   integrate_characteristic, sigma_map, sigma_of)
from .gammatools import (GammaParams, arg_eta_plus_ia, gamma0,
                         gamma0_quadrature, packet_fourier,
                         packet_fourier_modulus_sq, packet_fourier_quadrature)
from .packets import (FieldOnGrid, ModeSpec, PacketParams, eval_eikonal,
                      eval_packet, eval_packet_profile, eikonal_fields,
                      mode_initial_data, packet_fields, packet_norm)
from .spectrum import (SpectrumTable, SweepResult, TotalNumber,
                       build_spectrum, creation_density, default_eta_grid,
                       density_from_projections, eikonal_projections,
                       kg_inner, limit_sweep, normalized_number_limit,
                       normalized_number_limit_variant, total_number)

__version__ = "0.1.0"
