"""The parameter domain of the commands: one row per bound.

Each bound is checked in src/ by one owner, beside the arithmetic that
sets it.  A row names that owner (a module-level constant, or the check a
derived bound comes from), the key it limits, the commands that read it,
the value at the bound and the one float or one int past it, as the
command line spells them, and the owner's refusal there.  test_cli.py
generates the boundary cases from the rows: at the bound each reader runs,
one past it each reader exits 2 with the refusal, and every other command
runs.  A new bound in src/ adds its row here
(test_cli.py: test_every_bound_constant_has_a_row).

A derived bound's values are pinned: found once by bisection on its
owner's check at the readers' base argv, and moved only on purpose, with
the move recorded in CHANGES.md.
"""

import math
from dataclasses import dataclass, field

from sonicbh import flow, packets, pde, spectrum

# each command's base argv: a row's value comes after it, and a later
# --set wins, so a row's key replaces a base value
COMMANDS = {
    "horizon": ["horizon"],
    "spectrum": ["spectrum", "--set", "a_sweep=8", "--set", "n_eta=24"],
    "limit": ["limit"],
    "pde-verify": ["pde-verify", "--set", "nrho=256", "--set", "tfinal=0.1"],
}
FLOW = tuple(COMMANDS)  # every command solves for the separatrix
PACKET = ("spectrum", "limit", "pde-verify")
RATES = ("spectrum", "limit")  # pde-verify takes its own rates
WAVE = ("pde-verify",)


@dataclass(frozen=True)
class Bound:
    id: str
    key: str
    owner: str  # the constant, or the check the bound comes from
    readers: tuple
    at: str
    past: str
    message: str
    at_exit: dict = field(default_factory=dict)  # named exits at the bound
    stop: str = ""  # a run at the bound that reaches this call stops there
    defects: dict = field(default_factory=dict)  # readers that fail at it
    own_case: dict = field(default_factory=dict)  # reader -> its own case id


def _float(bound, side):
    """The bound and the float past it on side, as repr spells them."""
    past = math.nextafter(bound, -math.inf if side == "floor" else math.inf)
    return repr(bound), repr(past)


def _eta_refusal(eta, density, f2, dev, alpha=1.0):
    # the sample and alpha set the density together, so both are named
    return (f"eta_list value {eta!r} is out of range at alpha = {alpha!r}: "
            f"at a = 32 its x0 = 0 eikonal density {density} and that "
            f"density's |F|^2 factor {f2} must be positive normal floats, and "
            f"its deviation {dev} must be finite")


EPS_REFUSAL = (f"eps must lie in [{packets.EPS_MIN!r}, 1/2]: below "
               f"{packets.EPS_MIN!r} the rounding of 2 eps - 1 moves the "
               f"totals by more than 1e-11")
_TINY = "5e-324"  # the smallest float above 0

BOUNDS = [
    # the flow: |A-| and |A+| above the rays' capture radius, tau and the
    # horizon's sampled half-width positive.  Here and below pde-verify is
    # stopped at its first solve where the solves alone take most of a
    # second, or (at the work budget) minutes
    *[Bound(f"{key}-flow-ceiling", key, "flow.CAPTURE_RHO", FLOW,
            repr(-math.nextafter(flow.CAPTURE_RHO, 1.0)),
            repr(-flow.CAPTURE_RHO),
            f"min(|a_minus|, |a_plus|) must exceed rho_min = "
            f"{flow.CAPTURE_RHO}, the rays' capture radius",
            stop="pde.solve_mode")
      for key in ("a_minus", "a_plus")],
    Bound("tau-flow-floor", "tau", "flow.VelocityProfile", FLOW, _TINY, "0.0",
          "tau must be positive"),
    Bound("x0_horizon_max-flow-floor", "x0_horizon_max",
          "flow.find_separatrix", FLOW, _TINY, "0.0",
          "x0_horizon_max must be positive"),
    # the packet.  alpha is a normal float; pde-verify's alpha range ends
    # where the x0 = 0 density of its sample eta = -2 is subnormal
    Bound("alpha-packet-floor", "alpha", "packets.ALPHA_MIN", PACKET,
          *_float(packets.ALPHA_MIN, "floor"),
          f"alpha must be finite and at least {packets.ALPHA_MIN!r}, the "
          f"smallest normal float"),
    Bound("alpha-pde-ceiling", "alpha", "pde.remainder_contribution", WAVE,
          "235.27140443565906", "235.2714044356591",
          _eta_refusal(-2.0, "7.96e-308", "2.23e-308", "0.122",
                       alpha=235.2714044356591),
          stop="pde.solve_mode"),
    # pde-verify's wave solves at the floor run as a case of their own
    Bound("eps-packet-floor", "eps", "packets.EPS_MIN", PACKET,
          *_float(packets.EPS_MIN, "floor"), EPS_REFUSAL,
          own_case={"pde-verify": "eps-pde-verify-packet-floor"}),
    Bound("eps-packet-ceiling", "eps", "packets.EPS_MAX", PACKET,
          *_float(packets.EPS_MAX, "ceiling"), EPS_REFUSAL),
    Bound("a_sweep-packet-floor", "a_sweep", "packets.A_MIN", RATES,
          *_float(packets.A_MIN, "floor"),
          f"a_sweep must be at least {packets.A_MIN!r}: below it the "
          f"packet's squared support (45/a)^2 overflows"),
    Bound("a_sweep-packet-ceiling", "a_sweep", "packets.A_MAX", RATES,
          *_float(packets.A_MAX, "ceiling"),
          f"a_sweep must be at most {packets.A_MAX!r}: above it limit's "
          f"a^-2 error term is subnormal",
          defects={"spectrum": "from a ~ 1e153 the frequency normalisation's "
                               "eta^2 overflows behind a RuntimeWarning, and "
                               "the density identity fails (exit 3)"}),
    # the spectrum's grid, at one rate, where n_eta has all the budget
    Bound("n_eta-spectrum-floor", "n_eta", "spectrum.N_ETA_MIN",
          ("spectrum",), repr(spectrum.N_ETA_MIN),
          repr(spectrum.N_ETA_MIN - 1),
          f"n_eta must be at least {spectrum.N_ETA_MIN}"),
    Bound("n_eta-spectrum-ceiling", "n_eta", "spectrum.MAX_N_ETA",
          ("spectrum",), repr(spectrum.MAX_N_ETA),
          repr(spectrum.MAX_N_ETA + 1),
          f"n_eta must be at most {spectrum.MAX_N_ETA} at 1 a_sweep values: "
          f"n_eta x len(a_sweep) must be at most {spectrum.MAX_N_ETA}",
          stop="spectrum.build_spectrum"),
    # the wave grid.  30 points are too coarse for eta = -4 (exit 4), and
    # an outer edge just past max|A| = 1 over [0, 0.1] is short of the
    # transported packet (exit 4)
    Bound("nrho-pde-floor", "nrho", "pde.NRHO_MIN", WAVE, repr(pde.NRHO_MIN),
          repr(pde.NRHO_MIN - 1), f"nrho must be at least {pde.NRHO_MIN}",
          at_exit={"pde-verify": 4}),
    Bound("nrho-pde-ceiling", "nrho", "pde.NRHO_MAX", WAVE, repr(pde.NRHO_MAX),
          repr(pde.NRHO_MAX + 1),
          f"nrho must be at most {pde.NRHO_MAX}, where the wave budget still "
          f"bounds the run time", stop="pde.solve_mode"),
    Bound("grid_rho_max-pde-floor", "grid_rho_max", "pde.RadialGrid.auto",
          WAVE, "1.0000000000000002", "1.0",
          "grid_rho_max = 1.0 must exceed max|A| = 1.0 over [0, 0.1]",
          at_exit={"pde-verify": 4}),
    # tfinal: its step tfinal/2 a normal float (rounded up from one float
    # below 2^-1021), and the two solves within the work budget
    Bound("tfinal-pde-floor", "tfinal", "pde.RadialGrid.auto", WAVE,
          "4.4501477170144023e-308", "4.450147717014402e-308",
          "tfinal = 4.450147717014402e-308 needs a time step below the "
          "smallest normal float"),
    Bound("tfinal-pde-ceiling", "tfinal", "pde.MAX_POINT_STEPS", WAVE,
          "28857.343763894074", "28857.343763894078",
          f"the wave solves would take 2.47e+09 point-steps (steps x (n_rho "
          f"+ {pde.N_STEP})), beyond the budget of {pde.MAX_POINT_STEPS:.7g}; "
          f"lower nrho or tfinal", stop="pde.solve_mode"),
    # eta_list, from a lone sample: its closed x0 = 0 density and |F|^2
    # factor normal floats, and its deviation finite
    Bound("eta_list-pde-floor", "eta_list", "pde.remainder_contribution",
          WAVE, "-2.0039469665719208e+123", "-2.003946966571921e+123",
          _eta_refusal(-2.003946966571921e+123, "0", "0", "1.25e-247")),
    Bound("eta_list-pde-ceiling", "eta_list", "pde.remainder_contribution",
          WAVE, "-1.480493014090429e-152", "-1.4804930140904288e-152",
          _eta_refusal(-1.4804930140904288e-152, "2.23e-308", "5.08e-05",
                       "1.14e+303")),
]
KEYS = sorted({row.key for row in BOUNDS})
ROWS = {row.id: row for row in BOUNDS}
