"""Horizon-hugging wave packet, plane-wave mode data, and the eikonal.

The test packet is

    C0(x0, rho) = rho^(-1/2) * P(sigma(rho, x0)),
    P(sigma)    = (sigma - sigma*)^(eps + i*alpha) e^{-a (sigma - sigma*)}
                  for sigma > sigma*, else 0,

so its support lies strictly outside the horizon and collapses onto the
horizon curve as the localisation rate a grows.  Its Klein-Gordon norm at
x0 = 0 has the closed value 4 pi alpha Gamma(2 eps) / (2a)^(2 eps); the
norm bracket Im(C0* D C0) keeps only the profile-derivative term, so the
closed form is exact at every a, not merely asymptotically.

Fields are sampled as (value, D value), D = d/dx0 + (A(x0)/rho) d/drho the
flow derivative, which is the canonical momentum of the acoustic metric
and the variable the wave stepper evolves.  Along rays D sigma =
-dsigma/drho, so the packet and the eikonal take closed D values.

Radial modes carry wavenumber eta and frequency factor
gamma = (2 rho)^(-1/2) (eta^2+1)^(-1/4); the two frequency branches at
x0 = 0 have d/dx0 = i lambda_pm(eta), lambda_pm = -A(0) eta / rho +-
sqrt(eta^2 + 1).  mode_initial_data gives the lambda_- branch, whose D
value is -(i sqrt(eta^2+1) + A/(2 rho^2)) times its value.  The eikonal
E = gamma e^{-i eta sigma(rho, x0)} (eta < 0) transports the same value
along rays, and at x0 = 0 its D E differs only by |eta| in place of
sqrt(eta^2+1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ToleranceError
from .flow import FlowMap

__all__ = [
    "A_MIN",
    "PacketParams",
    "FieldOnGrid",
    "eval_packet_profile",
    "packet_values",
    "mode_initial_data",
    "eikonal_values",
    "gamma_tilde",
    "packet_norm",
    "gauss_panels",
]

# twelve-point Gauss-Legendre on [-1, 1], shifted to [0, 2]: the panel rule
# of the fixed quadratures here, in spectrum and in pde, except pde's a-sweep
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_GL_SHIFTED = _GL_NODES + 1.0
SUPPORT_CUT = 45.0  # the packet's support cut in a*s: e^{-a s} = e^{-45}
# the numeric norm's panel edges in a*s: 0, then doubling from 2^-30 to 32,
# then the cut; with its first panel that narrow the rule stays within 1e-12
# of the closed norm down to the eps at which its first nodes underflow
_NORM_EDGES = np.r_[0.0, np.exp2(np.arange(-30.0, 6.0)), SUPPORT_CUT]
# the smallest rate a the configuration takes, 3.3562533290400936e-153:
# down to it the numeric norm's squared support (45/a)^2 is a finite float,
# and so is limit's error-model term ln(1/a)/a^2, as ln(1/a) < 45^2 there
A_MIN = SUPPORT_CUT / math.sqrt(sys.float_info.max)
# the largest edge exponent: gammatools.loggamma, behind every closed form
# here, takes Re z = 1 + eps only up to 3/2
EPS_MAX = 0.5


@dataclass(frozen=True)
class PacketParams:
    """Packet shape (alpha, a, eps) anchored at the separatrix value sigma_star."""

    alpha: float
    a: float
    eps: float
    sigma_star: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v > 0.0
                   for v in (self.alpha, self.a, self.sigma_star)):
            raise ValueError("alpha, a and sigma_star must be finite and "
                             "positive")
        if not 0.0 < self.eps <= EPS_MAX:
            raise ValueError("eps must lie in (0, 1/2]")

    @property
    def s_max(self) -> float:
        """Support cut in s = sigma - sigma_star (SUPPORT_CUT / a)."""
        return SUPPORT_CUT / self.a

    def with_a(self, a: float) -> "PacketParams":
        return PacketParams(alpha=self.alpha, a=a, eps=self.eps,
                            sigma_star=self.sigma_star)


@dataclass(frozen=True)
class FieldOnGrid:
    """A complex field sampled on a radial grid at time x0, with its flow
    derivative d_flow = D value."""

    rho: np.ndarray
    value: np.ndarray
    d_flow: np.ndarray
    x0: float

    def __post_init__(self) -> None:
        n = self.rho.shape
        for arr in (self.value, self.d_flow):
            if arr.shape != n:
                raise GridMismatchError("field components disagree in shape")


def _profile(s, p: PacketParams):
    """P and dP/dsigma at offsets s = sigma - sigma_star, both zero for s <= 0.

    P' = P ((eps + i alpha)/s - a) is integrably singular at the edge for eps < 1.
    """
    w = p.eps + 1j * p.alpha
    pos = s > 0.0
    sp = s + (s <= 0.0) * (1.0 - s)  # s on the support, 1 off it
    prof = np.exp(w * np.log(sp) - p.a * sp) * pos
    return prof, prof * (w / sp - p.a)


def eval_packet_profile(sigma, p: PacketParams):
    """Profile P(sigma): zero at and below sigma_star, continuous there (eps > 0)."""
    return _profile(np.asarray(sigma, dtype=float) - p.sigma_star, p)[0]


def packet_values(s, rho, dsig_drho, a0, p: PacketParams):
    """Packet value and D value at offsets s = sigma - sigma_star.

    rho is where the ray of label sigma sits, dsig_drho its tangent and a0
    the flow strength A(x0).  Along rays D sigma = -dsigma/drho, so
    D C0 = -rho^(-1/2) P'(sigma) dsigma/drho - (A/(2 rho^2)) C0.
    """
    prof, dprof = _profile(s, p)
    inv_sqrt = rho ** -0.5
    value = inv_sqrt * prof
    # rho^2 overflows from rho = 1.34e154 (as at |A+-| = 1e160), where the
    # drift |a0|/(2 rho^2) < 1 then reads 0: a real term, which drops out of
    # the norm bracket Im(C0* D C0)
    with np.errstate(over="ignore"):
        drift = 0.5 * a0 / rho ** 2
    return value, -inv_sqrt * dprof * dsig_drho - drift * value


def gamma_tilde(eta: float) -> float:
    """Frequency normalisation 2^(-1/2) (eta^2 + 1)^(-1/4) (the 1/sqrt(rho) split off)."""
    return 2.0 ** -0.5 * (eta * eta + 1.0) ** -0.25


def mode_initial_data(eta: float, rho, a0):
    """Plane-wave mode value and D value at x0 = 0 on the lambda_- branch.

    value = gamma e^{i rho eta}, D value = -(i sqrt(eta^2+1) + A/(2 rho^2))
    value with a0 = A(0); the lambda_+ branch at eta is their conjugate at
    -eta."""
    value = gamma_tilde(eta) * rho ** -0.5 * np.exp(1j * eta * rho)
    freq = math.sqrt(eta * eta + 1.0)
    return value, -(1j * freq + 0.5 * a0 / rho ** 2) * value


def eikonal_values(sigma, rho, dsig_drho, a0, eta: float):
    """Eikonal value and D value (eta < 0) from the ray label sigma.

    E = gamma(rho, eta) e^{-i eta sigma}; D E = (i eta dsigma/drho
    - A/(2 rho^2)) E, whose frequency at x0 = 0 carries |eta| where the
    exact mode carries sqrt(eta^2 + 1).
    """
    if eta >= 0.0:
        raise ValueError("the eikonal uses the eta < 0 branch")
    value = gamma_tilde(eta) * rho ** -0.5 * np.exp(-1j * eta * sigma)
    return value, value * (1j * eta * dsig_drho - 0.5 * a0 / rho ** 2)


def gauss_panels(edges):
    """Nodes and weights of the twelve-point Gauss-Legendre rule on each
    panel between consecutive edges, panel after panel."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    return ((half * _GL_SHIFTED + edges[:-1, None]).ravel(),
            (half * _GL_WEIGHTS).ravel())


def packet_norm(p: PacketParams, flow: FlowMap | None = None,
                numeric: bool = False) -> float:
    """Klein-Gordon norm of the packet at x0 = 0.

    Closed form 4 pi alpha Gamma(2 eps) / (2a)^(2 eps).  With numeric=True
    the full norm bracket -4 pi Im(C0* D C0) rho, s = sigma - sigma_star,
    is summed on a fixed Gauss rule in u = s^(2 eps), which absorbs the
    s^(2 eps - 1) edge of the bracket: panels at a*s = 0, 2^-30, 2^-29,
    ..., 16, 32 and a*s_max = 45, twelve nodes each (444 nodes).  A
    non-finite sum raises ToleranceError, and so does a node whose s
    underflows (eps below about 0.0035), which would drop its share
    silently.
    """
    closed = 4.0 * math.pi * p.alpha * math.gamma(2.0 * p.eps) \
        / (2.0 * p.a) ** (2.0 * p.eps)
    if not numeric:
        return closed
    if flow is None:
        raise ValueError("numeric norm needs the flow (for A(0))")

    a0 = float(flow.profile.eval(0.0))
    two_eps = 2.0 * p.eps
    u, w = gauss_panels((_NORM_EDGES / p.a) ** two_eps)
    s = u ** (1.0 / two_eps)
    rho = p.sigma_star + s
    c, dc = packet_values(s, rho, 1.0, a0, p)
    # ds = s du / (2 eps u)
    val = float(np.dot(w * s / (two_eps * u),
                       -4.0 * math.pi * (np.conj(c) * dc).imag * rho))
    if not s[0] >= np.finfo(float).tiny:
        val = math.nan  # an underflowed node carries no bracket
    if not math.isfinite(val):
        raise ToleranceError(f"numeric packet norm is {val} at alpha="
                             f"{p.alpha}, a={p.a}, eps={p.eps}")
    return val
