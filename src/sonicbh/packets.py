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

import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, GridMismatchError, ToleranceError
from .flow import FlowMap

__all__ = [
    "ALPHA_MIN",
    "A_MIN",
    "A_MAX",
    "PacketParams",
    "FieldOnGrid",
    "eval_packet_profile",
    "packet_profile",
    "packet_values",
    "mode_initial_data",
    "eikonal_values",
    "gamma_tilde",
    "packet_norm",
    "gauss_panels",
    "jacobi_panels",
]

# twelve-point Gauss-Legendre on [-1, 1], shifted to [0, 2]: the panel rule
# of the fixed quadratures here, in spectrum and in pde, except pde's a-sweep
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_GL_SHIFTED = _GL_NODES + 1.0
SUPPORT_CUT = 45.0  # the packet's support cut in a*s: e^{-a s} = e^{-45}
# the numeric norm's panel edges in a*s: its Gauss-Jacobi edge panel ends
# at 1, then they double to 32, then the cut
_NORM_EDGES = np.r_[np.exp2(np.arange(0.0, 6.0)), SUPPORT_CUT]
# the smallest alpha, the smallest normal float: below it the closed forms
# that alpha scales are subnormal (at 5e-324 totals over the norm overflow)
ALPHA_MIN = sys.float_info.min
# the smallest rate a packet takes, 3.3562533290400936e-153:
# down to it the numeric norm's squared support (45/a)^2 is a finite float,
# and so is limit's error-model term ln(1/a)/a^2, as ln(1/a) < 45^2 there
A_MIN = SUPPORT_CUT / math.sqrt(sys.float_info.max)
# the largest rate, 2^511 = 6.7e153: up to it limit's Richardson column
# a^-2 is a normal float, far below where 2a overflows (9e307)
A_MAX = sys.float_info.min ** -0.5
# the largest edge exponent: gammatools.loggamma, behind every closed form
# here, takes Re z = 1 + eps only up to 3/2
EPS_MAX = 0.5
# the smallest edge exponent, 2.7755575615628914e-06: the angle integrals
# and the numeric norm (jacobi_panels) hold the edge's exponent 2 eps - 1 to
# u/2, which moves their edge mass ~1/(2 eps) by a relative u/(4 eps); from
# EPS_MIN up that is within the 1e-11 the totals are held to
EPS_MIN = 0.5 * sys.float_info.epsilon / (4.0 * 1e-11)


@dataclass(frozen=True)
class PacketParams:
    """Packet shape (alpha, a, eps) anchored at the separatrix value sigma_star."""

    alpha: float
    a: float
    eps: float
    sigma_star: float

    def __post_init__(self) -> None:
        if not ALPHA_MIN <= self.alpha < math.inf:
            raise ConfigError(f"alpha must be finite and at least "
                              f"{ALPHA_MIN!r}, the smallest normal float")
        if not 0.0 < self.sigma_star < math.inf:
            raise ConfigError("sigma_star must be finite and positive")
        if not self.a >= A_MIN:
            raise ConfigError(f"a_sweep must be at least {A_MIN!r}: below it "
                              f"the packet's squared support "
                              f"({SUPPORT_CUT:g}/a)^2 overflows")
        if not self.a <= A_MAX:
            raise ConfigError(f"a_sweep must be at most {A_MAX!r}: above it "
                              f"limit's a^-2 error term is subnormal")
        if not EPS_MIN <= self.eps <= EPS_MAX:
            raise ConfigError(
                "eps must lie in [{0!r}, {1}/{2}]: below {0!r} the rounding "
                "of 2 eps - 1 moves the totals by more than 1e-11".format(
                    EPS_MIN, *EPS_MAX.as_integer_ratio()))
        norm = packet_norm(self)  # the totals are normalised by it
        if not norm >= sys.float_info.min:
            raise ConfigError(
                f"the packet's closed norm {norm!r} at alpha = {self.alpha!r}"
                f", a = {self.a!r}, eps = {self.eps!r} is below the smallest "
                f"normal float")

    @property
    def s_max(self) -> float:
        """Support cut in s = sigma - sigma_star (SUPPORT_CUT / a)."""
        return SUPPORT_CUT / self.a

    def with_a(self, a: float) -> "PacketParams":
        return replace(self, a=a)


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


def packet_profile(s, p: PacketParams):
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
    return packet_profile(np.asarray(sigma, dtype=float) - p.sigma_star, p)[0]


def packet_values(prof, dprof, rho, dsig_drho, a0):
    """Packet value and D value from its profile P and P' (packet_profile).

    rho is where the ray of label sigma sits, dsig_drho its tangent and a0
    the flow strength A(x0).  Along rays D sigma = -dsigma/drho, so
    D C0 = -rho^(-1/2) P'(sigma) dsigma/drho - (A/(2 rho^2)) C0.
    """
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


@functools.lru_cache(maxsize=64)
def _gauss_jacobi(power: float):
    """Twelve nodes t on [0, 1] for the weight t^power, power > -1, by
    Golub-Welsch, with weights that carry t^(-power): sum w f(t) then
    approximates int_0^1 f dt for f ~ t^power g, g smooth.  Read-only."""
    k = np.arange(1.0, 12.0)
    q = 2.0 * k + power
    # Jacobi matrix of the monic Jacobi recurrence on [-1, 1] for the
    # weight (1 + x)^power
    diag = np.concatenate([[power / (power + 2.0)],
                           power * power / (q * (q + 2.0))])
    off = np.sqrt(4.0 * k * k * (k + power) ** 2
                  / (q * q * (q + 1.0) * (q - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    t = 0.5 * (x + 1.0)
    w = vec[0] ** 2 / (power + 1.0) * t ** -power
    t.flags.writeable = w.flags.writeable = False
    return t, w


def jacobi_panels(power: float, edges):
    """Nodes and weights of the twelve-point Gauss-Jacobi rule for an
    s^power edge on [0, edges[0]], then gauss_panels(edges): the rule of
    both s^(2 eps - 1) integrals, the angle integrals and the numeric norm."""
    t, w = _gauss_jacobi(power)
    s, ws = gauss_panels(edges)
    return (np.concatenate([edges[0] * t, s]),
            np.concatenate([edges[0] * w, ws]))


def packet_norm(p: PacketParams, flow: FlowMap | None = None,
                numeric: bool = False) -> float:
    """Klein-Gordon norm of the packet at x0 = 0.

    Closed form 4 pi alpha Gamma(2 eps) / (2a)^(2 eps).  With numeric=True
    the full norm bracket -4 pi Im(C0* D C0) rho, s = sigma - sigma_star,
    is summed on the angle integrals' fixed rule (jacobi_panels):
    Gauss-Jacobi for the bracket's s^(2 eps - 1) edge on a*s in [0, 1],
    then Gauss-Legendre panels at a*s = 2, 4, ..., 32 and a*s_max = 45,
    twelve nodes each (84 nodes).  Like the angle integrals it holds the
    edge's exponent 2 eps - 1 to u/2, a relative u/(4 eps) of the norm.
    A non-finite sum raises ToleranceError.
    """
    closed = 4.0 * math.pi * p.alpha * math.gamma(2.0 * p.eps) \
        / (2.0 * p.a) ** (2.0 * p.eps)
    if not numeric:
        return closed
    if flow is None:
        raise ValueError("numeric norm needs the flow (for A(0))")

    a0 = float(flow.profile.eval(0.0))
    s, w = jacobi_panels(2.0 * p.eps - 1.0, _NORM_EDGES / p.a)
    rho = p.sigma_star + s
    # w/s overflows in P' at the first node t_0/a: from alpha ~ 1e305 at a = 8
    with np.errstate(over="ignore", invalid="ignore"):
        c, dc = packet_values(*packet_profile(s, p), rho, 1.0, a0)
        val = float(np.dot(w, -4.0 * math.pi * (np.conj(c) * dc).imag * rho))
    if not math.isfinite(val):
        raise ToleranceError(f"numeric packet norm is {val} at alpha="
                             f"{p.alpha}, a={p.a}, eps={p.eps}")
    return val
