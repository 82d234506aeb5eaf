"""Horizon-hugging wave packet, plane-wave mode data, and the eikonal.

The test packet is

    C0(x0, rho) = rho^(-1/2) * P(sigma(rho, x0)),
    P(sigma)    = (sigma - sigma*)^(eps + i*alpha) e^{-a (sigma - sigma*)}
                  for sigma > sigma*, else 0,

so its support lies strictly outside the horizon and collapses onto the
horizon curve as the localisation rate a grows.  Its Klein-Gordon norm at
x0 = 0 has the closed value 4 pi alpha Gamma(2 eps) / (2a)^(2 eps); the
radial-drift terms cancel identically in the norm bracket, so the closed
form is exact at every a, not merely asymptotically.

Radial modes carry wavenumber eta and frequency factor
gamma = (2 rho)^(-1/2) (eta^2+1)^(-1/4); the two frequency branches at
x0 = 0 have time derivatives i*lambda_-(eta) and i*lambda_+(eta) with
lambda_pm = -A(0) eta / rho +- sqrt(eta^2 + 1).  The eikonal
E = gamma e^{-i eta sigma(rho, x0)} (eta < 0) transports the same data
along rays, with |eta| standing in for sqrt(eta^2+1) in the frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import GridMismatchError, ToleranceError
from .flow import FlowMap
from .gammatools import GammaParams

__all__ = [
    "PacketParams",
    "ModeSpec",
    "FieldOnGrid",
    "eval_packet_profile",
    "packet_values",
    "eval_packet",
    "packet_fields",
    "mode_initial_data",
    "eikonal_values",
    "eval_eikonal",
    "eikonal_fields",
    "gamma_tilde",
    "packet_norm",
]


@dataclass(frozen=True)
class PacketParams:
    """Packet shape (alpha, a, eps) anchored at the separatrix value sigma_star."""

    alpha: float
    a: float
    eps: float
    sigma_star: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.a > 0 and self.sigma_star > 0):
            raise ValueError("alpha, a and sigma_star must be positive")
        if not 0.0 < self.eps <= 0.5:
            raise ValueError("eps must lie in (0, 1/2]")

    @property
    def gamma_params(self) -> GammaParams:
        return GammaParams(alpha=self.alpha, eps=self.eps)

    @property
    def s_max(self) -> float:
        """Support cut in s = sigma - sigma_star, where e^{-a s} = e^{-45}."""
        return 45.0 / self.a

    def with_a(self, a: float) -> "PacketParams":
        return PacketParams(alpha=self.alpha, a=a, eps=self.eps,
                            sigma_star=self.sigma_star)


@dataclass(frozen=True)
class ModeSpec:
    """Radial wavenumber of an azimuthally symmetric mode (m = 0)."""

    eta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.eta):
            raise ValueError("eta must be finite")


@dataclass(frozen=True)
class FieldOnGrid:
    """A complex field sampled on a radial grid at time x0, with both first
    derivatives."""

    rho: np.ndarray
    value: np.ndarray
    d_dx0: np.ndarray
    d_drho: np.ndarray
    x0: float

    def __post_init__(self) -> None:
        n = self.rho.shape
        for arr in (self.value, self.d_dx0, self.d_drho):
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
    out = _profile(np.asarray(sigma, dtype=float) - p.sigma_star, p)[0]
    return out if out.ndim else complex(out)


def packet_values(s, rho, dsig_drho, a0, p: PacketParams):
    """Packet value, d/dx0 and d/drho at offsets s = sigma - sigma_star.

    rho is where the ray of label sigma sits, dsig_drho its tangent and a0
    the flow strength A(x0).  d/dx0 follows from the transport of sigma:
    dC0/dx0 = rho^(-1/2) P'(sigma) * (-(A/rho + 1) dsigma/drho).
    """
    prof, dprof = _profile(s, p)
    inv_sqrt = rho ** -0.5
    value = inv_sqrt * prof
    d_dx0 = inv_sqrt * dprof * (-(a0 / rho + 1.0) * dsig_drho)
    d_drho = -0.5 * rho ** -1.5 * prof + inv_sqrt * dprof * dsig_drho
    return value, d_dx0, d_drho


def eval_packet(rho: float, x0: float, p: PacketParams, flow: FlowMap) -> complex:
    """C0(x0, rho); zero whenever the ray label sigma(rho, x0) <= sigma_star."""
    return complex(packet_fields([rho], x0, p, flow).value[0])


def packet_fields(rho, x0: float, p: PacketParams, flow: FlowMap) -> FieldOnGrid:
    """Packet value and derivatives on a grid, via the ray label and its tangent."""
    rho = np.asarray(rho, dtype=float)
    sigma, dsig = flow.sigma_map(rho, x0)
    value, d_dx0, d_drho = packet_values(sigma - p.sigma_star, rho, dsig,
                                         flow.profile.eval(x0), p)
    return FieldOnGrid(rho=rho, value=value, d_dx0=d_dx0, d_drho=d_drho,
                       x0=x0)


def gamma_tilde(eta: float) -> float:
    """Frequency normalisation 2^(-1/2) (eta^2 + 1)^(-1/4) (the 1/sqrt(rho) split off)."""
    return 2.0 ** -0.5 * (eta * eta + 1.0) ** -0.25


def mode_initial_data(mode: ModeSpec, rho, a0_over_rho, family: str = "+"):
    """Plane-wave mode data at x0 = 0 for the +/- frequency branch.

    value = gamma e^{i rho eta};  d/dx0 = i lambda_mp(eta) * value, where the
    "+" branch pairs with lambda_- and the "-" branch with lambda_+.  The
    data satisfy conj(data(+, eta)) = data(-, -eta).
    """
    if family not in ("+", "-"):
        raise ValueError("family must be '+' or '-'")
    eta = mode.eta
    rho = np.asarray(rho, dtype=float)
    a0_over_rho = np.asarray(a0_over_rho, dtype=float)
    gam = gamma_tilde(eta) * rho ** -0.5
    value = gam * np.exp(1j * eta * rho)
    root = math.sqrt(eta * eta + 1.0)
    lam = -a0_over_rho * eta + (-root if family == "+" else root)
    d_dx0 = 1j * lam * value
    if value.ndim == 0:
        return complex(value), complex(d_dx0)
    return value, d_dx0


def eikonal_values(sigma, rho, dsig_drho, a0, eta: float):
    """Eikonal value, d/dx0 and d/drho (eta < 0) from the ray label sigma.

    E = gamma(rho, eta) e^{-i eta sigma}; dE/dx0 = E * i eta (A/rho + 1)
    dsigma/drho, which at x0 = 0 carries |eta| where the exact mode carries
    sqrt(eta^2 + 1).
    """
    if eta >= 0.0:
        raise ValueError("the eikonal uses the eta < 0 branch")
    value = gamma_tilde(eta) * rho ** -0.5 * np.exp(-1j * eta * sigma)
    d_dx0 = value * (1j * eta * (a0 / rho + 1.0) * dsig_drho)
    d_drho = value * (-0.5 / rho - 1j * eta * dsig_drho)
    return value, d_dx0, d_drho


def eval_eikonal(rho: float, x0: float, eta: float, flow: FlowMap) -> complex:
    """E = gamma(rho, eta) e^{-i eta sigma(rho, x0)} for eta < 0."""
    return complex(eikonal_fields([rho], x0, eta, flow).value[0])


def eikonal_fields(rho, x0: float, eta: float, flow: FlowMap) -> FieldOnGrid:
    """Eikonal value and derivatives on a grid (eta < 0)."""
    rho = np.asarray(rho, dtype=float)
    sigma, dsig = flow.sigma_map(rho, x0)
    value, d_dx0, d_drho = eikonal_values(sigma, rho, dsig,
                                          flow.profile.eval(x0), eta)
    return FieldOnGrid(rho=rho, value=value, d_dx0=d_dx0, d_drho=d_drho,
                       x0=x0)


def packet_norm(p: PacketParams, flow: FlowMap | None = None,
                numeric: bool = False) -> float:
    """Klein-Gordon norm of the packet at x0 = 0.

    Closed form 4 pi alpha Gamma(2 eps) / (2a)^(2 eps).  With numeric=True
    the full norm bracket (time and drift terms) is integrated adaptively;
    the substitution u = s^(2 eps) absorbs the s^(2 eps - 1) endpoint of
    the integrand, s = sigma - sigma_star; a non-finite result raises
    ToleranceError.
    """
    closed = 4.0 * math.pi * p.alpha * special.gamma(2.0 * p.eps) \
        / (2.0 * p.a) ** (2.0 * p.eps)
    if not numeric:
        return closed
    if flow is None:
        raise ValueError("numeric norm needs the flow (for A(0))")

    a0 = float(flow.profile.eval(0.0))
    star = p.sigma_star
    two_eps = 2.0 * p.eps

    def bracket(s):
        # full x0 = 0 integrand of the KG norm, written in s = rho - sigma_star
        rho = star + s
        c, c_t, c_r = packet_values(s, rho, 1.0, a0, p)
        term = (np.conj(c) * c_t).imag + (a0 / rho) * (np.conj(c) * c_r).imag
        return -4.0 * math.pi * term * rho

    u_max = p.s_max ** two_eps

    def integrand(u):
        s = u ** (1.0 / two_eps)
        return bracket(s) * s / (two_eps * u)

    val, _ = integrate.quad(integrand, 0.0, u_max, epsabs=1e-13,
                            epsrel=1e-11, limit=400)
    if not math.isfinite(val):
        raise ToleranceError(f"numeric packet norm is {val} at alpha="
                             f"{p.alpha}, a={p.a}, eps={p.eps}")
    return float(val)
