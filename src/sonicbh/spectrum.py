"""Projections onto the Klein-Gordon pairing and created-particle counts.

The conserved pairing between two azimuthally symmetric fields is

    <u, v> = 2 pi i int_0^inf [ (u* v_t - u*_t v)
                                + (A(x0)/rho) (u* v_r - u*_r v) ] rho drho.

Projecting the packet onto the eikonal branch at wavenumber -eta (eta > 0
here labels |eta|) gives the pair of coefficients

    c1 = |eta| gt(eta) e^{-i |eta| sigma*} F(-|eta|),      c2 = -c1,

with gt(eta) = 2^(-1/2) (eta^2+1)^(-1/4) and F the closed-form profile
transform.  The two raw projection integrals (field-derivative side and
mode-derivative side) coincide up to a boundary-type term that cancels in
the pair; the relative sign carried by c2 is fixed so that the creation
combination -4 Re(c1 conj(c2)) = 4 |c1|^2 reproduces the closed density

    D(eta) = 2 eta^2 |Gamma0|^2 e^{-2 alpha asin(a / sqrt(eta^2 + a^2))}
             / ( sqrt(eta^2+1) (eta^2 + a^2)^(eps+1) ),   eta > 0,

which is manifestly nonnegative and vanishes quadratically at eta = 0.
The projections and the density are vectorised over |eta|: a spectrum
table is one array pass, with both evaluations computed once and
cross-checked as arrays.

Integrated counts: with eta = a cot(theta), theta is the angle of the
density's exponent and

    D deta = 2 |Gamma0|^2 a^(-2 eps) cos sin^(2 eps - 1) e^{-2 alpha theta}
             w_a dtheta,    w_a = a cos / sqrt(a^2 cos^2 + sin^2),

over theta in (0, pi/2).  Divided by the packet norm the total is
K I(alpha, eps, a), K = 2^(2 eps) |Gamma0|^2 / (2 pi alpha Gamma(2 eps)),
with I the theta integral; w_a -> 1 as a -> inf gives the
sharp-localisation limit K I(alpha, eps, inf).  A variant with prefactor
2^eps and rate 1 in the exponent is reported beside it; the two coincide
only at alpha = 1 up to the 2^(-eps) prefactor ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import ToleranceError
from .gammatools import (gamma0_modulus_sq, packet_fourier,
                         packet_fourier_modulus_sq)
from .packets import PacketParams, gamma_tilde, packet_norm

__all__ = [
    "eikonal_projections",
    "creation_density",
    "density_from_projections",
    "SpectrumTable",
    "build_spectrum",
    "default_eta_grid",
    "TotalNumber",
    "total_number",
    "limit_integral",
    "normalized_number_limit",
    "normalized_number_limit_variant",
    "SweepRow",
    "SweepResult",
    "limit_sweep",
]

DENSITY_IDENTITY_RTOL = 1e-10
_TINY = np.finfo(float).tiny


def eikonal_projections(eta_abs, p: PacketParams):
    """Projection pair (c1, c2) over an array of |eta| >= 0 (eta = -|eta|).

    c1 is the field-derivative-side integral after the ray change of
    variables (verified against direct quadrature in the tests); c2 takes
    the relative sign that makes -4 Re(c1 conj(c2)) equal the closed
    creation density.  Both members share the modulus
    |eta| gt(eta) |F(-eta)|, vanish linearly as eta -> 0, and are an exact
    +0 pair at eta = 0.
    """
    eta_abs = np.asarray(eta_abs, dtype=float)
    if np.any(eta_abs < 0.0):
        raise ValueError("eta_abs must be nonnegative")
    eta = -eta_abs
    phase = np.exp(1j * eta * p.sigma_star) \
        * packet_fourier(eta, p.gamma_params, p.a)
    c1 = -eta * gamma_tilde(eta) * phase
    # the product's sign of zero follows the phase; the table wants +0
    at_zero = eta_abs == 0.0
    return np.where(at_zero, 0j, c1), np.where(at_zero, 0j, -c1)


def density_from_projections(c1, c2):
    """Creation combination -4 Re(c1 conj(c2)) of a projection pair."""
    return -4.0 * (c1 * np.conj(c2)).real


def creation_density(eta_abs, p: PacketParams):
    """Creation density over an array of |eta|, cross-checked to 1e-10 relative.

    The closed side is 2 eta^2 |F(-eta)|^2 / sqrt(eta^2+1); the pair side
    is -4 Re(c1 conj(c2)) of eikonal_projections.  The closed side is
    returned.
    """
    eta_abs = np.asarray(eta_abs, dtype=float)
    return _checked_density(eta_abs, p, *eikonal_projections(eta_abs, p))


def _checked_density(eta_abs: np.ndarray, p: PacketParams, c1, c2):
    """Closed density at eta_abs, checked against the given projection pair."""
    pair = density_from_projections(c1, c2)
    closed = (2.0 * eta_abs ** 2 / np.hypot(eta_abs, 1.0)
              * packet_fourier_modulus_sq(-eta_abs, p.gamma_params, p.a))
    # below the smallest normal float both sides have lost their digits
    bad = ~(np.abs(pair - closed) <= DENSITY_IDENTITY_RTOL * np.abs(closed)
            + _TINY)
    if np.any(bad):
        k = np.flatnonzero(bad)[0]
        raise ToleranceError(
            f"density identity violated at eta={eta_abs.flat[k]}: "
            f"pair={pair.flat[k]} closed={closed.flat[k]}")
    return closed


def default_eta_grid(a: float, n: int = 96) -> np.ndarray:
    """Zero plus a geometric grid reaching where the density tail is negligible."""
    lo = 1e-3 * max(a, 1.0)
    hi = 50.0 * (a + 1.0)
    return np.concatenate([[0.0], np.geomspace(lo, hi, n - 1)])


@dataclass(frozen=True)
class SpectrumTable:
    """Per-eta projections and density plus grid-quadrature totals."""

    eta_grid: np.ndarray
    density: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    total: float
    total_normalized: float


def build_spectrum(p: PacketParams, eta_grid=None,
                   n_eta: int = 96) -> SpectrumTable:
    """Tabulate projections and density over an |eta| grid in one array pass."""
    if eta_grid is None:
        eta_grid = default_eta_grid(p.a, n_eta)
    eta_grid = np.asarray(eta_grid, dtype=float)
    c1, c2 = eikonal_projections(eta_grid, p)
    density = _checked_density(eta_grid, p, c1, c2)
    total = float(integrate.simpson(density, x=eta_grid))
    return SpectrumTable(eta_grid=eta_grid, density=density, c1=c1, c2=c2,
                         total=total, total_normalized=total / packet_norm(p))


@dataclass(frozen=True)
class TotalNumber:
    """Integrated creation density with its tail bookkeeping."""

    value: float
    eta_break: float
    tail_value: float
    tail_bound: float


def _angle_integral(rate: float, eps: float, a: float = math.inf,
                    theta_max: float = 0.5 * math.pi) -> float:
    """int_0^theta_max cos sin^(2 eps - 1) e^{-2 rate theta} w_a dtheta.

    The algebraic-weight rule takes the theta^(2 eps - 1) edge at theta = 0
    (eta -> inf); the smooth factor carries (sin(theta)/theta)^(2 eps - 1),
    and w_a = cos / hypot(cos, sin/a) is 1 at a = inf.
    """
    power = 2.0 * eps - 1.0

    def smooth(th):
        s, c = math.sin(th), math.cos(th)
        sinc = s / th if th > 0.0 else 1.0
        return (c * c / math.hypot(c, s / a) * sinc ** power
                * math.exp(-2.0 * rate * th))

    val, _ = integrate.quad(smooth, 0.0, theta_max, weight="alg",
                            wvar=(power, 0.0), epsabs=0.0, epsrel=1e-11,
                            limit=200)
    return float(val)


def total_number(p: PacketParams) -> TotalNumber:
    """Integral of the closed creation density over eta in (0, inf).

    One angle integral, 2 |Gamma0|^2 a^(-2 eps) I(alpha, eps, a).
    tail_value is its part beyond eta_break = 50 (a + 1), i.e. below
    theta_b = atan(a / eta_break); tail_bound = |Gamma0|^2
    eta_break^(-2 eps) / eps dominates it.
    """
    a, eps = p.a, p.eps
    eta_break = 50.0 * (a + 1.0)
    tail = _total_value(p, math.atan(a / eta_break))
    bound = gamma0_modulus_sq(p.alpha, eps) * eta_break ** (-2.0 * eps) / eps
    return TotalNumber(value=_total_value(p), eta_break=eta_break,
                       tail_value=tail, tail_bound=bound)


def _total_value(p: PacketParams, theta_max: float = 0.5 * math.pi) -> float:
    """2 |Gamma0|^2 a^(-2 eps) times the angle integral up to theta_max."""
    scale = 2.0 * gamma0_modulus_sq(p.alpha, p.eps) * p.a ** (-2.0 * p.eps)
    return scale * _angle_integral(p.alpha, p.eps, p.a, theta_max)


def limit_integral(rate: float, eps: float) -> float:
    """I(rate, eps, inf) = int_0^{pi/2} cos sin^(2 eps - 1) e^{-2 rate theta} dtheta.

    In eta = cot(theta) this is int_0^inf eta (eta^2+1)^(-eps-1)
    e^{-2 rate asin(1/sqrt(eta^2+1))} deta.
    """
    return _angle_integral(rate, eps)


def normalized_number_limit(alpha: float, eps: float) -> float:
    """Sharp-localisation limit K I(alpha, eps, inf) of the normalised number."""
    return (2.0 ** (2.0 * eps) * gamma0_modulus_sq(alpha, eps)
            * limit_integral(alpha, eps)
            / (2.0 * math.pi * alpha * special.gamma(2.0 * eps)))


def normalized_number_limit_variant(alpha: float, eps: float) -> float:
    """Variant closed form (prefactor 2^eps, rate 1 in the exponent), for reporting."""
    return (2.0 ** eps * gamma0_modulus_sq(alpha, eps)
            * limit_integral(1.0, eps)
            / (2.0 * math.pi * alpha * special.gamma(2.0 * eps)))


@dataclass(frozen=True)
class SweepRow:
    a: float
    total: float
    total_normalized: float
    limit: float
    residual: float


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    limit: float
    limit_variant: float
    slope: float
    richardson: float

    @property
    def final_relative_residual(self) -> float:
        return self.rows[-1].residual / self.limit


def limit_sweep(p: PacketParams, a_list) -> SweepResult:
    """Normalised totals along an a-sweep against the closed limit.

    slope is the log-log regression exponent of |residual| against a.
    After eta = a*eta' the normalised total differs from the limit only
    through eta'/sqrt(eta'^2 + a^-2), which gives the error model

        v(a) = limit - (c log a + d) / a^2 + O(a^-3),

    with c = K e^{-pi alpha} / 2 (K the limit prefactor).  richardson
    eliminates (limit, c, d) from the last three sweep points under that
    model; with fewer than three points it is the last normalised total.
    """
    lim = normalized_number_limit(p.alpha, p.eps)
    var = normalized_number_limit_variant(p.alpha, p.eps)
    rows = []
    for a in a_list:
        pa = p.with_a(float(a))
        tn = _total_value(pa)
        norm = packet_norm(pa)
        v = tn / norm
        rows.append(SweepRow(a=float(a), total=tn, total_normalized=v,
                             limit=lim, residual=abs(v - lim)))
    res = np.array([r.residual for r in rows])
    a_arr = np.array([r.a for r in rows])
    ok = res > 0.0
    if np.count_nonzero(ok) >= 2:
        slope = float(np.polyfit(np.log(a_arr[ok]), np.log(res[ok]), 1)[0])
    else:
        slope = float("nan")
    if len(rows) >= 3:
        a3 = a_arr[-3:]
        m = np.column_stack([np.ones(3), -np.log(a3) / a3 ** 2, -1.0 / a3 ** 2])
        v3 = np.array([r.total_normalized for r in rows[-3:]])
        rich = np.linalg.solve(m, v3)[0]
    else:
        rich = rows[-1].total_normalized
    return SweepResult(rows=rows, limit=lim, limit_variant=var,
                       slope=slope, richardson=float(rich))
