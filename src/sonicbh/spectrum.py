"""Klein-Gordon pairing, projection coefficients, and created-particle counts.

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
table is one array pass, with both evaluations computed and cross-checked
as arrays.  The scalar creation_density_closed serves the adaptive totals.

Integrated counts: after eta = a*eta', the normalised total converges to

    limit = 2^(2 eps) |Gamma0|^2 / (2 pi alpha Gamma(2 eps))
            * int_0^inf eta (eta^2+1)^(-eps-1)
                        e^{-2 alpha asin(1/sqrt(eta^2+1))} deta .

A variant with prefactor 2^eps and an alpha-free exponent is also
provided for side-by-side reporting; the two coincide only at alpha = 1
up to the 2^(-eps) prefactor ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import GridMismatchError, ToleranceError
from .flow import VelocityProfile
from .gammatools import (gamma0_modulus_sq, packet_fourier,
                         packet_fourier_modulus_sq)
from .packets import FieldOnGrid, PacketParams, gamma_tilde, packet_norm

__all__ = [
    "kg_inner",
    "eikonal_projections",
    "creation_density",
    "creation_density_closed",
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

_QUAD_KW = dict(epsabs=1e-14, epsrel=1e-11, limit=800)


def kg_inner(u: FieldOnGrid, v: FieldOnGrid, x0: float,
             profile: VelocityProfile) -> complex:
    """Conserved pairing of two sampled fields on a common radial grid.

    Composite Simpson quadrature of the full bracket times rho, times the
    2 pi azimuthal factor.  Satisfies <v, u> = conj(<u, v>) and <u, u>
    real by construction of the bracket.
    """
    if u.rho.shape != v.rho.shape or not np.array_equal(u.rho, v.rho):
        raise GridMismatchError("fields sampled on different radial grids")
    a_over_rho = profile.eval(x0) / u.rho
    bracket = (np.conj(u.value) * v.d_dx0 - np.conj(u.d_dx0) * v.value
               + a_over_rho * (np.conj(u.value) * v.d_drho
                               - np.conj(u.d_drho) * v.value))
    return complex(2.0j * math.pi
                   * integrate.simpson(bracket * u.rho, x=u.rho))


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


def creation_density_closed(eta_abs: float, p: PacketParams) -> float:
    """Closed-form creation density at |eta| = eta_abs (zero at eta = 0).

    Scalar on purpose: the adaptive quadrature of total_number calls it
    point by point, where math runs several times faster than the array
    form of creation_density.
    """
    if eta_abs < 0.0:
        raise ValueError("eta_abs must be nonnegative")
    if eta_abs == 0.0:
        return 0.0
    g2 = gamma0_modulus_sq(p.alpha, p.eps)
    r = math.hypot(eta_abs, p.a)
    return (2.0 * eta_abs ** 2 * g2
            * math.exp(-2.0 * p.alpha * math.asin(p.a / r))
            / (math.hypot(eta_abs, 1.0) * r ** (2.0 * p.eps + 2.0)))


def creation_density(eta_abs, p: PacketParams):
    """Creation density over an array of |eta|, cross-checked to 1e-10 relative.

    The closed side is 2 eta^2 |F(-eta)|^2 / sqrt(eta^2+1); the pair side
    is -4 Re(c1 conj(c2)) of eikonal_projections.  The closed side is
    returned.
    """
    eta_abs = np.asarray(eta_abs, dtype=float)
    pair = density_from_projections(*eikonal_projections(eta_abs, p))
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
    density = creation_density(eta_grid, p)
    total = float(integrate.simpson(density, x=eta_grid))
    return SpectrumTable(eta_grid=eta_grid, density=density, c1=c1, c2=c2,
                         total=total, total_normalized=total / packet_norm(p))


@dataclass(frozen=True)
class TotalNumber:
    """Adaptive-quadrature total with its tail bookkeeping."""

    value: float
    eta_break: float
    tail_value: float
    tail_bound: float


def total_number(p: PacketParams) -> TotalNumber:
    """Integral of the closed creation density over eta in (0, inf).

    Head: adaptive quadrature to eta_break = 50 (a + 1).  Tail: the
    substitution u = 1/eta maps the algebraic eta^(-2 eps - 1) falloff to
    a u^(2 eps - 1) endpoint handled by an algebraic-weight rule; the
    recorded tail_bound |Gamma0|^2 eta_break^(-2 eps) / eps dominates the
    exact tail and certifies the truncation of the head alone.
    """
    g2 = gamma0_modulus_sq(p.alpha, p.eps)
    a, alpha, eps = p.a, p.alpha, p.eps
    eta_break = 50.0 * (a + 1.0)

    head, _ = integrate.quad(lambda e: creation_density_closed(e, p),
                             0.0, eta_break, points=[a, 3.0 * a], **_QUAD_KW)

    def tail_smooth(u):
        r2 = 1.0 + (a * u) ** 2
        return (2.0 * g2 * np.exp(-2.0 * alpha * np.arcsin(a * u / np.sqrt(r2)))
                / (np.sqrt(1.0 + u * u) * r2 ** (eps + 1.0)))

    tail, _ = integrate.quad(tail_smooth, 0.0, 1.0 / eta_break,
                             weight="alg", wvar=(2.0 * eps - 1.0, 0.0),
                             epsabs=1e-15, epsrel=1e-11, limit=400)
    bound = g2 * eta_break ** (-2.0 * eps) / eps
    return TotalNumber(value=float(head + tail), eta_break=eta_break,
                       tail_value=float(tail), tail_bound=float(bound))


def limit_integral(alpha: float, eps: float, alpha_in_exponent: bool = True) -> float:
    """J = int_0^inf eta (eta^2+1)^(-eps-1) e^{-2 c asin(1/sqrt(eta^2+1))} deta.

    c = alpha normally; c = 1 for the alpha-free variant exponent.  Same
    head/tail split as total_number (the tail endpoint is u^(2 eps - 1)).
    """
    c = alpha if alpha_in_exponent else 1.0
    brk = 50.0

    def f(e):
        q = e * e + 1.0
        return e * q ** -(eps + 1.0) * np.exp(-2.0 * c * np.arcsin(1.0 / np.sqrt(q)))

    head, _ = integrate.quad(f, 0.0, brk, **_QUAD_KW)

    def tail_smooth(u):
        q = 1.0 + u * u
        return np.exp(-2.0 * c * np.arcsin(u / np.sqrt(q))) / q ** (eps + 1.0)

    tail, _ = integrate.quad(tail_smooth, 0.0, 1.0 / brk, weight="alg",
                             wvar=(2.0 * eps - 1.0, 0.0),
                             epsabs=1e-15, epsrel=1e-11, limit=400)
    return float(head + tail)


def normalized_number_limit(alpha: float, eps: float) -> float:
    """Sharp-localisation limit of the normalised created-particle number."""
    return (2.0 ** (2.0 * eps) * gamma0_modulus_sq(alpha, eps)
            * limit_integral(alpha, eps)
            / (2.0 * math.pi * alpha * special.gamma(2.0 * eps)))


def normalized_number_limit_variant(alpha: float, eps: float) -> float:
    """Variant closed form (prefactor 2^eps, alpha-free exponent), for reporting."""
    return (2.0 ** eps * gamma0_modulus_sq(alpha, eps)
            * limit_integral(alpha, eps, alpha_in_exponent=False)
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
        tn = total_number(pa).value
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
