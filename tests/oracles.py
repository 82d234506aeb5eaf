"""Independent scalar oracles for the closed creation density and its totals.

These are the eta-space forms the package used before its totals became
one angle integral: the density point by point, and the totals as an
adaptive head over (0, 50 (a + 1)] with breakpoints at a and 3a plus a
u = 1/eta tail.  They share no code path with sonicbh.spectrum's array
density or its angle integral.
"""

import math

import numpy as np
from scipy import integrate

from sonicbh.gammatools import gamma0_modulus_sq
from sonicbh.packets import PacketParams
from sonicbh.spectrum import TotalNumber

_QUAD_KW = dict(epsabs=1e-14, epsrel=1e-11, limit=800)


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


def eta_total_number(p: PacketParams) -> TotalNumber:
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


def eta_limit_integral(alpha: float, eps: float,
                       alpha_in_exponent: bool = True) -> float:
    """J = int_0^inf eta (eta^2+1)^(-eps-1) e^{-2 c asin(1/sqrt(eta^2+1))} deta.

    c = alpha normally; c = 1 for the alpha-free variant exponent.  Same
    head/tail split as eta_total_number (the tail endpoint is u^(2 eps - 1)).
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
