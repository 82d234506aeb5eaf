"""Complex Gamma machinery and the packet profile's Fourier transform.

The profile s^(eps + i*alpha) * exp(-a*s) on s > 0 has the closed-form
half-line Fourier transform

    F(eta) = int_0^inf e^{i s eta} s^(eps + i alpha) e^{-a s} ds
           = Gamma(w) e^{i pi w / 2} / (eta + i a)^w,   w = 1 + eps + i alpha,

with the principal branch of the complex power, arg(eta + i*a) in (0, pi)
for a > 0.  The phase-rotated Gamma value

    Gamma0(w) = e^{-i pi/2 (i alpha + eps)} Gamma(w)

carries the modulus that survives in all creation-rate formulas:

    |F(eta)|^2 = |Gamma0|^2 e^{-2 alpha atan2(a, |eta|)}
                 / (eta^2 + a^2)^(eps + 1)      (eta <= 0).

Both transforms read alpha, eps and a from packets.PacketParams, whose
eps lies in [packets.EPS_MIN, 1/2]; so loggamma needs, and takes, only
Re z in [1, 3/2].  The tests pair each closed form with an independent
adaptive quadrature of its defining integral (tests/oracles.py), and
loggamma with mpmath.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .packets import PacketParams

__all__ = ["loggamma", "packet_fourier", "packet_fourier_modulus_sq"]

# B_2k / (2k (2k - 1)), k = 1..10: Stirling's series, to an ulp for |z| >= 7
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400, 43867 / 244188, -174611 / 125400)
# ln Gamma(2 + u) = (1 - Euler's gamma) u + sum_k (-1)^k (zeta(k) - 1) u^k / k,
# k = 2..27, to an ulp for |u| <= 1/2
_ONE_MINUS_EULER = 0.42278433509846713
_ZETA_MINUS_1 = (
    0.6449340668482264, 0.2020569031595943, 0.08232323371113819,
    0.03692775514336993, 0.01734306198444914, 0.008349277381922827,
    0.00407735619794434, 0.0020083928260822143, 0.0009945751278180853,
    0.0004941886041194645, 0.0002460865533080483, 0.00012271334757848915,
    6.124813505870483e-05, 3.058823630702049e-05, 1.528225940865187e-05,
    7.637197637899763e-06, 3.81729326499984e-06, 1.908212716553939e-06,
    9.539620338727962e-07, 4.769329867878064e-07, 2.38450502727733e-07,
    1.1921992596531106e-07, 5.960818905125948e-08, 2.980350351465228e-08,
    1.4901554828365043e-08, 7.45071178983543e-09)
_TAYLOR_2 = tuple((-1) ** k * z / k for k, z in enumerate(_ZETA_MINUS_1, 2))


def _stirling_tail(z):
    """Stirling's series of ln Gamma beyond (z - 1/2) ln z - z + ln(2 pi)/2."""
    w = 1.0 / z
    w2, s = w * w, 0.0
    for c in reversed(_STIRLING):
        s = s * w2 + c
    return s * w


def _lgamma_real(x: float) -> float:
    """ln Gamma(x), x in [1, 3/2], to a few ulps of its value also near its
    zero at 1, where math.lgamma is 1e-14 relative off: the Taylor series
    about 2, less ln x below 3/2."""
    # u exact (Sterbenz); ln Gamma(1 + u) = ln Gamma(2 + u) - ln(1 + u)
    if x < 1.5:
        acc, u = -math.log(x), x - 1.0
    else:
        acc, u = 0.0, x - 2.0
    s = 0.0
    for c in reversed(_TAYLOR_2):
        s = (s + c) * u
    return acc + (s + _ONE_MINUS_EULER) * u


@functools.lru_cache(maxsize=256)
def loggamma(z: complex) -> complex:
    """ln Gamma(z) for Re z in [1, 3/2], the packet's 1 + eps, continuous
    from the real axis (the branch of scipy.special.loggamma); cached,
    since each packet reuses its own.  ValueError outside that strip.

    Six steps of upward recurrence, then Stirling's series: with
    w = x + 6 >= 7, ln Gamma(x + iy) = ln Gamma(x) + [ln Gamma(w + iy) -
    ln Gamma(w)] - sum_{k<6} ln(1 + iy/(x + k)).  Each bracketed
    difference is formed from ln(1 + iy/w) and the Stirling tails, so
    nothing cancels against ln Gamma(x): 1e-15 of |value| against mpmath
    over eps in [0.05, 0.5] and alpha in [1e-2, 2000] at
    z = 1 + eps + i alpha.
    """
    x, y = z.real, z.imag
    if not 1.0 <= x <= 1.5:
        raise ValueError(f"loggamma takes Re z in [1, 3/2], not {x!r}")
    w = x + 6.0
    re = im = 0.0
    for k in range(6):
        t = y / (x + k)
        re -= 0.5 * math.log1p(t * t)
        im -= math.atan(t)
    t = y / w
    lw = complex(0.5 * math.log1p(t * t), math.atan2(y, w))  # ln(1 + iy/w)
    d = ((w - 0.5) * lw + 1j * y * (math.log(w) + lw - 1.0)
         + _stirling_tail(complex(w, y)) - _stirling_tail(w))
    return complex(_lgamma_real(x) + re + d.real, im + d.imag)


def gamma0_modulus_sq(alpha: float, eps: float) -> float:
    """|Gamma0|^2 = e^{pi alpha} |Gamma(1+eps+i*alpha)|^2, formed in log space.

    Formed directly, e^{pi alpha/2} overflows and the Gamma value underflows
    once alpha exceeds about 452, while |Gamma0|^2 grows only like
    alpha^(1 + 2 eps).  ValueError for eps outside loggamma's [0, 1/2].
    """
    return math.exp(log_gamma0_modulus_sq(alpha, eps))


def log_gamma0_modulus_sq(alpha: float, eps: float) -> float:
    """ln |Gamma0|^2 = pi alpha + 2 Re ln Gamma(1+eps+i*alpha)."""
    return math.pi * alpha + 2.0 * loggamma(complex(1.0 + eps, alpha)).real


def packet_fourier(eta, p: PacketParams):
    """Closed-form transform Gamma(w) e^{i pi w/2} / (eta + i a)^w, w = 1+eps+i*alpha.

    Principal branch throughout; vectorised over eta.
    """
    w = 1.0 + p.eps + 1j * p.alpha
    z = np.asarray(eta, dtype=float) + 1j * p.a
    # one exponent: the three factors under- and overflow apart at large alpha
    return np.exp(loggamma(w) + 1j * np.pi * w / 2.0 - w * np.log(z))


def packet_fourier_modulus_sq(eta, p: PacketParams):
    """|F(eta)|^2 via the Gamma0 modulus and the phase-exponent angle, eta <= 0.

    The angle is atan2(a, |eta|): asin(a / hypot(eta, a)) loses digits as
    it nears pi/2, and rounds to it once |eta|/a falls below about 1.5e-8.
    Continuous at eta = 0, where it is |Gamma(w)|^2 / a^(2+2 eps).
    """
    eta = np.asarray(eta, dtype=float)
    if np.any(eta > 0.0):
        raise ValueError("modulus formula uses the eta <= 0 branch")
    r = np.hypot(eta, p.a)
    return (gamma0_modulus_sq(p.alpha, p.eps)
            * np.exp(-2.0 * p.alpha * np.arctan2(p.a, np.abs(eta)))
            / r ** (2.0 * p.eps + 2.0))
