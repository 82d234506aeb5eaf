"""Complex Gamma machinery and the packet profile's Fourier transform.

The profile s^(eps + i*alpha) * exp(-a*s) on s > 0 has the closed-form
half-line Fourier transform

    F(eta) = int_0^inf e^{i s eta} s^(eps + i alpha) e^{-a s} ds
           = Gamma(w) e^{i pi w / 2} / (eta + i a)^w,   w = 1 + eps + i alpha,

with the principal branch of the complex power, arg(eta + i*a) in (0, pi)
for a > 0.  The phase-rotated Gamma value

    Gamma0(w) = e^{-i pi/2 (i alpha + eps)} Gamma(w)

carries the modulus that survives in all creation-rate formulas:

    |F(eta)|^2 = |Gamma0|^2 e^{-2 alpha asin(a / sqrt(eta^2 + a^2))}
                 / (eta^2 + a^2)^(eps + 1)      (eta <= 0).

The tests pair each closed form with an independent adaptive quadrature
of its defining integral (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "GammaParams",
    "packet_fourier",
    "packet_fourier_modulus_sq",
]


@dataclass(frozen=True)
class GammaParams:
    """Logarithmic phase strength alpha > 0 and regularisation exponent eps."""

    alpha: float
    eps: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("alpha must be finite and positive")
        if not (math.isfinite(self.eps) and 0.0 < self.eps <= 0.5):
            raise ValueError("eps must lie in (0, 1/2]")


def gamma0_modulus_sq(alpha: float, eps: float) -> float:
    """|Gamma0|^2 = e^{pi alpha} |Gamma(1+eps+i*alpha)|^2, formed in log space.

    Formed directly, e^{pi alpha/2} overflows and the Gamma value underflows
    once alpha exceeds about 452, while |Gamma0|^2 grows only like
    alpha^(1 + 2 eps).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive (Gamma(2*eps) finite)")
    return math.exp(math.pi * alpha
                    + 2.0 * special.loggamma(1.0 + eps + 1j * alpha).real)


def packet_fourier(eta, p: GammaParams, a: float):
    """Closed-form transform Gamma(w) e^{i pi w/2} / (eta + i a)^w, w = 1+eps+i*alpha.

    Principal branch throughout; vectorised over eta.
    """
    if a <= 0.0:
        raise ValueError("a must be positive")
    eta = np.asarray(eta, dtype=float)
    w = 1.0 + p.eps + 1j * p.alpha
    z = eta + 1j * a
    # one exponent: the three factors under- and overflow apart at large alpha
    val = np.exp(special.loggamma(w) + 1j * np.pi * w / 2.0 - w * np.log(z))
    return complex(val) if eta.ndim == 0 else val


def packet_fourier_modulus_sq(eta, p: GammaParams, a: float):
    """|F(eta)|^2 via the Gamma0 modulus and the asin phase-exponent, eta <= 0.

    Continuous at eta = 0, where it is |Gamma(w)|^2 / a^(2+2 eps).
    """
    eta = np.asarray(eta, dtype=float)
    if np.any(eta > 0.0):
        raise ValueError("modulus formula uses the eta <= 0 branch")
    r = np.hypot(eta, a)
    return (gamma0_modulus_sq(p.alpha, p.eps)
            * np.exp(-2.0 * p.alpha * np.arcsin(a / r))
            / r ** (2.0 * p.eps + 2.0))
