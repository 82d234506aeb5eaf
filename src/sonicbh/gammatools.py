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

Each closed form is paired with an independent adaptive-quadrature
evaluation of its defining integral; the oscillatory Gamma0 integral is
regularised by rotating the contour into the decaying sector, which is
exact for this integrand class and needs no tuning parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

__all__ = [
    "GammaParams",
    "gamma0",
    "gamma0_quadrature",
    "arg_eta_plus_ia",
    "packet_fourier",
    "packet_fourier_modulus_sq",
    "packet_fourier_quadrature",
    "selftest_checks",
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


def gamma0(p: GammaParams) -> complex:
    """Gamma0(i*alpha + eps + 1) = e^{pi alpha/2} e^{-i pi eps/2} Gamma(1+eps+i*alpha)."""
    return _gamma0(p.alpha, p.eps)


def _gamma0(alpha: float, eps: float) -> complex:
    if eps <= 0.0:
        raise ValueError("eps must be positive (Gamma(2*eps) finite)")
    return complex(np.exp(np.pi * alpha / 2.0)
                   * np.exp(-1j * np.pi * eps / 2.0)
                   * special.gamma(1.0 + eps + 1j * alpha))


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


def _quad_complex(f, a, b, **kw):
    kw.setdefault("epsabs", 1e-13)
    kw.setdefault("epsrel", 1e-11)
    kw.setdefault("limit", 400)
    re = integrate.quad(lambda x: f(x).real, a, b, **kw)[0]
    im = integrate.quad(lambda x: f(x).imag, a, b, **kw)[0]
    return re + 1j * im


def gamma0_quadrature(alpha: float, eps: float, theta: float = np.pi / 4) -> complex:
    """Gamma0 from its defining oscillatory integral i*int_0^inf y^(i alpha+eps) e^{-iy} dy.

    The ray y = r e^{-i theta}, theta in (0, pi/2], turns the integrand into
    a decaying oscillation (envelope e^{-r sin theta}); the arc contribution
    vanishes in the improper-limit sense, so the rotated integral is exact.
    """
    if not 0.0 < theta <= np.pi / 2:
        raise ValueError("theta must lie in (0, pi/2]")
    pref = 1j * np.exp(-1j * theta * (1j * alpha + eps + 1.0))

    def f(r):
        return np.exp((1j * alpha + eps) * np.log(r) - 1j * r * np.exp(-1j * theta))

    return complex(pref * _quad_complex(f, 0.0, np.inf))


def arg_eta_plus_ia(eta: float, a: float) -> float:
    """Principal argument of eta + i*a for eta < 0, a > 0: pi - asin(a/sqrt(eta^2+a^2))."""
    if eta >= 0.0:
        raise ValueError("eta must be negative")
    if a <= 0.0:
        raise ValueError("a must be positive")
    return math.pi - math.asin(a / math.hypot(eta, a))


def packet_fourier(eta, p: GammaParams, a: float):
    """Closed-form transform Gamma(w) e^{i pi w/2} / (eta + i a)^w, w = 1+eps+i*alpha.

    Principal branch throughout; vectorised over eta.
    """
    if a <= 0.0:
        raise ValueError("a must be positive")
    return _packet_fourier(np.asarray(eta, dtype=float), p.alpha, p.eps, a)


def _packet_fourier(eta, alpha: float, eps: float, a: float):
    w = 1.0 + eps + 1j * alpha
    z = eta + 1j * a
    # one exponent: the three factors under- and overflow apart at large alpha
    val = np.exp(special.loggamma(w) + 1j * np.pi * w / 2.0 - w * np.log(z))
    return complex(val) if np.isscalar(eta) or np.ndim(eta) == 0 else val


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


def packet_fourier_quadrature(eta: float, alpha: float, eps: float, a: float,
                              tail: float = 40.0) -> complex:
    """Direct adaptive quadrature of the defining integral.

    Truncated at s = tail/a where the e^{-a s} envelope leaves a relative
    remainder below ~e^(-tail); the slow chirp alpha*ln(s) is folded into
    the amplitude and the e^{i eta s} oscillation is handled by a weighted
    (Fourier) rule away from the algebraic endpoint.
    """
    if a <= 0.0:
        raise ValueError("a must be positive")
    cut = tail / a

    def amp(s):
        return np.exp((eps + 1j * alpha) * np.log(s) - a * s)

    # endpoint piece: at most a fraction of an oscillation across it
    split = min(cut, 0.25 / max(abs(eta), 1e-30), 1.0 / a)
    head = _quad_complex(lambda s: amp(s) * np.exp(1j * eta * s), 0.0, split)
    if split >= cut:
        return complex(head)

    kw = dict(epsabs=1e-13, epsrel=1e-11, limit=400)
    parts = []
    for comp in (lambda s: amp(s).real, lambda s: amp(s).imag):
        cos_part = integrate.quad(comp, split, cut, weight="cos", wvar=eta, **kw)[0]
        sin_part = integrate.quad(comp, split, cut, weight="sin", wvar=eta, **kw)[0]
        parts.append((cos_part, sin_part))
    (rc, rs), (ic, is_) = parts
    # (Re + i Im)(cos + i sin)
    body = (rc - is_) + 1j * (rs + ic)
    return complex(head + body)


def selftest_checks(verbose: bool = False) -> list[tuple[str, bool, str]]:
    """Cross-checks of every closed form against its quadrature twin.

    Returns (name, passed, detail) rows suitable for a pass/fail table.
    """
    rows: list[tuple[str, bool, str]] = []

    def record(name, rel, tol):
        rows.append((name, bool(rel < tol), f"rel_err={rel:.3e} tol={tol:.0e}"))

    for alpha in (0.5, 1.0, 2.0):
        for eps in (0.1, 0.25, 0.5):
            c = _gamma0(alpha, eps)
            q = gamma0_quadrature(alpha, eps)
            record(f"gamma0 quadrature alpha={alpha} eps={eps}",
                   abs(c - q) / abs(c), 1e-8)

    p = GammaParams(alpha=1.0, eps=0.25)
    for eta in (-0.5, -2.0, -8.0, -32.0):
        c = packet_fourier(eta, p, 1.0)
        q = packet_fourier_quadrature(eta, p.alpha, p.eps, 1.0)
        record(f"packet_fourier quadrature eta={eta}", abs(c - q) / abs(c), 1e-8)
        m = packet_fourier_modulus_sq(eta, p, 1.0)
        record(f"packet_fourier modulus identity eta={eta}",
               abs(abs(c) ** 2 - m) / m, 1e-10)

    for eta, a in ((-1.0, 1.0), (-3.0, 0.5), (-0.2, 2.0)):
        lhs = arg_eta_plus_ia(eta, a)
        rel = abs(lhs - math.atan2(a, eta)) / lhs
        record(f"arg(eta+ia) vs atan2 eta={eta} a={a}", rel, 1e-14)

    # The e^{pi alpha/2} prefactor makes |Gamma0| itself grow with alpha; the
    # decaying quantity is the bare Gamma modulus |Gamma(1+eps+i alpha)|.
    alphas = np.linspace(0.1, 5.0, 25)
    bare = [abs(_gamma0(al, 0.25)) * math.exp(-math.pi * al / 2.0) for al in alphas]
    mono = bool(np.all(np.diff(bare) < 0.0))
    rows.append(("|Gamma(1+eps+i alpha)| monotone decreasing in alpha", mono,
                 "eps=0.25, alpha in [0.1, 5]"))
    return rows
