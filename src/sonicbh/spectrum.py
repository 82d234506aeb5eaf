"""Projections onto the Klein-Gordon pairing and created-particle counts.

The conserved pairing between two azimuthally symmetric fields is

    <u, v> = 2 pi i int_0^inf (u* Dv - (Du)* v) rho drho = 2 pi (c1 - c2),

with D = d/dx0 + (A(x0)/rho) d/drho the flow derivative, the canonical
momentum of the acoustic metric, and c1, c2 its two sides.  The creation
density is the squared pairing |<u, v>|^2 / (4 pi^2) = |c1 - c2|^2
(density_from_projections), the one combination for every mode and time.
For the packet against the eikonal at wavenumber -eta (eta > 0 here labels
|eta|) at x0 = 0, the drift terms -A/(2 rho^2) of D E and D C0 cancel in
c1 - c2, which is then closed:

    c1 - c2 = 2 |eta| gt(eta) e^{-i |eta| sigma*} F(-|eta|),

with gt(eta) = 2^(-1/2) (eta^2+1)^(-1/4) and F the closed-form profile
transform.  eikonal_projections returns its symmetric split (c1, -c1), so
the density is exactly, not to leading order,

    n(eta) = 2 eta^2 |Gamma0|^2 e^{-2 alpha atan(a / eta)}
             / ( sqrt(eta^2+1) (eta^2 + a^2)^(eps+1) ),   eta > 0,

which is manifestly nonnegative and vanishes quadratically as eta -> 0;
at eta = 0 both it and the squared pairing are an exact +0.
The same two sides taken on quadrature nodes also carry c1 + c2, which
the combination cancels.  The projections and the density are vectorised
over |eta|: a spectrum table is one array pass, with both evaluations
computed once and cross-checked as arrays.

Integrated counts: with eta = a cot(theta), theta is the angle of the
density's exponent and

    n deta = 2 |Gamma0|^2 a^(-2 eps) cos sin^(2 eps - 1) e^{-2 alpha theta}
             w_a dtheta,    w_a = a cos / sqrt(a^2 cos^2 + sin^2),

over theta in (0, pi/2).  Divided by the packet norm the total is
K I(alpha, eps, a), K = 2^(2 eps) |Gamma0|^2 / (2 pi alpha Gamma(2 eps)),
with I the theta integral; w_a -> 1 as a -> inf gives the
sharp-localisation limit K I(alpha, eps, inf).  Every theta integral is
one fixed Gauss rule summed in one array pass (_angle_integral), with
Gauss-Jacobi nodes at the sin^(2 eps - 1) edge; it matches the adaptive
algebraic-weight rule it replaced, kept as a test oracle, to 1e-11
relative.  A variant with prefactor
2^eps and rate 1 in the exponent is reported beside it; the two coincide
only at alpha = 1 up to the 2^(-eps) prefactor ratio.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError
from .gammatools import (gamma0_modulus_sq, packet_fourier,
                         packet_fourier_modulus_sq)
from .packets import PacketParams, gamma_tilde, gauss_panels, packet_norm

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
# a run's budget of spectrum rows, n_eta x len(a_sweep): one table peaks
# at 104 bytes an eta (sonicbh spectrum: 33 MB resident at n_eta = 24, 138
# MB at 2^20), and a full budget at the five default a values wrote 103 MB
# of CSV in 1.4 s at 81 MB resident (2-core Intel Xeon)
MAX_N_ETA = 1_200_000
_TINY = np.finfo(float).tiny


def eikonal_projections(eta_abs, p: PacketParams):
    """Projection pair (c1, c2) over an array of |eta| >= 0 (eta = -|eta|).

    The symmetric split (c, -c) of the closed pairing c1 - c2 = 2c, with
    c = |eta| gt(eta) e^{-i |eta| sigma*} F(-|eta|) (verified against
    direct quadrature in the tests).  Both members vanish linearly as
    eta -> 0 and are an exact +0 pair at eta = 0.
    """
    eta_abs = np.asarray(eta_abs, dtype=float)
    if np.any(eta_abs < 0.0):
        raise ValueError("eta_abs must be nonnegative")
    eta = -eta_abs
    phase = np.exp(1j * eta * p.sigma_star) * packet_fourier(eta, p)
    c1 = -eta * gamma_tilde(eta) * phase
    # the product's sign of zero follows the phase; the table wants +0
    at_zero = eta_abs == 0.0
    return np.where(at_zero, 0j, c1), np.where(at_zero, 0j, -c1)


def density_from_projections(c1, c2):
    """Creation density |c1 - c2|^2, the squared pairing of a projection pair."""
    d = c1 - c2
    return (d * np.conj(d)).real


def creation_density(eta_abs, p: PacketParams):
    """Creation density over an array of |eta|, cross-checked to 1e-10 relative.

    The closed side is 2 eta^2 |F(-eta)|^2 / sqrt(eta^2+1); the pair side
    is the squared pairing of eikonal_projections.  The closed side is
    returned.
    """
    eta_abs = np.asarray(eta_abs, dtype=float)
    return _checked_density(eta_abs, p, *eikonal_projections(eta_abs, p))


def _checked_density(eta_abs: np.ndarray, p: PacketParams, c1, c2):
    """Closed density at eta_abs, checked against the squared pairing of
    the given projection pair, which computes the same number by another
    route (the complex transform F rather than its modulus)."""
    pair = density_from_projections(c1, c2)
    # eta^2 makes the closed side an exact +0 at eta = 0, as the pair side
    # is; |F|^2 is taken at a stand-in |eta| = 1 there, since |F(0)|^2 =
    # |Gamma0|^2 a^-(2+2eps) overflows at small a
    stand_in = np.where(eta_abs > 0.0, eta_abs, 1.0)
    closed = (2.0 * eta_abs ** 2 / np.hypot(eta_abs, 1.0)
              * packet_fourier_modulus_sq(-stand_in, p))
    # below the smallest normal float both sides have lost their digits
    bad = ~(np.abs(pair - closed) <= DENSITY_IDENTITY_RTOL * np.abs(closed)
            + _TINY)
    if np.any(bad):
        k = np.flatnonzero(bad)[0]
        raise ToleranceError(
            f"density identity violated at eta={eta_abs.flat[k]}: "
            f"pair={pair.flat[k]} closed={closed.flat[k]}")
    return closed


def _eta_top(a: float) -> float:
    """Top of the eta table at rate a: the density tail beyond is negligible."""
    return 50.0 * (a + 1.0)


def default_eta_grid(a: float, n: int = 96) -> np.ndarray:
    """Zero plus a geometric grid from 1e-3 max(a, 1) up to _eta_top(a)."""
    lo = 1e-3 * max(a, 1.0)
    return np.concatenate([[0.0], np.geomspace(lo, _eta_top(a), n - 1)])


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule over samples y on the increasing grid x,
    operation for operation as scipy.integrate's rule computes it with x
    given, so its results are bitwise scipy's: parabolas through pairs of
    intervals, and for an even number of samples the last interval by
    Cartwright's correction (for two samples, the trapezoid)."""
    n = len(y)
    h = np.diff(x)
    if n == 2:
        return float(0.5 * h[-1] * (y[-1] + y[-2]))
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, ratio = h0 + h1, h0 / h1
    total = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                                 + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                 + y[2:stop + 2:2] * (2.0 - ratio)))
    if n % 2 == 0:
        h0, h1 = np.asarray(h[-2]), np.asarray(h[-1])
        last = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
        mid = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
        first = h1 ** 3 / (6 * h0 * (h0 + h1))
        total += last * y[-1] + mid * y[-2] - first * y[-3]
    return float(total)


@dataclass(frozen=True)
class SpectrumTable:
    """Per-eta projections and density plus their grid-quadrature total."""

    eta_grid: np.ndarray
    density: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    total: float


# the fewest eta points of a table: at 16 Simpson misses the head
# integral by up to 15%
N_ETA_MIN = 24


def build_spectrum(p: PacketParams, n_eta: int = 96) -> SpectrumTable:
    """Tabulate projections and density over default_eta_grid(a, n_eta)
    in one array pass."""
    eta_grid = default_eta_grid(p.a, n_eta)
    c1, c2 = eikonal_projections(eta_grid, p)
    density = _checked_density(eta_grid, p, c1, c2)
    # Simpson on the grid over a power of two near max(a, 1), which keeps
    # the total's bits and the cubed last step h1^3 finite at large a
    scale = 2.0 ** math.frexp(max(p.a, 1.0))[1]
    total = scale * _simpson(density, eta_grid / scale)
    return SpectrumTable(eta_grid=eta_grid, density=density, c1=c1, c2=c2,
                         total=total)


@dataclass(frozen=True)
class TotalNumber:
    """Integrated creation density with its tail bookkeeping."""

    value: float
    tail_value: float
    tail_bound: float


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


def _angle_integral(rate: float, eps: float, a: float = math.inf,
                    theta_max: float = 0.5 * math.pi) -> float:
    """int_0^theta_max cos sin^(2 eps - 1) e^{-2 rate theta} w_a dtheta.

    A fixed Gauss rule, summed in one array pass: Gauss-Jacobi for the
    theta^(2 eps - 1) edge at theta = 0 (eta -> inf) on [0, h], h =
    min(theta_max, 1/max(rate, 1), a/2), inside the scales of the
    exponential and of w_a = cos / hypot(cos, sin/a) near 0; then
    Gauss-Legendre panels doubling up to pi/4; and, for finite a, panels
    graded toward pi/2, with edges at pi/2 - phi for phi doubling from
    1/(4a), since w_a turns within about 1/a of pi/2.
    """
    power = 2.0 * eps - 1.0
    h = min(theta_max, 1.0 / max(rate, 1.0), 0.5 * a)
    mid = min(theta_max, max(h, 0.25 * math.pi))
    edges = [h]
    while 2.0 * edges[-1] < mid:
        edges.append(2.0 * edges[-1])
    if mid > h:
        edges.append(mid)
    if mid < theta_max:
        if a < math.inf:
            graded, phi = [], 0.25 / a
            while phi < 0.5 * math.pi - mid:
                graded.append(0.5 * math.pi - phi)
                phi *= 2.0
            edges += [e for e in reversed(graded) if e < theta_max]
        edges.append(theta_max)
    t, w = _gauss_jacobi(power)
    th, wt = gauss_panels(edges)
    th = np.concatenate([h * t, th])
    wt = np.concatenate([h * w, wt])
    s, c = np.sin(th), np.cos(th)
    f = c * s ** power * np.exp(-2.0 * rate * th)
    if a < math.inf:
        f *= c / np.hypot(c, s / a)
    return float(np.dot(wt, f))


def total_number(p: PacketParams) -> TotalNumber:
    """Integral of the closed creation density over eta in (0, inf).

    One angle integral, 2 |Gamma0|^2 a^(-2 eps) I(alpha, eps, a).
    tail_value is its part beyond the table's top eta_break = _eta_top(a),
    i.e. below theta_b = atan(a / eta_break); tail_bound = |Gamma0|^2
    eta_break^(-2 eps) / eps dominates it.
    """
    a, eps = p.a, p.eps
    eta_break = _eta_top(a)
    tail = _total_value(p, math.atan(a / eta_break))
    bound = gamma0_modulus_sq(p.alpha, eps) * eta_break ** (-2.0 * eps) / eps
    return TotalNumber(value=_total_value(p), tail_value=tail,
                       tail_bound=bound)


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
            / (2.0 * math.pi * alpha * math.gamma(2.0 * eps)))


def normalized_number_limit_variant(alpha: float, eps: float) -> float:
    """Variant closed form (prefactor 2^eps, rate 1 in the exponent), for reporting."""
    return (2.0 ** eps * gamma0_modulus_sq(alpha, eps)
            * limit_integral(1.0, eps)
            / (2.0 * math.pi * alpha * math.gamma(2.0 * eps)))


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


# the largest a of a sweep: the Richardson column a^-2 is a normal float
# while ln a <= -ln(min)/2, up to 2^511 = 6.7e153, far below where 2a
# overflows (9e307)
A_SWEEP_MAX = sys.float_info.min ** -0.5


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
        # least-squares line through (log a, log residual)
        x, y = np.log(a_arr[ok]), np.log(res[ok])
        x = x - x.mean()
        slope = float(np.dot(x, y - y.mean()) / np.dot(x, x))
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
