"""Direct finite-difference solution of the radial wave equation.

The radial flow v = A(x0)/rho has div v = 0, so for a massless field the
2+1 acoustic wave operator factorises through the drift derivative
D = d/dx0 + (A(x0)/rho) d/drho:

    L f = D^2 f - (d^2 f/drho^2 + (1/rho) df/drho) = 0,

stepped as the first-order system (f, g) with g = D f:

    df/dx0 = g - (A/rho) df/drho,
    dg/dx0 = d^2 f/drho^2 + (1/rho) df/drho - (A/rho) dg/drho,

with classic RK4 in time by solve_cauchy, the one stepper, whose data at
x0 = 0 and recorded FieldOnGrid states are its own (f, g): the format in
which the packet, the mode data and the eikonal are sampled too.  The drift
speed A/rho is negative everywhere, so its derivative is the third-order
stencil biased toward larger rho (the inflow side); the wave term's first
and second derivatives are centred and fourth order; every stencil drops
to second order in its edge rows.  Inside the horizon both characteristic
speeds point inward, so the inner edge, derived from the flow (inner_edge),
is pure outflow and one-sided stencils suffice there (solve_cauchy refuses
an inner edge where |A| does not exceed rho_min with ConfigError, as
RadialGrid does an outer edge at or below it); the outer edge carries a
sponge layer that damps what the data window lets by.  The time step is 0.9
of RK4's step limit for the coupled interior system the solver steps, with
the drift at its fastest over the solve: its frozen symbol is
v U(theta) +- i sqrt|D2(theta)|, the upwind and second-derivative symbols
in units of 1/drho, so in units of drho the limit depends on the speed v
alone (RadialGrid.cfl_dt).

The coefficients of the system are real, so the real and imaginary parts
evolve apart: the stepper holds one real (4, n) state, rows Re f, Im f,
Re g, Im g, in preallocated buffers.  Its coefficients are folded before
the steps: A(x0) is read at every stage time into a table, the upwind
stencil carries -1/rho and its kernel is scaled by each stage's A, and
d^2/drho^2 + (1/rho) d/drho is one stencil with a coefficient vector over
rho.  The right-hand side is bound to the buffers and the table once, so a
step runs its array arithmetic alone.  Each stencil term is one
np.correlate over the shared forward differences of the state.

The exact mode at wavenumber eta < 0 is started from the data that the
eikonal matches in value (gamma e^{-i eta rho}) and misses in the
frequency of its D value (sqrt(eta^2+1) against |eta|), so the difference
field away from x0 = 0 isolates the transport and frequency remainders of
the eikonal.  The module measures how fast those remainders fall with the
localisation rate a and with |eta| through the creation density, the
squared pairing |c1 - c2|^2 of spectrum.  At x0 = 0 both densities are
closed: the eikonal's is spectrum.creation_density, and the exact mode's
is that times ((|eta| + sqrt(eta^2+1)) / (2|eta|))^2, a ratio of eta
alone.  On evolved grids the pair is taken on transported Gauss nodes,
with the mode's (f, g) interpolated onto them by a local cubic.  The pair
is the conserved pairing in its D form, 2 pi i int (u* Dv - (Du)* v) rho
drho, which carries no separate drift term.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (ConfigError, InstabilityError, ResolutionError,
                     ToleranceError)
from .flow import FlowMap, VelocityProfile, transport
from .gammatools import packet_fourier_modulus_sq
from .packets import (FieldOnGrid, PacketParams, eikonal_values,
                      gauss_panels, mode_initial_data, packet_values)
from .spectrum import creation_density, density_from_projections

__all__ = [
    "RadialGrid",
    "smooth_window",
    "solve_cauchy",
    "solve_mode",
    "PacketQuadrature",
    "packet_quadrature",
    "evolved_projection_densities",
    "RemainderRow",
    "RemainderReport",
    "remainder_contribution",
    "predicted_point_steps",
    "inner_edge",
]

STEP_SAFETY = 0.9
# discr_estimate divides the fine-coarse gap by 2^4 - 1, which assumes h^4
# convergence; the rows converge like h^3.2, so it reads about 2x low
DISCR_DIVISOR = 15.0
GROWTH_BOUND = 5.0  # per-step sup-norm growth that flags blow-up
GROWTH_LIMIT = 10.0  # sup-norm growth over the initial state that flags it
# steps per A(x0) table: the stepper's scaled stencils stay under 0.4 MB
# at any step count
_TABLE_STEPS = 512
# a step's fixed cost in point-steps: solve_mode at eta = -4 on the default
# flow takes 72-81 ns a point and 67-70 us a step at 87 to 4096 points
# (best of 5, 2-core Intel Xeon), so N_STEP = 850-980
N_STEP = 900
# pde-verify's work budget (AC7d) in steps x (n_rho + N_STEP), fine solve
# plus twin: at 1024 points it admits what 1.2e9 plain point-steps did,
# 936 950 fine steps at the defaults.  That is about 3 minutes of stepping
# from 87 to 4096 points; NRHO_MAX keeps it within 5 minutes above them
MAX_POINT_STEPS = 2.465298e9
# the largest power of two of points at which MAX_POINT_STEPS units take
# at most 5 minutes, as a unit grows more costly with the grid: 114-115 ns
# at 8192 points (281-284 s), 127-131 ns at 16 384 (314-323 s), 205 ns at
# 114 037 (solve_mode at eta = -4, best of 3, 2-core Intel Xeon)
NRHO_MAX = 8192
# the fewest points of a wave grid; NRHO_MIN is the smallest n_rho whose
# coarse twin, n_rho // 2 + 1 points, keeps that many
MIN_POINTS = 16
NRHO_MIN = 2 * (MIN_POINTS - 1)
POINTS_PER_WAVELENGTH = 16
A_VALUES = (8.0, 16.0, 32.0)  # localisation rates of the remainder sweep
EVOLVE_ETA = -4.0  # wavenumber of the evolved remainder rows
INNER_EDGE = 0.8  # the wave grid's inner edge over min(|A-|, |A+|)


def inner_edge(profile: VelocityProfile) -> float:
    """The wave grid's inner edge.  |A| and the separatrix stay at or above
    min(|A-|, |A+|), so the edge, INNER_EDGE times that, takes outflow
    below the packet."""
    return INNER_EDGE * min(abs(profile.a_minus), abs(profile.a_plus))


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid and time step for the wave stepper; ConfigError
    names grid_rho_max when rho_max does not exceed rho_min, the inner edge."""

    rho_min: float
    rho_max: float
    n_rho: int
    dt: float

    def __post_init__(self) -> None:
        if self.rho_min <= 0.0:
            raise ValueError("rho_min must be positive")
        if not self.rho_max > self.rho_min:
            raise ConfigError(f"grid_rho_max must exceed the wave grid's "
                              f"inner edge {self.rho_min:g}")
        if self.n_rho < MIN_POINTS:
            raise ValueError("n_rho too small")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")

    @property
    def rho(self) -> np.ndarray:
        return np.linspace(self.rho_min, self.rho_max, self.n_rho)

    @property
    def drho(self) -> float:
        return (self.rho_max - self.rho_min) / (self.n_rho - 1)

    def cfl_dt(self, a_max: float) -> float:
        """STEP_SAFETY times RK4's step limit for the interior drift+wave
        system with the drift at its fastest speed v = a_max/rho_min:
        drho times the limit of the frozen symbol v U +- i sqrt|D2|, which
        depends on v alone (_joint_step_limit)."""
        return (STEP_SAFETY * self.drho
                * _joint_step_limit(a_max / self.rho_min))

    def steps(self, t: float) -> int:
        """The number of steps to x0 = t; ValueError unless t is a positive
        whole number of steps, up to rounding."""
        n = t / self.dt
        k = round(n) if math.isfinite(n) else 0
        if k < 1 or abs(n - k) > 1e-9 * k:
            raise ValueError(f"x0 = {t!r} is not a whole number of steps "
                             f"dt = {self.dt!r}")
        return k

    @classmethod
    def auto(cls, rho_min: float, rho_max: float, n_rho: int,
             profile: VelocityProfile, t_final: float) -> "RadialGrid":
        """The grid with the largest step within cfl_dt, the stencils' RK4
        step bound at max|A| over [0, t_final], for which t_final/2 and
        t_final are whole steps: dt = t_final/(2m).  rho_min is the inner
        edge, for a flow's wave grid inner_edge(profile).

        ConfigError when t_final is not positive, rho_max does not exceed
        rho_min, the step count overflows a float or dt falls below the
        smallest normal float, where t_final/dt loses its digits.
        """
        if not t_final > 0.0:
            raise ConfigError("tfinal must be positive")
        cfl_dt = cls(rho_min, rho_max, n_rho, dt=1.0).cfl_dt(
            profile.max_abs(0.0, t_final))
        half_steps = t_final / (2.0 * cfl_dt) if cfl_dt > 0.0 else math.inf
        steps = (2.0 * math.ceil(half_steps) if half_steps < math.inf
                 else math.inf)
        if not steps < math.inf:
            raise ConfigError(f"tfinal = {t_final:g} in steps of at most "
                              f"{cfl_dt:g} overflows the step count")
        dt = t_final / steps
        if not dt >= sys.float_info.min:
            raise ConfigError(f"tfinal = {t_final:g} needs a time step below "
                              f"the smallest normal float")
        return cls(rho_min, rho_max, n_rho, dt=dt)


def smooth_window(rho, lo: float, hi: float, width: float):
    """C-infinity ramp: ~1 on [lo, hi], ~0 beyond a few widths outside."""
    rho = np.asarray(rho, dtype=float)
    up = 0.5 * (1.0 + np.tanh((rho - lo) / width))
    dn = 0.5 * (1.0 - np.tanh((rho - hi) / width))
    return up * dn


# Stencils as (rows, first offset, coefficients in units of drho^-p).  The
# first entry covers the interior rows, with its coefficients on forward
# differences u[i+1] - u[i]; they are written out rather than summed from
# the coefficients on u, whose rounding would leave a spurious drift of
# order eps/drho in d2.  The rest are single edge rows, one-sided or of
# lower order, with their coefficients on u, reaching at most _EDGE points
# from their end of the grid.
_EDGE = 4
_D1_CENTERED = ((slice(2, -2), -2, (-1 / 12, 7 / 12, 7 / 12, -1 / 12)),
                (0, 0, (-1.5, 2.0, -0.5)), (1, -1, (-0.5, 0.0, 0.5)),
                (-2, -1, (-0.5, 0.0, 0.5)), (-1, -2, (0.5, -2.0, 1.5)))
# biased toward +rho: the wind blows inward
_D1_UPWIND = ((slice(1, -2), -1, (1 / 3, 5 / 6, -1 / 6)),
              (0, 0, (-1.5, 2.0, -0.5)),
              (-2, -1, (-0.5, 0.0, 0.5)), (-1, -1, (-1.0, 1.0)))
_D2 = ((slice(2, -2), -2, (1 / 12, -5 / 4, 5 / 4, -1 / 12)),
       (0, 0, (2.0, -5.0, 4.0, -1.0)), (1, -1, (1.0, -2.0, 1.0)),
       (-2, -1, (1.0, -2.0, 1.0)), (-1, -3, (-1.0, 4.0, -5.0, 2.0)))


def _symbol(table, theta):
    """Fourier symbol, in units of drho^-p, of a stencil's interior row,
    whose coefficients sit on forward differences."""
    (_, first, coefs), *_ = table
    z = np.exp(1j * theta)
    return (z - 1.0) * sum(c * z ** k for k, c in enumerate(coefs, first))


# |R(s lam)|^2 - 1 for RK4's gain R(z) = sum_i z^i / i!, i <= 4, is a
# polynomial in the step s: its s^k coefficient sums R_i conj(R_j) over
# i + j = k, which row k - 1 of _GAIN_PAIRS picks out of the 5 x 5 products
_TAYLOR = 1.0 / np.array([1.0, 1.0, 2.0, 6.0, 24.0])
_GAIN_PAIRS = np.array([[float(i + j == k) for i in range(5) for j in range(5)]
                        for k in range(1, 9)])
_POWERS = np.arange(1.0, 9.0)
_THETA = np.linspace(0.0, math.pi, 129)


def _gain_limit(lam):
    """The largest step s with |R(s lam)| <= 1, up to rounding, over the
    array lam, and the index of the lam that binds.  RK4's stability region
    lies within |z| < 3 and the largest |lam| is at least 1, so the
    bisection starts from [0, 4]."""
    taylor = lam ** np.arange(5.0)[:, None] * _TAYLOR[:, None]
    excess = _GAIN_PAIRS @ (taylor[:, None] * taylor.conj()).real.reshape(
        25, -1)
    lo, hi = 0.0, 4.0
    for _ in range(48):  # to 4 / 2^48 = 1.4e-14
        mid = 0.5 * (lo + hi)
        if np.max(mid ** _POWERS @ excess) <= 1e-13:
            lo = mid
        else:
            hi = mid
    return lo, int(np.argmax(hi ** _POWERS @ excess))


@functools.lru_cache(maxsize=256)
def _joint_step_limit(v: float) -> float:
    """RK4's step limit, in units of drho, for the interior drift+wave
    system with frozen drift speed v >= 0: its symbol is
    lambda(theta) = v U(theta) +- i sqrt|D2(theta)|, with U the upwind
    and D2 the second-derivative symbol, and the limit is the largest s
    with |R(s lambda)| <= 1 at every theta.

    A scan over 129 theta in [0, pi] finds the binding theta, and a second
    scan of 129 over the two spacings around it refines the limit.  Both
    run on lambda / (1 + v) = (1 - p) U +- i p sqrt|D2|, p = 1/(1+v), whose
    coefficients stay within [0, 1]: nothing overflows, and the limit at
    v = inf is 0."""
    p = 1.0 / (1.0 + v)

    def limit(theta):
        drift = (1.0 - p) * _symbol(_D1_UPWIND, theta)
        wave = 1j * p * np.sqrt(np.abs(_symbol(_D2, theta)))
        return _gain_limit(np.concatenate([drift + wave, drift - wave]))

    coarse, j = limit(_THETA)
    at, step = _THETA[j % len(_THETA)], _THETA[1]
    fine, _ = limit(np.linspace(max(at - step, 0.0), min(at + step, math.pi),
                                129))
    return min(coarse, fine) * p


class _Stencil:
    """A banded operator along the last axis of C-contiguous arrays of a
    fixed shape.

    terms is a list of (stencil table, scale): the first term's scale is a
    vector over rho (or a scalar, taken as a constant vector), each later
    one's a scalar.  The terms share their interior rows and add, so one
    stencil can carry variable coefficients such as (1/rho) d1 + d2.  The
    interior acts on the forward difference of u, which stencils of one
    state can share: each term is one np.correlate over the flattened
    array, all rows in one C pass.  The first term's scale multiplies its
    correlate into the interior, and each later term's is folded into its
    kernel.  The values it leaves where rows meet are overwritten by the
    edge rows, two small dense blocks over the _EDGE end columns.  bind
    scales the kernels and blocks by a table of factors once, so a
    coefficient that changes with x0 costs no pass of its own.
    """

    def __init__(self, shape, terms) -> None:
        n = shape[-1]
        size = math.prod(shape)
        (inner, _, _), *_ = terms[0][0]  # interior rows, shared by the terms
        self.lo, self.hi = inner.start, -inner.stop
        self.left = np.zeros((_EDGE, self.lo))
        self.right = np.zeros((_EDGE, self.hi))
        self.terms = []  # (start in the difference, kernel)
        for k, (((_, first, coefs), *edge_rows), scale) in enumerate(terms):
            # the first term's scale multiplies its correlate, on every
            # row; each later one's is folded into its kernel
            self.terms.append((self.lo + first,
                               np.multiply(coefs, scale if k else 1.0)))
            scale = np.broadcast_to(scale, (n,))
            if k == 0:
                self.scale = np.tile(scale, size // n)[self.lo:size - self.hi]
            for row, first, coefs in edge_rows:
                if row >= 0:
                    block, col, dst = self.left, row + first, row
                else:
                    block, col, dst = (self.right, _EDGE + row + first,
                                       self.hi + row)
                block[col:col + len(coefs), dst] += np.multiply(coefs,
                                                                scale[row])

    def bind(self, u, out, diff, factors=(1.0,)):
        """The operator on u into out, as apply(i), which writes factors[i]
        times it and returns out; diff is the forward difference of u
        flattened, which stencils of one state share.  The kernels and edge
        blocks are scaled by every factor, and the views made, here."""
        factors = np.asarray(factors, dtype=float)[..., None]
        n = u.shape[-1]
        inner = out.reshape(-1)[self.lo:u.size - self.hi]
        m = len(inner)
        (window, kernel), *rest = [
            (diff[at:at + m + len(kernel) - 1], factors * kernel)
            for at, kernel in self.terms]
        u2, out2 = u.reshape(-1, n), out.reshape(-1, n)
        ends = ((u2[:, :_EDGE], factors[..., None] * self.left,
                 out2[:, :self.lo]),
                (u2[:, n - _EDGE:], factors[..., None] * self.right,
                 out2[:, n - self.hi:]))

        def apply(i):
            np.multiply(np.correlate(window, kernel[i]), self.scale,
                        out=inner)
            for later, scaled in rest:
                np.add(inner, np.correlate(later, scaled[i]), out=inner)
            for columns, block, dst in ends:
                np.matmul(columns, block[i], out=dst)
            return out
        return apply


def solve_cauchy(value0, dvalue0, grid: RadialGrid, profile,
                 t_final: float, out_times=None) -> list[FieldOnGrid]:
    """Evolve data (f, D f) at x0 = 0 to t_final with classic RK4.

    profile is a VelocityProfile, whose max|A| over the solve sets the step
    bound grid.cfl_dt (ConfigError beyond it), and whose min|A| there must
    exceed grid.rho_min, so that the inner edge is pure outflow
    (ConfigError otherwise; inner_edge(profile) is such an edge); or any
    callable x0 -> A(x0), which is stepped unchecked.  States are
    recorded after the initial state at out_times (default t_final), each
    with x0 the requested time, which must be a whole number of steps
    (ValueError otherwise); the loop stops at the last of them.  Each
    recorded state is (f, g = D f) as stepped, the format of the data.
    InstabilityError when the sup-norm of the state grows GROWTH_BOUND-fold
    in a step or past GROWTH_LIMIT times its initial value.

    The coefficients of the operator are real, so the real and imaginary
    parts evolve apart: the state is one real (4, n) array with rows
    Re f, Im f, Re g, Im g, stepped in place.  The drift is read at every
    stage time of up to _TABLE_STEPS steps before the first of them, a
    VelocityProfile by one array eval, a plain callable on each float; the
    upwind stencil, which carries -1/rho, is scaled by each A of that table
    at once.  The Laplacian (1/rho) d1 + d2 is one stencil with a
    coefficient vector; the sponge acts only where it is nonzero.  The
    right-hand side is bound to the buffers and views once per table, so a
    step runs its array arithmetic alone.
    """
    want = {grid.steps(t): t for t in
            ([t_final] if out_times is None else out_times)}
    if isinstance(profile, VelocityProfile):
        t_end = max(want.values(), default=0.0)
        a_max = profile.max_abs(0.0, t_end)
        if not grid.dt <= grid.cfl_dt(a_max) * (1.0 + 1e-12):
            raise ConfigError(
                f"dt = {grid.dt:g} violates the CFL bound "
                f"{grid.cfl_dt(a_max):g} for max|A| = {a_max:g} over "
                f"[0, {t_end:g}]")
        a_min = profile.min_abs(0.0, t_end)
        if not a_min > grid.rho_min:
            raise ConfigError(
                f"inner edge rho_min = {grid.rho_min:g} takes inflow: "
                f"min|A| = {a_min:g} over [0, {t_end:g}] does not exceed it")
    n, dt = grid.n_rho, grid.dt
    rho = grid.rho
    inv_rho = 1.0 / rho
    # cubic sponge over the outer tenth of the grid
    width = 0.1 * (grid.rho_max - grid.rho_min)
    sponge = 4.0 / width * np.clip((rho - (grid.rho_max - width)) / width,
                                   0.0, 1.0) ** 3
    s0 = int(np.argmax(sponge > 0.0))
    sponge = sponge[s0:]
    upwind = _Stencil((4, n), [(_D1_UPWIND, -inv_rho / grid.drho)])
    laplacian = _Stencil((2, n), [(_D1_CENTERED, inv_rho / grid.drho),
                                  (_D2, grid.drho ** -2)])

    y = np.empty((4, n))
    acc, k_s, y_s, drift_term, tmp = (np.empty_like(y) for _ in range(5))
    diff = np.empty(4 * n - 1)
    damped = np.empty((4, n - s0))

    def bind_rhs(u, out, a):
        """rhs(i) writes (g - (A/rho) f_r - sponge f,
        lap f - (A/rho) g_r - sponge g) at u into out, with A = a[i]."""
        flat = u.reshape(-1)
        ahead, behind = flat[1:], flat[:-1]
        drift = upwind.bind(u, drift_term, diff, a)
        lap = laplacian.bind(u[:2], out[2:], diff[:2 * n - 1])
        g, out_f, out_g = u[2:], out[:2], out[2:]
        drift_f, drift_g = drift_term[:2], drift_term[2:]
        damp_u, damp_out = u[:, s0:], out[:, s0:]

        def rhs(i):
            np.subtract(ahead, behind, out=diff)
            drift(i)
            np.add(g, drift_f, out=out_f)
            lap(0)
            np.add(out_g, drift_g, out=out_g)
            np.multiply(sponge, damp_u, out=damped)
            np.subtract(damp_out, damped, out=damp_out)
        return rhs

    f, g = np.array(value0, dtype=complex), np.array(dvalue0, dtype=complex)
    history = [FieldOnGrid(rho, f, g, 0.0)]
    y[:] = f.real, f.imag, g.real, g.imag
    peak = max(float(np.max(np.abs(y))), 1e-300)
    limit = GROWTH_LIMIT * peak
    h, sixth, last = 0.5 * dt, dt / 6.0, max(want, default=0)
    for start in range(0, last, _TABLE_STEPS):
        x0s = np.arange(start, min(start + _TABLE_STEPS, last)) * dt
        # each step's stage times, as the floats (k - 1) dt + h, ...
        times = (x0s, x0s + h, x0s + dt)
        a = (profile.eval(times) if isinstance(profile, VelocityProfile)
             else [list(map(profile, x.tolist())) for x in times])
        first, later = bind_rhs(y, acc, a), bind_rhs(y_s, k_s, a)
        for j in range(len(x0s)):
            k = start + j + 1
            first((0, j))
            for stage in (acc, k_s):  # the two midpoint stages
                np.multiply(stage, h, out=y_s)
                y_s += y
                later((1, j))
                acc += np.multiply(k_s, 2.0, out=tmp)
            np.multiply(k_s, dt, out=y_s)
            y_s += y
            later((2, j))
            acc += k_s
            acc *= sixth
            y += acc
            # sup-norm by two reads and no write; a nan in y makes both nan
            m = max(float(y.max()), -float(y.min()))
            if not m <= min(GROWTH_BOUND * peak, limit):  # nan included
                raise InstabilityError(f"solution blew up at step {k}")
            peak = max(peak, m)
            if k in want:
                history.append(FieldOnGrid(rho, y[0] + 1j * y[1],
                                           y[2] + 1j * y[3], want[k]))
    return history


def solve_mode(eta: float, grid: RadialGrid, profile: VelocityProfile,
               t_final: float, *, out_times=None) -> list[FieldOnGrid]:
    """Exact mode history for eta < 0 from eikonal-matched initial data.

    Data: W times the lambda_- branch of the plane-wave mode data at
    wavenumber |eta| (mode_initial_data), which share value and radial
    derivative with the eikonal at x0 = 0.  W is the horizon window: 1 from
    the inner edge to a taper ahead of the outer sponge, so it never clips
    the packet support; its own D stays out of the data.
    """
    if not eta < 0.0:  # nan included
        raise ValueError("solve_mode uses the eta < 0 branch")
    lam = 2.0 * math.pi / abs(eta)
    if grid.drho > lam / POINTS_PER_WAVELENGTH:
        raise ResolutionError(
            f"grid spacing {grid.drho:g} exceeds lambda/{POINTS_PER_WAVELENGTH} "
            f"= {lam / POINTS_PER_WAVELENGTH:g} at eta = {eta:g}")
    rho = grid.rho
    w = smooth_window(rho, *_horizon_window(grid))
    value0, dvalue0 = mode_initial_data(-eta, rho, profile.eval(0.0))
    return solve_cauchy(w * value0, w * dvalue0, grid, profile, t_final,
                        out_times=out_times)


@dataclass(frozen=True)
class RemainderRow:
    a: float
    eta: float
    density_exact: float
    density_eikonal: float
    dev_rel: float
    x0: float
    discr_estimate: float | None = None
    resolved: bool = True


@dataclass
class RemainderReport:
    """Deviation of exact-mode projections from their eikonal values."""

    rows_initial: list[RemainderRow] = field(default_factory=list)
    rows_evolved: list[RemainderRow] = field(default_factory=list)
    sweep_a: list[float] = field(default_factory=list)
    sweep_dev: list[float] = field(default_factory=list)
    sweep_leading: list[float] = field(default_factory=list)
    fit_exponent: float = float("nan")
    fit_exponent_absolute: float = float("nan")
    leading_exponent: float = float("nan")
    eta_fit_exponent: float | None = None  # None below two eta samples
    warnings: list[str] = field(default_factory=list)
    # n_rho, dt and steps of the fine solve and of its coarse twin
    solves: dict[str, dict] = field(default_factory=dict)
    # fine-grid EVOLVE_ETA states at x0 = 0, t_final/2 and t_final; kept
    # for field snapshots, not serialised
    history: list[FieldOnGrid] = field(default_factory=list, repr=False)

    def to_jsonable(self) -> dict:
        # the x0 = 0 rows have no discretisation estimate
        initial = [{k: v for k, v in asdict(r).items()
                    if k not in ("discr_estimate", "resolved")}
                   for r in self.rows_initial]
        return {
            "rows_initial": initial,
            "rows_evolved": [asdict(r) for r in self.rows_evolved],
            "sweep": {"a": self.sweep_a, "dev_rel": self.sweep_dev,
                      "leading": self.sweep_leading},
            "fit_exponent": self.fit_exponent,
            "fit_exponent_absolute": self.fit_exponent_absolute,
            "leading_exponent": self.leading_exponent,
            "eta_fit_exponent": self.eta_fit_exponent,
            "warnings": self.warnings,
            "solves": self.solves,
        }


# Gauss-Legendre nodes on scaled wavenumber eta' = eta/a, where the density
# carries its mass; identical nodes on both sides of every comparison.
_SWEEP_NODES, _SWEEP_WEIGHTS = np.polynomial.legendre.leggauss(10)
_SWEEP_LO, _SWEEP_HI = 0.15, 5.0
_SWEEP_NODES = 0.5 * (_SWEEP_HI - _SWEEP_LO) * (_SWEEP_NODES + 1.0) + _SWEEP_LO
_SWEEP_WEIGHTS = 0.5 * (_SWEEP_HI - _SWEEP_LO) * _SWEEP_WEIGHTS


def _frequency_dev(eta_abs):
    """Exact-over-eikonal density ratio at x0 = 0, less one:
    ((k + sqrt(k^2+1)) / (2k))^2 - 1 = (m/k)(1 + m/(4k)), k = |eta|, with
    m = sqrt(k^2+1) - k = 1/(sqrt(k^2+1) + k) free of cancellation.

    The two modes share value and radial derivative there and differ only
    in the frequency of the D value, sqrt(eta^2+1) against |eta|.
    """
    m = 1.0 / (np.hypot(eta_abs, 1.0) + eta_abs)
    return m / eta_abs * (1.0 + m / (4.0 * eta_abs))


def _decay_exponent(xs, ys, name: str, scale) -> float:
    """-slope of the line fitted through (scale(|x|), log y); ToleranceError
    naming the first row whose y has no logarithm."""
    for x, y in zip(xs, ys):
        if not 0.0 < y < math.inf:
            raise ToleranceError(f"{name}={x:g}: x0=0 value {y:.3g} has no "
                                 f"logarithm for the decay fit")
    return float(-np.polyfit(scale(np.abs(xs)), np.log(ys), 1)[0])


def remainder_contribution(p: PacketParams, eta_samples, grid: RadialGrid,
                           flow: FlowMap, *,
                           t_final: float) -> RemainderReport:
    """Measure how the exact-mode creation density departs from the eikonal one.

    At x0 = 0 both densities are closed (_frequency_dev), so free of grid
    and quadrature error; the departure is evaluated per fixed eta sample
    at the largest a and as a node total over eta = a*eta', and the decay
    exponents of the total's relative deviation and of the per-eta
    deviation in (1 + |eta|) are fitted there (ToleranceError names a row
    with no logarithm).  The mode at EVOLVE_ETA is also evolved on grid,
    which must step to t_final/2 and t_final, and, for each a in A_VALUES,
    the deviation is re-measured on transported nodes at t_final; a
    half-resolution twin from RadialGrid.auto, solved to the same t_final,
    supplies a discretisation estimate and a warning when it is not small
    against the deviation being measured.  A grid too coarse for EVOLVE_ETA
    raises ResolutionError; a coarse twin too coarse for it leaves the
    estimate None, with a warning.  The report records n_rho, dt and steps
    of each solve made.  These raise ConfigError before any work: grids
    whose two solves would take more work than MAX_POINT_STEPS; an
    alpha that leaves the |F|^2 factor of a sweep or evolved density
    subnormal; and an eta sample whose x0 = 0 eikonal density or its |F|^2
    factor is not a positive normal float, or whose deviation is not
    finite.  A grid whose inner edge takes inflow before t_final is
    solve_cauchy's ConfigError; inner_edge(flow.profile) takes none.
    """
    profile = flow.profile
    coarse = RadialGrid.auto(grid.rho_min, grid.rho_max, grid.n_rho // 2 + 1,
                             profile, t_final)
    work = predicted_point_steps((grid, coarse), t_final)
    if work > MAX_POINT_STEPS:
        raise ConfigError(
            f"the wave solves would take {work:.3g} point-steps (steps x "
            f"(n_rho + {N_STEP})), beyond the budget of "
            f"{MAX_POINT_STEPS:.7g}; lower nrho or tfinal")
    for a in A_VALUES:  # |F|^2 ~ e^{-2 alpha theta} scales each density
        etas = np.append(a * _SWEEP_NODES, abs(EVOLVE_ETA))
        f2 = np.min(packet_fourier_modulus_sq(-etas, p.with_a(a)))
        if not f2 >= sys.float_info.min:
            raise ConfigError(
                f"alpha = {p.alpha:g} is too large: the packet transform "
                f"|F|^2 at a = {a:g} is {f2:.3g}, below the smallest normal "
                f"float, where the x0 = 0 densities lose their digits")
    # per-eta departures at x0 = 0, fixed eta samples, largest a
    a_ref = max(A_VALUES)
    p_ref = p.with_a(a_ref)
    rows_initial = []
    for eta in map(float, eta_samples):
        # |F|^2 overflows to 0 from |eta| ~ 1e147 at most, and the check
        # refuses that; a positive |F|^2 keeps the density's eta^2 finite
        # (it overflows from 1.3e154)
        with np.errstate(over="ignore"):
            f2 = float(packet_fourier_modulus_sq(-abs(eta), p_ref))
            dev = float(_frequency_dev(abs(eta)))
        dk = float(creation_density(abs(eta), p_ref)) if f2 > 0.0 else 0.0
        if not (min(f2, dk) >= sys.float_info.min and math.isfinite(dev)):
            raise ConfigError(
                f"eta_list value {eta!r} is out of range: at a = {a_ref:g} "
                f"its x0 = 0 eikonal density {dk:.3g} and that density's "
                f"|F|^2 factor {f2:.3g} must be positive normal floats, and "
                f"its deviation {dev:.3g} must be finite")
        rows_initial.append(RemainderRow(
            a=a_ref, eta=eta, density_exact=dk * (1.0 + dev),
            density_eikonal=dk, dev_rel=dev, x0=0.0))
    report = RemainderReport(rows_initial=rows_initial, solves={
        name: {"n_rho": g.n_rho, "dt": g.dt, "steps": g.steps(t_final)}
        for name, g in (("fine", grid), ("coarse", coarse))})

    if len(report.rows_initial) >= 2:
        report.eta_fit_exponent = _decay_exponent(
            [r.eta for r in report.rows_initial],
            [r.dev_rel for r in report.rows_initial], "eta", np.log1p)
    else:
        report.warnings.append("eta-decay exponent needs at least two eta "
                               "samples; none fitted")

    # a-sweep of the fixed-node totals over eta = a*eta' at x0 = 0 of the
    # eikonal density and of the exact-minus-eikonal density
    for a in A_VALUES:
        etas = a * _SWEEP_NODES
        wdk = _SWEEP_WEIGHTS * a * creation_density(etas, p.with_a(a))
        tk = float(np.sum(wdk))
        report.sweep_a.append(a)
        report.sweep_dev.append(float(np.sum(wdk * _frequency_dev(etas))) / tk)
        report.sweep_leading.append(tk)
    report.fit_exponent = _decay_exponent(report.sweep_a, report.sweep_dev,
                                          "a", np.log)
    report.leading_exponent = _decay_exponent(
        report.sweep_a, report.sweep_leading, "a", np.log)
    report.fit_exponent_absolute = report.fit_exponent + report.leading_exponent

    # the mode solve depends only on eta: run it (and its coarse twin) once
    # and project against each packet
    eta = EVOLVE_ETA
    report.history = solve_mode(eta, grid, profile, t_final,
                                out_times=[0.5 * t_final, t_final])
    states = report.history[-1:]
    try:
        states.append(solve_mode(eta, coarse, profile, t_final)[-1])
    except ResolutionError as exc:
        del report.solves["coarse"]
        report.warnings.append(
            f"evolved rows have no discretisation estimate: coarse twin {exc}")

    for a in A_VALUES:
        row = _evolved_row(p.with_a(a), eta, states, flow)
        report.rows_evolved.append(row)
        if row.discr_estimate is not None and not row.resolved:
            report.warnings.append(
                f"a={a} eta={eta}: discretisation estimate "
                f"{row.discr_estimate:.3g} not small against the measured "
                f"deviation {row.dev_rel:.3g}")
    return report


@dataclass(frozen=True)
class PacketQuadrature:
    """Gauss nodes over the packet support, transported to time x0.

    Node positions sigma = sigma_star + s split into a head zone with
    panels uniform in ln(s) -- there the log-phase alpha*ln(s) advances
    linearly and the edge singularity is absorbed by the measure -- and a
    tail zone with panels sized to the e^{i eta s} oscillation.  rho(s)
    and dsigma/drho follow the rays; the weights carry the node-variable
    and ray Jacobians, so weighted sums evaluate integrals over rho.
    """

    s: np.ndarray
    rho: np.ndarray
    dsig_drho: np.ndarray
    weights: np.ndarray
    x0: float


# the smallest edge exponent: below it _two_zone_nodes' head node s_min
# underflows (at |eta| = 4: 1.2e-267 at eps = 0.05, 3.2e-298 at 0.045 and
# 0 at 0.04, where math.log raises)
EPS_MIN = 0.05


def _two_zone_nodes(eps: float, alpha: float, eta_abs: float, s_max: float):
    """Nodes and weights (for plain ds integration) over (0, s_max], twelve
    Gauss points a panel."""
    s_split = min(0.5 / max(eta_abs, 1e-30), 0.25 * s_max)
    # head: t = ln s; truncation below s_min loses O(s_min^eps / eps) mass,
    # a relative 1e-12
    s_min = (1e-12 * eps) ** (1.0 / eps) * s_split
    t_lo, t_hi = math.log(s_min), math.log(s_split)
    # panels carry at most 2 radians of the phase alpha*t and span at most
    # 2 in t, which the e^{-a s} fall-off near s_split needs
    rad_per_panel = 2.0
    n_head = max(4, int(math.ceil((t_hi - t_lo) * max(alpha, 1.0) / rad_per_panel)))
    t_nodes, t_w = gauss_panels(np.linspace(t_lo, t_hi, n_head + 1))
    s_head = np.exp(t_nodes)
    w_head = t_w * s_head  # ds = s dt
    # tail: panel edges marched so each carries <= budget radians of the
    # local phase |eta| s + alpha ln s
    budget = 6.5
    edges = [s_split]
    while edges[-1] < s_max:
        freq = eta_abs + alpha / edges[-1]
        edges.append(min(s_max, edges[-1] + budget / freq))
    s_tail, w_tail = gauss_panels(edges)
    return np.concatenate([s_head, s_tail]), np.concatenate([w_head, w_tail])


def packet_quadrature(p: PacketParams, flow: FlowMap, x0: float,
                      eta_abs: float) -> PacketQuadrature:
    s, w = _two_zone_nodes(p.eps, p.alpha, float(eta_abs), p.s_max)

    # forward rays from (0, sigma_star + s) with tangent drho/dsigma
    rho, jac = transport(p.sigma_star + s, 0.0, x0, flow)
    return PacketQuadrature(s=s, rho=rho, dsig_drho=1.0 / jac,
                            weights=w * jac, x0=float(x0))


def _node_fields(q: PacketQuadrature, p: PacketParams, eta: float,
                 flow: FlowMap):
    """Packet and eikonal (value, D value) on transported nodes."""
    a0 = float(flow.profile.eval(q.x0))
    return (packet_values(q.s, q.rho, q.dsig_drho, a0, p),
            eikonal_values(p.sigma_star + q.s, q.rho, q.dsig_drho, a0, eta))


def _mode_fields_at_nodes(q: PacketQuadrature, fld: FieldOnGrid) -> tuple:
    """The mode's (value, D value) on the nodes, each by the Lagrange cubic
    through the 4 nearest points of the uniform grid (the 4 end points near
    either end)."""
    if q.rho.min() < fld.rho[0]:
        raise ResolutionError(f"packet support left the grid below its "
                              f"inner edge {fld.rho[0]:g}")
    if q.rho.max() > fld.rho[-1]:
        raise ResolutionError("packet support left the grid beyond "
                              "grid_rho_max; enlarge grid_rho_max")
    n = len(fld.rho)
    s = (q.rho - fld.rho[0]) * ((n - 1) / (fld.rho[-1] - fld.rho[0]))
    j = np.clip(s.astype(int) - 1, 0, n - 4)  # s >= 0: truncation floors
    t = s - j
    w = (-(t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0,
         t * (t - 2.0) * (t - 3.0) / 2.0,
         -t * (t - 1.0) * (t - 3.0) / 2.0,
         t * (t - 1.0) * (t - 2.0) / 6.0)
    return tuple(sum(wk * f[j + k] for k, wk in enumerate(w))
                 for f in (fld.value, fld.d_flow))


def _pair_on_nodes(mode_fields, packet_fields,
                   q: PacketQuadrature) -> tuple[complex, complex]:
    """The two sides (c1, c2) = i int (u* Dv, (Du)* v) rho drho, on the
    nodes, of the pairing <u, v> = 2 pi (c1 - c2)."""
    u, du = mode_fields
    v, dv = packet_fields
    c1 = 1j * np.sum(q.weights * np.conj(u) * dv * q.rho)
    c2 = 1j * np.sum(q.weights * np.conj(du) * v * q.rho)
    return complex(c1), complex(c2)


def evolved_projection_densities(states, flow: FlowMap, p: PacketParams,
                                 eta: float) -> tuple[list[float], float]:
    """Numeric-mode projection densities of states, which share one x0,
    and the eikonal density there.

    Every side uses the one transported node quadrature, so its error
    cancels in the deviations; each numeric mode is interpolated onto the
    nodes by a local cubic.
    """
    x0 = states[0].x0
    if any(st.x0 != x0 for st in states):
        raise ValueError("states must share one x0")
    q = packet_quadrature(p, flow, x0, abs(eta))
    pk, eik = _node_fields(q, p, eta, flow)
    d_nums = [density_from_projections(*_pair_on_nodes(
        _mode_fields_at_nodes(q, st), pk, q)) for st in states]
    return d_nums, density_from_projections(*_pair_on_nodes(eik, pk, q))


def _horizon_window(grid: RadialGrid) -> tuple[float, float, float]:
    """Outer taper only: the packet support hugs the horizon, and inside it
    both characteristic families point inward, so the inner edge needs no
    damping and must not clip the data."""
    span = grid.rho_max - grid.rho_min
    width = 0.015 * span
    return (grid.rho_min - 10.0 * width, grid.rho_max - 0.18 * span, width)


def predicted_point_steps(grids, t_final: float) -> float:
    """Work of solves to t_final on grids: steps x (n_rho + N_STEP), RK4
    point-steps plus each step's fixed cost."""
    return sum((g.n_rho + N_STEP) * float(g.steps(t_final)) for g in grids)


def _evolved_row(p: PacketParams, eta: float, states: list[FieldOnGrid],
                 flow: FlowMap) -> RemainderRow:
    """The row from the fine state and, when given, its coarse twin."""
    d_nums, d_eik = evolved_projection_densities(states, flow, p, eta)
    dev, *dev_c = (abs(d - d_eik) / abs(d_eik) for d in d_nums)
    discr = float(abs(dev - dev_c[0]) / DISCR_DIVISOR) if dev_c else None
    return RemainderRow(a=float(p.a), eta=float(eta),
                        density_exact=float(d_nums[0]),
                        density_eikonal=float(d_eik), dev_rel=float(dev),
                        x0=float(states[0].x0), discr_estimate=discr,
                        resolved=discr is not None and bool(discr < 0.3 * dev))
