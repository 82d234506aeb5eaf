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
speeds point inward, so an inner edge below min|A| over the solve, such as
inner_edge's, is pure outflow and one-sided stencils suffice there; beyond
max|A| the flow is subsonic, and the outer edge carries a sponge layer that
damps what the data window lets by.  RadialGrid.auto alone checks a grid
against its flow, both edges included, and picks its time step: 0.9 of
RK4's step limit for the coupled interior system the solver steps, with
the drift at its fastest over the solve.  Its frozen symbol is
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
alone.  On evolved grids PacketQuadrature, the one node object, holds
transported Gauss nodes (node 0 closed, for the edge head on the separatrix
ray) and the packet's and eikonal's (value, D value) there; the mode's
(f, g) reaches them by a local cubic.  The pair is the conserved pairing in
its D form, 2 pi i int (u* Dv - (Du)* v) rho drho, with no drift term.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (ConfigError, InstabilityError, ResolutionError,
                     ToleranceError)
from .flow import FlowMap, VelocityProfile, transport
from .gammatools import packet_fourier_modulus_sq
from .packets import (FieldOnGrid, PacketParams, eikonal_values, gauss_panels,
                      mode_initial_data, packet_profile, packet_values)
from .spectrum import _log_slope, creation_density, density_from_projections

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
    "verify_grid",
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
# coarse twin, n_rho // 2 + 1 points, keeps that many (verify_grid)
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


def verify_grid(profile: VelocityProfile, rho_max: float, n_rho: int,
                t_final: float) -> "RadialGrid":
    """pde-verify's grid from inner_edge(profile); ConfigError names nrho
    outside [NRHO_MIN, NRHO_MAX]."""
    if n_rho < NRHO_MIN:
        raise ConfigError(f"nrho must be at least {NRHO_MIN}")
    if n_rho > NRHO_MAX:
        raise ConfigError(f"nrho must be at most {NRHO_MAX}, where the "
                          f"wave budget still bounds the run time")
    return RadialGrid.auto(inner_edge(profile), rho_max, n_rho, profile,
                           t_final)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid and time step for the wave stepper; ValueError
    on an empty span, too few points or no step (auto checks the flow)."""

    rho_min: float
    rho_max: float
    n_rho: int
    dt: float

    def __post_init__(self) -> None:
        if self.rho_min <= 0.0:
            raise ValueError("rho_min must be positive")
        if not self.rho_max > self.rho_min:
            raise ValueError("rho_max must exceed rho_min")
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
        """The grid from rho_min to rho_max for the flow of profile over
        [0, t_final], the one check of a wave grid against its flow; its
        step dt = t_final/(2m) is the largest within cfl_dt at max|A| there.

        ConfigError, in this order, where t_final is not positive; the
        inner edge takes inflow, min|A| over [0, t_final] not exceeding
        rho_min (inner_edge(profile) takes none); the outer edge is not
        subsonic, rho_max not exceeding max|A| there; or the step count
        overflows a float or dt falls below the smallest normal float.
        """
        if not t_final > 0.0:
            raise ConfigError("tfinal must be positive")
        a_min = profile.min_abs(0.0, t_final)
        if not a_min > rho_min:
            raise ConfigError(
                f"inner edge rho_min = {rho_min!r} takes inflow: min|A| = "
                f"{a_min!r} over [0, {t_final:g}] does not exceed it")
        a_max = profile.max_abs(0.0, t_final)
        if not rho_max > a_max:
            raise ConfigError(f"grid_rho_max = {rho_max!r} must exceed "
                              f"max|A| = {a_max!r} over [0, {t_final:g}]")
        cfl_dt = cls(rho_min, rho_max, n_rho, dt=1.0).cfl_dt(a_max)
        half_steps = t_final / (2.0 * cfl_dt) if cfl_dt > 0.0 else math.inf
        steps = (2.0 * math.ceil(half_steps) if half_steps < math.inf
                 else math.inf)
        if not steps < math.inf:
            raise ConfigError(f"tfinal = {t_final!r} in steps of at most "
                              f"{cfl_dt!r} overflows the step count")
        dt = t_final / steps
        if not dt >= sys.float_info.min:
            raise ConfigError(f"tfinal = {t_final!r} needs a time step below "
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
    """Evolve data (f, D f) at x0 = 0 on grid to t_final with classic RK4.

    grid is stepped as given: RadialGrid.auto is where a grid is checked
    against its flow.  profile is anything whose eval maps an array of
    times to A(x0) there, such as a VelocityProfile.  States are recorded
    after the initial state at out_times (default t_final), each with x0
    the requested time, which must be a whole number of steps (ValueError
    otherwise); the loop stops at the last of them.  Each recorded state
    is (f, g = D f) as stepped, the format of the data.
    InstabilityError when the sup-norm of the state grows GROWTH_BOUND-fold
    in a step or past GROWTH_LIMIT times its initial value.

    The coefficients of the operator are real, so the real and imaginary
    parts evolve apart: the state is one real (4, n) array with rows
    Re f, Im f, Re g, Im g, stepped in place.  The drift is read by one
    profile.eval at every stage time of up to _TABLE_STEPS steps before
    the first of them; the upwind stencil, which carries -1/rho, is scaled
    by each A of that table at once.  The Laplacian (1/rho) d1 + d2 is one
    stencil with a coefficient vector; the sponge acts only where it is
    nonzero.  The right-hand side is bound to the buffers and views once
    per table, so a step runs its array arithmetic alone.
    """
    want = {grid.steps(t): t for t in
            ([t_final] if out_times is None else out_times)}
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
        a = profile.eval(times)
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
    derivative with the eikonal at x0 = 0.  W is the horizon window, the
    outer taper alone (_horizon_window): exactly 1 from the inner edge to
    mid-grid, so the data there are the mode data; its own D stays out.
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
    # the x0 = 0 a-sweep: each rate, its relative deviation and its total
    sweep: dict[str, list[float]] = field(default_factory=lambda: {
        "a": [], "dev_rel": [], "leading": []})
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
        """The fields less history; the x0 = 0 rows have no
        discretisation estimate."""
        js = asdict(replace(self, history=[]))
        del js["history"]
        for row in js["rows_initial"]:
            del row["discr_estimate"], row["resolved"]
        return js


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


def _decay_exponent(xs, ys, name: str, scale) -> float | None:
    """-slope of spectrum's decay fit through (scale(|x|), log y), None where
    the scale(|x|) coincide; ToleranceError naming the first row whose y has
    no logarithm."""
    for x, y in zip(xs, ys):
        if not 0.0 < y < math.inf:
            raise ToleranceError(f"{name}={x:g}: x0=0 value {y:.3g} has no "
                                 f"logarithm for the decay fit")
    slope = _log_slope(scale(np.abs(xs)), np.log(ys))
    return None if slope is None else -slope


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
    of each solve made.  These raise ConfigError before any work: a grid
    whose edges do not hold for the flow over [0, t_final] (the coarse
    twin's RadialGrid.auto); grids whose two solves would take more work
    than MAX_POINT_STEPS; no eta sample, or one not negative; an alpha
    that leaves the |F|^2 factor of a sweep or evolved density subnormal;
    and an eta sample whose x0 = 0 eikonal density or its |F|^2 factor is
    not a positive normal float, or whose deviation is not finite.
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
    if not (len(eta_samples) and max(eta_samples) < 0.0):
        raise ConfigError("eta_list must hold negative values")
    # each rate's packet, and its fixed-node totals over eta = a*eta' at
    # x0 = 0 of the eikonal density and of the exact-minus-eikonal density
    packets, sweep = {}, {"a": [], "dev_rel": [], "leading": []}
    for a in A_VALUES:
        pa = packets[a] = p.with_a(a)
        etas = a * _SWEEP_NODES
        # |F|^2 ~ e^{-2 alpha theta} scales each density
        f2 = np.min(packet_fourier_modulus_sq(
            -np.append(etas, abs(EVOLVE_ETA)), pa))
        if not f2 >= sys.float_info.min:
            raise ConfigError(
                f"alpha = {p.alpha:g} is too large: the packet transform "
                f"|F|^2 at a = {a:g} is {f2:.3g}, below the smallest normal "
                f"float, where the x0 = 0 densities lose their digits")
        wdk = _SWEEP_WEIGHTS * a * creation_density(etas, pa)
        tk = float(np.sum(wdk))
        sweep["a"].append(a)
        sweep["dev_rel"].append(float(np.sum(wdk * _frequency_dev(etas))) / tk)
        sweep["leading"].append(tk)
    # per-eta departures at x0 = 0, fixed eta samples, largest a
    a_ref = max(A_VALUES)
    p_ref = packets[a_ref]
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
                f"eta_list value {eta!r} is out of range at alpha = "
                f"{p.alpha!r}: at a = {a_ref:g} its x0 = 0 eikonal density "
                f"{dk:.3g} and that density's |F|^2 factor {f2:.3g} must be "
                f"positive normal floats, and its deviation {dev:.3g} must "
                f"be finite")
        rows_initial.append(RemainderRow(
            a=a_ref, eta=eta, density_exact=dk * (1.0 + dev),
            density_eikonal=dk, dev_rel=dev, x0=0.0))
    report = RemainderReport(rows_initial=rows_initial, sweep=sweep, solves={
        name: {"n_rho": g.n_rho, "dt": g.dt, "steps": g.steps(t_final)}
        for name, g in (("fine", grid), ("coarse", coarse))})
    report.eta_fit_exponent = _decay_exponent(
        [r.eta for r in rows_initial], [r.dev_rel for r in rows_initial],
        "eta", np.log1p)
    if report.eta_fit_exponent is None:
        report.warnings.append("eta-decay exponent needs two eta samples "
                               "apart in log1p|eta|; none fitted")
    report.fit_exponent = _decay_exponent(sweep["a"], sweep["dev_rel"], "a",
                                          np.log)
    report.leading_exponent = _decay_exponent(sweep["a"], sweep["leading"],
                                              "a", np.log)
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

    # each row from the fine state and, when solved, its coarse twin
    for a, pa in packets.items():
        d_nums, d_eik = evolved_projection_densities(states, flow, pa, eta)
        dev, *dev_c = (abs(d - d_eik) / abs(d_eik) for d in d_nums)
        discr = float(abs(dev - dev_c[0]) / DISCR_DIVISOR) if dev_c else None
        resolved = discr is not None and bool(discr < 0.3 * dev)
        report.rows_evolved.append(RemainderRow(
            a=a, eta=eta, density_exact=float(d_nums[0]),
            density_eikonal=float(d_eik), dev_rel=float(dev),
            x0=float(states[0].x0), discr_estimate=discr, resolved=resolved))
        if discr is not None and not resolved:
            report.warnings.append(
                f"a={a} eta={eta}: discretisation estimate {discr:.3g} not "
                f"small against the measured deviation {dev:.3g}")
    return report


@dataclass(frozen=True)
class PacketQuadrature:
    """Gauss nodes over the packet support, transported to time x0, and the
    packet's and the eikonal's (value, D value) on them.

    Node 0, at s_c = ulp(sigma_star) with unit weight in s, stands for the
    edge head (0, s_c], on sigma_star's ray to rounding (packet_quadrature).
    The others split into a near zone from s_c with panels uniform in
    ln(s) -- there the log-phase alpha*ln(s) advances linearly and the edge
    singularity is absorbed by the measure -- and a tail zone with panels
    sized to the e^{i eta s} oscillation.  rho(s) follows the rays; the
    weights carry the node-variable and ray Jacobians, so weighted sums
    evaluate integrals over rho, and pair pairs a mode with the packet.
    """

    s: np.ndarray
    rho: np.ndarray
    weights: np.ndarray
    packet: tuple
    eikonal: tuple

    def pair(self, u, du) -> tuple[complex, complex]:
        """The two sides (c1, c2) = i int (u* Dv, (Du)* v) rho drho, on the
        nodes, of the pairing <u, v> = 2 pi (c1 - c2) of the mode (u, du)
        with the packet v."""
        v, dv = self.packet
        c1 = 1j * np.sum(self.weights * np.conj(u) * dv * self.rho)
        c2 = 1j * np.sum(self.weights * np.conj(du) * v * self.rho)
        return complex(c1), complex(c2)


def _two_zone_nodes(alpha: float, eta_abs: float, s_c: float, s_max: float):
    """Nodes and weights (for plain ds integration): s_c with weight 1 for
    the head (0, s_c], then twelve Gauss points a panel over [s_c, s_max]."""
    s_split = min(0.5 / max(eta_abs, 1e-30), 0.25 * s_max)
    # near zone: t = ln s, panels carrying at most 2 radians of the phase
    # alpha*t and spanning at most 2 in t, which the e^{-a s} fall-off near
    # s_split needs
    t_lo, t_hi = math.log(s_c), math.log(s_split)
    rad_per_panel = 2.0
    n_near = max(4, int(math.ceil((t_hi - t_lo) * max(alpha, 1.0) / rad_per_panel)))
    t_nodes, t_w = gauss_panels(np.linspace(t_lo, t_hi, n_near + 1))
    s_near = np.exp(t_nodes)
    w_near = t_w * s_near  # ds = s dt
    # tail: panel edges marched so each carries <= budget radians of the
    # local phase |eta| s + alpha ln s
    budget = 6.5
    edges = [s_split]
    while edges[-1] < s_max:
        freq = eta_abs + alpha / edges[-1]
        edges.append(min(s_max, edges[-1] + budget / freq))
    s_tail, w_tail = gauss_panels(edges)
    return np.r_[s_c, s_near, s_tail], np.r_[1.0, w_near, w_tail]


def packet_quadrature(p: PacketParams, flow: FlowMap, x0: float,
                      eta_abs: float) -> PacketQuadrature:
    """The nodes of p transported to x0, with the packet and the eikonal at
    eta = -eta_abs on them.  Node 0 carries the profile's integrals over
    the head (0, s_c]: int P' ds = P(s_c), as P(0) = 0, and int P ds =
    s_c P(s_c) / (1 + eps + i alpha) to a relative a s_c."""
    s, w = _two_zone_nodes(p.alpha, float(eta_abs), math.ulp(p.sigma_star),
                           p.s_max)
    # forward rays from (0, sigma_star + s) with tangent drho/dsigma
    rho, jac = transport(p.sigma_star + s, 0.0, x0, flow)
    dsig_drho, a0 = 1.0 / jac, float(flow.profile.eval(float(x0)))
    prof, dprof = packet_profile(s, p)
    prof[0], dprof[0] = s[0] * prof[0] / (1 + p.eps + 1j * p.alpha), prof[0]
    return PacketQuadrature(
        s, rho, w * jac, packet_values(prof, dprof, rho, dsig_drho, a0),
        eikonal_values(p.sigma_star + s, rho, dsig_drho, a0, -float(eta_abs)))


def _mode_fields_at_nodes(rho, fld: FieldOnGrid) -> tuple:
    """The mode's (value, D value) at the node radii rho, each by the
    Lagrange cubic through the 4 nearest points of the uniform grid (the 4
    end points near either end)."""
    if rho.min() < fld.rho[0]:
        raise ResolutionError(f"packet support left the grid below its "
                              f"inner edge {fld.rho[0]:g}")
    if rho.max() > fld.rho[-1]:
        raise ResolutionError("packet support left the grid beyond "
                              "grid_rho_max; enlarge grid_rho_max")
    n = len(fld.rho)
    s = (rho - fld.rho[0]) * ((n - 1) / (fld.rho[-1] - fld.rho[0]))
    j = np.clip(s.astype(int) - 1, 0, n - 4)  # s >= 0: truncation floors
    t = s - j
    w = (-(t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0,
         t * (t - 2.0) * (t - 3.0) / 2.0,
         -t * (t - 1.0) * (t - 3.0) / 2.0,
         t * (t - 1.0) * (t - 2.0) / 6.0)
    return tuple(sum(wk * f[j + k] for k, wk in enumerate(w))
                 for f in (fld.value, fld.d_flow))


def evolved_projection_densities(states, flow: FlowMap, p: PacketParams,
                                 eta: float) -> tuple[list[float], float]:
    """Numeric-mode projection densities of states, which share one x0,
    and the eikonal density there, all on one PacketQuadrature, so that its
    error cancels in the deviations."""
    x0 = states[0].x0
    if any(st.x0 != x0 for st in states):
        raise ValueError("states must share one x0")
    q = packet_quadrature(p, flow, x0, abs(eta))
    d_nums = [density_from_projections(*q.pair(*_mode_fields_at_nodes(
        q.rho, st))) for st in states]
    return d_nums, density_from_projections(*q.pair(*q.eikonal))


def _horizon_window(grid: RadialGrid) -> tuple[float, float, float]:
    """The outer taper alone: inside the horizon both characteristic
    families point inward, so the inner edge (inner_edge) needs no damping
    and must not clip the data.  lo = -inf makes the rising factor exactly
    1: the window is 1 to 0.46 of the span below rho_max, 5.18 by default."""
    span = grid.rho_max - grid.rho_min
    return -math.inf, grid.rho_max - 0.18 * span, 0.015 * span


def predicted_point_steps(grids, t_final: float) -> float:
    """Work of solves to t_final on grids: steps x (n_rho + N_STEP), RK4
    point-steps plus each step's fixed cost."""
    return sum((g.n_rho + N_STEP) * float(g.steps(t_final)) for g in grids)
