"""Direct finite-difference solution of the radial wave equation.

The radial flow v = A(x0)/rho has div v = 0, so for a massless field the
2+1 acoustic wave operator factorises through the drift derivative
D = d/dx0 + (A(x0)/rho) d/drho:

    L f = D^2 f - (d^2 f/drho^2 + (1/rho) df/drho) = 0,

stepped as the first-order system (f, g) with g = D f:

    df/dx0 = g - (A/rho) df/drho,
    dg/dx0 = d^2 f/drho^2 + (1/rho) df/drho - (A/rho) dg/drho,

with classic RK4 in time by solve_cauchy, the one stepper, whose history
is a list of FieldOnGrid states (value, d/dx0 and d/drho at each recorded
x0).  The drift speed A/rho is negative everywhere, so its derivative is
one-sided toward larger rho (the inflow side); the second derivative is
centered.  Inside the horizon both characteristic speeds point inward, so
the inner edge is pure outflow and one-sided stencils suffice there; the
outer edge carries a sponge layer that damps what the data window lets by.

The coefficients of the system are real, so the real and imaginary parts
evolve apart: the stepper holds one real (4, n) state, rows Re f, Im f,
Re g, Im g, in preallocated buffers.  Its coefficients are folded once per
solve: the upwind stencil carries -1/rho, so a stage scales it by A(x0)
alone, and d^2/drho^2 + (1/rho) d/drho is one stencil with coefficient
vectors over rho.

The exact mode at wavenumber eta < 0 is started from the data that the
eikonal matches in value (gamma e^{-i eta rho}) and misses in frequency
(sqrt(eta^2+1) against |eta|), so the difference field away from x0 = 0
isolates the transport and frequency remainders of the eikonal.  The
module also evaluates the projection pair of a field history against the
transported packet, to measure how fast those remainders fall with the
localisation rate a and with |eta|: at x0 = 0 from the eikonal pair on
Gauss nodes plus the exact-minus-eikonal change in closed form, and on
evolved grids from the interpolated mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InstabilityError, ResolutionError
from .flow import FlowMap, VelocityProfile, transport
from .gammatools import packet_fourier
from .packets import (FieldOnGrid, ModeSpec, PacketParams, eikonal_values,
                      gamma_tilde, mode_initial_data, packet_values)
from .spectrum import density_from_projections

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
]

CFL_SAFETY = 0.45
GROWTH_BOUND = 5.0  # per-step sup-norm growth that flags blow-up
# AC7d's 5-minute budget for pde-verify at 250 ns per RK4 point-step
MAX_POINT_STEPS = 1.2e9
POINTS_PER_WAVELENGTH = 16
A_VALUES = (8.0, 16.0, 32.0)  # localisation rates of the remainder sweep
EVOLVE_ETA = -4.0  # wavenumber of the evolved remainder rows


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid and time step for the wave stepper."""

    rho_min: float
    rho_max: float
    n_rho: int
    dt: float
    order: int = 2

    def __post_init__(self) -> None:
        if self.rho_min <= 0.0 or self.rho_max <= self.rho_min:
            raise ValueError("need 0 < rho_min < rho_max")
        if self.n_rho < 16:
            raise ValueError("n_rho too small")
        if self.order not in (2, 4):
            raise ValueError("order must be 2 or 4")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")

    @property
    def rho(self) -> np.ndarray:
        return np.linspace(self.rho_min, self.rho_max, self.n_rho)

    @property
    def drho(self) -> float:
        return (self.rho_max - self.rho_min) / (self.n_rho - 1)

    def cfl_dt(self, a_max_abs: float) -> float:
        return CFL_SAFETY * self.drho / (1.0 + a_max_abs / self.rho_min)

    def within_cfl(self, a_max_abs: float) -> bool:
        return self.dt <= self.cfl_dt(a_max_abs) * (1.0 + 1e-12)

    @classmethod
    def auto(cls, rho_min: float, rho_max: float, n_rho: int,
             a_max_abs: float, order: int = 2) -> "RadialGrid":
        g = cls(rho_min, rho_max, n_rho, dt=1.0, order=order)
        return cls(rho_min, rho_max, n_rho, dt=g.cfl_dt(a_max_abs), order=order)


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
_D1_CENTERED = {
    2: ((slice(1, -1), -1, (0.5, 0.5)),
        (0, 0, (-1.5, 2.0, -0.5)), (-1, -2, (0.5, -2.0, 1.5))),
    4: ((slice(2, -2), -2, (-1 / 12, 7 / 12, 7 / 12, -1 / 12)),
        (0, 0, (-1.5, 2.0, -0.5)), (1, -1, (-0.5, 0.0, 0.5)),
        (-2, -1, (-0.5, 0.0, 0.5)), (-1, -2, (0.5, -2.0, 1.5))),
}
# biased toward +rho: the wind blows inward
_D1_UPWIND = {
    2: ((slice(0, -2), 0, (1.5, -0.5)),
        (-2, -1, (-0.5, 0.0, 0.5)), (-1, -1, (-1.0, 1.0))),
    4: ((slice(1, -2), -1, (1 / 3, 5 / 6, -1 / 6)),
        (0, 0, (-1.5, 2.0, -0.5)),
        (-2, -1, (-0.5, 0.0, 0.5)), (-1, -1, (-1.0, 1.0))),
}
_D2 = {
    2: ((slice(1, -1), -1, (-1.0, 1.0)),
        (0, 0, (2.0, -5.0, 4.0, -1.0)), (-1, -3, (-1.0, 4.0, -5.0, 2.0))),
    4: ((slice(2, -2), -2, (1 / 12, -5 / 4, 5 / 4, -1 / 12)),
        (0, 0, (2.0, -5.0, 4.0, -1.0)), (1, -1, (1.0, -2.0, 1.0)),
        (-2, -1, (1.0, -2.0, 1.0)), (-1, -3, (-1.0, 4.0, -5.0, 2.0))),
}


class _Stencil:
    """A banded operator along the last axis of C-contiguous arrays of a
    fixed shape.

    terms is a list of (stencil table, scale), the scale a scalar or a
    vector over rho; the terms share their interior rows and add, so one
    stencil can carry variable coefficients such as d2 + (1/rho) d1.  The
    interior acts on the forward difference of u, which stencils of one
    state can share; it runs over the flattened array, all rows in one
    pass, and the values it leaves where rows meet are overwritten by the
    edge rows, two small dense blocks over the _EDGE end columns.
    """

    def __init__(self, shape, terms) -> None:
        n = shape[-1]
        (inner, _, _), *_ = terms[0][0]  # interior rows, shared by the terms
        self.lo, self.hi = inner.start, -inner.stop
        self.left = np.zeros((_EDGE, self.lo))
        self.right = np.zeros((_EDGE, self.hi))
        taps = {}
        for ((_, first, coefs), *edge_rows), scale in terms:
            scale = np.broadcast_to(np.asarray(scale, dtype=float), (n,))
            for k, c in enumerate(coefs, first):
                taps.setdefault(k, np.zeros(n))[inner] += c * scale[inner]
            for row, first, coefs in edge_rows:
                if row >= 0:
                    block, col, dst = self.left, row + first, row
                else:
                    block, col, dst = (self.right, _EDGE + row + first,
                                       self.hi + row)
                block[col:col + len(coefs), dst] += np.multiply(coefs,
                                                                scale[row])
        self.first = min(taps)
        size = math.prod(shape)
        self.taps = [np.tile(taps[k], size // n)[self.lo:size - self.hi]
                     for k in sorted(taps)]

    def __call__(self, u, out=None, diff=None):
        """Apply to u; diff, the forward difference of u flattened, may be
        passed in when stencils share it."""
        u = np.ascontiguousarray(u)
        if out is None:
            out = np.empty_like(u, dtype=np.result_type(u, 1.0))
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        n = u.shape[-1]
        diff = np.diff(u.reshape(-1)) if diff is None else diff
        inner = out.reshape(-1)[self.lo:u.size - self.hi]
        m = len(inner)
        at = self.lo + self.first
        np.multiply(diff[at:at + m], self.taps[0], out=inner)
        for k, b in enumerate(self.taps[1:], at + 1):
            inner += b * diff[k:k + m]
        u, out2 = u.reshape(-1, n), out.reshape(-1, n)
        if self.lo:
            np.matmul(u[:, :_EDGE], self.left, out=out2[:, :self.lo])
        np.matmul(u[:, n - _EDGE:], self.right, out=out2[:, n - self.hi:])
        return out


def _d1_centered(u: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Centered first derivative at the grid's order, one-sided at the edges."""
    return _Stencil(np.shape(u), [(_D1_CENTERED[grid.order],
                                   1.0 / grid.drho)])(u)


def solve_cauchy(value0, dvalue0, grid: RadialGrid, profile,
                 t_final: float, out_times=None) -> list[FieldOnGrid]:
    """Evolve data (f, df/dx0) at x0 = 0 to t_final with classic RK4.

    profile is a VelocityProfile, whose max|A| sets the CFL bound
    dt <= safety * drho / (1 + max|A|/rho_min) (ValueError beyond it), or
    any callable x0 -> A(x0), which is stepped unchecked.  States are
    recorded after the initial state at out_times (default t_final), each
    at step max(1, round(t/dt)); the loop stops at the last of them.  Each
    recorded state carries d/drho by centered differences.

    The coefficients of the operator are real, so the real and imaginary
    parts evolve apart: the state is one real (4, n) array with rows
    Re f, Im f, Re g, Im g, stepped in place.  The upwind drift stencil
    carries -1/rho, so a stage multiplies it by A(x0) alone; the Laplacian
    d2 + (1/rho) d1 is one stencil with coefficient vectors; the sponge
    acts only where it is nonzero.
    """
    drift = profile
    if isinstance(profile, VelocityProfile):
        if not grid.within_cfl(profile.a_max_abs):
            raise ValueError(
                f"dt = {grid.dt:g} violates the CFL bound "
                f"{grid.cfl_dt(profile.a_max_abs):g} for max|A| = "
                f"{profile.a_max_abs:g}")
        drift = profile.eval
    n, dt = grid.n_rho, grid.dt
    rho = grid.rho
    inv_rho = 1.0 / rho
    # cubic sponge over the outer tenth of the grid
    width = 0.1 * (grid.rho_max - grid.rho_min)
    sponge = 4.0 / width * np.clip((rho - (grid.rho_max - width)) / width,
                                   0.0, 1.0) ** 3
    s0 = int(np.argmax(sponge > 0.0))
    sponge = sponge[s0:]
    upwind = _Stencil((4, n), [(_D1_UPWIND[grid.order],
                                -inv_rho / grid.drho)])
    laplacian = _Stencil((2, n), [(_D2[grid.order], grid.drho ** -2),
                                  (_D1_CENTERED[grid.order],
                                   inv_rho / grid.drho)])

    y = np.empty((4, n))
    acc, k_s, y_s, drift_term, tmp = (np.empty_like(y) for _ in range(5))
    diff = np.empty(4 * n - 1)

    def rhs(y, x0, out):
        # out = (g - (A/rho) f_r - sponge f, lap f - (A/rho) g_r - sponge g)
        np.subtract(y.reshape(-1)[1:], y.reshape(-1)[:-1], out=diff)
        upwind(y, drift_term, diff)
        np.multiply(drift_term, drift(x0), out=drift_term)
        np.add(y[2:], drift_term[:2], out=out[:2])
        laplacian(y[:2], out[2:], diff[:2 * n - 1])
        np.add(out[2:], drift_term[2:], out=out[2:])
        out[:, s0:] -= sponge * y[:, s0:]

    if out_times is None:
        out_times = [t_final]
    want = {max(1, int(round(t / dt))) for t in out_times if t > 0.0}

    # g = D f = df/dx0 + (A/rho) df/drho
    f = np.array(value0, dtype=complex)
    f_t = np.array(dvalue0, dtype=complex)
    f_r = _d1_centered(f, grid)
    g = f_t + drift(0.0) * inv_rho * f_r
    history = [FieldOnGrid(rho, f, f_t, f_r, 0.0)]
    y[:] = f.real, f.imag, g.real, g.imag
    peak = max(float(np.max(np.abs(f))), 1e-300)
    h = 0.5 * dt
    for k in range(1, max(want, default=0) + 1):
        x0 = (k - 1) * dt
        rhs(y, x0, acc)
        stage = acc
        for step, weight in ((h, 2.0), (h, 2.0), (dt, 1.0)):
            np.multiply(stage, step, out=y_s)
            y_s += y
            rhs(y_s, x0 + step, k_s)
            acc += (k_s if weight == 1.0 else
                    np.multiply(k_s, weight, out=tmp))
            stage = k_s
        acc *= dt / 6.0
        y += acc
        m = math.sqrt(float(np.max(y[0] ** 2 + y[1] ** 2)))
        if not math.isfinite(m) or m > GROWTH_BOUND * peak:
            raise InstabilityError(f"solution blew up at step {k}")
        peak = max(peak, m)
        if k in want:
            f = y[0] + 1j * y[1]
            f_r = _d1_centered(f, grid)
            f_t = y[2] + 1j * y[3] - drift(k * dt) * inv_rho * f_r
            history.append(FieldOnGrid(rho, f, f_t, f_r, k * dt))
    return history


def solve_mode(eta: float, grid: RadialGrid, profile: VelocityProfile,
               t_final: float, *, out_times=None) -> list[FieldOnGrid]:
    """Exact mode history for eta < 0 from eikonal-matched initial data.

    Data: f(0) = gamma e^{-i eta rho} * W, df/dx0(0) = i (A(0) eta / rho
    - sqrt(eta^2+1)) f(0) -- the conjugate-paired member of the plane-wave
    family (equivalently the "+" branch at wavenumber |eta|), which shares
    its value with the eikonal at x0 = 0.  W is the horizon window: 1 from
    the inner edge to a taper ahead of the outer sponge, so it never clips
    the packet support.
    """
    if eta >= 0.0:
        raise ValueError("solve_mode uses the eta < 0 branch")
    lam = 2.0 * math.pi / abs(eta)
    if grid.drho > lam / POINTS_PER_WAVELENGTH:
        raise ResolutionError(
            f"grid spacing {grid.drho:g} exceeds lambda/{POINTS_PER_WAVELENGTH} "
            f"= {lam / POINTS_PER_WAVELENGTH:g} at eta = {eta:g}")
    rho = grid.rho
    w = smooth_window(rho, *_horizon_window(grid))
    value0, dvalue0 = mode_initial_data(ModeSpec(eta=-eta), rho,
                                        profile.eval(0.0) / rho, family="+")
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
    # fine-grid EVOLVE_ETA states at x0 = 0, t_final/2 and t_final (snapped
    # to steps); kept for field snapshots, not serialised
    history: list[FieldOnGrid] = field(default_factory=list, repr=False)

    def to_jsonable(self) -> dict:
        def row(r: RemainderRow) -> dict:
            return {"a": r.a, "eta": r.eta, "dev_rel": r.dev_rel, "x0": r.x0,
                    "density_exact": r.density_exact,
                    "density_eikonal": r.density_eikonal}

        def evolved(r: RemainderRow) -> dict:
            return dict(row(r), discr_estimate=r.discr_estimate,
                        resolved=r.resolved)
        return {
            "rows_initial": [row(r) for r in self.rows_initial],
            "rows_evolved": [evolved(r) for r in self.rows_evolved],
            "sweep": {"a": self.sweep_a, "dev_rel": self.sweep_dev,
                      "leading": self.sweep_leading},
            "fit_exponent": self.fit_exponent,
            "fit_exponent_absolute": self.fit_exponent_absolute,
            "leading_exponent": self.leading_exponent,
            "eta_fit_exponent": self.eta_fit_exponent,
            "warnings": self.warnings,
        }


# Gauss-Legendre nodes on scaled wavenumber eta' = eta/a, where the density
# carries its mass; identical nodes on both sides of every comparison.
_SWEEP_NODES, _SWEEP_WEIGHTS = np.polynomial.legendre.leggauss(10)
_SWEEP_LO, _SWEEP_HI = 0.15, 5.0
_SWEEP_NODES = 0.5 * (_SWEEP_HI - _SWEEP_LO) * (_SWEEP_NODES + 1.0) + _SWEEP_LO
_SWEEP_WEIGHTS = 0.5 * (_SWEEP_HI - _SWEEP_LO) * _SWEEP_WEIGHTS


def _delta_c2(eta: float, p: PacketParams) -> complex:
    """Exact-minus-eikonal change in c2 at x0 = 0, eta < 0.

    The exact mode shares value and radial derivative with the eikonal at
    x0 = 0 and differs only in the frequency of its time derivative,
    sqrt(eta^2+1) against |eta|, so the change is closed in the packet
    transform F:

        delta c2 = -(sqrt(eta^2+1) - |eta|) gt(eta) e^{i eta sigma*} F(eta).
    """
    # sqrt(eta^2+1) - |eta| without the cancellation at large |eta|
    mismatch = 1.0 / (math.hypot(eta, 1.0) + abs(eta))
    return complex(-mismatch * gamma_tilde(eta) * np.exp(1j * eta * p.sigma_star)
                   * packet_fourier(eta, p.gamma_params, p.a))


def _initial_densities(eta: float, p: PacketParams, profile: VelocityProfile,
                       flow: FlowMap) -> tuple[float, float]:
    """(eikonal density, exact-minus-eikonal density) at x0 = 0, eta < 0.

    c1 and the eikonal c2 come from the node pair; the exact mode changes
    only c2, so the density changes by -4 Re(c1 conj(delta c2)).
    """
    q = packet_quadrature(p, flow, 0.0, abs(eta))
    pk, eik = _node_fields(q, p, eta, profile)
    c1, c2 = _pair_on_nodes(eik, pk, q, profile)
    return (density_from_projections(c1, c2),
            density_from_projections(c1, _delta_c2(eta, p)))


def _node_total(p: PacketParams, profile: VelocityProfile,
                flow: FlowMap) -> tuple[float, float]:
    """Fixed-node totals over eta = a*eta' of the eikonal density and of the
    exact-minus-eikonal density."""
    tot_eik = tot_diff = 0.0
    for w, ep in zip(_SWEEP_WEIGHTS, _SWEEP_NODES):
        d_eik, d_diff = _initial_densities(-p.a * float(ep), p, profile, flow)
        tot_eik += w * p.a * d_eik
        tot_diff += w * p.a * d_diff
    return tot_eik, tot_diff


def remainder_contribution(p: PacketParams, eta_samples, grid: RadialGrid,
                           profile: VelocityProfile, flow: FlowMap, *,
                           t_final: float = 0.75) -> RemainderReport:
    """Measure how the exact-mode creation density departs from the eikonal one.

    At x0 = 0 the departure is closed in the packet transform (see
    _initial_densities), so it is free of grid error; it is evaluated per
    fixed eta sample and as a node total over eta = a*eta', and the decay
    exponents of the total's relative deviation and of the per-eta
    deviation in (1 + |eta|) are fitted there.  The mode at EVOLVE_ETA is
    also evolved to t_final and, for each a in A_VALUES, the deviation is
    re-measured on transported nodes; a coarse-grid twin at the same time
    supplies a discretisation estimate and a warning when it is not small
    against the deviation being measured.  A grid too coarse for
    EVOLVE_ETA raises ResolutionError; a coarse twin too coarse for it
    leaves the estimate None, with a warning.  Grids whose two solves
    would take more than MAX_POINT_STEPS point-steps raise ConfigError
    before any work.
    """
    work = predicted_point_steps(grid, profile, t_final)
    if work > MAX_POINT_STEPS:
        raise ConfigError(
            f"the wave solves would take {work:.3g} point-steps (n_rho x "
            f"steps), beyond the budget of {MAX_POINT_STEPS:.3g}; lower "
            f"nrho or tfinal, or raise grid_rho_min or dt")
    report = RemainderReport()

    # per-eta departures at x0 = 0, fixed eta samples, largest a
    a_ref = max(A_VALUES)
    p_ref = p.with_a(a_ref)
    devs = []
    for eta in eta_samples:
        eta = float(eta)
        dk, d_diff = _initial_densities(eta, p_ref, profile, flow)
        dev = abs(d_diff) / abs(dk)
        devs.append((abs(eta), dev))
        report.rows_initial.append(RemainderRow(
            a=a_ref, eta=eta, density_exact=dk + d_diff, density_eikonal=dk,
            dev_rel=dev, x0=0.0))
    if len(devs) >= 2:
        x = np.log1p([d[0] for d in devs])
        y = np.log([d[1] for d in devs])
        report.eta_fit_exponent = float(-np.polyfit(x, y, 1)[0])
    else:
        report.warnings.append("eta-decay exponent needs at least two eta "
                               "samples; none fitted")

    # a-sweep of the node-total deviation at x0 = 0
    for a in A_VALUES:
        tk, t_diff = _node_total(p.with_a(a), profile, flow)
        report.sweep_a.append(a)
        report.sweep_dev.append(abs(t_diff) / abs(tk))
        report.sweep_leading.append(abs(tk))
    la = np.log(report.sweep_a)
    report.fit_exponent = float(-np.polyfit(la, np.log(report.sweep_dev), 1)[0])
    report.leading_exponent = float(-np.polyfit(
        la, np.log(report.sweep_leading), 1)[0])
    report.fit_exponent_absolute = report.fit_exponent + report.leading_exponent

    # the mode solve depends only on eta: run it (and its coarse twin) once
    # and project against each packet
    eta = EVOLVE_ETA
    report.history = solve_mode(eta, grid, profile, t_final,
                                out_times=[0.5 * t_final, t_final])
    fine_state = report.history[-1]
    try:
        coarse_state = _coarse_twin(eta, grid, profile, fine_state.x0)
    except ResolutionError as exc:
        coarse_state = None
        report.warnings.append(
            f"evolved rows have no discretisation estimate: coarse twin {exc}")

    for a in A_VALUES:
        row = _evolved_row(p.with_a(a), eta, fine_state, coarse_state,
                           grid.order, profile, flow)
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


def _two_zone_nodes(eps: float, alpha: float, eta_abs: float, s_max: float):
    """Nodes and weights (for plain ds integration) over (0, s_max], twelve
    Gauss points a panel."""
    base, bw = np.polynomial.legendre.leggauss(12)
    s_split = min(0.5 / max(eta_abs, 1e-30), 0.25 * s_max)
    # head: t = ln s; truncation below s_min loses O(s_min^eps / eps) mass,
    # a relative 1e-12
    s_min = (1e-12 * eps) ** (1.0 / eps) * s_split
    t_lo, t_hi = math.log(s_min), math.log(s_split)
    rad_per_panel = 2.0
    n_head = max(4, int(math.ceil((t_hi - t_lo) * max(alpha, 0.5) / rad_per_panel)))
    edges_t = np.linspace(t_lo, t_hi, n_head + 1)
    t_nodes = np.concatenate([0.5 * (b - a) * (base + 1.0) + a
                              for a, b in zip(edges_t[:-1], edges_t[1:])])
    t_w = np.concatenate([0.5 * (b - a) * bw
                          for a, b in zip(edges_t[:-1], edges_t[1:])])
    s_head = np.exp(t_nodes)
    w_head = t_w * s_head  # ds = s dt
    # tail: panel edges marched so each carries <= budget radians of the
    # local phase |eta| s + alpha ln s
    budget = 6.5
    edges = [s_split]
    while edges[-1] < s_max:
        freq = eta_abs + alpha / edges[-1]
        edges.append(min(s_max, edges[-1] + budget / freq))
    edges_s = np.asarray(edges)
    s_tail = np.concatenate([0.5 * (b - a) * (base + 1.0) + a
                             for a, b in zip(edges_s[:-1], edges_s[1:])])
    w_tail = np.concatenate([0.5 * (b - a) * bw
                             for a, b in zip(edges_s[:-1], edges_s[1:])])
    return np.concatenate([s_head, s_tail]), np.concatenate([w_head, w_tail])


def packet_quadrature(p: PacketParams, flow: FlowMap, x0: float,
                      eta_abs: float) -> PacketQuadrature:
    s, w = _two_zone_nodes(p.eps, p.alpha, float(eta_abs), p.s_max)

    # forward rays from (0, sigma_star + s) with tangent drho/dsigma
    rho, jac = transport(p.sigma_star + s, 0.0, x0, flow)
    return PacketQuadrature(s=s, rho=rho, dsig_drho=1.0 / jac,
                            weights=w * jac, x0=float(x0))


def _node_fields(q: PacketQuadrature, p: PacketParams, eta: float,
                 profile: VelocityProfile):
    """Packet and eikonal (value, d/dx0, d/drho) on transported nodes."""
    a0 = float(profile.eval(q.x0))
    return (packet_values(q.s, q.rho, q.dsig_drho, a0, p),
            eikonal_values(p.sigma_star + q.s, q.rho, q.dsig_drho, a0, eta))


def _mode_fields_at_nodes(q: PacketQuadrature, fld: FieldOnGrid) -> tuple:
    from scipy.interpolate import CubicSpline
    if q.rho.min() < fld.rho[0] or q.rho.max() > fld.rho[-1]:
        raise ResolutionError(
            "packet support left the grid; enlarge grid_rho_max")
    val = CubicSpline(fld.rho, fld.value)(q.rho)
    u_t = CubicSpline(fld.rho, fld.d_dx0)(q.rho)
    u_r = CubicSpline(fld.rho, fld.d_drho)(q.rho)
    return val, u_t, u_r


def _pair_on_nodes(mode_fields, packet_fields, q: PacketQuadrature,
                   profile) -> tuple[complex, complex]:
    u, u_t, u_r = mode_fields
    v, v_t, v_r = packet_fields
    a_over_rho = float(profile.eval(q.x0)) / q.rho
    c1 = 1j * np.sum(q.weights * np.conj(u) * (v_t + a_over_rho * v_r) * q.rho)
    c2_raw = -1j * np.sum(q.weights * (np.conj(u_t) + a_over_rho * np.conj(u_r))
                          * v * q.rho)
    return complex(c1), complex(-c2_raw)


def evolved_projection_densities(state: FieldOnGrid,
                                 profile: VelocityProfile, flow: FlowMap,
                                 p: PacketParams, eta: float
                                 ) -> tuple[float, float]:
    """(numeric-mode, eikonal) projection densities at state.x0.

    Both sides use the identical transported node quadrature, so its error
    cancels in the deviation; the numeric mode is spline-interpolated onto
    the nodes.
    """
    q = packet_quadrature(p, flow, state.x0, abs(eta))
    pk, eik = _node_fields(q, p, eta, profile)
    d_num = density_from_projections(
        *_pair_on_nodes(_mode_fields_at_nodes(q, state), pk, q, profile))
    d_eik = density_from_projections(*_pair_on_nodes(eik, pk, q, profile))
    return d_num, d_eik


def _horizon_window(grid: RadialGrid) -> tuple[float, float, float]:
    """Outer taper only: the packet support hugs the horizon, and inside it
    both characteristic families point inward, so the inner edge needs no
    damping and must not clip the data."""
    span = grid.rho_max - grid.rho_min
    width = 0.015 * span
    return (grid.rho_min - 10.0 * width, grid.rho_max - 0.18 * span, width)


def _coarse_grid(grid: RadialGrid, profile: VelocityProfile,
                 x0: float) -> tuple[RadialGrid, int]:
    """The half-resolution twin of grid, stepped to land on x0, and its
    step count: the largest step within its CFL bound that divides x0."""
    n_rho = grid.n_rho // 2 + 1
    cfl_dt = RadialGrid.auto(grid.rho_min, grid.rho_max, n_rho,
                             profile.a_max_abs, order=grid.order).dt
    steps = math.ceil(x0 / cfl_dt)
    return RadialGrid(grid.rho_min, grid.rho_max, n_rho, dt=x0 / steps,
                      order=grid.order), steps


def _coarse_twin(eta: float, grid: RadialGrid, profile: VelocityProfile,
                 x0: float) -> FieldOnGrid:
    """The mode at x0 on the half-resolution grid, stepped to land on x0.

    x0 is the fine state's (step-snapped) time, so that the two states
    differ by their grids alone.
    """
    return solve_mode(eta, _coarse_grid(grid, profile, x0)[0], profile, x0)[-1]


def predicted_point_steps(grid: RadialGrid, profile: VelocityProfile,
                          t_final: float) -> float:
    """RK4 point-steps (n_rho x steps) of remainder_contribution's two
    solves: the fine one to t_final and its coarse twin; inf when the step
    count overflows a float."""
    steps = max(1.0, round(t_final / grid.dt, 0))
    if not math.isfinite(steps):
        return math.inf
    coarse, coarse_steps = _coarse_grid(grid, profile, steps * grid.dt)
    return grid.n_rho * steps + coarse.n_rho * coarse_steps


def _evolved_row(p: PacketParams, eta: float, fine_state: FieldOnGrid,
                 coarse_state: FieldOnGrid | None, order: int,
                 profile: VelocityProfile, flow: FlowMap) -> RemainderRow:
    d_num, d_eik = evolved_projection_densities(fine_state, profile, flow,
                                                p, eta)
    dev = abs(d_num - d_eik) / abs(d_eik)
    if coarse_state is not None:
        d_num_c, d_eik_c = evolved_projection_densities(
            coarse_state, profile, flow, p, eta)
        dev_c = abs(d_num_c - d_eik_c) / abs(d_eik_c)
        discr = float(abs(dev - dev_c) / (2 ** order - 1.0))
    else:
        discr = None
    return RemainderRow(a=float(p.a), eta=float(eta),
                        density_exact=float(d_num),
                        density_eikonal=float(d_eik), dev_rel=float(dev),
                        x0=float(fine_state.x0), discr_estimate=discr,
                        resolved=discr is not None and bool(discr < 0.3 * dev))
