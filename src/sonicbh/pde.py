"""Direct finite-difference solution of the radial wave equation.

The radial flow v = A(x0)/rho has div v = 0, so for a massless field the
2+1 acoustic wave operator factorises through the drift derivative
D = d/dx0 + (A(x0)/rho) d/drho:

    L f = D^2 f - (d^2 f/drho^2 + (1/rho) df/drho) = 0,

stepped as the first-order system (f, g) with g = D f:

    df/dx0 = g - (A/rho) df/drho,
    dg/dx0 = d^2 f/drho^2 + (1/rho) df/drho - (A/rho) dg/drho,

with classic RK4 in time.  The drift speed A/rho is negative everywhere,
so its derivative is one-sided toward larger rho (the inflow side); the
second derivative is centered.  Inside the horizon both characteristic
speeds point inward, so the inner edge is pure outflow and one-sided
stencils suffice there; the outer edge carries a sponge layer that damps
whatever the data window lets through.

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

from .errors import InstabilityError, ResolutionError
from .flow import FlowMap, VelocityProfile, transport
from .gammatools import packet_fourier
from .packets import (FieldOnGrid, ModeSpec, PacketParams, eikonal_values,
                      gamma_tilde, mode_initial_data, packet_values)
from .spectrum import density_from_projections

__all__ = [
    "RadialGrid",
    "FieldState",
    "WaveStepper",
    "smooth_window",
    "solve_cauchy",
    "solve_mode",
    "state_to_field",
    "PacketQuadrature",
    "packet_quadrature",
    "evolved_projection_densities",
    "RemainderRow",
    "RemainderReport",
    "remainder_contribution",
    "dalembert_error",
]

CFL_SAFETY = 0.45
GROWTH_BOUND = 5.0  # per-step sup-norm growth that flags blow-up
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

    def max_speed(self, a_max_abs: float) -> float:
        return 1.0 + a_max_abs / self.rho_min

    def cfl_dt(self, a_max_abs: float) -> float:
        return CFL_SAFETY * self.drho / self.max_speed(a_max_abs)

    def within_cfl(self, a_max_abs: float) -> bool:
        return self.dt <= self.cfl_dt(a_max_abs) * (1.0 + 1e-12)

    @classmethod
    def auto(cls, rho_min: float, rho_max: float, n_rho: int,
             a_max_abs: float, order: int = 2) -> "RadialGrid":
        g = cls(rho_min, rho_max, n_rho, dt=1.0, order=order)
        return cls(rho_min, rho_max, n_rho, dt=g.cfl_dt(a_max_abs), order=order)


@dataclass
class FieldState:
    """Field and its time derivative on the grid at one instant."""

    value: np.ndarray
    dvalue_dx0: np.ndarray
    x0: float


def smooth_window(rho, lo: float, hi: float, width: float):
    """C-infinity ramp: ~1 on [lo, hi], ~0 beyond a few widths outside."""
    rho = np.asarray(rho, dtype=float)
    up = 0.5 * (1.0 + np.tanh((rho - lo) / width))
    dn = 0.5 * (1.0 - np.tanh((rho - hi) / width))
    return up * dn


class WaveStepper:
    """RK4 stepper for the (f, g) system on a RadialGrid.

    drift is any callable x0 -> A(x0); a VelocityProfile works directly.
    The CFL bound dt <= safety * drho / (1 + max|A|/rho_min) is enforced
    at construction when max|A| is known.
    """

    def __init__(self, grid: RadialGrid, drift, *, a_max_abs: float | None = None,
                 sponge_fraction: float = 0.1, sponge_strength: float | None = None):
        self.grid = grid
        if isinstance(drift, VelocityProfile):
            self.drift = lambda x0: float(drift.eval(x0))
            a_max_abs = drift.a_max_abs if a_max_abs is None else a_max_abs
        else:
            self.drift = drift
        if a_max_abs is not None and not grid.within_cfl(a_max_abs):
            raise ValueError(
                f"dt = {grid.dt:g} violates the CFL bound "
                f"{grid.cfl_dt(a_max_abs):g} for max|A| = {a_max_abs:g}")
        self.rho = grid.rho
        self.inv_rho = 1.0 / self.rho
        self._dr = grid.drho
        width = sponge_fraction * (grid.rho_max - grid.rho_min)
        ramp = np.clip((self.rho - (grid.rho_max - width)) / width, 0.0, 1.0)
        if sponge_strength is None:
            sponge_strength = 4.0 / width
        self.sponge = sponge_strength * ramp ** 3

    # -- spatial operators ------------------------------------------------

    def d1_upwind(self, u: np.ndarray) -> np.ndarray:
        """First derivative biased toward +rho (wind blows inward)."""
        dr = self._dr
        out = np.empty_like(u)
        if self.grid.order == 2:
            out[:-2] = (-3.0 * u[:-2] + 4.0 * u[1:-1] - u[2:]) / (2.0 * dr)
        else:
            out[1:-2] = (-2.0 * u[:-3] - 3.0 * u[1:-2]
                         + 6.0 * u[2:-1] - u[3:]) / (6.0 * dr)
            out[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dr)
        out[-2] = (u[-1] - u[-3]) / (2.0 * dr)
        out[-1] = (u[-1] - u[-2]) / dr
        return out

    def d1_centered(self, u: np.ndarray) -> np.ndarray:
        dr = self._dr
        out = np.empty_like(u)
        if self.grid.order == 2:
            out[1:-1] = (u[2:] - u[:-2]) / (2.0 * dr)
        else:
            out[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * dr)
            out[1] = (u[2] - u[0]) / (2.0 * dr)
            out[-2] = (u[-1] - u[-3]) / (2.0 * dr)
        out[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dr)
        out[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dr)
        return out

    def d2(self, u: np.ndarray) -> np.ndarray:
        dr = self._dr
        out = np.empty_like(u)
        if self.grid.order == 2:
            out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dr ** 2
        else:
            out[2:-2] = (-u[:-4] + 16.0 * u[1:-3] - 30.0 * u[2:-2]
                         + 16.0 * u[3:-1] - u[4:]) / (12.0 * dr ** 2)
            out[1] = (u[2] - 2.0 * u[1] + u[0]) / dr ** 2
            out[-2] = (u[-1] - 2.0 * u[-2] + u[-3]) / dr ** 2
        out[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / dr ** 2
        out[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / dr ** 2
        return out

    # -- time stepping -----------------------------------------------------

    def _rhs(self, f, g, x0):
        c = self.drift(x0) * self.inv_rho
        lap = self.d2(f) + self.inv_rho * self.d1_centered(f)
        df = g - c * self.d1_upwind(f) - self.sponge * f
        dg = lap - c * self.d1_upwind(g) - self.sponge * g
        return df, dg

    def step(self, f, g, x0):
        dt = self.grid.dt
        k1f, k1g = self._rhs(f, g, x0)
        k2f, k2g = self._rhs(f + 0.5 * dt * k1f, g + 0.5 * dt * k1g, x0 + 0.5 * dt)
        k3f, k3g = self._rhs(f + 0.5 * dt * k2f, g + 0.5 * dt * k2g, x0 + 0.5 * dt)
        k4f, k4g = self._rhs(f + dt * k3f, g + dt * k3g, x0 + dt)
        f1 = f + dt / 6.0 * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
        g1 = g + dt / 6.0 * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
        return f1, g1

    def g_from_state(self, state: FieldState) -> np.ndarray:
        c = self.drift(state.x0) * self.inv_rho
        return state.dvalue_dx0 + c * self.d1_centered(state.value)

    def state_from_fg(self, f, g, x0) -> FieldState:
        c = self.drift(x0) * self.inv_rho
        return FieldState(value=f, dvalue_dx0=g - c * self.d1_centered(f), x0=x0)


def solve_cauchy(value0, dvalue0, grid: RadialGrid, profile,
                 t_final: float, out_times=None) -> list[FieldState]:
    """Evolve generic data to t_final, recording states at out_times.

    out_times are snapped to step multiples; the initial state is always
    recorded first.
    """
    stepper = WaveStepper(grid, profile)
    dt = grid.dt
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(t_final, dt):
        n_steps = int(math.ceil(t_final / dt))
    if out_times is None:
        out_times = [t_final]
    want = sorted({int(round(t / dt)) for t in out_times if t > 0.0})

    f = np.asarray(value0, dtype=complex).copy()
    g = stepper.g_from_state(FieldState(f, np.asarray(dvalue0, dtype=complex), 0.0))
    history = [FieldState(value=f.copy(),
                          dvalue_dx0=np.asarray(dvalue0, dtype=complex).copy(),
                          x0=0.0)]
    peak = max(float(np.max(np.abs(f))), 1e-300)
    for k in range(1, n_steps + 1):
        f, g = stepper.step(f, g, (k - 1) * dt)
        m = float(np.max(np.abs(f)))
        if not np.isfinite(m) or m > GROWTH_BOUND * peak:
            raise InstabilityError(f"solution blew up at step {k}")
        peak = max(peak, m)
        if k in want:
            history.append(stepper.state_from_fg(f, g, k * dt))
    return history


def solve_mode(eta: float, grid: RadialGrid, profile: VelocityProfile,
               t_final: float, *, out_times=None) -> list[FieldState]:
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


def state_to_field(state: FieldState, grid: RadialGrid, profile) -> FieldOnGrid:
    """FieldOnGrid view of a state (radial derivative by centered differences)."""
    stepper = WaveStepper(grid, profile)
    return FieldOnGrid(rho=grid.rho, value=state.value,
                       d_dx0=state.dvalue_dx0,
                       d_drho=stepper.d1_centered(state.value))


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
    history: list[FieldState] = field(default_factory=list, repr=False)

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
    re-measured on transported nodes; a coarse-grid twin supplies a
    discretisation estimate and a warning when it is not small against the
    deviation being measured.  A grid too coarse for EVOLVE_ETA raises
    ResolutionError; a coarse twin too coarse for it leaves the estimate
    None, with a warning.
    """
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
    coarse = RadialGrid.auto(grid.rho_min, grid.rho_max, grid.n_rho // 2 + 1,
                             profile.a_max_abs, order=grid.order)
    report.history = solve_mode(eta, grid, profile, t_final,
                                out_times=[0.5 * t_final, t_final])
    fine_state = report.history[-1]
    try:
        coarse_state = solve_mode(eta, coarse, profile, t_final)[-1]
    except ResolutionError as exc:
        coarse_state = None
        report.warnings.append(
            f"evolved rows have no discretisation estimate: coarse twin {exc}")

    for a in A_VALUES:
        row = _evolved_row(p.with_a(a), eta, fine_state, grid, coarse_state,
                           coarse, profile, flow)
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


def _two_zone_nodes(eps: float, alpha: float, eta_abs: float, s_max: float,
                    n_per_panel: int = 12, tol_mass: float = 1e-12):
    """Nodes and weights (for plain ds integration) over (0, s_max]."""
    base, bw = np.polynomial.legendre.leggauss(n_per_panel)
    s_split = min(0.5 / max(eta_abs, 1e-30), 0.25 * s_max)
    # head: t = ln s; truncation below s_min loses O(s_min^eps / eps) mass
    s_min = (tol_mass * eps) ** (1.0 / eps) * s_split
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
                      eta_abs: float, s_max: float | None = None,
                      n_per_panel: int = 12) -> PacketQuadrature:
    if s_max is None:
        s_max = 45.0 / p.a
    s, w = _two_zone_nodes(p.eps, p.alpha, float(eta_abs), s_max,
                           n_per_panel=n_per_panel)

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


def _mode_fields_at_nodes(q: PacketQuadrature, state: FieldState,
                          grid: RadialGrid, profile) -> tuple:
    from scipy.interpolate import CubicSpline
    fld = state_to_field(state, grid, profile)
    if q.rho.min() < grid.rho_min or q.rho.max() > grid.rho_max:
        raise ResolutionError(
            "packet support left the grid; enlarge grid_rho_max")
    val = CubicSpline(grid.rho, fld.value)(q.rho)
    u_t = CubicSpline(grid.rho, fld.d_dx0)(q.rho)
    u_r = CubicSpline(grid.rho, fld.d_drho)(q.rho)
    return val, u_t, u_r


def _pair_on_nodes(mode_fields, packet_fields_, q: PacketQuadrature,
                   profile) -> tuple[complex, complex]:
    u, u_t, u_r = mode_fields
    v, v_t, v_r = packet_fields_
    a_over_rho = float(profile.eval(q.x0)) / q.rho
    c1 = 1j * np.sum(q.weights * np.conj(u) * (v_t + a_over_rho * v_r) * q.rho)
    c2_raw = -1j * np.sum(q.weights * (np.conj(u_t) + a_over_rho * np.conj(u_r))
                          * v * q.rho)
    return complex(c1), complex(-c2_raw)


def evolved_projection_densities(state: FieldState, grid: RadialGrid,
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
        *_pair_on_nodes(_mode_fields_at_nodes(q, state, grid, profile), pk,
                        q, profile))
    d_eik = density_from_projections(*_pair_on_nodes(eik, pk, q, profile))
    return d_num, d_eik


def _horizon_window(grid: RadialGrid) -> tuple[float, float, float]:
    """Outer taper only: the packet support hugs the horizon, and inside it
    both characteristic families point inward, so the inner edge needs no
    damping and must not clip the data."""
    span = grid.rho_max - grid.rho_min
    width = 0.015 * span
    return (grid.rho_min - 10.0 * width, grid.rho_max - 0.18 * span, width)


def _evolved_row(p: PacketParams, eta: float, fine_state: FieldState,
                 grid: RadialGrid, coarse_state: FieldState | None,
                 coarse: RadialGrid, profile: VelocityProfile,
                 flow: FlowMap) -> RemainderRow:
    d_num, d_eik = evolved_projection_densities(fine_state, grid, profile,
                                                flow, p, eta)
    dev = abs(d_num - d_eik) / abs(d_eik)
    if coarse_state is not None:
        d_num_c, d_eik_c = evolved_projection_densities(
            coarse_state, coarse, profile, flow, p, eta)
        dev_c = abs(d_num_c - d_eik_c) / abs(d_eik_c)
        discr = float(abs(dev - dev_c) / (2 ** grid.order - 1.0))
    else:
        discr = None
    return RemainderRow(a=float(p.a), eta=float(eta),
                        density_exact=float(d_num),
                        density_eikonal=float(d_eik), dev_rel=float(dev),
                        x0=float(fine_state.x0), discr_estimate=discr,
                        resolved=discr is not None and bool(discr < 0.3 * dev))


def dalembert_error(n_rho: int, order: int, t_final: float = 1.0) -> float:
    """Max error against the exact standing Bessel mode for A == 0.

    With no drift the system reduces to f_tt = f_rr + f_r / rho; data
    f = J0(k rho), f_t = 0 evolve exactly as J0(k rho) cos(k x0).  The
    error is taken on [2 + t + 1/4, 11 - t - 1/4], which neither grid edge
    nor the sponge (rho > 11) can reach by time t at unit speed.
    """
    from scipy.special import j0
    trial = RadialGrid.auto(2.0, 12.0, n_rho, a_max_abs=0.0, order=order)
    dt = t_final / math.ceil(t_final / trial.dt)  # land exactly on t_final
    grid = RadialGrid(2.0, 12.0, n_rho, dt=dt, order=order)
    k = 3.0
    rho = grid.rho
    hist = solve_cauchy(j0(k * rho).astype(complex), np.zeros(n_rho, complex),
                        grid, lambda x0: 0.0, t_final)
    last = hist[-1]
    inner = (rho >= 2.25 + last.x0) & (rho <= 10.75 - last.x0)
    exact = j0(k * rho[inner]) * math.cos(k * last.x0)
    return float(np.max(np.abs(last.value.real[inner] - exact)))
