"""Wave solver: scheme order, stability guards, mode evolution, remainders.

Heavier runs live in the acceptance suite; here solves stay at or below
n_rho = 1024 and, but for the long-run stability check on 384 points, a
fraction of a transition time.
"""

import ast
import math
import pathlib

import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from sonicbh import packets, pde
from sonicbh.errors import ConfigError, InstabilityError, ResolutionError
from sonicbh.flow import VelocityProfile, find_separatrix, transport
from sonicbh.packets import PacketParams, mode_initial_data, gamma_tilde
from sonicbh.pde import (A_VALUES, RadialGrid,
                         evolved_projection_densities, packet_quadrature,
                         remainder_contribution, smooth_window, solve_cauchy,
                         solve_mode, _Stencil, _D1_CENTERED, _D1_UPWIND, _D2,
                         _horizon_window, _node_fields, _pair_on_nodes,
                         _SWEEP_NODES, _SWEEP_WEIGHTS)
from sonicbh.spectrum import creation_density, density_from_projections

from oracles import (dalembert_error, eikonal_fields, kg_inner,
                     packet_fields, quad_complex)


@pytest.fixture(scope="module")
def packet(smooth_flow):
    return PacketParams(alpha=1.0, a=8.0, eps=0.25,
                        sigma_star=smooth_flow.sigma_star)


# the adaptive reference for the node pair and the closed x0 = 0 rows
def initial_projection_pair(eta: float, p: PacketParams,
                            profile: VelocityProfile,
                            mode: str = "exact") -> tuple[complex, complex]:
    """Adaptive-quadrature projection pair at x0 = 0 from closed-form data.

    mode="exact" uses the plane-wave frequency sqrt(eta^2+1); "eikonal"
    uses the transported frequency |eta|.  The two share value and radial
    derivative at x0 = 0, so they differ only through the mode-derivative
    side.  The substitution u = s^eps absorbs the packet-edge singularity.
    """
    if eta >= 0.0:
        raise ValueError("eta must be negative")
    if mode not in ("exact", "eikonal"):
        raise ValueError("mode must be 'exact' or 'eikonal'")
    a0 = float(profile.eval(0.0))
    gt = gamma_tilde(eta)
    root = math.sqrt(eta * eta + 1.0)
    star = p.sigma_star
    eps = p.eps

    def pieces(s):
        rho = star + s
        prof = np.exp((eps + 1j * p.alpha) * np.log(s) - p.a * s)
        dprof = prof * ((eps + 1j * p.alpha) / s - p.a)
        v = rho ** -0.5 * prof
        v_t = -rho ** -0.5 * (a0 / rho + 1.0) * dprof
        v_r = -0.5 * rho ** -1.5 * prof + rho ** -0.5 * dprof
        u = gt * rho ** -0.5 * np.exp(-1j * eta * rho)
        if mode == "exact":
            u_t = 1j * (a0 * eta / rho - root) * u
        else:
            u_t = 1j * (a0 * eta / rho + eta) * u
        u_r = (-0.5 / rho - 1j * eta) * u
        return rho, u, u_t, u_r, v, v_t, v_r

    def f1(s):
        rho, u, _, _, _, v_t, v_r = pieces(s)
        return 1j * np.conj(u) * (v_t + (a0 / rho) * v_r) * rho

    def f2(s):
        rho, _, u_t, u_r, v, _, _ = pieces(s)
        return -1j * (np.conj(u_t) + (a0 / rho) * np.conj(u_r)) * v * rho

    s_max = 45.0 / p.a
    u_max = s_max ** eps

    def cquad(fn):
        def g(uu):
            s = uu ** (1.0 / eps)
            return fn(s) * s / (eps * uu)
        return quad_complex(g, 0.0, u_max, epsabs=1e-13, epsrel=1e-11,
                            limit=800)

    return complex(cquad(f1)), complex(-cquad(f2))


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(0.0, 1.0, 64, dt=1e-3)
    with pytest.raises(ValueError):
        RadialGrid(0.5, 1.0, 8, dt=1e-3)
    # NRHO_MIN is the smallest n_rho whose coarse twin keeps MIN_POINTS
    RadialGrid(0.3, 9.0, pde.MIN_POINTS, dt=1e-3)
    with pytest.raises(ValueError, match="n_rho too small"):
        RadialGrid(0.3, 9.0, pde.MIN_POINTS - 1, dt=1e-3)
    assert pde.NRHO_MIN // 2 + 1 == pde.MIN_POINTS
    assert (pde.NRHO_MIN - 1) // 2 + 1 == pde.MIN_POINTS - 1
    # an outer edge at the inner one is the config's grid_rho_max, exit 2
    with pytest.raises(ConfigError, match="grid_rho_max must exceed the "
                                          "wave grid's inner edge 1$") as exc:
        RadialGrid(1.0, 1.0, 64, dt=1e-3)
    assert exc.value.exit_code == 2


@pytest.mark.parametrize("t_final", [0.75, 0.1, 1.0 / 3.0, 1e-4, 1e-300, 1e5])
def test_auto_grid_lands_on_half_and_final_time(smooth_profile, t_final):
    # dt = t_final/(2m), the largest such step within the CFL bound
    grid = RadialGrid.auto(0.3, 9.0, 256, smooth_profile, t_final)
    cfl_dt = grid.cfl_dt(smooth_profile.max_abs(0.0, t_final))
    m = grid.steps(0.5 * t_final)
    assert grid.steps(t_final) == 2 * m
    assert grid.dt <= cfl_dt * (1.0 + 1e-12)
    assert m == 1 or t_final / (2 * m - 2) > cfl_dt
    with pytest.raises(ValueError, match="not a whole number of steps"):
        grid.steps(1.5 * grid.dt)


def test_cfl_enforced(smooth_profile):
    grid = RadialGrid.auto(0.3, 9.0, 256, smooth_profile, 0.1)
    bad = RadialGrid(0.3, 9.0, 256, dt=3.0 * grid.dt)
    f = np.zeros(256, complex)
    with pytest.raises(ConfigError):
        solve_cauchy(f, f, bad, smooth_profile, 10 * bad.dt)


def test_instability_detector():
    # far beyond the CFL bound (a callable drift, so no CFL check)
    grid = RadialGrid(2.0, 12.0, 256, dt=1.0)
    rho = grid.rho
    f = np.exp(-((rho - 7.0) / 0.5) ** 2).astype(complex)
    with pytest.raises(InstabilityError):
        solve_cauchy(f, np.zeros_like(f), grid, lambda x0: 0.0, 10.0)


def _interior_symbol(table, theta):
    """Fourier symbol, in units of drho^-p, of a stencil's interior row,
    whose coefficients sit on forward differences."""
    (_, first, coefs), *_ = table
    z = np.exp(1j * theta)
    return sum(c * z ** k * (z - 1.0) for k, c in enumerate(coefs, first))


def _rk4_gain(z):
    return np.abs(1.0 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24)


def _rk4_limit(lam, tol=0.0):
    """The largest s, by bisection, with |R(s lam)| <= 1 + tol over lam."""
    lo, hi = 0.0, 4.0 / np.max(np.abs(lam))
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        lo, hi = ((mid, hi) if np.all(_rk4_gain(mid * lam) <= 1.0 + tol)
                  else (lo, mid))
    return lo


def test_step_limits_match_stencil_symbols():
    theta = np.linspace(1e-7, np.pi, 4001)
    drift = _interior_symbol(_D1_UPWIND, theta)
    d2 = _interior_symbol(_D2, theta)
    s_drift = _rk4_limit(drift)  # the drift alone: z = s * symbol
    # the wave pair (f, g) has symbol +-i sqrt|D2|; RK4 holds the
    # imaginary axis to 2 sqrt 2
    s_wave = 2.0 * math.sqrt(2.0) / math.sqrt(np.max(np.abs(d2)))
    assert s_drift == pytest.approx(1.7452, abs=1e-3)
    assert s_wave == pytest.approx(math.sqrt(1.5), rel=1e-12)

    # the joint limit of the coupled symbol v U +- i sqrt|D2| against an
    # independent scan of 20 001 theta (|R| rounds above 1 by up to 1e-16
    # near theta = 0), and never below the sum bound 1/(v/s_d + 1/s_w) of
    # the two stencils' separate limits
    fine = np.linspace(0.0, np.pi, 20001)
    up = _interior_symbol(_D1_UPWIND, fine)
    wave = 1j * np.sqrt(np.abs(_interior_symbol(_D2, fine)))
    for v in np.geomspace(1e-3, 1e4, 15):
        joint = pde._joint_step_limit(float(v))
        scan = _rk4_limit(np.concatenate([v * up + wave, v * up - wave]),
                          tol=1e-14)
        assert joint == pytest.approx(scan, rel=1e-3), v
        assert joint >= 1.0 / (v / s_drift + 1.0 / s_wave), v
    # at the defaults' speed v = 1/0.64, 13.6% above the sum bound 0.5842
    assert pde._joint_step_limit(1.0 / 0.64) == pytest.approx(0.6635,
                                                             abs=1e-4)

    # the coupled interior system with coefficients frozen at rho_min,
    # where drift and f_r/rho peak: lambda = v D1up +- sqrt(D2 + D1c/rho).
    # The operator itself grows at up to max Re lambda; at cfl_dt/0.9
    # no mode may outgrow that, so cfl_dt <= 0.9 x the coupled bound.
    centred = _interior_symbol(_D1_CENTERED, theta)
    for n_rho in (384, 2048):
        grid = RadialGrid(0.3, 9.0, n_rho, dt=1.0)
        h, rho = grid.drho, grid.rho_min
        root = np.sqrt(d2 / h ** 2 + centred / (rho * h))
        for v in np.geomspace(1e-3, 1e4, 29):
            lam = np.concatenate([v * drift / h + root,
                                  v * drift / h - root])
            dt = grid.cfl_dt(v * rho) / pde.STEP_SAFETY
            growth = math.exp(dt * max(0.0, float(np.max(lam.real))))
            worst = float(np.max(_rk4_gain(dt * lam)))
            assert worst <= growth * (1.0 + 1e-12), (n_rho, v)


def test_solve_cauchy_stable_at_step_bound(smooth_profile):
    # a pulse on the default flow, to t = 20 where the drift reaches 3.3 and
    # to t = 2 where it reaches 50 (inner edge 0.02)
    a_max = abs(smooth_profile.a_minus)  # 1.2, max|A| over all x0
    for rho_min, t_final in ((0.3, 20.0), (0.02, 2.0)):
        grid = RadialGrid.auto(rho_min, 9.0, 384, smooth_profile, t_final)
        f = np.exp(-((grid.rho - 3.0) / 0.5) ** 2).astype(complex)
        hist = solve_cauchy(f, np.zeros_like(f), grid, smooth_profile,
                            t_final, out_times=[0.5 * t_final, t_final])
        peak = max(float(np.max(np.abs(st.value))) for st in hist[1:])
        assert peak <= 1.5, (rho_min, peak)
    # the control: five times the bound (a callable drift, so no CFL check)
    # blows up within tens of steps
    dt = RadialGrid(0.3, 9.0, 384, dt=1.0).cfl_dt(a_max)
    grid = RadialGrid(0.3, 9.0, 384, dt=5.0 * dt)
    f = np.exp(-((grid.rho - 3.0) / 0.5) ** 2).astype(complex)
    with pytest.raises(InstabilityError):
        solve_cauchy(f, np.zeros_like(f), grid, smooth_profile.eval,
                     200 * grid.dt)


@pytest.mark.parametrize("rho_min,factor,centre,steps", [
    (0.3, 2.5, 3.0, 1000),  # grows until its square overflows a float
    (0.02, 2.0, 0.3, 2000),  # grows below 5x a step, to 1.7e18 unguarded
])
def test_growth_guard_catches_slow_blowup(smooth_profile, rho_min, factor,
                                          centre, steps):
    # beyond the step bound (a callable drift, so no CFL check): growth
    # below GROWTH_BOUND a step is caught once the state passes
    # GROWTH_LIMIT times its initial sup-norm, long before floats overflow
    dt = RadialGrid(rho_min, 9.0, 384, dt=1.0).cfl_dt(
        abs(smooth_profile.a_minus))
    grid = RadialGrid(rho_min, 9.0, 384, dt=factor * dt)
    f = np.exp(-((grid.rho - centre) / 0.5) ** 2).astype(complex)
    for solver in (solve_cauchy, oracles.solve_cauchy):
        with pytest.raises(InstabilityError, match="blew up"):
            solver(f, np.zeros_like(f), grid, smooth_profile.eval,
                   steps * grid.dt)


@pytest.mark.parametrize("where", ["value", "dvalue"])
def test_growth_guard_stops_nan_data_at_step_1(smooth_profile, where):
    # NaN fails every comparison, so the guard's test "not m <= bound"
    # refuses a state holding one, here from the first step on
    grid = RadialGrid.auto(0.3, 9.0, 256, smooth_profile, 1.0)
    pulse = np.exp(-((grid.rho - 3.0) / 0.5) ** 2).astype(complex)
    value, dvalue = pulse.copy(), np.zeros_like(pulse)
    if where == "value":
        value[100] = math.nan
    else:
        dvalue[100] = complex(0.0, math.nan)
    for solver in (solve_cauchy, oracles.solve_cauchy):
        with pytest.raises(InstabilityError, match="blew up at step 1$"):
            solver(value, dvalue, grid, smooth_profile.eval, 10 * grid.dt)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_growth_guard_stops_a_nan_drift_at_its_step(smooth_profile, k):
    # a drift that is NaN from the middle of step k on (its stages sample
    # x0 = (k - 1) dt, (k - 1/2) dt and k dt) turns the state NaN in step
    # k, and the guard stops the solve there, not later
    grid = RadialGrid.auto(0.3, 9.0, 256, smooth_profile, 1.0)
    pulse = np.exp(-((grid.rho - 3.0) / 0.5) ** 2).astype(complex)

    def drift(x0):
        if x0 >= (k - 0.75) * grid.dt:
            return math.nan
        return smooth_profile.eval(x0)

    for solver in (solve_cauchy, oracles.solve_cauchy):
        with pytest.raises(InstabilityError, match=f"blew up at step {k}$"):
            solver(pulse, np.zeros_like(pulse), grid, drift, 10 * grid.dt)


def test_growth_guard_reads_the_whole_state(smooth_profile):
    # data with f = 0 and a pulse in df/dx0 grow f from zero without
    # tripping the guard, which measures (f, g) together
    grid = RadialGrid.auto(0.3, 9.0, 384, smooth_profile, 1.0)
    pulse = np.exp(-((grid.rho - 3.0) / 0.5) ** 2).astype(complex)
    hist = solve_cauchy(np.zeros_like(pulse), pulse, grid, smooth_profile,
                        1.0)
    assert np.max(np.abs(hist[-1].value)) > 0.1


def test_step_counts_on_fixed_grids():
    # 1024 points and the coarse twin, and 2048 points, with the inner edge
    # at 0.3 and |A| = 1.2: the pde-verify defaults before the edge was
    # derived from the flow, under the joint step bound
    def grid(n_rho):
        return RadialGrid.auto(0.3, 9.0, n_rho,
                               VelocityProfile(a_minus=-1.2, a_plus=-1.2),
                               0.75)
    assert grid(1024).steps(0.75) == 286
    assert grid(513).steps(0.75) == 144
    # point-steps 1024 * 286 + 513 * 144, plus N_STEP for each step
    assert pde.predicted_point_steps((grid(1024), grid(513)),
                                     0.75) == 366_736 + 900 * (286 + 144)
    assert grid(2048).steps(0.75) == 572


def test_step_counts_at_the_defaults(smooth_profile):
    # the pde-verify defaults: the inner edge 0.8 min(|A-|, |A+|) = 0.64
    # and max|A| = |A(0)| = 1 over [0, 0.75] cut the point-steps of the
    # fixed grids above by 46.1%
    edge = pde.inner_edge(smooth_profile)
    assert edge == pytest.approx(0.64, rel=1e-15)
    assert smooth_profile.max_abs(0.0, 0.75) == 1.0

    def grid(n_rho):
        return RadialGrid.auto(edge, 9.0, n_rho, smooth_profile, 0.75)
    assert grid(1024).steps(0.75) == 154
    assert grid(513).steps(0.75) == 78
    assert pde.predicted_point_steps((grid(1024), grid(513)),
                                     0.75) == 197_710 + 900 * (154 + 78)


def test_step_bound_takes_the_rising_end_of_the_flow():
    # |A| rises from 1 at x0 = 0 to 1.114 at t_final = 0.651, where 40
    # steps of the bound of max|A| over [0, t_final], its end value, land:
    # both steppers take that step and refuse 1.01 times it, though that
    # lies within the bound of |A(0)|
    profile = VelocityProfile(a_minus=-0.8, a_plus=-1.2)
    edge = pde.inner_edge(profile)
    shape = RadialGrid(edge, 9.0, 256, dt=1.0)

    def bound(t):
        return shape.cfl_dt(profile.max_abs(0.0, t))

    t_final = brentq(lambda t: t - 40 * bound(t), 0.5, 1.0)
    dt = t_final / 40
    assert dt == pytest.approx(bound(t_final), rel=1e-14)
    assert abs(profile.eval(t_final)) > abs(profile.eval(0.0)) + 0.1
    assert 1.01 * dt < shape.cfl_dt(abs(profile.eval(0.0)))
    f = np.exp(-((shape.rho - 3.0) / 0.5) ** 2).astype(complex)
    for solver in (solve_cauchy, oracles.solve_cauchy):
        grid = RadialGrid(edge, 9.0, 256, dt=dt)
        assert solver(f, f, grid, profile, t_final)[-1].x0 == t_final
        grid = RadialGrid(edge, 9.0, 256, dt=1.01 * dt)
        with pytest.raises(ConfigError, match="violates the CFL bound"):
            solver(f, f, grid, profile, 40 * grid.dt)


def test_dalembert_self_convergence():
    errs = [dalembert_error(n, t_final=1.0) for n in (257, 513, 1025)]
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) >= 3.8, (errs, rates)


def _apply(terms, u):
    """The stencil of terms applied to u, into a fresh array."""
    return _Stencil(u.shape, terms).bind(u, np.empty_like(u),
                                         np.diff(u.reshape(-1)))(0)


def test_d1_upwind_interior_rate():
    # the drift stencil alone, the third-order biased one, which
    # dalembert_error never reaches (A = 0 there)
    errs = []
    for n in (257, 513, 1025):
        grid = RadialGrid(2.0, 12.0, n, dt=1.0)
        rho = grid.rho
        inner = (rho >= 3.0) & (rho <= 11.0)
        err = (_apply([(_D1_UPWIND, 1.0 / grid.drho)], np.sin(3.0 * rho))
               - 3.0 * np.cos(3.0 * rho))
        errs.append(float(np.max(np.abs(err[inner]))))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) >= 2.9, (errs, rates)


def test_stencils_match_oracle():
    # one row and a (4, n) stack into out, real and complex: the banded
    # stencils against the explicit slice stencils of the oracle
    rng = np.random.default_rng(4)
    grid = RadialGrid(0.3, 9.0, 257, dt=1.0)
    u = rng.standard_normal((4, grid.n_rho))
    z = u[0] + 1j * u[1]
    inv_h, inv_h2 = 1.0 / grid.drho, grid.drho ** -2
    for table, factor, ref in ((_D1_CENTERED, inv_h, oracles.d1_centered),
                               (_D1_UPWIND, inv_h, oracles.d1_upwind),
                               (_D2, inv_h2, oracles.d2)):
        terms = [(table, factor)]
        out = np.empty_like(u)
        diff = np.diff(u.reshape(-1))
        assert _Stencil(u.shape, terms).bind(u, out, diff)(0) is out
        want = np.array([ref(row, grid) for row in u])
        scale = np.max(np.abs(want))
        assert np.max(np.abs(out - want)) <= 1e-13 * scale, ref
        ours = _apply(terms, z)
        assert np.max(np.abs(ours - ref(z, grid))) <= 1e-13 * scale


def test_solve_cauchy_matches_oracle(smooth_profile):
    # tanh drift, data over the whole grid (the sponge included), states
    # recorded at the first step and at multiples of t_final; times off
    # the step grid raise the same ValueError from both
    grid = RadialGrid.auto(0.3, 9.0, 512, smooth_profile, 0.05)
    rho = grid.rho
    value0 = np.exp(-3j * rho) / np.sqrt(rho)
    dvalue0 = (0.5 + 2j) * value0 * np.cos(rho)
    times = [grid.dt, 0.1, 0.2]
    ours = solve_cauchy(value0, dvalue0, grid, smooth_profile, 0.2,
                        out_times=times)
    ref = oracles.solve_cauchy(value0, dvalue0, grid, smooth_profile, 0.2,
                               out_times=times)
    assert [s.x0 for s in ours] == [s.x0 for s in ref] == [0.0] + times
    for off in ([0.3 * grid.dt], [0.1, 0.1 + 0.5 * grid.dt], [-0.05]):
        messages = set()
        for solver in (solve_cauchy, oracles.solve_cauchy):
            with pytest.raises(ValueError, match="whole number") as exc:
                solver(value0, dvalue0, grid, smooth_profile, 0.2, off)
            messages.add(str(exc.value))
        assert len(messages) == 1, messages
    assert np.max(np.abs(ref[-1].value[rho > 8.2])) > 0.01  # in the sponge
    for a, b in zip(ours, ref):
        for name in ("value", "d_flow"):
            want = getattr(b, name)
            err = np.max(np.abs(getattr(a, name) - want))
            assert err <= 1e-12 * np.max(np.abs(want)), (b.x0, name, err)


def _counting(profile):
    """A copy of profile that appends each eval argument to calls."""
    calls = []

    class Counting(VelocityProfile):
        def eval(self, x0):
            calls.append(x0)
            return super().eval(x0)
    return Counting(profile.a_minus, profile.a_plus, profile.tau), calls


def _mode_solve(grid, profile, times):
    """solve_cauchy of the eta = -4 mode data, windowed inside the grid."""
    rho = grid.rho
    value0, dvalue0 = mode_initial_data(4.0, rho, -1.0)
    w = smooth_window(rho, 1.5, 7.0, 0.3)
    return solve_cauchy(w * value0, w * dvalue0, grid, profile, times[-1],
                        out_times=times)


def test_solve_cauchy_profile_and_its_callable_agree_bitwise(smooth_profile):
    # a VelocityProfile is read by array evals, a plain callable on each
    # float: both give the same A at every stage, so the same bits at
    # every recorded time
    grid = RadialGrid.auto(0.64, 9.0, 256, smooth_profile, 0.5)
    times = [grid.dt, 0.25, 0.5]
    ours = _mode_solve(grid, smooth_profile, times)
    plain = _mode_solve(grid, smooth_profile.eval, times)
    assert [s.x0 for s in ours] == [s.x0 for s in plain] == [0.0] + times
    for a, b in zip(ours[1:], plain[1:]):
        assert np.array_equal(a.value, b.value), a.x0
        assert np.array_equal(a.d_flow, b.d_flow), a.x0
    assert not np.array_equal(ours[-1].value, ours[0].value)


def test_solve_cauchy_evaluates_the_profile_once_per_table(smooth_profile,
                                                           monkeypatch):
    # one array eval per table of pde._TABLE_STEPS steps, besides the step
    # bound's: 256 and 512 points to the same t_final, twice the steps,
    # make the same calls; tables of 8 steps make one call per 8 steps and
    # give the same bits
    counts, steps, last = [], [], None
    for n_rho in (256, 512):
        profile, calls = _counting(smooth_profile)
        grid = RadialGrid.auto(0.64, 9.0, n_rho, profile, 0.5)
        calls.clear()
        last = _mode_solve(grid, profile, [0.5])[-1]
        counts.append(len(calls))
        steps.append(grid.steps(0.5))
    assert steps == [26, 52] and counts[0] == counts[1] == 3, counts
    monkeypatch.setattr(pde, "_TABLE_STEPS", 8)
    calls.clear()
    again = _mode_solve(grid, profile, [0.5])[-1]
    assert len(calls) == 2 + math.ceil(52 / 8), len(calls)
    assert np.array_equal(again.value, last.value)
    assert np.array_equal(again.d_flow, last.d_flow)


def test_solve_cauchy_errors_match_oracle(smooth_profile):
    grid = RadialGrid.auto(0.3, 9.0, 256, smooth_profile, 0.1)
    bad = RadialGrid(0.3, 9.0, 256, dt=3.0 * grid.dt)
    blowup = RadialGrid(2.0, 12.0, 256, dt=1.0)
    inflow = RadialGrid.auto(0.85, 9.0, 256, smooth_profile, 3.0)
    f = np.exp(-((blowup.rho - 7.0) / 0.5) ** 2).astype(complex)
    messages = []
    for solver in (solve_cauchy, oracles.solve_cauchy):
        with pytest.raises(ConfigError) as cfl:
            solver(f, f, bad, smooth_profile, 10 * bad.dt)
        with pytest.raises(InstabilityError) as unstable:
            solver(f, np.zeros_like(f), blowup, lambda x0: 0.0, 10.0)
        with pytest.raises(ConfigError, match="takes inflow") as edge:
            solver(f, f, inflow, smooth_profile, 3.0)
        # both refusals are the config's: exit 2 from the CLI
        assert cfl.value.exit_code == edge.value.exit_code == 2
        messages.append((str(cfl.value), str(unstable.value),
                         str(edge.value)))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("a_abs", [2e-5, 0.01])
def test_solve_cauchy_refuses_inflow_inner_edge(a_abs):
    # with |A| below rho_min the inner edge takes inflow, which the
    # one-sided stencils there cannot carry: without the growth guard a
    # unit pulse grows 2.9e3-fold by t = 20 at |A| = 2e-5, 72-fold at 0.01
    profile = VelocityProfile(a_minus=-a_abs, a_plus=-a_abs)
    grid = RadialGrid.auto(0.3, 9.0, 384, profile, 20.0)
    f = np.exp(-((grid.rho - 3.0) / 0.5) ** 2).astype(complex)
    with pytest.raises(ConfigError, match="inner edge rho_min = 0.3 takes "
                                          "inflow"):
        solve_cauchy(f, np.zeros_like(f), grid, profile, 20.0)
    # a plain callable drift is stepped unchecked
    hist = solve_cauchy(f, np.zeros_like(f), grid, profile.eval, 10 * grid.dt)
    assert hist[-1].x0 == 10 * grid.dt


def test_inflow_check_spans_every_recorded_time(smooth_profile):
    # |A| falls from 1 at x0 = 0 toward 0.8: rho_min = 0.85 is an outflow
    # edge to x0 = 0.5 (|A| = 0.908) and an inflow edge by x0 = 3 (0.801),
    # whether 3 is t_final or a recorded time beyond it; both are whole
    # numbers of the grid's steps
    grid = RadialGrid.auto(0.85, 9.0, 128, smooth_profile, 0.5)
    f = np.zeros(128, complex)
    assert len(solve_cauchy(f, f, grid, smooth_profile, 0.5)) == 2
    for t_final, out_times in ((3.0, None), (0.5, [0.5, 3.0])):
        with pytest.raises(ConfigError, match=r"min\|A\| = 0.800989 over "
                                              r"\[0, 3\]"):
            solve_cauchy(f, f, grid, smooth_profile, t_final, out_times)


# |A(0.75)| on the smooth profile, 0.87297: |A| falls over [0, 0.75], so a
# direct caller's inner edge at or above it takes inflow before x0 = 0.75
_A_END = VelocityProfile(a_minus=-1.2, a_plus=-0.8, tau=1.0).min_abs(0.0, 0.75)


@pytest.mark.parametrize("rho_min", [
    pytest.param(0.85, id="0.85"),
    pytest.param(math.nextafter(_A_END, 0.0), id="just_below_A_end"),
])
def test_packet_below_inner_edge_is_a_resolution_error(packet, smooth_flow,
                                                       smooth_profile,
                                                       rho_min):
    # a direct caller's inner edge above the horizon, below |A(0.75)|: an
    # outflow edge to x0 = 0.75, but the packet support, which hugs the
    # separatrix (0.830 at x0 = 0.75), crosses it
    grid = RadialGrid.auto(rho_min, 9.0, 256, smooth_profile, 0.75)
    with pytest.raises(ResolutionError,
                       match=f"below its inner edge {rho_min:g}"):
        remainder_contribution(packet, (-2.0,), grid, smooth_flow,
                               t_final=0.75)


@pytest.mark.parametrize("rho_min,t_final", [
    pytest.param(_A_END, 0.75, id="at_A_end"),
    pytest.param(0.9, 0.75, id="0.9"),
    pytest.param(0.82, 3.0, id="0.82_to_3"),
])
def test_remainder_contribution_refuses_an_inflow_inner_edge(
        packet, smooth_profile, smooth_flow, rho_min, t_final):
    # a direct caller's inner edge at or above min|A| over [0, t_final]
    # takes inflow, and solve_cauchy refuses it: at |A(0.75)| itself, at
    # 0.9, and at 0.82 to t_final = 3, where |A| falls to 0.801
    grid = RadialGrid.auto(rho_min, 9.0, 256, smooth_profile, t_final)
    with pytest.raises(ConfigError, match="takes inflow"):
        remainder_contribution(packet, (-2.0,), grid, smooth_flow,
                               t_final=t_final)


# |A| falling and rising, |A-|/|A+| up to 4, tau from 0.3 to 3, constant
_EDGE_FLOWS = [(-1.2, -0.8, 1.0), (-0.8, -1.2, 1.0), (-2.0, -0.5, 3.0),
               (-0.5, -2.0, 0.3), (-1.5, -0.6, 0.3), (-0.6, -1.5, 3.0),
               (-1.0, -1.0, 1.0)]


@pytest.mark.parametrize("a_minus,a_plus,tau", _EDGE_FLOWS)
def test_derived_inner_edge_keeps_the_evolved_densities(a_minus, a_plus, tau):
    # inside the horizon both characteristic families point inward, so
    # nothing the solver computes below the derived edge reaches the
    # packet.  Two nested grids share drho and dt, one from 0.3 and one
    # from the derived edge; their evolved densities agree to 3.9e-8
    # relative at the fast fall (-1.5, -0.6, 0.3), to 1.6e-9 on the
    # constant flow and 2.3e-10 at the defaults.  The one-sided edge rows
    # leak grid-scale error that falls steeply with drho: at twice this
    # spacing, that of the coarse twin, the gaps reach 2.7e-6
    t_final = 0.75
    profile = VelocityProfile(a_minus=a_minus, a_plus=a_plus, tau=tau)
    flow = find_separatrix(profile)
    edge = pde.inner_edge(profile)
    on = (flow.horizon.x0 >= 0.0) & (flow.horizon.x0 <= t_final)
    assert on.sum() > 20 and np.all(edge < flow.horizon.rho_star[on])
    assert np.all(edge < np.abs(profile.eval(np.linspace(0.0, t_final,
                                                         301))))
    # about the default spacing, 1024 points from 0.3 to 9
    j = math.floor((edge - 0.3) / (8.7 / 1023))  # points below the edge
    drho = (edge - 0.3) / j
    n = math.floor((9.0 - edge) / drho) + 1
    rho_max = edge + (n - 1) * drho
    wide = RadialGrid.auto(0.3, rho_max, n + j, profile, t_final)
    narrow = RadialGrid(edge, rho_max, n, dt=wide.dt)
    np.testing.assert_allclose(wide.rho[j:], narrow.rho, rtol=0.0,
                               atol=1e-13)
    states = [solve_mode(pde.EVOLVE_ETA, g, profile, t_final)[-1]
              for g in (wide, narrow)]
    p = PacketParams(alpha=1.0, a=8.0, eps=0.25, sigma_star=flow.sigma_star)
    devs = []
    for a in A_VALUES:
        (d_wide, d_narrow), _ = evolved_projection_densities(
            states, flow, p.with_a(a), pde.EVOLVE_ETA)
        devs.append(abs(d_narrow / d_wide - 1.0))
    assert max(devs) <= 1e-7, devs


def test_grid_refinement_cuts_error_sixteenfold():
    e1 = dalembert_error(513)
    e2 = dalembert_error(1025)
    assert e1 / e2 == pytest.approx(16.0, rel=0.1)


def test_solve_mode_initial_state(smooth_profile, smooth_flow):
    grid = RadialGrid.auto(0.3, 9.0, 512, smooth_profile, 0.01)
    eta = -3.0
    hist = solve_mode(eta, grid, smooth_profile, 0.01)
    w = smooth_window(grid.rho, *_horizon_window(grid))
    val, dval = mode_initial_data(-eta, grid.rho, smooth_profile.eval(0.0))
    np.testing.assert_allclose(hist[0].value, w * val, atol=1e-15)
    # g = D f is the data's own D value
    np.testing.assert_allclose(hist[0].d_flow, w * dval, atol=1e-15)


def test_solve_mode_resolution_error(smooth_profile):
    grid = RadialGrid.auto(0.3, 9.0, 128, smooth_profile, 0.05)
    with pytest.raises(ResolutionError):
        solve_mode(-40.0, grid, smooth_profile, 0.05)


def test_solve_mode_refuses_eta_off_its_branch(smooth_profile):
    # the mode data hold the lambda_- branch at |eta|; nan is refused with
    # the rest, before any work
    grid = RadialGrid.auto(0.3, 9.0, 128, smooth_profile, 0.05)
    for eta in (0.0, 2.0, math.nan):
        with pytest.raises(ValueError, match="eta < 0"):
            solve_mode(eta, grid, smooth_profile, 0.05)


@pytest.mark.parametrize("n_rho,t_final", [(256, 0.75), (256, 1e-4),
                                            (512, 0.3)])
def test_coarse_twin_lands_on_fine_time(packet, smooth_profile, smooth_flow,
                                        monkeypatch, n_rho, t_final):
    # the fine solve and its half-resolution twin both end at t_final bit
    # for bit, so the two states differ by their grids alone
    histories = []

    def recording(*args, **kwargs):
        histories.append(solve_mode(*args, **kwargs))
        return histories[-1]

    monkeypatch.setattr(pde, "solve_mode", recording)
    grid = RadialGrid.auto(0.3, 9.0, n_rho, smooth_profile, t_final)
    report = remainder_contribution(packet, (-2.0, -6.0), grid, smooth_flow,
                                    t_final=t_final)
    fine, coarse = histories
    assert [st.x0 for st in fine] == [0.0, 0.5 * t_final, t_final]
    assert [st.x0 for st in coarse] == [0.0, t_final]
    assert [fine[0].rho.size, coarse[0].rho.size] == [n_rho, n_rho // 2 + 1]
    assert [row.x0 for row in report.rows_evolved] == [t_final] * 3


def test_difference_field_initial_slope(smooth_profile, smooth_flow):
    # d = f0 - E vanishes at x0 = 0 with its radial derivative, so its flow
    # derivative is its time derivative, -i gamma (sqrt(eta^2+1) - |eta|)
    # e^{-i eta rho}: two independent code paths (mode data vs eikonal
    # fields) must agree on this
    eta = -4.0
    rho = np.linspace(1.0, 4.0, 9)
    val, d_flow = mode_initial_data(-eta, rho, smooth_profile.eval(0.0))
    eik = eikonal_fields(rho, 0.0, eta, smooth_flow)
    np.testing.assert_allclose(val, eik.value, rtol=1e-12)
    gam = 2.0 ** -0.5 * (eta * eta + 1.0) ** -0.25 / np.sqrt(rho)
    want = -1j * gam * (math.hypot(eta, 1.0) - abs(eta)) * np.exp(-1j * eta * rho)
    np.testing.assert_allclose(d_flow - eik.d_flow, want, rtol=1e-10)


def test_difference_field_bounded_over_run(smooth_profile, smooth_flow):
    # |f0 - E| stays below C (1+|eta|)^-1 (1+eta^2)^-(1/4) and decays with
    # |eta|.  The eikonal's rho^(-1/2) amplitude is the WKB amplitude of
    # the 2+1 operator, whose radial 1/rho term cancels the leading
    # transport source of L E, so the bound shape is met (C <= 1
    # measured).  Without that term a residual O(eta) source slows the
    # decay and no uniform C fits at desk scale.
    grid = RadialGrid.auto(0.3, 9.0, 1024, smooth_profile, 0.1)
    times = [0.1, 0.2, 0.3]
    worsts = {}
    for eta in (-2.0, -6.0, -18.0):
        hist = solve_mode(eta, grid, smooth_profile, 0.3, out_times=times)
        mask = (grid.rho > 0.6) & (grid.rho < 6.0)
        worst = 0.0
        for st in hist[1:]:
            eik = eikonal_fields(grid.rho, st.x0, eta, smooth_flow)
            worst = max(worst,
                        float(np.max(np.abs((st.value - eik.value)[mask]))))
        shape = (1.0 + abs(eta)) ** -1 * (1.0 + eta * eta) ** -0.25
        assert worst <= 1.0 * shape, (eta, worst, shape)
        worsts[abs(eta)] = worst
    vals = sorted(worsts.items())
    assert vals[0][1] > vals[1][1] > vals[2][1]
    slope = (math.log(vals[0][1] / vals[2][1])
             / math.log(vals[2][0] / vals[0][0]))
    assert slope >= 0.6, worsts
    # eikonal dominance: the remainder is a small fraction of |E| ~ gamma
    for eta_abs, worst in worsts.items():
        e_scale = 2.0 ** -0.5 * (1.0 + eta_abs ** 2) ** -0.25
        assert worst / e_scale < 0.15


def test_stationary_kg_product_constant(const_profile, const_flow):
    # static drift: the pairing of two evolved solutions is conserved, which
    # holds for the 2+1 operator with its radial 1/rho term
    p = PacketParams(alpha=1.0, a=8.0, eps=0.5,
                     sigma_star=const_flow.sigma_star)
    drifts = []
    for n in (1024, 2048):
        grid = RadialGrid.auto(0.3, 9.0, n, const_profile, 0.1)
        times = [0.1, 0.2, 0.3]
        hu = solve_mode(-4.0, grid, const_profile, 0.3, out_times=times)
        pk0 = packet_fields(grid.rho, 0.0, p, const_flow)
        w = smooth_window(grid.rho, *_horizon_window(grid))
        # the packet's d/dx0 = (A/rho + 1)(D C0 + (A/(2 rho^2)) C0), as its
        # rays carry sigma at speed A/rho + 1; it vanishes on the horizon.
        # D of the data takes its radial part by centred difference: the
        # exact D C0 spikes at the first grid point above the s^(1/2)
        # edge, and with that spike the pairing drifts by 0.15
        a_rho = const_profile.eval(0.0) / grid.rho
        c0_t = (a_rho + 1.0) * (pk0.d_flow
                                + 0.5 * a_rho / grid.rho * pk0.value)
        f0 = w * pk0.value
        g0 = w * c0_t + a_rho * oracles.d1_centered(f0, grid)
        hv = solve_cauchy(f0, g0, grid, const_profile, 0.3, out_times=times)
        vals = [kg_inner(su, sv) for su, sv in zip(hu, hv)]
        drifts.append(max(abs(v - vals[0]) for v in vals) / abs(vals[0]))
    assert drifts[1] < 5e-3
    assert drifts[0] / drifts[1] > 3.0  # shrinks at scheme order


def test_eikonal_transport_of_phase_fronts(smooth_profile, smooth_flow):
    # the numeric solution's phase tracks -eta sigma(rho, x0): the fronts
    # ride the rays, with only the small frequency-mismatch remainder
    eta, t1 = -6.0, 0.1
    grid = RadialGrid.auto(0.3, 9.0, 1024, smooth_profile, t1)
    hist = solve_mode(eta, grid, smooth_profile, t1)
    idx = [int(np.argmin(np.abs(grid.rho - r))) for r in (1.5, 2.0, 3.0)]
    for i in idx:
        (sig,), _ = transport([grid.rho[i]], t1, 0.0, smooth_flow)
        want = -eta * sig
        got = np.angle(hist[-1].value[i])
        dphase = (got - want + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(dphase) < 0.1, (grid.rho[i], dphase)


# -- node quadrature and remainder measurements --------------------------------

def test_node_quadrature_closed_form(packet, smooth_flow):
    from scipy import special
    w = packet.eps + 1j * packet.alpha
    for eta in (-2.0, -24.0):
        q = packet_quadrature(packet, smooth_flow, 0.0, abs(eta))
        val = np.sum(q.weights * q.s ** (w - 1.0)
                     * np.exp(-(packet.a - 1j * eta) * q.s))
        ref = special.gamma(w) * np.exp(-w * np.log(packet.a - 1j * eta))
        assert abs(val - ref) / abs(ref) < 1e-8


def test_node_pair_matches_adaptive(packet, smooth_flow, smooth_profile):
    for eta in (-2.0, -8.0):
        q = packet_quadrature(packet, smooth_flow, 0.0, abs(eta))
        pk, eik = _node_fields(q, packet, eta, smooth_flow)
        d_nodes = density_from_projections(*_pair_on_nodes(eik, pk, q))
        d_adapt = density_from_projections(*initial_projection_pair(
            eta, packet, smooth_profile, mode="eikonal"))
        assert abs(d_nodes / d_adapt - 1.0) < 1e-8


def test_evolved_densities_at_time_zero(packet, smooth_flow, smooth_profile):
    grid = RadialGrid.auto(0.3, 9.0, 1024, smooth_profile, 0.01)
    eta = -4.0
    hist = solve_mode(eta, grid, smooth_profile, 0.01)
    (d_num,), d_eik = evolved_projection_densities(hist[:1], smooth_flow,
                                                   packet, eta)
    ref_num = density_from_projections(*initial_projection_pair(
        eta, packet, smooth_profile, mode="exact"))
    ref_eik = density_from_projections(*initial_projection_pair(
        eta, packet, smooth_profile, mode="eikonal"))
    # the numeric side passes through FD/cubic sampling of the data
    assert d_num == pytest.approx(ref_num, rel=5e-4)
    assert d_eik == pytest.approx(ref_eik, rel=1e-8)


def test_mode_fields_at_nodes_local_cubic():
    # the local cubic against a global spline, the oracle, on a smooth
    # mode-like field: both are fourth-order, and they part most in the
    # end intervals, where the cubic's 4 points clamp to the grid's ends.
    # The cubic reproduces a cubic polynomial and the grid values exactly
    from scipy.interpolate import CubicSpline
    grid = RadialGrid(0.3, 9.0, 513, dt=1.0)
    rho, h = grid.rho, grid.drho

    def mode(r):
        return np.exp(-3j * r) / np.sqrt(r)

    def poly(r):
        return (r ** 3 - 2.0 * r + 1.0) * (1.0 - 0.5j)

    fld = packets.FieldOnGrid(rho, mode(rho), poly(rho), 0.0)
    ends = np.array([0.0, 0.3, 0.5, 1.7])
    x = np.concatenate([rho[0] + ends * h, np.linspace(rho[0], rho[-1], 301),
                        rho[-1] - ends * h])

    def at(nodes):
        q = pde.PacketQuadrature(s=nodes, rho=nodes, dsig_drho=nodes,
                                 weights=nodes, x0=0.0)
        return pde._mode_fields_at_nodes(q, fld)

    value, d_flow = at(x)
    spline = CubicSpline(rho, fld.value)(x)
    assert np.max(np.abs(value - spline)) <= 2e-6  # measured 1.0e-6
    assert (np.max(np.abs(value - mode(x)))
            <= 2.0 * np.max(np.abs(spline - mode(x))))  # measured 1.4x
    assert np.max(np.abs(d_flow - poly(x))) <= 1e-12 * np.max(np.abs(poly(x)))
    assert np.max(np.abs(at(rho)[0] - fld.value)) <= 1e-14
    for nodes, edge in ((x - 0.01 * h, "inner edge"),
                        (x + 0.01 * h, "grid_rho_max")):
        with pytest.raises(ResolutionError, match=f"left the grid .* {edge}"):
            at(nodes)


_PACKETS = ((1.0, 0.25), (0.5, 0.1), (3.0, 0.5))


@pytest.fixture(scope="module")
def two_flows(smooth_flow):
    return (smooth_flow,
            find_separatrix(VelocityProfile(a_minus=-2.0, a_plus=-0.5,
                                            tau=3.0),
                            x0_horizon_max=10.0))


def _x0_node_pair(p, flow, eta_abs):
    q = packet_quadrature(p, flow, 0.0, eta_abs)
    pk, eik = _node_fields(q, p, -eta_abs, flow)
    return q, pk, _pair_on_nodes(eik, pk, q)


def test_closed_density_against_node_pair(two_flows):
    # spectrum's closed eikonal density against the node pair (c1, c2) of
    # the packet and the eikonal at x0 = 0: its squared pairing
    # |c1 - c2|^2 is the closed density, and the other combination,
    # -4 Re(c1 conj(c2)), falls short of it by exactly |c1 + c2|^2.
    # Measured worst 6.9e-8 (alpha 0.5, eps 0.1, a 8, |eta| 2)
    for flow in two_flows:
        for alpha, eps in _PACKETS:
            for a in (8.0, 32.0):
                p = PacketParams(alpha=alpha, a=a, eps=eps,
                                 sigma_star=flow.sigma_star)
                for eta_abs in (0.5, 2.0, 18.0, 160.0):
                    closed = float(creation_density(eta_abs, p))
                    _, _, (c1, c2) = _x0_node_pair(p, flow, eta_abs)
                    where = (flow.profile, p, eta_abs)
                    assert (density_from_projections(c1, c2)
                            == pytest.approx(closed, rel=1e-7)), where
                    other = -4.0 * (c1 * np.conj(c2)).real
                    assert (closed - other
                            == pytest.approx(abs(c1 + c2) ** 2,
                                             abs=1e-7 * closed)), where


@pytest.mark.parametrize("alpha,eps", _PACKETS)
def test_delta_c2_matches_adaptive(alpha, eps, two_flows, smooth_profile):
    # the exact mode changes only c2 at x0 = 0, and the closed rows read
    # the density of the shifted pair as the closed eikonal density times
    # 1 + _frequency_dev: against the adaptive oracle on the default flow
    # (measured worst 4.6e-14), and against the node pair on both flows
    for a in (8.0, 32.0):
        p = PacketParams(alpha=alpha, a=a, eps=eps,
                         sigma_star=two_flows[0].sigma_star)
        for eta in (-2.0, -6.0, -18.0):
            c1_ex, c2_ex = initial_projection_pair(eta, p, smooth_profile,
                                                   mode="exact")
            c1_ek, _ = initial_projection_pair(eta, p, smooth_profile,
                                               mode="eikonal")
            assert c1_ex == c1_ek
            closed = float(creation_density(-eta, p))
            assert (density_from_projections(c1_ex, c2_ex)
                    == pytest.approx(closed * (1.0 + pde._frequency_dev(-eta)),
                                     rel=1e-12)), (a, eta)
    for flow in two_flows:
        a0 = float(flow.profile.eval(0.0))
        for a in (8.0, 32.0):
            p = PacketParams(alpha=alpha, a=a, eps=eps,
                             sigma_star=flow.sigma_star)
            for eta_abs in (0.5, 2.0, 18.0, 160.0):
                closed = float(creation_density(eta_abs, p))
                q, pk, _ = _x0_node_pair(p, flow, eta_abs)
                exact = density_from_projections(*_pair_on_nodes(
                    mode_initial_data(eta_abs, q.rho, a0), pk, q))
                assert exact == pytest.approx(
                    closed * (1.0 + pde._frequency_dev(eta_abs)),
                    rel=1e-7), (flow.profile, p, eta_abs)


def test_initial_deviation_follows_frequency_mismatch(packet, smooth_profile):
    # at x0 = 0 the exact/eikonal density ratio is exactly
    # ((|eta| + sqrt(eta^2+1)) / (2|eta|))^2, whatever the packet and flow:
    # the two modes differ only in the frequency of their D value
    def ratio(k):
        return ((k + math.sqrt(k * k + 1.0)) / (2.0 * k)) ** 2

    for eta in (-0.5, -2.0, -6.0, -18.0):
        de = density_from_projections(*initial_projection_pair(
            eta, packet, smooth_profile, mode="exact"))
        dk = density_from_projections(*initial_projection_pair(
            eta, packet, smooth_profile, mode="eikonal"))
        assert de / dk == pytest.approx(ratio(-eta), rel=1e-7), eta
    # _frequency_dev is the ratio less one, free of its cancellation: in
    # 40-digit decimal arithmetic it agrees to 1e-12 from 1e-8 to 1e12
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = 40
        for k in (1e-8, 0.5, 2.0, 6.0, 18.0, 1e5, 1e12):
            dk = Decimal(k)
            want = ((dk + (dk * dk + 1).sqrt()) / (2 * dk)) ** 2 - 1
            got = float(pde._frequency_dev(k))
            assert got == pytest.approx(float(want), rel=1e-12), k


@pytest.fixture(scope="module")
def report(packet, smooth_profile, smooth_flow):
    grid = RadialGrid.auto(0.3, 9.0, 1024, smooth_profile, 0.3)
    return remainder_contribution(packet, (-2.0, -6.0, -18.0), grid,
                                  smooth_flow, t_final=0.3)


def test_remainder_report_matches_adaptive(report, packet, smooth_profile):
    # the x0 = 0 part of the report, rebuilt from the adaptive oracle
    def densities(eta, p):
        return [density_from_projections(*initial_projection_pair(
            eta, p, smooth_profile, mode=m)) for m in ("exact", "eikonal")]

    for row in report.rows_initial:
        de, dk = densities(row.eta, packet.with_a(row.a))
        assert row.density_exact == pytest.approx(de, rel=1e-7)
        assert row.density_eikonal == pytest.approx(dk, rel=1e-7)
        assert row.dev_rel == pytest.approx(abs(de - dk) / abs(dk), rel=1e-7)
    assert report.sweep_a == list(A_VALUES)
    for a, dev, lead in zip(report.sweep_a, report.sweep_dev,
                            report.sweep_leading):
        pa = packet.with_a(a)
        te = tk = 0.0
        for w, ep in zip(_SWEEP_WEIGHTS, _SWEEP_NODES):
            de, dk = densities(-a * float(ep), pa)
            te += w * a * de
            tk += w * a * dk
        assert dev == pytest.approx(abs(te - tk) / abs(tk), rel=1e-7)
        assert lead == pytest.approx(abs(tk), rel=1e-7)


def _quad_references(path):
    """Lines of a module that import scipy.integrate's quad or reach it as
    an attribute."""
    tree = ast.parse(path.read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "quad"
            or isinstance(node, ast.ImportFrom)
            and any(alias.name == "quad" for alias in node.names)]


def test_remainder_contribution_makes_no_quad_calls(packet, smooth_flow,
                                                    smooth_profile,
                                                    monkeypatch):
    # no module of the package references integrate.quad: adaptive
    # quadrature is a test oracle only; the probe sees a reference
    pkg = pathlib.Path(pde.__file__).parent
    assert _quad_references(pathlib.Path(oracles.__file__))
    found = {path.name: _quad_references(path)
             for path in sorted(pkg.glob("*.py"))}
    assert len(found) >= 10
    assert not any(found.values()), found
    # node quadrature only for the evolved rows: one set of transported
    # nodes per a, at t_final; the x0 = 0 rows are closed
    node_x0 = []
    nodes = pde.packet_quadrature

    def counting_nodes(p, flow, x0, eta_abs):
        node_x0.append(x0)
        return nodes(p, flow, x0, eta_abs)

    monkeypatch.setattr(pde, "packet_quadrature", counting_nodes)
    grid = RadialGrid.auto(0.3, 9.0, 512, smooth_profile, 0.05)
    remainder_contribution(packet, (-2.0, -6.0, -18.0), grid, smooth_flow,
                           t_final=0.05)
    assert node_x0 == [0.05] * len(A_VALUES)


def test_predicted_point_steps_count_both_solves(packet, smooth_profile,
                                                smooth_flow, monkeypatch):
    # a stepped drift callable is read three times a step, at x0,
    # x0 + dt/2 and x0 + dt, so the calls count the steps actually taken;
    # each costs n_rho point-steps plus the fixed N_STEP
    work, grids = [], []

    def counting(value0, dvalue0, grid, profile, t_final, out_times=None):
        calls = [0]

        def drift(x0):
            calls[0] += 1
            return profile.eval(x0)

        hist = solve_cauchy(value0, dvalue0, grid, drift, t_final, out_times)
        work.append((grid.n_rho + pde.N_STEP) * (calls[0] // 3))
        grids.append(grid)
        return hist

    monkeypatch.setattr(pde, "solve_cauchy", counting)
    for n_rho, t_final in ((512, 0.05), (256, 1e-4)):
        work.clear()
        grids.clear()
        grid = RadialGrid.auto(0.3, 9.0, n_rho, smooth_profile,
                               t_final)
        remainder_contribution(packet, (-2.0, -6.0), grid, smooth_flow,
                               t_final=t_final)
        assert [g.n_rho for g in grids] == [n_rho, n_rho // 2 + 1]
        assert sum(work) == pde.predicted_point_steps(grids, t_final)


def test_work_budget_admits_the_benchmark_grids(smooth_profile, smooth_flow):
    # 2048 points to t = 0.75 and the wave benchmark's six grids; the
    # largest, 4096 points to t = 0.75, takes about 6.4e6 units of work
    for n_rho, t_final in ((2048, 0.75), (1024, 0.5), (1024, 0.75),
                           (2048, 0.5), (4096, 0.5), (4096, 0.75)):
        grids = [RadialGrid.auto(0.3, 9.0, n, smooth_profile,
                                 t_final) for n in (n_rho, n_rho // 2 + 1)]
        work = pde.predicted_point_steps(grids, t_final)
        assert work < 0.05 * pde.MAX_POINT_STEPS, (n_rho, t_final, work)
    grid = RadialGrid.auto(1e-6, 9.0, 1024, smooth_profile, 0.75)
    with pytest.raises(ConfigError, match="point-steps"):
        remainder_contribution(None, (-2.0,), grid, smooth_flow, t_final=0.75)


def test_work_budget_keeps_the_1024_point_limit(smooth_profile):
    # the budget counts each step's fixed cost, N_STEP point-steps, and is
    # restated so that at 1024 points it admits exactly the runs that 1.2e9
    # plain point-steps did: at the defaults the last of them takes 936 950
    # fine steps, and the next 936 952
    edge = pde.inner_edge(smooth_profile)

    def admitted(t_final):
        grids = [RadialGrid.auto(edge, 9.0, n, smooth_profile, t_final)
                 for n in (1024, 513)]
        plain = sum(g.n_rho * g.steps(t_final) for g in grids) <= 1.2e9
        work = pde.predicted_point_steps(grids, t_final)
        assert plain == (work <= pde.MAX_POINT_STEPS), t_final
        return plain, grids[0].steps(t_final)

    lo, hi = 0.75, 1e5
    assert admitted(lo)[0] and not admitted(hi)[0]
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if admitted(mid)[0] else (lo, mid)
    assert admitted(lo)[1] == 936_950 and admitted(hi)[1] == 936_952


def test_remainder_contribution_report(report, packet):
    # x0 = 0 sweeps: relative deviation decays ~a^-2, leading term ~a^-2eps
    assert 1.5 < report.fit_exponent < 2.5
    assert report.leading_exponent == pytest.approx(2.0 * packet.eps, abs=0.06)
    assert report.fit_exponent_absolute - report.leading_exponent >= 0.5
    assert report.eta_fit_exponent >= 1.5
    assert all(r.dev_rel > 0 for r in report.rows_initial)
    # the remainder never touches the first significant digit of the
    # normalised total once a >= 16
    for a, dev in zip(report.sweep_a, report.sweep_dev):
        if a >= 16.0:
            assert dev < 0.05, (a, dev)
    # evolved diagnostics carry a discretisation estimate and sit at
    # t_final, the last state of the recorded history
    assert len(report.rows_evolved) == 3
    assert [st.x0 for st in report.history] == [0.0, 0.15, 0.3]
    for row in report.rows_evolved:
        assert row.discr_estimate is not None
        assert row.resolved  # 1024 points resolve eta = -4 comfortably
        assert row.x0 == 0.3
    js = report.to_jsonable()
    import json
    json.dumps(js, allow_nan=False)  # serialisable end to end
    assert js["sweep"]["a"] == [8.0, 16.0, 32.0]
    assert "history" not in js
    assert all("fit_exponent" not in r
               for r in js["rows_initial"] + js["rows_evolved"])
