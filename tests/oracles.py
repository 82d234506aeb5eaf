"""Independent oracles for the separatrix, Gamma0 and the packet
transform, the closed creation density, its totals, the conserved pairing
and the wave stepper.

The separatrix is the explicit DOP853 pair of backward solves the
package used before its two solves became LSODA calls with the analytic
Jacobian, run here at rtol 3e-14 (just above solve_ivp's floor of
100 machine epsilons).  It shares no integrator with
sonicbh.flow.find_separatrix, only the start point and the sample grid.

The density and totals are the eta-space forms the package used before
its totals became one angle integral: the density point by point, and
the totals as an adaptive head over (0, 50 (a + 1)] with breakpoints at a
and 3a plus a u = 1/eta tail.  They share no code path with
sonicbh.spectrum's array density or its angle integral.

The stepper is the complex two-array RK4 the package used before its
state became one real (4, n) array: explicit slice stencils, (f, g) as
two complex arrays and a fresh array for every stage.  It shares no
stencil code with sonicbh.pde.solve_cauchy, only the grid, the errors and
the step rule for recorded times.

Gamma0 and the packet transform are checked against adaptive quadrature
of their defining integrals: the oscillatory Gamma0 integral on a ray
rotated into the decaying sector (exact for this integrand class), the
transform directly, with a Fourier-weighted rule away from the algebraic
endpoint.

kg_inner is the conserved pairing by composite Simpson quadrature over a
sampled grid; packet_fields and eikonal_fields sample the packet and the
eikonal on a grid from the rays of sonicbh.flow.transport, which the
package itself evaluates only on quadrature nodes.  dalembert_error
measures sonicbh.pde.solve_cauchy against an exact drift-free mode.
"""

import math

import numpy as np
from scipy import integrate, special

from sonicbh.errors import GridMismatchError, InstabilityError
from sonicbh.flow import FlowMap, VelocityProfile, transport
from sonicbh.gammatools import gamma0_modulus_sq
from sonicbh.packets import (FieldOnGrid, PacketParams, eikonal_values,
                             packet_values)
from sonicbh.pde import GROWTH_BOUND, RadialGrid
from sonicbh.pde import solve_cauchy as package_solve_cauchy
from sonicbh.spectrum import TotalNumber

_QUAD_KW = dict(epsabs=1e-14, epsrel=1e-11, limit=800)


def dop853_separatrix(profile: VelocityProfile, x0_horizon_max: float = 10.0,
                      rtol: float = 3e-14) -> tuple[float, np.ndarray]:
    """(sigma_star, rho_star) on find_separatrix's 801-point horizon grid.

    One backward solve from |A(+inf)| at max(20 tau, x0_horizon_max + tau)
    to x0 = 0 samples the x0 >= 0 half; one from (0, sigma_star) to
    -x0_horizon_max samples the rest.  Both are DOP853 at rtol, atol
    rtol/100.  The cost grows with tau: the backward stretch is stiff.
    """
    def rhs(t, y):
        return [profile.eval(t) / y[0] + 1.0]

    def solve(y0, t0, t_eval):
        sol = integrate.solve_ivp(rhs, (t0, t_eval[-1]), [y0],
                                  method="DOP853", rtol=rtol,
                                  atol=rtol * 1e-2, t_eval=t_eval)
        assert sol.success, sol.message
        return sol.y[0]

    x_grid = np.linspace(0.0, float(x0_horizon_max), 401)
    x_start = max(20.0 * profile.tau, x0_horizon_max + profile.tau)
    pos = solve(abs(profile.a_plus), x_start, x_grid[::-1])
    sigma_star = float(pos[-1])
    neg = solve(sigma_star, 0.0, -x_grid)
    return sigma_star, np.concatenate([neg[::-1], pos[-2::-1]])


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


def d1_centered(u: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Centered first derivative at the grid's order, one-sided at the edges."""
    dr = grid.drho
    out = np.empty_like(u)
    if grid.order == 2:
        out[1:-1] = (u[2:] - u[:-2]) / (2.0 * dr)
    else:
        out[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * dr)
        out[1] = (u[2] - u[0]) / (2.0 * dr)
        out[-2] = (u[-1] - u[-3]) / (2.0 * dr)
    out[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dr)
    out[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dr)
    return out


def d1_upwind(u: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """First derivative biased toward +rho (wind blows inward)."""
    dr = grid.drho
    out = np.empty_like(u)
    if grid.order == 2:
        out[:-2] = (-3.0 * u[:-2] + 4.0 * u[1:-1] - u[2:]) / (2.0 * dr)
    else:
        out[1:-2] = (-2.0 * u[:-3] - 3.0 * u[1:-2]
                     + 6.0 * u[2:-1] - u[3:]) / (6.0 * dr)
        out[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dr)
    out[-2] = (u[-1] - u[-3]) / (2.0 * dr)
    out[-1] = (u[-1] - u[-2]) / dr
    return out


def d2(u: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Centered second derivative at the grid's order, one-sided at the edges."""
    dr = grid.drho
    out = np.empty_like(u)
    if grid.order == 2:
        out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dr ** 2
    else:
        out[2:-2] = (-u[:-4] + 16.0 * u[1:-3] - 30.0 * u[2:-2]
                     + 16.0 * u[3:-1] - u[4:]) / (12.0 * dr ** 2)
        out[1] = (u[2] - 2.0 * u[1] + u[0]) / dr ** 2
        out[-2] = (u[-1] - 2.0 * u[-2] + u[-3]) / dr ** 2
    out[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / dr ** 2
    out[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / dr ** 2
    return out


def solve_cauchy(value0, dvalue0, grid: RadialGrid, profile,
                 t_final: float, out_times=None) -> list[FieldOnGrid]:
    """Complex two-array RK4 with the contract of sonicbh.pde.solve_cauchy:
    the same CFL ValueError and InstabilityError messages, and states
    recorded at step max(1, round(t/dt)) for each t in out_times."""
    drift = profile
    if isinstance(profile, VelocityProfile):
        if not grid.within_cfl(profile.a_max_abs):
            raise ValueError(
                f"dt = {grid.dt:g} violates the CFL bound "
                f"{grid.cfl_dt(profile.a_max_abs):g} for max|A| = "
                f"{profile.a_max_abs:g}")
        drift = profile.eval
    rho = grid.rho
    inv_rho = 1.0 / rho
    width = 0.1 * (grid.rho_max - grid.rho_min)
    sponge = 4.0 / width * np.clip((rho - (grid.rho_max - width)) / width,
                                   0.0, 1.0) ** 3

    def rhs(f, g, x0):
        c = drift(x0) * inv_rho
        lap = d2(f, grid) + inv_rho * d1_centered(f, grid)
        df = g - c * d1_upwind(f, grid) - sponge * f
        dg = lap - c * d1_upwind(g, grid) - sponge * g
        return df, dg

    dt = grid.dt
    if out_times is None:
        out_times = [t_final]
    want = sorted({max(1, int(round(t / dt))) for t in out_times if t > 0.0})
    n_steps = want[-1] if want else 0

    f = np.array(value0, dtype=complex)
    f_t = np.array(dvalue0, dtype=complex)
    f_r = d1_centered(f, grid)
    g = f_t + drift(0.0) * inv_rho * f_r
    history = [FieldOnGrid(rho, f, f_t, f_r, 0.0)]
    peak = max(float(np.max(np.abs(f))), 1e-300)
    for k in range(1, n_steps + 1):
        x0 = (k - 1) * dt
        k1f, k1g = rhs(f, g, x0)
        k2f, k2g = rhs(f + 0.5 * dt * k1f, g + 0.5 * dt * k1g, x0 + 0.5 * dt)
        k3f, k3g = rhs(f + 0.5 * dt * k2f, g + 0.5 * dt * k2g, x0 + 0.5 * dt)
        k4f, k4g = rhs(f + dt * k3f, g + dt * k3g, x0 + dt)
        f = f + dt / 6.0 * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
        g = g + dt / 6.0 * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
        m = float(np.max(np.abs(f)))
        if not np.isfinite(m) or m > GROWTH_BOUND * peak:
            raise InstabilityError(f"solution blew up at step {k}")
        peak = max(peak, m)
        if k in want:
            f_r = d1_centered(f, grid)
            history.append(FieldOnGrid(rho, f, g - drift(k * dt) * inv_rho * f_r,
                                       f_r, k * dt))
    return history


# -- Gamma0 and the packet transform ------------------------------------------

def quad_complex(f, a, b, **kw):
    """Adaptive quadrature of a complex integrand, real and imaginary apart."""
    kw.setdefault("epsabs", 1e-13)
    kw.setdefault("epsrel", 1e-11)
    kw.setdefault("limit", 400)
    re = integrate.quad(lambda x: f(x).real, a, b, **kw)[0]
    im = integrate.quad(lambda x: f(x).imag, a, b, **kw)[0]
    return re + 1j * im


def gamma0(alpha: float, eps: float) -> complex:
    """Gamma0(i*alpha + eps + 1) = e^{pi alpha/2} e^{-i pi eps/2} Gamma(1+eps+i*alpha)."""
    if eps <= 0.0:
        raise ValueError("eps must be positive (Gamma(2*eps) finite)")
    return complex(np.exp(np.pi * alpha / 2.0)
                   * np.exp(-1j * np.pi * eps / 2.0)
                   * special.gamma(1.0 + eps + 1j * alpha))


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

    return complex(pref * quad_complex(f, 0.0, np.inf))


def packet_fourier_quadrature(eta: float, alpha: float, eps: float, a: float,
                              tail: float = 40.0) -> complex:
    """Direct adaptive quadrature of int_0^inf e^{i s eta} s^(eps + i alpha) e^{-a s} ds.

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
    head = quad_complex(lambda s: amp(s) * np.exp(1j * eta * s), 0.0, split)
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


# -- sampled fields and the conserved pairing ----------------------------------

def packet_fields(rho, x0: float, p: PacketParams, flow: FlowMap) -> FieldOnGrid:
    """Packet value and derivatives on a grid at x0, via the ray label
    sigma(rho, x0) and its radial derivative."""
    rho = np.asarray(rho, dtype=float)
    sigma, dsig = transport(rho, x0, 0.0, flow)
    value, d_dx0, d_drho = packet_values(sigma - p.sigma_star, rho, dsig,
                                         flow.profile.eval(x0), p)
    return FieldOnGrid(rho=rho, value=value, d_dx0=d_dx0, d_drho=d_drho,
                       x0=x0)


def eikonal_fields(rho, x0: float, eta: float, flow: FlowMap) -> FieldOnGrid:
    """Eikonal value and derivatives on a grid at x0 (eta < 0)."""
    rho = np.asarray(rho, dtype=float)
    sigma, dsig = transport(rho, x0, 0.0, flow)
    value, d_dx0, d_drho = eikonal_values(sigma, rho, dsig,
                                          flow.profile.eval(x0), eta)
    return FieldOnGrid(rho=rho, value=value, d_dx0=d_dx0, d_drho=d_drho,
                       x0=x0)


def kg_inner(u: FieldOnGrid, v: FieldOnGrid,
             profile: VelocityProfile) -> complex:
    """Conserved pairing of two sampled fields on a common radial grid.

    The time x0, at which the drift A(x0) enters, comes from the fields,
    which must share it and their grid (GridMismatchError otherwise).
    Composite Simpson quadrature of the full bracket times rho, times the
    2 pi azimuthal factor.  Satisfies <v, u> = conj(<u, v>) and <u, u>
    real by construction of the bracket.
    """
    if u.rho.shape != v.rho.shape or not np.array_equal(u.rho, v.rho):
        raise GridMismatchError("fields sampled on different radial grids")
    if u.x0 != v.x0:
        raise GridMismatchError(f"fields sampled at different times "
                                f"x0 = {u.x0:g} and {v.x0:g}")
    a_over_rho = profile.eval(u.x0) / u.rho
    bracket = (np.conj(u.value) * v.d_dx0 - np.conj(u.d_dx0) * v.value
               + a_over_rho * (np.conj(u.value) * v.d_drho
                               - np.conj(u.d_drho) * v.value))
    return complex(2.0j * math.pi
                   * integrate.simpson(bracket * u.rho, x=u.rho))


# -- the wave stepper against an exact mode ------------------------------------

def dalembert_error(n_rho: int, order: int, t_final: float = 1.0) -> float:
    """Max error of sonicbh.pde.solve_cauchy against the exact standing
    Bessel mode for A == 0.

    With no drift the system reduces to f_tt = f_rr + f_r / rho; data
    f = J0(k rho), f_t = 0 evolve exactly as J0(k rho) cos(k x0).  The
    error is taken on [2 + t + 1/4, 11 - t - 1/4], which neither grid edge
    nor the sponge (rho > 11) can reach by time t at unit speed.
    """
    trial = RadialGrid.auto(2.0, 12.0, n_rho, a_max_abs=0.0, order=order)
    dt = t_final / math.ceil(t_final / trial.dt)  # land exactly on t_final
    grid = RadialGrid(2.0, 12.0, n_rho, dt=dt, order=order)
    k = 3.0
    rho = grid.rho
    hist = package_solve_cauchy(special.j0(k * rho).astype(complex),
                                np.zeros(n_rho, complex), grid,
                                lambda x0: 0.0, t_final)
    last = hist[-1]
    inner = (rho >= 2.25 + last.x0) & (rho <= 10.75 - last.x0)
    exact = special.j0(k * rho[inner]) * math.cos(k * last.x0)
    return float(np.max(np.abs(last.value.real[inner] - exact)))
