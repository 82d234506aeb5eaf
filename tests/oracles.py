"""Independent oracles for the separatrix, Gamma0 and the packet
transform, the closed creation density, its totals, the conserved pairing
and the wave stepper.

The separatrix is a pair of backward solves by scipy's DOP853
(solve_ivp, sampled by its dense output) at rtol 3e-14, just above its
floor of 100 machine epsilons, from |A+| at max(20 tau, x0_horizon_max +
tau).  It shares no code with sonicbh.flow's own DOP853 driver, only the
tableau and the sample grid; lsoda_separatrix is the package's former
LSODA solve, with a larger step budget.

The density and totals are the eta-space forms the package used before
its totals became one angle integral: the density point by point, and
the totals as an adaptive head over (0, 50 (a + 1)] with breakpoints at a
and 3a plus a u = 1/eta tail.  They share no code path with
sonicbh.spectrum's array density or its angle integral.  The angle
integral and the numeric packet norm also keep the adaptive forms the
package used before its fixed Gauss rules: an algebraic-weight (QAWS)
rule in theta, and the norm bracket in u = s^(2 eps).

The stepper is the complex two-array RK4 the package used before its
state became one real (4, n) array: explicit slice stencils, (f, g) as
two complex arrays and a fresh array for every stage.  It shares no
stencil code with sonicbh.pde.solve_cauchy, only the grid, the errors, the
growth guard's bounds and the grid's step rule for recorded times
(RadialGrid.steps).

Gamma0 and the packet transform are checked against adaptive quadrature
of their defining integrals: the oscillatory Gamma0 integral on a ray
rotated into the decaying sector (exact for this integrand class), the
transform directly, with a Fourier-weighted rule away from the algebraic
endpoint.

kg_inner is the conserved pairing by composite Simpson quadrature over a
sampled grid, in the (value, D value) format of sonicbh.packets.FieldOnGrid;
packet_fields and eikonal_fields sample the packet and the
eikonal on a grid from the rays of sonicbh.flow.transport, which the
package itself evaluates only on quadrature nodes.  dalembert_error
measures sonicbh.pde.solve_cauchy against an exact drift-free mode.
"""

import math
import types

import numpy as np
from scipy import integrate, special

from sonicbh.errors import GridMismatchError, InstabilityError
from sonicbh.flow import FlowMap, VelocityProfile, transport
from sonicbh.gammatools import gamma0_modulus_sq
from sonicbh.packets import (FieldOnGrid, PacketParams, eikonal_values,
                             packet_profile, packet_values)
from sonicbh.pde import GROWTH_BOUND, GROWTH_LIMIT, RadialGrid
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
    # atan2, not asin(a / r): the latter is 1e-13 off at |eta|/a ~ 1e-3
    return (2.0 * eta_abs ** 2 * g2
            * math.exp(-2.0 * p.alpha * math.atan2(p.a, eta_abs))
            / (math.hypot(eta_abs, 1.0) * r ** (2.0 * p.eps + 2.0)))


def quad_angle_integral(rate: float, eps: float, a: float = math.inf,
                        theta_max: float = 0.5 * math.pi) -> float:
    """int_0^theta_max cos sin^(2 eps - 1) e^{-2 rate theta} w_a dtheta.

    The algebraic-weight rule takes the theta^(2 eps - 1) edge at theta = 0
    (eta -> inf); the smooth factor carries (sin(theta)/theta)^(2 eps - 1),
    and w_a = cos / hypot(cos, sin/a) is 1 at a = inf.
    """
    power = 2.0 * eps - 1.0

    def smooth(th):
        s, c = math.sin(th), math.cos(th)
        sinc = s / th if th > 0.0 else 1.0
        return (c * c / math.hypot(c, s / a) * sinc ** power
                * math.exp(-2.0 * rate * th))

    val, _ = integrate.quad(smooth, 0.0, theta_max, weight="alg",
                            wvar=(power, 0.0), epsabs=0.0, epsrel=1e-11,
                            limit=200)
    return float(val)


def mp_angle_integral(rate: float, eps: float, a: float) -> float:
    """quad_angle_integral up to pi/2 in mpmath, with eps taken exactly:
    theta^(2 eps - 1) g, g = cos (sin/theta)^(2 eps - 1) e^{-2 rate theta}
    w_a, as g(0) (pi/2)^(2 eps) / (2 eps) plus the bounded rest."""
    import mpmath as mp

    with mp.workdps(20):
        e2, top = 2 * mp.mpf(eps), mp.pi / 2

        def g(th):
            s, c = mp.sin(th), mp.cos(th)
            return (c * (s / th) ** (e2 - 1) * mp.exp(-2 * rate * th)
                    * c / mp.sqrt(c * c + (s / a) ** 2))

        rest = mp.quad(lambda th: th ** (e2 - 1) * (g(th) - 1), [0, top])
        return float(top ** e2 / e2 + rest)


def quad_packet_norm(p: PacketParams, flow: FlowMap) -> float:
    """The full norm bracket -4 pi Im(C0* D C0) rho at x0 = 0, integrated
    adaptively; the substitution u = s^(2 eps) absorbs the s^(2 eps - 1)
    endpoint of the integrand, s = sigma - sigma_star."""
    a0 = float(flow.profile.eval(0.0))
    star = p.sigma_star
    two_eps = 2.0 * p.eps

    def bracket(s):
        # full x0 = 0 integrand of the KG norm, written in s = rho - sigma_star
        rho = star + s
        c, dc = packet_values(*packet_profile(s, p), rho, 1.0, a0)
        return -4.0 * math.pi * (np.conj(c) * dc).imag * rho

    u_max = p.s_max ** two_eps

    def integrand(u):
        s = u ** (1.0 / two_eps)
        return bracket(s) * s / (two_eps * u)

    val, _ = integrate.quad(integrand, 0.0, u_max, epsabs=1e-13,
                            epsrel=1e-11, limit=400)
    return float(val)


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
    return TotalNumber(value=float(head + tail), tail_value=float(tail),
                       tail_bound=float(bound))


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
    """Centered first derivative, fourth order, second order at the edges."""
    dr = grid.drho
    out = np.empty_like(u)
    out[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * dr)
    out[1] = (u[2] - u[0]) / (2.0 * dr)
    out[-2] = (u[-1] - u[-3]) / (2.0 * dr)
    out[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dr)
    out[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dr)
    return out


def d1_upwind(u: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """First derivative biased toward +rho (wind blows inward), third
    order, second order at the edges."""
    dr = grid.drho
    out = np.empty_like(u)
    out[1:-2] = (-2.0 * u[:-3] - 3.0 * u[1:-2]
                 + 6.0 * u[2:-1] - u[3:]) / (6.0 * dr)
    out[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dr)
    out[-2] = (u[-1] - u[-3]) / (2.0 * dr)
    out[-1] = (u[-1] - u[-2]) / dr
    return out


def d2(u: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Centered second derivative, fourth order, second order at the
    edges."""
    dr = grid.drho
    out = np.empty_like(u)
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
    data (f, g = D f) at x0 = 0 on the grid as given, A(x0) from
    profile.eval at each stage time, the same growth guard over the
    sup-norm of the real and imaginary parts of (f, g) and its
    InstabilityError message, and a state (f, g) recorded at x0 = t for
    each t in out_times, each a whole number of steps (the same ValueError
    otherwise)."""
    dt = grid.dt
    want = {grid.steps(t): t for t in
            ([t_final] if out_times is None else out_times)}
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

    def sup(f, g):
        return float(np.max(np.abs([f.real, f.imag, g.real, g.imag])))

    f = np.array(value0, dtype=complex)
    g = np.array(dvalue0, dtype=complex)
    history = [FieldOnGrid(rho, f, g, 0.0)]
    peak = max(sup(f, g), 1e-300)
    limit = GROWTH_LIMIT * peak
    for k in range(1, max(want, default=0) + 1):
        x0 = (k - 1) * dt
        k1f, k1g = rhs(f, g, x0)
        k2f, k2g = rhs(f + 0.5 * dt * k1f, g + 0.5 * dt * k1g, x0 + 0.5 * dt)
        k3f, k3g = rhs(f + 0.5 * dt * k2f, g + 0.5 * dt * k2g, x0 + 0.5 * dt)
        k4f, k4g = rhs(f + dt * k3f, g + dt * k3g, x0 + dt)
        f = f + dt / 6.0 * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
        g = g + dt / 6.0 * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
        m = sup(f, g)
        if not np.isfinite(m) or m > GROWTH_BOUND * peak or m > limit:
            raise InstabilityError(f"solution blew up at step {k}")
        peak = max(peak, m)
        if k in want:
            history.append(FieldOnGrid(rho, f, g, want[k]))
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


def scipy_gamma0_modulus_sq(alpha: float, eps: float) -> float:
    """|Gamma0|^2 = e^{pi alpha} |Gamma(1+eps+i*alpha)|^2 in log space on
    scipy.special.loggamma: the package's formula before it had its own
    log-Gamma."""
    return math.exp(math.pi * alpha
                    + 2.0 * special.loggamma(1.0 + eps + 1j * alpha).real)


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
    """Packet value and D value on a grid at x0, via the ray label
    sigma(rho, x0) and its radial derivative."""
    rho = np.asarray(rho, dtype=float)
    sigma, dsig = transport(rho, x0, 0.0, flow)
    return FieldOnGrid(rho, *packet_values(*packet_profile(
        sigma - p.sigma_star, p), rho, dsig, flow.profile.eval(x0)), x0)


def eikonal_fields(rho, x0: float, eta: float, flow: FlowMap) -> FieldOnGrid:
    """Eikonal value and D value on a grid at x0 (eta < 0)."""
    rho = np.asarray(rho, dtype=float)
    sigma, dsig = transport(rho, x0, 0.0, flow)
    return FieldOnGrid(rho, *eikonal_values(sigma, rho, dsig,
                                            flow.profile.eval(x0), eta), x0)


def kg_inner(u: FieldOnGrid, v: FieldOnGrid) -> complex:
    """Conserved pairing 2 pi i int (u* Dv - (Du)* v) rho drho of two sampled
    fields on a common radial grid.

    The fields must share their grid and their time x0 (GridMismatchError
    otherwise).  Composite Simpson quadrature of the bracket times rho,
    times the 2 pi azimuthal factor.  Satisfies <v, u> = conj(<u, v>) and
    <u, u> real by construction of the bracket.
    """
    if u.rho.shape != v.rho.shape or not np.array_equal(u.rho, v.rho):
        raise GridMismatchError("fields sampled on different radial grids")
    if u.x0 != v.x0:
        raise GridMismatchError(f"fields sampled at different times "
                                f"x0 = {u.x0:g} and {v.x0:g}")
    bracket = np.conj(u.value) * v.d_flow - np.conj(u.d_flow) * v.value
    return complex(2.0j * math.pi
                   * integrate.simpson(bracket * u.rho, x=u.rho))


# -- the wave stepper against an exact mode ------------------------------------

def drift(fn):
    """A stand-in flow for the steppers, which read A(x0) through eval
    alone: fn maps a float or an array of times to A there."""
    return types.SimpleNamespace(eval=fn)


STILL = drift(lambda x0: np.zeros(np.shape(x0)))  # A = 0


def dalembert_error(n_rho: int, t_final: float = 1.0) -> float:
    """Max error of sonicbh.pde.solve_cauchy against the exact standing
    Bessel mode for A == 0.

    With no drift the system reduces to f_tt = f_rr + f_r / rho, and D is
    d/dx0; data f = J0(k rho), f_t = 0 evolve exactly as
    J0(k rho) cos(k x0).  The error is taken on [2 + t + 1/4,
    11 - t - 1/4], which neither grid edge nor the sponge (rho > 11) can
    reach by time t at unit speed.
    """
    # the largest step within the drift-free bound with t_final/2 whole
    # steps, as RadialGrid.auto takes it
    bound = RadialGrid(2.0, 12.0, n_rho, dt=1.0).cfl_dt(0.0)
    grid = RadialGrid(2.0, 12.0, n_rho,
                      dt=t_final / (2 * math.ceil(t_final / (2 * bound))))
    k = 3.0
    rho = grid.rho
    hist = package_solve_cauchy(special.j0(k * rho).astype(complex),
                                np.zeros(n_rho, complex), grid, STILL,
                                t_final)
    last = hist[-1]
    inner = (rho >= 2.25 + last.x0) & (rho <= 10.75 - last.x0)
    exact = special.j0(k * rho[inner]) * math.cos(k * last.x0)
    return float(np.max(np.abs(last.value.real[inner] - exact)))


def lsoda_separatrix(profile: VelocityProfile, x0_horizon_max: float = 10.0,
                     rtol: float = 1e-13, mxstep: int = 10 ** 7) -> float:
    """sigma_star by the backward LSODA solve the package used before its
    DOP853 driver: one odeint call with the analytic Jacobian -A/rho^2
    from |A+| at max(20 tau, x0_horizon_max + tau) to x0 = 0, at rtol
    (atol rtol/100), with mxstep steps allowed (the package allowed 1e5,
    too few for some small-|A+|, long-tau flows).  It shares no
    integrator and no start point with sonicbh.flow.find_separatrix.
    """
    a_of = profile.eval
    x_start = max(20.0 * profile.tau, x0_horizon_max + profile.tau)
    rho, info = integrate.odeint(
        lambda x0, r: a_of(x0) / r[0] + 1.0, [abs(profile.a_plus)],
        [x_start, 0.0], Dfun=lambda x0, r: [[-a_of(x0) / r[0] ** 2]],
        rtol=rtol, atol=rtol * 1e-2, mxstep=mxstep, full_output=True,
        tfirst=True)
    assert info["message"] == "Integration successful.", info["message"]
    return float(rho[-1, 0])
