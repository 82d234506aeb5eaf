"""Background draining flow and its characteristic geometry.

A radial flow with strength A(x0) < 0 drags outgoing sound rays along the
characteristic ODE

    drho/dx0 = A(x0)/rho + 1 .

For constant A the fixed point rho = |A| separates rays that escape to
infinity from rays that are swallowed (rho -> 0 in finite time).  For a
time-dependent A the same separation is performed by a distinguished
solution rho*(x0), the separatrix; its value at x0 = 0 is written
sigma_star.  The region 0 < rho < rho*(x0) is the acoustic black hole.
rho* lies in [min|A|, max|A|]: above max|A| a ray only rises, below
min|A| it only falls.

The characteristic label sigma(rho, x0) is the x0=0 value of the ray
through (rho, x0).  It is constant along rays, equals rho at x0 = 0 and is
strictly increasing in rho; its radial derivative is obtained from the
tangent (variational) equation integrated alongside the ray, which stays
accurate even where neighbouring rays separate exponentially.

Forward in x0 the separatrix repels neighbouring rays, so backward in x0
it attracts them: sigma_star and the horizon curve come from backward
solves, along which every start error shrinks.  Backward the ray equation
is stiff (its Jacobian -A/rho^2 pulls neighbours in at rate |A|/rho^2
while the profile varies on the scale tau), so these two solves use LSODA
(scipy.integrate.odeint, whose step loop runs in Fortran) with the
analytic Jacobian; their cost is flat in tau.  Rays and tangents away
from the separatrix use DOP853.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ODEintWarning, odeint, solve_ivp

from .errors import CaptureError, StepFailureError

__all__ = [
    "VelocityProfile",
    "HorizonCurve",
    "FlowMap",
    "CharacteristicPath",
    "integrate_characteristic",
    "find_separatrix",
    "transport",
]

# LSODA steps allowed between two output times of a separatrix solve; the
# first backward stretch, from x0 = 20 tau, takes 900-1000 at tau = 1e6 and
# grows like log(tau); odeint's default of 500 fails from tau = 100
LSODA_MXSTEP = 100_000


@dataclass(frozen=True)
class VelocityProfile:
    """Flow strength A(x0): negative, smooth, with finite limits at +-infinity.

    A(x0) = (a_plus+a_minus)/2 + (a_plus-a_minus)/2 * tanh(x0/tau);
    with a_plus == a_minus it is that constant exactly.
    """

    a_minus: float
    a_plus: float
    tau: float = 1.0

    def __post_init__(self) -> None:
        if not (self.a_minus < 0.0 and self.a_plus < 0.0):
            raise ValueError("flow strength must be negative at both ends")
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")

    def eval(self, x0):
        """A(x0); a float in gives a float out, an array in an array out.

        The scalar branch is scalar_eval; on about one argument in eight it
        differs from the array path in the last place.
        """
        if isinstance(x0, (float, int)):
            return self.scalar_eval(x0)
        mid = 0.5 * (self.a_plus + self.a_minus)
        amp = 0.5 * (self.a_plus - self.a_minus)
        return mid + amp * np.tanh(np.asarray(x0, dtype=float) / self.tau)

    @functools.cached_property
    def scalar_eval(self):
        """A(x0) of one float through math.tanh, about a quarter of the
        array path's cost, which matters in the scalar ODE right-hand
        sides; built once, so a call does no more than the formula."""
        mid = 0.5 * (self.a_plus + self.a_minus)
        amp = 0.5 * (self.a_plus - self.a_minus)
        tau, tanh = self.tau, math.tanh

        def a_of(x0: float) -> float:
            return mid + amp * tanh(x0 / tau)
        return a_of

    def min_abs(self, x_lo: float, x_hi: float) -> float:
        """min |A(x0)| over [x_lo, x_hi]; A is monotone, so it lies at an
        end, and max_abs at the other."""
        return min(abs(self.eval(float(x_lo))), abs(self.eval(float(x_hi))))

    def max_abs(self, x_lo: float, x_hi: float) -> float:
        return max(abs(self.eval(float(x_lo))), abs(self.eval(float(x_hi))))


@dataclass(frozen=True)
class HorizonCurve:
    """Sampled separatrix rho*(x0) on a symmetric grid around x0 = 0."""

    x0: np.ndarray
    rho_star: np.ndarray


@dataclass(frozen=True)
class FlowMap:
    """A profile together with its separatrix data and integrator settings."""

    profile: VelocityProfile
    sigma_star: float
    horizon: HorizonCurve
    ode_tol: float = 1e-10
    rho_min: float = 1e-3


@dataclass(frozen=True)
class CharacteristicPath:
    """One integrated ray: samples of rho(x0) plus a capture flag."""

    x0: np.ndarray
    rho: np.ndarray
    captured: bool


def _solve(profile: VelocityProfile, y0, span, *, ode_tol, rho_min,
           t_eval=None):
    """solve_ivp (DOP853) wrapper for n rays together with their tangents.

    y0 stacks the n rays followed by their n tangents J, which solve
    dJ/dx0 = (-A/rho^2) J.  The rtol is ode_tol, clamped at DOP853's
    floor of 100 machine epsilons; the atol is ode_tol / 100.  The solve
    stops where the lowest ray falls to rho_min (sol.t_events[0]).
    """
    n = len(y0) // 2

    def rhs(t, y):
        r, jac = y[:n], y[n:]
        a = profile.eval(t)
        return np.concatenate([a / r + 1.0, (-a / r ** 2) * jac])

    def capture(t, y):
        return np.min(y[:n]) - rho_min
    capture.terminal = True
    capture.direction = -1

    sol = solve_ivp(rhs, span, y0, method="DOP853",
                    rtol=max(ode_tol, 100.0 * np.finfo(float).eps),
                    atol=ode_tol * 1e-2, events=[capture], t_eval=t_eval)
    if not sol.success and sol.status != 1:  # status 1 = terminated by event
        raise StepFailureError(f"ray integration failed: {sol.message}")
    return sol


def integrate_characteristic(sigma0: float, x0_from: float, x0_to: float,
                             profile: VelocityProfile, *,
                             ode_tol: float = 1e-10, rho_min: float = 1e-3,
                             t_eval=None) -> CharacteristicPath:
    """Integrate one ray and its tangent from rho(x0_from) = sigma0 to x0_to.

    Stops early with captured=True if the ray reaches rho_min.
    """
    if sigma0 <= rho_min:
        raise ValueError(f"sigma0 = {sigma0} must exceed rho_min = {rho_min}")
    sol = _solve(profile, [sigma0, 1.0], (x0_from, x0_to), ode_tol=ode_tol,
                 rho_min=rho_min, t_eval=t_eval)
    captured = bool(sol.t_events[0].size)
    return CharacteristicPath(x0=sol.t, rho=sol.y[0], captured=captured)


def _lsoda_ray(profile: VelocityProfile, rho0: float, x_out, tol: float):
    """rho at x_out[1:] of the ray with rho(x_out[0]) = rho0, by one LSODA
    call with the analytic Jacobian -A/rho^2.

    odeint reports failure by a warning and can hand back garbage with it,
    so the warning is silenced here and the failure raised as
    StepFailureError with LSODA's message.
    """
    # one equation: plain floats in and out halve the cost of a call
    a_of = profile.scalar_eval

    def rhs(x0, rho):
        return a_of(x0) / rho.item() + 1.0

    def jac(x0, rho):
        return -a_of(x0) / rho.item() ** 2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)
        rho, info = odeint(rhs, [rho0], x_out, Dfun=jac, rtol=tol,
                           atol=tol * 1e-2, mxstep=LSODA_MXSTEP,
                           full_output=True, tfirst=True)
    if info["message"] != "Integration successful.":
        raise StepFailureError(
            f"separatrix integration failed: LSODA: {info['message']}")
    return rho[1:, 0]


def find_separatrix(profile: VelocityProfile, x0_horizon_max: float = 10.0,
                    *, ode_tol: float = 1e-10,
                    rho_min: float = 1e-3) -> FlowMap:
    """Locate sigma_star by one backward solve and sample the horizon curve.

    The ray started at |A(+inf)| far in the future and integrated back to
    x0 = 0 lands on sigma_star; the same solve samples the x0 >= 0 half of
    the horizon, and a backward solve from (0, sigma_star) samples the
    x0 < 0 half, at 401 points each.  Each is one LSODA call with the
    analytic Jacobian, at rtol max(min(ode_tol, 1e-12)/10, 3e-14) and atol
    rtol/100 (LSODA refuses rtol 1e-14).  A failed call, or a sample that
    is not finite or lies outside [min|A|, max|A|], raises
    StepFailureError naming the solve's start.
    """
    tol = max(min(ode_tol, 1e-12) / 10.0, 3e-14)
    x_grid = np.linspace(0.0, float(x0_horizon_max), 401)
    # rho*(x) - |A(x)| = O(e^{-2x/tau}), so starting at |A(+inf)| from
    # x >= 20 tau errs by ~1e-17, and the backward flow shrinks that error
    # further.  Starting strictly beyond x0_horizon_max as well puts every
    # horizon sample, the last one included, downstream of the start.
    x_start = max(20.0 * profile.tau, x0_horizon_max + profile.tau)
    pos = _lsoda_ray(profile, abs(profile.a_plus),
                     np.concatenate([[x_start], x_grid[::-1]]), tol)
    sigma_star = float(pos[-1])
    neg = _lsoda_ray(profile, sigma_star, -x_grid, tol)

    # rounding puts a sample up to about one rtol outside [min|A|, max|A|],
    # and nan or inf fails the <= test.  Samples in solve order, so the
    # first miss is where a solve went wrong
    lo, hi = sorted((abs(profile.a_minus), abs(profile.a_plus)))
    reached = np.concatenate([pos, neg])
    inside = np.clip(reached, lo, hi)
    bad = ~(np.abs(reached - inside) <= 100.0 * tol * inside)
    if bad.any():
        i = int(np.argmax(bad))
        start, at = ((x_start, x_grid[-1 - i]) if i < pos.size
                     else (0.0, -x_grid[i - pos.size + 1]))
        raise StepFailureError(
            f"separatrix integration from x0 = {start:g} failed: rho*({at:g})"
            f" = {float(reached[i])!r} lies outside [min|A|, max|A|] = "
            f"[{lo:g}, {hi:g}]")
    x0 = np.concatenate([-x_grid[::-1], x_grid[1:]])
    rho_star = np.concatenate([neg[::-1], [sigma_star], pos[-2::-1]])
    horizon = HorizonCurve(x0=x0, rho_star=rho_star)

    return FlowMap(profile=profile, sigma_star=sigma_star, horizon=horizon,
                   ode_tol=ode_tol, rho_min=rho_min)


def transport(rho, x0_from: float, x0_to: float, flow: FlowMap):
    """Carry rays from x0_from to x0_to together with their tangents.

    Returns (rho(x0_to), J) for the rays through the points rho at
    x0_from, where J = d rho(x0_to) / d rho(x0_from) solves the tangent
    equation dJ/dx0 = (-A/rho^2) J, J(x0_from) = 1.  Vectorised over rho;
    raises CaptureError if a ray reaches rho_min on the way.
    """
    rho = np.asarray(rho, dtype=float)
    if x0_from == x0_to:
        return rho.copy(), np.ones_like(rho)
    n = rho.size
    sol = _solve(flow.profile, np.concatenate([rho, np.ones(n)]),
                 (float(x0_from), float(x0_to)), ode_tol=flow.ode_tol,
                 rho_min=flow.rho_min)
    if sol.t_events[0].size:
        raise CaptureError(
            f"a ray from x0={x0_from} reaches rho_min before x0={x0_to}")
    return sol.y[:n, -1], sol.y[n:, -1]
