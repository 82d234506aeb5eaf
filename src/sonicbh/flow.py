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
solves, along which every start error shrinks.  Every ray solve here runs
on one explicit embedded Runge-Kutta driver, _rk8: the Dormand-Prince
8(5,3) pair (DOP853; Hairer, Norsett & Wanner, Solving Ordinary
Differential Equations I, 2nd ed., 1993, sec. II.10), written out once as
straight-line stages that take a float (the separatrix, one ray) or an
array (rays stacked with their tangents) alike.  Backward, the ray
equation pulls neighbours in at rate |A|/rho^2, which holds an explicit
step to a few rho^2/|A|; so the separatrix starts no further out than the
contraction its start error needs, and its cost stays flat in tau.  The
accuracy is fixed: rays and their tangents step at RAY_RTOL and RAY_ATOL
down to the capture radius CAPTURE_RHO, the separatrix at SEPARATRIX_RTOL.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CaptureError, ConfigError, StepFailureError

__all__ = [
    "VelocityProfile",
    "HorizonCurve",
    "FlowMap",
    "CharacteristicPath",
    "integrate_characteristic",
    "find_separatrix",
    "transport",
]

# steps, accepted or rejected, allowed in one solve.  A separatrix solve
# takes about 40-60 a half on ordinary flows; failed steps shrink by 5 at a
# time, so a solve that cannot go on underflows its step long before this
RK8_MAX_STEPS = 100_000
# as settable keys, a ray rtol of 1e-12 or 1e-6 moved only pde-verify's
# evolved rows (dev_rel by 5.7e-11 or 5.2e-7 relative, far under their
# discr_estimate), and a capture radius of 1e-8 or 0.5 moved no output
RAY_RTOL, RAY_ATOL = 1e-10, 1e-12
CAPTURE_RHO = 1e-3
SEPARATRIX_RTOL = 1e-13

# the Dormand-Prince 8(5,3) tableau, stages numbered from 1: nodes C, stage
# weights A<i>_<j>, solution weights B, and the weights of the fifth- and
# third-order error estimates E5 and E3 (E3 is B less the third-order
# solution's weights)
C2, C3, C4, C5, C6, C7, C8, C9, C10, C11, C12 = (
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25,
    0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0)
A2_1 = 5.26001519587677318785587544488e-2
A3_1, A3_2 = 1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2
A4_1, A4_3 = 2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2
A5_1, A5_3, A5_4 = (2.41365134159266685502369798665e-1,
                    -8.84549479328286085344864962717e-1,
                    9.24834003261792003115737966543e-1)
A6_1, A6_4, A6_5 = (3.7037037037037037037037037037e-2,
                    1.70828608729473871279604482173e-1,
                    1.25467687566822425016691814123e-1)
A7_1, A7_4, A7_5, A7_6 = (3.7109375e-2, 1.70252211019544039314978060272e-1,
                          6.02165389804559606850219397283e-2, -1.7578125e-2)
A8_1, A8_4, A8_5, A8_6, A8_7 = (
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3)
A9_1, A9_4, A9_5, A9_6, A9_7, A9_8 = (
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1)
A10_1, A10_4, A10_5, A10_6, A10_7, A10_8, A10_9 = (
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2)
A11_1, A11_4, A11_5, A11_6, A11_7, A11_8, A11_9, A11_10 = (
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022)
A12_1, A12_4, A12_5, A12_6, A12_7, A12_8, A12_9, A12_10, A12_11 = (
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1)
B1, B6, B7, B8, B9, B10, B11, B12 = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2)
E3_1, E3_6, E3_7, E3_8, E3_9, E3_10, E3_11, E3_12 = (
    B1 - 0.244094488188976377952755905512, B6, B7, B8,
    B9 - 0.733846688281611857341361741547, B10, B11,
    B12 - 0.220588235294117647058823529412e-1)
E5_1, E5_6, E5_7, E5_8, E5_9, E5_10, E5_11, E5_12 = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)


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
            raise ConfigError("a_minus and a_plus must be negative")
        if not self.tau > 0.0:
            raise ConfigError("tau must be positive")

    @functools.cached_property
    def _mid_amp(self) -> tuple[float, float]:
        """(mid, amp): A(x0) = mid + amp tanh(x0/tau)."""
        return (0.5 * (self.a_plus + self.a_minus),
                0.5 * (self.a_plus - self.a_minus))

    def eval(self, x0):
        """A(x0), one numpy expression for floats and arrays alike: an
        array in gives an array out, a float numpy's float64 (a float), and
        a float gives the same bits as its element of an array."""
        mid, amp = self._mid_amp
        # x0/tau overflows to inf where tau is tiny, and tanh takes that
        # to +-1: a float divides as a Python float, with no warning, and
        # an array under errstate
        if isinstance(x0, float):
            return mid + amp * np.tanh(float(x0) / self.tau)
        with np.errstate(over="ignore"):
            return mid + amp * np.tanh(np.asarray(x0, dtype=float)
                                       / self.tau)

    def min_abs(self, x_lo: float, x_hi: float) -> float:
        """min |A(x0)| over [x_lo, x_hi]; A is monotone, so it lies at an
        end, and max_abs at the other.  Both are Python floats, so that
        arithmetic on them overflows without a numpy warning."""
        return float(np.abs(self.eval([x_lo, x_hi])).min())

    def max_abs(self, x_lo: float, x_hi: float) -> float:
        return float(np.abs(self.eval([x_lo, x_hi])).max())


@dataclass(frozen=True)
class HorizonCurve:
    """Sampled separatrix rho*(x0) on a symmetric grid around x0 = 0."""

    x0: np.ndarray
    rho_star: np.ndarray


@dataclass(frozen=True)
class FlowMap:
    """A profile together with its separatrix data."""

    profile: VelocityProfile
    sigma_star: float
    horizon: HorizonCurve


@dataclass(frozen=True)
class CharacteristicPath:
    """One integrated ray: samples of rho(x0) plus a capture flag."""

    x0: np.ndarray
    rho: np.ndarray
    captured: bool


def _dop853_step(f, x, y, h, k1):
    """One Dormand-Prince 8(5,3) step of size h from (x, y), k1 = f(x, y).

    Returns y(x + h) and the stages that _dop853_errors takes.  x, y, h and
    k1 may be floats or arrays that broadcast together; one call with
    arrays re-steps many points.
    """
    k2 = f(x + C2 * h, y + h * (A2_1 * k1))
    k3 = f(x + C3 * h, y + h * (A3_1 * k1 + A3_2 * k2))
    k4 = f(x + C4 * h, y + h * (A4_1 * k1 + A4_3 * k3))
    k5 = f(x + C5 * h, y + h * (A5_1 * k1 + A5_3 * k3 + A5_4 * k4))
    k6 = f(x + C6 * h, y + h * (A6_1 * k1 + A6_4 * k4 + A6_5 * k5))
    k7 = f(x + C7 * h, y + h * (A7_1 * k1 + A7_4 * k4 + A7_5 * k5
                                + A7_6 * k6))
    k8 = f(x + C8 * h, y + h * (A8_1 * k1 + A8_4 * k4 + A8_5 * k5
                                + A8_6 * k6 + A8_7 * k7))
    k9 = f(x + C9 * h, y + h * (A9_1 * k1 + A9_4 * k4 + A9_5 * k5
                                + A9_6 * k6 + A9_7 * k7 + A9_8 * k8))
    k10 = f(x + C10 * h, y + h * (A10_1 * k1 + A10_4 * k4 + A10_5 * k5
                                  + A10_6 * k6 + A10_7 * k7 + A10_8 * k8
                                  + A10_9 * k9))
    k11 = f(x + C11 * h, y + h * (A11_1 * k1 + A11_4 * k4 + A11_5 * k5
                                  + A11_6 * k6 + A11_7 * k7 + A11_8 * k8
                                  + A11_9 * k9 + A11_10 * k10))
    k12 = f(x + C12 * h, y + h * (A12_1 * k1 + A12_4 * k4 + A12_5 * k5
                                  + A12_6 * k6 + A12_7 * k7 + A12_8 * k8
                                  + A12_9 * k9 + A12_10 * k10
                                  + A12_11 * k11))
    y_new = y + h * (B1 * k1 + B6 * k6 + B7 * k7 + B8 * k8 + B9 * k9
                     + B10 * k10 + B11 * k11 + B12 * k12)
    return y_new, (k1, k6, k7, k8, k9, k10, k11, k12)


def _dop853_errors(k):
    """The fifth- and third-order error estimates of a step, each still to
    be multiplied by h, from the stages _dop853_step returns."""
    k1, k6, k7, k8, k9, k10, k11, k12 = k
    return ((E5_1 * k1 + E5_6 * k6 + E5_7 * k7 + E5_8 * k8 + E5_9 * k9
             + E5_10 * k10 + E5_11 * k11 + E5_12 * k12),
            (E3_1 * k1 + E3_6 * k6 + E3_7 * k7 + E3_8 * k8 + E3_9 * k9
             + E3_10 * k10 + E3_11 * k11 + E3_12 * k12))


@dataclass(frozen=True)
class _Run:
    """The accepted steps (x, y, k, h) of one solve, each from (x, y) with
    slope k = f(x, y) over h, and the point (x_end, y_end) it reached."""

    steps: list
    x_end: float
    y_end: object


def _rk8(f, x, y, x_end, rtol, atol, what, stop=None,
         h_max=None) -> _Run:
    """Adaptive DOP853 solve of y' = f(x, y) from (x, y) towards x_end.

    y is a float or an array.  A step passes when the DOP853 error norm,
    built from the fifth- and third-order estimates over the RMS of y's
    entries scaled by atol + rtol |y| at the step's start, is below 1.
    The next step is the last one times 0.9 err^(-1/8) and, after an
    accepted step, Gustafsson's predictive factor (h/h_old)
    (err_old/err)^(1/8), held between 0.2 and 10 (no growth right after a
    failure); the first is Hairer's estimate from f(x, y) and one more
    evaluation.  stop(y) ends the solve after the first step it holds for,
    and h_max(x, y) bounds the step from (x, y).  A step too small to move
    x, RK8_MAX_STEPS tries, or a float division by zero in f raise
    StepFailureError "<what> failed: ...".
    """
    # numpy scalars would make every float operation below several times
    # slower
    x, x_end = float(x), float(x_end)
    if isinstance(y, float):
        y, size, dot = float(y), 1, operator.mul
    else:
        size, dot = y.size, np.vdot
    steps = []
    span = abs(x_end - x)
    if span == 0.0:
        return _Run(steps, x, y)
    direction = math.copysign(1.0, x_end - x)
    scale = atol + abs(y) * rtol

    def norm(v):
        v = v / scale
        return math.sqrt(dot(v, v) / size)

    try:
        k = f(x, y)
        d0, d1 = norm(y), norm(k)
        # where the slope vanishes against the tolerance, Hairer's guess
        # 1e-6 only sets the difference quotient d2, not a bound 100 h0
        flat = min(d0, d1) < 1e-5
        h0 = min(1e-6 if flat else 0.01 * d0 / d1, span)
        d2 = norm(f(x + direction * h0, y + direction * h0 * k) - k) / h0
        h_abs = min(span if flat else 100.0 * h0, span,
                    (0.01 / max(d1, d2)) ** 0.125
                    if max(d1, d2) > 1e-15 else span)
        if h_max is not None:
            h_abs = min(h_abs, h_max(x, y))
        rejected, last = False, None
        for _ in range(RK8_MAX_STEPS):
            x_new = x + direction * h_abs
            if direction * (x_new - x_end) > 0.0:
                x_new = x_end
            h = x_new - x
            h_abs = abs(h)
            if h == 0.0:
                raise StepFailureError(f"{what} failed: the step size "
                                       f"underflows at x0 = {x:g}")
            y_new, stages = _dop853_step(f, x, y, h, k)
            err5, err3 = _dop853_errors(stages)
            err5, err3 = err5 / scale, err3 / scale
            s5, s3 = dot(err5, err5), dot(err3, err3)
            # a nan estimate fails the step, and a nan step shrinks it
            err = abs(h) * s5 / math.sqrt((s5 + 0.01 * s3) * size) \
                if s5 or s3 else 0.0
            if not err < 1.0:
                h_abs *= max(0.2, 0.9 * err ** -0.125)
                rejected = True
                continue
            steps.append((x, y, k, h))
            x, y = x_new, y_new
            if x == x_end or (stop is not None and stop(y)):
                return _Run(steps, x, y)
            k = f(x, y)
            scale = atol + abs(y) * rtol
            factor = 0.9 * err ** -0.125 if err > 0.0 else 10.0
            if last is not None and err > 0.0:
                # an error growing from step to step shrinks the next step
                # before it fails
                factor *= abs(h) / last[0] * (last[1] / err) ** 0.125
            last = (abs(h), err) if err > 0.0 else None
            h_abs *= min(1.0 if rejected else 10.0, max(0.2, factor))
            if h_max is not None:
                h_abs = min(h_abs, h_max(x, y))
            rejected = False
        raise StepFailureError(f"{what} failed: {RK8_MAX_STEPS} steps did "
                               f"not reach x0 = {x_end:g} (stopped at x0 = "
                               f"{x:g})")
    except ZeroDivisionError:  # where numpy would give inf or nan
        raise StepFailureError(f"{what} failed: the right-hand side divides "
                               f"by zero at x0 = {x:g}") from None


def _resample(f, runs):
    """Values of scalar solves at given points, each by one re-step from
    the start of the accepted step that covers it, all in one vectorised
    step.  runs pairs each _Run with its points; f takes arrays."""
    parts = []
    for run, t in runs:
        x, y, k, h = np.fromiter(itertools.chain.from_iterable(run.steps),
                                 float).reshape(-1, 4).T
        direction = math.copysign(1.0, h[0])
        j = np.maximum(np.searchsorted(direction * x, direction * t,
                                       side="right") - 1, 0)
        parts.append((x[j], y[j], k[j], t - x[j]))
    x, y, k, h = (np.concatenate(col) for col in zip(*parts))
    return _dop853_step(f, x, y, h, k)[0]


def _ray_equation(profile: VelocityProfile):
    """drho/dx0 = A(x0)/rho + 1 on floats, and the step 5 / |d(A/rho +
    1)/drho| = 5 rho^2/|A|, inside DOP853's real stability interval
    [-6.39, 0].  Both write A in with math.tanh: they run a dozen times a
    step, where a call to profile.eval would add a fifth to their cost."""
    (mid, amp), tau, tanh = profile._mid_amp, profile.tau, math.tanh

    def ray(x0, rho):
        return (mid + amp * tanh(x0 / tau)) / rho + 1.0

    def stable_step(x0, rho):
        return -5.0 * rho * rho / (mid + amp * tanh(x0 / tau))
    return ray, stable_step


def integrate_characteristic(sigma0: float, x0_from: float, x0_to: float,
                             profile: VelocityProfile) -> CharacteristicPath:
    """Integrate one ray from rho(x0_from) = sigma0 to x0_to.

    Samples the start of every accepted step and the point the solve
    reached.  A ray that falls to CAPTURE_RHO stops after that step, with
    captured=True.
    """
    if sigma0 <= CAPTURE_RHO:
        raise ValueError(f"sigma0 = {sigma0} must exceed {CAPTURE_RHO}")
    run = _rk8(_ray_equation(profile)[0], float(x0_from), float(sigma0),
               float(x0_to), RAY_RTOL, RAY_ATOL, "ray integration",
               stop=lambda rho: rho <= CAPTURE_RHO)
    return CharacteristicPath(
        x0=np.array([step[0] for step in run.steps] + [run.x_end]),
        rho=np.array([step[1] for step in run.steps] + [run.y_end]),
        captured=run.y_end <= CAPTURE_RHO)


def _separatrix_start(profile: VelocityProfile, x0_horizon_max: float):
    """Where the backward separatrix solve starts, at rho = |A(x_start)|.

    On [x, inf) the separatrix lies between |A(x)| and |A+| (A is
    monotone), so the start errs by at most ||A(x_start)| - |A+|| <=
    2 |amp| e^(-2 x_start / tau), amp = (A+ - A-)/2.  Backward, two rays
    close at rate |A|/(rho1 rho2), at x at least r(x) = |A(x)| /
    max(|A(x)|, |A+|)^2, which grows with x.  x_start is the first point
    at or beyond x0_horizon_max where the two together leave less than
    e^-40 min|A| at x0_horizon_max: the saturation that a start at 20 tau
    relies on, and the contraction that keeps the start near for slow
    flows.  The integral of r is taken in steps of at most tau, each at
    the rate of its near end, so it is never overestimated.
    """
    amp = abs(profile._mid_amp[1])
    if amp == 0.0:
        return x0_horizon_max
    tau, a_plus = profile.tau, abs(profile.a_plus)
    # ln(2 amp / e^-40 min|A|) less the saturation up to x, formed without
    # overflow
    x = x0_horizon_max
    need = (40.7 + math.log(amp / min(abs(profile.a_minus), a_plus))
            - 2.0 * x / tau)
    while need > 0.0:
        a = abs(float(profile.eval(x)))
        top = max(a, a_plus)
        rate = 2.0 / tau + a / top / top
        if need <= tau * rate:
            return x + need / rate
        x, need = x + tau, need - tau * rate
    return x


def find_separatrix(profile: VelocityProfile,
                    x0_horizon_max: float = 10.0) -> FlowMap:
    """Locate sigma_star by one backward solve and sample the horizon curve.

    The ray started at |A| far in the future (_separatrix_start) and
    integrated back to x0 = 0 lands on sigma_star; a backward solve from
    (0, sigma_star) covers the x0 < 0 half.  Both are _rk8 solves at rtol
    SEPARATRIX_RTOL and atol SEPARATRIX_RTOL/100, in plain floats,
    and the 800 horizon samples off x0 = 0 come from one vectorised
    re-step pass over the two.  A failed solve, or a sample that is not
    finite or lies outside [min|A|, max|A|], raises StepFailureError
    naming the solve's start; ConfigError, before any solve, where
    x0_horizon_max is not positive or min|A| <= CAPTURE_RHO.
    """
    if not x0_horizon_max > 0.0:
        raise ConfigError("x0_horizon_max must be positive")
    lo, hi = sorted((abs(profile.a_minus), abs(profile.a_plus)))
    if not lo > CAPTURE_RHO:
        raise ConfigError(f"min(|a_minus|, |a_plus|) must exceed rho_min = "
                          f"{CAPTURE_RHO}, the rays' capture radius")
    tol = SEPARATRIX_RTOL
    x_grid = np.linspace(0.0, float(x0_horizon_max), 401)
    # the samples' x0 in solve order, 10 ... 0.025, 0, -0.025 ... -10,
    # with x0 = +0 at index n
    n = x_grid.size - 1
    x0 = np.concatenate([x_grid[::-1], -x_grid[1:]])
    x_start = _separatrix_start(profile, float(x0_horizon_max))
    # steps stay stable: where the right-hand side vanishes to the last
    # bit, the error estimate alone would let a step grow past stability,
    # and a re-step over part of such a step would blow rounding up
    ray, stable_step = _ray_equation(profile)
    pos = _rk8(ray, x_start, abs(profile.eval(x_start)), 0.0, tol,
               tol * 1e-2, f"separatrix integration from x0 = {x_start:g}",
               h_max=stable_step)
    sigma_star = pos.y_end
    neg = _rk8(ray, 0.0, sigma_star, x0[-1], tol, tol * 1e-2,
               "separatrix integration from x0 = 0", h_max=stable_step)
    samples = _resample(lambda x, rho: profile.eval(x) / rho + 1.0,
                        [(pos, x0[:n]), (neg, x0[n + 1:])])
    reached = np.insert(samples, n, sigma_star)

    # rounding puts a sample up to about one rtol outside [min|A|, max|A|],
    # and nan or inf fails the <= test; the first miss in solve order is
    # where a solve went wrong
    inside = np.clip(reached, lo, hi)
    bad = ~(np.abs(reached - inside) <= 100.0 * tol * inside)
    if bad.any():
        i = int(np.argmax(bad))
        start = x_start if i <= n else 0.0
        raise StepFailureError(
            f"separatrix integration from x0 = {start:g} failed: rho*("
            f"{x0[i]:g}) = {float(reached[i])!r} lies outside [min|A|, "
            f"max|A|] = [{lo:g}, {hi:g}]")
    horizon = HorizonCurve(x0=x0[::-1].copy(), rho_star=reached[::-1].copy())

    return FlowMap(profile=profile, sigma_star=sigma_star, horizon=horizon)


def transport(rho, x0_from: float, x0_to: float, flow: FlowMap):
    """Carry rays from x0_from to x0_to together with their tangents.

    Returns (rho(x0_to), J) for the rays through the points rho at
    x0_from, where J = d rho(x0_to) / d rho(x0_from) solves the tangent
    equation dJ/dx0 = (-A/rho^2) J, J(x0_from) = 1.  Vectorised over rho:
    one _rk8 solve of the rays stacked over their tangents, at RAY_RTOL
    and RAY_ATOL; raises CaptureError if a ray reaches CAPTURE_RHO on the
    way.
    """
    rho = np.asarray(rho, dtype=float)
    a_of = flow.profile.eval

    def rays(x0, y):
        q = a_of(x0) / y[0]
        return np.array([q + 1.0, -q / y[0] * y[1]])

    run = _rk8(rays, float(x0_from), np.array([rho, np.ones_like(rho)]),
               float(x0_to), RAY_RTOL, RAY_ATOL, "ray integration",
               stop=lambda y: y[0].min() <= CAPTURE_RHO)
    if run.x_end != x0_to:
        raise CaptureError(f"a ray from x0={x0_from} reaches the capture "
                           f"radius {CAPTURE_RHO} before x0={x0_to}")
    return run.y_end[0], run.y_end[1]
