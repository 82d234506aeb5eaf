"""Background flow, rays, separatrix, and the characteristic label.

Covers:
  - profile validation and limits
  - constant-A closed forms: equilibrium, first integral rho + ln(rho-1) - x0
  - capture detection and the escape/capture dichotomy around sigma_star
  - sigma_star against the former bisection value
  - the derived interval [min|A|, max|A|]: every sample inside it over a
    grid of flows, and a sample outside it or not finite as a typed
    failure of the separatrix solve
  - one A(x0) evaluator: a float gives the bits of its array element, and
    a tiny tau saturates it without a warning
  - sigma_star and the horizon against an explicit DOP853 oracle and, on
    a flow that oracle misses, against stored 25-digit mpmath values; two
    small-|A+|, long-tau flows against LSODA, and a spent step budget or an
    underflowing step as a typed error
  - the written-out DOP853 tableau against scipy's, and its eighth order
    on a fixed-step run
  - the forward-fate oracle over a grid of (A-, A+, tau) profiles
  - sigma(rho, x0): x0=0 identity, first-integral root-find oracle,
    round-trip inversion, monotonicity of the radial derivative
  - horizon endpoint limits and the semigroup property of the ray flow
"""

import math
import re
import sys
import time
import warnings

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq

import oracles
from sonicbh import flow
from sonicbh.cli import main
from sonicbh.errors import CaptureError, ConfigError, StepFailureError
from sonicbh.flow import (CAPTURE_RHO, RAY_RTOL, VelocityProfile,
                          find_separatrix, integrate_characteristic,
                          transport)


def test_profile_validation():
    # the flow's bounds are the config's, exit 2 from the CLI
    with pytest.raises(ConfigError, match="a_minus and a_plus must be "
                                          "negative"):
        VelocityProfile(a_minus=-1.0, a_plus=0.5)
    with pytest.raises(ConfigError, match="tau must be positive"):
        VelocityProfile(a_minus=-1.0, a_plus=-1.0, tau=0.0)
    # a profile takes any negative strength (the wave stepper's tests step
    # |A| = 2e-5), but the separatrix needs its horizon above the rays'
    # capture radius, and refuses before any solve
    weak = VelocityProfile(a_minus=-1.0, a_plus=-CAPTURE_RHO)
    with pytest.raises(ConfigError, match="must exceed rho_min = 0.001"):
        find_separatrix(weak)
    # the horizon is sampled on [0, x0_horizon_max]: 0 raised IndexError,
    # and -1 gave a curve whose x0 ran from 1 down to -1
    for x_max in (0.0, -1.0, -0.0, math.nan):
        with pytest.raises(ConfigError,
                           match="^x0_horizon_max must be positive$"):
            find_separatrix(VelocityProfile(a_minus=-1.2, a_plus=-0.8),
                            x_max)


@pytest.mark.parametrize("a_minus,a_plus,tau", [
    (-1.2, -0.8, 1.0), (-5.0, -4.0, 0.3), (
        -1.7984536338313981, -0.728849394594151, 2.3621914712368577)])
def test_eval_of_a_float_is_its_array_element(a_minus, a_plus, tau):
    # one evaluator: each float gives the bits of its element of the
    # array, and a float64, which is a float.  A math.tanh float branch
    # missed the array in the last place on about one point in eight
    profile = VelocityProfile(a_minus=a_minus, a_plus=a_plus, tau=tau)
    x = np.linspace(-40.0 * tau, 40.0 * tau, 4001)
    each = [profile.eval(v) for v in x.tolist()]
    assert all(isinstance(v, float) for v in each)
    assert np.array_equal(np.array(each), profile.eval(x))
    assert np.array_equal([profile.eval(v) for v in x], each)  # float64s
    assert profile.eval(1) == profile.eval(1.0)


@pytest.mark.parametrize("x0", [1.0, np.float64(-1.0), 1e300, -1e-300,
                                np.array([1.0, -1e300])])
def test_eval_at_a_tiny_tau_saturates_without_a_warning(x0):
    # x0/tau overflows to inf, which tanh takes to +-1, on floats, float64s
    # and arrays alike, with no RuntimeWarning
    profile = VelocityProfile(a_minus=-1.2, a_plus=-0.8, tau=5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = profile.eval(x0)
    assert np.array_equal(got, np.where(np.asarray(x0) > 0, -0.8, -1.2))


def test_constant_form_is_the_step_with_equal_ends():
    # equal ends give the constant bit for bit, on floats and on arrays
    x = np.linspace(-40.0, 40.0, 10001)
    profile = VelocityProfile(a_minus=-1.2, a_plus=-1.2)
    assert np.all(profile.eval(x) == -1.2)
    assert all(profile.eval(float(v)) == -1.2 for v in x[::100])


def test_profile_limits_monotone(smooth_profile):
    x = np.linspace(-30.0, 30.0, 401)
    a = smooth_profile.eval(x)
    assert np.all(np.diff(a) >= 0.0)  # -1.2 -> -0.8, tanh saturates at the tails
    core = smooth_profile.eval(np.linspace(-5.0, 5.0, 101))
    assert np.all(np.diff(core) > 0.0)
    assert a[0] == pytest.approx(-1.2, abs=1e-12)
    assert a[-1] == pytest.approx(-0.8, abs=1e-12)


@pytest.mark.parametrize("a_minus,a_plus", [(-1.2, -0.8), (-0.8, -1.2)])
def test_profile_min_abs_at_an_end(a_minus, a_plus):
    # |A| falls or rises across the step: its minimum over an interval is
    # at one end, as a dense sample finds it
    profile = VelocityProfile(a_minus=a_minus, a_plus=a_plus)
    for lo, hi in ((0.0, 0.75), (-2.0, 3.0), (1.0, 1.0)):
        dense = np.min(np.abs(profile.eval(np.linspace(lo, hi, 2001))))
        assert profile.min_abs(lo, hi) == pytest.approx(dense, rel=1e-15)


def test_equilibrium_path(const_profile):
    path = integrate_characteristic(1.0, 0.0, 5.0, const_profile)
    assert not path.captured
    np.testing.assert_allclose(path.rho, 1.0, atol=1e-9)


def test_first_integral_along_path(const_profile):
    # d/dx0 (rho + ln(rho - 1)) = 1 for A == -1, so rho + ln(rho-1) - x0
    # keeps its initial value 2 + ln(1) along the ray from sigma0 = 2, at
    # every accepted step and at the end
    path = integrate_characteristic(2.0, 0.0, 3.0, const_profile)
    assert len(path.x0) > 3 and path.x0[-1] == 3.0
    inv = path.rho + np.log(path.rho - 1.0) - path.x0
    np.testing.assert_allclose(inv, 2.0, atol=1e-9)


def test_capture_flag(const_profile):
    # below the fixed point the RHS 1 - 1/rho is negative: the ray falls
    # to the capture radius, and the solve stops at the step that reaches it
    path = integrate_characteristic(0.5, 0.0, 30.0, const_profile)
    assert path.captured
    assert path.rho[-1] <= CAPTURE_RHO < path.rho[-2]
    assert path.x0[-1] < 30.0


def test_characteristic_refuses_a_start_at_capture(const_profile):
    with pytest.raises(ValueError, match=re.escape(
            f"sigma0 = {CAPTURE_RHO} must exceed {CAPTURE_RHO}")):
        integrate_characteristic(CAPTURE_RHO, 0.0, 1.0, const_profile)


def test_semigroup(smooth_profile):
    one = integrate_characteristic(1.7, 0.0, 2.4, smooth_profile)
    mid = integrate_characteristic(1.7, 0.0, 1.1, smooth_profile)
    two = integrate_characteristic(mid.rho[-1], 1.1, 2.4, smooth_profile)
    assert mid.x0[-1] == 1.1 and one.x0[-1] == two.x0[-1] == 2.4
    assert abs(two.rho[-1] - one.rho[-1]) < 10.0 * RAY_RTOL


@pytest.mark.parametrize("a", [-1.0, -0.8])
def test_separatrix_constant_profile(a):
    flow = find_separatrix(VelocityProfile(a, a), x0_horizon_max=5.0)
    assert flow.sigma_star == pytest.approx(abs(a), abs=1e-9)
    np.testing.assert_allclose(flow.horizon.rho_star, abs(a), atol=1e-7)


def test_separatrix_smooth_step(smooth_flow, smooth_profile):
    assert 0.8 < smooth_flow.sigma_star < 1.2
    # the value an independent method (bisection with a forward classifier,
    # tol 1e-12) found for this profile, where its classifier is unbiased
    assert abs(smooth_flow.sigma_star - 0.8938572134126047) < 1e-11


def test_horizon_endpoint_limits(smooth_flow):
    hz = smooth_flow.horizon
    assert abs(hz.rho_star[0] - 1.2) < 1e-3   # x0 = -10
    assert abs(hz.rho_star[-1] - 0.8) < 1e-3  # x0 = +10


def test_horizon_satisfies_ray_equation(smooth_flow, smooth_profile):
    # centered differences of the sampled curve reproduce A/rho* + 1
    hz = smooth_flow.horizon
    mid = slice(1, -1)
    fd = (hz.rho_star[2:] - hz.rho_star[:-2]) / (hz.x0[2:] - hz.x0[:-2])
    rhs = smooth_profile.eval(hz.x0[mid]) / hz.rho_star[mid] + 1.0
    np.testing.assert_allclose(fd, rhs, atol=2e-4)


def test_horizon_centre_is_positive_zero(smooth_flow):
    # the x0 < 0 half negates the grid past its zero, so the centre sample
    # is +0 and horizon.csv spells it "0", not "-0"
    x0 = smooth_flow.horizon.x0
    centre = x0[len(x0) // 2]
    assert centre == 0.0 and not np.signbit(centre)


def _outside(rho, profile):
    # relative distance of each sample outside [min|A|, max|A|]
    lo, hi = sorted((abs(profile.a_minus), abs(profile.a_plus)))
    inside = np.clip(rho, lo, hi)
    return np.abs(rho - inside) / inside


def _separatrix_grid():
    # |A-|, |A+| from 10^[-2.5, 1.5] and tau from 10^[-2, 4]; then constant
    # flows, and ends that differ by 1e-15 relative either way
    rng = np.random.default_rng(2357)
    flows = [(-10.0 ** rng.uniform(-2.5, 1.5), -10.0 ** rng.uniform(-2.5, 1.5),
              10.0 ** rng.uniform(-2.0, 4.0)) for _ in range(320)]
    for _ in range(20):
        a, tau = -10.0 ** rng.uniform(-2.5, 1.5), 10.0 ** rng.uniform(-2.0, 4.0)
        flows += [(a, a, tau), (a, a * (1.0 + 1e-15), tau),
                  (a * (1.0 + 1e-15), a, tau)]
    return flows


def test_separatrix_inside_derived_interval_over_grid():
    # the ray equation confines rho* to [min|A|, max|A|], so the check that
    # find_separatrix makes never fires on a completed solve, and every one
    # of these 380 flows completes.  The largest excursion measured 2.8e-13
    # relative (rounding, about one rtol); the check admits 100 rtol = 1e-11
    for am, ap, tau in _separatrix_grid():
        profile = VelocityProfile(am, ap, tau)
        got = find_separatrix(profile)
        assert np.all(_outside(got.horizon.rho_star, profile) <= 1e-12), \
            (am, ap, tau)


@pytest.mark.parametrize("a_minus,a_plus,tau", [
    # the grid flows, by their digits, with the smallest |A+| and a long
    # tau, where rays close on the separatrix at up to 1/|A+| = 90 and 270
    # per unit x0
    (-8.126947235864801, -0.003717189624730734, 167.74903014826378),
    (-0.18672991296368424, -0.011196492831078658, 1435.2474902678107),
])
def test_separatrix_small_a_plus_long_tau(a_minus, a_plus, tau):
    # measured: 6 ms and 2 ms, sigma* 4.0e-13 and 2.6e-15 off the LSODA
    # oracle (which takes seconds)
    profile = VelocityProfile(a_minus, a_plus, tau)
    t0 = time.monotonic()
    star = find_separatrix(profile).sigma_star
    assert time.monotonic() - t0 < 1.0
    assert abs(star - oracles.lsoda_separatrix(profile)) <= SEPARATRIX_ATOL


def test_separatrix_off_interval_is_step_failure(const_profile, monkeypatch):
    # a sample outside [min|A|, max|A|] by more than the rounding slack, or
    # not finite, is a failed solve (exit 3), named by its start and by the
    # first sample it missed on, never a config error.  The samples of both
    # solves come from one re-step pass, 400 from each, in solve order
    real = flow._resample

    def perturbed(solve, change):
        def resample(f, runs):
            rho = real(f, runs)
            part = slice(0, 400) if solve == 1 else slice(400, None)
            rho[part] = change(rho[part])
            return rho
        return resample

    miss = r"rho\*\({}\) = {} lies outside \[min\|A\|, max\|A\|\] = \[1, 1\]"
    # const_profile: the first solve starts at x0 = x0_horizon_max = 10 (a
    # constant flow needs no run-in), where its first sample lies; the
    # second starts from (0, sigma*) and reaches -0.025 first
    for solve, start, first in ((1, "10", "10"), (2, "0", "-0.025")):
        monkeypatch.setattr(flow, "_resample",
                            perturbed(solve, lambda r: r * (1.0 + 1e-9)))
        with pytest.raises(StepFailureError,
                           match=f"separatrix integration from x0 = {start} "
                                 f"failed: " + miss.format(first, r"1\.0+1")):
            find_separatrix(const_profile)
        # a shift within the slack of 100 rtol (1e-11) passes
        monkeypatch.setattr(flow, "_resample",
                            perturbed(solve, lambda r: r * (1.0 + 1e-12)))
        find_separatrix(const_profile)

    # an infinite sample fails even where max|A| (1 + slack) overflows
    profile = VelocityProfile(-1.0, -sys.float_info.max)
    monkeypatch.setattr(flow, "_resample", real)
    assert find_separatrix(profile).sigma_star == sys.float_info.max

    def to_inf(rho):
        rho = rho.copy()
        rho[3] = math.inf
        return rho
    monkeypatch.setattr(flow, "_resample", perturbed(2, to_inf))
    with pytest.raises(StepFailureError, match=r"rho\*\(-0\.1\) = inf"):
        find_separatrix(profile)


def test_separatrix_far_edge_is_step_failure():
    # from x0_horizon_max = 1e308 a step of the solve back to x0 = 0 no
    # longer moves x0
    with pytest.raises(StepFailureError,
                       match=re.escape("separatrix integration from x0 = "
                                       "1e+308 failed: the step size "
                                       "underflows at x0 = 1e+308")):
        find_separatrix(VelocityProfile(-1.2, -0.8), 1e308)


@pytest.mark.parametrize("tau,x0_max,star", [
    # the start derived from the contraction lies at x0 = 49.3, and for
    # tau -> inf sigma* = 1 - 0.2/tau + ... = |A(0)| to every digit
    (1e307, 10.0, 1.0),
    (1e50, 10.0, 1.0),
    # sigma* is the default flow's (test_separatrix_smooth_step)
    (1.0, 1e-300, 0.8938572134126047),
    (1.0, 5e-324, 0.8938572134126047),
])
def test_separatrix_extreme_scales_are_right(tau, x0_max, star):
    flow_map = find_separatrix(VelocityProfile(-1.2, -0.8, tau=tau), x0_max)
    assert abs(flow_map.sigma_star - star) < 1e-11
    np.testing.assert_allclose(flow_map.horizon.rho_star, star, atol=1e-11)


_FATE_PROFILES = (
    [pytest.param(-1.2, -0.8, 1.0, id="default")]
    + [pytest.param(am, ap, tau, id=f"{am:g},{ap:g},{tau:g}")
       for am in (-2.0, -1.2, -0.5) for ap in (-2.0, -1.2, -0.5)
       for tau in (0.3, 1.0, 3.0)]
    # the grid holds (-2, -0.5, 3), where the bisection failed to step;
    # this short transition is where its forward classifier was biased
    + [pytest.param(-0.8, -1.2, 0.5, id="-0.8,-1.2,0.5")])


@pytest.mark.parametrize("a_minus,a_plus,tau", _FATE_PROFILES)
def test_separatrix_sharpness(a_minus, a_plus, tau):
    # a one-sided relative nudge flips the fate of the ray; rays leave the
    # horizon at about |A+|/rho*^2 = 1/|A+| per unit x0, so the window
    # allows twice the e-folds that turn the nudge into an O(1) departure
    profile = VelocityProfile(a_minus=a_minus, a_plus=a_plus, tau=tau)
    star = find_separatrix(profile).sigma_star
    nudge = 1e-9
    window = 3.0 * tau + 2.0 * math.log(1.0 / nudge) * abs(a_plus)
    up = integrate_characteristic(star * (1.0 + nudge), 0.0, window, profile)
    dn = integrate_characteristic(star * (1.0 - nudge), 0.0, window, profile)
    assert not up.captured and up.rho[-1] > 2.0 * abs(a_plus)
    assert dn.captured


# measured against the oracle over these 31 profiles: sigma_star at most
# 4.7e-12 off, a horizon sample at most 7.6e-12; the former DOP853 path
# at rtol 1e-12 put a sample 2.7e-10 off
SEPARATRIX_ATOL = 1e-11
HORIZON_ATOL = 2e-11


@pytest.mark.parametrize("a_minus,a_plus,tau", _FATE_PROFILES + [
    pytest.param(-1.2, -0.8, 10.0, id="tau10"),
    pytest.param(-1.2, -0.8, 100.0, id="tau100")])
def test_separatrix_matches_dop853_oracle(a_minus, a_plus, tau):
    profile = VelocityProfile(a_minus=a_minus, a_plus=a_plus, tau=tau)
    got = find_separatrix(profile)
    star, rho_star = oracles.dop853_separatrix(profile)
    assert abs(got.sigma_star - star) <= SEPARATRIX_ATOL
    assert np.max(np.abs(got.horizon.rho_star - rho_star)) <= HORIZON_ATOL


# rho*(x0) of the flow (-1.7984536338313981, -0.728849394594151,
# 2.3621914712368577), on which oracles.dop853_separatrix misses rho*(9.7)
# by 5.3e-11, from a 25-digit mpmath.odefun solve (7 s, so its digits are
# stored), in t = -x0 since odefun steps forward:
#     with mp.workdps(25):
#         mid = (mp.mpf(a_plus) + mp.mpf(a_minus)) / 2
#         amp = (mp.mpf(a_plus) - mp.mpf(a_minus)) / 2
#         a_of = lambda x: mid + amp * mp.tanh(x / mp.mpf(tau))
#         rho = mp.odefun(lambda t, r: -(a_of(-t) / r + 1), -40, abs(a_of(40)))
#         [rho(-mp.mpf(x0)) for x0 in (9.7, 9, 5, 0)]
# The start at x0 = 40 errs by at most 2|amp| e^(-80/tau) = 2e-15, which
# the backward solve shrinks by about e^-40 before x0 = 9.7; a start at 30
# and a 30-digit solve give the same 22 digits
_MPMATH_FLOW = (-1.7984536338313981, -0.728849394594151, 2.3621914712368577)
_MPMATH_HORIZON = {9.7: 0.7290287179081508447747, 9.0: 0.7291736873806793989527,
                   5.0: 0.7383092773854197409056, 0.0: 1.081618329045030364005}


def test_separatrix_matches_mpmath_where_dop853_oracle_cannot():
    got = find_separatrix(VelocityProfile(*_MPMATH_FLOW))
    hz = got.horizon
    assert abs(got.sigma_star - _MPMATH_HORIZON[0.0]) <= SEPARATRIX_ATOL
    for x0, want in _MPMATH_HORIZON.items():
        i = int(np.argmin(np.abs(hz.x0 - x0)))
        assert abs(hz.x0[i] - x0) < 1e-14
        assert abs(hz.rho_star[i] - want) <= HORIZON_ATOL, x0


def test_separatrix_step_budget_is_typed(smooth_profile, tmp_path, capsys,
                                        monkeypatch):
    # a solve that spends its step budget is a failed solve naming its start
    # (the default flow takes 40-50 steps a half)
    monkeypatch.setattr(flow, "RK8_MAX_STEPS", 20)
    with pytest.raises(StepFailureError,
                       match=r"separatrix integration from x0 = 15\.9\d* "
                             r"failed: 20 steps did not reach x0 = 0"):
        find_separatrix(smooth_profile)
    assert main(["horizon", "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: separatrix integration")
    assert "steps did not reach" in err and "Traceback" not in err


def _tableau(prefix, shape):
    # the package's named coefficients <prefix><i>[_<j>], stages from 1
    out = np.zeros(shape)
    for name, value in vars(flow).items():
        m = re.fullmatch(prefix + r"(\d+)(?:_(\d+))?", name)
        if m:
            out[tuple(int(g) - 1 for g in m.groups() if g is not None)] = value
    return out


def test_dop853_tableau_matches_scipy():
    # entry for entry, zeros included: the stage weights A, the solution
    # weights B, the nodes C and both error weight vectors
    ref = dop853_coefficients
    n = ref.N_STAGES
    assert np.array_equal(_tableau("A", (n, n)), ref.A[:n, :n])
    assert np.array_equal(_tableau("B", (n,)), ref.B)
    assert np.array_equal(_tableau("C", (n,)), ref.C[:n])
    assert np.array_equal(_tableau("E3_", (n + 1,)), ref.E3)
    assert np.array_equal(_tableau("E5_", (n + 1,)), ref.E5)


def test_dop853_step_is_eighth_order():
    # 2, 4 and 8 fixed steps over x0 in [0, 8] along the constant-A ray from
    # rho = 2: the first integral rho + ln(rho - 1) - x0 = 2 measures the
    # global error (measured 4.7e-6, 2.1e-8, 9.0e-11), which must shrink by
    # 2^8 (within [2^7, 2^9]) when h is halved
    def ray(x0, rho):
        return 1.0 - 1.0 / rho

    def error(n):
        h, rho = 8.0 / n, 2.0
        for i in range(n):
            rho = flow._dop853_step(ray, i * h, rho, h, ray(i * h, rho))[0]
        return abs(rho + math.log(rho - 1.0) - 8.0 - 2.0)

    errors = [error(n) for n in (2, 4, 8)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 2.0 ** 7 <= coarse / fine <= 2.0 ** 9, errors


# sigma(rho, x0) and d sigma/d rho: the rays through rho at x0, carried to 0

def test_sigma_of_identity_at_zero(smooth_flow):
    sig, dsig = transport([1.7], 0.0, 0.0, smooth_flow)
    assert sig[0] == 1.7 and dsig[0] == 1.0


def test_sigma_of_first_integral_oracle(const_flow):
    # sigma solves sigma + ln(sigma - 1) = 2 + ln(1) - T
    T = 3.0
    (sig,), _ = transport([2.0], T, 0.0, const_flow)
    oracle = brentq(lambda s: s + np.log(s - 1.0) - (2.0 - T),
                    1.0 + 1e-12, 2.0, xtol=1e-14)
    assert sig == pytest.approx(oracle, abs=1e-9)


def test_transport_roundtrip(smooth_flow, smooth_profile):
    for sigma0 in (smooth_flow.sigma_star + 0.05, 1.3, 2.6):
        path = integrate_characteristic(sigma0, 0.0, 1.8, smooth_profile)
        assert path.x0[-1] == 1.8
        (back,), _ = transport([path.rho[-1]], 1.8, 0.0, smooth_flow)
        assert back == pytest.approx(sigma0, abs=1e-9)


def test_sigma_monotone_in_rho(smooth_flow):
    rho = np.linspace(0.9, 4.0, 25)
    sig, dsig = transport(rho, 1.5, 0.0, smooth_flow)
    assert np.all(np.diff(sig) > 0.0)
    assert np.all(dsig > 0.0)


def test_sigma_map_matches_scalar(smooth_flow):
    rho = np.array([0.7, 1.1, 2.5])
    sig, dsig = transport(rho, 2.0, 0.0, smooth_flow)
    for i, r in enumerate(rho):
        (s,), (d,) = transport([r], 2.0, 0.0, smooth_flow)
        assert sig[i] == pytest.approx(s, abs=1e-10)
        assert dsig[i] == pytest.approx(d, rel=1e-8)


def test_capture_error_from_negative_time(smooth_flow):
    # below the separatrix at x0 < 0 the forward ray to x0 = 0 is swallowed
    with pytest.raises(CaptureError):
        transport([0.05], -6.0, 0.0, smooth_flow)
