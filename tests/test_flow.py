"""Background flow, rays, separatrix, and the characteristic label.

Covers:
  - profile validation and limits
  - constant-A closed forms: equilibrium, first integral rho + ln(rho-1) - x0
  - capture detection and the escape/capture dichotomy around sigma_star
  - sigma_star against the former bisection value
  - the derived interval [min|A|, max|A|]: every sample inside it over a
    grid of flows, and a sample outside it or not finite as a typed
    failure of the separatrix solve
  - sigma_star and the horizon against an explicit DOP853 oracle, and a
    failed LSODA call as a typed error
  - the forward-fate oracle over a grid of (A-, A+, tau) profiles
  - sigma(rho, x0): x0=0 identity, first-integral root-find oracle,
    round-trip inversion, monotonicity of the radial derivative
  - horizon endpoint limits and the semigroup property of the ray flow
"""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import ODEintWarning
from scipy.optimize import brentq

import oracles
from sonicbh import flow
from sonicbh.cli import main
from sonicbh.errors import CaptureError, StepFailureError
from sonicbh.flow import (VelocityProfile, find_separatrix,
                          integrate_characteristic, transport)


def test_profile_validation():
    with pytest.raises(ValueError):
        VelocityProfile(a_minus=-1.0, a_plus=0.5)
    with pytest.raises(ValueError):
        VelocityProfile(a_minus=-1.0, a_plus=-1.0, tau=0.0)


def test_constant_form_is_the_step_with_equal_ends():
    # equal ends give the constant bit for bit, on both evaluation paths
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
    # keeps its initial value 2 + ln(1) along the ray from sigma0 = 2
    path = integrate_characteristic(2.0, 0.0, 3.0, const_profile,
                                    t_eval=np.linspace(0.0, 3.0, 31))
    inv = path.rho + np.log(path.rho - 1.0) - path.x0
    np.testing.assert_allclose(inv, 2.0, atol=1e-9)


def test_capture_flag(const_profile):
    # below the fixed point the RHS 1 - 1/rho is negative: infall to rho_min;
    # the verdict survives a tightened integrator tolerance
    for tol in (1e-10, 1e-12):
        path = integrate_characteristic(0.5, 0.0, 30.0, const_profile,
                                        ode_tol=tol)
        assert path.captured
        assert path.rho[-1] == pytest.approx(1e-3, rel=1e-6)


def test_semigroup(smooth_flow, smooth_profile):
    ode_tol = smooth_flow.ode_tol
    one = integrate_characteristic(1.7, 0.0, 2.4, smooth_profile,
                                   ode_tol=ode_tol, t_eval=[0.0, 2.4])
    mid = integrate_characteristic(1.7, 0.0, 1.1, smooth_profile,
                                   ode_tol=ode_tol, t_eval=[0.0, 1.1])
    two = integrate_characteristic(mid.rho[-1], 1.1, 2.4, smooth_profile,
                                   ode_tol=ode_tol, t_eval=[1.1, 2.4])
    assert abs(two.rho[-1] - one.rho[-1]) < 10.0 * ode_tol


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


def _outside(rho, profile):
    # relative distance of each sample outside [min|A|, max|A|]
    lo = min(abs(profile.a_minus), abs(profile.a_plus))
    inside = np.clip(rho, lo, profile.a_max_abs)
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
    # find_separatrix makes never fires on a completed solve.  Over these
    # 380 flows the largest excursion measured 1.6e-13 relative (rounding,
    # about one rtol); the check admits 100 rtol = 1e-11.  LSODA itself
    # gives up (exit 3, "Excess work done") on 2 of them, with |A+| near
    # 0.01 and tau of 1e2-1e3; those raise its own message, not a miss
    lsoda_failures = 0
    for am, ap, tau in _separatrix_grid():
        profile = VelocityProfile(am, ap, tau)
        try:
            got = find_separatrix(profile)
        except StepFailureError as exc:
            assert "LSODA: Excess work done" in str(exc), (am, ap, tau, exc)
            lsoda_failures += 1
            continue
        assert np.all(_outside(got.horizon.rho_star, profile) <= 1e-12), \
            (am, ap, tau)
    assert lsoda_failures <= 2


def test_separatrix_off_interval_is_step_failure(const_profile, monkeypatch):
    # a sample outside [min|A|, max|A|] by more than the rounding slack, or
    # not finite, is a failed solve (exit 3), named by its start and by the
    # first sample it missed on, never a config error
    real = flow._lsoda_ray

    def perturbed(solve, change):
        calls = []

        def lsoda_ray(profile, rho0, x_out, tol):
            calls.append(None)
            rho = real(profile, rho0, x_out, tol)
            return change(rho) if len(calls) == solve else rho
        return lsoda_ray

    miss = r"rho\*\({}\) = {} lies outside \[min\|A\|, max\|A\|\] = \[1, 1\]"
    # const_profile: the first solve starts at x0 = 20 tau = 20, and reaches
    # x0 = 10 first; the second starts from (0, sigma*) and reaches -0.025
    for solve, start, first in ((1, "20", "10"), (2, "0", "-0.025")):
        monkeypatch.setattr(flow, "_lsoda_ray",
                            perturbed(solve, lambda r: r * (1.0 + 1e-9)))
        with pytest.raises(StepFailureError,
                           match=f"separatrix integration from x0 = {start} "
                                 f"failed: " + miss.format(first, r"1\.0+1")):
            find_separatrix(const_profile)
        # a shift within the slack of 100 rtol (1e-11) passes
        monkeypatch.setattr(flow, "_lsoda_ray",
                            perturbed(solve, lambda r: r * (1.0 + 1e-12)))
        find_separatrix(const_profile)

    # an infinite sample fails even where max|A| (1 + slack) overflows
    profile = VelocityProfile(-1.0, -sys.float_info.max)
    monkeypatch.setattr(flow, "_lsoda_ray", real)
    assert find_separatrix(profile).sigma_star == sys.float_info.max

    def to_inf(rho):
        rho = rho.copy()
        rho[3] = math.inf
        return rho
    monkeypatch.setattr(flow, "_lsoda_ray", perturbed(2, to_inf))
    with pytest.raises(StepFailureError, match=r"rho\*\(-0\.1\) = inf"):
        find_separatrix(profile)


@pytest.mark.parametrize("tau,x0_max,start,first", [
    # x_start = 20 tau overflows to inf, and LSODA hands back nan
    (1e307, 10.0, "inf", "10"),
    # LSODA hands back nan over the first span, of 2.5e305
    (1.0, 1e308, "1e+308", "9.925e+307"),
    # LSODA reports success on the x0 < 0 half and returns nan
    (1.0, 1e-300, "0", "-2.5e-303"),
])
def test_separatrix_nan_is_step_failure(tau, x0_max, start, first):
    with pytest.raises(StepFailureError,
                       match=re.escape(f"separatrix integration from x0 = "
                                       f"{start} failed: rho*({first}) = nan")):
        find_separatrix(VelocityProfile(-1.2, -0.8, tau=tau), x0_max)


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


def test_separatrix_lsoda_failure_is_typed(smooth_profile, tmp_path, capsys,
                                           monkeypatch):
    # odeint's default step budget runs out at tau = 100, where odeint
    # signals failure only by a warning and returns sigma_star = 0; the
    # warning must not leak
    monkeypatch.setattr(flow, "LSODA_MXSTEP", 500)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ODEintWarning)
        with pytest.raises(StepFailureError, match="LSODA: Excess work done"):
            find_separatrix(VelocityProfile(-1.2, -0.8, tau=100.0))
        monkeypatch.setattr(flow, "LSODA_MXSTEP", 5)
        with pytest.raises(StepFailureError, match="LSODA: Excess work done"):
            find_separatrix(smooth_profile)
        assert main(["horizon", "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Excess work done" in err


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
        path = integrate_characteristic(sigma0, 0.0, 1.8, smooth_profile,
                                        t_eval=[0.0, 1.8])
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
