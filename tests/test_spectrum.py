"""Klein-Gordon pairing, projections, creation density, totals and limit.

Frozen reference values were produced with mpmath at 30 digits:
  |Gamma0(3/2 + i)|^2                           = 7.8393421115269398
  density(eta=1; alpha=1, eps=1/2, a=1)         = 0.81481955850645377
  limit(alpha=1, eps=1/4)                       = 1.0094125349312077
  limit(alpha=2, eps=1/4)                       = 1.000140879728635
  limit(alpha=4, eps=1/4)                       = 1.0000000882022029
  limit(alpha=1, eps=1/2)                       = 1.0197027226938886
"""

import math
import os
import warnings

import numpy as np
import pytest
from scipy import integrate

from sonicbh.errors import ConfigError, GridMismatchError, ToleranceError
from sonicbh.flow import CAPTURE_RHO
from sonicbh.gammatools import (gamma0_modulus_sq, packet_fourier,
                                packet_fourier_modulus_sq)
from sonicbh.packets import (A_MIN, FieldOnGrid, PacketParams, gamma_tilde,
                             mode_initial_data, packet_norm)
from sonicbh.spectrum import (MAX_N_ETA, N_ETA_MIN, _simpson, build_spectrum,
                              creation_density, default_eta_grid,
                              density_from_projections, eikonal_projections,
                              limit_integral, limit_sweep,
                              normalized_number_limit,
                              normalized_number_limit_variant, total_number)

from oracles import (creation_density_closed, eta_limit_integral,
                     eta_total_number, kg_inner, packet_fields,
                     quad_angle_integral)

G2_ONE_HALF = 7.8393421115269398
DENSITY_1_1_HALF_1 = 0.81481955850645377
LIMIT_1_QUARTER = 1.0094125349312077
LIMIT_BY_ALPHA = {1.0: 1.0094125349312077, 2.0: 1.000140879728635,
                  4.0: 1.0000000882022029}
LIMIT_1_HALF = 1.0197027226938886


@pytest.fixture(scope="module")
def packet(smooth_flow):
    return PacketParams(alpha=1.0, a=8.0, eps=0.25,
                        sigma_star=smooth_flow.sigma_star)


# -- kg_inner ----------------------------------------------------------------

def test_kg_inner_packet_norm(smooth_flow):
    # regular edge case eps = 1/2 on a graded grid reproduces the closed norm
    star = smooth_flow.sigma_star
    p = PacketParams(alpha=1.0, a=8.0, eps=0.5, sigma_star=star)
    rho = star + np.geomspace(1e-12, 6.0, 6001)
    f = packet_fields(rho, 0.0, p, smooth_flow)
    val = kg_inner(f, f)
    assert val.imag == 0.0
    assert val.real == pytest.approx(packet_norm(p), rel=1e-8)


def test_kg_inner_conjugate_symmetry(smooth_flow):
    star = smooth_flow.sigma_star
    rho = star + np.geomspace(1e-10, 6.0, 2001)
    u = packet_fields(rho, 0.0,
                      PacketParams(1.0, 8.0, 0.5, star), smooth_flow)
    v = packet_fields(rho, 0.0,
                      PacketParams(2.0, 6.0, 0.5, star), smooth_flow)
    assert kg_inner(u, v) == pytest.approx(
        np.conj(kg_inner(v, u)), rel=1e-12)


def test_kg_inner_grid_mismatch(smooth_flow):
    star = smooth_flow.sigma_star
    p = PacketParams(1.0, 8.0, 0.5, star)
    u = packet_fields(star + np.geomspace(1e-8, 6.0, 101), 0.0, p, smooth_flow)
    v = packet_fields(star + np.geomspace(1e-8, 6.0, 102), 0.0, p, smooth_flow)
    with pytest.raises(GridMismatchError):
        kg_inner(u, v)
    # the same grid at two times
    later = packet_fields(u.rho, 0.1, p, smooth_flow)
    with pytest.raises(GridMismatchError):
        kg_inner(u, later)


def _smeared_mode(rho, eta_c, family, sigma_w, rho_c, profile):
    """Gaussian eta-window packet of plane-wave mode data at x0 = 0.

    family "+" takes the lambda_- data of mode_initial_data at eta, and
    "-" the lambda_+ data, their conjugate at -eta.  The e^{-i eta rho_c}
    translation centres the packet at rho_c, away from the half-line edge,
    so full-line Fourier calculus applies to exponential accuracy.
    """
    etas = np.linspace(eta_c - 5.0 * sigma_w, eta_c + 5.0 * sigma_w, 241)
    w = np.exp(-((etas - eta_c) ** 2) / (2.0 * sigma_w ** 2))
    val = np.zeros_like(rho, dtype=complex)
    d_flow = np.zeros_like(rho, dtype=complex)
    a0 = profile.eval(0.0)
    for eta, wk in zip(etas, w):
        phase = np.exp(-1j * eta * rho_c)
        if family == "+":
            v, d = mode_initial_data(eta, rho, a0)
        else:
            v, d = np.conj(mode_initial_data(-eta, rho, a0))
        val += wk * phase * v
        d_flow += wk * phase * d
    de = etas[1] - etas[0]
    return (FieldOnGrid(rho=rho, value=val * de, d_flow=d_flow * de, x0=0.0),
            sigma_w * math.sqrt(math.pi))  # int |w|^2 d eta


def test_smeared_norms_and_orthogonality(smooth_profile):
    # delta-normalisation in smeared form: <u+, u+> = (2 pi)^2 int|w|^2,
    # <v-, v-> = -(2 pi)^2 int|w|^2, and +/- cross products vanish both for
    # the same and for disjoint windows
    rho = np.linspace(CAPTURE_RHO + 20.0, 120.0, 9001)
    sigma_w, rho_c = 0.4, 60.0
    u_plus, w2 = _smeared_mode(rho, 6.0, "+", sigma_w, rho_c, smooth_profile)
    v_minus, _ = _smeared_mode(rho, 2.5, "-", sigma_w, rho_c, smooth_profile)
    same_minus, _ = _smeared_mode(rho, 6.0, "-", sigma_w, rho_c, smooth_profile)

    scale = (2.0 * math.pi) ** 2 * w2
    nu = kg_inner(u_plus, u_plus)
    nv = kg_inner(v_minus, v_minus)
    assert nu.real == pytest.approx(scale, rel=2e-3)
    assert nv.real == pytest.approx(-scale, rel=2e-3)

    for other in (v_minus, same_minus):
        cross = kg_inner(u_plus, other)
        assert abs(cross) < 1e-4 * scale


# -- projections and density ---------------------------------------------------

def test_projections_linear_at_small_eta(packet):
    c1a, c2a = eikonal_projections(1e-6, packet)
    c1b, c2b = eikonal_projections(2e-6, packet)
    assert abs(c1b) / abs(c1a) == pytest.approx(2.0, rel=1e-5)
    assert abs(c2b) / abs(c2a) == pytest.approx(2.0, rel=1e-5)


def test_projections_refuse_a_negative_eta_abs(packet):
    with pytest.raises(ValueError, match="^eta_abs must be nonnegative$"):
        eikonal_projections(np.array([0.5, -0.5]), packet)


def test_projections_equal_moduli(packet):
    for eta in (0.3, 2.0, 40.0):
        c1, c2 = eikonal_projections(eta, packet)
        assert abs(c1) == pytest.approx(abs(c2), rel=1e-14)


def test_projection_against_defining_quadrature(smooth_flow):
    # field-derivative-side projection vs direct quadrature of
    # -i gt int e^{i eta (s + sigma*)} P'(s) ds  (alpha=1, eps=1/2, a=1,
    # eta=-2); the edge power s^(eps-1) is integrable
    star = smooth_flow.sigma_star
    p = PacketParams(alpha=1.0, a=1.0, eps=0.5, sigma_star=star)
    eta = -2.0
    gt = gamma_tilde(eta)

    def dprof(s):
        return np.exp((p.eps + 1j * p.alpha) * np.log(s) - p.a * s) \
            * ((p.eps + 1j * p.alpha) / s - p.a)

    def f(s):
        return -1j * gt * np.exp(1j * eta * (s + star)) * dprof(s)

    kw = dict(epsabs=1e-13, epsrel=1e-12, limit=600)
    oracle = (integrate.quad(lambda s: f(s).real, 0.0, 60.0, **kw)[0]
              + 1j * integrate.quad(lambda s: f(s).imag, 0.0, 60.0, **kw)[0])
    c1, _ = eikonal_projections(-eta, p)
    assert abs(c1 - oracle) / abs(oracle) < 1e-8


def test_density_identity_over_grid(packet):
    grid = default_eta_grid(packet.a)
    for eta in grid[1:]:
        pair = density_from_projections(*eikonal_projections(eta, packet))
        closed = creation_density_closed(eta, packet)
        assert abs(pair - closed) <= 1e-10 * abs(closed)
        assert closed >= 0.0
    assert creation_density(0.0, packet) == 0.0


@pytest.mark.parametrize("eps", [0.05, 0.25, 0.5])
@pytest.mark.parametrize("alpha", [1e-3, 1.0, 2000.0])
def test_density_exact_zero_at_the_floor(alpha, eps):
    # at a = A_MIN the eta = 0 modulus |F(0)|^2 = |Gamma0|^2 a^-(2+2eps)
    # overflows (at the defaults from a ~ 1e-123); the closed density is
    # still an exact +0 there, with no numpy warning, and so is a table's
    # first row
    p = PacketParams(alpha=alpha, a=A_MIN, eps=eps, sigma_star=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = creation_density(0.0, p)
        first = build_spectrum(p, n_eta=24).density[0]
    for x in (d, first):
        assert x == 0.0 and math.copysign(1.0, x) == 1.0, x


@pytest.mark.parametrize("a", [8.0, 32.0])
def test_density_identity_at_tiny_eta(smooth_flow, a):
    # the closed modulus takes its exponent's angle as atan2(a, |eta|); the
    # asin(a / hypot(eta, a)) it replaced lost digits near pi/2 and broke
    # the identity (ToleranceError) from |eta|/a ~ 1e-8
    p = PacketParams(alpha=1.0, a=a, eps=0.25,
                     sigma_star=smooth_flow.sigma_star)
    eta = a * np.array([1e-12, 1e-8, 1e-6])
    closed = creation_density(eta, p)
    pair = density_from_projections(*eikonal_projections(eta, p))
    assert np.all(np.abs(pair - closed) <= 1e-10 * closed)


def test_density_frozen_point(smooth_flow):
    p = PacketParams(alpha=1.0, a=1.0, eps=0.5,
                     sigma_star=smooth_flow.sigma_star)
    assert gamma0_modulus_sq(1.0, 0.5) == pytest.approx(G2_ONE_HALF, rel=1e-13)
    assert creation_density(1.0, p) == pytest.approx(DENSITY_1_1_HALF_1,
                                                     rel=1e-12)


def test_density_scaling_collapse(smooth_flow):
    # a^(2 eps + 1) * density(eta' a) approaches the scaled form from below
    # with an O(1/(a eta')^2) defect
    star = smooth_flow.sigma_star
    eta_prime = 1.0
    alpha, eps = 1.0, 0.25
    limit_val = (2.0 * eta_prime * gamma0_modulus_sq(alpha, eps)
                 * math.exp(-2.0 * alpha * math.asin(1.0 / math.hypot(eta_prime, 1.0)))
                 / (eta_prime ** 2 + 1.0) ** (eps + 1.0))
    gaps = []
    for a in (16.0, 64.0, 256.0):
        p = PacketParams(alpha=alpha, a=a, eps=eps, sigma_star=star)
        val = a ** (2.0 * eps + 1.0) * creation_density(eta_prime * a, p)
        gaps.append(abs(val / limit_val - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 1e-4


# -- totals and the localisation limit ----------------------------------------

def test_total_monotone_decay(smooth_flow):
    star = smooth_flow.sigma_star
    t4 = total_number(PacketParams(1.0, 4.0, 0.25, star)).value
    t64 = total_number(PacketParams(1.0, 64.0, 0.25, star)).value
    assert t64 < t4


def test_total_against_angle_form(packet):
    # independent route: theta = asin(a/sqrt(eta^2+a^2)) turns the total
    # into a finite-interval integral with a w = sin^(2 eps) flattening
    p = packet
    g2 = gamma0_modulus_sq(p.alpha, p.eps)
    two_eps = 2.0 * p.eps

    def integrand(w):
        th = math.asin(w ** (1.0 / two_eps))
        eta = p.a * math.cos(th) / math.sin(th)
        return (g2 * p.a ** -two_eps * eta * math.exp(-2.0 * p.alpha * th)
                / (p.eps * math.hypot(eta, 1.0)))

    oracle, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14,
                               epsrel=1e-12, limit=400)
    got = total_number(p)
    assert got.value == pytest.approx(oracle, rel=1e-9)
    assert got.tail_bound > 0.0 and got.tail_value < got.tail_bound


@pytest.mark.parametrize("a", [1e-3, 8.0, 1e6])
@pytest.mark.parametrize("eps", [0.05, 0.25, 0.5])
@pytest.mark.parametrize("alpha", [0.05, 1.0, 50.0, 2000.0])
def test_angle_integral_against_eta_form(alpha, eps, a):
    # the one angle integral against the eta-space head + u = 1/eta tail
    p = PacketParams(alpha=alpha, a=a, eps=eps, sigma_star=1.0)
    got, want = total_number(p), eta_total_number(p)
    assert got.value == pytest.approx(want.value, rel=1e-10)
    assert got.tail_value == pytest.approx(want.tail_value, rel=1e-10)
    assert got.tail_bound == want.tail_bound
    assert limit_integral(alpha, eps) == pytest.approx(
        eta_limit_integral(alpha, eps), rel=1e-12)
    assert limit_integral(1.0, eps) == pytest.approx(
        eta_limit_integral(alpha, eps, alpha_in_exponent=False), rel=1e-12)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.25, 0.5])
@pytest.mark.parametrize("rate", [0.05, 0.5, 1.0, 3.0, 50.0, 2000.0])
def test_angle_integral_against_qaws(rate, eps):
    # the fixed Gauss rule against the adaptive algebraic-weight rule it
    # replaced, up to pi/2 and up to total_number's tail angle
    from sonicbh import spectrum
    for a in (1e-3, 0.5, 4.0, 64.0, 1e6, math.inf):
        tail = math.atan(1.0 / 50.0 if a == math.inf
                         else a / (50.0 * (a + 1.0)))
        for theta_max in (0.5 * math.pi, tail):
            got = spectrum._angle_integral(rate, eps, a, theta_max)
            want = quad_angle_integral(rate, eps, a, theta_max)
            assert got == pytest.approx(want, rel=1e-11), (a, theta_max)


def test_limit_integrand_finite_at_half():
    # eps = 1/2: integrand ~ eta^{-2} at infinity, J finite and positive
    j = limit_integral(1.0, 0.5)
    assert 0.0 < j < 1.0


def test_limit_frozen_values():
    for alpha, ref in LIMIT_BY_ALPHA.items():
        assert normalized_number_limit(alpha, 0.25) == pytest.approx(ref, rel=1e-10)
    assert normalized_number_limit(1.0, 0.5) == pytest.approx(LIMIT_1_HALF, rel=1e-10)


def test_limit_thermal_suppression_of_excess():
    # the limit tends to 1 from above; the excess carries the e^{-pi alpha}
    # suppression (the value itself does not decay)
    ex = {a: LIMIT_BY_ALPHA[a] - 1.0 for a in (1.0, 2.0, 4.0)}
    assert ex[1.0] > ex[2.0] > ex[4.0] > 0.0
    assert ex[2.0] / ex[1.0] < math.exp(-math.pi)
    assert ex[4.0] / ex[2.0] < math.exp(-2.0 * math.pi)


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
def test_limit_tends_to_one_at_large_alpha(eps):
    # theta = asin(1/sqrt(eta^2+1)) gives eta = cot(theta) and
    # eta (eta^2+1)^(-eps-1) deta = -cos(theta) sin(theta)^(2 eps - 1) dtheta,
    # so J = int_0^{pi/2} cos(theta) sin(theta)^(2 eps - 1) e^{-2 alpha theta}
    # dtheta.  For large alpha only theta ~ 1/alpha counts, where the
    # integrand is theta^(2 eps - 1) e^{-2 alpha theta}: J -> Gamma(2 eps) /
    # (2 alpha)^(2 eps).  Stirling, |Gamma(1+eps+i alpha)|^2 -> 2 pi
    # alpha^(1+2 eps) e^{-pi alpha}, gives |Gamma0|^2 -> 2 pi alpha^(1+2 eps).
    # The prefactor 2^(2 eps) / (2 pi alpha Gamma(2 eps)) then makes the
    # limit tend to 1.  The approach is exponential in alpha (at eps = 1/2
    # the limit is (1 + e^{-pi alpha}/(2 alpha)) / (1 + e^{-2 pi alpha})),
    # so from alpha = 10 on only rounding is left.
    for alpha in (10.0, 20.0, 50.0, 100.0):
        assert abs(normalized_number_limit(alpha, eps) - 1.0) <= 1e-12, alpha


def test_limit_prefactor_consistency():
    # limit = 2^(2 eps) |Gamma0|^2 J / (2 pi alpha Gamma(2 eps)) identically
    alpha, eps = 1.3, 0.3
    want = (2.0 ** (2.0 * eps) * gamma0_modulus_sq(alpha, eps)
            * limit_integral(alpha, eps)
            / (2.0 * math.pi * alpha * math.gamma(2.0 * eps)))
    assert normalized_number_limit(alpha, eps) == pytest.approx(want, rel=1e-14)


def test_limit_variant_ratio_at_alpha_one():
    # at alpha = 1 the exponents coincide, leaving exactly 2^{-eps}
    for eps in (0.25, 0.4):
        ratio = (normalized_number_limit_variant(1.0, eps)
                 / normalized_number_limit(1.0, eps))
        assert ratio == pytest.approx(2.0 ** -eps, rel=1e-12)


def test_limit_sweep(smooth_flow):
    p = PacketParams(alpha=1.0, a=4.0, eps=0.25,
                     sigma_star=smooth_flow.sigma_star)
    sweep = limit_sweep(p, [4.0, 8.0, 16.0, 32.0, 64.0])
    vals = [r.total_normalized for r in sweep.rows]
    # approach the limit from below, monotonically
    assert all(v < sweep.limit for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert sweep.final_relative_residual < 1e-4
    # regression oracle: measured decay exponent ~1.81 (the closed form
    # beats the 1/a bound; see the a^-2 log a analysis)
    assert sweep.slope == pytest.approx(-1.808, abs=0.05)
    # the (c log a + d)/a^2 extrapolation must beat the raw final value
    assert abs(sweep.richardson - sweep.limit) < 0.1 * sweep.rows[-1].residual


def test_limit_sweep_totals_skip_the_tail(smooth_flow, monkeypatch):
    # the sweep's totals are total_number's values bit for bit, from one
    # angle integral per a instead of two
    from sonicbh import spectrum
    p = PacketParams(alpha=1.3, a=4.0, eps=0.3,
                     sigma_star=smooth_flow.sigma_star)
    a_list = [4.0, 8.0, 16.0, 32.0, 64.0]
    want = [total_number(p.with_a(a)).value for a in a_list]
    calls = []
    angle_integral = spectrum._angle_integral

    def counting(*args, **kwargs):
        calls.append(1)
        return angle_integral(*args, **kwargs)

    monkeypatch.setattr(spectrum, "_angle_integral", counting)
    sweep = limit_sweep(p, a_list)
    assert [r.total for r in sweep.rows] == want
    assert len(calls) == len(a_list) + 2  # plus the two limits


def test_sweep_richardson_extrapolation_model(monkeypatch):
    # on synthetic v(a) = L - (c log a + d)/a^2 totals the extrapolation
    # recovers L exactly, whatever the earlier sweep points are
    from sonicbh import spectrum
    L, c, d = 2.0, 3.0, -1.5

    def synthetic_total(p):
        return L - (c * math.log(p.a) + d) / p.a ** 2

    monkeypatch.setattr(spectrum, "_total_value", synthetic_total)
    monkeypatch.setattr(spectrum, "packet_norm", lambda p: 1.0)
    p = PacketParams(alpha=1.0, a=4.0, eps=0.25, sigma_star=1.0)
    sweep = spectrum.limit_sweep(p, [1.5, 4.0, 8.0, 16.0, 32.0])
    assert sweep.richardson == pytest.approx(L, abs=1e-12)
    # fewer than three points: the last normalised total
    short = spectrum.limit_sweep(p, [8.0, 16.0])
    assert short.richardson == short.rows[-1].total_normalized
    assert short.warnings == ["sweep too short for a meaningful slope fit"]
    # three rates that coincide to rounding leave the 3x3 system singular
    # or too ill-conditioned to resolve, and a slope fit through log rates
    # that spread by no more than rounding; each is null, with a warning
    # that names it, and nothing warns from numpy.  Rates 1e-8 apart missed
    # the model's limit by 0.6%, and log rates an ulp apart gave a slope
    rich_null = ("richardson_extrapolation is null: its 3x3 system in the "
                 "last three a_sweep values is ill-conditioned, with its "
                 "condition number times the unit roundoff above 1e-11")
    slope_null = ("residual_slope is null: the a_sweep values that leave a "
                  "residual above rounding coincide in log a")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rates in ([1.0, 1.000000000001, 1.000000000002],
                      [1.0, 1.00000001, 1.00000002]):
            same = spectrum.limit_sweep(p, rates)
            assert same.richardson is None and math.isfinite(same.slope)
            assert same.warnings == [rich_null], rates
        for rates in ([1e150, 1.0000000000000002e150],
                      [4.0, 4.000000000000001]):
            flat = spectrum.limit_sweep(p, rates)
            assert math.isnan(flat.slope) and flat.warnings[-1] == slope_null
        # rates 1e-2 apart keep both (kappa u = 2.5e-12)
        close = spectrum.limit_sweep(p, [1.0, 1.01, 1.02])
    assert close.richardson == pytest.approx(L, abs=1e-11)
    assert close.warnings == [] and math.isfinite(close.slope)


def test_limit_sweep_refuses_rates_out_of_order(smooth_flow):
    # its slope, its fit over the last three rates and its final residual
    # take the rates in increasing order: [64, 8, 16] reported a "final"
    # residual for a = 16, and [] raised a raw IndexError
    p = PacketParams(alpha=1.0, a=4.0, eps=0.25,
                     sigma_star=smooth_flow.sigma_star)
    for rates in ([], [8.0, 4.0], [64.0, 8.0, 16.0], [4.0, 4.0]):
        with pytest.raises(ConfigError, match="a_sweep must be nonempty and "
                                              "strictly increasing"):
            limit_sweep(p, rates)
    with pytest.raises(ConfigError, match="a_sweep must be at most"):
        limit_sweep(p, [4.0, 1e300])


# -- spectrum table -------------------------------------------------------------

def test_build_spectrum_refuses_too_few_points(packet):
    # at 16 points Simpson missed the head integral by up to 15%
    build_spectrum(packet, n_eta=N_ETA_MIN)
    for n_eta in (N_ETA_MIN - 1, 3):
        with pytest.raises(ConfigError, match="n_eta must be at least 24"):
            build_spectrum(packet, n_eta=n_eta)


def test_build_spectrum_refuses_too_many_points(packet):
    # the run's budget of rows, which cli.cmd_spectrum splits between its
    # rates, is one table's ceiling too: 10**20 raised a raw ValueError
    # from np.geomspace
    for n_eta in (MAX_N_ETA + 1, 10 ** 20):
        with pytest.raises(ConfigError,
                           match=f"^n_eta must be at most {MAX_N_ETA}$"):
            build_spectrum(packet, n_eta=n_eta)


def test_spectrum_table_invariants(packet):
    table = build_spectrum(packet, n_eta=48)
    assert table.eta_grid[0] == 0.0
    assert table.density[0] == 0.0
    assert np.all(table.density >= 0.0)
    assert table.total > 0.0


@pytest.mark.parametrize("n_eta", [24, 96, 97, 2048])
def test_spectrum_table_c2_is_minus_c1(smooth_flow, n_eta):
    # the pair is the split (c1, -c1) of the closed pairing: c2 is bitwise
    # -c1, and both are +0j at eta = 0.  spectrum_a*.csv writes c1 alone
    # on the strength of this
    star = smooth_flow.sigma_star
    for alpha, eps, a in ((1.0, 0.25, 8.0), (0.5, 0.05, 4.0),
                          (3.0, 0.5, 64.0), (40.0, 0.1, 1e-3)):
        p = PacketParams(alpha=alpha, a=a, eps=eps, sigma_star=star)
        table = build_spectrum(p, n_eta=n_eta)
        assert table.eta_grid[0] == 0.0
        bits = table.c2[1:].view(np.uint64)
        assert np.array_equal(bits, (-table.c1[1:]).view(np.uint64))
        for c in (table.c1[0], table.c2[0]):
            assert (math.copysign(1.0, c.real), math.copysign(1.0, c.imag),
                    c) == (1.0, 1.0, 0j)


@pytest.mark.parametrize("n_eta", [96, 2048])
def test_spectrum_table_matches_scalar_density(smooth_flow, n_eta):
    # the array pass against the scalar closed form, point by point
    star = smooth_flow.sigma_star
    for alpha, eps, a in ((1.0, 0.25, 8.0), (0.5, 0.1, 4.0), (3.0, 0.5, 64.0)):
        p = PacketParams(alpha=alpha, a=a, eps=eps, sigma_star=star)
        table = build_spectrum(p, n_eta=n_eta)
        loop = np.array([creation_density_closed(e, p)
                         for e in table.eta_grid.tolist()])
        np.testing.assert_allclose(table.density, loop, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 96, 97, 1024, 2048])
def test_simpson_port_matches_scipy_bitwise(n):
    # odd and even sample counts (the even ones through Cartwright's last
    # interval, two samples through the trapezoid) on random irregular
    # grids spanning many scales
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = np.cumsum(rng.uniform(1e-3, 3.0, n)) * 10.0 ** rng.uniform(-5, 5)
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100)
        assert _simpson(y, x) == float(integrate.simpson(y, x=x))


@pytest.mark.parametrize("n_eta", [24, 96, 97, 256, 1024, 2048])
def test_spectrum_total_matches_scipy_simpson(smooth_flow, n_eta):
    # every default eta grid the commands and the benchmark build: the
    # table total is bitwise the scipy rule over the same samples.  The
    # table takes it on the grid over a power of two near max(a, 1), which
    # scales every term exactly, so the bits hold at every a here
    p = PacketParams(alpha=1.0, a=8.0, eps=0.25,
                     sigma_star=smooth_flow.sigma_star)
    for a in (A_MIN, 0.3, 1.0, 3.0, 4.0, 8.0, 16.0, 32.0, 64.0, 1e3, 1e50,
              1e100):
        table = build_spectrum(p.with_a(a), n_eta=n_eta)
        assert table.total == float(integrate.simpson(table.density,
                                                      x=table.eta_grid)), a


def test_spectrum_table_fourier_calls_independent_of_n_eta(packet, monkeypatch):
    from sonicbh import spectrum
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return packet_fourier(*args, **kwargs)

    monkeypatch.setattr(spectrum, "packet_fourier", counting)
    counts = []
    for n_eta in (96, 2048):
        calls.clear()
        build_spectrum(packet, n_eta=n_eta)
        counts.append(len(calls))
    assert counts == [1, 1]


def test_density_identity_names_failing_eta(packet, monkeypatch):
    from sonicbh import spectrum
    grid = default_eta_grid(packet.a)
    k = 17

    def perturbed(*args, **kwargs):
        m = packet_fourier_modulus_sq(*args, **kwargs)
        m[k] *= 1.0 + 1e-8
        return m

    creation_density(grid, packet)  # unperturbed: the identity holds
    monkeypatch.setattr(spectrum, "packet_fourier_modulus_sq", perturbed)
    with pytest.raises(ToleranceError, match=f"eta={grid[k]}:"):
        creation_density(grid, packet)
