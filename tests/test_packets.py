"""Wave packet, mode data, eikonal, and the packet norm.

The norm's closed value 4 pi alpha Gamma(2 eps) / (2a)^(2 eps) is exact at
x0 = 0 (the drift term of D C0 is real against C0 and drops out of the
bracket Im(C0* D C0)), so the full-bracket quadrature must reproduce it at
quadrature accuracy for every a.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from sonicbh import packets, spectrum
from sonicbh.errors import ConfigError, GridMismatchError, ToleranceError
from sonicbh.packets import (FieldOnGrid, PacketParams, eval_packet_profile,
                             mode_initial_data, packet_norm)
from sonicbh.flow import integrate_characteristic

from oracles import (eikonal_fields, mp_angle_integral, packet_fields,
                     quad_packet_norm)


def eval_packet(rho, x0, p, flow):
    return complex(packet_fields([rho], x0, p, flow).value[0])


def eval_eikonal(rho, x0, eta, flow):
    return complex(eikonal_fields([rho], x0, eta, flow).value[0])


@pytest.fixture(scope="module")
def packet(smooth_flow):
    return PacketParams(alpha=1.0, a=8.0, eps=0.25,
                        sigma_star=smooth_flow.sigma_star)


def test_profile_zero_at_and_below_edge(packet):
    star = packet.sigma_star
    assert eval_packet_profile(star, packet) == 0.0
    assert eval_packet_profile(star - 0.3, packet) == 0.0


def test_profile_value_one_decay_length(packet):
    v = eval_packet_profile(packet.sigma_star + 1.0 / packet.a, packet)
    assert abs(v) == pytest.approx(packet.a ** -packet.eps * math.exp(-1.0),
                                   rel=1e-12)


def test_profile_argmax(packet):
    s = np.linspace(1e-6, 1.0, 200001)
    mod = np.abs(eval_packet_profile(packet.sigma_star + s, packet))
    assert s[np.argmax(mod)] == pytest.approx(packet.eps / packet.a, rel=1e-3)


def test_profile_continuous_at_edge(packet):
    s = 10.0 ** -np.arange(4, 14, dtype=float)
    mods = np.abs(eval_packet_profile(packet.sigma_star + s, packet))
    assert np.all(np.diff(mods) < 0.0) and mods[-1] < 1e-3


def test_profile_phase_winding(packet):
    # unwrapped phase along the support is alpha * ln(s) up to a constant
    s = np.geomspace(1e-4, 2.0, 400)
    ph = np.unwrap(np.angle(eval_packet_profile(packet.sigma_star + s, packet)))
    ref = packet.alpha * np.log(s)
    np.testing.assert_allclose(ph - ph[0], ref - ref[0], atol=1e-9)


def test_packet_at_time_zero(packet, smooth_flow):
    rho = 1.7
    got = eval_packet(rho, 0.0, packet, smooth_flow)
    want = eval_packet_profile(rho, packet) / math.sqrt(rho)
    assert got == pytest.approx(want, rel=1e-12)


def test_packet_support_outside_horizon(packet, smooth_flow):
    # points inside the horizon carry sigma < sigma_star at any x0
    hz = smooth_flow.horizon
    for x0 in (0.0, 0.8, 1.5):
        rho_in = 0.9 * np.interp(x0, hz.x0, hz.rho_star)
        assert eval_packet(rho_in, x0, packet, smooth_flow) == 0.0


def test_packet_mass_concentrates_near_edge(packet):
    # the tail beyond s0 = 10 (eps+1)/a carries a gammaincc(2 eps, 2 a s0)
    # fraction of the squared norm, far below e^{-10}
    s0 = 10.0 * (packet.eps + 1.0) / packet.a
    frac = special.gammaincc(2.0 * packet.eps, 2.0 * packet.a * s0)
    assert frac < math.exp(-10.0)
    # and the numerical mass agrees with the oracle
    s = np.geomspace(1e-10, 60.0 / packet.a, 4000)
    w = np.abs(eval_packet_profile(packet.sigma_star + s, packet)) ** 2 / s
    total = np.trapezoid(w, s)
    tail = np.trapezoid(np.where(s > s0, w, 0.0), s)
    assert tail / total == pytest.approx(frac, rel=1e-2)


def _time_derivative(eta, val, dval, rho=1.0, a0=-1.0):
    """d/dx0 of plane-wave data from their D value: D minus (A/rho) times
    the radial derivative (i eta - 1/(2 rho)) val."""
    return dval - a0 / rho * (1j * eta - 0.5 / rho) * val


def test_mode_data_eta_zero():
    val, dval = mode_initial_data(0.0, 1.0, -1.0)
    assert val == pytest.approx(1.0 / math.sqrt(2.0))
    # lambda_- = -1 at eta = 0
    assert _time_derivative(0.0, val, dval) == pytest.approx(-1j * val)
    # the lambda_+ data at eta are the conjugate of these at -eta
    val_p, dval_p = np.conj(mode_initial_data(-0.0, 1.0, -1.0))
    assert val_p == pytest.approx(val)
    assert _time_derivative(0.0, val_p, dval_p) == pytest.approx(1j * val)


def test_mode_data_lambda_values():
    # eta = 1, rho = 1, A(0) = -1: lambda_pm = 1 +- sqrt(2)
    val, dval = mode_initial_data(1.0, 1.0, -1.0)
    lam_minus = _time_derivative(1.0, val, dval) / (1j * val)
    assert lam_minus.real == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-12)
    val, dval = np.conj(mode_initial_data(-1.0, 1.0, -1.0))
    lam_plus = _time_derivative(1.0, val, dval) / (1j * val)
    assert lam_plus.real == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)


def test_eikonal_at_time_zero(smooth_flow):
    eta, rho = -3.0, 1.4
    got = eval_eikonal(rho, 0.0, eta, smooth_flow)
    gt = 2.0 ** -0.5 * (eta * eta + 1.0) ** -0.25
    assert got == pytest.approx(gt / math.sqrt(rho) * np.exp(-1j * eta * rho),
                                rel=1e-12)
    with pytest.raises(ValueError):
        eval_eikonal(rho, 0.0, 3.0, smooth_flow)


def test_eikonal_time_derivative_fd(smooth_flow, smooth_profile):
    # dE/dx0 = E * i eta (A/rho + 1) dsigma/drho, checked at x0 = 0 by a
    # centered finite difference
    eta, rho, h = -3.0, 1.6, 1e-5
    e_plus = eval_eikonal(rho, h, eta, smooth_flow)
    e_minus = eval_eikonal(rho, -h, eta, smooth_flow)
    fd = (e_plus - e_minus) / (2.0 * h)
    e0 = eval_eikonal(rho, 0.0, eta, smooth_flow)
    want = e0 * 1j * eta * (smooth_profile.eval(0.0) / rho + 1.0)
    assert abs(fd - want) / abs(want) < 1e-7


def test_eikonal_constant_along_rays(smooth_flow, smooth_profile):
    # E sqrt(rho) (eta^2+1)^(1/4) depends only on the ray label, at every
    # accepted step of the ray and at its end
    eta, sigma0 = -2.0, 1.9
    path = integrate_characteristic(sigma0, 0.0, 2.0, smooth_profile)
    assert len(path.x0) > 3 and path.x0[-1] == 2.0
    vals = [eval_eikonal(r, t, eta, smooth_flow) * math.sqrt(r)
            * (eta * eta + 1.0) ** 0.25
            for t, r in zip(path.x0, path.rho)]
    np.testing.assert_allclose(vals, vals[0], rtol=1e-8)


def test_norm_closed_values(smooth_flow):
    star = smooth_flow.sigma_star
    p = PacketParams(alpha=1.0, a=1.0, eps=0.5, sigma_star=star)
    assert packet_norm(p) == pytest.approx(2.0 * math.pi, rel=1e-14)
    p10 = PacketParams(alpha=1.0, a=10.0, eps=0.5, sigma_star=star)
    assert packet_norm(p10) == pytest.approx(0.2 * math.pi, rel=1e-14)


def test_norm_numeric_matches_closed(smooth_flow):
    p = PacketParams(alpha=2.0, a=5.0, eps=0.25,
                     sigma_star=smooth_flow.sigma_star)
    numeric = packet_norm(p, smooth_flow, numeric=True)
    assert abs(numeric / packet_norm(p) - 1.0) < 1e-6


def test_norm_numeric_non_finite_raises(smooth_flow):
    # at alpha = 1e305 the packet's D value overflows at the rule's
    # smallest nodes (from 2.5e-4 at a = 8); the numeric norm refuses the
    # sum instead of returning it, and numpy warns of nothing
    p = PacketParams(alpha=1e305, a=8.0, eps=0.25,
                     sigma_star=smooth_flow.sigma_star)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceError, match="numeric packet norm is nan"):
            packet_norm(p, smooth_flow, numeric=True)


def test_norm_numeric_needs_the_flow(packet):
    with pytest.raises(ValueError,
                       match=r"^numeric norm needs the flow \(for A\(0\)\)$"):
        packet_norm(packet, numeric=True)


def test_packet_rate_range():
    # the packet owns its rates [A_MIN, A_MAX]: below A_MIN the numeric
    # norm's squared support (45/a)^2 overflows, above A_MAX limit's a^-2
    # term is subnormal, and beyond it the rule's first node underflowed
    # (a = 1e300 raised a RuntimeWarning in limit_sweep)
    assert packets.A_MAX == 2.0 ** 511
    for a in (packets.A_MIN, 8.0, packets.A_MAX):
        PacketParams(alpha=1.0, a=a, eps=0.25, sigma_star=1.0)
    for a, bound in ((math.nextafter(packets.A_MIN, 0.0), "at least"),
                     (0.0, "at least"), (-1.0, "at least"),
                     (math.nan, "at least"),
                     (math.nextafter(packets.A_MAX, math.inf), "at most"),
                     (1e300, "at most"), (math.inf, "at most")):
        with pytest.raises(ConfigError, match=f"a_sweep must be {bound}"):
            PacketParams(alpha=1.0, a=a, eps=0.25, sigma_star=1.0)


NORM_GRID = [(alpha, eps, a) for alpha in (0.05, 1.0, 3.0, 50.0, 2000.0)
             for eps in (0.05, 0.1, 0.25, 0.5)
             for a in (1e-3, 1.0, 8.0, 64.0, 1e6)]


def test_norm_numeric_fixed_rule_grid(smooth_flow, monkeypatch):
    # the fixed Gauss rule against the closed norm over (alpha, eps, a),
    # on one array pass of the same 84 nodes (a Gauss-Jacobi edge panel and
    # six Gauss-Legendre panels, twelve nodes each) every time,
    # and against the adaptive oracle to that oracle's tolerance
    from sonicbh import packets, spectrum
    sizes = []
    values = packets.packet_values

    def counting(s, *args):
        sizes.append(np.size(s))
        return values(s, *args)

    monkeypatch.setattr(packets, "packet_values", counting)
    star = smooth_flow.sigma_star
    for alpha, eps, a in NORM_GRID:
        p = PacketParams(alpha=alpha, a=a, eps=eps, sigma_star=star)
        numeric = packet_norm(p, smooth_flow, numeric=True)
        assert abs(numeric / packet_norm(p) - 1.0) <= 1e-13, (alpha, eps, a)
        assert numeric == pytest.approx(quad_packet_norm(p, smooth_flow),
                                        rel=1e-10)
    assert sizes == [84] * len(NORM_GRID)


@pytest.mark.parametrize("eps", [1e-6, packets.EPS_MIN, 3e-6, 1e-5, 0.001,
                                 0.002, 0.003, 0.0034, 0.0035, 0.004, 0.005,
                                 0.0098, 0.01, 0.02, 0.03, 0.04, 0.049, 0.05,
                                 0.25, 0.49, 0.5])
def test_norm_numeric_below_config_eps(smooth_flow, eps):
    # from packets.EPS_MIN = 2.8e-6 up the numeric norm is within 1e-13 +
    # u/(4 eps) of the closed one with no warning, at every rate from A_MIN
    # to A_MAX; below it PacketParams refuses the eps.  u/(4 eps) is the
    # floor of holding the edge exponent 2 eps - 1 to u/2 (8.3e-12 of the
    # bound's 9.3e-12 at eps = 3e-6).  The rows at a >= 1e150 and eps near
    # 1/2 are where a rule in u = s^(2 eps) lost up to 6.7e-8 to its
    # Jacobian s / (2 eps u) underflowing
    star = smooth_flow.sigma_star
    for alpha in (1e-3, 0.05, 1.0, 40.0, 50.0, 2000.0):
        for a in (packets.A_MIN, 1e-3, 1.0, 8.0, 1e6, 1e150, packets.A_MAX):
            if eps < packets.EPS_MIN:
                with pytest.raises(ConfigError, match="eps must lie in"):
                    PacketParams(alpha=alpha, a=a, eps=eps, sigma_star=star)
                continue
            p = PacketParams(alpha=alpha, a=a, eps=eps, sigma_star=star)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                numeric = packet_norm(p, smooth_flow, numeric=True)
            bound = 1e-13 + 2.0 ** -53 / (4.0 * eps)
            assert abs(numeric / packet_norm(p) - 1.0) <= bound, (alpha, a)


def test_eps_floor_keeps_the_first_node_normal(smooth_flow):
    # the numeric norm's first node is normal at every rate and eps, so the
    # floor comes from the rule it shares with the angle integrals: they hold
    # the exponent 2 eps - 1 to u/2, a relative u/(4 eps) of their edge
    # mass 1/(2 eps), which is 1e-11 at packets.EPS_MIN.  Against mpmath
    # with eps exact the rule is off by at most that (measured 2.68e-11 of
    # 2.78e-11 at eps = 1e-6), within 1e-11 from the floor up
    for eps in (packets.EPS_MIN, 1e-5, 1e-3, 1e-6):
        for rate in (0.05, 1.0, 50.0):
            want = mp_angle_integral(rate, eps, 4.0)
            err = abs(spectrum._angle_integral(rate, eps, 4.0) / want - 1.0)
            assert err <= 2.0 ** -53 / (4.0 * eps) + 1e-15, (eps, rate)
            assert (err <= 1e-11) == (eps >= packets.EPS_MIN), (eps, rate)
    s, _ = packets.jacobi_panels(2.0 * packets.EPS_MIN - 1.0,
                                 packets._NORM_EDGES / packets.A_MAX)
    assert s[0] >= np.finfo(float).tiny  # 5.8e-162
    # at the floor and a = A_MAX, |w|/s overflowed in P' from alpha = 4 and
    # the sum was refused as nan, while the first node was 2^-30/a t^(1/(2
    # eps)); from the Gauss-Jacobi node t_0/a it holds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1e-3, 4.0, 40.0, 2000.0):
            p = PacketParams(alpha=alpha, a=packets.A_MAX, eps=packets.EPS_MIN,
                             sigma_star=smooth_flow.sigma_star)
            numeric = packet_norm(p, smooth_flow, numeric=True)
            assert abs(numeric / packet_norm(p) - 1.0) <= 1e-12, alpha


def test_norm_scaling_in_a(smooth_flow):
    star = smooth_flow.sigma_star
    vals = []
    for a in (2.0, 16.0):
        p = PacketParams(alpha=1.5, a=a, eps=0.25, sigma_star=star)
        vals.append(packet_norm(p) * (2.0 * a) ** (2.0 * p.eps))
        numeric = packet_norm(p, smooth_flow, numeric=True)
        assert abs(numeric / packet_norm(p) - 1.0) < 1e-8
    assert vals[0] == pytest.approx(vals[1], rel=1e-14)


def test_packet_fields_consistency(packet, smooth_flow):
    # transported fields at x0 > 0 agree with finite differences of the
    # scalar evaluator: D is the derivative along (1, A(x0)/rho), which a
    # centred difference along that direction takes to O(h^2)
    rho = np.array([1.2, 1.8, 2.6])
    x0, h = 0.9, 1e-5
    f = packet_fields(rho, x0, packet, smooth_flow)
    v = smooth_flow.profile.eval(x0) / rho
    for i, r in enumerate(rho):
        fd = (eval_packet(float(r + h * v[i]), x0 + h, packet, smooth_flow)
              - eval_packet(float(r - h * v[i]), x0 - h, packet,
                            smooth_flow)) / (2 * h)
        assert abs(f.d_flow[i] - fd) / abs(fd) < 1e-6
        assert f.value[i] == pytest.approx(
            eval_packet(float(r), x0, packet, smooth_flow), rel=1e-10)


def test_field_on_grid_shape_mismatch():
    rho = np.linspace(1.0, 2.0, 5)
    with pytest.raises(GridMismatchError):
        FieldOnGrid(rho=rho, value=np.zeros(5, complex),
                    d_flow=np.zeros(4, complex), x0=0.0)


def test_support_boundary_tightens_with_a(smooth_flow):
    # mean distance of the squared-norm mass from the horizon is eps/a
    star = smooth_flow.sigma_star
    for a in (4.0, 8.0, 16.0):
        p = PacketParams(alpha=1.0, a=a, eps=0.25, sigma_star=star)
        s = np.geomspace(1e-10, 60.0 / a, 4000)
        w = np.abs(eval_packet_profile(star + s, p)) ** 2 / s
        mean_s = np.trapezoid(w * s, s) / np.trapezoid(w, s)
        assert mean_s == pytest.approx(p.eps / a, rel=1e-3)
