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

from sonicbh.errors import GridMismatchError, ToleranceError
from sonicbh.packets import (FieldOnGrid, PacketParams, eval_packet_profile,
                             mode_initial_data, packet_norm)
from sonicbh.flow import integrate_characteristic

from oracles import eikonal_fields, packet_fields, quad_packet_norm


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
    # E sqrt(rho) (eta^2+1)^(1/4) depends only on the ray label
    eta, sigma0 = -2.0, 1.9
    path = integrate_characteristic(sigma0, 0.0, 2.0, smooth_profile,
                                    t_eval=np.linspace(0.0, 2.0, 5))
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
    # at eps = 0.002 the bracket overflows to nan near the edge; the numeric
    # norm refuses it instead of returning it
    p = PacketParams(alpha=1.0, a=8.0, eps=0.002,
                     sigma_star=smooth_flow.sigma_star)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ToleranceError, match="numeric packet norm is nan"):
            packet_norm(p, smooth_flow, numeric=True)


NORM_GRID = [(alpha, eps, a) for alpha in (0.05, 1.0, 3.0, 50.0, 2000.0)
             for eps in (0.05, 0.1, 0.25, 0.5)
             for a in (1e-3, 1.0, 8.0, 64.0, 1e6)]


def test_norm_numeric_fixed_rule_grid(smooth_flow, monkeypatch):
    # the fixed Gauss rule against the closed norm over (alpha, eps, a),
    # on one array pass of the same 444 nodes (37 panels of 12) every time,
    # and against the adaptive oracle to that oracle's tolerance
    from sonicbh import packets
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
    assert sizes == [444] * len(NORM_GRID)


@pytest.mark.parametrize("eps", [0.002, 0.003, 0.0034, 0.0035, 0.004, 0.005,
                                 0.01, 0.02, 0.03, 0.04, 0.049])
def test_norm_numeric_below_config_eps(smooth_flow, eps):
    # below RunConfig's eps floor of 0.05, which PacketParams still takes,
    # the numeric norm is right to 1e-10 or raises; never a wrong value.
    # It raises only where its first nodes' s underflows, below ~0.0035
    star = smooth_flow.sigma_star
    raised = []
    for alpha in (0.05, 1.0, 50.0, 2000.0):
        for a in (1e-3, 8.0, 1e6):
            p = PacketParams(alpha=alpha, a=a, eps=eps, sigma_star=star)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    numeric = packet_norm(p, smooth_flow, numeric=True)
                except ToleranceError:
                    raised.append((alpha, a))
                    continue
            assert abs(numeric / packet_norm(p) - 1.0) <= 1e-10, (alpha, a)
    assert eps < 0.004 or not raised, raised


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
