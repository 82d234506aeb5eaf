"""Gamma machinery and the packet transform against independent oracles.

The closed forms are checked against (i) mpmath's arbitrary-precision
Gamma, (ii) contour-rotated quadrature of the oscillatory defining
integral, and (iii) direct adaptive quadrature of the transform integral.
The package's own log-Gamma is checked against mpmath on its strip
Re z in [1, 3/2] and refuses arguments off it, and |Gamma0|^2 is checked
against the formula on scipy's log-Gamma it replaced.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from sonicbh.errors import ConfigError
from sonicbh.gammatools import (gamma0_modulus_sq, loggamma, packet_fourier,
                                packet_fourier_modulus_sq)
from sonicbh.packets import EPS_MAX, EPS_MIN, PacketParams

from oracles import (gamma0, gamma0_quadrature, packet_fourier_quadrature,
                     scipy_gamma0_modulus_sq)


def _packet(alpha, eps, a):
    # the transforms do not read sigma_star
    return PacketParams(alpha=alpha, a=a, eps=eps, sigma_star=1.0)


def _gamma0_mp(alpha, eps):
    return complex(mp.e ** (mp.pi * alpha / 2) * mp.e ** (-1j * mp.pi * eps / 2)
                   * mp.gamma(1 + eps + 1j * alpha))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
def test_gamma0_against_mpmath(alpha, eps):
    got = gamma0(alpha, eps)
    ref = _gamma0_mp(alpha, eps)
    assert abs(got - ref) / abs(ref) < 1e-12


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.25, 0.5])
def test_loggamma_against_mpmath(eps):
    # 48 log-spaced alpha over [1e-2, 2000]; near alpha = 0 the value is
    # small (ln Gamma(1.05) = -0.027), so the bound is relative to |value|.
    # Measured at most 1.5e-15 (scipy's loggamma: 2.5e-14)
    with mp.workdps(40):
        for alpha in np.geomspace(1e-2, 2000.0, 48):
            z = complex(1.0 + eps, alpha)
            ref = complex(mp.loggamma(mp.mpc(1.0 + eps, alpha)))
            assert abs(loggamma(z) - ref) <= 1e-14 * abs(ref), (eps, alpha)


@pytest.mark.parametrize("re_z", [0.75, 1.0 - 1e-16, 1.5000000000000002,
                                  1.75, 3.0, 8.0, math.nan])
def test_loggamma_refuses_re_z_outside_its_strip(re_z):
    # loggamma serves the packet's w = 1 + eps, eps at most 1/2: outside
    # Re z in [1, 3/2] it raises instead of returning a value, and so does
    # |Gamma0|^2 for eps beyond 1/2
    with pytest.raises(ValueError, match="Re z in"):
        loggamma(complex(re_z, 1.0))
    if re_z > 1.5:
        with pytest.raises(ValueError, match="Re z in"):
            gamma0_modulus_sq(1.0, re_z - 1.0)


def test_loggamma_takes_both_ends_of_its_strip():
    # z = 1 and z = 3/2 run the two branches of the series about 2
    with mp.workdps(40):
        for z in (complex(1.0, 0.5), complex(1.5, 0.5), complex(1.0, 0.0),
                  complex(1.5, 0.0)):
            ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
            assert abs(loggamma(z) - ref) <= 1e-15 * max(abs(ref), 1.0), z


@pytest.mark.parametrize("eps", [1e-6, 0.05, 0.1, 0.25, 0.5])
def test_gamma0_modulus_sq_matches_scipy_formula(eps):
    # the same log-space formula on scipy.special.loggamma, kept as the
    # oracle; measured at most 5.7e-14 relative apart.  Beyond alpha = 50
    # both lose digits to pi*alpha cancelling against 2 Re ln Gamma (about
    # 1e-12 at 2000, each alike off mpmath; see the large-alpha test)
    for alpha in np.geomspace(1e-2, 50.0, 24):
        assert gamma0_modulus_sq(alpha, eps) == pytest.approx(
            scipy_gamma0_modulus_sq(alpha, eps), rel=1e-13, abs=0.0)


def test_gamma0_real_limit():
    # alpha -> 0+ at eps = 1/2: e^{-i pi/4} Gamma(3/2)
    g = gamma0(1e-12, 0.5)
    assert abs(g) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-10)
    assert np.angle(g) == pytest.approx(-math.pi / 4, abs=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_gamma0_sinh_identity_small_eps(alpha):
    # |Gamma0(i alpha + 1)|^2 = 2 pi alpha / (1 - e^{-2 pi alpha}) as eps -> 0
    got = gamma0_modulus_sq(alpha, 1e-6)
    ref = 2.0 * math.pi * alpha / (1.0 - math.exp(-2.0 * math.pi * alpha))
    assert abs(got / ref - 1.0) < 1e-4


@pytest.mark.parametrize("alpha", [0.3, 1.0, 7.5, 50.0])
@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
def test_gamma0_modulus_sq_matches_direct_product(alpha, eps):
    direct = abs(gamma0(alpha, eps)) ** 2
    assert gamma0_modulus_sq(alpha, eps) == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("alpha", [500.0, 2000.0])
def test_gamma0_modulus_sq_large_alpha(alpha):
    # the direct product overflows here; pi*alpha cancels against
    # ln|Gamma|^2 in the log form, so about 1e-12 relative is what is left
    got = gamma0_modulus_sq(alpha, 0.25)
    with mp.workdps(40):
        ref = float(abs(mp.e ** (mp.pi * alpha / 2)
                        * mp.gamma(1 + mp.mpf("0.25") + 1j * alpha)) ** 2)
    assert math.isfinite(got)
    assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("alpha,eps", [(1.0, 0.5), (0.5, 0.1), (2.0, 0.25)])
def test_gamma0_contour_quadrature(alpha, eps):
    c = gamma0(alpha, eps)
    q = gamma0_quadrature(alpha, eps)
    assert abs(c - q) / abs(c) < 1e-8
    # a different rotation angle must give the same number
    q2 = gamma0_quadrature(alpha, eps, theta=np.pi / 3)
    assert abs(c - q2) / abs(c) < 1e-8


def test_packet_params_validation():
    # alpha, a and sigma_star finite and positive, eps in [EPS_MIN, 1/2]:
    # the packet's bounds are the config's, exit 2 from the CLI
    good = dict(alpha=1.0, a=8.0, eps=0.25, sigma_star=1.0)
    for eps in (EPS_MIN, EPS_MAX):
        PacketParams(**dict(good, eps=eps))
    bad = [{"alpha": -1.0}, {"eps": 0.0}, {"eps": 0.7}, {"eps": math.nan},
           {"eps": math.nextafter(EPS_MIN, 0.0)},
           {"eps": math.nextafter(EPS_MAX, 1.0)},
           {"a": 0.0}, {"sigma_star": -1.0}]
    bad += [{key: v} for key in ("alpha", "a", "sigma_star")
            for v in (math.inf, math.nan)]
    for change in bad:
        with pytest.raises(ConfigError):
            PacketParams(**dict(good, **change))


def test_modulus_monotonicity():
    # the bare Gamma modulus decays with alpha; the e^{pi alpha/2} prefactor
    # makes |Gamma0| itself grow
    alphas = np.linspace(0.1, 5.0, 40)
    g0 = np.array([abs(gamma0(a, 0.25)) for a in alphas])
    bare = g0 * np.exp(-np.pi * alphas / 2.0)
    assert np.all(np.diff(bare) < 0.0)
    assert np.all(np.diff(g0) > 0.0)


def test_packet_fourier_real_laplace_limit():
    # eta = 0, alpha -> 0+, eps = 1/2, a = 1: integral of sqrt(s) e^{-s}
    val = packet_fourier(0.0, _packet(1e-12, 0.5, 1.0))
    assert abs(val) == pytest.approx(math.gamma(1.5), rel=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
def test_packet_fourier_vs_quadrature(alpha, eps):
    p = _packet(alpha, eps, 1.0)
    for eta in (-0.03, -1.0, -12.0, -50.0):
        c = packet_fourier(eta, p)
        q = packet_fourier_quadrature(eta, alpha, eps, 1.0)
        assert abs(c - q) / abs(c) < 1e-8, (alpha, eps, eta)


def test_packet_fourier_modulus_identity():
    p = _packet(1.3, 0.25, 2.0)
    # eta = 0 closes the branch: |F(0)|^2 = |Gamma(w)|^2 / a^(2 + 2 eps)
    eta = np.array([0.0, -0.4, -3.0, -40.0])
    m = packet_fourier_modulus_sq(eta, p)
    direct = np.abs(packet_fourier(eta, p)) ** 2
    np.testing.assert_allclose(direct, m, rtol=1e-12)
    with pytest.raises(ValueError):
        packet_fourier_modulus_sq(1e-300, p)


def test_packet_fourier_conjugation():
    # conjugating the defining integral flips both the phase strength and
    # the transform argument: F(eta; -alpha) = conj(F(-eta; +alpha))
    alpha, eps, a = 1.0, 0.25, 1.0
    for eta in (-0.7, -4.0):
        q_neg = packet_fourier_quadrature(eta, -alpha, eps, a)
        c_pos = packet_fourier(-eta, _packet(alpha, eps, a))
        assert abs(q_neg - np.conj(c_pos)) / abs(c_pos) < 1e-8


def test_packet_fourier_scaling_in_a():
    # |F(eta' a; a)|^2 a^(2 eps + 2) depends on a only through the asin
    # factor, which is a-free at fixed eta' -- so not at all
    alpha, eps, eta_prime = 1.0, 0.25, -1.5
    vals = []
    for a in (2.0, 16.0, 128.0):
        vals.append(abs(packet_fourier(eta_prime * a, _packet(alpha, eps, a)))
                    ** 2 * a ** (2 * eps + 2.0))
    ref = (gamma0_modulus_sq(alpha, eps)
           * math.exp(-2.0 * alpha * math.asin(1.0 / math.hypot(eta_prime, 1.0)))
           / math.hypot(eta_prime, 1.0) ** (2.0 * eps + 2.0))
    np.testing.assert_allclose(vals, ref, rtol=1e-12)
