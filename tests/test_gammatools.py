"""Gamma machinery and the packet transform against independent oracles.

The closed forms are checked against (i) mpmath's arbitrary-precision
Gamma, (ii) contour-rotated quadrature of the oscillatory defining
integral, and (iii) direct adaptive quadrature of the transform integral.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from sonicbh.gammatools import (GammaParams, gamma0_modulus_sq,
                                packet_fourier, packet_fourier_modulus_sq)

from oracles import gamma0, gamma0_quadrature, packet_fourier_quadrature


def _gamma0_mp(alpha, eps):
    return complex(mp.e ** (mp.pi * alpha / 2) * mp.e ** (-1j * mp.pi * eps / 2)
                   * mp.gamma(1 + eps + 1j * alpha))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
def test_gamma0_against_mpmath(alpha, eps):
    got = gamma0(alpha, eps)
    ref = _gamma0_mp(alpha, eps)
    assert abs(got - ref) / abs(ref) < 1e-12


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


def test_gamma_params_validation():
    with pytest.raises(ValueError):
        GammaParams(alpha=-1.0, eps=0.25)
    with pytest.raises(ValueError):
        GammaParams(alpha=1.0, eps=0.0)
    with pytest.raises(ValueError):
        GammaParams(alpha=1.0, eps=0.7)


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
    p = GammaParams(alpha=1e-12, eps=0.5)
    val = packet_fourier(0.0, p, 1.0)
    assert abs(val) == pytest.approx(math.gamma(1.5), rel=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
def test_packet_fourier_vs_quadrature(alpha, eps):
    p = GammaParams(alpha=alpha, eps=eps)
    for eta in (-0.03, -1.0, -12.0, -50.0):
        c = packet_fourier(eta, p, 1.0)
        q = packet_fourier_quadrature(eta, alpha, eps, 1.0)
        assert abs(c - q) / abs(c) < 1e-8, (alpha, eps, eta)


def test_packet_fourier_modulus_identity():
    p = GammaParams(alpha=1.3, eps=0.25)
    # eta = 0 closes the branch: |F(0)|^2 = |Gamma(w)|^2 / a^(2 + 2 eps)
    eta = np.array([0.0, -0.4, -3.0, -40.0])
    m = packet_fourier_modulus_sq(eta, p, 2.0)
    direct = np.abs(packet_fourier(eta, p, 2.0)) ** 2
    np.testing.assert_allclose(direct, m, rtol=1e-12)
    with pytest.raises(ValueError):
        packet_fourier_modulus_sq(1e-300, p, 2.0)


def test_packet_fourier_conjugation():
    # conjugating the defining integral flips both the phase strength and
    # the transform argument: F(eta; -alpha) = conj(F(-eta; +alpha))
    alpha, eps, a = 1.0, 0.25, 1.0
    for eta in (-0.7, -4.0):
        q_neg = packet_fourier_quadrature(eta, -alpha, eps, a)
        c_pos = packet_fourier(-eta, GammaParams(alpha, eps), a)
        assert abs(q_neg - np.conj(c_pos)) / abs(c_pos) < 1e-8


def test_packet_fourier_scaling_in_a():
    # |F(eta' a; a)|^2 a^(2 eps + 2) depends on a only through the asin
    # factor, which is a-free at fixed eta' -- so not at all
    p = GammaParams(alpha=1.0, eps=0.25)
    eta_prime = -1.5
    vals = []
    for a in (2.0, 16.0, 128.0):
        vals.append(abs(packet_fourier(eta_prime * a, p, a)) ** 2
                    * a ** (2 * p.eps + 2.0))
    ref = (gamma0_modulus_sq(p.alpha, p.eps)
           * math.exp(-2.0 * p.alpha * math.asin(1.0 / math.hypot(eta_prime, 1.0)))
           / math.hypot(eta_prime, 1.0) ** (2.0 * p.eps + 2.0))
    np.testing.assert_allclose(vals, ref, rtol=1e-12)
