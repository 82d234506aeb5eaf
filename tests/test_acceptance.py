"""Acceptance criteria, one test per criterion, with stated tolerances.

Each test prints a single `AC<n> ...: PASS/FAIL` line (run with -s or -v
to see them) and enforces the stated runtime budget.

AC5d checks the rate at which the a-sweep converges.  After eta = a*eta'
the normalised total is K int eta'^2 / sqrt(eta'^2 + a^-2) g(eta') deta',
with limit K int eta' g(eta') deta', so the two differ only near
eta' ~ 1/a, where g(0) = e^{-pi alpha}.  That gives the derived rate

    |residual| = (c log a + d) / a^2 + O(a^-3),   c = K e^{-pi alpha} / 2,

with d an integral of g computed here by adaptive quadrature.  A 1/a
rate is only an upper bound: the clause keeps exponent >= 0.8 as that
bound, and requires the measured exponent to lie within 0.1 of the
model's on the same a-grid and the residual to match the model within
2% at a = 32 and 1% at a = 64.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, special

from sonicbh.cli import main
from sonicbh.config import RunConfig
from sonicbh.flow import VelocityProfile, find_separatrix
from sonicbh.gammatools import gamma0_modulus_sq, packet_fourier
from sonicbh.packets import PacketParams, packet_norm
from sonicbh.pde import (A_VALUES, EVOLVE_ETA, RadialGrid, inner_edge,
                         evolved_projection_densities, remainder_contribution,
                         solve_mode)
from sonicbh.spectrum import (default_eta_grid, density_from_projections,
                              eikonal_projections, limit_sweep,
                              normalized_number_limit_variant)

from oracles import (creation_density_closed, dalembert_error,
                     packet_fourier_quadrature)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_ac1_horizon_geometry():
    t0 = time.perf_counter()
    profile = VelocityProfile(a_minus=-1.2, a_plus=-0.8, tau=1.0)
    flow = find_separatrix(profile, x0_horizon_max=10.0)
    elapsed = time.perf_counter() - t0
    gap_minus = abs(flow.horizon.rho_star[0] - 1.2)
    gap_plus = abs(flow.horizon.rho_star[-1] - 0.8)
    ok = gap_minus < 1e-3 and gap_plus < 1e-3 and elapsed < 1.0
    _report("AC1 horizon geometry",
            ok, f"{elapsed:.2f}s, gaps {gap_minus:.2e}/{gap_plus:.2e}")
    assert gap_minus < 1e-3 and gap_plus < 1e-3
    assert elapsed < 1.0


def test_ac2_packet_norm(smooth_flow):
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for eps in (0.1, 0.25, 0.5):
            p = PacketParams(alpha=alpha, a=8.0, eps=eps,
                             sigma_star=smooth_flow.sigma_star)
            rel = abs(packet_norm(p, smooth_flow, numeric=True)
                      / packet_norm(p) - 1.0)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    _report("AC2 packet norm (9 combos)", ok,
            f"{elapsed:.2f}s, worst rel {worst:.2e}")
    assert worst < 1e-6
    assert elapsed < 1.0


def test_ac3_fourier_closed_form():
    t0 = time.perf_counter()
    p = PacketParams(alpha=1.0, a=1.0, eps=0.25, sigma_star=1.0)
    etas = -np.geomspace(0.01, 50.0, 50)
    worst = 0.0
    for eta in etas:
        c = packet_fourier(float(eta), p)
        q = packet_fourier_quadrature(float(eta), p.alpha, p.eps, 1.0)
        worst = max(worst, abs(c - q) / abs(c))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    _report("AC3 Fourier closed form (50 samples)", ok,
            f"{elapsed:.2f}s, worst rel {worst:.2e}")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_ac4_density_identity(smooth_flow):
    worst = 0.0
    for a in (8.0, 64.0):
        p = PacketParams(alpha=1.0, a=a, eps=0.25,
                         sigma_star=smooth_flow.sigma_star)
        for eta in default_eta_grid(a)[1:]:
            pair = density_from_projections(*eikonal_projections(eta, p))
            closed = creation_density_closed(eta, p)
            worst = max(worst, abs(pair - closed) / abs(closed))
    ok = worst < 1e-10
    _report("AC4 density identity", ok, f"worst rel {worst:.2e}")
    assert worst < 1e-10


def test_ac5_asymptotic_limit(smooth_flow):
    t0 = time.perf_counter()
    p = PacketParams(alpha=1.0, a=4.0, eps=0.25,
                     sigma_star=smooth_flow.sigma_star)
    sweep = limit_sweep(p, [4.0, 8.0, 16.0, 32.0, 64.0])
    elapsed = time.perf_counter() - t0
    exponent = -sweep.slope
    final = sweep.final_relative_residual
    variant = normalized_number_limit_variant(p.alpha, p.eps)
    ratio = variant / sweep.limit

    _report("AC5a final residual < 2% at a=64", final < 0.02,
            f"residual {final:.2e}")
    _report("AC5b runtime < 10 s", elapsed < 10.0, f"{elapsed:.2f}s")
    _report("AC5c limit-variant documented", True,
            f"limit {sweep.limit:.9f}, variant {variant:.9f}, "
            f"ratio {ratio:.9f} = 2^-eps {2.0 ** -p.eps:.9f}")
    a_grid = np.array([r.a for r in sweep.rows])
    residual = np.array([r.residual for r in sweep.rows])
    model = _ac5_residual_model(p.alpha, p.eps, a_grid)
    model_exponent = -np.polyfit(np.log(a_grid), np.log(model), 1)[0]
    ratio_32, ratio_64 = (residual / model)[a_grid >= 32.0]
    rate_ok = (exponent >= 0.8 and abs(exponent - model_exponent) <= 0.1
               and abs(ratio_32 - 1.0) < 0.02 and abs(ratio_64 - 1.0) < 0.01)
    _report("AC5d convergence at the derived (c log a + d)/a^2 rate", rate_ok,
            f"exponent {exponent:.3f} (>= 0.8; model {model_exponent:.3f}), "
            f"residual/model {ratio_32:.4f} at a=32, {ratio_64:.4f} at a=64")
    assert final < 0.02
    assert elapsed < 10.0
    assert ratio == pytest.approx(2.0 ** -p.eps, rel=1e-10)
    assert exponent >= 0.8, (
        f"convergence exponent {exponent:.3f} below the 1/a bound")
    assert abs(exponent - model_exponent) <= 0.1, (
        f"convergence exponent {exponent:.3f} is not within 0.1 of the "
        f"derived rate's {model_exponent:.3f}")
    assert abs(ratio_32 - 1.0) < 0.02, (
        f"residual at a=32 is {ratio_32:.4f} x (c log a + d)/a^2")
    assert abs(ratio_64 - 1.0) < 0.01, (
        f"residual at a=64 is {ratio_64:.4f} x (c log a + d)/a^2")


def _ac5_residual_model(alpha, eps, a):
    """(c log a + d) / a^2, the leading terms of the limit residual.

    K = 2^(2 eps) |Gamma0|^2 / (2 pi alpha Gamma(2 eps)) and
    g(eta) = (eta^2+1)^(-eps-1) e^{-2 alpha asin(1/sqrt(eta^2+1))}; then
    c = K g(0) / 2 and
    d = K [g(0) (log 2 / 2 - 1/4) + 1/2 int_0^1 (g - g(0)) / eta deta
           + 1/2 int_1^inf g / eta deta].
    """
    k = (2.0 ** (2.0 * eps) * gamma0_modulus_sq(alpha, eps)
         / (2.0 * math.pi * alpha * special.gamma(2.0 * eps)))

    def g(eta):
        q = eta * eta + 1.0
        return q ** -(eps + 1.0) * math.exp(
            -2.0 * alpha * math.asin(1.0 / math.sqrt(q)))

    g0 = math.exp(-math.pi * alpha)
    inner, _ = integrate.quad(lambda e: (g(e) - g0) / e, 0.0, 1.0,
                              epsabs=1e-14, epsrel=1e-12)
    outer, _ = integrate.quad(lambda e: g(e) / e, 1.0, math.inf,
                              epsabs=1e-14, epsrel=1e-12)
    c = k * g0 / 2.0
    d = k * (g0 * (math.log(2.0) / 2.0 - 0.25) + inner / 2.0 + outer / 2.0)
    return (c * np.log(a) + d) / a ** 2


def test_ac6_gamma_identity():
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        got = gamma0_modulus_sq(alpha, 1e-6)
        ref = 2.0 * math.pi * alpha / (1.0 - math.exp(-2.0 * math.pi * alpha))
        worst = max(worst, abs(got / ref - 1.0))
    ok = worst < 1e-4
    _report("AC6 Gamma identity (eps -> 0)", ok, f"worst rel {worst:.2e}")
    assert worst < 1e-4


def test_ac7_pde_remainder(smooth_flow, smooth_profile):
    t0 = time.perf_counter()
    # discretisation self-convergence on the drift-free traveling wave
    errs = [dalembert_error(n, t_final=1.0) for n in (1024, 2048, 4096)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    order_ok = min(orders) >= 1.9

    p = PacketParams(alpha=1.0, a=8.0, eps=0.25,
                     sigma_star=smooth_flow.sigma_star)
    grid = RadialGrid.auto(0.3, 9.0, 4096, smooth_profile, 0.5)
    rep = remainder_contribution(p, (-2.0, -6.0, -18.0), grid, smooth_flow,
                                 t_final=0.5)
    elapsed = time.perf_counter() - t0

    decay_ok = rep.fit_exponent >= 0.5
    beyond = rep.fit_exponent_absolute - rep.leading_exponent
    eta_ok = rep.eta_fit_exponent >= 0.8
    _report("AC7a deviation decay exponent >= 0.5 beyond leading", decay_ok,
            f"relative exponent {rep.fit_exponent:.2f} "
            f"(leading {rep.leading_exponent:.2f}, beyond {beyond:.2f})")
    _report("AC7b per-eta decay consistent with 1/(1+|eta|)", eta_ok,
            f"fitted eta exponent {rep.eta_fit_exponent:.2f}")
    _report("AC7c self-convergence order >= 1.9", order_ok,
            f"orders {orders[0]:.2f}, {orders[1]:.2f}")
    _report("AC7d runtime < 5 min at n_rho=4096", elapsed < 300.0,
            f"{elapsed:.1f}s")
    for w in rep.warnings:
        print(f"  AC7 warning: {w}")
    assert decay_ok and beyond >= 0.5
    assert eta_ok
    assert order_ok
    assert elapsed < 300.0


def test_default_evolved_rows_against_reference(smooth_flow, smooth_profile):
    # the pde-verify defaults (1024 points) against 4096 points, both from
    # the derived inner edge with the step bound of max|A| over
    # [0, tfinal].  Measured: gaps 7.7e-6/8.1e-6/8.0e-6 at a = 8/16/32,
    # each 2.11 times discr_estimate, whose divisor 2^4 - 1 assumes h^4
    # convergence
    cfg = RunConfig()
    assert cfg.profile() == smooth_profile
    p = PacketParams(alpha=cfg.alpha, a=cfg.a_sweep[0], eps=cfg.eps,
                     sigma_star=smooth_flow.sigma_star)
    edge = inner_edge(smooth_profile)
    grid = RadialGrid.auto(edge, cfg.grid_rho_max, cfg.nrho, smooth_profile,
                           cfg.tfinal)
    rows = remainder_contribution(p, cfg.eta_list, grid, smooth_flow,
                                  t_final=cfg.tfinal).rows_evolved
    ref_grid = RadialGrid.auto(edge, cfg.grid_rho_max, 4096, smooth_profile,
                               cfg.tfinal)
    ref_state = solve_mode(EVOLVE_ETA, ref_grid, smooth_profile,
                           cfg.tfinal)[-1]
    assert [r.a for r in rows] == list(A_VALUES)
    for row in rows:
        (d_ref,), d_eik = evolved_projection_densities(
            [ref_state], smooth_flow, p.with_a(row.a), EVOLVE_ETA)
        err = abs(row.dev_rel - abs(d_ref - d_eik) / abs(d_eik))
        assert err <= 1e-5, (row.a, err)
        assert err <= 2.5 * row.discr_estimate, (row.a, err,
                                                 row.discr_estimate)


def test_default_time_error_below_space_error(smooth_flow, smooth_profile):
    # the pde-verify defaults at the joint step bound: halving dt on the
    # same grid moves each evolved row by under a tenth of its
    # discretisation estimate, which measures the spatial error, so the
    # step the bound allows leaves the time error out of the rows.
    # Measured: gaps 3.0e-11/2.7e-11/5.8e-12 against estimates of 3.7e-6
    # to 3.8e-6 at a = 8/16/32
    cfg = RunConfig()
    p = PacketParams(alpha=cfg.alpha, a=cfg.a_sweep[0], eps=cfg.eps,
                     sigma_star=smooth_flow.sigma_star)
    edge = inner_edge(smooth_profile)
    grid = RadialGrid.auto(edge, cfg.grid_rho_max, cfg.nrho, smooth_profile,
                           cfg.tfinal)
    rows = remainder_contribution(p, cfg.eta_list, grid, smooth_flow,
                                  t_final=cfg.tfinal).rows_evolved
    half = RadialGrid(grid.rho_min, grid.rho_max, grid.n_rho,
                      dt=0.5 * grid.dt)
    states = [solve_mode(EVOLVE_ETA, g, smooth_profile, cfg.tfinal)[-1]
              for g in (grid, half)]
    for row in rows:
        (d, d_half), d_eik = evolved_projection_densities(
            states, smooth_flow, p.with_a(row.a), EVOLVE_ETA)
        assert abs(d - d_eik) / abs(d_eik) == row.dev_rel
        gap = abs(abs(d - d_eik) - abs(d_half - d_eik)) / abs(d_eik)
        assert gap < 0.1 * row.discr_estimate, (row.a, gap,
                                                row.discr_estimate)


def _outputs_without_out_dir(out):
    """Each file of out as bytes, less the lines that name out_dir."""
    return {f.name: b"".join(line for line in f.read_bytes().splitlines(True)
                             if b"out_dir" not in line)
            for f in out.iterdir()}


def test_ac8_reproducibility(tmp_path):
    # spectrum twice into one directory, and pde-verify (the RK4 stepper)
    # into two, whose files differ only in the lines naming the directory
    args = ["spectrum", "--out-dir", str(tmp_path / "spectrum"),
            "--set", "a_sweep=4,8", "--set", "n_eta=48"]
    assert main(list(args)) == 0
    first = _outputs_without_out_dir(tmp_path / "spectrum")
    assert main(list(args)) == 0
    runs = [(first, _outputs_without_out_dir(tmp_path / "spectrum"))]
    for out in ("pde1", "pde2"):
        assert main(["pde-verify", "--nrho", "256", "--tfinal", "0.1",
                     "--out-dir", str(tmp_path / out)]) == 0
    runs.append((_outputs_without_out_dir(tmp_path / "pde1"),
                 _outputs_without_out_dir(tmp_path / "pde2")))
    ok = all(a == b for a, b in runs)
    _report("AC8 byte-identical outputs", ok,
            f"{sum(len(a) for a, _ in runs)} files compared")
    assert ok
    assert len(runs[1][0]) == 4
