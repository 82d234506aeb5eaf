"""The three benchmark workloads: their inputs, their operations and the
checks that decide whether an operation's answer is right.

Each workload draws its inputs from a seed in blocks whose make-up is the
same for every seed (stratified draws), so that the spread between runs
with different seeds reflects the program and the machine rather than
which inputs happened to be drawn.  Every operation goes through the
package's public functions or ``sonicbh.cli.main``; the modules are looked
up at call time so that a traced run can wrap them.

A check compares an operation's answer with an independent twin that the
test suite already uses, at the tests' tolerances.  It returns an empty
string when the answer is right and a short reason otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import sonicbh.cli
import sonicbh.flow
import sonicbh.output
import sonicbh.packets
import sonicbh.spectrum
from sonicbh.config import RunConfig
from sonicbh.errors import SonicbhError
from sonicbh.flow import VelocityProfile

# geometry: a nudge of this relative size must flip a ray's fate
# (tests/test_flow.py::test_separatrix_sharpness uses 1e-9)
FATE_DELTA = 1e-9
# tests/test_flow.py::test_horizon_satisfies_ray_equation
RAY_EQUATION_ATOL = 2e-4
# spectrum: AC2, the density identity of build_spectrum, AC5a
NORM_RTOL = 1e-6
DENSITY_RTOL = 1e-10
SWEEP_RESIDUAL_MAX = 0.02
# wave: AC7a and AC7b
DECAY_EXPONENT_MIN = 0.5
ETA_EXPONENT_MIN = 0.8


class CliExitError(SonicbhError):
    """A non-zero exit code from sonicbh.cli.main, which is how the CLI
    reports a typed error."""


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled."""
    order = rng.sample(range(n), n)
    return [lo + (k + rng.random()) / n * (hi - lo) for k in order]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def separatrix_kwargs(cfg: RunConfig) -> dict:
    """The bracket and tolerances the CLI passes to find_separatrix.

    Filtered by the function's signature, so that a later change that drops
    a tolerance (the bisection's ``tol``) does not break the benchmark.
    """
    wanted = {"bracket": (cfg.bracket_lo, cfg.bracket_hi),
              "x0_horizon_max": cfg.x0_horizon_max,
              "ode_tol": cfg.ode_tol, "rho_min": cfg.rho_min,
              "tol": getattr(cfg, "sep_tol", None)}
    accepted = inspect.signature(sonicbh.flow.find_separatrix).parameters
    return {k: v for k, v in wanted.items() if k in accepted and v is not None}


class Geometry:
    """Separatrix search for a drawn flow profile.

    Nearly all of an operation's time is the bisection's scalar DOP853
    solves in ``flow``.  The tau range includes short transitions, where
    the forward classifier's window (30 tau) is too short and the
    separatrix comes out biased; those operations miss the fate check.
    """

    name = "geometry"
    block = 16
    nominal_block_s = 5.0
    trace_blocks = 1

    def __init__(self, workdir: Path):
        self.kwargs = separatrix_kwargs(RunConfig())

    def setup(self) -> None:
        pass

    def draw(self, rng: random.Random) -> list[dict]:
        n = self.block
        cols = zip(_strata(rng, n, -2.0, -0.5), _strata(rng, n, -2.0, -0.5),
                   _strata(rng, n, 0.3, 3.0))
        return [{"a_minus": am, "a_plus": ap, "tau": tau} for am, ap, tau in cols]

    def run(self, params: dict):
        profile = VelocityProfile(**params)
        return sonicbh.flow.find_separatrix(profile, **self.kwargs)

    def check(self, params: dict, flow) -> str:
        profile = VelocityProfile(**params)
        star = float(flow.sigma_star)
        if not math.isfinite(star):
            return "sigma_star is not finite"
        # rays leave the horizon at about |A+|/rho*^2 = 1/|A+| per unit x0;
        # the window allows twice the e-folds that turn FATE_DELTA into O(1)
        window = 3.0 * profile.tau \
            + 2.0 * math.log(1.0 / FATE_DELTA) * abs(profile.a_plus)
        up = sonicbh.flow.integrate_characteristic(
            star * (1.0 + FATE_DELTA), 0.0, window, profile)
        if up.captured or up.rho[-1] <= 2.0 * abs(profile.a_plus):
            return f"ray above sigma_star={star!r} does not escape"
        down = sonicbh.flow.integrate_characteristic(
            star * (1.0 - FATE_DELTA), 0.0, window, profile)
        if not down.captured:
            return f"ray below sigma_star={star!r} is not captured"
        # fourth-order centred differences, so that the stencil's own error
        # stays far below the tolerance even at the shortest tau
        x, r = flow.horizon.x0, flow.horizon.rho_star
        h = np.diff(x)
        if not np.allclose(h, h[0], rtol=1e-9):
            return "horizon samples are not uniformly spaced"
        fd = (-r[4:] + 8.0 * r[3:-1] - 8.0 * r[1:-3] + r[:-4]) / (12.0 * h[0])
        resid = np.abs(fd - (profile.eval(x[2:-2]) / r[2:-2] + 1.0))
        if not resid.max() <= RAY_EQUATION_ATOL:
            return f"horizon misses the ray equation by {resid.max():.3g}"
        return ""

    def digest(self, flow) -> str:
        return _digest(float(flow.sigma_star),
                       np.ascontiguousarray(flow.horizon.rho_star).tobytes())

    def corrupt(self, flow):
        return dataclasses.replace(flow, sigma_star=flow.sigma_star * (1.0 + 1e-6))


class Spectrum:
    """What ``sonicbh spectrum`` and ``sonicbh limit`` compute for one packet.

    The default flow is computed once in set-up, so ``spectrum``,
    ``gammatools`` and ``packets`` do the work of an operation.  n_eta
    exposes the per-eta Python loop of build_spectrum.
    """

    name = "spectrum"
    block = 20
    nominal_block_s = 0.65
    trace_blocks = 2
    # 1024 twice in every five draws puts the median operation inside one
    # size class instead of on the boundary between two
    N_ETA = (96, 256, 1024, 1024, 2048)
    A_VALUES = (4.0, 8.0, 16.0, 32.0, 64.0)

    def __init__(self, workdir: Path):
        self.cfg = RunConfig()
        self.out = workdir / "spectrum"
        self.flow = None

    def setup(self) -> None:
        self.flow = sonicbh.flow.find_separatrix(self.cfg.profile(),
                                                 **separatrix_kwargs(self.cfg))

    def draw(self, rng: random.Random) -> list[dict]:
        n = self.block
        n_eta = list(self.N_ETA) * (n // len(self.N_ETA))
        a_vals = list(self.A_VALUES) * (n // len(self.A_VALUES))
        rng.shuffle(n_eta)
        rng.shuffle(a_vals)
        cols = zip(_strata(rng, n, 0.5, 3.0), _strata(rng, n, 0.1, 0.5),
                   a_vals, n_eta)
        return [{"alpha": al, "eps": ep, "a": a, "n_eta": ne}
                for al, ep, a, ne in cols]

    def run(self, params: dict) -> dict:
        spec, packets, out = sonicbh.spectrum, sonicbh.packets, sonicbh.output
        alpha, eps = params["alpha"], params["eps"]
        p = packets.PacketParams(alpha=alpha, a=params["a"], eps=eps,
                                 sigma_star=self.flow.sigma_star)
        closed = packets.packet_norm(p)
        numeric = packets.packet_norm(p, self.flow, numeric=True)
        table = spec.build_spectrum(p, n_eta=params["n_eta"])
        total = spec.total_number(p)
        sweep = spec.limit_sweep(p, self.cfg.a_sweep)
        limit = spec.normalized_number_limit(alpha, eps)
        variant = spec.normalized_number_limit_variant(alpha, eps)
        meta = dict(params, sigma_star=self.flow.sigma_star)
        rows = zip(table.eta_grid.tolist(), table.density.tolist(),
                   table.c1.real.tolist(), table.c1.imag.tolist(),
                   table.c2.real.tolist(), table.c2.imag.tolist())
        out.write_csv(self.out / "spectrum.csv",
                      ["eta", "density", "c1_re", "c1_im", "c2_re", "c2_im"],
                      rows, meta)
        out.write_json(self.out / "summary.json", {
            "config": meta, "norm_closed": closed, "norm_numeric": numeric,
            "total": total.value, "total_grid": table.total,
            "limit": limit, "limit_variant": variant,
            "final_relative_residual": sweep.final_relative_residual})
        return {"closed": closed, "numeric": numeric, "table": table,
                "total": total.value, "limit": limit, "variant": variant,
                "final_residual": sweep.final_relative_residual}

    def check(self, params: dict, res: dict) -> str:
        rel = abs(res["numeric"] / res["closed"] - 1.0)
        if not rel < NORM_RTOL:
            return f"numeric norm off the closed norm by {rel:.3g}"
        t = res["table"]
        pair = -4.0 * (t.c1 * np.conj(t.c2)).real
        if not np.all(np.abs(pair - t.density) <= DENSITY_RTOL * np.abs(t.density)):
            return "density table misses the projection-pair identity"
        if not res["final_residual"] < SWEEP_RESIDUAL_MAX:
            return f"limit sweep final residual {res['final_residual']:.3g}"
        return ""

    def digest(self, res: dict) -> str:
        t = res["table"]
        return _digest(res["closed"], res["numeric"], res["total"],
                       res["limit"], res["variant"], res["final_residual"],
                       t.total, t.density.tobytes(), t.c1.tobytes())

    def corrupt(self, res: dict) -> dict:
        return dict(res, numeric=res["numeric"] * (1.0 + 1e-5))


class Wave:
    """One ``sonicbh pde-verify`` call into a fresh output directory.

    RK4 stepping and the x0=0 quadratures in ``pde`` do most of the work.
    n_rho spans the overhead-bound and the bandwidth-bound sizes of the
    stepper's arrays.
    """

    name = "wave"
    block = 6
    nominal_block_s = 25.0
    trace_blocks = 1
    # (n_rho, t_final, alpha sixth, eps sixth): every sixth of each range
    # once per block, fixed per grid so that a block costs the same for
    # every seed.  The corner of large alpha and small eps, where the x0=0
    # quadratures warn and their cost swings most, goes to a grid that sets
    # neither the median nor the slowest operation.
    GRIDS = [(1024, 0.5, 0, 5), (1024, 0.75, 4, 4), (2048, 0.5, 2, 1),
             (2048, 0.75, 3, 2), (4096, 0.5, 5, 0), (4096, 0.75, 1, 3)]

    def __init__(self, workdir: Path):
        self.out = workdir / "wave"
        self.count = 0

    def setup(self) -> None:
        pass

    def draw(self, rng: random.Random) -> list[dict]:
        ops = [{"nrho": n, "tfinal": t,
                "alpha": 0.5 + (ka + rng.random()) / 6.0 * 2.5,
                "eps": 0.1 + (ke + rng.random()) / 6.0 * 0.4}
               for n, t, ka, ke in self.GRIDS]
        rng.shuffle(ops)
        return ops

    def run(self, params: dict):
        self.count += 1
        out = self.out / f"op{self.count}"
        argv = ["pde-verify", "--out-dir", str(out),
                "--nrho", str(params["nrho"]), "--tfinal", repr(params["tfinal"]),
                "--set", f"alpha={params['alpha']!r}",
                "--set", f"eps={params['eps']!r}"]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = sonicbh.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
        if rc != 0:
            raise CliExitError(f"pde-verify exited with {rc}")
        return {"out": out}

    def check(self, params: dict, res: dict) -> str:
        rep = json.loads((res["out"] / "pde_report.json").read_text())["report"]
        beyond = rep["fit_exponent_absolute"] - rep["leading_exponent"]
        if not (rep["fit_exponent"] >= DECAY_EXPONENT_MIN
                and beyond >= DECAY_EXPONENT_MIN):
            return (f"AC7a: decay exponent {rep['fit_exponent']:.3g}, "
                    f"beyond leading {beyond:.3g}")
        if not rep["eta_fit_exponent"] >= ETA_EXPONENT_MIN:
            return f"AC7b: eta exponent {rep['eta_fit_exponent']:.3g}"
        if rep["warnings"]:
            return f"report warnings: {rep['warnings']}"
        return ""

    def digest(self, res: dict) -> str:
        # the report echoes the config, whose out_dir differs between ops
        doc = json.loads((res["out"] / "pde_report.json").read_text())
        del doc["config"]["out_dir"]
        return _digest(json.dumps(doc, sort_keys=True))

    def corrupt(self, res: dict) -> dict:
        doc = json.loads((res["out"] / "pde_report.json").read_text())
        doc["report"]["eta_fit_exponent"] = 0.5 * ETA_EXPONENT_MIN
        out = res["out"].with_name(res["out"].name + "-corrupt")
        sonicbh.output.write_json(out / "pde_report.json", doc)
        return dict(res, out=out)


WORKLOADS = {w.name: w for w in (Geometry, Spectrum, Wave)}
