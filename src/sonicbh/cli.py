"""Command-line front end.

Subcommands: horizon, spectrum, limit, pde-verify.  A config file of
key=value lines (--config) supplies parameters; repeated --set key=value
flags override it.  Exit codes: 0 success, 2 config error,
3 numerical-tolerance failure, 4 resolution failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import pde, spectrum
from .config import RunConfig
from .errors import (ConfigError, ResolutionError, SonicbhError,
                     StepFailureError, ToleranceError)
from .flow import find_separatrix
from .output import write_csv, write_json
from .packets import PacketParams, eval_packet_profile, packet_norm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_RESOLUTION = 4


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    # the flags come last, so they win over --set; one check of the result
    pairs = list(args.set)
    for key in ("nrho", "tfinal", "eta_list", "out_dir"):
        val = getattr(args, key, None)
        if val is not None:
            pairs.append(f"{key}={val}")
    return cfg.with_overrides(pairs)


def _flow(cfg: RunConfig):
    return find_separatrix(cfg.profile(), x0_horizon_max=cfg.x0_horizon_max,
                           ode_tol=cfg.ode_tol, rho_min=cfg.rho_min)


def _packet(cfg: RunConfig, sigma_star: float, a: float | None = None) -> PacketParams:
    return PacketParams(alpha=cfg.alpha, a=cfg.a if a is None else a,
                        eps=cfg.eps, sigma_star=sigma_star)


def cmd_horizon(cfg: RunConfig) -> int:
    flow = _flow(cfg)
    hz = flow.horizon
    meta = cfg.to_dict()
    meta["sigma_star"] = flow.sigma_star
    out = write_csv(f"{cfg.out_dir}/horizon.csv", ["x0", "rho_star"],
                    zip(hz.x0.tolist(), hz.rho_star.tolist()), meta)
    gap_plus = abs(hz.rho_star[-1] - abs(cfg.a_plus))
    gap_minus = abs(hz.rho_star[0] - abs(cfg.a_minus))
    print(f"sigma_star = {flow.sigma_star:.12g}")
    print(f"rho_star({hz.x0[-1]:g}) - |A(+inf)| = {gap_plus:.3e}")
    print(f"rho_star({hz.x0[0]:g}) - |A(-inf)| = {gap_minus:.3e}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    flow = _flow(cfg)
    meta = cfg.to_dict()
    meta["sigma_star"] = flow.sigma_star

    # packet profile over sigma and the closed/numeric norm table
    p0 = _packet(cfg, flow.sigma_star)
    sig = flow.sigma_star + np.concatenate(
        [[0.0], np.geomspace(1e-6, 40.0 / p0.a, 400)])
    prof = eval_packet_profile(sig, p0)
    write_csv(f"{cfg.out_dir}/packet_profile.csv",
              ["sigma", "re", "im", "abs"],
              zip(sig.tolist(), prof.real.tolist(), prof.imag.tolist(),
                  np.abs(prof).tolist()), meta)
    norm_rows = []
    for a in cfg.a_sweep:
        pa = _packet(cfg, flow.sigma_star, a)
        closed = packet_norm(pa)
        numeric = packet_norm(pa, flow, numeric=True)
        norm_rows.append((a, closed, numeric, abs(numeric / closed - 1.0)))
    write_csv(f"{cfg.out_dir}/norm_table.csv",
              ["a", "norm_closed", "norm_numeric", "rel_err"],
              norm_rows, meta)

    totals = {}
    for a in cfg.a_sweep:
        p = _packet(cfg, flow.sigma_star, a)
        table = spectrum.build_spectrum(p, n_eta=cfg.n_eta)
        rows = [(e, d, c1.real, c1.imag, c2.real, c2.imag)
                for e, d, c1, c2 in zip(table.eta_grid.tolist(),
                                        table.density.tolist(),
                                        table.c1.tolist(), table.c2.tolist())]
        out = write_csv(f"{cfg.out_dir}/spectrum_a{a:g}.csv",
                        ["eta", "density", "c1_re", "c1_im", "c2_re", "c2_im"],
                        rows, meta)
        tn = spectrum.total_number(p)
        totals[f"{a:g}"] = {
            "total_grid": table.total,
            "total": tn.value,
            "tail_value": tn.tail_value,
            "tail_bound": tn.tail_bound,
            "norm": packet_norm(p),
            "total_normalized": tn.value / packet_norm(p),
        }
        print(f"a={a:g}: total={tn.value:.12g} "
              f"normalized={totals[f'{a:g}']['total_normalized']:.12g} ({out})")
    write_json(f"{cfg.out_dir}/spectrum_totals.json",
               {"config": meta, "totals": totals})
    return EXIT_OK


def cmd_limit(cfg: RunConfig) -> int:
    flow = _flow(cfg)
    p = _packet(cfg, flow.sigma_star)
    sweep = spectrum.limit_sweep(p, cfg.a_sweep)
    meta = cfg.to_dict()
    meta["sigma_star"] = flow.sigma_star
    rows = [(r.a, r.total, r.total_normalized, r.limit, r.residual)
            for r in sweep.rows]
    out = write_csv(f"{cfg.out_dir}/sweep.csv",
                    ["a", "total", "total_normalized", "limit", "residual"],
                    rows, meta)
    if len(sweep.rows) < 3:
        print("warning: sweep too short for a meaningful slope fit")
    summary = {
        "config": meta,
        "limit": sweep.limit,
        "limit_variant": sweep.limit_variant,
        "variant_ratio": sweep.limit_variant / sweep.limit,
        "residual_slope": -sweep.slope if np.isfinite(sweep.slope) else None,
        "richardson_extrapolation": sweep.richardson,
        "final_relative_residual": sweep.final_relative_residual,
    }
    write_json(f"{cfg.out_dir}/limit_summary.json", summary)
    print(f"limit = {sweep.limit:.12g}   variant = {sweep.limit_variant:.12g} "
          f"(ratio {summary['variant_ratio']:.6g})")
    print(f"residual slope = {sweep.slope:.3f}   final rel residual = "
          f"{sweep.final_relative_residual:.3e}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_pde_verify(cfg: RunConfig) -> int:
    flow = _flow(cfg)
    p = _packet(cfg, flow.sigma_star)
    grid = pde.RadialGrid.auto(cfg.grid_rho_min, cfg.grid_rho_max, cfg.nrho,
                               flow.profile.a_max_abs, cfg.tfinal)
    report = pde.remainder_contribution(p, cfg.eta_list, grid, flow,
                                        t_final=cfg.tfinal)
    meta = cfg.to_dict()
    meta["sigma_star"] = flow.sigma_star
    write_json(f"{cfg.out_dir}/pde_report.json",
               {"config": meta, "report": report.to_jsonable()})

    # the evolved mode's fine-grid history as CSV snapshots
    for st in report.history:
        rows = zip(st.rho.tolist(), st.value.real.tolist(),
                   st.value.imag.tolist())
        write_csv(f"{cfg.out_dir}/field_eta{pde.EVOLVE_ETA:g}_t{st.x0:g}.csv",
                  ["rho", "re", "im"], rows, meta)
    for w in report.warnings:
        print(f"warning: {w}")
    print(f"x0=0 deviation sweep exponent = {report.fit_exponent:.3f} "
          f"(leading {report.leading_exponent:.3f})")
    if report.eta_fit_exponent is not None:
        print(f"eta-decay exponent = {report.eta_fit_exponent:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sonicbh", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("horizon", cmd_horizon), ("spectrum", cmd_spectrum),
                     ("limit", cmd_limit), ("pde-verify", cmd_pde_verify)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
        sp.add_argument("--out-dir", dest="out_dir")
        if name == "pde-verify":
            sp.add_argument("--nrho", type=int)
            sp.add_argument("--tfinal", type=float)
            sp.add_argument("--eta-list", dest="eta_list")
        sp.set_defaults(handler=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ToleranceError, StepFailureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except ResolutionError as exc:
        print(f"resolution failure: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    except SonicbhError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    raise SystemExit(main())
