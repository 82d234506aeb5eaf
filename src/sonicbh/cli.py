"""Command-line front end.

Subcommands: horizon, spectrum, limit, pde-verify.  The key=value lines of
a config file (--config), then repeated --set key=value pairs, then the
flags form one list that is parsed and checked once, so a later value of
a key wins and a replaced value is never checked.  Exit code 0 on success;
a package error prints "label: message" to stderr and exits with its
type's code (sonicbh.errors).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import pde, spectrum
from .config import RunConfig, read_pairs
from .errors import ConfigError, SonicbhError
from .flow import FlowMap, find_separatrix
from .output import check_out_dir, write_csv, write_json
from .packets import A_MIN, PacketParams, eval_packet_profile, packet_norm


def _load_config(args) -> RunConfig:
    # the flags come last, so they win over --set and --set over the file
    pairs = read_pairs(args.config) if args.config is not None else []
    pairs += args.set
    for key in ("nrho", "tfinal", "eta_list", "out_dir"):
        val = getattr(args, key, None)
        if val is not None:
            pairs.append(f"{key}={val}")
    return RunConfig().with_overrides(pairs)


def cmd_horizon(cfg: RunConfig, flow: FlowMap, meta: dict) -> int:
    hz = flow.horizon
    out = write_csv(f"{cfg.out_dir}/horizon.csv", ["x0", "rho_star"],
                    np.column_stack((hz.x0, hz.rho_star)), meta)
    gap_plus = abs(hz.rho_star[-1] - abs(cfg.a_plus))
    gap_minus = abs(hz.rho_star[0] - abs(cfg.a_minus))
    print(f"sigma_star = {flow.sigma_star:.12g}")
    print(f"rho_star({hz.x0[-1]:g}) - |A(+inf)| = {gap_plus:.3e}")
    print(f"rho_star({hz.x0[0]:g}) - |A(-inf)| = {gap_minus:.3e}")
    print(f"wrote {out}")
    return 0


def cmd_spectrum(cfg: RunConfig, flow: FlowMap, meta: dict) -> int:
    # every rate's packet and file name, the run's budget and (with the
    # first table) n_eta are checked before the first file is written
    if not cfg.a_sweep:
        raise ConfigError("a_sweep must not be empty")
    k, budget = len(cfg.a_sweep), spectrum.MAX_N_ETA
    if cfg.n_eta * k > budget:
        raise ConfigError(f"n_eta must be at most {budget // k} at {k} "
                          f"a_sweep values: n_eta x len(a_sweep) must be at "
                          f"most {budget}")
    by_name = {}
    for a in cfg.a_sweep:
        p = PacketParams(cfg.alpha, a, cfg.eps, flow.sigma_star)
        first = by_name.setdefault(f"{a:g}", p)
        if first is not p:
            raise ConfigError(f"a_sweep values {first.a!r} and {a!r} both "
                              f"write spectrum_a{a:g}.csv")
    # the norm table and the totals file sum up every rate, so they come last
    norm_rows, totals = [], {}
    for name, p in by_name.items():
        table = spectrum.build_spectrum(p, n_eta=cfg.n_eta)
        sig = flow.sigma_star + np.concatenate(
            [[0.0], np.geomspace(1e-6, 40.0 / p.a, 400)])
        prof = eval_packet_profile(sig, p)
        write_csv(f"{cfg.out_dir}/packet_profile_a{name}.csv",
                  ["sigma", "re", "im", "abs"],
                  np.column_stack((sig, prof.real, prof.imag, np.abs(prof))),
                  meta)
        norm = packet_norm(p)
        numeric = packet_norm(p, flow, numeric=True)
        norm_rows.append((p.a, norm, numeric, abs(numeric / norm - 1.0)))
        rows = np.column_stack((table.eta_grid, table.density, table.c1.real,
                                table.c1.imag))
        out = write_csv(f"{cfg.out_dir}/spectrum_a{name}.csv",
                        ["eta", "density", "c1_re", "c1_im"], rows, meta)
        tn = spectrum.total_number(p)
        totals[name] = {
            "total_grid": table.total,
            "total": tn.value,
            "tail_value": tn.tail_value,
            "tail_bound": tn.tail_bound,
            "norm": norm,
            "total_normalized": tn.value / norm,
        }
        print(f"a={name}: total={tn.value:.12g} "
              f"normalized={tn.value / norm:.12g} ({out})")
    write_csv(f"{cfg.out_dir}/norm_table.csv",
              ["a", "norm_closed", "norm_numeric", "rel_err"],
              norm_rows, meta)
    write_json(f"{cfg.out_dir}/spectrum_totals.json",
               {"config": meta, "totals": totals})
    return 0


def cmd_limit(cfg: RunConfig, flow: FlowMap, meta: dict) -> int:
    # limit_sweep checks a_sweep and sets each of its rates itself
    p = PacketParams(cfg.alpha, A_MIN, cfg.eps, flow.sigma_star)
    sweep = spectrum.limit_sweep(p, cfg.a_sweep)
    rows = [(r.a, r.total, r.total_normalized, r.limit, r.residual)
            for r in sweep.rows]
    out = write_csv(f"{cfg.out_dir}/sweep.csv",
                    ["a", "total", "total_normalized", "limit", "residual"],
                    rows, meta)
    for w in sweep.warnings:
        print(f"warning: {w}")
    summary = {
        "config": meta,
        "limit": sweep.limit,
        "limit_variant": sweep.limit_variant,
        "variant_ratio": sweep.limit_variant / sweep.limit,
        "residual_slope": -sweep.slope if np.isfinite(sweep.slope) else None,
        "richardson_extrapolation": sweep.richardson,
        "final_relative_residual": sweep.final_relative_residual,
        "warnings": sweep.warnings,
    }
    write_json(f"{cfg.out_dir}/limit_summary.json", summary)
    print(f"limit = {sweep.limit:.12g}   variant = {sweep.limit_variant:.12g} "
          f"(ratio {summary['variant_ratio']:.6g})")
    print(f"residual slope = {sweep.slope:.3f}   final rel residual = "
          f"{sweep.final_relative_residual:.3e}")
    print(f"wrote {out}")
    return 0


def cmd_pde_verify(cfg: RunConfig, flow: FlowMap, meta: dict) -> int:
    # remainder_contribution sets each rate it uses itself (pde.A_VALUES)
    p = PacketParams(cfg.alpha, pde.A_VALUES[0], cfg.eps, flow.sigma_star)
    grid = pde.verify_grid(flow.profile, cfg.grid_rho_max, cfg.nrho,
                           cfg.tfinal)
    report = pde.remainder_contribution(p, cfg.eta_list, grid, flow,
                                        t_final=cfg.tfinal)
    write_json(f"{cfg.out_dir}/pde_report.json",
               {"config": meta, "report": report.to_jsonable()})

    # the evolved mode's fine-grid history as CSV snapshots
    for st in report.history:
        rows = np.column_stack((st.rho, st.value.real, st.value.imag))
        write_csv(f"{cfg.out_dir}/field_eta{pde.EVOLVE_ETA:g}_t{st.x0:g}.csv",
                  ["rho", "re", "im"], rows, meta)
    for w in report.warnings:
        print(f"warning: {w}")
    print(f"x0=0 deviation sweep exponent = {report.fit_exponent:.3f} "
          f"(leading {report.leading_exponent:.3f})")
    if report.eta_fit_exponent is not None:
        print(f"eta-decay exponent = {report.eta_fit_exponent:.3f}")
    return 0


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
            sp.add_argument("--nrho")
            sp.add_argument("--tfinal")
            sp.add_argument("--eta-list", dest="eta_list")
        sp.set_defaults(handler=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        check_out_dir(cfg.out_dir)
        # every output echoes the config plus sigma_star
        flow = find_separatrix(cfg.profile(),
                               x0_horizon_max=cfg.x0_horizon_max)
        meta = {**cfg.to_dict(), "sigma_star": flow.sigma_star}
        return args.handler(cfg, flow, meta)
    except SonicbhError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
