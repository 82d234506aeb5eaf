"""Config handling, CLI commands, file formats, exit codes, determinism."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sonicbh.cli import main
from sonicbh.config import RunConfig, fmt_float
from sonicbh.errors import ConfigError


# -- config --------------------------------------------------------------------

def test_config_text_roundtrip():
    # every key, spelled as the outputs echo it (floats at 17 digits),
    # parses back to the same config
    cfg = RunConfig()
    lines = []
    for key, v in cfg.to_dict().items():
        if isinstance(v, list):
            v = ",".join(fmt_float(x) for x in v)
        elif isinstance(v, float):
            v = fmt_float(v)
        lines.append(f"{key} = {v}")
    assert RunConfig.from_text("\n".join(lines) + "\n") == cfg


def test_config_parsing_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("a_minus = -1.1\n# comment line\ntau = 2.0\n"
                    "a_sweep = 4,8,16\nnrho = 512\n")
    cfg = RunConfig.from_file(path)
    assert cfg.a_minus == -1.1 and cfg.tau == 2.0 and cfg.nrho == 512
    assert cfg.a_sweep == (4.0, 8.0, 16.0)
    cfg2 = cfg.with_overrides(["alpha=2.5", "out_dir=elsewhere"])
    assert cfg2.alpha == 2.5 and cfg2.out_dir == "elsewhere"
    assert cfg2.a_minus == -1.1


def test_config_rejects_bad_input(tmp_path, capsys):
    with pytest.raises(ConfigError):
        RunConfig.from_text("unknown_key = 3\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("alpha\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("tau = banana\n")
    with pytest.raises(ConfigError):
        RunConfig(a_sweep=(8.0, 4.0))
    with pytest.raises(ConfigError):
        RunConfig(order=3)
    with pytest.raises(ConfigError):
        RunConfig(x0_horizon_max=0.0)
    # the separatrix needs no search tolerance
    with pytest.raises(ConfigError):
        RunConfig.from_text("sep_tol = 1e-12\n")
    # values the flow, the packet or the wave grid would reject later
    for bad in ({"alpha": -1.0}, {"eps": 0.7}, {"a": 0.0}, {"a_minus": 0.5},
                {"a_sweep": ()}, {"eta_list": ()}, {"eta_list": (2.0, -6.0)},
                {"nrho": 8}, {"nrho": 29}, {"grid_rho_min": 0.0},
                {"grid_rho_max": 0.2}, {"tfinal": -1.0}, {"tfinal": 0.0},
                {"dt": -1e-3}, {"n_eta": 23}, {"n_eta": 1}, {"eps": 0.049},
                {"eps": 0.5001},
                # non-finite values: the first three hung, the rest ended
                # in a traceback or a later failure instead of exit 2
                {"tau": math.inf}, {"a_minus": -math.inf},
                {"x0_horizon_max": math.inf}, {"tfinal": math.inf},
                {"ode_tol": math.inf}, {"rho_min": math.inf},
                {"bracket_hi": math.inf}, {"bracket_lo": math.nan},
                {"grid_rho_max": math.inf}, {"alpha": math.inf},
                {"a_sweep": (4.0, math.inf)}, {"eta_list": (-math.inf,)},
                # the horizon between |A-| and |A+| at or below rho_min
                {"a_plus": -1e-6}, {"a_minus": -1e-3}, {"rho_min": 0.8},
                # a reversed or empty bracket is a config error, not a
                # numerical failure of the separatrix
                {"bracket_lo": 3.0, "bracket_hi": 0.3},
                {"bracket_lo": 1.0, "bracket_hi": 1.0},
                # a constant profile has one value
                {"form": "constant"}):
        with pytest.raises(ConfigError):
            RunConfig(**bad)
    RunConfig(nrho=30)  # its coarse twin still has 16 points
    RunConfig(n_eta=24)
    RunConfig(eps=0.05)
    # the same values from the command line exit 2, before any output
    for argv in (["pde-verify", "--eta-list", "2,-6"],
                 ["pde-verify", "--eta-list="],
                 ["limit", "--set", "a_sweep="],
                 ["spectrum", "--set", "alpha=-1"],
                 ["spectrum", "--set", "eps=0.7"],
                 ["spectrum", "--set", "a=0"],
                 ["spectrum", "--set", "n_eta=1"],
                 ["spectrum", "--set", "eps=0.002"],
                 ["pde-verify", "--nrho", "1024", "--set", "eps=0.04"],
                 ["horizon", "--set", "a_minus=0.5"],
                 ["pde-verify", "--nrho", "8"],
                 ["pde-verify", "--set", "grid_rho_min=0"],
                 ["pde-verify", "--tfinal", "-1"],
                 ["pde-verify", "--dt", "1"],  # over the default grid's CFL bound
                 ["pde-verify", "--set", "tfinal=inf"],
                 ["spectrum", "--set", "alpha=inf"],
                 ["horizon", "--set", "ode_tol=inf"],
                 ["horizon", "--set", "bracket_lo=3", "--set", "bracket_hi=0.3"],
                 # the constant form would start the separatrix at |a_plus|
                 # and return sigma* = 1.19999997743 for the fixed point 1.2
                 ["horizon", "--set", "form=constant", "--set", "a_plus=-0.5"]):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2, argv
        assert "config error" in capsys.readouterr().err, argv
        assert not any(tmp_path.iterdir()), argv


# -- commands --------------------------------------------------------------------

def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha = -3 oops\n")
    rc = main(["horizon", "--config", str(bad)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_horizon_command(tmp_path, capsys):
    rc = main(["horizon", "--out-dir", str(tmp_path),
               "--set", "a_minus=-1.0", "--set", "a_plus=-1.0",
               "--set", "form=constant", "--set", "x0_horizon_max=4",
               "--set", "bracket_lo=0.4", "--set", "bracket_hi=2.4"])
    assert rc == 0
    out = capsys.readouterr().out
    sigma = float(out.splitlines()[0].split("=")[1])
    assert sigma == pytest.approx(1.0, abs=1e-8)
    lines = (tmp_path / "horizon.csv").read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert any("a_minus" in ln for ln in meta)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "x0,rho_star"


def test_horizon_bracket_failure_exit_code(tmp_path, capsys):
    rc = main(["horizon", "--out-dir", str(tmp_path),
               "--set", "bracket_lo=1.5", "--set", "bracket_hi=2.8",
               "--set", "a_minus=-1.0", "--set", "a_plus=-1.0",
               "--set", "form=constant"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_spectrum_command(tmp_path):
    rc = main(["spectrum", "--out-dir", str(tmp_path),
               "--set", "a_sweep=4,8", "--set", "n_eta=24"])
    assert rc == 0
    body = [ln for ln in (tmp_path / "spectrum_a4.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert body[0] == "eta,density,c1_re,c1_im,c2_re,c2_im"
    assert body[1] == "0,0,0,0,0,0"  # +0 throughout, no -0

    # density column reproduces the closed form for the echoed sigma_star
    totals = json.loads((tmp_path / "spectrum_totals.json").read_text())
    star = totals["config"]["sigma_star"]
    from sonicbh.packets import PacketParams
    from oracles import creation_density_closed
    p = PacketParams(alpha=1.0, a=4.0, eps=0.25, sigma_star=star)
    row = body[12].split(",")
    assert float(row[1]) == pytest.approx(
        creation_density_closed(float(row[0]), p), rel=1e-12)
    # totals decrease along the sweep
    assert totals["totals"]["8"]["total"] < totals["totals"]["4"]["total"]

    # companion emitters: packet profile over sigma and the norm table
    prof_body = [ln for ln in
                 (tmp_path / "packet_profile.csv").read_text().splitlines()
                 if not ln.startswith("#")]
    assert prof_body[0] == "sigma,re,im,abs"
    assert float(prof_body[1].split(",")[3]) == 0.0  # zero at sigma_star
    norm_body = [ln for ln in
                 (tmp_path / "norm_table.csv").read_text().splitlines()
                 if not ln.startswith("#")]
    assert norm_body[0] == "a,norm_closed,norm_numeric,rel_err"
    assert all(float(ln.split(",")[3]) < 1e-8 for ln in norm_body[1:])


def test_spectrum_totals_report_tail(tmp_path):
    # total_grid is the Simpson head over (0, 50 (a + 1)]; the adaptive
    # total adds the tail beyond it
    assert main(["spectrum", "--out-dir", str(tmp_path)]) == 0
    totals = json.loads((tmp_path / "spectrum_totals.json").read_text())
    for t in totals["totals"].values():
        head = t["total"] - t["tail_value"]
        assert t["tail_value"] > 0.0
        assert abs(t["total_grid"] / head - 1.0) < 1e-3


def test_spectrum_reproducible(tmp_path):
    args = ["spectrum", "--out-dir", str(tmp_path),
            "--set", "a_sweep=4", "--set", "n_eta=24"]
    assert main(list(args)) == 0
    first_csv = (tmp_path / "spectrum_a4.csv").read_bytes()
    first_json = (tmp_path / "spectrum_totals.json").read_bytes()
    assert main(list(args)) == 0
    assert (tmp_path / "spectrum_a4.csv").read_bytes() == first_csv
    assert (tmp_path / "spectrum_totals.json").read_bytes() == first_json


def test_limit_command(tmp_path, capsys):
    rc = main(["limit", "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "limit_summary.json").read_text())
    assert summary["variant_ratio"] == pytest.approx(2.0 ** -0.25, rel=1e-10)
    assert summary["final_relative_residual"] < 1e-4
    body = [ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert body[0] == "a,total,total_normalized,limit,residual"
    assert len(body) == 1 + 5


def test_limit_short_sweep_warns(tmp_path, capsys):
    rc = main(["limit", "--out-dir", str(tmp_path), "--set", "a_sweep=4,8"])
    assert rc == 0
    assert "sweep too short" in capsys.readouterr().out


def test_pde_verify_command(tmp_path, capsys):
    rc = main(["pde-verify", "--out-dir", str(tmp_path), "--nrho", "700",
               "--tfinal", "0.2", "--set", "eta_list=-2,-6",
               "--set", "a_sweep=8,16"])
    assert rc == 0
    report = json.loads((tmp_path / "pde_report.json").read_text())["report"]
    assert report["fit_exponent"] > 0.5
    assert {"a", "eta", "dev_rel", "x0"} <= set(report["rows_initial"][0])
    snaps = sorted(Path(tmp_path).glob("field_eta-4_t*.csv"))
    assert len(snaps) == 3, "field snapshots missing"
    body = [ln for ln in snaps[0].read_text().splitlines()
            if not ln.startswith("#")]
    assert body[0] == "rho,re,im"


def test_pde_verify_resolution_exit_code(tmp_path, capsys):
    # eta_list sets only the closed-form x0=0 rows; the evolved mode at
    # eta = -4 is what 64 points cannot resolve
    rc = main(["pde-verify", "--out-dir", str(tmp_path), "--nrho", "64",
               "--set", "eta_list=-60"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "resolution failure" in err and "eta = -4" in err


def _strict_json(path):
    def reject(name):
        raise ValueError(f"{name} in {path.name}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_pde_verify_defaults_two_solves(tmp_path, monkeypatch):
    # the fine solve feeds both the evolved rows and the field snapshots;
    # its coarse twin is the only other solve
    from sonicbh import pde
    calls = []
    solve_mode = pde.solve_mode

    def counting(*args, **kwargs):
        calls.append(args[1].n_rho)
        return solve_mode(*args, **kwargs)

    monkeypatch.setattr(pde, "solve_mode", counting)
    assert main(["pde-verify", "--out-dir", str(tmp_path)]) == 0
    assert calls == [2048, 1025]
    report = _strict_json(tmp_path / "pde_report.json")["report"]
    snaps = {p.name for p in tmp_path.glob("field_eta*.csv")}
    assert len(snaps) == 3 and "field_eta-4_t0.csv" in snaps
    for row in report["rows_evolved"]:
        assert f"field_eta-4_t{row['x0']:g}.csv" in snaps
        assert row["x0"] != 0.75  # the step-snapped time, not tfinal


def test_pde_verify_short_tfinal_records_first_step(tmp_path):
    # a tfinal below dt/2 snaps to the first step: the evolved rows and the
    # last snapshot sit at x0 = dt, not at the initial state
    from sonicbh.pde import RadialGrid
    cfg = RunConfig(nrho=1024)
    dt = RadialGrid.auto(cfg.grid_rho_min, cfg.grid_rho_max, 1024,
                         cfg.profile().a_max_abs).dt
    assert dt > 2e-4
    assert main(["pde-verify", "--out-dir", str(tmp_path), "--nrho", "1024",
                 "--tfinal", "1e-4"]) == 0
    report = _strict_json(tmp_path / "pde_report.json")["report"]
    snaps = {p.name for p in tmp_path.glob("field_eta*.csv")}
    assert snaps == {"field_eta-4_t0.csv", f"field_eta-4_t{dt:g}.csv"}
    assert [row["x0"] for row in report["rows_evolved"]] == [dt] * 3


def test_pde_verify_json_is_finite(tmp_path, capsys):
    # a single eta sample has no eta fit; 120 points leave the coarse twin
    # (61 points) unable to resolve eta = -4: both write null, not NaN/inf
    for args, key in ((["--set", "eta_list=-6"], "eta_fit_exponent"),
                      (["--nrho", "120"], "discr_estimate")):
        out = tmp_path / key
        assert main(["pde-verify", "--out-dir", str(out)] + args) == 0, args
        report = _strict_json(out / "pde_report.json")["report"]
        assert report["warnings"], args
        rows = report["rows_evolved"] if key == "discr_estimate" else [report]
        assert all(r[key] is None for r in rows), args


def test_write_json_rejects_non_finite(tmp_path):
    from sonicbh.errors import ToleranceError
    from sonicbh.output import write_json
    with pytest.raises(ToleranceError):
        write_json(tmp_path / "bad.json", {"x": float("nan")})
    assert not (tmp_path / "bad.json").exists()


def test_write_csv_rejects_non_finite(tmp_path):
    from sonicbh.errors import ToleranceError
    from sonicbh.output import write_csv
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ToleranceError, match="bad.csv"):
            write_csv(tmp_path / "bad.csv", ["a", "b"], [(1.0, 2.0), (3.0, bad)])
        assert not (tmp_path / "bad.csv").exists()


def _per_cell_csv(columns, rows, meta) -> str:
    # the reference writer: one f"{v:.17g}" per cell
    lines = [f"# {k} = {meta[k]:.17g}" if isinstance(meta[k], float)
             else f"# {k} = {meta[k]}" for k in sorted(meta)]
    lines.append(",".join(columns))
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_write_csv_matches_per_cell_format(tmp_path):
    from sonicbh.output import write_csv
    rng = np.random.default_rng(7919)
    bits = rng.integers(0, 2 ** 64, size=16000,
                        dtype=np.uint64).view(np.float64)
    special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e22,
               1e16, 2.0 ** 53, 2.0 ** 53 + 2.0, 123456789.0]
    cells = np.concatenate([special, np.arange(-50.0, 51.0),
                            bits[np.isfinite(bits)]])
    cells = cells[:len(cells) // 4 * 4].reshape(-1, 4)
    columns = ["a", "b", "c", "d"]
    meta = {"x": 0.1, "name": "run", "n": 3, "eta_list": [-2.0, -6.0]}
    want = _per_cell_csv(columns, cells.tolist(), meta)
    for name, rows in (("zip.csv", zip(*(c.tolist() for c in cells.T))),
                       ("array.csv", cells)):
        assert write_csv(tmp_path / name, columns, rows,
                         meta).read_text() == want, name


def test_write_csv_non_finite_deep_in_table(tmp_path):
    from sonicbh.errors import ToleranceError
    from sonicbh.output import write_csv
    rows = np.random.default_rng(1).standard_normal((2048, 6))
    for bad in (math.nan, math.inf, -math.inf):
        rows[1733, 4] = bad
        with pytest.raises(ToleranceError,
                           match=f"big.csv: non-finite value {bad}"):
            write_csv(tmp_path / "big.csv", list("abcdef"),
                      zip(*(c.tolist() for c in rows.T)))
        assert not (tmp_path / "big.csv").exists()


def test_write_csv_rejects_width_mismatch(tmp_path):
    from sonicbh.output import write_csv
    for rows in ([(1.0, 2.0, 3.0)] * 4, [(1.0,)] * 6, [1.0, 2.0],
                 [(1.0, 2.0), (3.0, 4.0, 5.0)]):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "wide.csv", ["a", "b"], rows)
        assert not (tmp_path / "wide.csv").exists()


def test_write_csv_empty_table(tmp_path):
    from sonicbh.output import write_csv
    path = write_csv(tmp_path / "empty.csv", ["a", "b"], iter([]),
                     {"k": 1.0, "s": "x"})
    assert path.read_text() == "# k = 1\n# s = x\na,b\n"


def _assert_outputs_finite(out_dir):
    def finite(text):
        x = float(text)
        assert np.isfinite(x), text
        return x

    for path in out_dir.glob("*.csv"):
        body = [ln for ln in path.read_text().splitlines()
                if not ln.startswith("#")]
        for ln in body[1:]:
            for cell in ln.split(","):
                finite(cell)
    for path in out_dir.glob("*.json"):
        json.loads(path.read_text(), parse_float=finite,
                   parse_constant=finite)


_TYPED = {2: "config error", 3: "numerical failure", 4: "resolution failure"}


def _run_boundary(argv, out_dir, capsys, accepted):
    # exit 0 with finite outputs, or a typed failure; never an exception
    rc = main(argv + ["--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    if rc == 0:
        _assert_outputs_finite(out_dir)
    else:
        assert _TYPED[rc] in err, (argv, err)
    assert rc == (0 if accepted else 2), (argv, err)


@pytest.mark.parametrize("eps", [0.05, 0.5, 0.049, 0.5001])
@pytest.mark.parametrize("command", ["spectrum", "limit"])
def test_boundary_inputs_finite_or_typed(tmp_path, capsys, command, eps):
    for alpha in (0.05, 2000.0):
        for a in (1e-3, 1e6):
            for n_eta in (24, 23):
                argv = [command, "--set", f"eps={eps}",
                        "--set", f"alpha={alpha}", "--set", f"a_sweep={a}",
                        "--set", f"n_eta={n_eta}"]
                out = tmp_path / f"{alpha}_{a}_{n_eta}"
                _run_boundary(argv, out, capsys,
                              accepted=eps in (0.05, 0.5) and n_eta == 24)


def test_boundary_amplitudes_against_rho_min(tmp_path, capsys):
    # |A+| = 1e-6 below rho_min = 1e-3 was accepted and ran past a 20 s
    # timeout; just above rho_min the horizon takes under a second
    for key, value, accepted in (("a_plus", -1e-6, False),
                                 ("a_plus", -1e-3, False),
                                 ("a_plus", -0.002, True),
                                 ("a_minus", -0.002, True)):
        t0 = time.monotonic()
        _run_boundary(["horizon", "--set", f"{key}={value}"],
                      tmp_path / f"{key}{value}", capsys, accepted)
        assert time.monotonic() - t0 < 10.0, (key, value)


@pytest.mark.parametrize("tau", [1e2, 1e4, 1e6])
def test_horizon_large_tau(tmp_path, capsys, tau):
    # the backward stretch from x0 = 20 tau is stiff: tau = 1e6 ran past a
    # 120 s timeout with DOP853.  For slow transitions the separatrix trails
    # |A(x0)|: sigma_star = 1 - 0.2/tau + 0.08/tau^2 + O(tau^-3) at the
    # default amplitudes.  Measured remainder 0.36/tau^3 at 1e2 and 1e4,
    # 1e-14 at 1e6 (the solver's tolerance)
    t0 = time.monotonic()
    _run_boundary(["horizon", "--set", f"tau={tau:g}"], tmp_path, capsys,
                  accepted=True)
    assert time.monotonic() - t0 < 10.0
    meta = (tmp_path / "horizon.csv").read_text().splitlines()
    star = float(next(ln for ln in meta if ln.startswith("# sigma_star"))
                 .split("=")[1])
    expansion = 1.0 - 0.2 / tau + 0.08 / tau ** 2
    assert abs(star - expansion) <= 1.0 / tau ** 3 + 1e-13, star - expansion


@pytest.mark.parametrize("argv", [
    ["--nrho", "1024", "--set", "grid_rho_min=1e-6"],
    ["--dt", "1e-9"],
    ["--dt", "5e-324"]])
def test_pde_verify_refuses_work_beyond_budget(tmp_path, capsys, argv):
    # grid_rho_min = 1e-6 asks for 2.3e8 CFL steps a solve and ran past a
    # 120 s timeout; a tiny dt likewise.  The refusal comes before stepping
    t0 = time.monotonic()
    assert main(["pde-verify", "--out-dir", str(tmp_path)] + argv) == 2
    assert time.monotonic() - t0 < 10.0
    err = capsys.readouterr().err
    assert "config error" in err and "point-steps" in err


@pytest.mark.parametrize("eps", [0.05, 0.04])
def test_boundary_pde_verify_eps(tmp_path, capsys, eps):
    _run_boundary(["pde-verify", "--nrho", "1024", "--set", f"eps={eps}"],
                  tmp_path, capsys, accepted=eps == 0.05)


def test_pde_verify_packet_off_grid_exit_code(tmp_path, capsys):
    # the transported packet support outruns a short grid
    rc = main(["pde-verify", "--out-dir", str(tmp_path), "--nrho", "1024",
               "--set", "grid_rho_max=5"])
    assert rc == 4
    assert "resolution failure" in capsys.readouterr().err


def test_spectrum_large_alpha(tmp_path):
    # e^{pi alpha/2} alone overflows beyond alpha ~ 452
    rc = main(["spectrum", "--out-dir", str(tmp_path),
               "--set", "alpha=500", "--set", "a_sweep=8"])
    assert rc == 0
    for name in ("spectrum_a8.csv", "spectrum_totals.json"):
        assert "nan" not in (tmp_path / name).read_text().lower()


def test_selftest_command(capsys):
    # there is no selftest subcommand: the test suite checks every closed
    # form against its quadrature twin
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err
