"""Config handling, CLI commands, file formats, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from sonicbh.cli import main
from sonicbh.config import RunConfig
from sonicbh.errors import ConfigError


# -- config --------------------------------------------------------------------

def test_config_text_roundtrip():
    cfg = RunConfig()
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg
    assert again.to_text() == cfg.to_text()


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
                {"dt": -1e-3}):
        with pytest.raises(ConfigError):
            RunConfig(**bad)
    RunConfig(nrho=30)  # its coarse twin still has 16 points
    # the same values from the command line exit 2, before any output
    for argv in (["pde-verify", "--eta-list", "2,-6"],
                 ["pde-verify", "--eta-list="],
                 ["limit", "--set", "a_sweep="],
                 ["spectrum", "--set", "alpha=-1"],
                 ["spectrum", "--set", "eps=0.7"],
                 ["spectrum", "--set", "a=0"],
                 ["horizon", "--set", "a_minus=0.5"],
                 ["pde-verify", "--nrho", "8"],
                 ["pde-verify", "--set", "grid_rho_min=0"],
                 ["pde-verify", "--tfinal", "-1"],
                 ["pde-verify", "--dt", "1"]):  # over the default grid's CFL bound
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
    first = body[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0

    # density column reproduces the closed form for the echoed sigma_star
    totals = json.loads((tmp_path / "spectrum_totals.json").read_text())
    star = totals["config"]["sigma_star"]
    from sonicbh.packets import PacketParams
    from sonicbh.spectrum import creation_density_closed
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


def test_spectrum_reproducible(tmp_path):
    args = ["spectrum", "--out-dir", str(tmp_path),
            "--set", "a_sweep=4", "--set", "n_eta=16"]
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
    assert summary["rescaling_invariant"] is True
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
    rc = main(["selftest"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
