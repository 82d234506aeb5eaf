"""Config handling, CLI commands, file formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from sonicbh.cli import _load_config, build_parser, main
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


def test_config_file_set_and_flags_in_one_parse(tmp_path):
    # the file's lines, then --set, then the flags go through one parser:
    # the last value of a key wins, and only the final config is checked,
    # so nrho=5 (below the floor of 30) is no refusal once --nrho replaces it
    path = tmp_path / "run.cfg"
    path.write_text("nrho = 512  # from the file\ntau = 2.0\n\n")
    args = build_parser().parse_args(
        ["pde-verify", "--config", str(path), "--set", "nrho=5",
         "--set", "tau=3.0", "--nrho", "256", "--eta-list=-2,-6"])
    cfg = _load_config(args)
    assert (cfg.nrho, cfg.tau, cfg.eta_list) == (256, 3.0, (-2.0, -6.0))
    with pytest.raises(ConfigError, match="nrho must be at least 30"):
        _load_config(build_parser().parse_args(
            ["pde-verify", "--config", str(path), "--set", "nrho=5"]))


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
        RunConfig(x0_horizon_max=0.0)
    # removed keys: the separatrix needs no search tolerance and no
    # bracket (the ray equation sets its interval), the wave solver derives
    # dt from tfinal and has one scheme, and the profile has one form
    for line in ("sep_tol = 1e-12", "bracket_lo = 0.3", "bracket_hi = 3",
                 "dt = 1e-3", "order = 4", "form = constant"):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.from_text(line + "\n")
    # values the flow, the packet or the wave grid would reject later
    for bad in ({"alpha": -1.0}, {"eps": 0.7}, {"a": 0.0}, {"a_minus": 0.5},
                {"a_sweep": ()}, {"eta_list": ()}, {"eta_list": (2.0, -6.0)},
                {"nrho": 8}, {"nrho": 29}, {"grid_rho_min": 0.0},
                {"grid_rho_max": 0.2}, {"tfinal": -1.0}, {"tfinal": 0.0},
                {"n_eta": 23}, {"n_eta": 1}, {"eps": 0.049},
                {"eps": 0.5001},
                # non-finite values: the first three hung, the rest ended
                # in a traceback or a later failure instead of exit 2
                {"tau": math.inf}, {"a_minus": -math.inf},
                {"x0_horizon_max": math.inf}, {"tfinal": math.inf},
                {"ode_tol": math.inf}, {"rho_min": math.inf},
                {"x0_horizon_max": math.nan}, {"grid_rho_max": math.inf}, {"alpha": math.inf},
                {"a_sweep": (4.0, math.inf)}, {"eta_list": (-math.inf,)},
                # the horizon between |A-| and |A+| at or below rho_min
                {"a_plus": -1e-6}, {"a_minus": -1e-3}, {"rho_min": 0.8}):
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
                 ["pde-verify", "--set", "tfinal=inf"],
                 ["spectrum", "--set", "alpha=inf"],
                 ["horizon", "--set", "ode_tol=inf"],
                 # removed keys
                 ["horizon", "--set", "sep_tol=1e-12"],
                 ["horizon", "--set", "bracket_lo=0.3"],
                 ["pde-verify", "--set", "dt=1e-3"],
                 ["horizon", "--set", "form=constant"]):
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
               "--set", "x0_horizon_max=4"])
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
    # the interval [min|A|, max|A|] is derived, not set: a flow whose
    # sigma* lay outside the former default bracket (0.3, 3) runs, and the
    # keys that set the bracket are unknown
    rc = main(["horizon", "--out-dir", str(tmp_path),
               "--set", "a_minus=-5", "--set", "a_plus=-4"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("sigma_star = 4.07470251591\n")
    meta = (tmp_path / "horizon.csv").read_text()
    assert "# bracket_" not in meta and "# sigma_star = 4.07470251591" in meta
    assert main(["horizon", "--out-dir", str(tmp_path / "k"),
                 "--set", "bracket_lo=1.5"]) == 2
    assert "unknown config key 'bracket_lo'" in capsys.readouterr().err


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


def test_pde_verify_reproducible(tmp_path):
    args = ["pde-verify", "--out-dir", str(tmp_path), "--nrho", "256",
            "--tfinal", "0.1", "--set", "eta_list=-2,-6"]
    assert main(list(args)) == 0
    names = ["pde_report.json", "field_eta-4_t0.csv", "field_eta-4_t0.05.csv",
             "field_eta-4_t0.1.csv"]
    first = [(tmp_path / name).read_bytes() for name in names]
    assert main(list(args)) == 0
    assert [(tmp_path / name).read_bytes() for name in names] == first
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


def test_pde_verify_imports_no_spline(tmp_path):
    # the mode reaches the nodes by a local cubic: a fresh process runs
    # pde-verify without importing scipy.interpolate
    import sonicbh
    src = str(Path(sonicbh.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from sonicbh.cli import main\n"
            f"rc = main(['pde-verify', '--out-dir', {str(tmp_path)!r}, "
            "'--nrho', '256', '--tfinal', '0.1'])\n"
            "assert rc == 0, rc\n"
            "assert 'scipy.interpolate' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "pde_report.json").exists()


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
    assert calls == [1024, 513]
    report = _strict_json(tmp_path / "pde_report.json")["report"]
    snaps = {p.name for p in tmp_path.glob("field_eta*.csv")}
    assert snaps == {"field_eta-4_t0.csv", "field_eta-4_t0.375.csv",
                     "field_eta-4_t0.75.csv"}
    assert not report["warnings"]
    assert report["solves"] == {
        "fine": {"n_rho": 1024, "dt": 0.75 / 306, "steps": 306},
        "coarse": {"n_rho": 513, "dt": 0.75 / 154, "steps": 154}}
    for row in report["rows_evolved"]:
        assert f"field_eta-4_t{row['x0']:g}.csv" in snaps
        assert row["x0"] == 0.75  # tfinal itself, a whole number of steps


def test_pde_verify_short_tfinal_records_first_step(tmp_path):
    # a tfinal below the CFL step is two steps of tfinal/2: the evolved
    # rows and the last snapshot sit at x0 = tfinal exactly
    from sonicbh.pde import RadialGrid
    cfg = RunConfig(nrho=1024)
    grid = RadialGrid.auto(cfg.grid_rho_min, cfg.grid_rho_max, 1024,
                           cfg.profile().a_max_abs, 1e-4)
    assert grid.dt == 5e-5
    assert main(["pde-verify", "--out-dir", str(tmp_path), "--nrho", "1024",
                 "--tfinal", "1e-4"]) == 0
    report = _strict_json(tmp_path / "pde_report.json")["report"]
    snaps = {p.name for p in tmp_path.glob("field_eta*.csv")}
    assert snaps == {"field_eta-4_t0.csv", "field_eta-4_t5e-05.csv",
                     "field_eta-4_t0.0001.csv"}
    assert [row["x0"] for row in report["rows_evolved"]] == [1e-4] * 3


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
        # the unresolved coarse twin is never solved, so not recorded
        assert ("coarse" in report["solves"]) == (key != "discr_estimate")


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


def _run_boundary(argv, out_dir, capsys, accepted, refused=2):
    # exit 0 with finite outputs, or a typed failure (exit code refused);
    # never an exception
    rc = main(argv + ["--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    if rc == 0:
        _assert_outputs_finite(out_dir)
    else:
        assert _TYPED[rc] in err, (argv, err)
    assert rc == (0 if accepted else refused), (argv, err)
    return err


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


_NEAR_RHO_MIN = repr(math.nextafter(-1e-3, -math.inf))


@pytest.mark.parametrize("sets,codes,names", [
    # a_minus and a_plus: negative and finite, with min|A| above rho_min =
    # 1e-3.  At the largest |A-| LSODA gives up (exit 3).  At the largest
    # |A+| sigma* = |A+| = 1.798e308 is right, and the run exits 0: the ray
    # moves O(1) per unit x0 against an |A| of 1e308
    ([f"a_minus={_NEAR_RHO_MIN}"], {0}, None),
    (["a_minus=-0.001"], {2}, "must exceed rho_min"),
    ([f"a_minus={-sys.float_info.max!r}"], {2, 3, 4}, None),
    (["a_minus=-inf"], {2}, "a_minus must be finite"),
    ([f"a_plus={_NEAR_RHO_MIN}"], {0}, None),
    (["a_plus=-0.001"], {2}, "must exceed rho_min"),
    ([f"a_plus={-sys.float_info.max!r}"], {0, 2, 3, 4}, None),
    (["a_plus=-inf"], {2}, "a_plus must be finite"),
    # tau: positive and finite
    (["tau=5e-324"], {0}, None),
    (["tau=0"], {2}, "tau must be positive"),
    ([f"tau={sys.float_info.max!r}"], {2, 3, 4}, None),
    (["tau=inf"], {2}, "tau must be finite"),
    # flows whose sigma* (4.0747, 0.21998) lay outside the former default
    # bracket (0.3, 3): right, so exit 0
    (["a_minus=-5", "a_plus=-4"], {0}, "4.07470251591"),
    (["a_minus=-0.25", "a_plus=-0.2"], {0}, "0.21998349258"),
    # x_start = 20 tau overflows to inf, LSODA hands back nan, and the
    # derived check names the separatrix solve
    (["tau=1e307"], {3}, "separatrix integration from x0 = inf failed"),
    # x0_horizon_max: positive and finite.  The horizon runs from about
    # 1e-146 to 1e298; beyond, LSODA refuses its input or hands back nan,
    # which the derived check names as a failed separatrix solve
    (["x0_horizon_max=5e-324"], {3}, "separatrix integration from x0 = 0"),
    (["x0_horizon_max=1e-300"], {3}, "separatrix integration from x0 = 0"),
    (["x0_horizon_max=1e308"], {3}, "separatrix integration from x0 = 1e+308"),
    ([f"x0_horizon_max={sys.float_info.max!r}"], {3}, "separatrix"),
    (["x0_horizon_max=0"], {2}, "x0_horizon_max must be positive"),
    (["x0_horizon_max=inf"], {2}, "x0_horizon_max must be finite"),
    # rho_min: positive and below min|A| = 0.8 (the horizon lies above it)
    (["rho_min=5e-324"], {0}, "0.893857213414"),
    ([f"rho_min={math.nextafter(0.8, 0.0)!r}"], {0}, "0.893857213414"),
    (["rho_min=0.79"], {0}, "0.893857213414"),
    (["rho_min=0.8"], {2}, "must exceed rho_min"),
    (["rho_min=0"], {2}, "rho_min must be positive"),
    # ode_tol: positive and finite; the separatrix clamps its LSODA rtol
    # to [3e-14, 1e-13], so sigma* moves by at most a few ulps
    (["ode_tol=5e-324"], {0}, "0.89385721341"),
    (["ode_tol=1e300"], {0}, "0.89385721341"),
    ([f"ode_tol={sys.float_info.max!r}"], {0}, "0.89385721341"),
    (["ode_tol=0"], {2}, "ode_tol must be positive"),
    (["ode_tol=inf"], {2}, "ode_tol must be finite"),
])
def test_boundary_horizon_flow(tmp_path, capsys, sets, codes, names):
    argv = ["horizon", "--out-dir", str(tmp_path)]
    for item in sets:
        argv += ["--set", item]
    t0 = time.monotonic()
    rc = main(argv)
    assert time.monotonic() - t0 < 10.0, sets
    out, err = capsys.readouterr()
    assert rc in codes, (sets, rc, err)
    if rc == 0:
        _assert_outputs_finite(tmp_path)
    else:
        assert _TYPED[rc] in err and "Traceback" not in err, (sets, err)
    if names is not None:
        # an exit 0 row names its sigma*
        assert names in (out if rc == 0 else err), (sets, out, err)


@pytest.mark.parametrize("ode_tol", ["1e-14", "5e-324"])
def test_pde_verify_ode_tol_below_dop853_floor(tmp_path, capsys, ode_tol):
    # solve_ivp warns on an rtol below 100 machine epsilons (2.2e-14) and
    # runs at that floor anyway; transport clamps the rtol there itself, so
    # no warning escapes.  The rows match those at the floor to 1e-10 (the
    # atol, ode_tol / 100, differs; discr_estimate, a difference of two
    # solves, moves 1e-12 relative)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _run_boundary(["pde-verify", "--nrho", "256", "--tfinal", "0.25",
                       "--set", f"ode_tol={ode_tol}"], tmp_path / ode_tol,
                      capsys, accepted=True)
        _run_boundary(["pde-verify", "--nrho", "256", "--tfinal", "0.25",
                       "--set", "ode_tol=2.220446049250313e-14"],
                      tmp_path / "floor", capsys, accepted=True)
    rows = [_strict_json(tmp_path / d / "pde_report.json")["report"]
            ["rows_evolved"]
            for d in (ode_tol, "floor")]
    for got, floor in zip(*rows):
        assert got == pytest.approx(floor, rel=1e-10, abs=0.0)


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
    ["--tfinal", "1e5"],
    ["--tfinal", "1e308", "--set", "grid_rho_min=1e-300"],
    ["--tfinal", "5e-324"],
    ["--set", "grid_rho_min=5e-324"]])
def test_pde_verify_refuses_work_beyond_budget(tmp_path, capsys, argv):
    # grid_rho_min = 1e-6 asks for 2.3e8 CFL steps a solve and ran past a
    # 120 s timeout; tfinal = 1e5 asks for 2.6e8.  The refusal comes before
    # stepping.  At tfinal = 1e308 the step count overflows a float, as it
    # does at grid_rho_min = 5e-324, where the CFL step is zero; at tfinal
    # = 5e-324 the step tfinal/2 underflows to zero.  All are config errors,
    # none a traceback
    t0 = time.monotonic()
    assert main(["pde-verify", "--out-dir", str(tmp_path)] + argv) == 2
    assert time.monotonic() - t0 < 10.0
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert any(m in err for m in ("point-steps", "overflows the step count",
                                  "smallest normal float"))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("eps", [0.05, 0.04])
def test_boundary_pde_verify_eps(tmp_path, capsys, eps):
    _run_boundary(["pde-verify", "--nrho", "1024", "--set", f"eps={eps}"],
                  tmp_path, capsys, accepted=eps == 0.05)


_SMALL = ["--nrho", "256", "--tfinal", "0.1"]
# |A(tfinal)| at the defaults, 0.87297: |A| falls over [0, tfinal], so an
# inner edge at or above it takes inflow before tfinal
_A_END = RunConfig().profile().min_abs(0.0, RunConfig().tfinal)


@pytest.mark.parametrize("argv,accepted,refused,names", [
    # nrho: 30 is the config floor, and a grid resolves eta = -4 from 90
    (["--nrho", "29"], False, 2, "nrho must be at least 30"),
    (["--nrho", "30"], False, 4, "eta = -4"),
    (["--nrho", "89"], False, 4, "eta = -4"),
    (["--nrho", "90"], True, None, None),
    # order: the solver has one scheme, so the flag is refused by argparse
    # and the key as unknown, from --set or from a config file line
    (["--order", "2"], False, "argparse", "unrecognized arguments: --order"),
    (["--order", "4"], False, "argparse", "unrecognized arguments: --order"),
    (["--set", "order=2"], False, 2, "unknown config key 'order'"),
    (["--set", "order=4"], False, 2, "unknown config key 'order'"),
    (["--config", "order = 4"], False, 2, "unknown config key 'order'"),
    # grid_rho_min: positive (the smallest floats and 1e-6 exceed the work
    # budget: test_pde_verify_refuses_work_beyond_budget); at or above
    # |A(tfinal)| the inner edge takes inflow.  Just below it, as at 0.85,
    # the edge is outflow, but the packet support, which hugs the
    # separatrix (0.894 at x0 = 0, 0.830 at tfinal), crosses it
    (["--set", "grid_rho_min=0"], False, 2, "grid_rho_min must be positive"),
    (["--set", "grid_rho_min=0.1"] + _SMALL, True, None, None),
    (["--set", "grid_rho_min=0.85"], False, 4, "below grid_rho_min"),
    (["--set", f"grid_rho_min={math.nextafter(_A_END, 0.0)!r}"], False, 4,
     "below grid_rho_min"),
    (["--set", f"grid_rho_min={_A_END!r}"], False, 2,
     "inner edge takes inflow"),
    (["--set", "grid_rho_min=0.9"], False, 2, "inner edge takes inflow"),
    (["--tfinal", "3", "--set", "grid_rho_min=0.82"], False, 2,
     "inner edge takes inflow"),
])
def test_boundary_pde_verify_grid(tmp_path, capsys, argv, accepted, refused,
                                  names):
    out = tmp_path / "out"
    if argv[0] == "--config":  # the rest is the config file's one line
        (tmp_path / "run.cfg").write_text(argv[1] + "\n")
        argv = ["--config", str(tmp_path / "run.cfg")]
    t0 = time.monotonic()
    if refused == "argparse":
        with pytest.raises(SystemExit) as exc:
            main(["pde-verify"] + argv + ["--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
    else:
        err = _run_boundary(["pde-verify"] + argv, out, capsys, accepted,
                            refused)
    assert time.monotonic() - t0 < 10.0, argv
    if names is not None:
        assert names in err, (argv, err)
        assert not out.exists(), argv


@pytest.mark.parametrize("eta,accepted", [
    # the x0 = 0 rows are closed, so eta_list has no range of its own: a
    # sample is refused before any work where its closed eikonal density
    # (or that density's |F|^2 factor) is no positive normal float, or its
    # deviation from the exact mode is not finite.  At 1e-300 the density
    # underflows and the deviation overflows; from about 1e123 (a = 32)
    # |F|^2 is subnormal, before the density's eta^2 overflows at 1.3e154
    (-1e-300, False),
    (-1e-8, True),
    (-1e5, True),
    (-1e300, False),
    (-sys.float_info.max, False),
])
def test_boundary_pde_verify_eta_list(tmp_path, capsys, eta, accepted):
    t0 = time.monotonic()
    err = _run_boundary(["pde-verify", f"--eta-list={eta!r},-2"] + _SMALL,
                        tmp_path, capsys, accepted)
    assert time.monotonic() - t0 < 10.0
    if accepted:
        report = _strict_json(tmp_path / "pde_report.json")["report"]
        assert not report["warnings"]
        assert report["rows_initial"][0]["eta"] == eta
    else:
        assert f"eta_list value {eta!r}" in err, err
        assert not any(tmp_path.iterdir())


def test_pde_verify_alpha_beyond_normal_density(tmp_path, capsys):
    # from alpha ~ 235 at the defaults the packet transform |F|^2 behind
    # the x0 = 0 densities is subnormal; at 2000 it is zero, and the run
    # used to take a minute and end on a NaN.  It is refused before any
    # quadrature, naming alpha
    t0 = time.monotonic()
    err = _run_boundary(["pde-verify", "--set", "alpha=2000"] + _SMALL,
                        tmp_path, capsys, accepted=False)
    assert time.monotonic() - t0 < 10.0
    assert "alpha = 2000 is too large" in err, err
    assert not any(tmp_path.iterdir())


def test_boundary_pde_verify_nrho_at_the_work_budget(tmp_path, capsys,
                                                    monkeypatch):
    # nrho has no ceiling of its own: the work budget sets it.  The largest
    # nrho within MAX_POINT_STEPS at the defaults (56 780 points, some
    # minutes of stepping) is accepted up to its first solve; one point
    # more is refused before any work
    from sonicbh import pde
    cfg = RunConfig()

    def work(n):
        return pde.predicted_point_steps(
            [pde.RadialGrid.auto(cfg.grid_rho_min, cfg.grid_rho_max, m,
                                 cfg.profile().a_max_abs, cfg.tfinal)
             for m in (n, n // 2 + 1)],
            cfg.tfinal)

    lo, hi = cfg.nrho, 2 ** 20
    assert work(lo) <= pde.MAX_POINT_STEPS < work(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if work(mid) <= pde.MAX_POINT_STEPS else (lo, mid)

    class Stepping(Exception):
        pass

    def first_solve(*args, **kwargs):
        raise Stepping

    monkeypatch.setattr(pde, "solve_mode", first_solve)
    t0 = time.monotonic()
    with pytest.raises(Stepping):
        main(["pde-verify", "--out-dir", str(tmp_path), "--nrho", str(lo)])
    assert main(["pde-verify", "--out-dir", str(tmp_path),
                 "--nrho", str(hi)]) == 2
    assert time.monotonic() - t0 < 10.0
    assert "point-steps" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_pde_verify_packet_off_grid_exit_code(tmp_path, capsys):
    # the transported packet support outruns a short grid, or crosses an
    # inner edge set above the horizon; the message names the edge crossed
    for setting, edge, other in (("grid_rho_max=5", "grid_rho_max",
                                  "grid_rho_min"),
                                 ("grid_rho_min=0.85", "grid_rho_min",
                                  "grid_rho_max")):
        rc = main(["pde-verify", "--out-dir", str(tmp_path / edge),
                   "--nrho", "1024", "--set", setting])
        assert rc == 4, setting
        err = capsys.readouterr().err
        assert "resolution failure" in err, err
        assert edge in err and other not in err, err


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
