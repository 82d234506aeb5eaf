"""Config handling, CLI commands, file formats, exit codes, determinism."""

import ast
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from sonicbh import cli, errors, pde, spectrum
from sonicbh.cli import _load_config, build_parser, main
from sonicbh.config import RunConfig, read_pairs
from sonicbh.errors import ConfigError
from sonicbh.packets import A_MIN, EPS_MAX
from sonicbh.output import format_cell
from sonicbh.pde import EPS_MIN, NRHO_MAX, NRHO_MIN, inner_edge
from sonicbh.spectrum import A_SWEEP_MAX, MAX_N_ETA, N_ETA_MIN


# -- config --------------------------------------------------------------------

def _config_of_file(directory, text: str) -> RunConfig:
    """The defaults overridden by the key=value lines of a file of text."""
    path = directory / "run.cfg"
    path.write_text(text)
    return RunConfig().with_overrides(read_pairs(path))


def test_config_text_roundtrip(tmp_path):
    # every key, spelled as the outputs echo it (floats at 17 digits),
    # parses back to the same config
    cfg = RunConfig()
    lines = []
    for key, v in cfg.to_dict().items():
        if isinstance(v, list):
            v = ",".join(format_cell(x) for x in v)
        elif isinstance(v, float):
            v = format_cell(v)
        lines.append(f"{key} = {v}")
    assert _config_of_file(tmp_path, "\n".join(lines) + "\n") == cfg


def test_config_parsing_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("a_minus = -1.1\n# comment line\ntau = 2.0\n"
                    "a_sweep = 4,8,16\nnrho = 512\n")
    cfg = RunConfig().with_overrides(read_pairs(path))
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
    # a file value below the floor is no refusal either once a later pair,
    # from --set or from the flag, replaces it; as the last value it is
    path.write_text("nrho = 10  # replaced below\n")
    for later in (["--nrho", "256"], ["--set", "nrho=256"]):
        cfg = _load_config(build_parser().parse_args(
            ["pde-verify", "--config", str(path)] + later))
        assert cfg.nrho == 256, later
    for later in ([], ["--set", "nrho=256", "--set", "nrho=10"]):
        with pytest.raises(ConfigError, match="nrho must be at least 30"):
            _load_config(build_parser().parse_args(
                ["pde-verify", "--config", str(path)] + later))


def test_config_rejects_bad_input(tmp_path, capsys, tmp_path_factory):
    # the config files go apart from tmp_path, the out_dir checked below
    cfg_dir = tmp_path_factory.mktemp("cfg")
    with pytest.raises(ConfigError):
        _config_of_file(cfg_dir, "unknown_key = 3\n")
    with pytest.raises(ConfigError):
        _config_of_file(cfg_dir, "alpha\n")
    with pytest.raises(ConfigError):
        _config_of_file(cfg_dir, "tau = banana\n")
    with pytest.raises(ConfigError):
        RunConfig(a_sweep=(8.0, 4.0))
    with pytest.raises(ConfigError):
        RunConfig(x0_horizon_max=0.0)
    # removed keys: the separatrix needs no search tolerance and no
    # bracket (the ray equation sets its interval), the wave solver derives
    # dt from tfinal and has one scheme, and the profile has one form,
    # the wave grid's inner edge is derived from the flow, and the ray
    # tolerance and capture radius are fixed, and each packet takes its
    # rate from a_sweep (pde-verify from its own rates)
    for line in ("sep_tol = 1e-12", "bracket_lo = 0.3", "bracket_hi = 3",
                 "dt = 1e-3", "order = 4", "form = constant",
                 "grid_rho_min = 0.3", "ode_tol = 1e-8", "rho_min = 1e-4",
                 "a = 8"):
        with pytest.raises(ConfigError, match="unknown config key"):
            _config_of_file(cfg_dir, line + "\n")
    # values the flow, the packet or the wave grid would reject later
    for bad in ({"alpha": -1.0}, {"eps": 0.7}, {"a_minus": 0.5},
                {"a_sweep": ()}, {"eta_list": ()}, {"eta_list": (2.0, -6.0)},
                {"nrho": 8}, {"nrho": 29}, {"nrho": NRHO_MAX + 1},
                {"grid_rho_max": 0.0},
                {"tfinal": -1.0}, {"tfinal": 0.0},
                {"n_eta": 23}, {"n_eta": 1}, {"n_eta": MAX_N_ETA + 1},
                {"eps": 0.049}, {"eps": 0.5001},
                # non-finite values: the first three hung, the rest ended
                # in a traceback or a later failure instead of exit 2
                {"tau": math.inf}, {"a_minus": -math.inf},
                {"x0_horizon_max": math.inf}, {"tfinal": math.inf},
                {"x0_horizon_max": math.nan}, {"grid_rho_max": math.inf}, {"alpha": math.inf},
                {"a_sweep": (4.0, math.inf)}, {"eta_list": (-math.inf,)},
                # a_sweep values not positive, or whose packet's squared
                # support (45/a)^2 exceeds the largest float
                {"a_sweep": (0.0, 8.0)}, {"a_sweep": (-1.0,)},
                {"a_sweep": (5e-324, 8.0)},
                # the horizon between |A-| and |A+| at or below the
                # capture radius 1e-3
                {"a_plus": -1e-6}, {"a_minus": -1e-3}):
        with pytest.raises(ConfigError):
            RunConfig(**bad)
    RunConfig(nrho=30)  # its coarse twin still has 16 points
    RunConfig(n_eta=24)
    # the budget bounds n_eta x len(a_sweep): all of it for one a value,
    # a fifth of it at the five default values
    RunConfig(n_eta=MAX_N_ETA, a_sweep=(8.0,))
    RunConfig(n_eta=MAX_N_ETA // 5)
    with pytest.raises(ConfigError, match=f"at most {MAX_N_ETA // 5} at 5"):
        RunConfig(n_eta=MAX_N_ETA // 5 + 1)
    RunConfig(eps=0.05)
    # the same values from the command line exit 2, before any output
    for argv in (["pde-verify", "--eta-list", "2,-6"],
                 ["pde-verify", "--eta-list="],
                 ["limit", "--set", "a_sweep="],
                 ["spectrum", "--set", "alpha=-1"],
                 ["spectrum", "--set", "eps=0.7"],
                 # below A_MIN the numeric norm's nodes (45/a) overflowed
                 # behind five numpy RuntimeWarnings before exit 3
                 ["spectrum", "--set", "a_sweep=5e-324,8"],
                 ["spectrum", "--set", "a_sweep=0"],
                 ["limit", "--set", "a_sweep=-1,8"],
                 ["spectrum", "--set", "n_eta=1"],
                 ["spectrum", "--set", "eps=0.002"],
                 ["pde-verify", "--nrho", "1024", "--set", "eps=0.04"],
                 ["horizon", "--set", "a_minus=0.5"],
                 ["pde-verify", "--nrho", "8"],
                 ["pde-verify", "--set", "grid_rho_max=0.2"],
                 ["pde-verify", "--set", "grid_rho_max=0.5"],
                 ["pde-verify", "--tfinal", "-1"],
                 ["pde-verify", "--set", "tfinal=inf"],
                 ["spectrum", "--set", "alpha=inf"],
                 # removed keys
                 ["horizon", "--set", "sep_tol=1e-12"],
                 ["horizon", "--set", "bracket_lo=0.3"],
                 ["pde-verify", "--set", "dt=1e-3"],
                 ["pde-verify", "--set", "grid_rho_min=0"],
                 ["horizon", "--set", "form=constant"],
                 ["horizon", "--set", "ode_tol=1e-8"],
                 ["horizon", "--set", "rho_min=1e-4"],
                 ["spectrum", "--set", "a=8"]):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2, argv
        assert "config error" in capsys.readouterr().err, argv
        assert not any(tmp_path.iterdir()), argv


_EPS_REFUSAL = ("eps must lie in [0.05, 1/2]: below 0.05 the packet edge "
                "s^eps needs quadrature nodes smaller than the smallest float")


@pytest.mark.parametrize("key,bound,past,message", [
    ("eps", EPS_MIN, math.nextafter(EPS_MIN, 0.0), _EPS_REFUSAL),
    ("eps", EPS_MAX, math.nextafter(EPS_MAX, 1.0), _EPS_REFUSAL),
    ("n_eta", N_ETA_MIN, N_ETA_MIN - 1, "n_eta must be at least 24"),
    ("nrho", NRHO_MIN, NRHO_MIN - 1, "nrho must be at least 30"),
    ("nrho", NRHO_MAX, NRHO_MAX + 1, "nrho must be at most 8192, where the "
                                     "wave budget still bounds the run time"),
    ("a_sweep", (A_SWEEP_MAX,), (math.nextafter(A_SWEEP_MAX, math.inf),),
     "a_sweep must be at most 6.703903964971299e+153: above it limit's "
     "a^-2 error term is subnormal"),
])
def test_config_bounds_from_their_modules(key, bound, past, message):
    # each bound is defined beside the arithmetic that sets it; RunConfig
    # takes it and refuses one step past it with a message that names it
    RunConfig(**{key: bound})
    with pytest.raises(ConfigError) as exc:
        RunConfig(**{key: past})
    assert str(exc.value) == message


def test_config_checks_state_no_number_of_their_own():
    # every bound RunConfig applies comes from the module that derives it
    post_init = ast.parse(textwrap.dedent(
        inspect.getsource(RunConfig.__post_init__)))
    indices = {id(node) for sub in ast.walk(post_init)
               if isinstance(sub, ast.Subscript)
               for node in ast.walk(sub.slice)}
    numbers = {node.value for node in ast.walk(post_init)
               if isinstance(node, ast.Constant) and id(node) not in indices
               and type(node.value) in (int, float)}
    assert numbers == {0.0}, numbers


# -- commands --------------------------------------------------------------------

def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha = -3 oops\n")
    rc = main(["horizon", "--config", str(bad)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["bytes.cfg", "", "missing.cfg"],
                         ids=["not-utf8", "empty-path", "missing"])
def test_unreadable_config_exit_code(tmp_path, capsys, name):
    # a file that is no UTF-8 text, the empty path and a missing file each
    # refuse the run before any output
    (tmp_path / "bytes.cfg").write_bytes(b"tau = 2.0\n\xff\n")
    out = tmp_path / "out"
    rc = main(["horizon", "--config", str(tmp_path / name) if name else "",
               "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "config error: cannot read config")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("nrho", "x"), ("tfinal", "1e-1x")])
def test_flag_value_parsed_as_its_key(tmp_path, capsys, flag, value):
    # a flag's value goes through the config parser, so one that does not
    # parse gives the config error of its --set spelling
    out = tmp_path / "out"
    for argv in ([f"--{flag}", value], ["--set", f"{flag}={value}"]):
        assert main(["pde-verify"] + argv + ["--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: bad value for {flag}: {value!r}"), argv
        assert not out.exists()


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
    # the x0 = 0 row is +0, not -0
    zero = [ln for ln in lines if ln.split(",")[0] in ("0", "-0")]
    assert len(zero) == 1 and zero[0].startswith("0,"), zero


def test_horizon_bracket_failure_exit_code(tmp_path, capsys):
    # the interval [min|A|, max|A|] is derived, not set: a flow whose
    # sigma* lay outside the former default bracket (0.3, 3) runs, and the
    # keys that set the bracket are unknown
    rc = main(["horizon", "--out-dir", str(tmp_path),
               "--set", "a_minus=-5", "--set", "a_plus=-4"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("sigma_star = 4.07470251591\n")
    # the echoed value; a 25-digit mpmath solve gives 4.0747025159068946
    meta = (tmp_path / "horizon.csv").read_text()
    assert "# bracket_" not in meta and "# sigma_star = 4.074702515906" in meta
    assert main(["horizon", "--out-dir", str(tmp_path / "k"),
                 "--set", "bracket_lo=1.5"]) == 2
    assert "unknown config key 'bracket_lo'" in capsys.readouterr().err


def test_spectrum_command(tmp_path):
    rc = main(["spectrum", "--out-dir", str(tmp_path),
               "--set", "a_sweep=4,8", "--set", "n_eta=24"])
    assert rc == 0
    body = [ln for ln in (tmp_path / "spectrum_a4.csv").read_text().splitlines()
            if not ln.startswith("#")]
    # one projection column pair: the pair is the split (c1, -c1)
    assert body[0] == "eta,density,c1_re,c1_im"
    assert body[1] == "0,0,0,0"  # +0 throughout, no -0

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
                 (tmp_path / "packet_profile_a4.csv").read_text().splitlines()
                 if not ln.startswith("#")]
    assert prof_body[0] == "sigma,re,im,abs"
    assert float(prof_body[1].split(",")[3]) == 0.0  # zero at sigma_star
    norm_body = [ln for ln in
                 (tmp_path / "norm_table.csv").read_text().splitlines()
                 if not ln.startswith("#")]
    assert norm_body[0] == "a,norm_closed,norm_numeric,rel_err"
    assert all(float(ln.split(",")[3]) < 1e-8 for ln in norm_body[1:])


def test_spectrum_failure_writes_no_summary(tmp_path, capsys, monkeypatch):
    # a rate that fails ends the run in exit 3 after the earlier rates'
    # files and its own profile; the norm table and the totals file sum up
    # every rate, so neither is written
    real = spectrum.build_spectrum

    def fail_second(p, n_eta):
        if p.a == 8.0:
            raise errors.ToleranceError("density identity violated")
        return real(p, n_eta=n_eta)
    monkeypatch.setattr(spectrum, "build_spectrum", fail_second)
    rc = main(["spectrum", "--out-dir", str(tmp_path),
               "--set", "a_sweep=4,8,16", "--set", "n_eta=24"])
    assert rc == 3
    assert capsys.readouterr().err == ("numerical failure: density identity "
                                       "violated\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "packet_profile_a4.csv", "packet_profile_a8.csv", "spectrum_a4.csv"]


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


# (a, density_exact, density_eikonal, dev_rel, discr_estimate) of the
# evolved rows of pde-verify --nrho 256 --tfinal 0.1, the repr digits the
# stepper gave before its right-hand side was bound once per table of A(x0).
# A change meant to move the stepper's arithmetic updates them, and records
# the update and its size in CHANGES.md.
_PINNED_EVOLVED_ROWS = [
    (8.0, 0.024957785414293866, 0.024107872576118745, 0.03525457650780203,
     5.3418949818282344e-05),
    (16.0, 0.003494388512142732, 0.0033719164732554817, 0.0363211959307543,
     5.811238635279418e-05),
    (32.0, 0.0005129928632921911, 0.0004954774249873834,
     0.03535062834649563, 5.848294217946683e-05),
]


def test_pde_verify_evolved_rows_are_pinned(tmp_path):
    args = ["pde-verify", "--out-dir", str(tmp_path), "--nrho", "256",
            "--tfinal", "0.1"]
    assert main(args) == 0
    report = json.loads((tmp_path / "pde_report.json").read_text())
    rows = [(r["a"], r["density_exact"], r["density_eikonal"], r["dev_rel"],
             r["discr_estimate"]) for r in report["report"]["rows_evolved"]]
    assert rows == _PINNED_EVOLVED_ROWS


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


def test_commands_import_no_scipy(tmp_path):
    # scipy is a test dependency only: a fresh process imports the CLI and
    # runs every command without loading scipy or any of its submodules,
    # and under -W error, so that any warning fails the run
    import sonicbh
    src = str(Path(sonicbh.__file__).resolve().parents[1])
    code = ("import sys\n"
            "import sonicbh.cli\n"
            "for argv in sys.argv[2:]:\n"
            "    name, *rest = argv.split()\n"
            "    rc = sonicbh.cli.main([name, '--out-dir', sys.argv[1] + '/' + "
            "name] + rest)\n"
            "    assert rc == 0, (argv, rc)\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, str(tmp_path), "horizon",
         "spectrum", "limit", "pde-verify --nrho 256 --tfinal 0.1"],
        env=env, timeout=120, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "horizon", "limit", "pde-verify", "spectrum"]
    assert (tmp_path / "pde-verify" / "pde_report.json").exists()


def test_spectrum_refuses_n_eta_beyond_budget(tmp_path, capsys):
    # np.geomspace raised a raw ValueError at n_eta = 1e20, after two of
    # the outputs were written; beyond the run's budget, n_eta times the
    # five default a_sweep values, the refusal comes before any work and
    # names the largest n_eta for the sweep
    for n_eta in (MAX_N_ETA // 5 + 1, MAX_N_ETA + 1, 10 ** 20):
        out = tmp_path / str(n_eta)
        assert main(["spectrum", "--set", f"n_eta={n_eta}",
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: n_eta must be at most "
                              f"{MAX_N_ETA // 5} at 5 a_sweep values"), err
        assert not out.exists()


def test_limit_command(tmp_path, capsys):
    rc = main(["limit", "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "limit_summary.json").read_text())
    assert summary["variant_ratio"] == pytest.approx(2.0 ** -0.25, rel=1e-10)
    assert summary["final_relative_residual"] < 1e-4
    assert summary["warnings"] == []
    body = [ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert body[0] == "a,total,total_normalized,limit,residual"
    assert len(body) == 1 + 5


def test_limit_short_sweep_warns(tmp_path, capsys):
    # the warning goes to stdout and into the summary
    rc = main(["limit", "--out-dir", str(tmp_path), "--set", "a_sweep=4,8"])
    assert rc == 0
    assert "sweep too short" in capsys.readouterr().out
    summary = json.loads((tmp_path / "limit_summary.json").read_text())
    assert summary["warnings"] == [
        "sweep too short for a meaningful slope fit"]


def test_limit_null_slope_warns(tmp_path, capsys):
    # at these a every normalised total equals the limit, so no residual
    # is left to fit: the slope is null, and a warning says why
    rc = main(["limit", "--out-dir", str(tmp_path),
               "--set", "a_sweep=1e101,1e102,1e103"])
    assert rc == 0
    assert "warning: residual_slope is null" in capsys.readouterr().out
    summary = json.loads((tmp_path / "limit_summary.json").read_text())
    assert summary["residual_slope"] is None
    assert summary["warnings"] == [
        "residual_slope is null: fewer than two a_sweep values leave a "
        "nonzero residual to fit"]


_SWEEP_MAX = 2.0 ** 511  # 1 / sqrt(the smallest normal float)


@pytest.mark.parametrize("a_sweep,accepted", [
    # limit fits its last three a against a^-2, which is normal up to
    # 2^511.  Above it 1e154,1e155,1e156 raised numpy's LinAlgError, 1e200
    # printed an overflow RuntimeWarning, and 1.7e308 raised
    # ZeroDivisionError where 2a overflows; all are refused before output
    (f"4,8,{_SWEEP_MAX!r}", True),
    (f"1e153,2e153,{_SWEEP_MAX!r}", True),
    (f"4,8,{math.nextafter(_SWEEP_MAX, math.inf)!r}", False),
    ("1e154,1e155,1e156", False),
    ("4,8,1e200", False),
    ("4,1.7e308", False),
])
def test_boundary_limit_a_sweep_ceiling(tmp_path, capsys, a_sweep, accepted):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _run_boundary(["limit", "--set", f"a_sweep={a_sweep}"],
                            tmp_path / "out", capsys, accepted=accepted)
    if accepted:
        assert err == "", err
    else:
        assert err.startswith(f"config error: a_sweep must be at most "
                              f"{_SWEEP_MAX!r}"), err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("eps", [0.05, 0.25])
@pytest.mark.parametrize("a", ["1e102", "5e120"])
def test_spectrum_at_large_a(tmp_path, capsys, a, eps):
    # Simpson's last grid step cubed overflowed here, and the -inf
    # total_grid ended the run in exit 3 after its tables were written;
    # on the grid over a power of two near a the rule stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["spectrum", "--out-dir", str(tmp_path), "--set",
                   f"a_sweep={a}", "--set", "n_eta=24", "--set", f"eps={eps}"])
    assert rc == 0, capsys.readouterr().err
    totals = json.loads((tmp_path / "spectrum_totals.json").read_text())
    row = totals["totals"][f"{float(a):g}"]
    # the table reaches 50 (a + 1), short of the tail total_number books
    ratio = row["total_grid"] / (row["total"] - row["tail_value"])
    assert abs(ratio - 1.0) < 0.03, ratio


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
    # the inner edge 0.64 and max|A| = 1 over [0, 0.75]: 197 710
    # point-steps, as test_step_counts_at_the_defaults counts them
    assert report["solves"] == {
        "fine": {"n_rho": 1024, "dt": 0.75 / 154, "steps": 154},
        "coarse": {"n_rho": 513, "dt": 0.75 / 78, "steps": 78}}
    assert sum(s["n_rho"] * s["steps"]
               for s in report["solves"].values()) == 197_710
    for row in report["rows_evolved"]:
        assert f"field_eta-4_t{row['x0']:g}.csv" in snaps
        assert row["x0"] == 0.75  # tfinal itself, a whole number of steps


def test_pde_verify_short_tfinal_records_first_step(tmp_path):
    # a tfinal below the CFL step is two steps of tfinal/2: the evolved
    # rows and the last snapshot sit at x0 = tfinal exactly
    from sonicbh.pde import RadialGrid
    cfg = RunConfig(nrho=1024)
    grid = RadialGrid.auto(inner_edge(cfg.profile()), cfg.grid_rho_max, 1024,
                           cfg.profile(), 1e-4)
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
        for rows in ([(1.0, 2.0), (3.0, bad)], np.array([[1.0, 2.0], [3.0, bad]])):
            with pytest.raises(ToleranceError,
                               match=f"bad.csv: non-finite value {bad}"):
                write_csv(tmp_path / "bad.csv", ["a", "b"], rows)
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
    # a 2-D array is taken as it is, but checked the same way
    for rows in ([(1.0, 2.0, 3.0)] * 4, [(1.0,)] * 6, [1.0, 2.0],
                 [(1.0, 2.0), (3.0, 4.0, 5.0)], np.ones((4, 3)), np.ones(4)):
        with pytest.raises(ValueError, match=r"wide\.csv: rows of shape \("):
            write_csv(tmp_path / "wide.csv", ["a", "b"], rows)
        assert not (tmp_path / "wide.csv").exists()
    with pytest.raises(ValueError, match=r"rows of shape \(5,\) under 6"):
        write_csv(tmp_path / "wide.csv", list("abcdef"), np.ones((4, 5)))
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
    # |A+| = 1e-6 below the capture radius rho_min = 1e-3 was accepted and
    # ran past a 20 s timeout; just above it the horizon takes under a
    # second
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
    # a_minus and a_plus: negative and finite, with min|A| above the
    # capture radius rho_min = 1e-3.  At the largest |A-| the profile's
    # mid + amp cancels to 0 far
    # out, so the solve's start rho = |A| is 0 and it fails (exit 3).  At the
    # largest |A+| sigma* = |A+| = 1.798e308 is right, and the run exits 0:
    # the ray moves O(1) per unit x0 against an |A| of 1e308
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
    # at the largest tau the start derived from the contraction lies at
    # x0 = 49.3, and sigma* = |A(0)| = 1 to every digit
    ([f"tau={sys.float_info.max!r}"], {0}, None),
    (["tau=inf"], {2}, "tau must be finite"),
    # flows whose sigma* (4.0747, 0.21998) lay outside the former default
    # bracket (0.3, 3): right, so exit 0
    (["a_minus=-5", "a_plus=-4"], {0}, "4.07470251591"),
    # (a 25-digit mpmath solve gives 0.21998349257929)
    (["a_minus=-0.25", "a_plus=-0.2"], {0}, "0.219983492579"),
    # sigma* = 1 - 0.2/tau + ... = 1
    (["tau=1e307"], {0}, "sigma_star = 1\n"),
    # x0_horizon_max: positive and finite.  Down to the smallest float the
    # horizon is sampled and sigma* is the default's; from 1e308 a step no
    # longer moves x0
    (["x0_horizon_max=5e-324"], {0}, "0.893857213413"),
    (["x0_horizon_max=1e-300"], {0}, "0.893857213413"),
    (["x0_horizon_max=1e308"], {3}, "separatrix integration from x0 = 1e+308"),
    ([f"x0_horizon_max={sys.float_info.max!r}"], {3}, "separatrix"),
    (["x0_horizon_max=0"], {2}, "x0_horizon_max must be positive"),
    (["x0_horizon_max=inf"], {2}, "x0_horizon_max must be finite"),
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
    ["--tfinal", "30", "--set", f"a_plus={_NEAR_RHO_MIN}"],
    ["--tfinal", "1e5"],
    ["--tfinal", "1e308"],
    ["--tfinal", "5e-324"],
    ["--nrho", "8192", "--set", f"a_plus={_NEAR_RHO_MIN}"]])
def test_pde_verify_refuses_work_beyond_budget(tmp_path, capsys, argv):
    # |A+| just above rho_min puts the derived inner edge at 8e-4, where
    # the drift reaches 750: to tfinal = 30 at 1024 points, or to the
    # default tfinal at 8192, the solves ask for 1.7 and 2.8 times the
    # budget; tfinal = 1e5 asks for 2.3e7 steps a solve.  The refusal comes
    # before stepping.  At tfinal = 1e308 the step count overflows a float;
    # at tfinal = 5e-324 the step tfinal/2 underflows to zero.  All are
    # config errors, none a traceback
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
# the wave grid's inner edge at the defaults, 0.8 min(|A-|, |A+|) = 0.64
_EDGE = inner_edge(RunConfig().profile())


@pytest.mark.parametrize("argv,accepted,refused,names", [
    # nrho: 30 is the config floor, and a grid resolves eta = -4 from 87
    (["--nrho", "29"], False, 2, "nrho must be at least 30"),
    (["--nrho", "30"], False, 4, "eta = -4"),
    (["--nrho", "86"], False, 4, "eta = -4"),
    (["--nrho", "87"], True, None, None),
    # order: the solver has one scheme, so the flag is refused by argparse
    # and the key as unknown, from --set or from a config file line
    (["--order", "2"], False, "argparse", "unrecognized arguments: --order"),
    (["--order", "4"], False, "argparse", "unrecognized arguments: --order"),
    (["--set", "order=2"], False, 2, "unknown config key 'order'"),
    (["--set", "order=4"], False, 2, "unknown config key 'order'"),
    (["--config", "order = 4"], False, 2, "unknown config key 'order'"),
    # grid_rho_min: the inner edge is derived from the flow, so the key is
    # unknown.  grid_rho_max: above the edge, where 1024 points resolve
    # eta = -4 up to 101 (the coarse twin, up to 50, leaves the rows
    # without an estimate beyond), and at the default edge
    (["--set", "grid_rho_min=0"], False, 2,
     "unknown config key 'grid_rho_min'"),
    (["--set", "grid_rho_max=100"], True, None, None),
    (["--set", "grid_rho_min=0.3"], False, 2,
     "unknown config key 'grid_rho_min'"),
    (["--config", "grid_rho_min = 0.3"], False, 2,
     "unknown config key 'grid_rho_min'"),
    # at the edge and one float above it, where the spacing asks for steps
    # beyond the work budget; short of the transported packet support
    # (6.5 at x0 = 0 for a = 8); too coarse for eta = -4, up to the largest
    # float; and not finite
    (["--set", f"grid_rho_max={_EDGE!r}"], False, 2,
     "grid_rho_max must exceed the wave grid's inner edge 0.64"),
    (["--set", f"grid_rho_max={math.nextafter(_EDGE, math.inf)!r}"], False,
     2, "point-steps"),
    (["--set", "grid_rho_max=5"], False, 4, "beyond grid_rho_max"),
    (["--set", "grid_rho_max=102"], False, 4, "eta = -4"),
    (["--set", f"grid_rho_max={sys.float_info.max!r}"], False, 4,
     "eta = -4"),
    (["--set", "grid_rho_max=inf"], False, 2, "grid_rho_max must be finite"),
    # tfinal: positive and finite; from the smallest float up to twice the
    # smallest normal its step tfinal/2 is no normal float; by 3 the
    # packet's outer tail has left the default grid; at the largest float
    # the step count overflows
    (["--tfinal", "0"], False, 2, "tfinal must be positive"),
    (["--tfinal", "5e-324"], False, 2, "smallest normal float"),
    (["--tfinal", "1e-300"] + _SMALL[:2], True, None, None),
    (["--tfinal", "2.5"] + _SMALL[:2], True, None, None),
    (["--tfinal", "3"] + _SMALL[:2], False, 4, "beyond grid_rho_max"),
    (["--tfinal", repr(sys.float_info.max)], False, 2,
     "overflows the step count"),
    (["--tfinal", "inf"], False, 2, "tfinal must be finite"),
    # from about 8.8e305, where the half-step count is finite but twice it
    # is not, the step count overflows too
    (["--tfinal", "1e306"], False, 2, "overflows the step count"),
    (["--tfinal", "1.5e306"], False, 2, "overflows the step count"),
    (["--tfinal", "1.6e306"], False, 2, "overflows the step count"),
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


def test_grid_rho_max_refuses_only_pde_verify(tmp_path, capsys):
    # the wave grid's inner edge, 0.8 min(|A-|, |A+|), reaches the default
    # grid_rho_max = 9 at |A+| = 11.25: pde-verify refuses the flow before
    # any output, naming grid_rho_max, while horizon, which has no wave
    # grid, runs it (sigma* = 11.2719)
    flow = ["--set", "a_minus=-12", "--set", "a_plus=-11.25"]
    assert main(["horizon", "--out-dir", str(tmp_path / "h")] + flow) == 0
    assert "sigma_star = 11.2719" in capsys.readouterr().out
    out = tmp_path / "p"
    assert main(["pde-verify", "--out-dir", str(out)] + flow) == 2
    assert ("grid_rho_max must exceed the wave grid's inner edge 9"
            in capsys.readouterr().err)
    assert not out.exists()


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
    # below NRHO_MAX the work budget sets nrho's ceiling.  At tfinal =
    # 1000 the largest nrho within MAX_POINT_STEPS (2644 points, some
    # minutes of stepping) is accepted up to its first solve; one point
    # more is refused before any work
    from sonicbh import pde
    cfg = RunConfig(tfinal=1000.0)
    edge = inner_edge(cfg.profile())

    def work(n):
        return pde.predicted_point_steps(
            [pde.RadialGrid.auto(edge, cfg.grid_rho_max, m, cfg.profile(),
                                 cfg.tfinal)
             for m in (n, n // 2 + 1)],
            cfg.tfinal)

    lo, hi = cfg.nrho, pde.NRHO_MAX
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
        main(["pde-verify", "--out-dir", str(tmp_path), "--nrho", str(lo),
              "--tfinal", "1000"])
    assert main(["pde-verify", "--out-dir", str(tmp_path),
                 "--nrho", str(hi), "--tfinal", "1000"]) == 2
    assert time.monotonic() - t0 < 10.0
    assert "point-steps" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_pde_verify_budget_counts_the_fixed_step_cost(tmp_path, capsys):
    # at 87 points a step's fixed cost dominates its time.  tfinal = 2e5
    # takes 3.4e6 fine steps, 3.8e8 plain point-steps with the twin's,
    # which the former budget of 1.2e9 admitted (about 6 minutes of
    # stepping); counting N_STEP for each step puts it at 5.0e9, and it is
    # refused before any work
    profile = RunConfig().profile()
    grids = [pde.RadialGrid.auto(inner_edge(profile), 9.0, n, profile, 2e5)
             for n in (87, 44)]
    assert sum(g.n_rho * g.steps(2e5) for g in grids) <= 1.2e9
    assert pde.predicted_point_steps(grids, 2e5) > pde.MAX_POINT_STEPS
    t0 = time.monotonic()
    out = tmp_path / "out"
    assert main(["pde-verify", "--nrho", "87", "--tfinal", "2e5",
                 "--out-dir", str(out)]) == 2
    assert time.monotonic() - t0 < 10.0
    err = capsys.readouterr().err
    assert err.startswith("config error: the wave solves would take "), err
    assert "(steps x (n_rho + 900))" in err, err
    assert not out.exists()


def test_pde_verify_packet_off_grid_exit_code(tmp_path, capsys):
    # the transported packet support outruns a short grid; the message
    # names grid_rho_max.  The derived inner edge lies below the packet
    # (test_pde.py: test_packet_below_inner_edge_is_a_resolution_error)
    rc = main(["pde-verify", "--out-dir", str(tmp_path), "--nrho", "1024",
               "--set", "grid_rho_max=5"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "resolution failure" in err, err
    assert "grid_rho_max" in err and "inner edge" not in err, err


@pytest.mark.parametrize("alpha,eps", [(alpha, eps)
                                       for alpha in (1e-3, 1.0, 40.0, 2000.0)
                                       for eps in (0.05, 0.25, 0.5)])
def test_boundary_a_sweep(tmp_path, capsys, alpha, eps):
    # a_sweep: at least A_MIN, the same floor at every alpha and eps.  The
    # closed density's eta = 0 modulus |Gamma0|^2 a^-(2+2eps) overflows far
    # above it (from 1.07e-123 at the defaults), so the density must be an
    # exact 0 at eta = 0 without it for 1e-150 to run clean.  At the floor
    # the packet profile samples sigma out to sigma* + 40/a = 1.2e154, and
    # limit's fit of three a against ln(a)/a^2 stays finite
    sets = ["--set", f"alpha={alpha!r}", "--set", f"eps={eps!r}",
            "--set", "n_eta=24"]
    refusal = f"config error: a_sweep must be at least {A_MIN!r}: "
    below = repr(math.nextafter(A_MIN, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("spectrum", "limit"):
            for a in (repr(A_MIN), "1e-150", f"{A_MIN!r},1e-152,1e-151"):
                out = tmp_path / f"{command}_{a}"
                err = _run_boundary([command, "--set", f"a_sweep={a}"]
                                    + sets, out, capsys, accepted=True)
                assert err == "", err
            out = tmp_path / f"{command}_below"
            err = _run_boundary([command, "--set", f"a_sweep={below},8"]
                                + sets, out, capsys, accepted=False)
            assert err.startswith(refusal), err
            assert not out.exists()
    out = tmp_path / f"spectrum_{A_MIN!r}"
    assert (out / f"packet_profile_a{A_MIN:g}.csv").exists()


@pytest.mark.parametrize("a_pm", ["-1e160", "-1e200", "-1e300"])
def test_spectrum_quiet_at_huge_flow_strength(tmp_path, capsys, a_pm):
    # sigma* lies past 1.34e154, where the packet's drift term |A|/(2 rho^2)
    # has an overflowing rho^2 and reads 0: a real term, which drops out of
    # the norm bracket, so the numeric norm stays within an ulp of the
    # closed one, with no numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _run_boundary(["spectrum", "--set", f"a_minus={a_pm}",
                             "--set", f"a_plus={a_pm}", "--set", "n_eta=24"],
                            tmp_path, capsys, accepted=True)
    assert err == "", err
    body = [ln for ln in (tmp_path / "norm_table.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert len(body) == 6
    assert all(float(ln.split(",")[3]) <= 2.0 ** -52 for ln in body[1:]), body


@pytest.mark.parametrize("where", ["file", "under a file", "empty"])
def test_boundary_out_dir(tmp_path, capsys, monkeypatch, where):
    # an out_dir that is an existing file, or lies under one, cannot be
    # made: the write step turns the OSError into a config error naming
    # the path.  An empty out_dir put horizon.csv at the filesystem root
    # and exited 0; the config refuses it
    blocker = tmp_path / "run.cfg"
    blocker.write_text("tau = 2\n")
    out_dir = {"file": str(blocker), "under a file": str(blocker / "sub"),
               "empty": ""}[where]
    root_csv = Path("/horizon.csv")

    def stamp():
        return root_csv.stat().st_mtime_ns if root_csv.exists() else None

    before = stamp()
    monkeypatch.chdir(tmp_path)
    assert main(["horizon", "--out-dir", out_dir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err, err
    assert (f"cannot write {blocker}" if out_dir
            else "out_dir must not be empty") in err, err
    assert [p.name for p in tmp_path.rglob("*")] == ["run.cfg"]
    assert blocker.read_text() == "tau = 2\n"
    assert stamp() == before
    with pytest.raises(ConfigError, match="out_dir must not be empty"):
        RunConfig(out_dir="")


def test_unwritable_out_dir_refused_before_work(tmp_path, capsys,
                                               monkeypatch):
    # an out_dir that is an existing file, or lies under one, is refused
    # before the wave solve runs
    blocker = tmp_path / "run.cfg"
    blocker.write_text("tau = 2\n")
    calls = []

    def solve(*args, **kwargs):
        calls.append(None)
        raise AssertionError("remainder_contribution ran")
    monkeypatch.setattr(pde, "remainder_contribution", solve)
    for out_dir in (blocker, blocker / "sub"):
        assert main(["pde-verify", "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: cannot write {out_dir}: {blocker} is "
                       f"not a writable directory\n")
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


# every package error type, its exit code and the label heading stderr
_EXIT_TABLE = {
    errors.SonicbhError: (3, "error"),
    errors.ConfigError: (2, "config error"),
    errors.ToleranceError: (3, "numerical failure"),
    errors.StepFailureError: (3, "numerical failure"),
    errors.ResolutionError: (4, "resolution failure"),
    errors.CaptureError: (3, "error"),
    errors.GridMismatchError: (3, "error"),
    errors.InstabilityError: (3, "error"),
}


def test_exit_table_names_every_error_type():
    assert set(_EXIT_TABLE) == {
        t for t in vars(errors).values()
        if isinstance(t, type) and issubclass(t, errors.SonicbhError)}


@pytest.mark.parametrize("error", list(_EXIT_TABLE),
                         ids=lambda t: t.__name__)
def test_exit_code_of_each_error_type(tmp_path, capsys, monkeypatch, error):
    def handler(cfg, flow, meta):
        raise error("raised by the handler")

    monkeypatch.setattr(cli, "cmd_horizon", handler)
    code, label = _EXIT_TABLE[error]
    assert main(["horizon", "--out-dir", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"{label}: raised by the handler\n"


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
