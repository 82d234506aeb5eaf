"""The byte contract: the SHA-256 of every file a fixed list of runs
writes, and of its stdout, against the table committed in byte_table.json.

Every run goes in one fresh `python -W error` process (the runner), whose
environment is built here and inherits nothing else: the few variables
the interpreter needs to start (PASSED), a PYTHONPATH to this package and
this directory, and the pins that choose the libraries' kernels.  numpy's
dispatch is pinned to the wheel's own baseline and, on x86-64, OpenBLAS
to its Prescott kernel and glibc to its paths without AVX2, FMA or
AVX-512.  A CPU can only lose features under these pins, so an x86-64
machine with the same wheels takes the same code paths (on an AVX-512
machine, outside settings of numpy at AVX2 or at its baseline, and of
OpenBLAS at Haswell or Zen, left every digest as it was), and a failing
digest means a change moved bytes.

The out_dir echo (the `# out_dir = ...` CSV line and the JSON
`config.out_dir` line) is the only text removed before hashing, and stdout
has the run's directory replaced by <out>.  A change that means to move
bytes regenerates the table, through the same runner, with

    PYTHONPATH=src python tests/test_byte_table.py

and lists each file that moved, and why, in CHANGES.md.  The table records
the Python and numpy versions it was made with, the machine, numpy's
baseline, OpenBLAS's build configuration and the pins: a digest that
differs on another numpy or another architecture is a finding to record,
not a case to skip.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sonicbh
from sonicbh.cli import main

TABLE = Path(__file__).with_name("byte_table.json")
# the four commands at the defaults, and the runs whose bytes changes most
# often promise to keep
RUNS = {
    "horizon": ["horizon"],
    "spectrum": ["spectrum"],
    "limit": ["limit"],
    "pde-verify": ["pde-verify"],
    "pde-verify-256": ["pde-verify", "--nrho", "256", "--tfinal", "0.1"],
    "pde-verify-2048": ["pde-verify", "--tfinal", "0.25", "--nrho", "2048"],
    "pde-verify-256-alpha40-eps0.05": [
        "pde-verify", "--nrho", "256", "--tfinal", "0.1", "--set", "alpha=40",
        "--set", "eps=0.05"],
    "spectrum-eps0.5-a2,5,11": [
        "spectrum", "--set", "n_eta=1024", "--set", "alpha=2.5", "--set",
        "eps=0.5", "--set", "a_sweep=2,5,11"],
    "limit-a1e101": ["limit", "--set", "a_sweep=1e101,1e102,1e103"],
    # the report's eta-decay exponent, fitted through two samples apart
    "pde-verify-256-eta-2,-6": [
        "pde-verify", "--nrho", "256", "--tfinal", "0.1", "--eta-list=-2,-6"],
}
# what the interpreter needs to start where it is installed (a shared
# libpython may sit on LD_LIBRARY_PATH); none of them chooses a kernel
PASSED = ("HOME", "LD_LIBRARY_PATH", "PATH", "TMPDIR")
_ECHO = re.compile(rb'^(# out_dir = |\s*"out_dir": ).*\n', re.MULTILINE)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(argv, out: Path) -> dict:
    """Exit code and digests of stdout and of each file the run writes."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv + ["--out-dir", str(out)])
    found = {"exit": rc,
             "stdout": _sha(buf.getvalue().replace(str(out), "<out>").encode())}
    for path in sorted(out.iterdir()):
        found[path.name] = _sha(_ECHO.sub(b"", path.read_bytes()))
    return found


def pins() -> dict:
    """The variables that choose numpy's, OpenBLAS's and libm's kernels."""
    baseline = np.show_config(mode="dicts")["SIMD Extensions"]["baseline"]
    found = {"NPY_ENABLE_CPU_FEATURES": " ".join(baseline)}
    if platform.machine().lower() in ("x86_64", "amd64"):
        found.update(OPENBLAS_CORETYPE="Prescott",
                     GLIBC_TUNABLES="glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F")
    return found


def runner_env() -> dict:
    """The runner's whole environment."""
    path = [Path(sonicbh.__file__).resolve().parents[1],
            Path(__file__).resolve().parent]
    return {**{key: os.environ[key] for key in PASSED if key in os.environ},
            **pins(), "PYTHONPATH": os.pathsep.join(map(str, path))}


def print_digests(out: str) -> None:
    """In the runner: the digests of every run, as JSON on stdout."""
    print(json.dumps({name: run_digests(argv, Path(out) / name)
                      for name, argv in RUNS.items()}))


def pinned_digests(out: Path) -> dict:
    """The digests of every run, made by the runner under out."""
    code = "import sys, test_byte_table as t; t.print_digests(sys.argv[1])"
    run = subprocess.run([sys.executable, "-W", "error", "-c", code, str(out)],
                         env=runner_env(), cwd=out, capture_output=True,
                         text=True, timeout=300)
    if run.returncode:
        raise RuntimeError(f"the byte-table runner failed:\n{run.stderr}")
    return json.loads(run.stdout)


def _versions() -> dict:
    config = np.show_config(mode="dicts")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(),
            "numpy_baseline": config["SIMD Extensions"]["baseline"],
            "openblas": config["Build Dependencies"]["blas"].get(
                "openblas configuration"),
            "pins": pins()}


@pytest.fixture(scope="session")
def digests(tmp_path_factory):
    return pinned_digests(tmp_path_factory.mktemp("byte_table"))


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_the_byte_table(digests, name):
    table = json.loads(TABLE.read_text())
    assert list(table["runs"]) == list(RUNS)
    assert digests[name] == table["runs"][name], (
        f"table made on {table['versions']}, this run on {_versions()}")


def test_runner_environment_is_its_own(monkeypatch):
    # outside settings of the pinned variables and of PYTHONPATH do not
    # reach the runner: its environment is PASSED as set here, numpy's
    # dispatch at the wheel's baseline, OpenBLAS's and glibc's kernels on
    # x86-64 only, and the path to this package and these tests
    for key, hostile in (("NPY_DISABLE_CPU_FEATURES", "X86_V3"),
                         ("NPY_ENABLE_CPU_FEATURES", "AVX512_SPR"),
                         ("OPENBLAS_CORETYPE", "Zen"),
                         ("GLIBC_TUNABLES", "glibc.cpu.hwcaps=AVX2"),
                         ("PYTHONPATH", "/elsewhere")):
        monkeypatch.setenv(key, hostile)
    passed = {key: os.environ[key] for key in PASSED if key in os.environ}
    baseline = np.show_config(mode="dicts")["SIMD Extensions"]["baseline"]
    path = os.pathsep.join([str(Path(sonicbh.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    x86 = {"OPENBLAS_CORETYPE": "Prescott",
           "GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"}
    for machine, kernels in (("x86_64", x86), ("aarch64", {})):
        monkeypatch.setattr(platform, "machine", lambda m=machine: m)
        assert runner_env() == {
            **passed, "NPY_ENABLE_CPU_FEATURES": " ".join(baseline),
            **kernels, "PYTHONPATH": path}, machine


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runs = pinned_digests(Path(tmp))
    TABLE.write_text(json.dumps({"versions": _versions(), "runs": runs},
                                indent=2) + "\n")
