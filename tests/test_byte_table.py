"""The byte contract: the SHA-256 of every file a fixed list of runs
writes, and of its stdout, against the table committed in byte_table.json.

The out_dir echo (the `# out_dir = ...` CSV line and the JSON
`config.out_dir` line) is the only text removed before hashing, and stdout
has the run's directory replaced by <out>.  A change that means to move
bytes regenerates the table with

    PYTHONPATH=src python tests/test_byte_table.py

and lists each file that moved, and why, in CHANGES.md.  The table records
the Python and numpy versions it was made with, the machine, and the SIMD
extensions numpy's dispatch found on its CPU: a digest that differs on
another numpy or another CPU's code paths is a finding to record, not a
case to skip.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import re
import sys
from pathlib import Path

import numpy as np
import pytest

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
}
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


def _versions() -> dict:
    # numpy's private CPU tables, as np.show_runtime() reads them (numpy 2)
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "machine": platform.machine(),
            "simd": [f for f in __cpu_dispatch__ if __cpu_features__[f]]}


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_the_byte_table(tmp_path, name):
    table = json.loads(TABLE.read_text())
    assert list(table["runs"]) == list(RUNS)
    found = run_digests(RUNS[name], tmp_path / "out")
    assert found == table["runs"][name], (
        f"table made on {table['versions']}, this run on {_versions()}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_digests(argv, Path(tmp) / name)
                for name, argv in RUNS.items()}
    TABLE.write_text(json.dumps({"versions": _versions(), "runs": runs},
                                indent=2) + "\n")
