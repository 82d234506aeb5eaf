"""Self-test of the benchmark harness.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Classification: for each workload, one real operation passes its check,
   the same answer made slightly wrong is counted as ``check``, and an
   injected SonicbhError and RuntimeError are counted as ``typed`` and
   ``exception``.
2. Counters: a traced ``pde-verify`` at its defaults counts 66 projection
   pairs, 264 quad calls, 3 mode solves and 1961*2048*2 + 981*1025 RK4
   point-steps.
3. Determinism: two runs with one seed give the same digest; another seed
   gives another digest.

Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULTS: list[bool] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")


def classification(workdir: Path) -> None:
    for name, cls in WORKLOADS.items():
        wl = cls(workdir)
        wl.setup()
        params = wl.draw(random.Random(f"selftest:{name}"))[0]
        if name == "geometry":  # the CLI's profile, where the classifier is sound
            params = {"a_minus": -1.2, "a_plus": -0.8, "tau": 1.0}
        if name == "wave":  # the cheapest grid
            params.update(nrho=1024, tfinal=0.5)
        _, _, result, kind = worker.run_op(wl, params)
        kind, detail = worker.check_op(wl, params, result, kind)
        report(f"{name}: one real operation", kind is None,
               detail or "passes its check")
        if kind is None:
            problems = worker.harness_selftest(wl, (params, result))
            report(f"{name}: injected wrong answer, typed error, exception",
                   not problems, "; ".join(problems))


def counters(workdir: Path) -> None:
    import sonicbh.cli

    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        with contextlib.redirect_stdout(io.StringIO()):
            rc = sonicbh.cli.main(["pde-verify", "--out-dir",
                                   str(workdir / "defaults")])
    finally:
        tracer.op = None
        tracer.uninstall()
    got = tracer.layer_metrics(1, {0: 1.0})
    want = {"pde.initial_projection_pair.calls": 66, "pde.quad_calls": 264,
            "pde.solve_mode.calls": 3,
            "pde.rk4_point_steps": 1961 * 2048 * 2 + 981 * 1025}
    for key, value in want.items():
        report(f"pde-verify defaults: {key} = {value}",
               rc == 0 and got[key][0] == value, f"traced {got[key][0]:g}")


def digest(name: str, seed: int) -> str:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                          "--seed", str(seed), "--seconds", "1"],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return re.search(r"digest of the first \d+ results: (\w+)", out).group(1)


def determinism() -> None:
    for name in WORKLOADS:
        first, again = digest(name, run.DEV_SEED), digest(name, run.DEV_SEED)
        other = digest(name, run.CLAIM_SEED)
        report(f"{name}: same seed, same digest", first == again, first[:16])
        report(f"{name}: other seed, other digest", other != first, other[:16])


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-work") as tmp:
        classification(Path(tmp))
        counters(Path(tmp))
    determinism()
    print(f"{sum(RESULTS)}/{len(RESULTS)} harness checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    sys.exit(main())
