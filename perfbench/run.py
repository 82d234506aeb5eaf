"""Outside-in benchmark of the sonicbh package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 20 --trace 0

Workloads are ``geometry``, ``spectrum`` and ``wave`` (see workloads.py),
or ``all`` for each in turn.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The lines before it are a
readable report.

This process imports nothing from the package.  It pins the thread
environment, times set-up in fresh probe processes, and runs the workload
in one worker process (worker.py), all with the checkout's ``src`` first
on the import path.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("geometry", "spectrum", "wave")
SETUP_PROBES = 4  # plus the worker itself: five set-up samples per run
DEADLINE_S = 170.0
# the seed used while developing the benchmark, and one kept back for
# checking a claimed gain on inputs nobody tuned against
DEV_SEED, CLAIM_SEED = 1, 7919

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_share", "share")]


def pinned_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("SONICBH_THREADS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it; the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_workload(name: str, args, root: Path, env: dict, deadline: float):
    work = root / ".perfbench-work" / f"{name}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", name,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--workdir", str(work)]
    try:
        setups = []  # (seconds, machine speed scale)
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic()
            done = subprocess.run(worker + ["--probe"], env=env, cwd=root,
                                  capture_output=True, text=True, check=True,
                                  timeout=deadline - time.monotonic())
            ready, scale = map(float, done.stdout.split()[-2:])
            setups.append((ready - t0, scale))
        result = work / "result.json"
        t0 = time.monotonic()
        subprocess.run(worker + ["--result", str(result)], env=env, cwd=root,
                       check=True, timeout=deadline - time.monotonic())
        rec = json.loads(result.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append((rec["ready"] - t0, rec["ready_scale"]))
    return summarise(name, args, rec, setups)


def summarise(name: str, args, rec: dict, setups: list[float]) -> dict:
    ops = rec["ops"]
    ms = [o["ms"] * o["scale"] for o in ops]
    kinds = [o["kind"] for o in ops]
    failed = sum(k is not None for k in kinds)
    tail_ms, tail_pct = tail(ms)
    e2e = {"setup_s": statistics.median(t * k for t, k in setups),
           "run_s": sum(ms) / 1e3,
           "op_p50_ms": statistics.median(ms),
           "op_tail_ms": tail_ms,
           "cpu_s": sum(o["cpu_s"] * o["scale"] for o in ops),
           "peak_rss_mb": rec["peak_rss_mb"],
           "ok_share": (len(ops) - failed) / len(ops)}
    traced = rec.get("traced_ops", [])
    attempted = len(ops) + len(traced)
    failed += sum(o["kind"] is not None for o in traced)

    print(f"== {name}  seed {args.seed}  {len(ops)} ops "
          f"(closed loop, one caller, one process)")
    for key, unit in END_TO_END:
        print(f"  {key:<13} {e2e[key]:>14.6g} {unit}")
    print(f"  fail_share    {1.0 - e2e['ok_share']:>14.6g} share "
          + " ".join(f"{k}={kinds.count(k)}" for k in ("typed", "exception", "check")))
    raw = [o["ms"] for o in ops]
    print(f"  unscaled: run_s {sum(raw) / 1e3:.6g} s, op_p50_ms "
          f"{statistics.median(raw):.6g} ms, op_tail_ms {tail(raw)[0]:.6g} ms; "
          f"machine speed scale {min(o['scale'] for o in ops):.3f}"
          f"-{max(o['scale'] for o in ops):.3f}")
    print(f"  op_tail_ms is p{tail_pct:.1f} of {len(ms)} ops; "
          f"unscaled set-up samples {', '.join(f'{t:.3f}' for t, _ in setups)} s")
    print(f"  digest of the first {rec['digest_ops']} results: {rec['digest']}")
    prov = rec["provenance"]
    print(f"  provenance: python {prov['python']}, numpy {prov['numpy']}, "
          f"scipy {prov['scipy']}, nproc {prov['nproc']}, cpu {prov['cpu']}, "
          f"env {prov['env']}")
    for problem in rec["harness_problems"]:
        print(f"  HARNESS PROBLEM: {problem}")

    if args.trace:
        layers = rec["layers"]
        print(f"  per-layer, {len(traced)} traced ops "
              f"(trace written to {rec['trace_file']}):")
        for key in sorted(layers):
            value, unit = layers[key]
            print(f"    {key:<40} {value:>14.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    return {"correct": not rec["harness_problems"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd().resolve()
    package = root / "src" / "sonicbh"
    if not (package / "__init__.py").is_file():
        print(f"no sonicbh package under {root / 'src'}: run from the root "
              "of a sonicbh checkout", file=sys.stderr)
        return 2
    # compile up front so that no set-up sample pays for bytecode compilation
    compileall.compile_dir(package, quiet=1)
    env = pinned_env(root)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, root, env,
                                         time.monotonic() + DEADLINE_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}\n{exc.stderr or ''}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
