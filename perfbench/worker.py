"""One workload process: import, set up, run the operations, check them.

Started by run.py with the thread environment pinned.  With --probe it
only imports the package and sets the workload up, then prints the
CLOCK_MONOTONIC time at which it was ready and the machine speed scale
then; run.py times set-up from those.  Otherwise it writes a JSON record
of the run to --result.

Operations run in a closed loop with one caller.  Only the operation is
timed; its answer is checked right after it, outside the timed span.

The machine this runs on shares its cores: the same operation can take
1.6 times as long for seconds at a time, and its mean over a 25 s or a
50 s window still varies by about 20 % between windows.  A fixed
calibration kernel, timed four times a second from a SIGALRM handler,
tracks that speed, also through operations that last seconds.  Each
record carries ``scale`` = CAL_NOMINAL_MS / the median kernel time around
the operation, and run.py reports times multiplied by it: times at the
machine speed where the kernel takes CAL_NOMINAL_MS.  Time spent in the
handler is taken off the operation it interrupted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

FAIL_KINDS = ("typed", "exception", "check")
CAL_NOMINAL_MS = 2.0  # the kernel's time on an idle 2-core Xeon sandbox
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 0.5  # samples this close to an operation describe it


def calibration_kernel() -> None:
    """Interpreter and small-array numpy work, like the operations."""
    import numpy as np

    x = 0.0
    for i in range(20000):
        x += (i % 7) * 0.5
    a = np.arange(2048.0)
    for _ in range(200):
        a = a * 1.0000001 + 1.0


def speed_scale_now() -> float:
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_kernel()
        samples.append((time.perf_counter() - t0) * 1e3)
    return CAL_NOMINAL_MS / statistics.median(samples)


class Speedometer:
    """Times the calibration kernel every CAL_EVERY_S while in use; keeps
    the wall and CPU time spent doing so apart."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, kernel ms)
        self.wall = 0.0
        self.cpu = 0.0
        self.busy = False

    def _sample(self, *_) -> None:
        if self.busy:  # a tick that lands inside a slow sample is dropped
            return
        self.busy = True
        c0, t0 = time.process_time(), time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, (t1 - t0) * 1e3))
        self.wall += t1 - t0
        self.cpu += time.process_time() - c0
        self.busy = False

    def __enter__(self) -> "Speedometer":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scale(self, t0: float, t1: float) -> float:
        near = [ms for t, ms in self.samples
                if t0 - CAL_WINDOW_S <= t <= t1 + CAL_WINDOW_S]
        return CAL_NOMINAL_MS / statistics.median(near)


def run_op(workload, params):
    """Run one operation; return (ms, cpu_s, result, failure kind or None)."""
    from sonicbh.errors import SonicbhError

    c0 = time.process_time()
    t0 = time.perf_counter()
    result, kind = None, None
    try:
        result = workload.run(params)
    except SonicbhError as exc:
        result, kind = exc, "typed"
    except Exception as exc:
        result, kind = exc, "exception"
    ms = (time.perf_counter() - t0) * 1e3
    return ms, time.process_time() - c0, result, kind


def check_op(workload, params, result, kind):
    """Fold the output check into the failure kind; return (kind, detail)."""
    if kind is not None:
        return kind, f"{type(result).__name__}: {result}"
    try:
        detail = workload.check(params, result)
    except Exception as exc:  # an output the check cannot read is wrong
        detail = f"check raised {type(exc).__name__}: {exc}"
    return ("check", detail) if detail else (None, "")


def harness_selftest(workload, good_result) -> list[str]:
    """Inject a wrong answer, a typed error and an exception; return the
    injections that were not counted under the right kind."""
    from sonicbh.errors import SonicbhError

    class Injected:
        def __init__(self, exc):
            self.exc = exc

        def run(self, params):
            raise self.exc

    problems = []
    for exc, want in ((SonicbhError("injected"), "typed"),
                      (RuntimeError("injected"), "exception")):
        _, _, res, kind = run_op(Injected(exc), {})
        if check_op(workload, {}, res, kind)[0] != want:
            problems.append(f"injected {type(exc).__name__} not counted as {want}")
    if good_result is not None:
        params, result = good_result
        kind, _ = check_op(workload, params, workload.corrupt(result), None)
        if kind != "check":
            problems.append("injected wrong answer not counted as check")
    return problems


def op_list(workload, seed: int, seconds: float) -> list[dict]:
    """The run's operations: whole blocks, as many as --seconds holds at the
    nominal block cost, so that every commit runs the same inputs."""
    n_blocks = max(1, round(seconds / workload.nominal_block_s))
    rng = random.Random(f"{workload.name}:{seed}")
    return [p for _ in range(n_blocks) for p in workload.draw(rng)]


def _result_digest(workload, result, kind) -> bytes:
    if kind in (None, "check"):
        return workload.digest(result).encode()
    return f"{kind}:{type(result).__name__}".encode()


def execute(workload, ops, digest_ops: int, tracer=None):
    """Run and check every op; return per-op records, the digest of the
    first digest_ops results and the first (params, result) that passed.
    With a tracer, each op runs inside its own trace op id."""
    records, spans, digest, good = [], [], hashlib.sha256(), None
    with Speedometer() as speed:
        for i, params in enumerate(ops):
            wall0, cpu0 = speed.wall, speed.cpu
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            ms, cpu, result, kind = run_op(workload, params)
            spans.append((t0, time.perf_counter()))
            if tracer is not None:
                tracer.op = None
            records.append({"ms": ms - 1e3 * (speed.wall - wall0),
                            "cpu_s": cpu - (speed.cpu - cpu0)})
            kind, detail = check_op(workload, params, result, kind)
            records[-1]["kind"] = kind
            if kind is None and good is None:
                good = (params, result)
            if i < digest_ops:
                digest.update(_result_digest(workload, result, kind))
            if kind is not None:
                print(f"op {i} {params}: {kind}: {detail}", file=sys.stderr)
    for rec, (t0, t1) in zip(records, spans):
        rec["scale"] = speed.scale(t0, t1)
    return records, digest.hexdigest(), good


def provenance() -> dict:
    import os

    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "env": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "SONICBH_THREADS")}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    t_import = time.perf_counter()
    import sonicbh.cli  # the import users pay for
    import_ms = (time.perf_counter() - t_import) * 1e3
    root = Path.cwd().resolve()
    if root not in Path(sonicbh.__file__).resolve().parents:
        print(f"sonicbh imported from {sonicbh.__file__}, not from {root}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.workdir)
    workload.setup()
    ready = time.monotonic()
    ready_scale = speed_scale_now()
    if args.probe:
        print(repr(ready), repr(ready_scale))
        return 0

    ops = op_list(workload, args.seed, args.seconds)
    records, digest, good = execute(workload, ops, workload.block)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = harness_selftest(workload, good)
    out = {"ready": ready, "ready_scale": ready_scale,
           "import_ms": import_ms, "digest": digest,
           "digest_ops": min(workload.block, len(ops)), "ops": records,
           "peak_rss_mb": peak_rss_mb, "harness_problems": problems,
           "provenance": provenance()}

    if args.trace:
        # replay the first blocks traced; the untraced times of the same
        # ops give the tracing overhead
        from tracing import Tracer

        n_traced = min(len(ops), workload.trace_blocks * workload.block)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = -1
            workload.setup()
            tracer.op = None
            setup_scale = speed_scale_now()
            traced, traced_digest, _ = execute(workload, ops[:n_traced],
                                               workload.block, tracer)
        finally:
            tracer.op = None
            tracer.uninstall()
        if traced_digest != digest:
            problems.append("traced results differ from untraced results")
        scales = {i: r["scale"] for i, r in enumerate(traced)}
        layers = tracer.layer_metrics(n_traced, {**scales, -1: setup_scale})
        layers["import.ms"] = (import_ms * ready_scale, "ms")
        layers["trace.overhead_pct"] = (100.0 * (
            sum(r["ms"] * r["scale"] for r in traced)
            / sum(r["ms"] * r["scale"] for r in records[:n_traced]) - 1.0), "%")
        for k in FAIL_KINDS:
            layers[f"fail.{k}"] = (float(sum(r["kind"] == k
                                             for r in records + traced)), "count")
        out["layers"] = layers
        out["traced_ops"] = traced
        trace_path = args.workdir.parent / f"trace-{args.workload}-s{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                 "provenance": out["provenance"]})
        out["trace_file"] = str(trace_path)

    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
