"""Spans and counters for the traced run, recorded from outside the package.

``Tracer.install`` replaces public package functions at the module
attributes where their callers look them up (for example
``sonicbh.cli.find_separatrix`` and ``sonicbh.pde.solve_mode``) with
wrappers that record a span, and ``scipy.integrate.quad`` with a wrapper
that counts calls and ``IntegrationWarning``s against the layer of the
innermost open span.  ``uninstall`` restores the originals.  No source
file is touched; a name that no longer exists is skipped and reads as
zero calls.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the
index of the enclosing span or -1, ``op`` the operation index or -1 for
set-up.  Spans and counters stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
import warnings
from collections import defaultdict
from dataclasses import fields

import scipy.integrate

from sonicbh.flow import VelocityProfile

# (module, attribute, span name): every site where a caller looks a
# traced function up
WRAPPED = [
    ("sonicbh.flow", "find_separatrix", "flow.find_separatrix"),
    ("sonicbh.cli", "find_separatrix", "flow.find_separatrix"),
    ("sonicbh.cli", "main", "cli.main"),
    ("sonicbh.gammatools", "packet_fourier", "gammatools.packet_fourier"),
    ("sonicbh.spectrum", "packet_fourier", "gammatools.packet_fourier"),
    ("sonicbh.packets", "packet_norm", "packets.packet_norm"),
    ("sonicbh.spectrum", "packet_norm", "packets.packet_norm"),
    ("sonicbh.cli", "packet_norm", "packets.packet_norm"),
    ("sonicbh.spectrum", "build_spectrum", "spectrum.build_spectrum"),
    ("sonicbh.spectrum", "total_number", "spectrum.total_number"),
    ("sonicbh.spectrum", "limit_sweep", "spectrum.limit_sweep"),
    ("sonicbh.spectrum", "normalized_number_limit",
     "spectrum.normalized_number_limit"),
    ("sonicbh.spectrum", "normalized_number_limit_variant",
     "spectrum.normalized_number_limit_variant"),
    ("sonicbh.pde", "remainder_contribution", "pde.remainder_contribution"),
    ("sonicbh.pde", "initial_projection_pair", "pde.initial_projection_pair"),
    ("sonicbh.pde", "solve_mode", "pde.solve_mode"),
    ("sonicbh.pde", "evolved_projection_densities",
     "pde.evolved_projection_densities"),
    ("sonicbh.output", "write_csv", "output.write"),
    ("sonicbh.output", "write_json", "output.write"),
    ("sonicbh.cli", "write_csv", "output.write"),
    ("sonicbh.cli", "write_json", "output.write"),
]


def rk4_steps(t_final: float, dt: float) -> int:
    """The number of steps solve_cauchy takes to reach t_final."""
    n = int(round(t_final / dt))
    if abs(n * dt - t_final) > 1e-9 * max(t_final, dt):
        n = int(math.ceil(t_final / dt))
    return n


class _CountingProfile(VelocityProfile):
    """A VelocityProfile that counts its evaluations (one per ODE RHS call)."""

    evals = 0

    def eval(self, x0):
        _CountingProfile.evals += 1
        return super().eval(x0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None  # operation index, -1 in set-up, None when idle
        self.counts = defaultdict(int)  # (op, key) -> count
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self.op, key)] += n

    def _layer(self) -> str:
        return self.spans[self.stack[-1]][0].split(".")[0] if self.stack else "none"

    def _wrap(self, name: str, fn):
        special = {"flow.find_separatrix": self._separatrix_extra,
                   "spectrum.build_spectrum": self._spectrum_extra,
                   "pde.solve_mode": self._solve_mode_extra,
                   "output.write": self._write_extra}.get(name)
        if name == "packets.packet_norm":
            sig = inspect.signature(fn)

            def span_name(args, kwargs):
                numeric = sig.bind(*args, **kwargs).arguments.get("numeric")
                return "packets.packet_norm_numeric" if numeric else name
        else:
            def span_name(args, kwargs):
                return name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if special is not None:
                args, kwargs, after = special(fn, args, kwargs)
            span = [span_name(args, kwargs), 0, 0,
                    self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self.stack.pop()
            if special is not None:
                after(result)
            return result
        return wrapper

    def _separatrix_extra(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        prof = bound.arguments.get("profile")
        if type(prof) is VelocityProfile:
            bound.arguments["profile"] = _CountingProfile(
                **{f.name: getattr(prof, f.name) for f in fields(prof)})
        start = _CountingProfile.evals

        def after(_):
            self.count("flow.find_separatrix.profile_evals",
                       _CountingProfile.evals - start)
        return bound.args, bound.kwargs, after

    def _solve_mode_extra(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        grid, t_final = bound.get("grid"), bound.get("t_final")
        if grid is not None and t_final is not None:
            self.count("pde.rk4_point_steps",
                       rk4_steps(float(t_final), grid.dt) * grid.n_rho)
        return args, kwargs, lambda _: None

    def _spectrum_extra(self, fn, args, kwargs):
        def after(table):
            self.count("spectrum.eta_points", len(table.eta_grid))
        return args, kwargs, after

    def _write_extra(self, fn, args, kwargs):
        def after(path):
            self.count("output.bytes", path.stat().st_size)
        return args, kwargs, after

    def _quad(self, fn):
        @functools.wraps(fn)
        def quad(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            layer = self._layer()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", scipy.integrate.IntegrationWarning)
                result = fn(*args, **kwargs)
            self.count(f"{layer}.quad_calls")
            self.count(f"{layer}.quad_warnings", sum(
                issubclass(w.category, scipy.integrate.IntegrationWarning)
                for w in caught))
            return result
        return quad

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for modname, attr, name in WRAPPED:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is not None:
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))
        self._saved.append((scipy.integrate, "quad", scipy.integrate.quad))
        scipy.integrate.quad = self._quad(scipy.integrate.quad)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, n_ops: int, scales: dict) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        ``<span>.ms`` is inclusive time per call, set-up included;
        ``.calls``, ``busy_ms`` and the counters are per operation.  Span
        times are multiplied by the machine speed scale of their operation
        (``scales[op]``, op -1 for set-up).
        """
        calls, incl, self_ns = (defaultdict(float) for _ in range(3))
        op_calls, op_incl = defaultdict(int), defaultdict(float)
        child = defaultdict(float)
        durations = [(t1 - t0) * scales[op] for _, t0, t1, _, op in self.spans]
        for (name, t0, t1, parent, op), dur in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += dur
        for idx, ((name, t0, t1, parent, op), dur) in enumerate(
                zip(self.spans, durations)):
            calls[name] += 1
            incl[name] += dur
            self_ns[name] += dur - child[idx]
            if op >= 0:
                op_calls[name] += 1
                op_incl[name] += dur
        totals, op_totals = defaultdict(int), defaultdict(int)
        for (op, key), n in self.counts.items():
            totals[key] += n
            if op >= 0:
                op_totals[key] += n

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for span in ("flow.find_separatrix", "packets.packet_norm_numeric",
                     "spectrum.build_spectrum", "spectrum.total_number",
                     "spectrum.limit_sweep", "pde.remainder_contribution",
                     "pde.initial_projection_pair", "pde.solve_mode",
                     "pde.evolved_projection_densities"):
            out[f"{span}.ms"] = (ratio(incl[span], calls[span]) / 1e6, "ms")
        for span in ("flow.find_separatrix", "gammatools.packet_fourier",
                     "pde.initial_projection_pair", "pde.solve_mode"):
            out[f"{span}.calls"] = (ratio(op_calls[span], n_ops), "calls/op")
        for key, unit in (("packets.quad_calls", "calls/op"),
                          ("spectrum.quad_calls", "calls/op"),
                          ("pde.quad_calls", "calls/op"),
                          ("pde.quad_warnings", "count/op"),
                          ("pde.rk4_point_steps", "count/op"),
                          ("output.bytes", "bytes/op")):
            out[key] = (ratio(op_totals[key], n_ops), unit)
        out["flow.find_separatrix.profile_evals"] = (ratio(
            totals["flow.find_separatrix.profile_evals"],
            calls["flow.find_separatrix"]), "count/call")
        out["gammatools.packet_fourier.busy_ms"] = (
            ratio(op_incl["gammatools.packet_fourier"], n_ops) / 1e6, "ms/op")
        out["spectrum.build_spectrum.us_per_eta"] = (ratio(
            incl["spectrum.build_spectrum"], totals["spectrum.eta_points"]) / 1e3,
            "us")
        out["pde.rk4_ns_per_point_step"] = (ratio(
            self_ns["pde.solve_mode"], totals["pde.rk4_point_steps"]), "ns")
        out["cli.main.self_ms"] = (
            ratio(self_ns["cli.main"], calls["cli.main"]) / 1e6, "ms")
        out["output.write.ms"] = (ratio(op_incl["output.write"], n_ops) / 1e6,
                                  "ms/op")
        return out

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra, spans=self.spans,
                   counters=[[op, key, n] for (op, key), n in self.counts.items()])
        path.write_text(json.dumps(doc))
