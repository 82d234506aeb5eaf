"""Run configuration: key=value text files with flag overrides.

Every output file embeds the fully resolved configuration in canonical
key order.  CSV metadata lines spell a float key at 17 significant digits
(fmt_float) and a list-valued key (a_sweep, eta_list) as a Python list of
repr floats; JSON summaries spell floats by repr.  Every form parses back
to the same values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .flow import CAPTURE_RHO, RAY_RTOL, VelocityProfile
from .gammatools import log_gamma0_modulus_sq
from .packets import A_MIN
from .spectrum import MAX_N_ETA

__all__ = ["RunConfig", "fmt_float"]

_LN_MAX = math.log(sys.float_info.max)


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class RunConfig:
    # background flow
    a_minus: float = -1.2
    a_plus: float = -0.8
    tau: float = 1.0
    x0_horizon_max: float = 10.0
    # packet
    alpha: float = 1.0
    eps: float = 0.25
    a: float = 8.0
    a_sweep: tuple[float, ...] = (4.0, 8.0, 16.0, 32.0, 64.0)
    # spectrum grid
    n_eta: int = 96
    # wave solver
    nrho: int = 1024
    tfinal: float = 0.75
    eta_list: tuple[float, ...] = (-2.0, -6.0, -18.0)
    grid_rho_max: float = 9.0
    # output
    out_dir: str = "out"

    def __post_init__(self) -> None:
        # inf passes the positivity checks below, and nan fails them under
        # messages that do not name it; neither value has a meaning here
        for f in fields(self):
            v = getattr(self, f.name)
            if any(isinstance(x, float) and not math.isfinite(x)
                   for x in (v if isinstance(v, tuple) else (v,))):
                raise ConfigError(f"{f.name} must be finite")
        for name in ("tau", "x0_horizon_max", "alpha", "a", "tfinal",
                     "grid_rho_max"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        if not (self.a_minus < 0.0 and self.a_plus < 0.0):
            raise ConfigError("a_minus and a_plus must be negative")
        # the horizon lies between |A-| and |A+|; rays stop at CAPTURE_RHO
        if not min(-self.a_minus, -self.a_plus) > CAPTURE_RHO:
            raise ConfigError(f"min(|a_minus|, |a_plus|) must exceed rho_min"
                              f" = {CAPTURE_RHO}, the rays' capture radius")
        if not 0.05 <= self.eps <= 0.5:
            raise ConfigError("eps must lie in [0.05, 1/2]: below 0.05 the "
                              "packet edge s^eps needs quadrature nodes "
                              "smaller than the smallest float")
        if not self.a_sweep or not self.a_sweep[0] > 0.0:
            raise ConfigError("a_sweep must hold positive values")
        if list(self.a_sweep) != sorted(set(self.a_sweep)):
            raise ConfigError("a_sweep must be strictly increasing")
        if not self.a >= A_MIN:
            raise ConfigError(f"a must be at least {A_MIN!r}: below it the "
                              f"packet's support 45/a nears float overflow")
        # the spectrum tables' closed eta -> 0 density modulus |Gamma0|^2
        # a^-(2+2eps) stays finite from this a on, which lies far above
        # A_MIN.  A nan logarithm (alpha past loggamma's range) leaves A_MIN
        log_min = ((log_gamma0_modulus_sq(self.alpha, self.eps) - _LN_MAX)
                   / (2.0 + 2.0 * self.eps))
        sweep_min = max(A_MIN, math.exp(log_min))
        if not self.a_sweep[0] >= sweep_min:
            raise ConfigError(
                f"a_sweep must be at least {sweep_min!r} at alpha="
                f"{self.alpha:g}, eps={self.eps:g}: below it the closed "
                f"eta -> 0 density modulus |Gamma0|^2 a^-(2+2eps) overflows")
        if not self.eta_list or not all(e < 0.0 for e in self.eta_list):
            raise ConfigError("eta_list must hold negative values")
        # at 16 points Simpson misses the head integral by up to 15%
        if self.n_eta < 24:
            raise ConfigError("n_eta must be at least 24")
        if self.n_eta > MAX_N_ETA:  # a spectrum table's memory budget
            raise ConfigError(f"n_eta must be at most {MAX_N_ETA}")
        # the coarse twin of the wave solver has nrho // 2 + 1 >= 16 points
        if self.nrho < 30:
            raise ConfigError("nrho must be at least 30")
        # an empty out_dir would put the outputs at the filesystem root
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")

    # [min|A|, max|A|], where the ray equation confines sigma*, and the fixed
    # ray accuracy: not keys, not echoed; perfbench/workloads.py reads them
    bracket_lo = property(lambda self: min(-self.a_minus, -self.a_plus))
    bracket_hi = property(lambda self: max(-self.a_minus, -self.a_plus))
    ode_tol, rho_min = RAY_RTOL, CAPTURE_RHO

    # -- construction -------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        """Defaults overridden by the key=value lines of text (# comments)."""
        lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
        return cls().with_overrides([line for line in lines if line])

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text)

    def with_overrides(self, pairs) -> "RunConfig":
        known = {f.name: f for f in fields(self)}
        updates = {}
        for item in pairs:
            if "=" not in item:
                raise ConfigError(f"expected key=value, got {item!r}")
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            updates[key] = _parse(known[key].type, key, val.strip())
        return replace(self, **updates)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    # -- derived objects ------------------------------------------------------

    def profile(self) -> VelocityProfile:
        return VelocityProfile(a_minus=self.a_minus, a_plus=self.a_plus,
                               tau=self.tau)


def _parse(ftype: str, key: str, val: str):
    try:
        if "tuple" in ftype:
            return tuple(float(x) for x in val.split(",") if x.strip())
        if ftype == "int":
            return int(val)
        if ftype == "float":
            return float(val)
        return val
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {val!r}") from exc
