"""Run configuration: key=value text files with flag overrides.

The flow, the packet and pde check their own bounds; RunConfig checks
the rest, and a_sweep and n_eta before spectrum writes its first table.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .flow import CAPTURE_RHO, RAY_RTOL, VelocityProfile
from .packets import A_MIN, SUPPORT_CUT
from .spectrum import A_SWEEP_MAX, MAX_N_ETA, N_ETA_MIN

__all__ = ["RunConfig", "read_pairs"]


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
        # inf passes the positivity checks of the owners, and nan fails them
        # under messages that do not name it; neither value has a meaning
        for key, v in asdict(self).items():
            if any(isinstance(x, float) and not math.isfinite(x)
                   for x in (v if isinstance(v, tuple) else (v,))):
                raise ConfigError(f"{key} must be finite")
        if not self.a_sweep or not self.a_sweep[0] > 0.0:
            raise ConfigError("a_sweep must hold positive values")
        if list(self.a_sweep) != sorted(set(self.a_sweep)):
            raise ConfigError("a_sweep must be strictly increasing")
        if not self.a_sweep[-1] <= A_SWEEP_MAX:
            raise ConfigError(f"a_sweep must be at most {A_SWEEP_MAX!r}: above"
                              f" it limit's a^-2 error term is subnormal")
        # the one floor, the same at every alpha and eps (packets.A_MIN)
        if not self.a_sweep[0] >= A_MIN:
            raise ConfigError(f"a_sweep must be at least {A_MIN!r}: below it "
                              f"the packet's squared support "
                              f"({SUPPORT_CUT:g}/a)^2 overflows")
        if self.n_eta < N_ETA_MIN:
            raise ConfigError(f"n_eta must be at least {N_ETA_MIN}")
        # a run's budget: len(a_sweep) spectrum tables of n_eta rows each
        k = len(self.a_sweep)
        if self.n_eta * k > MAX_N_ETA:
            raise ConfigError(f"n_eta must be at most {MAX_N_ETA // k} at "
                              f"{k} a_sweep values: n_eta x len(a_sweep) "
                              f"must be at most {MAX_N_ETA}")
        # an empty out_dir would put the outputs at the filesystem root
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")

    # [min|A|, max|A|], where the ray equation confines sigma*, and the fixed
    # ray accuracy: not keys, not echoed; perfbench/workloads.py reads them
    bracket_lo = property(lambda self: min(-self.a_minus, -self.a_plus))
    bracket_hi = property(lambda self: max(-self.a_minus, -self.a_plus))
    ode_tol, rho_min = RAY_RTOL, CAPTURE_RHO

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

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}

    def profile(self) -> VelocityProfile:
        return VelocityProfile(self.a_minus, self.a_plus, self.tau)


def read_pairs(path) -> list[str]:
    """The key=value lines of a config file, without # comments or blanks."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


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
