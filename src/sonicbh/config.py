"""Run configuration: key=value text files with flag overrides.

RunConfig only parses, and refuses values that are not finite; each bound
is checked by the code whose arithmetic sets it, for the commands that
read the key.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .flow import CAPTURE_RHO, RAY_RTOL, VelocityProfile

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
