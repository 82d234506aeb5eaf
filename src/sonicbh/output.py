"""Deterministic CSV/JSON emission.

CSV files carry '#'-prefixed metadata lines echoing the resolved config,
then a header row, then rows with floats at 17 significant digits.  JSON
summaries sort keys and hold finite numbers only.  Identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .config import fmt_float
from .errors import ToleranceError

__all__ = ["write_csv", "write_json", "format_cell"]


def format_cell(v) -> str:
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def write_csv(path, columns, rows, meta: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for key in sorted(meta or {}):
        lines.append(f"# {key} = {format_cell((meta or {})[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path, obj: dict) -> Path:
    """Write obj as JSON; a NaN or infinity raises ToleranceError and writes
    nothing, since JSON has no spelling for them."""
    path = Path(path)
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ToleranceError(f"{path.name}: {exc}") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    return path
