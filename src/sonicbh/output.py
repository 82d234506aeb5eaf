"""Deterministic CSV/JSON emission.

CSV files carry '#'-prefixed metadata lines echoing the resolved config,
then a header row, then rows of floats at 17 significant digits.  The rows
are checked for width, their values stacked into one float array only for
the finiteness check, and the values as given are formatted by a single
'%' call over a '%.17g' template, which spells each value exactly as
f"{v:.17g}" does.  JSON summaries sort keys.  Both hold finite numbers
only: a NaN or infinity raises ToleranceError and writes nothing.  A
directory or file that cannot be written raises ConfigError naming the
path, and check_out_dir refuses such a directory before any work.
Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from .config import fmt_float
from .errors import ConfigError, ToleranceError

__all__ = ["check_out_dir", "write_csv", "write_json", "format_cell"]


def format_cell(v) -> str:
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ToleranceError(f"non-finite value {v}")
        return fmt_float(v)
    return str(v)


def check_out_dir(out_dir) -> None:
    """Refuse an out_dir whose nearest existing ancestor (itself, if it
    exists) is not a writable directory; creates nothing."""
    path = ancestor = Path(out_dir)
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write {path}: {ancestor} is not a "
                          f"writable directory")


def _write(path: Path, text: str) -> Path:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def write_csv(path, columns, rows, meta: dict | None = None) -> Path:
    """Write a CSV of float rows, one value per column.

    rows is any iterable of equal-width rows, or a 2-D array.  A row width
    other than len(columns) raises ValueError, and a NaN or infinity raises
    ToleranceError; either way nothing is written.
    """
    path = Path(path)
    ncols = len(columns)
    rows = list(rows)
    try:
        widths = sorted(set(map(len, rows)))
    except TypeError:  # rows of single numbers
        widths = []
    if rows and widths != [ncols]:
        shape = ", ".join(f"({w},)" for w in widths) or "()"
        raise ValueError(f"{path.name}: rows of shape {shape} "
                         f"under {ncols} columns")
    cells = tuple(itertools.chain.from_iterable(rows))
    try:
        lines = [f"# {key} = {format_cell(meta[key])}"
                 for key in sorted(meta or {})]
    except ToleranceError as exc:
        raise ToleranceError(f"{path.name}: {exc}") from None
    lines.append(",".join(columns))
    if cells:
        body = np.array(cells, dtype=float)
        bad = ~np.isfinite(body)
        if bad.any():
            v = float(body[np.flatnonzero(bad)[0]])
            raise ToleranceError(f"{path.name}: non-finite value {v}")
        template = "\n".join([",".join(["%.17g"] * ncols)] * len(rows))
        lines.append(template % cells)
    return _write(path, "\n".join(lines) + "\n")


def write_json(path, obj: dict) -> Path:
    """Write obj as JSON; a NaN or infinity raises ToleranceError and writes
    nothing, since JSON has no spelling for them."""
    path = Path(path)
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ToleranceError(f"{path.name}: {exc}") from None
    return _write(path, text + "\n")
