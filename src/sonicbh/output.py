"""Deterministic CSV/JSON emission.

CSV files carry '#'-prefixed metadata lines echoing the resolved config,
then a header row, then rows of floats at 17 significant digits.  A 2-D
float array is taken as it is; any other iterable of rows is checked for
width and packed into one such array.  The array is checked finite, cut
into ceil(cells / _BLOCK) near-equal blocks of whole rows, and each block
is spelled in numpy with exactly the bytes of f"{v:.17g}":

- digits: X = floor(log10|v|) and D = round(|v| 10^(16-X)).  |v| and
  10^(16-X) = hi + lo (from a table built with int arithmetic) are split
  into 26- and 27-bit halves whose cross products are exact, so D comes
  out good to about 1e-14;
- fallback: a cell the product cannot decide is spelled by '%.17g' in
  Python: +-0, |v| below 1e-292 (beyond the table), a fraction within
  1e-6 of one half (a tie rounds half to even), or D outside [10^16,
  10^17) before or after rounding (log10 is one off for
  9.9999999999999995e-07, and D can round up to 10^17);
- layout by the %g rules: each cell is 32 bytes holding the 17 ASCII
  digits (from a 0000..9999 table), NUL for trailing zeros, and the
  exponent when X < -4 or X >= 17; one slice copy per exponent group puts
  '0.000' before the digits or the point after the right one, and one
  bytes.translate drops the NULs.

Every output file embeds the fully resolved configuration in canonical
key order.  CSV metadata lines spell a float key at 17 significant digits
(format_cell) and a list-valued key (a_sweep, eta_list) as a Python list
of repr floats; JSON summaries spell floats by repr.  Every form parses
back to the same values.

JSON summaries sort keys.  Both hold finite numbers only: a NaN or
infinity raises ToleranceError and writes nothing.  Files are written as
bytes, '\n'-terminated on every platform, each CSV block as it is made.
A directory or file that cannot be written raises ConfigError naming the
path, and check_out_dir refuses such a directory before any work.
Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError, ToleranceError

__all__ = ["check_out_dir", "write_csv", "write_json", "format_cell"]


def format_cell(v) -> str:
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ToleranceError(f"non-finite value {v}")
        return f"{v:.17g}"
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


def _write(path: Path, chunks) -> Path:
    """Write the bytes of chunks, each as it comes, as path's contents."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as f:
            f.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def write_csv(path, columns, rows, meta: dict | None = None) -> Path:
    """Write a CSV of float rows, one value per column.

    rows is a 2-D array, taken as it is, or any iterable of equal-width
    rows, packed into one array.  A row width other than len(columns)
    raises ValueError, and a NaN or infinity raises ToleranceError; either
    way nothing is written.  The body is spelled and written in
    ceil(cells / _BLOCK) near-equal blocks of whole rows.
    """
    path = Path(path)
    ncols = len(columns)
    if isinstance(rows, np.ndarray):
        body = np.asarray(rows, dtype=float)
        shapes = {body.shape[1:]} if len(body) else set()
    else:
        rows = list(rows)
        try:
            shapes = {(w,) for w in set(map(len, rows))}
        except TypeError:  # rows of single numbers
            shapes = {()}
    if shapes - {(ncols,)}:
        shape = ", ".join(map(str, sorted(shapes)))
        raise ValueError(f"{path.name}: rows of shape {shape} "
                         f"under {ncols} columns")
    if not isinstance(rows, np.ndarray):
        body = np.fromiter(itertools.chain.from_iterable(rows), float,
                           len(rows) * ncols).reshape(len(rows), ncols)
    try:
        lines = [f"# {key} = {format_cell(meta[key])}"
                 for key in sorted(meta or {})]
    except ToleranceError as exc:
        raise ToleranceError(f"{path.name}: {exc}") from None
    lines.append(",".join(columns))
    head = ("\n".join(lines) + "\n").encode()
    if not body.size:
        return _write(path, [head])
    bad = ~np.isfinite(body)
    if bad.any():
        raise ToleranceError(f"{path.name}: non-finite value "
                             f"{float(body[bad][0])}")
    blocks = np.array_split(body, -(-body.size // max(_BLOCK, ncols)))
    return _write(path, itertools.chain(
        [head], (_format_rows(b.ravel(), ncols) for b in blocks)))


# cells formatted at a time, give or take a row: bounds the formatter's
# arrays to about 0.55 MB (tracemalloc's peak for 4096 cells) whatever the
# table's size, and spells a table of up to 4096 cells in one call
_BLOCK = 4096
# 10^e for e in [_E_LO, _E_HI] is finite and normal, so its halves are too
_E_LO, _E_HI = -292, 308
_CLEAR_LOW27 = ~np.uint64(2 ** 27 - 1)
# a cell's bytes: the sign at 0; '0.000' or the digits before the point,
# moved left by one, ending at 6; the 17 digits at 7..23; the exponent
# at 24..28; the separator at 31.  The NULs between are removed at the end
_CELL = 32


def _high26(a):
    """a with the low 27 of its 53 significand bits cleared."""
    return (a.view(np.uint64) & _CLEAR_LOW27).view(np.float64)


@functools.cache
def _tables():
    """The formatter's lookup tables, built on first use (about 2 ms)."""
    # 10^e = hi + lo: float(int) and int / int round correctly, so hi is
    # the nearest float to 10^e and lo the nearest to the rest
    hi, lo = [], []
    q = 10 ** -_E_LO
    for _ in range(_E_LO, 0):
        h = 1 / q
        m, s = h.as_integer_ratio()
        hi.append(h)
        lo.append((s - m * q) / (q * s))
        q //= 10
    for _ in range(_E_HI + 1):
        h = float(q)
        hi.append(h)
        lo.append(float(q - int(h)))
        q *= 10
    hi = np.array(hi)
    pow10 = np.array([_high26(hi), hi - _high26(hi), lo])
    # 0000..9999 as four ASCII digits in one uint32 (cell bytes 4..7 hold
    # the leading digit, 0001..0009, with its zeros masked), and their
    # trailing zeros, 4 for 0000
    digit = np.arange(10)
    ascii4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    zeros4 = np.zeros((10, 10, 10, 10), np.int8)
    zero = True
    for i in (3, 2, 1, 0):
        at = (slice(None),) + (None,) * (3 - i)  # digit i on axis i
        ascii4[..., i] = 48 + digit[at]
        zero = zero & (digit == 0)[at]  # digits i.. all zero
        zeros4 += zero
    # cell bytes 4..23 as five uint32 columns, kept where 7 <= byte <
    # 7 + keep, for keep = 0..17
    j = np.arange(4, 24) - 7
    keep_mask = np.where((j >= 0) & (j < np.arange(18)[:, None]), 255, 0)
    keep_mask = keep_mask.astype(np.uint8).view(np.uint32).T.copy()
    # 'e-05', 'e+17', 'e+308', NUL-padded to 5 bytes, at X + 330
    exps = "".join(f"e{x:+03d}".ljust(5, "\0") for x in range(-330, 331))
    exps = np.frombuffer(exps.encode(), np.uint8).reshape(-1, 5)
    return (pow10, ascii4.view(np.uint32).ravel(), zeros4.ravel(), keep_mask,
            exps)


def _digits17(a, pow10):
    """(D, X, fallback) for finite a >= 0: a = D 10^(X-16) rounded to 17
    digits, D in [10^16, 10^17), wherever fallback is false."""
    x = np.floor(np.log10(np.where(a == 0.0, 1.0, a))).astype(np.int64)
    b_h, b_l, lo = pow10.take(np.minimum(16 - x, _E_HI) - _E_LO, axis=1)
    a_h = _high26(a)
    a_l = a - a_h
    # a 10^(16-X) = (a_h + a_l) (b_h + b_l + lo): a_h b_h is an integer
    # above 2^53, a_h b_l and a_l b_h are exact below 2^32, and the sum of
    # their fractions and the two small terms is good to about 1e-14
    p1, p2 = a_h * b_l, a_l * b_h
    f1, f2 = np.floor(p1), np.floor(p2)
    frac = (p1 - f1) + (p2 - f2) + a_l * b_l + a * lo
    f3 = np.floor(frac)
    frac -= f3
    d = (a_h * b_h).astype(np.int64) + (f1 + f2 + f3).astype(np.int64)
    # zeros, values below the table and X off by one all land outside
    fb = (np.abs(frac - 0.5) < 1e-6) | (d < 10 ** 16) | (d >= 10 ** 17)
    d += frac > 0.5
    fb |= d >= 10 ** 17
    return d, x, fb


def _format_rows(v, ncols: int) -> bytearray:
    """The finite values v, in row order, as CSV rows of ncols cells, each
    spelled as f"{v:.17g}" spells it."""
    pow10, ascii4, zeros4, keep_mask, exps = _tables()
    n = v.size
    d, x, fb = _digits17(np.abs(v), pow10)
    d[fb] = 10 ** 16
    # fixed notation for -4 <= X < 17, whose integer digits all stay;
    # k digits before the point
    sci = (x < -4) | (x >= 17)
    k = np.where(sci, 1, x + 1)
    k[fb] = 17  # written in full below
    # D as a leading digit and four groups 0000..9999, split exactly in
    # floats below 2^53, each looked up as four ASCII bytes
    lo = (d % 10 ** 8).astype(float)
    hi = (d // 10 ** 8).astype(float)
    raw = bytearray(n * _CELL)
    buf = np.frombuffer(raw, np.uint8).reshape(n, _CELL)
    words = buf.view(np.uint32)
    trailing = np.zeros(n, np.int8)
    for col, rest, unit in ((1, hi, 1e8), (2, hi, 1e4), (3, hi, 1.0),
                            (4, lo, 1e4), (5, lo, 1.0)):
        g = np.floor(rest / unit)
        rest -= g * unit
        g = g.astype(np.intp)
        words[:, col] = ascii4.take(g)
        if col > 1:
            trailing = np.where(g == 0, trailing + 4, zeros4.take(g))
    keep = np.maximum(17 - trailing, k)
    for col in range(1, 6):
        words[:, col] &= keep_mask[col - 1].take(keep)
    cells = buf.view(f"V{_CELL}").ravel()
    for kk in np.flatnonzero(np.bincount(k + 3)[:20]) - 3:
        idx = np.flatnonzero(k == kk)
        group = cells[idx].view(np.uint8).reshape(-1, _CELL)
        if kk <= 0:  # 0.000ddd
            lead = 2 - kk
            group[:, 7 - lead:7] = np.frombuffer(b"0.000"[:lead], np.uint8)
        else:  # the first kk digits one byte left, then the point if a
            # digit follows
            group[:, 6:6 + kk] = group[:, 7:7 + kk]
            group[:, 6 + kk] = (group[:, 7 + kk] != 0) * np.uint8(46)
        cells[idx] = group.view(f"V{_CELL}").ravel()
    sci = np.flatnonzero(sci & ~fb)
    buf[sci, 24:29] = exps.take(x[sci] + 330, axis=0)
    buf[:, 0] = np.signbit(v) * np.uint8(45)
    slow = np.flatnonzero(fb)
    if slow.size:
        text = "".join([("%.17g" % c).ljust(_CELL - 1, "\0")
                        for c in v[slow].tolist()])
        buf[slow, :-1] = np.frombuffer(text.encode(), np.uint8).reshape(
            -1, _CELL - 1)
    sep = buf.reshape(-1, ncols, _CELL)
    sep[:, :, -1] = ord(",")
    sep[:, -1, -1] = ord("\n")
    return raw.translate(None, b"\0")


def write_json(path, obj: dict) -> Path:
    """Write obj as JSON; a NaN or infinity raises ToleranceError and writes
    nothing, since JSON has no spelling for them."""
    path = Path(path)
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ToleranceError(f"{path.name}: {exc}") from None
    return _write(path, [(text + "\n").encode()])
