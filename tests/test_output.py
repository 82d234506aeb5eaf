"""The CSV body formatter's hard cases, byte for byte against f"{v:.17g}".

write_csv spells every body cell in numpy.  The values here are the ones
that path finds hardest: exponents near a power of ten, rounding that
crosses one, exact ties at the 18th digit, trailing zeros, subnormals,
zeros, the edges of the power-of-ten table, and random bit patterns.
The last tests pin how a table is cut into blocks.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from sonicbh import output
from sonicbh.output import _E_HI, _E_LO, write_csv


def _check(tmp_path, parts):
    """Write the values of parts (numbers and arrays), and their negatives,
    as a one-column CSV; every line must be f"{v:.17g}"."""
    values = np.concatenate([np.ravel(np.asarray(p, dtype=float))
                             for p in parts])
    values = np.concatenate([values, -values])
    body = write_csv(tmp_path / "v.csv", ["v"], values[:, None]).read_text()
    got = body.splitlines()[1:]
    want = [f"{v:.17g}" for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]


def _powers_of_ten(lo, hi):
    return np.array([float(f"1e{k}") for k in range(lo, hi + 1)])


def test_neighbours_of_powers_of_ten(tmp_path):
    p = _powers_of_ten(-307, 308)
    _check(tmp_path, [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


def test_rounding_across_a_power_of_ten(tmp_path):
    # the floats just below 10^k: some round up to 1e(k) at 17 digits and
    # so take the next exponent's spelling; 9.9999999999999995e-07 does not
    cases = [9.9999999999999995e-07, 9.9999999999999991e-07, 99999.999999999985]
    below = _powers_of_ten(-300, 308)
    for _ in range(8):
        below = np.nextafter(below, 0.0)
        cases.append(below)
    _check(tmp_path, cases)
    assert f"{9.9999999999999995e-07:.17g}" == "9.9999999999999995e-07"


def test_exact_ties_at_the_eighteenth_digit(tmp_path):
    # v 10^(16-X) = N + 1/2 with N of 17 digits is an exact tie.  With
    # 2N + 1 = q 5^(16-X), v = q 2^(X-17) is a float for odd q below 2^53,
    # which leaves X in [-8, 15].  Ties round half to even, so both
    # parities of N occur
    rng = np.random.default_rng(7919)
    ties = [1234567890123456.75, 1234567890123456.25]
    for x in range(-8, 16):
        m = 5 ** (16 - x)
        lo, hi = -(-2 * 10 ** 16 // m), min(2 * 10 ** 17 // m, 2 ** 53)
        for q in rng.integers(lo, hi, size=40).tolist():
            if q | 1 < hi:
                ties.append(math.ldexp(q | 1, x - 17))
    for v in ties:
        scaled = Fraction(v) * Fraction(10) ** (16 - math.floor(math.log10(v)))
        assert scaled.denominator == 2, v
    _check(tmp_path, ties)
    assert f"{1234567890123456.75:.17g}" == "1234567890123456.8"
    assert f"{1234567890123456.25:.17g}" == "1234567890123456.2"


def test_trailing_zeros(tmp_path):
    _check(tmp_path, [0.1, 0.5, 50000.0, 1e16, 1e17, 123456789.0, 100.0,
                      0.0001, 0.00012, 1.5e-5, 2.0 ** 53, 2.0 ** 60, 1e22,
                      np.arange(1.0, 2001.0), np.arange(1, 2001) / 1000.0])


def test_subnormals_and_zeros(tmp_path):
    rng = np.random.default_rng(1)
    sub = rng.integers(1, 2 ** 52, size=2000, dtype=np.uint64).view(np.float64)
    _check(tmp_path, [0.0, -0.0, 5e-324, 1e-323, 2.2250738585072009e-308,
                      2.2250738585072014e-308, sub])


def test_table_exponent_edges(tmp_path):
    # the table holds 10^(16-X) for X in [16 - _E_HI, 16 - _E_LO]; one
    # exponent beyond either end takes the '%' path
    edges = []
    for x in (16 - _E_HI - 1, 16 - _E_HI, 16 - _E_HI + 1,
              16 - _E_LO - 1, 16 - _E_LO):
        p = float(f"1e{x}")
        edges += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf),
                  1.2345678901234567 * p, 1.7976931348623157 * p]
    _check(tmp_path, edges)


def test_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(7919)
    bits = rng.integers(0, 2 ** 64, size=120_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:100_000]
    assert values.size == 100_000
    _check(tmp_path, [values])


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e3, 1e15])
def test_random_normals(tmp_path, scale):
    # the fixed-notation groups, from 0.000ddd to 16 integer digits
    rng = np.random.default_rng(11)
    _check(tmp_path, [rng.standard_normal(5000) * scale])


def _hard_table(nrows, ncols, seed=7919):
    """nrows x ncols cells mixing the cases above: powers of ten and their
    neighbours, ties at the 18th digit, subnormals, +-0 and cells below
    1e-292, among random bit patterns, all in shuffled places."""
    rng = np.random.default_rng(seed)
    p = _powers_of_ten(-307, 308)
    hard = np.concatenate([
        p, np.nextafter(p, 0.0), np.nextafter(p, np.inf),
        [1234567890123456.75, 1234567890123456.25, 0.0, -0.0, 5e-324,
         1e-300, 3.5e-295, 2.2250738585072009e-308],
        rng.integers(1, 2 ** 52, size=200, dtype=np.uint64).view(np.float64)])
    bits = rng.integers(0, 2 ** 64, size=2 * nrows * ncols,
                        dtype=np.uint64).view(np.float64)
    cells = np.concatenate([hard, bits[np.isfinite(bits)]])[:nrows * ncols]
    cells *= rng.choice([-1.0, 1.0], size=cells.size)
    return rng.permutation(cells).reshape(nrows, ncols)


def test_partition_leaves_the_bytes_alone(tmp_path, monkeypatch):
    table = _hard_table(700, 6)
    assert (table == 0).sum() == 2 and (np.abs(table) < 1e-292).sum() > 200
    want = "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                   for row in table.tolist())
    for block in (6, 2048, 4096, table.size + 1):
        monkeypatch.setattr(output, "_BLOCK", block)
        path = write_csv(tmp_path / f"b{block}.csv", list("abcdef"), table)
        assert path.read_bytes() == b"a,b,c,d,e,f\n" + want.encode(), block


@pytest.mark.parametrize("nrows, ncols, calls", [
    (96, 6, 1), (1024, 6, 2), (2048, 6, 3), (1024, 3, 1), (4096, 3, 3)])
def test_partition_is_ceil_cells_over_block(tmp_path, monkeypatch, nrows,
                                            ncols, calls):
    # whole rows in ceil(cells / 4096) near-equal blocks, with no short
    # remainder block: perfbench's 1024 x 6 spectrum table is 2 calls
    sizes = []

    def counted(v, n):
        sizes.append(v.size)
        return format_rows(v, n)

    format_rows = output._format_rows
    monkeypatch.setattr(output, "_format_rows", counted)
    table = np.random.default_rng(nrows).standard_normal((nrows, ncols))
    write_csv(tmp_path / "t.csv", [f"c{i}" for i in range(ncols)], table)
    assert len(sizes) == calls and sum(sizes) == table.size
    assert max(sizes) - min(sizes) <= ncols
    assert max(sizes) <= output._BLOCK + ncols

