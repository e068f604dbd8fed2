"""CSV and JSON writers against line-by-line and json.dump references."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_revivals.catstate import SpectralFunction
from dirac_revivals.dataio import (_BLOCK, _CELLS, _chars, _digits, format_number,
                                   write_columns_csv, write_grid_csv, write_grid_json,
                                   write_series_csv, write_spectral_csv)
from dirac_revivals.density import SpatialGrid2D
from dirac_revivals.evolution import TimeSeries

# signed zero, the smallest subnormal, near-overflow, inexact decimals and
# integral floats: the cases where %.17g spellings differ from repr
EDGE = np.array([-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0, 2.0, -7.0, 1e17])


def reference(header, rows):
    lines = ["# schema=1", ",".join(header)]
    lines += [",".join(format_number(x) for x in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def test_format_number_spellings():
    assert [format_number(x) for x in EDGE] == [
        "-0", "4.9406564584124654e-324", "1e+308", "0.10000000000000001",
        "0.33333333333333331", "2", "-7", "1e+17"]


def test_spectral(tmp_path):
    lines = list(zip(EDGE.tolist(), EDGE[::-1].tolist()))
    out = tmp_path / "spec.csv"
    write_spectral_csv(str(out), SpectralFunction(lines=lines))
    assert out.read_text() == reference(["energy", "weight"], lines)


def test_real_series(tmp_path):
    series = TimeSeries(t0=-0.5, dt=0.1, values=EDGE)
    out = tmp_path / "s.csv"
    write_series_csv(str(out), series, "abs_C")
    assert out.read_text() == reference(["t", "abs_C"], zip(series.times, EDGE))


def test_complex_series(tmp_path):
    z = np.concatenate([EDGE + 1j * EDGE[::-1],
                        0.7 * np.exp(1j * np.linspace(0.0, 50.0, 64))])
    # the array np.abs rounds differently from the scalar abs on some of these
    assert np.any(np.abs(z) != np.array([abs(complex(v)) for v in z]))
    series = TimeSeries(t0=0.0, dt=0.25, values=z)
    out = tmp_path / "c.csv"
    write_series_csv(str(out), series)
    rows = [(t, v.real, v.imag, abs(complex(v))) for t, v in zip(series.times, z)]
    assert out.read_text() == reference(["t", "re", "im", "abs"], rows)


def test_columns(tmp_path):
    t = EDGE[::-1].copy()
    columns = {"x": EDGE, "y": EDGE / 3.0, "z": np.arange(len(EDGE), dtype=float)}
    out = tmp_path / "o.csv"
    write_columns_csv(str(out), t, columns)
    assert out.read_text() == reference(["t", "x", "y", "z"], zip(t, *columns.values()))


def test_grid(tmp_path):
    # streamed one t-row at a time, the bytes match the whole-table layout:
    # t-major, then s, every cell through format_number, "\n" line ends
    values = np.stack([EDGE, -EDGE[::-1], EDGE / 7.0, EDGE * 1e-300, np.sqrt(np.abs(EDGE))])
    grid = SpatialGrid2D(s_min=-1.0, s_max=1.0, ns=len(EDGE), t_min=0.0, t_max=1.0 / 3.0,
                         nt=5, values=values)
    out = tmp_path / "g.csv"
    write_grid_csv(str(out), grid)
    rows = [(grid.s[j], t, values[i, j]) for i, t in enumerate(grid.t) for j in range(grid.ns)]
    assert out.read_bytes() == reference(["s", "t", "value"], rows).encode()


def test_columns_across_blocks(tmp_path):
    # formatted _BLOCK rows at a time, the bytes match the whole-table layout
    t = np.linspace(0.0, 1.0, 2 * _BLOCK + 3)
    columns = {"x": np.sin(7.0 * t), "y": -t / 3.0}
    out = tmp_path / "o.csv"
    write_columns_csv(str(out), t, columns)
    assert out.read_text() == reference(["t", "x", "y"], zip(t, *columns.values()))


def test_series_memory_bounded_by_the_block(tmp_path):
    # 120,001 rows: whole columns of cell strings would take about 20 MB
    series = TimeSeries(t0=0.0, dt=0.01, values=np.cos(np.linspace(0.0, 500.0, 120001)))
    out = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        write_series_csv(str(out), series, "abs_C")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert len(out.read_text().splitlines()) == 2 + 120001


def _grid_values(nt, ns):
    return (np.resize(np.concatenate([EDGE, -EDGE / 7.0]), nt * ns).reshape(nt, ns)
            * np.linspace(1.0, 0.5, nt)[:, None])


@pytest.mark.parametrize("values", [
    _grid_values(5, len(EDGE)),
    _grid_values(3, _BLOCK + 7),   # crosses a block boundary
    np.zeros((2, 0)),
])
def test_grid_json_bytes(tmp_path, values):
    # streamed values, the bytes of json.dump(doc, indent=1) plus a newline
    nt, ns = values.shape
    grid = SpatialGrid2D(s_min=-1.0, s_max=1.0, ns=ns, t_min=0.0, t_max=1.0 / 3.0,
                         nt=nt, values=values)
    out = tmp_path / "g.json"
    write_grid_json(str(out), grid)
    doc = {"schema": 1, "s_min": -1.0, "s_max": 1.0, "ns": ns, "t_min": 0.0,
           "t_max": 1.0 / 3.0, "nt": nt, "values": values.ravel().tolist()}
    assert out.read_bytes() == (json.dumps(doc, indent=1) + "\n").encode()


@pytest.mark.parametrize("values, bound, message", [
    (np.array([[0.5, np.nan], [np.inf, -np.inf]]), 1.0, "3 grid values not finite"),
    (np.zeros((2, 2)), np.inf, "s_max = inf not finite"),
], ids=["nan-and-inf-values", "infinite-bound"])
def test_grid_json_refuses_non_finite(tmp_path, values, bound, message):
    # RFC 8259 has no NaN or Infinity: refused before the file exists
    grid = SpatialGrid2D(s_min=-1.0, s_max=bound, ns=2, t_min=0.0, t_max=1.0, nt=2,
                         values=values)
    out = tmp_path / "g.json"
    with pytest.raises(ValueError, match=message):
        write_grid_json(str(out), grid)
    assert not out.exists()


def test_grid_of_wrong_shape_rejected(tmp_path):
    grid = SpatialGrid2D(s_min=-1.0, s_max=1.0, ns=4, t_min=0.0, t_max=1.0, nt=3,
                         values=np.zeros((3, 5)))
    out = tmp_path / "g.csv"
    with pytest.raises(ValueError, match=r"shape \(3, 5\), expected \(nt, ns\) = \(3, 4\)"):
        write_grid_csv(str(out), grid)
    assert not out.exists()


@pytest.mark.parametrize("length", [2, 5])
def test_columns_of_unequal_length_rejected(tmp_path, length):
    out = tmp_path / "o.csv"
    with pytest.raises(ValueError, match=rf"'x' has {length} values, column 't' has 3"):
        write_columns_csv(str(out), np.arange(3.0), {"x": np.arange(float(length))})
    assert not out.exists()


# every finite spelling %.17g has for a double: signed zero, the smallest
# subnormal, the largest finite double and inexact decimals; nan and the
# infinities are refused (test_csv_writers_refuse_non_finite)
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308,
                    0.1, 1.0 / 3.0])
FINITE = SPECIAL[np.isfinite(SPECIAL)]
# empty, one row, and either side of one and two _BLOCK boundaries
LENGTHS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]


def _cycle(values, n, shift=0):
    return np.resize(np.roll(values, shift), n)


@pytest.mark.parametrize("n", LENGTHS)
def test_spectral_bytes_value_by_value(tmp_path, n):
    lines = list(zip(_cycle(FINITE, n).tolist(), _cycle(FINITE, n, 3).tolist()))
    out = tmp_path / "spec.csv"
    write_spectral_csv(str(out), SpectralFunction(lines=lines))
    assert out.read_bytes() == reference(["energy", "weight"], lines).encode()


@pytest.mark.parametrize("n", LENGTHS)
def test_series_bytes_value_by_value(tmp_path, n):
    real = TimeSeries(t0=-0.0, dt=0.1, values=_cycle(FINITE, n))
    out = tmp_path / "s.csv"
    write_series_csv(str(out), real, "abs_C")
    assert out.read_bytes() == reference(["t", "abs_C"], zip(real.times, real.values)).encode()

    z = _cycle(FINITE, n) + 1j * _cycle(FINITE, n, 2)
    cplx = TimeSeries(t0=1.0 / 3.0, dt=0.1, values=z)
    write_series_csv(str(out), cplx)
    rows = [(t, v.real, v.imag, abs(complex(v))) for t, v in zip(cplx.times, z)]
    assert out.read_bytes() == reference(["t", "re", "im", "abs"], rows).encode()


@pytest.mark.parametrize("n", LENGTHS)
def test_columns_bytes_value_by_value(tmp_path, n):
    t = _cycle(FINITE, n)
    columns = {f"c{k}": _cycle(FINITE, n, k) for k in range(1, 9)}
    out = tmp_path / "o.csv"
    write_columns_csv(str(out), t, columns)
    assert out.read_bytes() == reference(["t", *columns], zip(t, *columns.values())).encode()


@pytest.mark.parametrize("nt, ns", [(len(FINITE), len(FINITE)), (2, _BLOCK + 1), (3, 1),
                                    (2, 0)])
def test_grid_bytes_value_by_value(tmp_path, nt, ns):
    values = np.stack([_cycle(FINITE, ns, i) for i in range(nt)])
    grid = SpatialGrid2D(s_min=-1.0 / 3.0, s_max=0.1, ns=ns, t_min=-0.0, t_max=5e-324,
                         nt=nt, values=values)
    out = tmp_path / "g.csv"
    write_grid_csv(str(out), grid)
    rows = [(grid.s[j], t, values[i, j]) for i, t in enumerate(grid.t) for j in range(ns)]
    assert out.read_bytes() == reference(["s", "t", "value"], rows).encode()


def _with(bad, n, k):
    """n finite values, value k replaced by bad."""
    values = _cycle(FINITE, n)
    values[k] = bad
    return values


# each writer with one non-finite value at row k, k past the first _BLOCK rows
# where the table is long enough: (name of the column refused, write call)
NON_FINITE_WRITES = {
    "spectral": ("weight", lambda path, bad, n, k: write_spectral_csv(
        path, SpectralFunction(lines=list(zip(_cycle(FINITE, n), _with(bad, n, k)))))),
    "columns": ("c2", lambda path, bad, n, k: write_columns_csv(
        path, _cycle(FINITE, n), {"c1": _cycle(FINITE, n, 1), "c2": _with(bad, n, k)})),
    "columns-t": ("t", lambda path, bad, n, k: write_columns_csv(
        path, _with(bad, n, k), {"c1": _cycle(FINITE, n, 1)})),
    "grid-value": ("value", lambda path, bad, n, k: write_grid_csv(
        path, SpatialGrid2D(s_min=-1.0, s_max=1.0, ns=n, t_min=0.0, t_max=1.0, nt=2,
                            values=np.stack([_cycle(FINITE, n), _with(bad, n, k)])))),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("n, k", [(1, 0), (2 * _BLOCK + 1, _BLOCK + 5)])
@pytest.mark.parametrize("writer", NON_FINITE_WRITES)
def test_csv_writers_refuse_non_finite(tmp_path, writer, n, k, bad):
    # %.17g would spell nan and inf, which no CSV reader takes for a number:
    # refused, by column, before the file exists
    column, write = NON_FINITE_WRITES[writer]
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=rf"column '{column}' has \d+ values not finite"):
        write(str(out), bad, n, k)
    assert not out.exists()


def test_grid_csv_refuses_a_non_finite_axis(tmp_path):
    # a nan bound: the linspace of an infinite one warns before any writer runs
    grid = SpatialGrid2D(s_min=-1.0, s_max=1.0, ns=3, t_min=0.0, t_max=np.nan, nt=2,
                         values=np.zeros((2, 3)))
    out = tmp_path / "g.csv"
    with pytest.raises(ValueError, match=r"column 't' has 2 values not finite"):
        write_grid_csv(str(out), grid)
    assert not out.exists()


# The block formatter (_chars) against '%.17g' % v value by value: its digits
# come from numpy blocks, and ties, |v| outside [1e-290, 1e290) and a wrong
# exponent guess take the per-value format_number fallback.

def _spelled(values):
    """Each value as the block formatter spells it, read off its char matrix."""
    chars = _chars(np.asarray(values, dtype=float))
    return [row[row != 0].tobytes().decode("ascii") for row in chars]


def _percent(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_formatter_matches_percent_on_finite_floats(values):
    assert _spelled(values) == _percent(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_formatter_matches_percent_on_raw_bit_patterns(bits):
    # every double, subnormals, nan and the infinities among them
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _spelled(values) == _percent(values)


def _around(points):
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, np.inf)])


POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-300, 301)])
SMALLEST_NORMAL = 2.2250738585072014e-308
EDGES = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308],
                        _around([SMALLEST_NORMAL, 1e-290, 1e290]), _around(POWERS_OF_TEN)])
# %g switches from e-notation to fixed at 1e-4 and back at 1e17
SWITCHES = np.concatenate([_around([1e-5, 1e-4, 1e16, 1e17])]
                          + [np.linspace(0.99 * p, 1.01 * p, 401)
                             for p in (1e-5, 1e-4, 1e16, 1e17)])


@pytest.mark.parametrize("values", [EDGES, SWITCHES], ids=["edges", "switch-points"])
def test_formatter_matches_percent_on_edges(values):
    values = np.concatenate([values, -values])
    assert _spelled(values) == _percent(values)


@pytest.mark.parametrize("divisor", [4, 8, 32, 128])
def test_formatter_matches_percent_on_exact_ties(divisor):
    # odd m over 2**f has f decimals, the last a 5: with 18 - f integer digits
    # it has 18 significant digits and is a tie at 17, which format_number writes
    rng = np.random.default_rng(divisor)
    f = divisor.bit_length() - 1
    low = divisor * 10 ** (17 - f)
    ties = (rng.integers(low, min(10 * low, 2 ** 53), 2000) | 1) / divisor
    assert not _digits(ties)[2].any()
    values = np.concatenate([ties, (rng.integers(2 ** 52, 2 ** 53, 2000) | 1) / divisor])
    assert _spelled(values) == _percent(values)


def test_fallback_keeps_row_order(tmp_path):
    # values format_number writes (a tie, one below and one above the block
    # range), amid every layout, in one block and across table columns
    values = np.array([0.5, 2 ** 52 / 4 + 0.25, 3.0, 1e-300, 1.5e-5, -7e20, 1e300, 0.1, 0.0])
    assert not _digits(np.abs(values))[2][[1, 3, 6]].any()
    assert _spelled(values) == _percent(values)
    out = tmp_path / "o.csv"
    columns = {"x": values[::-1], "y": np.roll(values, 4)}
    write_columns_csv(str(out), values, columns)
    assert out.read_text() == reference(["t", "x", "y"], zip(values, *columns.values()))


@pytest.mark.parametrize("ncols", [1, 2, 9])
def test_columns_across_cell_blocks(tmp_path, ncols):
    # rows either side of two _CELLS blocks, values over the whole double range
    rng = np.random.default_rng(ncols)
    n = 2 * (_CELLS // ncols) + 1
    t = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n)
    columns = {f"c{k}": np.roll(t, k) * rng.uniform(0.5, 2.0, n) for k in range(1, ncols)}
    out = tmp_path / "o.csv"
    write_columns_csv(str(out), t, columns)
    assert out.read_bytes() == reference(["t", *columns], zip(t, *columns.values())).encode()


@pytest.mark.parametrize("nt, ns", [(2 * (_CELLS // 15) + 1, 5), (3, _CELLS // 3 + 1)],
                         ids=["rows-across-blocks", "one-row-blocks"])
def test_grid_across_cell_blocks(tmp_path, nt, ns):
    # t rows either side of two blocks of about _CELLS / 3 lines, and rows of
    # more lines than a block holds; values over the whole double range
    rng = np.random.default_rng(ns)
    values = rng.standard_normal((nt, ns)) * 10.0 ** rng.integers(-320, 308, (nt, ns))
    grid = SpatialGrid2D(s_min=-1.0 / 3.0, s_max=7e-5, ns=ns, t_min=-2.5, t_max=1e17, nt=nt,
                         values=values)
    out = tmp_path / "g.csv"
    write_grid_csv(str(out), grid)
    rows = [(grid.s[j], t, values[i, j]) for i, t in enumerate(grid.t) for j in range(ns)]
    assert out.read_bytes() == reference(["s", "t", "value"], rows).encode()


def _traced_peak(write):
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_csv_memory_bounded_by_the_block(tmp_path):
    # 301 x 1201 cells: a block of 8,192 t rows' worth of cells per write
    # would hold over 8 MiB of temporaries
    rng = np.random.default_rng(0)
    grid = SpatialGrid2D(s_min=-26.0, s_max=26.0, ns=1201, t_min=0.0, t_max=600.0, nt=301,
                         values=np.exp(-rng.uniform(0.0, 80.0, (301, 1201))))
    out = tmp_path / "g.csv"
    assert _traced_peak(lambda: write_grid_csv(str(out), grid)) < 4 * 2 ** 20
    assert len(out.read_bytes().splitlines()) == 2 + 301 * 1201


def test_columns_csv_memory_bounded_by_the_block(tmp_path):
    # the observables table: 20,000 rows of t and 8 columns; blocks of 8,192
    # rows took over 8 MiB
    rng = np.random.default_rng(1)
    t = np.linspace(0.0, 3.0e6, 20000)
    columns = {f"c{k}": rng.standard_normal(20000) for k in range(8)}
    out = tmp_path / "o.csv"
    assert _traced_peak(lambda: write_columns_csv(str(out), t, columns)) < 4 * 2 ** 20
    assert len(out.read_bytes().splitlines()) == 2 + 20000
