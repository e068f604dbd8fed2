"""Deterministic CSV/JSON emitters for the computed datasets.

Every CSV starts with a `# schema=1` comment and a header row; JSON
documents carry a top-level "schema" field.  CSV numbers are the bytes of
'%.17g' % v, so identical configurations produce byte-identical files; nan
and inf are refused before the file exists.  Every writer takes a path, or
"-" for stdout.  The CSV writers format blocks of cells in numpy: the 17
digits come from an exact two-product, and format_number writes the values
that path cannot settle (2**-30 near a tie, |v| outside [1e-290, 1e290) but
0, a log10 exponent guess one off).  The JSON writers keep json.dumps, the
shortest round-trip repr, another algorithm.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .catstate import SpectralFunction
from .density import SpatialGrid2D
from .evolution import TimeSeries

__all__ = [
    "SCHEMA_VERSION",
    "format_number",
    "write_spectral_csv",
    "write_series_csv",
    "write_columns_csv",
    "write_grid_csv",
    "write_grid_json",
    "write_timescales_json",
]

SCHEMA_VERSION = 1
_BLOCK = 1024  # values per write of the JSON grid
_CELLS = 4096  # cells per write of a CSV; blocks of 8,192 ran 1.5-3x slower per cell
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_TEXT = None  # four-digit ASCII words, the same without trailing zeros, e-notation suffixes


def format_number(x: float) -> str:
    return "%.17g" % float(x)


@functools.cache
def _pow10(p: int) -> tuple[float, float, float, float]:
    """hi, hh, hl, lo: 10**p = hi + lo, hi rounded; hh + hl = hi in 26-bit halves."""
    num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
    hi = num / den  # exact int arithmetic: int / int rounds correctly
    n, d = hi.as_integer_ratio()
    m, e = math.frexp(hi)  # hi * _SPLIT overflows past 1e300
    hh = math.ldexp(m * _SPLIT - (m * _SPLIT - m), e)
    return hi, hh, hi - hh, (num * d - n * den) / (den * d)


def _digits(v: np.ndarray):
    """D, X, ok: v rounded to 17 digits is D 10**(X - 16), D in [10**16, 10**17).

    v 10**(16 - X) is Dekker's exact two-product (Numer. Math. 18, 1971) of v
    and hi, plus v lo: unfused IEEE * + and floor, none overflowing or subnormal.
    ok is False where D is out of range (log10 guessed X wrong, or rounding
    carried), where v is not 0 or in [1e-290, 1e290), and 2**-30 near a tie.
    """
    ok = (v >= 1e-290) & (v < 1e290)
    a = np.where(ok, v, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    p = 16 - X
    low, high = (int(p.min()), int(p.max())) if p.size else (0, 0)
    table = np.array([_pow10(q) for q in range(low, high + 1)])
    hi, hh, hl, lo = np.take(table.T, p - low, axis=1)
    ah = a * _SPLIT
    ah -= ah - a
    y = a * hi
    err = ((ah * hh - y) + ah * hl + (a - ah) * hh) + (a - ah) * hl + a * lo
    whole = np.floor(y)
    frac = (y - whole) + err
    carry = np.floor(frac)
    D = whole.astype(np.int64) + carry.astype(np.int64)
    frac -= carry
    ok &= (D >= 10 ** 16) & (np.abs(frac - 0.5) > 2.0 ** -30)
    D += frac > 0.5
    ok &= D < 10 ** 17
    D[v == 0] = 0
    return D, X, ok | (v == 0)


def _chars(x: np.ndarray) -> np.ndarray:
    """uint8 rows: row i is '%.17g' % x[i] once its 0 bytes go, then a free column.

    Rows are sorted by layout, so that each layout is a few slice copies;
    format_number writes the values that _digits leaves.
    """
    global _TEXT
    if _TEXT is None:
        g, text = np.arange(10000), np.empty((2, 10000, 4), np.uint8)
        for k, p in enumerate((1000, 100, 10, 1)):  # the digits' int64 ops: no new numpy code
            text[:, :, k] = g // p - g // (10 * p) * 10 + ord("0")
            text[1, :, k] = np.where(g - g // (10 * p) * (10 * p) == 0, 0, text[0, :, k])
        suffix = b"".join(("e%+03d" % X).encode().ljust(8, b"\0") for X in range(-330, 330))
        _TEXT = (*text.view(np.uint32)[:, :, 0], np.frombuffer(suffix, np.uint64))
    full, strip, suffix = _TEXT
    D, X, ok = _digits(np.abs(x))
    layout = np.where((X >= -4) & (X < 17), X + 4, 21).astype(np.uint8)  # 21: e-notation
    order = np.argsort(layout)
    D, X = D[order], X[order]
    words = np.repeat(np.frombuffer(bytes(3) + b"0" + bytes(28), np.uint32)[None], len(x), 0)
    tail = True  # no nonzero digit after this group: its trailing zeros go
    for j in (5, 4, 3, 2, 1):  # bytes 3-24: "0000", the 17 digits, 0 (word 1: "000d")
        q = D // 10 ** 4
        group = D - q * 10 ** 4
        words[:, j] = np.where(tail, strip[group], full[group])
        tail &= group == 0
        D = q
    padded = words.view(np.uint8)[:, 3:25]
    res = np.zeros((len(x), 27), np.uint8)  # %.17g takes at most 24: -1.2345678901234567e-308
    res[:, 0] = np.signbit(x)[order] * ord("-")
    ends = np.cumsum(np.bincount(layout, minlength=22)).tolist()
    for code, start, end in filter(lambda g: g[1] < g[2], zip(range(22), [0, *ends], ends)):
        e = code - 4 if code < 21 else 0
        src, n = padded[start:end, 4 + min(e, 0):], max(e, 0) + 1  # 0.000ddd: "0" and fraction
        res[start:end, 1:n + 1] = src[:, :n] | ord("0")  # integer digits keep their zeros
        res[start:end, n + 1] = (src[:, n] != 0) * ord(".")
        res[start:end, n + 2:src.shape[1] + 2] = src[:, n:]
        if code == 21:  # 8 bytes, at most 5 of them used
            res[start:end, 19:27].view(np.uint64)[:, 0] = suffix[X[start:end] + 330]
    out = np.empty_like(res)
    out.view("V27")[order] = res.view("V27")
    for i in np.flatnonzero(~ok).tolist():
        out[i] = list(format_number(x[i]).encode().ljust(27, b"\0"))
    return out


def _write_csv(path: str, header: Sequence[str], blocks: Iterable[tuple[np.ndarray, ...]]) -> None:
    """Schema line, header row, then one line per row of each block's values after
    its lead: _chars matrices that broadcast against the values, separator set."""
    with _text_out(path) as fh:
        fh.write(f"# schema={SCHEMA_VERSION}\n{','.join(header)}\n")
        for values, *lead in blocks:
            cells = _chars(values.ravel()).reshape(*values.shape, -1)
            cells[..., -1] = ord(",")
            cells[..., -1, -1] = ord("\n")
            parts = [np.broadcast_to(c, (*values.shape, c.shape[-1])) for c in (*lead, cells)]
            fh.write(np.concatenate(parts, -1).tobytes().translate(None, b"\0").decode("ascii"))


@contextmanager
def _text_out(path: str) -> Iterator[TextIO]:
    """The file at path opened for writing, or sys.stdout for "-"."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _check_finite(name: str, values) -> None:
    """Refuse nan and inf, which %.17g spells as words, before the file exists."""
    if not np.isfinite(values).all():
        raise ValueError(f"column {name!r} has {np.count_nonzero(~np.isfinite(values))} "
                         "values not finite: a CSV cell must be a finite number")


def _write_table(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Row k joins value k of every column; blocks of about _CELLS cells bound the memory."""
    rows = len(columns[0])
    for name, col in zip(header, columns):
        if len(col) != rows:
            raise ValueError(f"column {name!r} has {len(col)} values, "
                             f"column {header[0]!r} has {rows}")
        _check_finite(name, col)
    step = max(1, _CELLS // len(columns))
    _write_csv(path, header, ((np.stack([np.asarray(c[i:i + step], float) for c in columns], 1),)
                              for i in range(0, rows, step)))


def write_spectral_csv(path: str, spectral: SpectralFunction) -> None:
    """Lines sorted by energy: columns energy, weight."""
    lines = np.asarray(spectral.lines, dtype=float).reshape(-1, 2)
    _write_table(path, ("energy", "weight"), (lines[:, 0], lines[:, 1]))


def write_series_csv(path: str, series: TimeSeries, label: str = "value") -> None:
    """Real series as t,<label>; complex series as t,re,im,abs."""
    values = np.asarray(series.values)
    if np.iscomplexobj(values):
        # hypot is what Python's complex abs computes; the array np.abs rounds differently
        _write_table(path, ("t", "re", "im", "abs"),
                     (series.times, values.real, values.imag, np.hypot(values.real, values.imag)))
    else:
        _write_table(path, ("t", label), (series.times, values))


def write_columns_csv(path: str, t: np.ndarray, columns: dict[str, np.ndarray]) -> None:
    """Shared time axis with one named column per series."""
    _write_table(path, ("t", *columns), [np.asarray(t), *map(np.asarray, columns.values())])


def write_grid_csv(path: str, grid: SpatialGrid2D) -> None:
    """(s, t, value) triples, t-major then s; s and t are formatted once per grid."""
    if grid.values.shape != (grid.nt, grid.ns):
        raise ValueError(f"grid values have shape {grid.values.shape}, "
                         f"expected (nt, ns) = ({grid.nt}, {grid.ns})")
    s, t = grid.s, grid.t
    values = np.asarray(grid.values, dtype=float)[:, :, None]  # one value cell per line
    for name, col in (("s", s), ("t", t), ("value", values)):
        _check_finite(name, col)
    s, t = (c[:, :np.flatnonzero(c.any(0)).max(initial=-1) + 2] for c in (_chars(s), _chars(t)))
    s[:, -1] = t[:, -1] = ord(",")  # formatted once per grid, so cut to their used columns
    step = max(1, _CELLS // max(3 * grid.ns, 1))  # t rows per write, 3 cells a line
    starts = range(0, grid.nt if grid.ns else 0, step)
    _write_csv(path, ("s", "t", "value"),
               ((values[i:i + step], s[:, None], t[i:i + step, None, None]) for i in starts))


def write_grid_json(path: str, grid: SpatialGrid2D) -> None:
    """Grid spec plus a flat row-major value array.

    The bytes are those of json.dump(doc, indent=1), written _BLOCK values
    at a time; each block goes through json's C encoder, with the item
    separator of that indented layout.  RFC 8259 has no Infinity or NaN, so a
    non-finite value is refused before the file exists.
    """
    head = {"schema": SCHEMA_VERSION, "s_min": grid.s_min, "s_max": grid.s_max,
            "ns": grid.ns, "t_min": grid.t_min, "t_max": grid.t_max, "nt": grid.nt}
    values = np.asarray(grid.values, dtype=float).ravel()
    bad = [f"{key} = {value}" for key, value in head.items() if not np.isfinite(value)]
    if not np.isfinite(values).all():
        bad.append(f"{np.count_nonzero(~np.isfinite(values))} grid values")
    if bad:
        raise ValueError(f"{', '.join(bad)} not finite: strict JSON has no Infinity or NaN")
    with _text_out(path) as fh:
        fh.write("{\n")
        fh.writelines(f' "{key}": {json.dumps(value)},\n' for key, value in head.items())
        if not values.size:
            fh.write(' "values": []\n}\n')
            return
        fh.write(' "values": [\n  ')
        for i in range(0, values.size, _BLOCK):
            items = json.dumps(values[i:i + _BLOCK].tolist(), separators=(",\n  ", ": "))
            fh.write((",\n  " if i else "") + items[1:-1])
        fh.write("\n ]\n}\n")


def write_timescales_json(path: str, report: dict) -> None:
    """Fixed field order: schema, n0, delta_n, residual, T1, T2, T3, params."""
    doc = {"schema": SCHEMA_VERSION}
    for key in ("n0", "delta_n", "residual", "T1", "T2", "T3", "params"):
        if key in report:
            doc[key] = report[key]
    try:
        text = json.dumps(doc, indent=1, allow_nan=False)
    except ValueError:  # RFC 8259 has no Infinity or NaN: refuse before the file exists
        bad = [f"{k} = {v}" for k, v in doc.items() if isinstance(v, float) and not np.isfinite(v)]
        raise ValueError(f"{', '.join(bad)}: strict JSON has no Infinity or NaN") from None
    with _text_out(path) as fh:
        fh.write(text + "\n")
