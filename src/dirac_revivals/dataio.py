"""Deterministic CSV/JSON emitters for the computed datasets.

Every CSV starts with a `# schema=1` comment and a header row; JSON
documents carry a top-level "schema" field.  Numbers are formatted with
repr-faithful %.17g so identical configurations produce byte-identical
files; nan and inf are refused before the file exists.  Every writer takes
a path, or "-" for stdout.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence, TextIO

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
_NUMBER = "%.17g"
_BLOCK = 1024  # rows (CSV) or values (JSON) formatted per write


def format_number(x: float) -> str:
    return _NUMBER % float(x)


@contextmanager
def _text_out(path: str) -> Iterator[TextIO]:
    """The file at path opened for writing, or sys.stdout for "-"."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _write_header(fh: TextIO, header: Sequence[str]) -> None:
    fh.write(f"# schema={SCHEMA_VERSION}\n{','.join(header)}\n")


def _check_finite(name: str, values) -> None:
    """Refuse nan and inf, which %.17g spells as words, before the file exists."""
    if not np.isfinite(values).all():
        raise ValueError(f"column {name!r} has {np.count_nonzero(~np.isfinite(values))} "
                         "values not finite: a CSV cell must be a finite number")


def _write_table(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Schema line, header row, then row k joins value k of every column.

    Each block of _BLOCK rows is one `%` over its values in row-major order,
    so one block's string is all that is held beyond the columns themselves.
    """
    rows = len(columns[0])
    for name, col in zip(header, columns):
        if len(col) != rows:
            raise ValueError(f"column {name!r} has {len(col)} values, "
                             f"column {header[0]!r} has {rows}")
        _check_finite(name, col)
    with _text_out(path) as fh:
        _write_header(fh, header)
        row = ",".join([_NUMBER] * len(columns)) + "\n"
        for i in range(0, rows, _BLOCK):
            block = np.stack([np.asarray(col[i:i + _BLOCK], dtype=float) for col in columns], 1)
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


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
    """(s, t, value) triples, t-major then s, streamed as one `%` per t row."""
    if grid.values.shape != (grid.nt, grid.ns):
        raise ValueError(f"grid values have shape {grid.values.shape}, "
                         f"expected (nt, ns) = ({grid.nt}, {grid.ns})")
    values = np.asarray(grid.values, dtype=float)
    for name, col in (("s", grid.s), ("t", grid.t), ("value", values)):
        _check_finite(name, col)
    s = [format_number(x) for x in grid.s] + [""]
    with _text_out(path) as fh:
        _write_header(fh, ("s", "t", "value"))
        for t, row in zip(grid.t, values):
            # s_0 + sep + s_1 + ... + sep: one "s_j,t,%.17g\n" line per s
            fh.write(f",{format_number(t)},{_NUMBER}\n".join(s) % tuple(row.tolist()))


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
