"""Stable special-function kernels and generic numerical utilities.

The workhorse is the orthonormal Hermite function

    F_n(s) = (sqrt(eB) / (n! 2^n sqrt(pi)))^(1/2) exp(-s^2/2) H_n(s),

evaluated by one three-term recurrence on the normalized functions
themselves (never on raw H_n or n!).  It carries a binary exponent per
column, so every value that fits a double comes out right, also where the
envelope exp(-s^2/2) alone underflows (large |s|, n ~ 10^4); see Bunck,
BIT 49 (2009).  A peak finder rounds out the toolbox; all are pure
functions with no shared mutable state.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "hermite_table",
    "find_peaks",
]

_LN2 = math.log(2.0)
_HUGE_EXP = 600
_HUGE = 2.0 ** _HUGE_EXP


def hermite_table(n_max: int, s: np.ndarray, eB: float = 1.0) -> np.ndarray:
    """All F_0..F_{n_max} on a grid; shape (n_max+1,) + s.shape.

    F_n(s) alone is hermite_table(n, [s])[n, 0].  Every row carries the
    (eB)^(1/4) amplitude of the magnetic length scale.

    The one recurrence behind every Hermite shape:
    F_{k+1} = s*sqrt(2/(k+1)) F_k - sqrt(k/(k+1)) F_{k-1}, seeded with
    F_0 = pi^(-1/4) exp(-s^2/2).  Each column carries a binary exponent.  A
    seed below exp(-600) is split into a mantissa and that exponent, and
    every 16 steps the live pair of rows of any column past 2^600 is divided
    by 2^600 (exact) after the rows before it have been scaled back with
    ldexp.  Columns that need neither run the plain recurrence, bit for bit.
    So any finite s works: values below the double range read 0, and past |s| =
    2^30, beyond any table's turning point, a column reads 0 without a seed.
    """
    if n_max < 0:
        raise ValueError(f"order must be >= 0, got {n_max}")
    if not (eB > 0.0) or not math.isfinite(eB):
        raise ValueError(f"eB must be positive and finite, got {eB}")
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("s must be finite (no NaN or inf)")
    far = np.abs(s) > 2.0 ** 30
    s = np.where(far, 0.0, s)  # a zero seed below keeps far columns 0 through the recurrence
    log_seed = -0.5 * s * s
    shift = np.where(log_seed < -600.0, np.floor(log_seed / _LN2), 0.0)
    expo = shift.astype(np.int64)
    out = np.empty((n_max + 1,) + s.shape)
    out[0] = np.where(far, 0.0, np.pi ** -0.25 * np.exp(log_seed - shift * _LN2))
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * s * out[0]
    done = 0  # rows below `done` hold unscaled values
    for k in range(1, n_max):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * s * out[k] - np.sqrt(k / (k + 1.0)) * out[k - 1]
        if k % 16 == 0 and np.abs(out[k:k + 2]).max() > _HUGE:
            big = (np.abs(out[k:k + 2]) > _HUGE).any(axis=0)
            if expo.any():
                out[done:k] = np.ldexp(out[done:k], expo)
            done = k
            out[k:k + 2, big] /= _HUGE
            expo[big] += _HUGE_EXP
    if expo.any():
        out[done:] = np.ldexp(out[done:], expo)
    amp = eB ** 0.25
    if amp != 1.0:
        out *= amp
    return out


def find_peaks(series, min_height: float, min_separation: float) -> list[tuple[float, float]]:
    """Local maxima of a uniformly sampled series, refined sub-grid.

    `series` needs `t0`, `dt` and `values` attributes (see TimeSeries).
    Maxima below `min_height` are dropped; of any cluster closer than
    `min_separation` only the highest survives (greedy by height).  Each
    kept peak is refined by a 3-point parabolic fit in both position and
    height.  Returns (t, height) pairs sorted by t.
    """
    values = np.asarray(series.values)
    if np.iscomplexobj(values):
        values = np.abs(values)
    n = values.size
    if n == 0:
        raise ValueError("empty series")
    dt = float(series.dt)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    t0 = float(series.t0)

    interior = np.arange(1, n - 1)
    is_max = (values[interior] >= values[interior - 1]) & (values[interior] >= values[interior + 1])
    # plateau guard: keep only the first sample of a flat run
    is_max &= ~((values[interior] == values[interior - 1]) & (values[interior] == values[interior + 1]))
    cand = interior[is_max & (values[interior] >= min_height)]

    kept: list[int] = []
    # by height, then index: Python floats and ints sort without numpy scalars
    for _, i in sorted(zip((-values[cand]).tolist(), cand.tolist())):
        if all(abs(i - j) * dt >= min_separation for j in kept):
            kept.append(i)

    peaks = []
    for i in kept:
        ym, y0, yp = values[i - 1], values[i], values[i + 1]
        denom = ym - 2.0 * y0 + yp
        if denom < 0.0:
            delta = 0.5 * (ym - yp) / denom
            height = y0 - 0.25 * (ym - yp) * delta
        else:
            delta, height = 0.0, y0
        peaks.append((t0 + (i + delta) * dt, float(height)))
    peaks.sort()
    return peaks
