"""Unitary evolution of cat states: survival amplitude and time scales.

Each excited label evolves with exp(-i E t) on the r=1 branch (energy
+E_n) and exp(+i E t) on r=2 (energy -E_n).  With the parity-selected
levels stepping by two, the derivative tower of E(n) at the fitted mean
level sets the characteristic periods

    T1 = 2 pi / (2 |E'|),   T2 = 2 pi / (4 |E''| / 2),   T3 = 2 pi / (8 |E'''| / 6),

half the usual wave-packet scales order by order.  Survival and observables
sum their rows on exp(-i E t) as the tile products of _grid_rows on a uniform
grid, and at arbitrary times on the direct walk _direct_rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catstate import CatExpansion
from .landau import _POPULATED, PhysicalParams, _component_table, energy_derivatives
from .numerics import hermite_table

__all__ = [
    "TimeScales",
    "TimeSeries",
    "time_scales",
    "kz_for_ab_ratio",
    "survival_amplitude",
    "survival_series",
    "autocorrelation_series",
    "evolve_profile",
]


@dataclass(frozen=True)
class TimeScales:
    T1: float
    T2: float
    T3: float


@dataclass(frozen=True)
class TimeSeries:
    """Uniform samples values[k] at t = t0 + k*dt (real or complex); times = _axis(t0, dt, n)."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        v = np.asarray(self.values)
        if v.size and not np.all(np.isfinite(v)):
            raise ValueError("series values must be finite")

    @property
    def times(self) -> np.ndarray:
        return _axis(self.t0, self.dt, len(self.values))


def time_scales(n0: float, p: PhysicalParams) -> TimeScales:
    """Characteristic periods from the energy expansion at real n0.

    A vanishing derivative maps to an infinite scale rather than an error.
    """
    d1, d2, d3 = energy_derivatives(n0, p)

    def period(coeff: float, d: float) -> float:
        return math.inf if d == 0.0 else 2.0 * math.pi / (coeff * abs(d))

    return TimeScales(
        T1=period(2.0, d1),
        T2=period(2.0, d2),        # 4|E''|/2
        T3=period(8.0 / 6.0, d3),  # 8|E'''|/6
    )


def kz_for_ab_ratio(ratio: float, n0: float, eB: float = 1.0) -> float:
    """Longitudinal momentum making A_{n0}/B_{n0} equal `ratio`.

    A/B = kz/sqrt(2 n eB) independent of the mass, so the solve is exact.
    """
    if ratio < 0.0:
        raise ValueError("ratio must be >= 0")
    if n0 <= 0.0 or eB <= 0.0:
        raise ValueError("n0 and eB must be positive")
    return ratio * math.sqrt(2.0 * n0 * eB)


def _axis(x0: float, dx: float, n: int) -> np.ndarray:
    """x0 + k dx for k < n: every uniform axis, unchecked (n = 0 and 1 give [] and [x0])."""
    return x0 + dx * np.arange(n)


def _uniform_grid(t0: float, t1: float, samples: int) -> float:
    """Spacing dt of the axis _axis(t0, dt, samples) over [t0, t1]; refuses fewer than 2
    samples, a span not finite or not positive, a dt = (t1 - t0)/(samples - 1) of 0, and a
    dt <= 4 ulp(max(|t0|, |t1|)): fl(k dt) and the sum each round by at most one ulp,
    so above that every t0 + k dt strictly increases."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if not math.isfinite(float(t1) - float(t0)):  # also false for inf or nan bounds
        raise ValueError(f"grid bounds must be finite, with a finite span; got [{t0}, {t1}]")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    if not (dt := (t1 - t0) / (samples - 1)):
        raise ValueError(f"spacing (t1 - t0)/(samples - 1) = {t1 - t0:g}/{samples - 1} rounds to 0")
    if dt <= 4.0 * math.ulp(bound := max(abs(t0), abs(t1))):
        raise ValueError(f"spacing {dt:g} is at most 4 ulp of max(|t0|, |t1|) = {bound:.17g}: "
                         f"the grid points t0 + k*dt would repeat")
    return dt


_BLOCK_CELLS = 2 ** 15  # cells per block of a (time x level) table: 0.5 MB complex, fits in L2
_STRIDE = 64  # sample k = q*_STRIDE + r of a uniform grid takes its phase as P[q] * R[r]
_PRODUCT_MACS = 2 ** 18  # multiply-adds per tile product of _grid_rows: one OpenBLAS thread


def _block_rows(levels: int) -> int:
    """Time rows per block of a (time x level) table over `levels` levels."""
    return max(1, _BLOCK_CELLS // levels)


def _check_window(exp: CatExpansion, t0: float, t1: float) -> None:
    """Refuse times whose largest phase argument 2 max E_n max(|t0|, |t1|) overflows."""
    phase = 2.0 * float(exp.energies.max()) * max(abs(float(t0)), abs(float(t1)))
    if not math.isfinite(phase):
        raise ValueError(f"2 max E_n max(|t0|, |t1|) = {phase:g} leaves the double range "
                         f"at a = {exp.spec.a:g} (t0 = {t0:g}, t1 = {t1:g})")


def _direct_rows(rows, exp: CatExpansion, E: np.ndarray, t, coefficients: list) -> None:
    """rows[g][j] = stat + sum c_n Re(ph) + d_n Im(ph) at ph = exp(-i E t_j), t flattened, per
    (stat, c_n, d_n) of coefficients, None a zero row; refuses the window first.  One exp per cell
    in blocks of _block_rows(len(E)) times, pairwise sums along the levels: no bit of a row
    depends on the times or rows beside it."""
    flat = np.asarray(t, dtype=float).reshape(-1)
    _check_window(exp, flat.min(initial=0.0), flat.max(initial=0.0))
    step = _block_rows(len(E))
    for i in range(0, flat.size, step):
        phase = np.exp(-1j * np.multiply.outer(flat[i:i + step], E))
        for row, (stat, cosc, sinc) in zip(rows, coefficients):
            seg = row[i:i + step]
            seg[...] = stat
            if cosc is not None:
                seg += (phase.real * cosc).sum(axis=-1)
            if sinc is not None:
                seg += (phase.imag * sinc).sum(axis=-1)


def _survival_rows(exp: CatExpansion) -> list:
    """The two coefficient rows of C on e^{-iEt}, into Re and Im of a complex output:
    Re C = sum (w+ + w-) Re(phase) and Im C = sum (w+ - w-) Im(phase)."""
    w_pos, w_neg = exp.weight_positive, exp.weight_negative
    return [(0.0, w_pos + w_neg, None), (0.0, None, w_pos - w_neg)]


def survival_amplitude(exp: CatExpansion, t):
    """C(t) = <phi(0)|phi(t)> = sum_+ |c|^2 e^{-iEt} + sum_- |c|^2 e^{+iEt}.

    The direct walk _direct_rows, for a scalar or an array of times of any
    shape.  |C| <= 1 + 4 eps: the weights sum to 1 only to rounding, and C is
    not renormalized (the largest excess measured over a in [1, 40], M in
    [0, 5], |kz| <= 1 is 2 eps).
    """
    out = np.empty(np.size(t), dtype=complex)
    _direct_rows((out.real, out.imag), exp, exp.energies, t, _survival_rows(exp))
    return out.reshape(np.shape(t)) if np.ndim(t) else complex(out[0])


def _grid_rows(rows, exp: CatExpansion, E: np.ndarray, t0: float, dt: float, samples: int,
               coefficients: list) -> None:
    """rows[g][k] = stat + sum c_n Re(ph) + d_n Im(ph) at ph = exp(-i E (t0 + k dt)), per (stat,
    c_n, d_n) of coefficients, None a zero row; refuses t0 and t0 + (samples - 1) dt first.
    k = q S + r takes ph = P[q] R[r] (S = min(_STRIDE, samples)), so Q strides of a row are one
    real product: P as (Q, 2L) (Re, Im) pairs times b = conj(R) (c + i d) as (2L, S).  Every
    product has one shape, Q from (L, S) alone and the last tile zero-padded, so a row's bits
    depend on neither the grid's length nor the rows beside it; Q 2L S <= _PRODUCT_MACS (but
    Q >= 2, past L = 1024), so no product wakes a second BLAS thread."""
    _check_window(exp, t0, t0 + dt * (samples - 1))
    S, L = min(_STRIDE, samples), len(E)
    R = np.exp(-1j * np.multiply.outer(dt * np.arange(S), E)).conj()
    b = [(R * ((0.0 if c is None else c) + 1j * (0.0 if d is None else d))).view(float).T
         for _, c, d in coefficients]
    n_q, Q = -(-samples // S), max(2, _PRODUCT_MACS // (2 * L * S))
    step = Q * max(1, min(-(-n_q // Q), _BLOCK_CELLS // (Q * (L + S))))  # strides per exp call
    P, tiles = np.empty((step, L), dtype=complex), np.empty((step, S))
    for q0 in range(0, n_q, step):
        m = min(step, n_q - q0)
        P[:] = 0.0  # exp(0 - i E t) in place, bit for bit np.exp(-1j * (t E))
        np.multiply.outer(-t0 - np.arange(q0, q0 + m) * (S * dt), E, out=P.imag[:m])
        np.exp(P[:m], out=P[:m])
        for row, (stat, _, _), b_g in zip(rows, coefficients, b):
            for i in range(0, m, Q):
                np.matmul(P[i:i + Q].view(float), b_g, out=tiles[i:i + Q])
            np.add(tiles.reshape(-1)[:samples - q0 * S], stat, out=row[q0 * S:(q0 + m) * S])


def autocorrelation_series(exp: CatExpansion, t0: float, t1: float, samples: int) -> TimeSeries:
    """Complex C(t) on the uniform grid t_k = t0 + k dt over [t0, t1].

    Summed by the tile products of _grid_rows at the frequencies E, so a sample's
    bits do not depend on the grid's length.  It differs from survival_amplitude
    at series.times by at most max|E| max(|t0|, |t1|) eps, the rounding of the
    phase argument E t that both routes carry.
    """
    dt = _uniform_grid(t0, t1, samples)
    out = np.empty(samples, dtype=complex)
    _grid_rows((out.real, out.imag), exp, exp.energies, t0, dt, samples, _survival_rows(exp))
    return TimeSeries(t0=t0, dt=dt, values=out)


def survival_series(exp: CatExpansion, t0: float, t1: float, samples: int) -> TimeSeries:
    """|C(t)| on a uniform grid: the magnitude of autocorrelation_series, same contract."""
    series = autocorrelation_series(exp, t0, t1, samples)
    return TimeSeries(t0=t0, dt=series.dt, values=np.abs(series.values))


def _level_rows(exp: CatExpansion, s) -> tuple[np.ndarray, ...]:
    """(C, S, F_{n-1}, F_n) over the kept levels n, on the grid s: psi_j = sum_n (C Re ph
    - i S Im ph) F_{n-1+j%2} at ph = exp(-iEt), with C = pos + neg and S = neg - pos the
    real (4, L) rows of pos = c_r1_plus u(1,+) (on ph) and neg = c_r2_plus u(2,+) +
    c_r2_minus u(2,-) (on conj(ph)), from one spinor table and one Hermite table."""
    u1, u2, u3 = _component_table(exp.levels, exp.spec.params)[:, _POPULATED].transpose(1, 2, 0)
    pos = exp.c_r1_plus * u1
    neg = exp.c_r2_plus * u2 + exp.c_r2_minus * u3
    table = hermite_table(int(exp.levels.max()), np.atleast_1d(s), exp.spec.params.eB)
    return pos + neg, neg - pos, table[exp.levels - 1], table[exp.levels]


def _profile_step(exp: CatExpansion, rows: tuple, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the four spinor components at time t.

    `rows` is _level_rows(exp, s).  Returns (lo, hi), each (4, ns) and real: lo
    holds Re psi_0, Re psi_2, Im psi_0, Im psi_2 (even components, on F_lo) and hi
    the same of psi_1, psi_3 (odd, on F_hi), so a time step is two real products.
    """
    C, S, F_lo, F_hi = rows
    ph = np.exp(-1j * exp.energies * t)
    re, im = C * ph.real, S * -ph.imag
    return np.concatenate([re[0::2], im[0::2]]) @ F_lo, np.concatenate([re[1::2], im[1::2]]) @ F_hi


def evolve_profile(exp: CatExpansion, s, t: float) -> np.ndarray:
    """Spinor components of the evolved state on a grid; shape (4, len(s)).

    Builds the four components from the shared Hermite table instead of
    summing basis spinors one by one; at t = 0 this reproduces the
    normalized two-Gaussian profile on the first component.
    """
    _check_window(exp, t, t)
    z = np.stack(_profile_step(exp, _level_rows(exp, s), t), axis=1)  # z[k] = (lo[k], hi[k])
    return (z[:2] + 1j * z[2:]).reshape(4, -1)  # (psi_0, psi_1), (psi_2, psi_3)
