"""Unitary evolution of cat states: survival amplitude and time scales.

Each excited label evolves with exp(-i E t) on the r=1 branch (energy
+E_n) and exp(+i E t) on r=2 (energy -E_n).  With the parity-selected
levels stepping by two, the derivative tower of E(n) at the fitted mean
level sets the characteristic periods

    T1 = 2 pi / (2 |E'|),   T2 = 2 pi / (4 |E''| / 2),   T3 = 2 pi / (8 |E'''| / 6),

half the usual wave-packet scales order by order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catstate import CatExpansion
from .landau import PhysicalParams, energy_derivatives
from .numerics import hermite_table

__all__ = [
    "TimeScales",
    "TimeSeries",
    "time_scales",
    "kz_for_ab_ratio",
    "survival_amplitude",
    "survival_series",
    "autocorrelation_series",
    "evolve_state",
    "evolve_profile",
]


@dataclass(frozen=True)
class TimeScales:
    T1: float
    T2: float
    T3: float


@dataclass(frozen=True)
class TimeSeries:
    """Uniform samples values[k] at t = t0 + k*dt (real or complex)."""

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
        return self.t0 + self.dt * np.arange(len(self.values))


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


def _uniform_grid(t0: float, t1: float, samples: int) -> tuple[np.ndarray, float]:
    """Times and spacing of `samples` uniform samples over [t0, t1]."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    return np.linspace(t0, t1, samples), (t1 - t0) / (samples - 1)


def survival_amplitude(exp: CatExpansion, t):
    """C(t) = <phi(0)|phi(t)> = sum_+ |c|^2 e^{-iEt} + sum_- |c|^2 e^{+iEt}.

    Accepts a scalar or an array of times; |C| <= 1 by normalization.
    Summation runs in fixed ascending-level order (numpy pairwise), so the
    result is bit-stable regardless of how callers chunk the time axis.
    """
    w_pos, w_neg = exp.weight_positive, exp.weight_negative
    t_arr = np.asarray(t, dtype=float)
    phase = np.exp(-1j * np.multiply.outer(t_arr, exp.energies))
    # explicit pairwise sum along the fixed ascending-level axis: bit-stable
    # under any chunking of the time grid (matmul would re-block)
    out = (phase * w_pos).sum(axis=-1) + (np.conj(phase) * w_neg).sum(axis=-1)
    return out if out.ndim else complex(out)


def survival_series(exp: CatExpansion, t0: float, t1: float, samples: int) -> TimeSeries:
    """|C(t)| on a uniform grid over [t0, t1]."""
    ts, dt = _uniform_grid(t0, t1, samples)
    return TimeSeries(t0=t0, dt=dt, values=np.abs(survival_amplitude(exp, ts)))


def autocorrelation_series(exp: CatExpansion, t0: float, t1: float, samples: int) -> TimeSeries:
    """Complex C(t) on a uniform grid (same sampling contract as above)."""
    ts, dt = _uniform_grid(t0, t1, samples)
    return TimeSeries(t0=t0, dt=dt, values=survival_amplitude(exp, ts))


def evolve_profile(exp: CatExpansion, s, t: float) -> np.ndarray:
    """Spinor components of the evolved state on a grid; shape (4, len(s)).

    Builds the four components from the shared Hermite table instead of
    summing basis spinors one by one; at t = 0 this reproduces the
    normalized two-Gaussian profile on the first component.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    levels = exp.levels
    A, B, eta = exp.A, exp.B, exp.eta
    se = np.sqrt(eta)
    table = hermite_table(int(levels.max()), s, exp.spec.params.scale)
    F_lo = table[levels - 1]
    F_hi = table[levels]
    ph_pos = np.exp(-1j * exp.energies * t)   # r=1 branch, energy +E
    ph_neg = np.conj(ph_pos)                  # r=2 branch, energy -E
    w1 = exp.c_r1_plus * ph_pos
    w2 = exp.c_r2_plus * ph_neg
    w3 = exp.c_r2_minus * ph_neg
    out = np.empty((4, s.size), dtype=complex)
    out[0] = (se * (w1 + B * w2 - A * w3)) @ F_lo
    out[1] = (se * (A * w2 + B * w3)) @ F_hi
    out[2] = (se * (A * w1 + w3)) @ F_lo
    out[3] = (se * (-B * w1 + w2)) @ F_hi
    return out


def evolve_state(exp: CatExpansion, s: float, t: float) -> np.ndarray:
    """Four complex components of psi(s, t) at a single point."""
    return evolve_profile(exp, np.array([float(s)]), t)[:, 0]
