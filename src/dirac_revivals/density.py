"""Spatial probability density of evolving cat states.

Two independent routes: psi^dagger psi from the evolved state (the
authoritative definition) and the closed double sum over excited levels.
The double-sum transcription that matches the direct route carries, on
the F_{n-1} F_{m-1} term,

    cos(E_n t) cos(E_m t) + [(2 eta_n - 1)(2 eta_m - 1) + 4 eta_n eta_m A_n A_m] sin(E_n t) sin(E_m t)

plus 4 eta_n eta_m B_n B_m F_n F_m sin(E_n t) sin(E_m t); the compact
cos((E_n - E_m) t) shortcut is exact only on the n = m diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catstate import CatExpansion
from .evolution import _axis, _check_window, _level_rows, _profile_step, _uniform_grid
from .numerics import hermite_table

__all__ = ["SpatialGrid2D", "probability_density", "density_closed_form", "density_grid"]


@dataclass(frozen=True)
class SpatialGrid2D:
    """Density samples on an (s, t) rectangle; values[i] is the row at t_i.

    s and t are _axis(min, (max - min)/(n - 1), n), the axes density_grid evaluates on
    (a last point may sit an ulp off its bound); eB gives the row integrals the
    physical measure ds/sqrt(eB) the density is normalized against.
    """

    s_min: float
    s_max: float
    ns: int
    t_min: float
    t_max: float
    nt: int
    values: np.ndarray
    eB: float = 1.0

    @property
    def s(self) -> np.ndarray:
        return _axis(self.s_min, (self.s_max - self.s_min) / max(self.ns - 1, 1), self.ns)

    @property
    def t(self) -> np.ndarray:
        return _axis(self.t_min, (self.t_max - self.t_min) / max(self.nt - 1, 1), self.nt)

    def row_integrals(self) -> np.ndarray:
        """Trapezoidal integral of each fixed-t row over ds/sqrt(eB)."""
        ds = (self.s_max - self.s_min) / (self.ns - 1)
        return np.trapezoid(self.values, dx=ds, axis=1) / math.sqrt(self.eB)


def _density_row(exp: CatExpansion, rows: tuple, t: float) -> np.ndarray:
    """psi^dagger psi at time t on the grid of rows = _level_rows(exp, s)."""
    lo, hi = _profile_step(exp, rows, t)
    return (lo * lo).sum(axis=0) + (hi * hi).sum(axis=0)


def probability_density(exp: CatExpansion, s, t: float):
    """psi^dagger psi at (s, t); integrates to 1 over ds/sqrt(eB)."""
    _check_window(exp, t, t)
    dens = _density_row(exp, _level_rows(exp, s), t)
    return dens if np.ndim(s) else float(dens[0])


def density_closed_form(exp: CatExpansion, s, t: float):
    """Explicit double sum over excited level pairs (n, m).

    Works for either symmetry class: the antisymmetric case runs the same
    pair sum over odd oscillator indices with the sinh-normalized weights
    already baked into the expansion.  Kept deliberately as an O(L^2)
    pair sum so it exercises the double-sum structure itself rather than
    re-deriving the state.
    """
    scalar = np.ndim(s) == 0
    A, B, eta, E = exp.A, exp.B, exp.eta, exp.energies
    rootP = np.sqrt(exp.level_weights)
    F = hermite_table(int(exp.levels.max()), np.atleast_1d(s), exp.spec.params.eB)
    F_lo, F_hi = F[exp.levels - 1], F[exp.levels]

    ct, st = np.cos(E * t), np.sin(E * t)
    ww = np.outer(rootP, rootP)
    coscos = np.outer(ct, ct)
    sinsin = np.outer(st, st)
    mass_term = np.outer(2.0 * eta - 1.0, 2.0 * eta - 1.0)
    aa_term = 4.0 * np.outer(eta * A, eta * A)
    bb_term = 4.0 * np.outer(eta * B, eta * B)
    M_lo = ww * (coscos + (mass_term + aa_term) * sinsin)
    M_hi = ww * bb_term * sinsin
    dens = np.einsum("is,ij,js->s", F_lo, M_lo, F_lo) + np.einsum("is,ij,js->s", F_hi, M_hi, F_hi)
    return float(dens[0]) if scalar else dens


def density_grid(exp: CatExpansion, s_min: float, s_max: float, ns: int,
                 t_min: float, t_max: float, nt: int) -> SpatialGrid2D:
    """Fill an (s, t) rectangle with probability_density rows from one Hermite table."""
    s = _axis(s_min, _uniform_grid(s_min, s_max, ns), ns)
    ts = _axis(t_min, _uniform_grid(t_min, t_max, nt), nt)
    _check_window(exp, ts[0], ts[-1])
    rows = _level_rows(exp, s)
    values = np.empty((nt, ns))
    for i, t in enumerate(ts):
        values[i] = _density_row(exp, rows, float(t))
    return SpatialGrid2D(s_min=s_min, s_max=s_max, ns=ns,
                         t_min=t_min, t_max=t_max, nt=nt, values=values,
                         eB=exp.spec.params.eB)
