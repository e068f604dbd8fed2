"""Relativistic Landau eigensystem for a charged fermion in a uniform field.

Energies E_n = sqrt(M^2 + kz^2 + 2 n eB), the dimensionless one-particle
parameters (A_n, B_n, eta_n), and the four-component spinor eigenfunctions
in the Dirac representation.  The charge sign is fixed so that every basis
element shares one shifted coordinate s; the intrinsic-parity branch r=1
carries energy +E_n and r=2 carries -E_n, which is the convention that
leaves mass-dominated states almost entirely on positive energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LABELS",
    "PhysicalParams",
    "energy",
    "energy_derivatives",
]

# the (r, nu) labels of one level, in the column order of every oracle array
LABELS = ((1, "+"), (1, "-"), (2, "+"), (2, "-"))
_POPULATED = [0, 2, 3]  # (1,+), (2,+), (2,-): a cat state's labels, in CatExpansion's order


@dataclass(frozen=True)
class PhysicalParams:
    """Hamiltonian inputs in natural units (hbar = c = 1)."""

    M: float = 0.0
    kz: float = 0.0
    eB: float = 1.0

    def __post_init__(self) -> None:
        if self.M < 0.0:
            raise ValueError(f"mass must be >= 0, got {self.M}")
        if not (self.eB > 0.0):
            raise ValueError(f"eB must be positive, got {self.eB}")
        for name in ("M", "kz", "eB"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def energy(n, p: PhysicalParams):
    """E_n = sqrt(M^2 + kz^2 + 2 n eB); n may be real (n >= 0)."""
    n = np.asarray(n, dtype=float)
    if np.any(n < 0):
        raise ValueError("level index must be >= 0")
    with np.errstate(over="ignore"):  # an infinite E_n is refused by _params_arrays
        out = np.sqrt(p.M * p.M + p.kz * p.kz + 2.0 * n * p.eB)
    return out if out.ndim else float(out)


def energy_derivatives(n0: float, p: PhysicalParams) -> tuple[float, float, float]:
    """Analytic d/dn derivatives of E(n) at real n0: (E', E'', E''')."""
    E = energy(n0, p)
    if E <= 0.0:
        raise ValueError("E(n0) must be positive")
    d1 = p.eB / E
    # eB**k may underflow to 0: that derivative vanishes, its period is infinite
    d2 = -_power("eB", p.eB, 2) / _power("E(n0)", E, 3, divisor=True)
    d3 = 3.0 * _power("eB", p.eB, 3) / _power("E(n0)", E, 5, divisor=True)
    return d1, d2, d3


def _power(name: str, x: float, k: int, divisor: bool = False) -> float:
    """x**k, or a ValueError naming `name`**k if it overflows (or, as a
    divisor, underflows to 0)."""
    try:
        v = x ** k
    except OverflowError:
        v = math.inf
    if v == math.inf or (divisor and v == 0.0):
        raise ValueError(f"{name}**{k} leaves the double range ({name} = {x:g})")
    return v


def _params_arrays(n, p: PhysicalParams):
    """(E, A, B, eta) of level(s) n: the one source of these expressions.

    A_n = kz/(E_n+M), B_n = sqrt(2 n eB)/(E_n+M), eta_n = (E_n+M)/(2 E_n),
    so eta_n (1 + A_n^2 + B_n^2) = 1.
    """
    E = energy(n, p)
    if not np.isfinite(E).all():
        raise ValueError(f"E_n = sqrt(M^2 + kz^2 + 2 n eB) leaves the double range "
                         f"(M = {p.M:g}, kz = {p.kz:g}, eB = {p.eB:g})")
    A = p.kz / (E + p.M)
    B = np.sqrt(2.0 * np.asarray(n, dtype=float) * p.eB) / (E + p.M)
    eta = (E + p.M) / (2.0 * E)
    return E, A, B, eta


def _component_table(n, p: PhysicalParams):
    """Spinor component table of every (r, nu) label, vectorised over levels n.

    Shape n.shape + (4 labels, 4 components), labels in LABELS order.  The one
    layout rule: component j of every label sits on F_{n-1+j%2}, so u^nu_{n,r}(s)
    is the row times those F, with unit norm under ds/sqrt(eB).  (1,+) has no
    component 1 (its coefficient is exactly 0), so no value reads its order.
    """
    _, A, B, eta = _params_arrays(n, p)
    se = np.sqrt(eta)
    zero = 0.0 * se
    rows = ((se, zero, se * A, -se * B), (zero, se, -se * B, -se * A),
            (se * B, se * A, zero, se), (-se * A, se * B, se, zero))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
