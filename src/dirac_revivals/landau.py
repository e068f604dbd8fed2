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

from .numerics import HermiteScale, gauss_hermite, hermite_fn, hermite_poly_table

__all__ = [
    "PhysicalParams",
    "LevelIndex",
    "OneParticleParams",
    "energy",
    "one_particle_params",
    "energy_derivatives",
    "spinor",
    "spinor_component_table",
    "branch_sign",
    "product_rule",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Hamiltonian inputs in natural units (hbar = c = 1).

    ky enters only the coordinate shift absorbed into s and stays 0 for
    all cat-state work.
    """

    M: float = 0.0
    kz: float = 0.0
    eB: float = 1.0
    ky: float = 0.0

    def __post_init__(self) -> None:
        if self.M < 0.0:
            raise ValueError(f"mass must be >= 0, got {self.M}")
        if not (self.eB > 0.0):
            raise ValueError(f"eB must be positive, got {self.eB}")
        for name in ("M", "kz", "eB", "ky"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def scale(self) -> HermiteScale:
        return HermiteScale(self.eB)


@dataclass(frozen=True)
class LevelIndex:
    """Landau eigenstate label: principal n >= 1, branch r in {1,2}, spin nu."""

    n: int
    r: int
    nu: str

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"principal quantum number must be >= 1, got {self.n}")
        if self.r not in (1, 2):
            raise ValueError(f"intrinsic-parity branch must be 1 or 2, got {self.r}")
        if self.nu not in ("+", "-"):
            raise ValueError(f"spin label must be '+' or '-', got {self.nu!r}")


@dataclass(frozen=True)
class OneParticleParams:
    A: float
    B: float
    eta: float

    def constraint_residual(self) -> float:
        """eta*(A^2 + B^2 + 1) - 1; vanishes identically for exact inputs."""
        return self.eta * (self.A * self.A + self.B * self.B + 1.0) - 1.0


def energy(n, p: PhysicalParams):
    """E_n = sqrt(M^2 + kz^2 + 2 n eB); n may be real (n >= 0)."""
    n = np.asarray(n, dtype=float)
    if np.any(n < 0):
        raise ValueError("level index must be >= 0")
    out = np.sqrt(p.M * p.M + p.kz * p.kz + 2.0 * n * p.eB)
    return out if out.ndim else float(out)


def one_particle_params(n, p: PhysicalParams) -> OneParticleParams:
    """A_n = kz/(E_n+M), B_n = sqrt(2 n eB)/(E_n+M), eta_n = (E_n+M)/(2 E_n)."""
    n = float(n)
    if n < 1.0:
        raise ValueError(f"one-particle parameters need n >= 1, got {n}")
    _, A, B, eta = _params_arrays(n, p)
    return OneParticleParams(A=float(A), B=float(B), eta=float(eta))


def energy_derivatives(n0: float, p: PhysicalParams) -> tuple[float, float, float]:
    """Analytic d/dn derivatives of E(n) at real n0: (E', E'', E''')."""
    E = energy(n0, p)
    if E <= 0.0:
        raise ValueError("E(n0) must be positive")
    d1 = p.eB / E
    d2 = -(p.eB ** 2) / E ** 3
    d3 = 3.0 * (p.eB ** 3) / E ** 5
    return d1, d2, d3


def branch_sign(r: int) -> int:
    """Energy sign of branch r: +1 for r=1, -1 for r=2."""
    return +1 if r == 1 else -1


def _params_arrays(n, p: PhysicalParams):
    """(E, A, B, eta) of level(s) n: the one source of these expressions."""
    E = energy(n, p)
    A = p.kz / (E + p.M)
    B = np.sqrt(2.0 * np.asarray(n, dtype=float) * p.eB) / (E + p.M)
    eta = (E + p.M) / (2.0 * E)
    return E, A, B, eta


def _component_table(labels, n, p: PhysicalParams):
    """Spinor component tables of the (r, nu) labels, vectorised over levels n.

    Returns (coef, offset): coef has shape n.shape + (len(labels), 4), and
    component j of label k sits on F_{n-1+offset[k, j]}.
    """
    _, A, B, eta = _params_arrays(n, p)
    se = np.sqrt(eta)
    zero = 0.0 * se
    rows = {
        (1, "+"): ((se, zero, se * A, -se * B), (0, 0, 0, 1)),
        (1, "-"): ((zero, se, -se * B, -se * A), (0, 1, 0, 1)),
        (2, "+"): ((se * B, se * A, zero, se), (0, 1, 0, 1)),
        (2, "-"): ((-se * A, se * B, se, zero), (0, 1, 0, 1)),
    }
    coef = np.stack([np.stack(rows[lab][0], axis=-1) for lab in labels], axis=-2)
    return coef, np.array([rows[lab][1] for lab in labels])


def spinor_component_table(level: LevelIndex, p: PhysicalParams):
    """Coefficients and Hermite orders of the four spinor components.

    Returns (coef, order): component j of u is coef[j] * F_{order[j]}(s).
    The table transcribes the eigenspinors; every nonzero entry sits on
    F_{n-1} or F_n, which is what drives the n = m selection rules.
    """
    coef, offset = _component_table([(level.r, level.nu)], level.n, p)
    return coef[0], level.n - 1 + offset[0]


def spinor(level: LevelIndex, s: float, p: PhysicalParams) -> np.ndarray:
    """Four real components of u^nu_{n,r}(s); unit norm under ds/sqrt(eB)."""
    coef, order = spinor_component_table(level, p)
    scale = p.scale
    vals = np.array([hermite_fn(int(k), s, scale) for k in order])
    return coef * vals


def product_rule(n_max: int, p: PhysicalParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature ingredients for integrals of F_i * F_j products, i,j <= n_max.

    Returns (x, w, P) where P[k] are the envelope-free Hermite parts at the
    nodes; integrals over the physical measure ds/sqrt(eB) of F_i*F_j become
    sum w * P[i] * P[j] (the (eB)^(1/2) amplitude cancels the measure).
    Order n_max+16 keeps every weight positive and the rule exact through
    degree 2*n_max+31.
    """
    rule = gauss_hermite(n_max + 16)
    P = hermite_poly_table(n_max, rule.nodes)
    return rule.nodes, rule.weights, P
