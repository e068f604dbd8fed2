"""Spin-parity observables of evolving cat states.

Expectation values of the 16 Hermitian generators of the Dirac algebra,
computed from coefficient bilinears times exact matrix elements, plus the
closed-form series they must reproduce.  Parity selection makes every
constant generator block out levels with n != m here, so the engine sums
one 3x3 bilinear per excited level over the (r=1,+), (r=2,+), (r=2,-)
labels; the F_k are orthonormal, so within a level two spinor components
meet only on equal Hermite orders.  `matrix_element` evaluates the same
bilinears by Gauss-Hermite quadrature and serves as the independent oracle.

Sign conventions are settled by the direct route: <alpha_z> carries the
prefactor +4M, <i gamma_z> = <i gamma0 gamma5> = +2 sum w eta A sin(2Et),
and <gamma5> = +<alpha_z> for these states.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .catstate import CatExpansion
from .landau import LevelIndex, PhysicalParams, _component_table, spinor_component_table
from .evolution import TimeSeries, _uniform_grid
from .numerics import gauss_hermite, hermite_poly_table

__all__ = [
    "GeneratorId",
    "ObservableSeries",
    "generator_matrix",
    "matrix_element",
    "expectation_series",
    "expectation_values",
    "closed_form_series",
    "concurrence_sq",
    "mutual_information",
    "correlation_series",
]

_S0 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _blocks(a, b, c, d):
    return np.block([[a, b], [c, d]])


_GAMMA0 = _blocks(_S0, 0 * _S0, 0 * _S0, -_S0)
_GAMMA5 = _blocks(0 * _S0, _S0, _S0, 0 * _S0)
_ALPHA = {k: _blocks(0 * _S0, sig, sig, 0 * _S0) for k, sig in (("x", _SX), ("y", _SY), ("z", _SZ))}
_GAMMA = {k: _GAMMA0 @ _ALPHA[k] for k in ("x", "y", "z")}
_SIGMA = {k: _blocks(sig, 0 * _S0, 0 * _S0, sig) for k, sig in (("x", _SX), ("y", _SY), ("z", _SZ))}


class GeneratorId(Enum):
    """The 16 Hermitian generators of the bispinor decomposition."""

    IDENTITY = "identity"
    GAMMA0 = "gamma0"
    GAMMA5 = "gamma5"
    I_GAMMA0_GAMMA5 = "i_gamma0_gamma5"
    ALPHA_X = "alpha_x"
    ALPHA_Y = "alpha_y"
    ALPHA_Z = "alpha_z"
    GAMMA5_ALPHA_X = "gamma5_alpha_x"
    GAMMA5_ALPHA_Y = "gamma5_alpha_y"
    GAMMA5_ALPHA_Z = "gamma5_alpha_z"
    I_GAMMA_X = "i_gamma_x"
    I_GAMMA_Y = "i_gamma_y"
    I_GAMMA_Z = "i_gamma_z"
    GAMMA5_GAMMA_X = "gamma5_gamma_x"
    GAMMA5_GAMMA_Y = "gamma5_gamma_y"
    GAMMA5_GAMMA_Z = "gamma5_gamma_z"


_MATRICES: dict[GeneratorId, np.ndarray] = {
    GeneratorId.IDENTITY: np.eye(4, dtype=complex),
    GeneratorId.GAMMA0: _GAMMA0,
    GeneratorId.GAMMA5: _GAMMA5,
    GeneratorId.I_GAMMA0_GAMMA5: 1j * _GAMMA0 @ _GAMMA5,
    GeneratorId.ALPHA_X: _ALPHA["x"],
    GeneratorId.ALPHA_Y: _ALPHA["y"],
    GeneratorId.ALPHA_Z: _ALPHA["z"],
    GeneratorId.GAMMA5_ALPHA_X: _SIGMA["x"],  # gamma5 alpha_k = Sigma_k
    GeneratorId.GAMMA5_ALPHA_Y: _SIGMA["y"],
    GeneratorId.GAMMA5_ALPHA_Z: _SIGMA["z"],
    GeneratorId.I_GAMMA_X: 1j * _GAMMA["x"],
    GeneratorId.I_GAMMA_Y: 1j * _GAMMA["y"],
    GeneratorId.I_GAMMA_Z: 1j * _GAMMA["z"],
    GeneratorId.GAMMA5_GAMMA_X: _GAMMA5 @ _GAMMA["x"],
    GeneratorId.GAMMA5_GAMMA_Y: _GAMMA5 @ _GAMMA["y"],
    GeneratorId.GAMMA5_GAMMA_Z: _GAMMA5 @ _GAMMA["z"],
}

# gamma0 * Sigma_z enters the mutual information; it equals -gamma5 gamma_z
_GAMMA0_SIGMA_Z = _GAMMA0 @ _SIGMA["z"]


@dataclass(frozen=True)
class ObservableSeries:
    generator: GeneratorId
    series: TimeSeries


def generator_matrix(g: GeneratorId) -> np.ndarray:
    """The constant 4x4 Hermitian matrix of a generator id."""
    return _MATRICES[g].copy()


def _element_from_tables(mat: np.ndarray, coef1, order1, coef2, order2, overlaps: np.ndarray) -> complex:
    """<u1| mat |u2> given component tables and F_i F_j overlap matrix."""
    acc = 0.0 + 0.0j
    for i in range(4):
        if coef1[i] == 0.0:
            continue
        for j in range(4):
            m = mat[i, j]
            if m == 0 or coef2[j] == 0.0:
                continue
            acc += coef1[i] * m * coef2[j] * overlaps[order1[i], order2[j]]
    return acc


def matrix_element(g: GeneratorId, lv1: LevelIndex, lv2: LevelIndex, p: PhysicalParams) -> complex:
    """Quadrature evaluation of the bilinear between two basis spinors."""
    mat = _MATRICES[g]
    n_max = max(lv1.n, lv2.n)
    rule = gauss_hermite(n_max + 16)
    P = hermite_poly_table(n_max, rule.nodes)
    overlaps = (P * rule.weights) @ P.T  # integral of F_i F_j over ds/sqrt(eB)
    c1, o1 = spinor_component_table(lv1, p)
    c2, o2 = spinor_component_table(lv2, p)
    return _element_from_tables(mat, c1, o1, c2, o2, overlaps)


_LABELS = ((1, "+"), (2, "+"), (2, "-"))


def _level_tables(exp: CatExpansion, g: GeneratorId) -> np.ndarray:
    """Per-level 3x3 matrix-element tables over the populated labels, shape (L, 3, 3).

    The F_k are orthonormal, so the overlap of two components is 1 when
    their Hermite orders agree and 0 otherwise; cross-level elements vanish
    by the parity selection rule and are not carried.
    """
    coef, offset = _component_table(_LABELS, exp.levels, exp.spec.params)
    same_order = offset[:, None, :, None] == offset[None, :, None, :]
    return np.einsum("lai,ij,lbj,abij->lab", coef, _MATRICES[g], coef, same_order)


def _series_coefficients(exp: CatExpansion, g: GeneratorId):
    """Decompose <Gamma>(t) = sum_n [ s_n + c_n cos(2 E_n t) + d_n sin(2 E_n t) ].

    The r=1 coefficient evolves with e^{-iEt}, both r=2 ones with e^{+iEt},
    so only the relative phase 2 E_n t survives in the bilinears.
    """
    tbl = _level_tables(exp, g)
    a1, a2, a3 = exp.c_r1_plus, exp.c_r2_plus, exp.c_r2_minus
    stat = (a1 * a1 * tbl[:, 0, 0].real + a2 * a2 * tbl[:, 1, 1].real
            + a3 * a3 * tbl[:, 2, 2].real + 2.0 * a2 * a3 * tbl[:, 1, 2].real)
    # cross-branch bilinears a1* a2 e^{2iEt} M12 + c.c. (and 1<->3)
    cosc = 2.0 * (a1 * a2 * tbl[:, 0, 1].real + a1 * a3 * tbl[:, 0, 2].real)
    sinc = -2.0 * (a1 * a2 * tbl[:, 0, 1].imag + a1 * a3 * tbl[:, 0, 2].imag)
    return stat, cosc, sinc


def expectation_values(exp: CatExpansion, g: GeneratorId, t) -> np.ndarray:
    """<Gamma>(t) from the direct bilinear engine; t scalar or array."""
    stat, cosc, sinc = _series_coefficients(exp, g)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    phase = 2.0 * np.multiply.outer(t_arr, exp.energies)
    vals = stat.sum() + np.cos(phase) @ cosc + np.sin(phase) @ sinc
    return vals if np.ndim(t) else float(vals[0])


def expectation_series(exp: CatExpansion, g: GeneratorId, t0: float, t1: float,
                       samples: int) -> ObservableSeries:
    """Uniformly sampled <Gamma>(t) as an ObservableSeries."""
    ts, dt = _uniform_grid(t0, t1, samples)
    return ObservableSeries(generator=g,
                            series=TimeSeries(t0=t0, dt=dt, values=expectation_values(exp, g, ts)))


# ----------------------------------------------------------------------
# closed forms (regression targets for the direct engine)
# ----------------------------------------------------------------------

_CLOSED_FORM_IDS = (
    GeneratorId.GAMMA0,
    GeneratorId.GAMMA5_ALPHA_Z,
    GeneratorId.GAMMA5_GAMMA_Z,
    GeneratorId.I_GAMMA_Z,
    GeneratorId.I_GAMMA0_GAMMA5,
    GeneratorId.ALPHA_Z,
    GeneratorId.GAMMA5,
)


def closed_form_series(exp: CatExpansion, g: GeneratorId, t) -> np.ndarray:
    """Analytic <Gamma>(t) for the generators with nonvanishing averages.

    w are the per-level probabilities, parameters level-indexed:

        <gamma0>        = 1 - 8 sum w eta^2 (A^2+B^2) sin^2(Et)
        <Sigma_z>       = 1 - 8 sum w eta^2 B^2 sin^2(Et)
        <gamma5 gamma_z>= -1 + 8 sum w eta^2 A^2 sin^2(Et)
        <i gamma_z>     = <i gamma0 gamma5> = 2 sum w eta A sin(2Et)
        <alpha_z>       = <gamma5> = 4 M sum w eta A sin^2(Et) / E
    """
    w = exp.level_weights
    E, A, B, eta = exp.energies, exp.A, exp.B, exp.eta
    M = exp.spec.params.M
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    s2 = np.sin(np.multiply.outer(t_arr, E)) ** 2
    if g is GeneratorId.GAMMA0:
        vals = 1.0 - 8.0 * (s2 @ (w * eta ** 2 * (A ** 2 + B ** 2)))
    elif g is GeneratorId.GAMMA5_ALPHA_Z:
        vals = 1.0 - 8.0 * (s2 @ (w * eta ** 2 * B ** 2))
    elif g is GeneratorId.GAMMA5_GAMMA_Z:
        vals = -1.0 + 8.0 * (s2 @ (w * eta ** 2 * A ** 2))
    elif g in (GeneratorId.I_GAMMA_Z, GeneratorId.I_GAMMA0_GAMMA5):
        s2t = np.sin(2.0 * np.multiply.outer(t_arr, E))
        vals = 2.0 * (s2t @ (w * eta * A))
    elif g in (GeneratorId.ALPHA_Z, GeneratorId.GAMMA5):
        vals = 4.0 * M * (s2 @ (w * eta * A / E))
    else:
        raise ValueError(f"no closed form for {g}")
    return vals if np.ndim(t) else float(vals[0])


# ----------------------------------------------------------------------
# correlation quantifiers
# ----------------------------------------------------------------------


def _five_observables(exp: CatExpansion, t_arr: np.ndarray):
    """(gamma0, Sigma_z, gamma5_gamma_z, i_gamma_z, alpha_z) via the engine."""
    return tuple(expectation_values(exp, g, t_arr) for g in (
        GeneratorId.GAMMA0,
        GeneratorId.GAMMA5_ALPHA_Z,
        GeneratorId.GAMMA5_GAMMA_Z,
        GeneratorId.I_GAMMA_Z,
        GeneratorId.ALPHA_Z,
    ))


def _concurrence_sq_formula(g0, sz):
    return 0.5 * (1.0 + g0) * (1.0 - sz)


def _mutual_information_formula(g0, sz, g5gz, igz, az):
    return 2.0 - 0.5 * ((1.0 + g0) ** 2 + (1.0 + g5gz) ** 2 + (sz - 1.0) ** 2
                        - igz ** 2 - 4.0 * az ** 2)


def concurrence_sq(exp: CatExpansion, t):
    """Squared spin-parity concurrence (1 + <gamma0>)(1 - <Sigma_z>)/2.

    Zero at t = 0 (spin-parity product state) and bounded by [0, 1].
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = _concurrence_sq_formula(expectation_values(exp, GeneratorId.GAMMA0, t_arr),
                                   expectation_values(exp, GeneratorId.GAMMA5_ALPHA_Z, t_arr))
    return vals if np.ndim(t) else float(vals[0])


def mutual_information(exp: CatExpansion, t):
    """Phase-space / spin-parity mutual information from expectation values.

    The <gamma5 gamma_z> slot is evaluated directly (its t = 0 value is -1:
    the matrix gamma5 gamma_z equals -gamma0 Sigma_z, whose direct t = 0
    expectation is +1), which makes the t = 0 information vanish for the
    product state.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = _mutual_information_formula(*_five_observables(exp, t_arr))
    return vals if np.ndim(t) else float(vals[0])


def correlation_series(exp: CatExpansion, t0: float, t1: float, samples: int) -> dict[str, TimeSeries]:
    """Concurrence^2 and mutual information on one shared grid."""
    ts, dt = _uniform_grid(t0, t1, samples)
    g0, sz, g5gz, igz, az = _five_observables(exp, ts)
    return {
        "concurrence_sq": TimeSeries(t0=t0, dt=dt, values=_concurrence_sq_formula(g0, sz)),
        "mutual_information": TimeSeries(
            t0=t0, dt=dt, values=_mutual_information_formula(g0, sz, g5gz, igz, az)),
    }
