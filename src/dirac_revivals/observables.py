"""Spin-parity observables of evolving cat states.

Expectation values of the 16 Hermitian generators of the Dirac algebra,
computed from coefficient bilinears times exact matrix elements, plus the
closed-form series they must reproduce.  Parity selection makes every
constant generator block out levels with n != m here, so the engine sums
one 3x3 bilinear per excited level over the (r=1,+), (r=2,+), (r=2,-)
labels; the F_k are orthonormal, so within a level two spinor components
meet only on equal Hermite orders.  The oracle's `matrix_elements` evaluates
the same bilinears for every level and label pair by quadrature, from the
dense _MATRICES defined here.  The series take the survival's routes at the
frequencies -2E: on uniform grids (_grid_values) the tile products of
evolution._grid_rows, at arbitrary times (expectation_values) the direct walk
evolution._direct_rows.

Sign conventions are settled by the direct route: <alpha_z> carries the
prefactor +4M, <i gamma_z> = <i gamma0 gamma5> = +2 sum w eta A sin(2Et),
and <gamma5> = +<alpha_z> for these states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .catstate import CatExpansion
from .landau import _POPULATED, _component_table
from .evolution import TimeSeries, _direct_rows, _grid_rows, _uniform_grid

__all__ = [
    "GeneratorId",
    "ObservableSeries",
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


@dataclass(frozen=True)
class ObservableSeries:
    generator: GeneratorId
    series: TimeSeries


_SAME_ORDER = np.equal.outer(np.arange(4) % 2, np.arange(4) % 2)  # components on one F order
# the entries (a, b) of a level's 3x3 table that the series read: (0,0) (1,1) (2,2) (1,2) (0,1) (0,2)
_ENTRY_A, _ENTRY_B = np.array([0, 1, 2, 1, 0, 0]), np.array([0, 1, 2, 2, 1, 2])


@functools.cache
def _row_gather(g: GeneratorId) -> tuple[list, list]:
    """Column j(i) of the one nonzero in each row i of M = _MATRICES[g] * _SAME_ORDER, and (Re, Im)
    of M[i, j(i)] (0 on a zero row); built on first use, so no import pays ~0.3 MB of RSS for it."""
    rows = (_MATRICES[g] * _SAME_ORDER).tolist()
    cols = [max(range(4), key=lambda j: abs(row[j])) for row in rows]
    vals = [row[j] for row, j in zip(rows, cols)]
    return cols, [[v.real for v in vals], [v.imag for v in vals]]


def _coefficients(exp: CatExpansion, gens) -> list:
    """(sum s_n, c_n, d_n) per generator: <Gamma>(t) = sum_n [s_n + c_n cos 2E_n t + d_n sin 2E_n t].

    The r=1 coefficient evolves with e^{-iEt}, both r=2 ones with e^{+iEt}, so
    only the relative phase 2 E_n t survives in the bilinears.  A c_n or d_n
    whose every entry is zero is None, so its cos or sin half is skipped.
    Entry (a, b) of a level's 3x3 table over the populated labels is
    sum_ij u[a,i] M[i,j] u[b,j], M = _MATRICES[g] * _SAME_ORDER: the F_k are
    orthonormal, so two components overlap by 1 on one Hermite order and 0
    otherwise, and cross-level elements vanish by parity selection.  M has at
    most one nonzero per row, in {+-1, +-i}, and u is real, so one gather of
    +-u[a,i] u[b,j(i)] serves every generator; summed from 0.0 in increasing i
    they are the bits of the complex contraction, signed zeros included.
    """
    u = _component_table(exp.levels, exp.spec.params)[:, _POPULATED].transpose(1, 2, 0)  # (3, 4, L)
    cols = np.array([_row_gather(g)[0] for g in gens])
    parts = np.array([_row_gather(g)[1] for g in gens])[:, :, None, :, None]
    prod = u[_ENTRY_A] * u[_ENTRY_B[None, :, None], cols[:, None, :]]  # (G, 6 entries, 4 rows i, L)
    re_terms, im_terms = prod * parts[:, 0], prod[:, 4:] * parts[:, 1]
    re, im = (0.0 + t[:, :, 0] + t[:, :, 1] + t[:, :, 2] + t[:, :, 3] for t in (re_terms, im_terms))
    a1, a2, a3 = exp.c_r1_plus, exp.c_r2_plus, exp.c_r2_minus
    stat = a1 * a1 * re[:, 0] + a2 * a2 * re[:, 1] + a3 * a3 * re[:, 2] + 2.0 * a2 * a3 * re[:, 3]
    # cross-branch bilinears a1* a2 e^{2iEt} M12 + c.c. (and 1<->3)
    cosc = 2.0 * (a1 * a2 * re[:, 4] + a1 * a3 * re[:, 5])
    sinc = -2.0 * (a1 * a2 * im[:, 0] + a1 * a3 * im[:, 1])
    return [(s.sum(), c if c.any() else None, d if d.any() else None)
            for s, c, d in zip(stat, cosc, sinc)]


def expectation_values(exp: CatExpansion, g, t) -> np.ndarray:
    """<Gamma>(t) from the direct bilinear engine; t scalar or array of any shape.

    A sequence of generators g gives stacked rows, summed by the direct walk
    evolution._direct_rows at the frequencies -2E (one exp per cell).  The bits
    do not depend on the chunking, and a scalar t gives its array element.
    Uniform grids take the tile route of _grid_values.
    """
    single = isinstance(g, GeneratorId)
    coefficients = _coefficients(exp, (g,) if single else g)
    vals = np.empty((len(coefficients), np.size(t)))
    _direct_rows(vals, exp, -2.0 * exp.energies, t, coefficients)
    vals = vals.reshape((len(coefficients),) + np.shape(t))
    return (float(vals[0]) if not np.ndim(t) else vals[0]) if single else vals


def _grid_values(exp: CatExpansion, gens, t0: float, t1: float,
                 samples: int) -> tuple[np.ndarray, float]:
    """Stacked <Gamma>(t_k) of the generators gens at t_k = t0 + k dt, and dt.

    Tile products of evolution._grid_rows at the frequencies -2E: a row's bits depend
    on (t0, dt, k) alone, not on the generators beside it.  It errs by at most
    2 max E max|t| eps sum(|c_n| + |d_n|), as the direct route.
    """
    dt = _uniform_grid(t0, t1, samples)
    coefficients = _coefficients(exp, gens)
    vals = np.empty((len(coefficients), samples))
    _grid_rows(vals, exp, -2.0 * exp.energies, t0, dt, samples, coefficients)
    return vals, dt


def expectation_series(exp: CatExpansion, g: GeneratorId, t0: float, t1: float,
                       samples: int) -> ObservableSeries:
    """Uniformly sampled <Gamma>(t) as an ObservableSeries, from _grid_values."""
    (values,), dt = _grid_values(exp, (g,), t0, t1, samples)
    return ObservableSeries(generator=g, series=TimeSeries(t0=t0, dt=dt, values=values))


# ----------------------------------------------------------------------
# closed forms (regression targets for the direct engine)
# ----------------------------------------------------------------------


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


# the inputs of _correlations, in its argument order
_CORRELATION_GENERATORS = (
    GeneratorId.GAMMA0,
    GeneratorId.GAMMA5_ALPHA_Z,
    GeneratorId.GAMMA5_GAMMA_Z,
    GeneratorId.I_GAMMA_Z,
    GeneratorId.ALPHA_Z,
)


def _concurrence_sq_formula(g0, sz):
    return 0.5 * (1.0 + g0) * (1.0 - sz)


def _correlations(g0, sz, g5gz, igz, az) -> dict:
    """The concurrence_sq and mutual_information columns from the _CORRELATION_GENERATORS rows."""
    return {"concurrence_sq": _concurrence_sq_formula(g0, sz),
            "mutual_information": 2.0 - 0.5 * ((1.0 + g0) ** 2 + (1.0 + g5gz) ** 2 + (sz - 1.0) ** 2
                                               - igz ** 2 - 4.0 * az ** 2)}


def concurrence_sq(exp: CatExpansion, t):
    """Squared spin-parity concurrence (1 + <gamma0>)(1 - <Sigma_z>)/2.

    Zero at t = 0 (spin-parity product state) and bounded by [0, 1].
    """
    vals = _concurrence_sq_formula(*expectation_values(exp, _CORRELATION_GENERATORS[:2], t))
    return vals if np.ndim(t) else float(vals)


def mutual_information(exp: CatExpansion, t):
    """Phase-space / spin-parity mutual information from expectation values.

    The <gamma5 gamma_z> slot is evaluated directly (its t = 0 value is -1:
    the matrix gamma5 gamma_z equals -gamma0 Sigma_z, whose direct t = 0
    expectation is +1), which makes the t = 0 information vanish for the
    product state.
    """
    rows = expectation_values(exp, _CORRELATION_GENERATORS, t)
    vals = _correlations(*rows)["mutual_information"]
    return vals if np.ndim(t) else float(vals)


def correlation_series(exp: CatExpansion, t0: float, t1: float, samples: int) -> dict[str, TimeSeries]:
    """Concurrence^2 and mutual information on one shared grid, from _grid_values."""
    rows, dt = _grid_values(exp, _CORRELATION_GENERATORS, t0, t1, samples)
    return {name: TimeSeries(t0=t0, dt=dt, values=v) for name, v in _correlations(*rows).items()}
