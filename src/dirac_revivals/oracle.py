"""The quadrature oracle: the independent route `validate` and the tests check the engine by.

Its overlap and Gram integrands are entire and decay like Gaussians, so the trapezoidal rule
on uniform nodes converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).  It reads
from the engine only public names and the definitions of the basis and of Gamma, no walk,
ladder or level table; no engine module imports it, and the CLI loads it in `validate` alone.
"""

from __future__ import annotations

import math

import numpy as np

from .catstate import CatExpansion, CatSpec
from .landau import _POPULATED, PhysicalParams, _component_table
from .numerics import hermite_table
from .observables import _MATRICES, GeneratorId

__all__ = ["expand_oracle", "matrix_elements"]


def _trapezoid(half_width: float, h: float) -> np.ndarray:
    """Nodes h*j, j = -k..k with k = ceil(half_width / h): exactly symmetric about 0."""
    k = math.ceil(half_width / h)
    return h * np.arange(-k, k + 1)


def oracle_raw_overlaps(spec: CatSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized overlaps of the t=0 state with every basis label n <= n_max.

    Returns (levels, c) with levels = 1..n_max and c of shape (n_max, 4),
    columns in LABELS order.  Row n - 1 includes what the expansion drops
    (wrong parity, (r=1,nu=-)), so the selection rules can be checked
    directly.  Each Gaussian hump is integrated by the trapezoidal rule on
    nodes s = +-a + x, |x| <= 12 (the envelope exp(-x^2/2) is below e^-72
    past them), with a step that resolves F_m's top frequency sqrt(2m + 1)
    and the envelope's spectral tail.  F_m and the envelope each stay inside
    the double range, so the sums hold for any separation.
    """
    a = spec.a
    sgn = 1.0 if spec.symmetry == "S" else -1.0
    h = math.pi / (math.sqrt(2 * n_max + 1) + 24)
    x = _trapezoid(12.0, h)
    w = h * np.exp(-0.5 * x * x)
    # integral of exp(-(s -+ a)^2/2) F_m(s) ds/sqrt(eB) over each hump;
    # the (eB)^(1/4) amplitudes of profile and F_m cancel the measure
    plus = hermite_table(n_max, a + x) @ w
    minus = hermite_table(n_max, x - a) @ w
    overlap_first = 0.5 * math.pi ** -0.25 * (plus + sgn * minus)  # index m = 0..n_max

    levels = np.arange(1, n_max + 1)
    # only the first spinor component meets the initial state; it sits on
    # F_{n-1} for every label, with the label's own coefficient
    return levels, _component_table(levels, spec.params)[:, :, 0] * overlap_first[levels - 1, None]


def expand_oracle(spec: CatSpec, n_max: int) -> CatExpansion:
    """Ground-truth expansion by quadrature of the overlap integrals.

    Evaluates c = integral phi^dag(s,0) u(s) ds/sqrt(eB) for every level
    n <= n_max and all four (r, nu) labels, then renormalizes.  Every level
    is kept, zero rows included, so row n - 1 belongs to level n.  This is
    the arbiter for index and sign conventions; it shares nothing with
    `expand` beyond the spinor parameters themselves.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return _oracle_expansion(spec, *oracle_raw_overlaps(spec, n_max))


def _oracle_expansion(spec: CatSpec, levels: np.ndarray, c: np.ndarray) -> CatExpansion:
    """expand_oracle from the arrays of oracle_raw_overlaps(spec, n_max)."""
    c1, c2, c3 = c[:, _POPULATED].T
    norm = math.sqrt(float((c1 ** 2 + c2 ** 2 + c3 ** 2).sum()))
    if norm == 0.0:
        raise ValueError("null state: no overlap with any level")
    return CatExpansion(spec, levels, c1 / norm, c2 / norm, c3 / norm)


def matrix_elements(g: GeneratorId, levels, p: PhysicalParams) -> np.ndarray:
    """Quadrature <u_a|Gamma|u_b> over every (level, label) pair, shape (L, 4, L, 4).

    Entry [k, a, l, b] pairs label LABELS[a] of levels[k] with LABELS[b] of
    levels[l].  Component j of level n sits on F_{n-1+j%2}, so the bilinears are
    the component coefficients contracted against the Gram matrix of the
    F_i F_j per (level, component): h sum_j F_a(x_j) F_b(x_j), the trapezoidal
    rule over |x| <= r + 12 past the top level's turning point r = sqrt(2n + 1),
    its step h resolving the products' top frequency 2r (eB cancels the measure).
    """
    levels = np.asarray(levels, dtype=int)
    if levels.ndim != 1 or levels.size == 0 or levels.min() < 1:
        raise ValueError(f"levels must be a nonempty list of integers >= 1, got {levels}")
    coef = _component_table(levels, p)  # (L, 4 labels, 4 components)
    order = (levels[:, None] - 1 + np.arange(4) % 2).reshape(-1)
    rows, order = np.unique(order, return_inverse=True)  # each Hermite order once
    r = np.sqrt(2 * levels.max() + 1)
    h = np.pi / (2 * r + 12)
    F = hermite_table(int(levels.max()), _trapezoid(r + 12, h))[rows]  # unit eB
    gram = (h * F @ F.T)[np.ix_(order, order)].reshape(len(levels), 4, len(levels), 4)
    left = coef[..., None] * _MATRICES[g]  # (L, 4, 4, 4): coefficient times row of Gamma
    return np.einsum("kaij,lbj,kilj->kalb", left, coef, gram)


def check_table(spec: CatSpec, exp: CatExpansion, tol: float) -> list[tuple[str, float, float]]:
    """validate's five checks of the analytic expansion exp of spec: (name, value, bound) rows."""
    # analytic expansion against the quadrature oracle, coefficient by
    # coefficient; oracle row n - 1 holds level n.  The raw overlaps of
    # this one quadrature also feed the parity check below
    levels, raw = oracle_raw_overlaps(spec, exp.n_max + 2)
    oracle = _oracle_expansion(spec, levels, raw)
    rows = exp.levels - 1
    dev = max(np.abs(getattr(exp, c) - getattr(oracle, c)[rows]).max()
              for c in ("c_r1_plus", "c_r2_plus", "c_r2_minus"))

    # wrong-parity rows and the (r=1,nu=-) column must vanish
    parity = 0 if spec.symmetry == "S" else 1
    leak = max(np.abs(raw[(levels - 1) % 2 != parity]).max(initial=0.0),
               np.abs(raw[:, 1]).max())

    # constraint identity on the populated levels
    resid = exp.eta * (exp.A * exp.A + exp.B * exp.B + 1.0) - 1.0

    # block-diagonal selection rule: every n != m pair of levels 1..7, all labels
    levels = np.arange(1, 8)
    cross = levels[:, None] != levels[None, :]
    sel = max(np.abs(matrix_elements(g, levels, spec.params)).max(axis=(1, 3))[cross].max()
              for g in (GeneratorId.GAMMA0, GeneratorId.GAMMA5_ALPHA_Z))
    return [("coefficient_oracle_equivalence", float(dev), tol),
            ("parity_selection_leak", float(leak), max(tol, 1e-10)),
            # unit total weight and unit survival at t = 0
            ("normalization_defect", float(abs(exp.total_weight - 1.0)), max(tol, 1e-12)),
            ("constraint_identity", float(np.abs(resid).max()), max(tol, 1e-12)),
            ("selection_rule_leak", float(sel), max(tol, 1e-10))]
