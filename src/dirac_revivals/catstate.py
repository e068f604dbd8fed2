"""Symmetric/antisymmetric Dirac cat states and their level content.

A cat state puts two unit-width Gaussians at s = +-a on the first spinor
component.  Its eigenfunction expansion excites only every other Landau
level: the oscillator index m = n-1 of the dominant component runs over
even m for the symmetric state and odd m for the antisymmetric one, with
per-level probability

    P_m = (a^2/2)^m / (m! * {cosh, sinh}(a^2/2)),

split over three branch labels with amplitudes sqrt(eta_n) * {1, B_n, -A_n}
on (r=1,nu=+), (r=2,nu=+), (r=2,nu=-).  That split makes the per-level sum
exactly P_m thanks to eta*(1+A^2+B^2) = 1.  The analytic route and the
quadrature oracle below are kept strictly independent, and the whole list
is always renormalized: the two-Gaussian profile as written has squared
norm exp(-a^2/2)*{cosh,sinh}(a^2/2), not 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .landau import LevelIndex, PhysicalParams, _params_arrays
from .numerics import gauss_hermite, hermite_poly_table

__all__ = [
    "CatSpec",
    "CatExpansion",
    "SpectralFunction",
    "LevelFit",
    "expand",
    "expand_oracle",
    "spectral_function",
    "gaussian_fit",
    "initial_profile",
    "profile_norm",
]

DEFAULT_TAIL_EPS = 1e-12


@dataclass(frozen=True)
class CatSpec:
    """Which cat: symmetry tag 'S' or 'A', separation a, one-particle inputs."""

    symmetry: str
    a: float
    params: PhysicalParams = field(default_factory=PhysicalParams)

    def __post_init__(self) -> None:
        if self.symmetry not in ("S", "A"):
            raise ValueError(f"symmetry must be 'S' or 'A', got {self.symmetry!r}")
        if self.a < 0.0 or not math.isfinite(self.a):
            raise ValueError(f"distance parameter must be finite and >= 0, got {self.a}")
        if self.symmetry == "A" and self.a == 0.0:
            raise ValueError("antisymmetric state vanishes identically at a = 0")


class CatExpansion:
    """Normalized eigenfunction expansion of a cat state.

    Internally one row per excited level n = m+1 with the three branch
    coefficients; `terms` flattens to (LevelIndex, coefficient) pairs,
    skipping branches that are exactly zero.
    """

    def __init__(self, spec: CatSpec, levels: np.ndarray, c_r1p: np.ndarray,
                 c_r2p: np.ndarray, c_r2m: np.ndarray, tail_eps: float):
        self.spec = spec
        self.levels = np.asarray(levels, dtype=int)
        self.c_r1_plus = np.asarray(c_r1p, dtype=float)
        self.c_r2_plus = np.asarray(c_r2p, dtype=float)
        self.c_r2_minus = np.asarray(c_r2m, dtype=float)
        self.tail_eps = float(tail_eps)
        self.energies, self.A, self.B, self.eta = _params_arrays(self.levels, spec.params)

    @property
    def terms(self) -> list[tuple[LevelIndex, float]]:
        out = []
        for i, n in enumerate(self.levels):
            n = int(n)
            if self.c_r1_plus[i] != 0.0:
                out.append((LevelIndex(n, 1, "+"), float(self.c_r1_plus[i])))
            if self.c_r2_plus[i] != 0.0:
                out.append((LevelIndex(n, 2, "+"), float(self.c_r2_plus[i])))
            if self.c_r2_minus[i] != 0.0:
                out.append((LevelIndex(n, 2, "-"), float(self.c_r2_minus[i])))
        return out

    @property
    def level_weights(self) -> np.ndarray:
        """Total probability per level (all branches)."""
        return self.c_r1_plus ** 2 + self.c_r2_plus ** 2 + self.c_r2_minus ** 2

    @property
    def weight_positive(self) -> np.ndarray:
        """Per-level weight on the +E_n branch (r=1)."""
        return self.c_r1_plus ** 2

    @property
    def weight_negative(self) -> np.ndarray:
        """Per-level weight on the -E_n branch (r=2, both spin labels)."""
        return self.c_r2_plus ** 2 + self.c_r2_minus ** 2

    @property
    def total_weight(self) -> float:
        return float(self.level_weights.sum())

    @property
    def n_max(self) -> int:
        return int(self.levels.max())

    def coefficient(self, level: LevelIndex) -> float:
        i = np.nonzero(self.levels == level.n)[0]
        if i.size == 0:
            return 0.0
        i = int(i[0])
        if level.r == 1:
            return float(self.c_r1_plus[i]) if level.nu == "+" else 0.0
        return float(self.c_r2_plus[i]) if level.nu == "+" else float(self.c_r2_minus[i])


@dataclass(frozen=True)
class SpectralFunction:
    """Delta-line energy distribution: weight per line, aggregated over the
    (nu, r) labels that share one (level, energy-sign) pair.  Weights sum
    to 1; the line energy is +E_n on the r=1 branch and -E_n on r=2."""

    lines: list[tuple[float, float]]

    def total_weight(self) -> float:
        return sum(w for _, w in self.lines)

    def negative_weight(self) -> float:
        return sum(w for e, w in self.lines if e < 0.0)


@dataclass(frozen=True)
class LevelFit:
    """Gaussian fit of the level distribution.

    n0 and delta_n are expressed on the oscillator-index axis m = n-1
    (the Hermite index of the dominant spinor component); that is the
    axis on which the distribution is the textbook Poisson shape and the
    one that feeds the revival time scales.
    """

    n0: float
    delta_n: float
    residual: float


def _parity_weights(symmetry: str, a: float, tail_eps: float):
    """Oscillator indices m of one parity and normalized weights P_m."""
    lam = 0.5 * a * a
    m0 = 0 if symmetry == "S" else 1
    if lam == 0.0:
        return np.array([m0]), np.array([1.0])
    # log weights m*log(lam) - log m!; extend until the tail is negligible
    hi = int(lam + 14.0 * math.sqrt(lam) + 40.0)
    ms = np.arange(m0, hi + 1, 2)
    logw = ms * math.log(lam) - np.array([math.lgamma(m + 1.0) for m in ms])
    w = np.exp(logw - logw.max())
    w /= w.sum()
    # keep ascending m until the discarded tail drops below tail_eps
    cs = np.cumsum(w)
    ncut = int(np.searchsorted(cs, 1.0 - tail_eps)) + 1
    ms, w = ms[:ncut], w[:ncut]
    return ms, w / w.sum()


def expand(spec: CatSpec, tail_eps: float = DEFAULT_TAIL_EPS) -> CatExpansion:
    """Analytic expansion coefficients, renormalized to unit total weight.

    Truncation keeps ascending levels until the discarded closed-form
    probability is below tail_eps.
    """
    if not (0.0 < tail_eps <= 1e-6):
        raise ValueError(f"tail_eps must lie in (0, 1e-6], got {tail_eps}")
    ms, w = _parity_weights(spec.symmetry, spec.a, tail_eps)
    levels = ms + 1
    _, A, B, eta = _params_arrays(levels, spec.params)
    root = np.sqrt(eta * w)
    c1, c2, c3 = root, root * B, -root * A
    norm = math.sqrt(float((c1 ** 2 + c2 ** 2 + c3 ** 2).sum()))
    return CatExpansion(spec, levels, c1 / norm, c2 / norm, c3 / norm, tail_eps)


def initial_profile(spec: CatSpec, s, normalized: bool = True):
    """Scalar t=0 profile multiplying the (1,0,0,0) spinor direction.

    The raw two-Gaussian form (1/2)(eB/pi)^(1/4) [exp(-(s-a)^2/2) +- ...]
    has squared norm exp(-a^2/2)*{cosh,sinh}(a^2/2); `normalized` divides
    that out so the profile matches the unit-norm expansion.
    """
    s = np.asarray(s, dtype=float)
    a = spec.a
    sgn = 1.0 if spec.symmetry == "S" else -1.0
    amp = 0.5 * (spec.params.eB / math.pi) ** 0.25
    f = amp * (np.exp(-0.5 * (s - a) ** 2) + sgn * np.exp(-0.5 * (s + a) ** 2))
    if normalized:
        f = f / math.sqrt(profile_norm(spec))
    return f if f.ndim else float(f)


def profile_norm(spec: CatSpec) -> float:
    """Squared norm of the raw two-Gaussian profile."""
    x = 0.5 * spec.a * spec.a
    h = math.cosh(x) if spec.symmetry == "S" else math.sinh(x)
    return math.exp(-x) * h


def _oracle_overlaps(spec: CatSpec, n_max: int):
    """Unnormalized overlaps of the t=0 state with every level n <= n_max.

    Returns (levels, c1, c2, c3) on the (r=1,+), (r=2,+), (r=2,-) labels.
    Each Gaussian hump is integrated with its own shifted Gauss-Hermite rule
    (complete the square at s = +-a/2), which is polynomial-exact and keeps
    every intermediate finite up to a ~ 20 and n ~ few hundred.
    """
    a = spec.a
    sgn = 1.0 if spec.symmetry == "S" else -1.0
    k = n_max // 2 + 24
    if math.sqrt(2.0 * k + 1.0) + 0.5 * a > 37.5:
        # the envelope-free Hermite parts grow like exp(s^2/2); past this
        # point they leave the double-precision range at the outer nodes
        raise ValueError(f"separation a={a} with n_max={n_max} exceeds the "
                         "finite-precision envelope of the overlap oracle")
    rule = gauss_hermite(k)
    x, wq = rule.nodes, rule.weights
    # integral of exp(-(s -+ a)^2/2) F_m(s) ds/sqrt(eB) over each hump;
    # the (eB)^(1/4) amplitudes of profile and F_m cancel the measure
    P_plus = hermite_poly_table(n_max, x + 0.5 * a)
    P_minus = hermite_poly_table(n_max, x - 0.5 * a)
    amp = 0.5 * math.pi ** -0.25 * math.exp(-0.25 * a * a)
    overlap_first = amp * ((P_plus @ wq) + sgn * (P_minus @ wq))  # index m = 0..n_max

    levels = np.arange(1, n_max + 1)
    _, A, B, eta = _params_arrays(levels, spec.params)
    se = np.sqrt(eta)
    # only the first spinor component meets the initial state; its entry is
    # F_{n-1} with coefficient sqrt(eta)*{1, 0, B, -A} per (r, nu) label
    I = overlap_first[levels - 1]
    return levels, se * I, se * B * I, -se * A * I


def expand_oracle(spec: CatSpec, n_max: int) -> CatExpansion:
    """Ground-truth expansion by quadrature of the overlap integrals.

    Evaluates c = integral phi^dag(s,0) u(s) ds/sqrt(eB) for every level
    n <= n_max and all four (r, nu) labels, then renormalizes.  This is the
    arbiter for index and sign conventions; it shares nothing with `expand`
    beyond the spinor parameters themselves.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    levels, c1, c2, c3 = _oracle_overlaps(spec, n_max)
    norm = math.sqrt(float((c1 ** 2 + c2 ** 2 + c3 ** 2).sum()))
    if norm == 0.0:
        raise ValueError("null state: no overlap with any level")
    keep = (c1 ** 2 + c2 ** 2 + c3 ** 2) > 0.0
    return CatExpansion(spec, levels[keep], c1[keep] / norm, c2[keep] / norm,
                        c3[keep] / norm, tail_eps=0.0)


def oracle_raw_overlaps(spec: CatSpec, n_max: int) -> dict[LevelIndex, float]:
    """Unnormalized overlap of the t=0 state with every basis label n <= n_max.

    Exposes the labels the expansion drops (wrong parity, (r=1,nu=-)) so the
    selection rule can be checked directly.
    """
    levels, c1, c2, c3 = _oracle_overlaps(spec, n_max)
    out: dict[LevelIndex, float] = {}
    for i, n in enumerate(levels.tolist()):
        out[LevelIndex(n, 1, "+")] = c1[i]
        out[LevelIndex(n, 1, "-")] = 0.0  # first component of u^-_{n,1} vanishes
        out[LevelIndex(n, 2, "+")] = c2[i]
        out[LevelIndex(n, 2, "-")] = c3[i]
    return out


def spectral_function(exp: CatExpansion) -> SpectralFunction:
    """Aggregate |c|^2 onto +E_n (r=1) and -E_n (r=2), sorted by energy."""
    lines = []
    for i, n in enumerate(exp.levels):
        E = float(exp.energies[i])
        wp = float(exp.weight_positive[i])
        wn = float(exp.weight_negative[i])
        if wp > 0.0:
            lines.append((+E, wp))
        if wn > 0.0:
            lines.append((-E, wn))
    lines.sort()
    return SpectralFunction(lines=lines)


def gaussian_fit(exp: CatExpansion, min_weight: float = 1e-10) -> LevelFit:
    """Least-squares Gaussian fit of the per-sign level weights.

    The positive-branch weights (renormalized to unit sum) are fitted on
    the oscillator-index axis m = n-1 against the two-parameter profile
    (2/(dn sqrt(pi))) exp(-((m-n0)/dn)^2); the leading 2 accounts for the
    parity-selected spacing of the samples.  Returns the center, width and
    RMS residual.
    """
    m = exp.levels.astype(float) - 1.0
    y = exp.weight_positive.copy()
    if not np.any(y > 0.0):  # pure negative-branch content cannot happen, but guard
        y = exp.level_weights.copy()
    keep = y > min_weight * y.max()
    m, y = m[keep], y[keep]
    if m.size < 5:
        raise ValueError(f"need at least 5 levels above threshold, got {m.size}")
    y = y / y.sum()

    mean = float((m * y).sum())
    width = math.sqrt(max(2.0 * float((((m - mean) ** 2) * y).sum()), 1e-12))

    def resid(q):
        n0, dn = q
        return 2.0 / (dn * math.sqrt(math.pi)) * np.exp(-(((m - n0) / dn) ** 2)) - y

    sol = least_squares(resid, x0=[mean, width], method="lm")
    n0, dn = float(sol.x[0]), abs(float(sol.x[1]))
    if n0 <= 0.0:
        raise ValueError("degenerate fit: nonpositive center")
    return LevelFit(n0=n0, delta_n=dn, residual=float(np.sqrt(np.mean(sol.fun ** 2))))
