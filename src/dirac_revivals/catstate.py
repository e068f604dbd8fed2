"""Symmetric/antisymmetric Dirac cat states and their level content.

A cat state puts two unit-width Gaussians at s = +-a on the first spinor
component.  Its eigenfunction expansion excites only every other Landau
level: the oscillator index m = n-1 of the dominant component runs over
even m for the symmetric state and odd m for the antisymmetric one, with
per-level probability

    P_m = (a^2/2)^m / (m! * {cosh, sinh}(a^2/2)),

split over three branch labels with amplitudes sqrt(eta_n) * {1, B_n, -A_n}
on (r=1,nu=+), (r=2,nu=+), (r=2,nu=-).  That split makes the per-level sum
exactly P_m thanks to eta*(1+A^2+B^2) = 1.  This is the analytic route; the
quadrature oracle that checks it lives in `oracle`, and the whole list
is always renormalized: the two-Gaussian profile as written has squared
norm exp(-a^2/2)*{cosh,sinh}(a^2/2), not 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .landau import PhysicalParams, _params_arrays

__all__ = [
    "A_MAX",
    "CatSpec",
    "CatExpansion",
    "SpectralFunction",
    "LevelFit",
    "expand",
    "spectral_function",
    "gaussian_fit",
    "initial_profile",
    "profile_norm",
]

DEFAULT_TAIL_EPS = 1e-12
# largest separation accepted: the kept levels grow as a (505 at a = 100)
# but n_max as a^2/2 (5,514 at a = 100) and the Hermite tables with it,
# and past a ~ 1e154 a^2/2 overflows
A_MAX = 100.0
_MIN_WEIGHT = 1e-10  # gaussian_fit's threshold, relative to the largest level weight


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
        if self.a > A_MAX:
            raise ValueError(f"distance parameter a = {self.a} exceeds A_MAX = {A_MAX:g}")
        if self.symmetry == "A" and self.a == 0.0:
            raise ValueError("antisymmetric state vanishes identically at a = 0")


class CatExpansion:
    """Normalized eigenfunction expansion of a cat state.

    One row per excited level n = m+1 with the three branch coefficients
    on (r=1,+), (r=2,+), (r=2,-).
    """

    def __init__(self, spec: CatSpec, levels: np.ndarray, c_r1p: np.ndarray,
                 c_r2p: np.ndarray, c_r2m: np.ndarray):
        self.spec = spec
        self.levels = np.asarray(levels, dtype=int)
        self.c_r1_plus = np.asarray(c_r1p, dtype=float)
        self.c_r2_plus = np.asarray(c_r2p, dtype=float)
        self.c_r2_minus = np.asarray(c_r2m, dtype=float)
        self.energies, self.A, self.B, self.eta = _params_arrays(self.levels, spec.params)

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


@dataclass(frozen=True)
class SpectralFunction:
    """Delta-line energy distribution: weight per line, aggregated over the
    (nu, r) labels that share one (level, energy-sign) pair.  Weights sum
    to 1; the line energy is +E_n on the r=1 branch and -E_n on r=2."""

    lines: list[tuple[float, float]]


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
    if not (0.0 < tail_eps <= 1e-6):
        raise ValueError(f"tail_eps must lie in (0, 1e-6], got {tail_eps}")
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
    # drop the lighter end level while the total dropped stays below
    # tail_eps; w is unimodal in m, so this drops the smallest weights
    # first and the kept levels stay one run with step 2
    wl = w.tolist()
    i, j, dropped = 0, len(wl) - 1, 0.0
    while i < j and dropped + min(wl[i], wl[j]) < tail_eps:
        if wl[i] <= wl[j]:
            dropped, i = dropped + wl[i], i + 1
        else:
            dropped, j = dropped + wl[j], j - 1
    ms, w = ms[i:j + 1], w[i:j + 1]
    return ms, w / w.sum()


def expand(spec: CatSpec, tail_eps: float = DEFAULT_TAIL_EPS) -> CatExpansion:
    """Analytic expansion coefficients, renormalized to unit total weight.

    Truncation drops the least-populated levels from both ends of the
    parity ladder while their total closed-form probability stays below
    tail_eps, so the kept levels are one band around the mean level.
    """
    return _expand_ladder(spec, _parity_weights(spec.symmetry, spec.a, tail_eps))


def _expand_ladder(spec: CatSpec, ladder) -> CatExpansion:
    """expand from its ladder _parity_weights(spec.symmetry, spec.a, tail_eps),
    which does not depend on M, kz or eB: a kz solve builds it once."""
    ms, w = ladder
    levels = ms + 1
    _, A, B, eta = _params_arrays(levels, spec.params)
    root = np.sqrt(eta * w)
    c1, c2, c3 = root, root * B, -root * A
    norm = math.sqrt(float((c1 ** 2 + c2 ** 2 + c3 ** 2).sum()))
    return CatExpansion(spec, levels, c1 / norm, c2 / norm, c3 / norm)


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


def spectral_function(exp: CatExpansion) -> SpectralFunction:
    """Aggregate |c|^2 onto +E_n (r=1) and -E_n (r=2), sorted by energy."""
    E, wp, wn = exp.energies.tolist(), exp.weight_positive.tolist(), exp.weight_negative.tolist()
    lines = [(e, w) for e, w in zip(E, wp) if w > 0.0] + [(-e, w) for e, w in zip(E, wn) if w > 0.0]
    return SpectralFunction(lines=sorted(lines))


def gaussian_fit(exp: CatExpansion) -> LevelFit:
    """Least-squares Gaussian fit of the per-sign level weights.

    The positive-branch weights (renormalized to unit sum) are fitted on
    the oscillator-index axis m = n-1 against the two-parameter profile
    (2/(dn sqrt(pi))) exp(-((m-n0)/dn)^2); the leading 2 accounts for the
    parity-selected spacing of the samples.  Returns the center, width and
    RMS residual.  With fewer than 5 levels above the threshold (small a)
    the two parameters are not identifiable, and the fit returns the moment
    estimates that seed the solver: n0 = the weighted mean of m and
    delta_n = sqrt(2 var), with the residual of the model there.  A center
    n0 <= 0 (the S state with m = 0 its only level above the threshold) is refused.
    """
    m = exp.levels.astype(float) - 1.0
    y = exp.weight_positive  # y.max() > 0: eta_n >= 1/2 on every level
    keep = y > _MIN_WEIGHT * y.max()
    m, y = m[keep], y[keep]
    y = y / y.sum()

    mean = float((m * y).sum())
    width = math.sqrt(max(2.0 * float((((m - mean) ** 2) * y).sum()), 1e-12))

    def model(q):  # residuals, their cost and their Jacobian in (n0, dn)
        n0, dn = q.tolist()
        u = (m - n0) / dn
        g = 2.0 / (dn * math.sqrt(math.pi)) * np.exp(-u * u)
        J = np.empty((m.size, 2))
        J[:, 0] = g * 2.0 * u / dn
        J[:, 1] = g * (2.0 * u * u - 1.0) / dn
        r = g - y
        return r, float(r @ r), J

    # Levenberg-Marquardt with Marquardt's diagonal scaling (More, LNM 630,
    # 1978): a step is taken only if it lowers the cost, and the loop stops
    # on a relative step of 1e-13 or after 200 trial steps
    q, mu = np.array([mean, width]), 1e-3
    r, cost, J = model(q)
    for _ in range(200 if m.size >= 5 else 0):  # fewer levels keep the moments
        JtJ = J.T @ J
        damped = JtJ.copy()
        damped[0, 0] += mu * JtJ[0, 0]
        damped[1, 1] += mu * JtJ[1, 1]
        step = np.linalg.solve(damped, -(J.T @ r))
        r_new, cost_new, J_new = model(q + step)
        if cost_new < cost:
            q, r, cost, J, mu = q + step, r_new, cost_new, J_new, 0.1 * mu
        else:
            mu *= 10.0
        if max(map(abs, step.tolist())) <= 1e-13 * max(map(abs, q.tolist())):
            break
    n0, dn = float(q[0]), abs(float(q[1]))
    if n0 <= 0.0:  # the S state at a = 0, and below a ~ 5.3e-3 under _MIN_WEIGHT = 1e-10
        raise ValueError(f"degenerate fit: nonpositive center at a = {exp.spec.a:g}, symmetry "
                         f"{exp.spec.symmetry}: only the m = 0 level carries more than "
                         f"{_MIN_WEIGHT:g} of the largest weight, so the mean level is 0")
    return LevelFit(n0=n0, delta_n=dn, residual=float(np.sqrt(np.mean(r ** 2))))
