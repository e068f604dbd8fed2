"""Cat-state expansions: analytic coefficients vs quadrature oracle, spectra, fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_revivals.catstate import (_MIN_WEIGHT, CatExpansion, CatSpec, LevelFit, _parity_weights,
                                     expand, gaussian_fit, initial_profile,
                                     profile_norm, spectral_function)
from dirac_revivals.density import density_grid
from dirac_revivals.evolution import survival_amplitude, time_scales
from dirac_revivals.landau import PhysicalParams, _params_arrays
from dirac_revivals.numerics import hermite_table
from dirac_revivals.oracle import expand_oracle, oracle_raw_overlaps

from conftest import _rounds_like_the_recording

MASSLESS = PhysicalParams(M=0.0, kz=0.0, eB=1.0)

PARAM_SETS = (
    PhysicalParams(M=0.0, kz=0.0, eB=1.0),
    PhysicalParams(M=1.0, kz=0.3, eB=1.0),
    PhysicalParams(M=5.0, kz=-1.1, eB=0.7),
)


class TestExpand:
    def test_point_state_is_single_level(self):
        exp = expand(CatSpec("S", 0.0, PhysicalParams(M=500.0)))
        assert list(exp.levels) == [1]
        # the (r=1,+) branch carries weight eta_1 -> 1 in the heavy-mass limit
        assert exp.c_r1_plus[0] ** 2 > 1.0 - 1e-5
        assert exp.total_weight == pytest.approx(1.0, abs=1e-12)

    def test_level_parity(self):
        for sym, parity in (("S", 1), ("A", 0)):
            exp = expand(CatSpec(sym, 4.0, MASSLESS))
            assert np.all(exp.levels % 2 == parity)

    def test_per_level_weights_match_closed_form(self):
        a = 5.0
        exp = expand(CatSpec("S", a, MASSLESS))
        lam = a * a / 2.0
        for i, n in enumerate(exp.levels):
            m = int(n) - 1
            expected = lam ** m / (math.factorial(m) * math.cosh(lam))
            assert exp.level_weights[i] == pytest.approx(expected, abs=1e-12)

    def test_antisymmetric_weights_use_sinh(self):
        a = 3.0
        exp = expand(CatSpec("A", a, MASSLESS))
        lam = a * a / 2.0
        for i, n in enumerate(exp.levels):
            m = int(n) - 1
            expected = lam ** m / (math.factorial(m) * math.sinh(lam))
            assert exp.level_weights[i] == pytest.approx(expected, abs=1e-12)

    def test_constructor_refuses_an_overflowing_energy(self):
        # expand builds (E, A, B, eta) once, through the constructor, which a
        # caller may also call with levels of its own
        spec = CatSpec("S", 1.0, PhysicalParams(M=1e155))
        with pytest.raises(ValueError, match="leaves the double range"):
            CatExpansion(spec, [1], [1.0], [0.0], [0.0])
        with pytest.raises(ValueError, match="leaves the double range"):
            expand(spec)

    def test_normalization(self):
        for sym in ("S", "A"):
            for a in (1.0, 5.0, 20.0):
                exp = expand(CatSpec(sym, a, PhysicalParams(M=1.0, kz=0.3)))
                assert exp.total_weight == pytest.approx(1.0, abs=1e-12)

    def test_antisymmetric_null_state_rejected(self):
        with pytest.raises(ValueError):
            CatSpec("A", 0.0, MASSLESS)

    def test_tail_eps_domain(self):
        with pytest.raises(ValueError):
            expand(CatSpec("S", 2.0, MASSLESS), tail_eps=1e-5)
        with pytest.raises(ValueError):
            expand(CatSpec("S", 2.0, MASSLESS), tail_eps=0.0)

    @pytest.mark.parametrize("tail", (1e-6, 1e-9, 1e-12))
    @pytest.mark.parametrize("a", (10.0, 20.0, 50.0, 100.0))
    @pytest.mark.parametrize("sym", ("S", "A"))
    def test_truncation_tail_bound(self, sym, a, tail):
        exp = expand(CatSpec(sym, a, MASSLESS), tail_eps=tail)
        # one band of the parity ladder, no gaps
        assert np.all(np.diff(exp.levels) == 2)
        # closed-form mass of every dropped level, below and above the band;
        # log cosh/sinh(lam) in a form that does not overflow at a = 100
        lam = 0.5 * a * a
        sgn = 1.0 if sym == "S" else -1.0
        log_norm = lam + math.log1p(sgn * math.exp(-2.0 * lam)) - math.log(2.0)
        kept = {int(n) - 1 for n in exp.levels}
        ms = range(0 if sym == "S" else 1, int(lam + 20.0 * math.sqrt(lam) + 100.0), 2)
        discarded = math.fsum(math.exp(m * math.log(lam) - math.lgamma(m + 1) - log_norm)
                              for m in ms if m not in kept)
        assert discarded < tail

    def test_small_a_keeps_top_cut_levels(self):
        # up to a ~ 7.5 no level below the mean is light enough to drop, so the
        # levels are those of a cut from the top alone (cumulative sum from m0)
        for sym in ("S", "A"):
            m0 = 0 if sym == "S" else 1
            for a in np.arange(0.25, 7.51, 0.25):
                lam = 0.5 * a * a
                ms = np.arange(m0, int(lam + 14.0 * math.sqrt(lam) + 40.0) + 1, 2)
                w = np.exp(ms * math.log(lam) - np.array([math.lgamma(m + 1.0) for m in ms]))
                cs = np.cumsum(w / w.sum())
                ncut = int(np.searchsorted(cs, 1.0 - 1e-12)) + 1
                exp = expand(CatSpec(sym, float(a), MASSLESS))
                assert np.array_equal(exp.levels, ms[:ncut] + 1), (sym, a)

    def test_kept_levels_grow_as_a(self):
        # a cut from the top alone keeps 155 levels at a = 20 and 2,754 at a = 100
        for sym in ("S", "A"):
            assert len(expand(CatSpec(sym, 20.0, MASSLESS)).levels) <= 105
            assert len(expand(CatSpec(sym, 100.0, MASSLESS)).levels) <= 600

    def test_cut_against_near_complete_reference(self):
        spec = CatSpec("S", 20.0, MASSLESS)
        exp, ref = expand(spec), expand(spec, tail_eps=1e-16)
        scales = time_scales(gaussian_fit(exp).n0, spec.params)
        t = np.linspace(0.0, scales.T3, 4001)
        assert np.abs(survival_amplitude(exp, t) - survival_amplitude(ref, t)).max() <= 1e-12
        # density is quadratic in amplitudes, which the cut moves by ~sqrt(tail)
        grid, ref_grid = (density_grid(e, -26.0, 26.0, 801, 0.0, scales.T2, 11) for e in (exp, ref))
        assert np.abs(grid.values - ref_grid.values).max() <= 5e-7


def _coefficient_deviation(exp, oracle):
    """max |c - c_oracle| over the expansion's levels; oracle row n - 1 holds level n."""
    rows = exp.levels - 1
    return max(np.abs(exp.c_r1_plus - oracle.c_r1_plus[rows]).max(),
               np.abs(exp.c_r2_plus - oracle.c_r2_plus[rows]).max(),
               np.abs(exp.c_r2_minus - oracle.c_r2_minus[rows]).max())


class TestOracleEquivalence:
    @pytest.mark.parametrize("a", (1.0, 5.0, 10.0))
    @pytest.mark.parametrize("sym", ("S", "A"))
    def test_expand_matches_oracle(self, a, sym):
        for p in PARAM_SETS:
            spec = CatSpec(sym, a, p)
            exp = expand(spec)
            assert _coefficient_deviation(exp, expand_oracle(spec, exp.n_max + 2)) < 1e-8

    def test_point_state_oracle(self):
        spec = CatSpec("S", 0.0, PhysicalParams(M=500.0))
        exp = expand(spec)
        assert _coefficient_deviation(exp, expand_oracle(spec, 6)) <= 1e-12

    def test_wrong_parity_overlaps_vanish(self):
        for sym, parity in (("S", 0), ("A", 1)):
            spec = CatSpec(sym, 5.0, PhysicalParams(M=1.0, kz=0.3))
            levels, raw = oracle_raw_overlaps(spec, 40)
            leak = max(np.abs(raw[(levels - 1) % 2 != parity]).max(), np.abs(raw[:, 1]).max())
            assert leak < 1e-10

    @pytest.mark.parametrize("p", PARAM_SETS)
    def test_r1_spin_down_column_is_computed_zero(self, p):
        # u^-_{n,1} has no first component, so its overlap vanishes exactly;
        # the other columns carry sqrt(eta) {1, B, -A} times one shared integral
        spec = CatSpec("A", 3.0, p)
        levels, raw = oracle_raw_overlaps(spec, 30)
        assert raw.shape == (30, 4) and list(levels) == list(range(1, 31))
        assert np.all(raw[:, 1] == 0.0)
        _, A, B, _ = _params_arrays(levels, p)
        assert np.abs(raw[:, 2] - B * raw[:, 0]).max() <= 1e-15
        assert np.abs(raw[:, 3] + A * raw[:, 0]).max() <= 1e-15

    def test_parseval_against_profile_norm(self):
        # raw squared overlaps must resum to the squared norm of the raw profile
        spec = CatSpec("S", 10.0, MASSLESS)
        _, raw = oracle_raw_overlaps(spec, 130)
        assert float((raw ** 2).sum()) == pytest.approx(profile_norm(spec), abs=1e-12)

    @pytest.mark.parametrize("a", [5.0, 20.0, 100.0])
    @pytest.mark.parametrize("sym", ["S", "A"])
    def test_raw_overlaps_match_coherent_closed_form(self, sym, a):
        # each hump is a coherent state: its F_m overlap is e^{-a^2/4} (+-a/sqrt2)^m / sqrt(m!)
        # times the profile's 1/2, so I_m = (1/2) e^{-a^2/4} (a/sqrt2)^m / sqrt(m!) (1 +- (-1)^m)
        spec = CatSpec(sym, a, MASSLESS)
        levels, raw = oracle_raw_overlaps(spec, expand(spec).n_max + 2)
        m = levels - 1
        log_factorial = np.array([math.lgamma(k + 1.0) for k in m.tolist()])
        magnitude = np.exp(-0.25 * a * a + m * math.log(a / math.sqrt(2.0)) - 0.5 * log_factorial)
        closed = 0.5 * magnitude * (1.0 + (1.0 if sym == "S" else -1.0) * (-1.0) ** m)
        eta = _params_arrays(levels, MASSLESS)[3]  # column 0 carries sqrt(eta) * I_m
        assert np.abs(raw[:, 0] - np.sqrt(eta) * closed).max() <= 1e-12

    def test_mass_suppresses_negative_branch(self):
        light = expand(CatSpec("S", 5.0, MASSLESS))
        heavy = expand(CatSpec("S", 5.0, PhysicalParams(M=5.0)))
        assert heavy.weight_negative.sum() < light.weight_negative.sum()


def test_profile_resummation():
    # sum_m I_m F_m resums to the raw two-Gaussian profile pointwise
    a = 5.0
    spec = CatSpec("S", a, MASSLESS)
    s = np.linspace(-a - 5.0, a + 5.0, 801)
    ms = np.arange(0, 61, 2)
    I = np.array([math.exp(-a * a / 4.0) * (a / math.sqrt(2.0)) ** m
                  / math.sqrt(math.factorial(m)) for m in ms])
    table = hermite_table(int(ms[-1]), s)
    resummed = I @ table[ms]
    assert np.abs(resummed - initial_profile(spec, s, normalized=False)).max() < 1e-8


class TestSpectralFunction:
    def test_total_weight_one(self):
        for sym in ("S", "A"):
            sf = spectral_function(expand(CatSpec(sym, 5.0, PhysicalParams(M=1.0, kz=0.5))))
            assert sum(w for _, w in sf.lines) == pytest.approx(1.0, abs=1e-12)

    def test_lines_sorted_and_signed(self):
        sf = spectral_function(expand(CatSpec("S", 5.0, MASSLESS)))
        energies = [e for e, _ in sf.lines]
        assert energies == sorted(energies)
        assert min(energies) < 0.0 < max(energies)

    def test_massive_negative_weight_value(self):
        # derived by the oracle route: sum (1 - eta_n) P_n, well above the
        # small-a regime where the negative branch is percent-level
        sf = spectral_function(expand(CatSpec("S", 5.0, PhysicalParams(M=5.0))))
        assert sum(w for e, w in sf.lines if e < 0.0) == pytest.approx(0.1508895289076825, abs=1e-9)
        sf_small = spectral_function(expand(CatSpec("S", 1.0, PhysicalParams(M=5.0))))
        assert sum(w for e, w in sf_small.lines if e < 0.0) < 0.05

    def test_symmetric_vs_antisymmetric_envelope(self):
        # S and A excite interleaved levels; both weight sets sample the same
        # Poisson envelope (cosh vs sinh normalizations differ by e^{-a^2})
        a = 10.0
        lam = a * a / 2.0
        for sym, norm in (("S", math.cosh(lam)), ("A", math.sinh(lam))):
            exp = expand(CatSpec(sym, a, MASSLESS))
            for i, n in enumerate(exp.levels):
                m = int(n) - 1
                envelope = lam ** m / (math.factorial(m) * norm)
                assert exp.level_weights[i] == pytest.approx(envelope, abs=1e-12)
        assert abs(math.cosh(lam) / math.sinh(lam) - 1.0) < 1e-40
        # nearest-line weights agree at the interleave-gap level (~1/lambda)
        sf_s = spectral_function(expand(CatSpec("S", a, MASSLESS)))
        sf_a = spectral_function(expand(CatSpec("A", a, MASSLESS)))
        pos_s = [(e, w) for e, w in sf_s.lines if e > 0]
        pos_a = [(e, w) for e, w in sf_a.lines if e > 0]
        gaps = []
        for e, w in pos_s:
            ea, wa = min(pos_a, key=lambda line: abs(line[0] - e))
            gaps.append(abs(wa - w))
        assert max(gaps) < 1e-2


class TestGaussianFit:
    def test_mean_levels_match_distance_parameter(self):
        for a, n0, tol in ((5.0, 12.0, 1.0), (10.0, 50.0, 2.0), (20.0, 200.0, 5.0)):
            fit = gaussian_fit(expand(CatSpec("S", a, MASSLESS)))
            assert abs(fit.n0 - n0) <= tol

    def test_width_grows_with_distance(self):
        fits = [gaussian_fit(expand(CatSpec("S", a, MASSLESS))) for a in (5.0, 10.0, 20.0)]
        widths = [f.delta_n for f in fits]
        ratios = [f.delta_n / f.n0 for f in fits]
        assert widths == sorted(widths)
        assert ratios == sorted(ratios, reverse=True)

    def test_residual_reported(self):
        fit = gaussian_fit(expand(CatSpec("S", 5.0, MASSLESS)))
        assert 0.0 < fit.residual < 0.05

    def test_few_levels_keep_the_moment_estimates(self):
        # a = 0.3 leaves m = 0, 2, 4 above the threshold: too few for two
        # parameters, so the fit returns the Poisson moments it would start from
        lam = 0.5 * 0.3 ** 2
        m = np.array([0.0, 2.0, 4.0])
        w = lam ** m / np.array([1.0, 2.0, 24.0])
        w /= w.sum()
        mean = float((m * w).sum())
        fit = gaussian_fit(expand(CatSpec("S", 0.3, MASSLESS)))
        assert fit.n0 == pytest.approx(mean, rel=1e-12)
        assert fit.delta_n == pytest.approx(math.sqrt(2.0 * float(((m - mean) ** 2 * w).sum())),
                                            rel=1e-12)
        assert fit.residual == pytest.approx(6.663008905668285, rel=1e-12)

    def test_fit_independent_of_kz(self):
        # level weights carry no kz dependence, so neither does the fit
        f0 = gaussian_fit(expand(CatSpec("S", 5.0, MASSLESS)))
        f1 = gaussian_fit(expand(CatSpec("S", 5.0, PhysicalParams(kz=10.2))))
        assert f1.n0 == pytest.approx(f0.n0, abs=1e-9)


# float.hex of (n0, delta_n, residual) per (symmetry, a, M, kz), recorded at
# commit 23cf542, before the Levenberg-Marquardt loop lost its numpy
# overhead; the loop's arithmetic must not move a bit
FIT_BITS = {
    ("S", 0.8, 0.0, 0.0): ("0x1.fe0c8874304edp-2", "0x1.a4cf2c97a02f2p-1", "0x1.85a0f270e4f50p-13"),
    ("S", 0.8, 1.0, 0.7): ("0x1.fd9113eae6de1p-2", "0x1.9cf02c49971d6p-1", "0x1.4a7568fcea3aap-13"),
    ("S", 3.0, 0.0, 0.0): ("0x1.0fb752353eb91p+2", "0x1.7b9de51db55edp+1", "0x1.51e624c0531b8p-7"),
    ("S", 3.0, 1.0, 0.7): ("0x1.09f9748d311efp+2", "0x1.7be4a1b41b560p+1", "0x1.571498e1655bbp-7"),
    ("S", 20.0, 0.0, 0.0): ("0x1.8f7ff3781a456p+7", "0x1.3fe93b4cdf2cep+4", "0x1.b4efb04e37c78p-13"),
    ("S", 20.0, 1.0, 0.7): ("0x1.8f73dc3845a91p+7", "0x1.3feb8023646a6p+4", "0x1.b4e22bdd3a97ap-13"),
    ("S", 100.0, 0.0, 0.0): ("0x1.387bfffbfeafdp+12", "0x1.8ffedcb8df173p+6", "0x1.17440df116249p-17"),
    ("S", 100.0, 1.0, 0.7): ("0x1.387bebb6c295bp+12", "0x1.8ffee32408b82p+6", "0x1.1743f9df3f893p-17"),
    ("A", 0.8, 0.0, 0.0): ("0x1.7dfc8bd1a9c13p+0", "0x1.69b220744a31dp-1", "0x1.424889e94d85dp-15"),
    ("A", 0.8, 1.0, 0.7): ("0x1.7ddad1549f844p+0", "0x1.669ee3f911f78p-1", "0x1.1fba605cc35b7p-15"),
    ("A", 3.0, 0.0, 0.0): ("0x1.0f093e341b84ap+2", "0x1.7dc1128e57088p+1", "0x1.3e7ce7ac6725fp-7"),
    ("A", 3.0, 1.0, 0.7): ("0x1.092cad1533834p+2", "0x1.7e3c920982683p+1", "0x1.3542d18ccf162p-7"),
    ("A", 20.0, 0.0, 0.0): ("0x1.8f7ff3781a43cp+7", "0x1.3fe93b4cd9d88p+4", "0x1.b73adc983ca19p-13"),
    ("A", 20.0, 1.0, 0.7): ("0x1.8f73dc3845afdp+7", "0x1.3feb8023610ccp+4", "0x1.b72d45fcf6c94p-13"),
    ("A", 100.0, 0.0, 0.0): ("0x1.387bfffbfeb2fp+12", "0x1.8ffedcb8dcb7ep+6", "0x1.178ea4538c563p-17"),
    ("A", 100.0, 1.0, 0.7): ("0x1.387bebb6c298ep+12", "0x1.8ffee32406590p+6", "0x1.178e903c597c5p-17"),
}


@pytest.mark.skipif(not _rounds_like_the_recording(),
                    reason="exp or the BLAS product rounds unlike the recording machine")
@pytest.mark.parametrize("key", FIT_BITS, ids=lambda k: "-".join(map(str, k)))
def test_fit_bits_pinned(key):
    symmetry, a, M, kz = key
    fit = gaussian_fit(expand(CatSpec(symmetry, a, PhysicalParams(M=M, kz=kz))))
    assert (fit.n0.hex(), fit.delta_n.hex(), fit.residual.hex()) == FIT_BITS[key]


def _gaussian_fit_reference(exp) -> LevelFit:
    """gaussian_fit as it stood at commit 09c9d12: J built at every trial point."""
    m = exp.levels.astype(float) - 1.0
    y = exp.weight_positive
    keep = y > _MIN_WEIGHT * y.max()
    m, y = m[keep], y[keep]
    y = y / y.sum()

    mean = float((m * y).sum())
    width = math.sqrt(max(2.0 * float((((m - mean) ** 2) * y).sum()), 1e-12))

    def model(q):
        n0, dn = q.tolist()
        u = (m - n0) / dn
        g = 2.0 / (dn * math.sqrt(math.pi)) * np.exp(-u * u)
        J = np.empty((m.size, 2))
        J[:, 0] = g * 2.0 * u / dn
        J[:, 1] = g * (2.0 * u * u - 1.0) / dn
        r = g - y
        return r, float(r @ r), J

    q, mu = np.array([mean, width]), 1e-3
    r, cost, J = model(q)
    for _ in range(200 if m.size >= 5 else 0):
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
    return LevelFit(n0=n0, delta_n=dn, residual=float(np.sqrt(np.mean(r ** 2))))


@given(symmetry=st.sampled_from("SA"), a=st.floats(0.3, 100.0), M=st.floats(0.0, 5.0),
       kz=st.floats(-3.0, 3.0), eB=st.floats(0.3, 3.0))
@settings(max_examples=200, deadline=None)
def test_fit_matches_the_reference_loop(symmetry, a, M, kz, eB):
    # J only where a step is taken, and a repeated rejected point skipped,
    # must leave the trial sequence and every bit of the fit as they were;
    # both routes run in this process, so this holds on any exp loop and BLAS
    exp = expand(CatSpec(symmetry, a, PhysicalParams(M=M, kz=kz, eB=eB)))
    got, want = gaussian_fit(exp), _gaussian_fit_reference(exp)
    assert (got.n0.hex(), got.delta_n.hex(), got.residual.hex()) == \
        (want.n0.hex(), want.delta_n.hex(), want.residual.hex())


def _parity_weights_reference(symmetry, a, tail_eps):
    """_parity_weights as it stood at commit 09c9d12: lgamma of numpy scalars m + 1.0."""
    lam = 0.5 * a * a
    m0 = 0 if symmetry == "S" else 1
    if lam == 0.0:
        return np.array([m0]), np.array([1.0])
    hi = int(lam + 14.0 * math.sqrt(lam) + 40.0)
    ms = np.arange(m0, hi + 1, 2)
    logw = ms * math.log(lam) - np.array([math.lgamma(m + 1.0) for m in ms])
    w = np.exp(logw - logw.max())
    w /= w.sum()
    wl = w.tolist()
    i, j, dropped = 0, len(wl) - 1, 0.0
    while i < j and dropped + min(wl[i], wl[j]) < tail_eps:
        if wl[i] <= wl[j]:
            dropped, i = dropped + wl[i], i + 1
        else:
            dropped, j = dropped + wl[j], j - 1
    ms, w = ms[i:j + 1], w[i:j + 1]
    return ms, w / w.sum()


@given(symmetry=st.sampled_from("SA"), a=st.floats(0.0, 100.0),
       tail_eps=st.sampled_from([1e-12, 1e-6, 1e-300]))
@settings(max_examples=150, deadline=None)
def test_parity_weights_match_the_numpy_scalar_ladder(symmetry, a, tail_eps):
    # lgamma of the Python float m + 1.0 is lgamma of the numpy scalar's
    # value: m + 1.0 is exact below 2^53
    got, want = _parity_weights(symmetry, a, tail_eps), _parity_weights_reference(symmetry, a, tail_eps)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
