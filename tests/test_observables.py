"""Generator expectation values, selection rules, correlation quantifiers."""

import math

import numpy as np
import pytest
from scipy.signal import hilbert

from dirac_revivals.catstate import CatSpec, expand, gaussian_fit
from dirac_revivals.evolution import (TimeSeries, autocorrelation_series, kz_for_ab_ratio,
                                      survival_amplitude, survival_series, time_scales)
from dirac_revivals.landau import LevelIndex, PhysicalParams, energy, one_particle_params
from dirac_revivals.numerics import find_peaks
from dirac_revivals.observables import (_LABELS, GeneratorId, _level_tables, closed_form_series,
                                        concurrence_sq, correlation_series,
                                        expectation_series, expectation_values,
                                        generator_matrix, matrix_element,
                                        mutual_information)

MASSLESS = PhysicalParams()
ALL_GENERATORS = list(GeneratorId)
DIAGONAL_GENERATORS = (GeneratorId.IDENTITY, GeneratorId.GAMMA0,
                       GeneratorId.GAMMA5_ALPHA_Z, GeneratorId.GAMMA5_GAMMA_Z)
VANISHING_GENERATORS = (GeneratorId.ALPHA_X, GeneratorId.ALPHA_Y,
                        GeneratorId.GAMMA5_ALPHA_X, GeneratorId.GAMMA5_ALPHA_Y,
                        GeneratorId.I_GAMMA_X, GeneratorId.I_GAMMA_Y,
                        GeneratorId.GAMMA5_GAMMA_X, GeneratorId.GAMMA5_GAMMA_Y)


@pytest.fixture(scope="module")
def fig7():
    """Weak-field configuration of the observable revivals."""
    n0 = gaussian_fit(expand(CatSpec("S", 5.0, MASSLESS))).n0
    kz = kz_for_ab_ratio(2.04, n0, 1.0)
    p = PhysicalParams(M=0.0, kz=kz, eB=1.0)
    return expand(CatSpec("S", 5.0, p)), time_scales(n0, p)


class TestGeneratorAlgebra:
    def test_all_hermitian(self):
        for g in ALL_GENERATORS:
            mat = generator_matrix(g)
            assert np.abs(mat - mat.conj().T).max() == 0.0

    def test_sigma_z_is_gamma5_alpha_z(self):
        g5 = generator_matrix(GeneratorId.GAMMA5)
        az = generator_matrix(GeneratorId.ALPHA_Z)
        sz = generator_matrix(GeneratorId.GAMMA5_ALPHA_Z)
        assert np.abs(g5 @ az - sz).max() == 0.0

    def test_gamma5_gamma_z_is_minus_gamma0_sigma_z(self):
        g0 = generator_matrix(GeneratorId.GAMMA0)
        sz = generator_matrix(GeneratorId.GAMMA5_ALPHA_Z)
        g5gz = generator_matrix(GeneratorId.GAMMA5_GAMMA_Z)
        assert np.abs(g5gz + g0 @ sz).max() == 0.0


class TestMatrixElements:
    def test_gamma0_diagonal_value(self):
        # eta_1 (1 - A_1^2 - B_1^2) collapses to M/E_1 through the constraint
        p = PhysicalParams(M=1.0, kz=0.5, eB=1.0)
        lv = LevelIndex(1, 1, "+")
        got = matrix_element(GeneratorId.GAMMA0, lv, lv, p)
        q = one_particle_params(1, p)
        assert got.imag == pytest.approx(0.0, abs=1e-14)
        assert got.real == pytest.approx(q.eta * (1 - q.A ** 2 - q.B ** 2), abs=1e-12)
        assert got.real == pytest.approx(p.M / energy(1, p), abs=1e-12)

    def test_diagonal_generators_block_all_cross_levels(self):
        p = PhysicalParams(M=1.0, kz=0.7, eB=1.0)
        labels = [(1, "+"), (1, "-"), (2, "+"), (2, "-")]
        for g in DIAGONAL_GENERATORS:
            for n in (1, 2, 5):
                for m in (n + 1, n + 2, n + 5):
                    for la in labels:
                        for lb in labels:
                            el = matrix_element(g, LevelIndex(n, *la), LevelIndex(m, *lb), p)
                            assert abs(el) < 1e-10

    def test_same_parity_selection_all_generators(self):
        # within one parity class every constant generator blocks n != m
        p = PhysicalParams(M=0.5, kz=1.0, eB=1.0)
        for g in ALL_GENERATORS:
            for n, m in ((1, 3), (2, 6), (3, 7)):
                el = matrix_element(g, LevelIndex(n, 1, "+"), LevelIndex(m, 2, "-"), p)
                assert abs(el) < 1e-10

    @pytest.mark.parametrize("symmetry", ["S", "A"])
    def test_engine_tables_match_quadrature(self, symmetry):
        # the engine reads its per-level bilinears off orthonormality; the
        # quadrature route must give the same 3x3 table for every generator
        p = PhysicalParams(M=1.0, kz=0.7, eB=1.0)
        exp = expand(CatSpec(symmetry, 5.0, p))
        for g in ALL_GENERATORS:
            for tbl, n in zip(_level_tables(exp, g), exp.levels[:6]):
                for i, la in enumerate(_LABELS):
                    for j, lb in enumerate(_LABELS):
                        el = matrix_element(g, LevelIndex(int(n), *la), LevelIndex(int(n), *lb), p)
                        assert abs(tbl[i, j] - el) < 1e-12

    def test_alpha_x_adjacent_level_structure(self):
        # alpha_x does connect adjacent (parity-breaking) levels; the cat
        # states never populate those pairs
        p = PhysicalParams(M=1.0, kz=0.5, eB=1.0)
        el = matrix_element(GeneratorId.ALPHA_X, LevelIndex(2, 1, "+"), LevelIndex(3, 1, "+"), p)
        assert abs(el) > 1e-3


class TestExpectationSeries:
    def test_t0_values(self, fig7):
        exp, _ = fig7
        assert expectation_values(exp, GeneratorId.GAMMA0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert expectation_values(exp, GeneratorId.GAMMA5_ALPHA_Z, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert expectation_values(exp, GeneratorId.I_GAMMA_Z, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert expectation_values(exp, GeneratorId.GAMMA5_GAMMA_Z, 0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_closed_forms_regression(self, fig7):
        exp, sc = fig7
        ts = np.linspace(0.0, sc.T2, 500)
        for g in (GeneratorId.GAMMA0, GeneratorId.GAMMA5_ALPHA_Z,
                  GeneratorId.GAMMA5_GAMMA_Z, GeneratorId.I_GAMMA_Z):
            direct = expectation_values(exp, g, ts)
            closed = closed_form_series(exp, g, ts)
            assert np.abs(direct - closed).max() < 1e-8

    def test_alpha_z_massive_prefactor(self):
        # the velocity component carries +4M; its closed form and the direct
        # engine agree, fixing the overall sign and prefactor
        p = PhysicalParams(M=2.0, kz=1.5, eB=1.0)
        exp = expand(CatSpec("S", 3.0, p))
        ts = np.linspace(0.0, 40.0, 300)
        direct = expectation_values(exp, GeneratorId.ALPHA_Z, ts)
        closed = closed_form_series(exp, GeneratorId.ALPHA_Z, ts)
        assert np.abs(direct - closed).max() < 1e-8
        assert direct.max() > 1e-3  # nonzero, positive lobes

    @pytest.mark.parametrize("symmetry, a", [("A", 4.0), ("S", 30.0), ("A", 30.0),
                                             ("S", 40.0), ("A", 40.0)])
    def test_closed_forms_by_state(self, symmetry, a):
        p = PhysicalParams(M=1.0, kz=0.8, eB=1.0)
        exp = expand(CatSpec(symmetry, a, p))
        ts = np.linspace(0.0, 60.0, 200)
        for g in (GeneratorId.GAMMA0, GeneratorId.GAMMA5_ALPHA_Z, GeneratorId.ALPHA_Z):
            assert np.abs(expectation_values(exp, g, ts)
                          - closed_form_series(exp, g, ts)).max() < 1e-8

    def test_identity_pairs(self, fig7):
        exp, sc = fig7
        ts = np.linspace(0.0, 2.0 * sc.T1, 400)
        igz = expectation_values(exp, GeneratorId.I_GAMMA_Z, ts)
        ig05 = expectation_values(exp, GeneratorId.I_GAMMA0_GAMMA5, ts)
        assert np.abs(igz - ig05).max() < 1e-10
        # the direct engine fixes <gamma5> = +<alpha_z> for these states
        g5 = expectation_values(exp, GeneratorId.GAMMA5, ts)
        az = expectation_values(exp, GeneratorId.ALPHA_Z, ts)
        assert np.abs(g5 - az).max() < 1e-10

    def test_perpendicular_components_vanish(self, fig7):
        exp, sc = fig7
        ts = np.linspace(0.0, sc.T1, 300)
        for g in VANISHING_GENERATORS:
            assert np.abs(expectation_values(exp, g, ts)).max() < 1e-10

    def test_series_wrapper(self, fig7):
        exp, _ = fig7
        obs = expectation_series(exp, GeneratorId.GAMMA0, 0.0, 10.0, 11)
        assert obs.generator is GeneratorId.GAMMA0
        assert obs.series.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_frequency_doubling(self):
        # revival (beat) spectrum of the observable sits at twice the
        # survival line: bins 4 vs 8 over a 4*T1 window
        exp = expand(CatSpec("S", 5.0, MASSLESS))
        sc = time_scales(gaussian_fit(exp).n0, MASSLESS)
        n = 16384
        ts = np.linspace(0.0, 4.0 * sc.T1, n, endpoint=False)
        power = np.abs(survival_amplitude(exp, ts)) ** 2
        surv_bin = int(np.argmax(np.abs(np.fft.rfft(power - power.mean()))[1:])) + 1
        g0 = expectation_values(exp, GeneratorId.GAMMA0, ts)
        envelope = np.abs(hilbert(g0 - g0.mean())) ** 2
        obs_bin = int(np.argmax(np.abs(np.fft.rfft(envelope - envelope.mean()))[1:])) + 1
        assert surv_bin == 4
        assert abs(obs_bin - 2 * surv_bin) <= 1


class TestConcurrence:
    def test_product_state_at_t0(self, fig7):
        exp, _ = fig7
        assert abs(concurrence_sq(exp, 0.0)) < 1e-12

    def test_bounded(self, fig7):
        exp, sc = fig7
        ts = np.linspace(0.0, sc.T2, 2000)
        vals = concurrence_sq(exp, ts)
        assert vals.min() > -1e-12 and vals.max() <= 1.0

    def test_kz_dominated_regime_stays_separable(self):
        p = PhysicalParams(M=0.0, kz=50.0, eB=1.0)
        exp = expand(CatSpec("S", 5.0, p))
        n0 = gaussian_fit(exp).n0
        sc = time_scales(n0, p)
        ts = np.linspace(0.0, sc.T2, 4000)
        assert concurrence_sq(exp, ts).max() < 0.05

    def test_zeros_coincide_with_observable_revivals(self, fig7):
        # at the concurrence minima near the half and full revivals both
        # observables have returned close to one (eps derived: imperfect
        # revivals land within ~0.2)
        exp, sc = fig7
        for frac in (0.25, 0.5):
            ts = np.linspace((frac - 0.025) * sc.T2, (frac + 0.025) * sc.T2, 20001)
            c2 = concurrence_sq(exp, ts)
            i = int(np.argmin(c2))
            g0 = expectation_values(exp, GeneratorId.GAMMA0, float(ts[i]))
            sz = expectation_values(exp, GeneratorId.GAMMA5_ALPHA_Z, float(ts[i]))
            assert abs(g0 - 1.0) < 0.25 and abs(sz - 1.0) < 0.25
            assert c2[i] < 0.5 * float(np.median(c2))


class TestMutualInformation:
    def test_zero_at_t0(self, fig7):
        exp, _ = fig7
        assert abs(mutual_information(exp, 0.0)) < 1e-12

    def test_gamma0_sigma_z_direct_sign(self, fig7):
        # the matrix gamma0*Sigma_z has +1 expectation at t=0, so the
        # gamma5 gamma_z slot evaluates to -1 there
        exp, _ = fig7
        assert expectation_values(exp, GeneratorId.GAMMA5_GAMMA_Z, 0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_bounded_over_revival_sweep(self, fig7):
        exp, sc = fig7
        ts = np.linspace(0.0, sc.T2, 3000)
        vals = mutual_information(exp, ts)
        assert vals.min() >= -2.0 - 1e-9 and vals.max() <= 2.0 + 1e-9

    def test_near_stationary_state_is_near_constant(self):
        # heavy point state: the residual oscillation amplitude is set by
        # the tiny (r=2) weight eta_1 B_1^2
        p = PhysicalParams(M=500.0)
        exp = expand(CatSpec("S", 0.0, p))
        ts = np.linspace(0.0, 30.0, 2000)
        vals = mutual_information(exp, ts)
        assert np.ptp(vals) < 1e-4

    def test_correlation_series_bundle(self, fig7):
        exp, _ = fig7
        bundle = correlation_series(exp, 0.0, 50.0, 101)
        assert set(bundle) == {"concurrence_sq", "mutual_information"}
        assert abs(bundle["concurrence_sq"].values[0]) < 1e-12
        assert abs(bundle["mutual_information"].values[0]) < 1e-12


def test_tensor_component_revivals(fig7):
    # quarter/half/three-quarter/full returns of the beat envelope at
    # t/T2 = 1/8, 1/4, 3/8, 1/2 (doubled frequencies halve the scale)
    exp, sc = fig7
    n = 2 ** 17
    ts = np.linspace(0.0, sc.T2, n)
    z = expectation_values(exp, GeneratorId.GAMMA5_GAMMA_Z, ts)
    envelope = np.abs(hilbert(z - z.mean()))
    series = TimeSeries(t0=0.0, dt=float(ts[1] - ts[0]), values=envelope)
    peaks = find_peaks(series, min_height=0.4 * envelope.max(), min_separation=0.03 * sc.T2)
    assert peaks, "no envelope peaks detected"
    for target in (0.125, 0.25, 0.375, 0.5):
        dist = min(abs(p[0] / sc.T2 - target) for p in peaks)
        assert dist <= 0.02, f"revival near {target} missing (nearest {dist:.3f} away)"


GRID_FUNCTIONS = {
    "survival_series": survival_series,
    "autocorrelation_series": autocorrelation_series,
    "expectation_series": lambda exp, t0, t1, n: expectation_series(exp, GeneratorId.GAMMA0, t0, t1, n),
    "correlation_series": correlation_series,
}


@pytest.mark.parametrize("name", GRID_FUNCTIONS)
@pytest.mark.parametrize("t0, t1, samples, message", [
    (1.0, 0.5, 11, "t1 must exceed t0"),
    (1.0, 1.0, 11, "t1 must exceed t0"),
    (0.0, 1.0, 1, "need at least 2 samples"),
])
def test_uniform_grid_validation(fig7, name, t0, t1, samples, message):
    with pytest.raises(ValueError, match=message):
        GRID_FUNCTIONS[name](fig7[0], t0, t1, samples)
