"""Generator expectation values, selection rules, correlation quantifiers."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_revivals import evolution
from dirac_revivals.catstate import CatSpec, expand, gaussian_fit
from dirac_revivals.cli import _EXPORTED_GENERATORS
from dirac_revivals.evolution import (TimeSeries, _block_rows, autocorrelation_series,
                                      kz_for_ab_ratio, survival_amplitude, survival_series,
                                      time_scales)
from dirac_revivals.landau import (_POPULATED, LABELS, PhysicalParams, _component_table,
                                   _params_arrays, energy)
from dirac_revivals.numerics import find_peaks
from dirac_revivals.observables import (_CORRELATION_GENERATORS, _MATRICES, _SAME_ORDER,
                                        GeneratorId, _coefficients, _grid_values,
                                        closed_form_series, concurrence_sq, correlation_series,
                                        expectation_series, expectation_values,
                                        mutual_information)
from dirac_revivals.oracle import matrix_elements

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


def _level_tables(g: GeneratorId, u) -> np.ndarray:
    """Per-level 3x3 matrix-element tables over the populated labels, shape (L, 3, 3).

    `u` is _component_table(exp.levels, exp.spec.params)[:, _POPULATED].  The F_k
    are orthonormal, so two components overlap by 1 on one Hermite order (the
    constant _SAME_ORDER, by the table's layout rule) and 0 otherwise;
    cross-level elements vanish by parity selection and are not carried.
    """
    return np.einsum("lai,ij,lbj->lab", u, _MATRICES[g] * _SAME_ORDER, u)


def _coefficients_reference(exp, gens) -> list:
    """_coefficients as it stood at commit 09c9d12: one complex einsum table per generator."""
    table = _component_table(exp.levels, exp.spec.params)[:, _POPULATED]
    out = []
    for g in gens:
        tbl = _level_tables(g, table)
        a1, a2, a3 = exp.c_r1_plus, exp.c_r2_plus, exp.c_r2_minus
        stat = (a1 * a1 * tbl[:, 0, 0].real + a2 * a2 * tbl[:, 1, 1].real
                + a3 * a3 * tbl[:, 2, 2].real + 2.0 * a2 * a3 * tbl[:, 1, 2].real)
        cosc = 2.0 * (a1 * a2 * tbl[:, 0, 1].real + a1 * a3 * tbl[:, 0, 2].real)
        sinc = -2.0 * (a1 * a2 * tbl[:, 0, 1].imag + a1 * a3 * tbl[:, 0, 2].imag)
        out.append((stat.sum(), cosc if cosc.any() else None, sinc if sinc.any() else None))
    return out


@given(symmetry=st.sampled_from("SA"), a=st.floats(0.3, 100.0), M=st.floats(0.0, 5.0),
       kz=st.floats(-3.0, 3.0), eB=st.floats(0.3, 3.0))
@settings(max_examples=150, deadline=None)
def test_coefficients_match_the_einsum_reference(symmetry, a, M, kz, eB):
    # one gather of +-u[a,i] u[b,j(i)] summed in increasing i must give the
    # complex einsum's bits, signed zeros included, for every generator
    exp = expand(CatSpec(symmetry, a, PhysicalParams(M=M, kz=kz, eB=eB)))
    for gens in [ALL_GENERATORS] + [[g] for g in ALL_GENERATORS]:  # alone or stacked
        got, want = _coefficients(exp, gens), _coefficients_reference(exp, gens)
        assert [tuple(None if x is None else x.tobytes() for x in c) for c in got] == \
            [tuple(None if x is None else x.tobytes() for x in c) for c in want]


class TestGeneratorAlgebra:
    def test_all_hermitian(self):
        for g in ALL_GENERATORS:
            mat = _MATRICES[g]
            assert np.abs(mat - mat.conj().T).max() == 0.0

    def test_sigma_z_is_gamma5_alpha_z(self):
        g5 = _MATRICES[GeneratorId.GAMMA5]
        az = _MATRICES[GeneratorId.ALPHA_Z]
        sz = _MATRICES[GeneratorId.GAMMA5_ALPHA_Z]
        assert np.abs(g5 @ az - sz).max() == 0.0

    def test_gamma5_gamma_z_is_minus_gamma0_sigma_z(self):
        g0 = _MATRICES[GeneratorId.GAMMA0]
        sz = _MATRICES[GeneratorId.GAMMA5_ALPHA_Z]
        g5gz = _MATRICES[GeneratorId.GAMMA5_GAMMA_Z]
        assert np.abs(g5gz + g0 @ sz).max() == 0.0


class TestMatrixElements:
    def test_gamma0_diagonal_value(self):
        # eta_1 (1 - A_1^2 - B_1^2) collapses to M/E_1 through the constraint
        p = PhysicalParams(M=1.0, kz=0.5, eB=1.0)
        got = matrix_elements(GeneratorId.GAMMA0, [1], p)[0, 0, 0, 0]  # (r=1, nu=+) twice
        _, A, B, eta = _params_arrays(1, p)
        assert got.imag == pytest.approx(0.0, abs=1e-14)
        assert got.real == pytest.approx(eta * (1 - A ** 2 - B ** 2), abs=1e-12)
        assert got.real == pytest.approx(p.M / energy(1, p), abs=1e-12)

    def test_diagonal_generators_block_all_cross_levels(self):
        p = PhysicalParams(M=1.0, kz=0.7, eB=1.0)
        pairs = [(n, m) for n in (1, 2, 5) for m in (n + 1, n + 2, n + 5)]
        levels = sorted({k for pair in pairs for k in pair})
        rows = [levels.index(n) for n, _ in pairs]
        cols = [levels.index(m) for _, m in pairs]
        for g in DIAGONAL_GENERATORS:
            el = matrix_elements(g, levels, p)  # every label pair of each level pair
            assert np.abs(el[rows, :, cols, :]).max() < 1e-10

    def test_same_parity_selection_all_generators(self):
        # within one parity class every constant generator blocks n != m
        p = PhysicalParams(M=0.5, kz=1.0, eB=1.0)
        for g in ALL_GENERATORS:
            for n, m in ((1, 3), (2, 6), (3, 7)):
                el = matrix_elements(g, [n, m], p)[0, LABELS.index((1, "+")), 1,
                                                   LABELS.index((2, "-"))]
                assert abs(el) < 1e-10

    @pytest.mark.parametrize("levels", ([0, 3], [], [[1, 2]]))
    def test_batched_levels_validated(self, levels):
        # level 0 would index Hermite order -1, which numpy wraps silently
        with pytest.raises(ValueError, match="levels must be"):
            matrix_elements(GeneratorId.GAMMA0, levels, MASSLESS)

    @pytest.mark.parametrize("symmetry", ["S", "A"])
    def test_engine_tables_match_quadrature(self, symmetry):
        # the engine reads its per-level bilinears off orthonormality; the
        # quadrature route must give the same 3x3 table for every generator
        p = PhysicalParams(M=1.0, kz=0.7, eB=1.0)
        exp = expand(CatSpec(symmetry, 5.0, p))
        k = np.arange(6)
        lab = [LABELS.index(la) for la in ((1, "+"), (2, "+"), (2, "-"))]
        table = _component_table(exp.levels, p)[:, lab]
        for g in ALL_GENERATORS:
            el = matrix_elements(g, exp.levels[:6], p)[k, :, k, :]  # same-level blocks
            assert np.abs(_level_tables(g, table)[:6] - el[:, lab][:, :, lab]).max() < 1e-12

    def test_memory_bounded(self):
        # the Gram matrix is gathered per (level, component), (L, 4, L, 4) doubles:
        # 5 MiB over 200 levels, where one per (level, label, component) pair took
        # 88.6 MiB
        tracemalloc.start()
        try:
            matrix_elements(GeneratorId.GAMMA0, np.arange(1, 201), PhysicalParams(M=0.7, kz=1.3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20

    def test_unit_norm_at_the_quadrature_limit(self):
        # n_max = 354 takes the 370-point rule, the last whose plain
        # Gauss-Hermite weights are all normal doubles
        el = matrix_elements(GeneratorId.IDENTITY, [353, 354], MASSLESS)
        assert np.abs(np.einsum("kaka->ka", el) - 1.0).max() < 1e-10

    @pytest.mark.parametrize("levels", [[399, 400], [999, 1000]])
    def test_unit_norm_past_the_quadrature_limit(self, levels):
        # sums over plain weights, subnormal at the outer nodes, gave
        # <u|u> = 0.81 at [399, 400]; the Christoffel numbers stay normal
        el = matrix_elements(GeneratorId.IDENTITY, levels, MASSLESS)
        assert np.abs(np.einsum("kaka->ka", el) - 1.0).max() < 1e-10

    def test_alpha_x_adjacent_level_structure(self):
        # alpha_x does connect adjacent (parity-breaking) levels; the cat
        # states never populate those pairs
        p = PhysicalParams(M=1.0, kz=0.5, eB=1.0)
        el = matrix_elements(GeneratorId.ALPHA_X, [2, 3], p)[0, 0, 1, 0]  # (r=1, nu=+) twice
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

    def test_grid_closed_forms_regression(self, fig7):
        # the stride tables of the grid series, against the closed forms at
        # the series' own times t0 + k dt
        exp, sc = fig7
        for g in (GeneratorId.GAMMA0, GeneratorId.GAMMA5_ALPHA_Z,
                  GeneratorId.GAMMA5_GAMMA_Z, GeneratorId.I_GAMMA_Z):
            grid = expectation_series(exp, g, 0.0, sc.T2, 500).series
            assert np.abs(grid.values - closed_form_series(exp, g, grid.times)).max() < 1e-8

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

    def test_generator_sequence_is_stacked_single_calls(self, fig7):
        exp, sc = fig7
        ts = np.linspace(0.0, sc.T2, 5001)
        rows = expectation_values(exp, ALL_GENERATORS, ts)
        assert rows.shape == (len(ALL_GENERATORS), ts.size)
        for g, row in zip(ALL_GENERATORS, rows):
            assert np.array_equal(row, expectation_values(exp, g, ts))
        at_t = expectation_values(exp, ALL_GENERATORS, 3.0)
        assert np.array_equal(at_t, [expectation_values(exp, g, 3.0) for g in ALL_GENERATORS])

    def test_deterministic_against_chunking(self, fig7):
        # scalar times and a 2-D time array give the bits of the 1-D grid,
        # on a grid that crosses the internal block boundaries
        exp, sc = fig7
        ts = np.linspace(0.0, sc.T2, 2 * _block_rows(len(exp.levels)) + 3)
        rows = expectation_values(exp, _CORRELATION_GENERATORS, ts)
        single = np.array([expectation_values(exp, _CORRELATION_GENERATORS, t) for t in ts])
        assert np.array_equal(single.T, rows)
        gamma0 = [expectation_values(exp, GeneratorId.GAMMA0, t) for t in ts]
        assert np.array_equal(gamma0, rows[0])
        block = expectation_values(exp, _CORRELATION_GENERATORS, np.stack([ts, ts[::-1]]))
        assert block.shape == (len(_CORRELATION_GENERATORS), 2, ts.size)
        assert np.array_equal(block[:, 0], rows) and np.array_equal(block[:, 1], rows[:, ::-1])

    def test_memory_bounded_by_the_block(self):
        # six generators at a = 20 (101 levels) over 20,000 times: whole
        # (T, L) cos and sin tables would take about 50 MB
        exp = expand(CatSpec("S", 20.0, MASSLESS))
        ts = np.linspace(0.0, 300.0, 20000)
        tracemalloc.start()
        try:
            expectation_values(exp, _EXPORTED_GENERATORS, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_grid_memory_bounded_by_the_block(self):
        # the same six series on the grid route: one reused phase block, where
        # a whole (T, L) complex phase table would take about 32 MB
        exp = expand(CatSpec("S", 20.0, MASSLESS))
        tracemalloc.start()
        try:
            _grid_values(exp, _EXPORTED_GENERATORS, 0.0, 300.0, 20000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_grid_deterministic_against_chunking(self, fig7):
        # the grid rows are bit-identical however _grid_rows' exp block is
        # sized (_BLOCK_CELLS reaches only that block, down to one tile of
        # Q strides), also on a grid that crosses the block boundaries
        exp, sc = fig7
        cells = (1, evolution._STRIDE * len(exp.levels) - 1, 2 ** 15, 2 ** 22)
        for samples in (301, 2 * _block_rows(len(exp.levels)) + 3):
            full, dt = _grid_values(exp, _EXPORTED_GENERATORS, 0.0, sc.T2, samples)
            for block_cells in cells:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(evolution, "_BLOCK_CELLS", block_cells)
                    rows, dt_blocked = _grid_values(exp, _EXPORTED_GENERATORS, 0.0, sc.T2, samples)
                assert np.array_equal(rows, full) and dt_blocked == dt

    @pytest.mark.parametrize("params", [MASSLESS, PhysicalParams(M=1.0, kz=0.7)],
                             ids=["massless", "massive"])
    @pytest.mark.parametrize("symmetry", ["S", "A"])
    @pytest.mark.parametrize("a", [0.5, 5.0, 20.0])
    def test_each_generator_alone_has_the_bits_of_the_joint_call(self, a, symmetry, params):
        # a call skips cos or sin when none of its generators needs it, and a
        # generator skips a half whose coefficients are all zero; neither may
        # move a bit, the sign of a zero included (compared as bytes)
        exp = expand(CatSpec(symmetry, a, params))
        ts = np.linspace(0.0, 40.0, _block_rows(len(exp.levels)) + 7)
        joint = expectation_values(exp, ALL_GENERATORS, ts)
        for g, row in zip(ALL_GENERATORS, joint):
            assert expectation_values(exp, g, ts).tobytes() == row.tobytes(), g
            for k in (0, 1, ts.size - 1):  # t = 0 sums exact zeros on the sin half
                assert np.float64(expectation_values(exp, g, ts[k])).tobytes() == row[k].tobytes()

    @pytest.mark.parametrize("params", [MASSLESS, PhysicalParams(M=1.0, kz=0.7)],
                             ids=["massless", "massive"])
    @pytest.mark.parametrize("symmetry", ["S", "A"])
    @pytest.mark.parametrize("a", [0.5, 5.0, 20.0])
    def test_grid_each_generator_alone_has_the_bits_of_the_joint_call(self, a, symmetry,
                                                                      params):
        # on the grid route too, a generator's row does not depend on the
        # generators beside it, nor on which series wrapper asks for it
        exp = expand(CatSpec(symmetry, a, params))
        samples = _block_rows(len(exp.levels)) + 7
        joint, _ = _grid_values(exp, ALL_GENERATORS, 0.0, 40.0, samples)
        for g, row in zip(ALL_GENERATORS, joint):
            assert _grid_values(exp, (g,), 0.0, 40.0, samples)[0].tobytes() == row.tobytes(), g
            series = expectation_series(exp, g, 0.0, 40.0, samples).series
            assert series.values.tobytes() == row.tobytes(), g
        g0, sz, *_ = _grid_values(exp, _CORRELATION_GENERATORS, 0.0, 40.0, samples)[0]
        bundle = correlation_series(exp, 0.0, 40.0, samples)
        assert np.array_equal(bundle["concurrence_sq"].values, 0.5 * (1.0 + g0) * (1.0 - sz))

    def test_series_wrapper(self, fig7):
        exp, _ = fig7
        obs = expectation_series(exp, GeneratorId.GAMMA0, 0.0, 10.0, 11)
        assert obs.generator is GeneratorId.GAMMA0
        assert obs.series.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_frequency_doubling(self, analytic_signal):
        # revival (beat) spectrum of the observable sits at twice the
        # survival line: bins 4 vs 8 over a 4*T1 window
        exp = expand(CatSpec("S", 5.0, MASSLESS))
        sc = time_scales(gaussian_fit(exp).n0, MASSLESS)
        n = 16384
        ts = np.linspace(0.0, 4.0 * sc.T1, n, endpoint=False)
        power = np.abs(survival_amplitude(exp, ts)) ** 2
        surv_bin = int(np.argmax(np.abs(np.fft.rfft(power - power.mean()))[1:])) + 1
        g0 = expectation_values(exp, GeneratorId.GAMMA0, ts)
        envelope = np.abs(analytic_signal(g0 - g0.mean())) ** 2
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


def test_tensor_component_revivals(fig7, analytic_signal):
    # quarter/half/three-quarter/full returns of the beat envelope at
    # t/T2 = 1/8, 1/4, 3/8, 1/2 (doubled frequencies halve the scale)
    exp, sc = fig7
    n = 2 ** 17
    ts = np.linspace(0.0, sc.T2, n)
    z = expectation_values(exp, GeneratorId.GAMMA5_GAMMA_Z, ts)
    envelope = np.abs(analytic_signal(z - z.mean()))
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
    (0.0, math.inf, 11, "grid bounds must be finite"),
    (math.nan, 1.0, 11, "grid bounds must be finite"),
    (-1e308, 1e308, 11, "grid bounds must be finite"),
    (0.0, 5e-324, 3, r"spacing \(t1 - t0\)/\(samples - 1\) = 4.94066e-324/2 rounds to 0"),
    (1.0, 1.0000000000000004, 5, r"spacing 1.11022e-16 is at most 4 ulp of max"),
])
def test_uniform_grid_validation(fig7, name, t0, t1, samples, message):
    with pytest.raises(ValueError, match=message):
        GRID_FUNCTIONS[name](fig7[0], t0, t1, samples)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="long double is not extended")
@pytest.mark.parametrize("a", (5.0, 20.0, 100.0))
@pytest.mark.parametrize("sym", ("S", "A"))
def test_grid_accuracy_against_long_double(sym, a):
    # the observables command's default window [0, T2] at A/B = 2.04, 20,000
    # samples; the reference sums the same float64 coefficients on cos/sin(2 E t)
    # in extended precision at the exact times t0 + k dt.  Each row errs by at
    # most one rounding of the largest phase 2 max E max|t| per unit coefficient
    n0 = gaussian_fit(expand(CatSpec(sym, a, MASSLESS))).n0
    p = PhysicalParams(kz=kz_for_ab_ratio(2.04, n0, 1.0))
    exp = expand(CatSpec(sym, a, p))
    t1 = time_scales(gaussian_fit(exp).n0, p).T2
    rows, dt = _grid_values(exp, _EXPORTED_GENERATORS, 0.0, t1, 20000)
    k = np.linspace(0, 19999, 200).astype(int)
    ld = np.longdouble
    arg = 2.0 * np.multiply.outer(k.astype(ld) * ld(dt), exp.energies.astype(ld))
    cos, sin = np.cos(arg), np.sin(arg)
    direct = expectation_values(exp, _EXPORTED_GENERATORS, k * dt)
    scale = 2.0 * np.abs(exp.energies).max() * t1 * np.finfo(float).eps
    for g, row, near, (stat, cosc, sinc) in zip(_EXPORTED_GENERATORS, rows, direct,
                                                 _coefficients(exp, _EXPORTED_GENERATORS)):
        ref, weight = np.full(k.size, ld(stat)), 0.0
        for basis, coef in ((cos, cosc), (sin, sinc)):
            if coef is not None:
                ref, weight = ref + basis @ coef.astype(ld), weight + np.abs(coef).sum()
        err, near_err = float(np.abs(row[k] - ref).max()), float(np.abs(near - ref).max())
        print(f"{sym} a = {a:g} {g.value}: stride tables {err:.2e}, "
              f"direct {near_err:.2e}, bound {scale * weight:.2e}")
        assert err <= scale * weight
        assert near_err <= scale * weight
