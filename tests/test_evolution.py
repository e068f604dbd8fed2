"""Time evolution: survival amplitude, revival structure, time scales."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_revivals import evolution
from dirac_revivals.cli import _EXPORTED_GENERATORS
from dirac_revivals.catstate import A_MAX, CatSpec, expand, gaussian_fit, initial_profile
from dirac_revivals.density import probability_density
from dirac_revivals.evolution import (TimeSeries, _block_rows, autocorrelation_series,
                                      evolve_profile, kz_for_ab_ratio,
                                      survival_amplitude, survival_series, time_scales)
from dirac_revivals.landau import PhysicalParams, _params_arrays
from dirac_revivals.numerics import find_peaks
from dirac_revivals.observables import (GeneratorId, _grid_values, expectation_series,
                                        expectation_values)

MASSLESS = PhysicalParams(M=0.0, kz=0.0, eB=1.0)


def _phase_rounding(exp, t0, t1):
    """max|E| * max(|t0|, |t1|) * eps: the rounding of the phase argument E t."""
    return np.abs(exp.energies).max() * max(abs(t0), abs(t1)) * np.finfo(float).eps


@pytest.fixture(scope="module")
def cat5():
    return expand(CatSpec("S", 5.0, MASSLESS))


@pytest.fixture(scope="module")
def scales5(cat5):
    return time_scales(gaussian_fit(cat5).n0, MASSLESS)


class TestTimeScales:
    def test_ordering(self, scales5):
        assert scales5.T1 < scales5.T2 < scales5.T3

    def test_fig_values_massless_a5(self, scales5):
        assert abs(scales5.T1 - 15.0) <= 1.0
        assert abs(scales5.T2 - 3.7e2) <= 0.05 * 3.7e2

    def test_infinite_scale_instead_of_error(self):
        # an eB -> 0+ limit drives every derivative to zero smoothly; emulate
        # the degenerate case directly through a zero derivative
        from dirac_revivals.evolution import TimeScales
        sc = time_scales(1e12, PhysicalParams(M=1.0, eB=1e-300))
        assert isinstance(sc, TimeScales)
        assert sc.T2 == math.inf or sc.T2 > 1e100

    def test_kz_solver(self):
        n0 = 12.25
        kz = kz_for_ab_ratio(2.04, n0, 1.0)
        _, A, B, _ = _params_arrays(n0, PhysicalParams(M=0.0, kz=kz, eB=1.0))
        assert A / B == pytest.approx(2.04, rel=1e-12)
        # mass independence of the ratio
        _, A, B, _ = _params_arrays(n0, PhysicalParams(M=3.0, kz=kz, eB=1.0))
        assert A / B == pytest.approx(2.04, rel=1e-12)


class TestSurvivalAmplitude:
    def test_unity_at_zero(self, cat5):
        assert abs(survival_amplitude(cat5, 0.0) - 1.0) < 1e-12

    def test_bounded_by_one(self, cat5):
        ts = np.linspace(0.0, 500.0, 20001)
        assert np.abs(survival_amplitude(cat5, ts)).max() <= 1.0 + 1e-12

    @given(sym=st.sampled_from(["S", "A"]), a=st.floats(1.0, 40.0), M=st.floats(0.0, 5.0),
           kz=st.floats(-1.0, 1.0), eB=st.floats(0.25, 4.0),
           ts=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_bounded_over_declared_box(self, sym, a, M, kz, eB, ts):
        # the weights sum to 1 only to rounding and |C| is not renormalized
        exp = expand(CatSpec(sym, a, PhysicalParams(M=M, kz=kz, eB=eB)))
        c = np.abs(survival_amplitude(exp, np.array([0.0] + ts)))
        assert c.max() <= 1.0 + 4.0 * np.finfo(float).eps

    def test_time_reversal_symmetry(self, cat5):
        ts = np.linspace(0.1, 60.0, 500)
        fwd = np.abs(survival_amplitude(cat5, ts))
        bwd = np.abs(survival_amplitude(cat5, -ts))
        assert np.abs(fwd - bwd).max() < 1e-13

    def test_near_stationary_state_oscillation_band(self):
        # a = 0 leaves a single level with branch weights eta_1 and 1-eta_1,
        # so |C| swings exactly between 2*eta_1-1 and 1
        p = PhysicalParams(M=5.0)
        exp = expand(CatSpec("S", 0.0, p))
        _, _, _, eta1 = _params_arrays(1, p)
        ts = np.linspace(0.0, 50.0, 40001)
        mag = np.abs(survival_amplitude(exp, ts))
        assert mag.max() <= 1.0 + 1e-12
        assert mag.min() == pytest.approx(2.0 * eta1 - 1.0, abs=1e-6)

    def test_heavy_mass_point_state_is_almost_stationary(self):
        exp = expand(CatSpec("S", 0.0, PhysicalParams(M=500.0)))
        ts = np.linspace(0.0, 100.0, 20001)
        assert np.abs(survival_amplitude(exp, ts)).min() > 1.0 - 1e-5

    def test_revival_peak_near_T1(self, cat5, scales5):
        T1 = scales5.T1
        series = survival_series(cat5, 1e-9, 2.0 * T1, 40001)
        peaks = find_peaks(series, min_height=0.5, min_separation=0.3)
        nearest = min(peaks, key=lambda p: abs(p[0] - T1))
        assert abs(nearest[0] - T1) <= 0.05 * T1
        # outside the initial interference transient the revival packet wins;
        # its highest crest also sits within 5% of T1
        late = [p for p in peaks if p[0] > T1 / 3.0]
        top = max(late, key=lambda p: p[1])
        assert abs(top[0] - T1) <= 0.05 * T1

    def test_half_revival_peak(self, cat5, scales5):
        T2 = scales5.T2
        series = survival_series(cat5, 1e-9, 1.2 * T2, 120001)
        peaks = find_peaks(series, min_height=0.5, min_separation=T2 / 40.0)
        assert any(abs(p[0] - T2 / 2.0) <= 0.05 * (T2 / 2.0) for p in peaks)


class TestSurvivalSeries:
    def test_shape_and_grid(self, cat5):
        series = survival_series(cat5, 0.0, 10.0, 101)
        assert series.dt == pytest.approx(0.1)
        assert len(series.values) == 101
        assert series.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_against_chunking(self, cat5):
        # the grid series is bit-identical however _grid_rows' exp block is
        # sized (_BLOCK_CELLS reaches only that block, down to one tile of
        # Q strides), also on a grid that crosses the block boundaries
        cells = (1, evolution._STRIDE * len(cat5.levels) - 1, 2 ** 15, 2 ** 22)
        for samples in (301, 2 * _block_rows(len(cat5.levels)) + 1):
            ts = np.linspace(0.0, 30.0, samples)
            full = survival_series(cat5, 0.0, 30.0, samples)
            for block_cells in cells:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(evolution, "_BLOCK_CELLS", block_cells)
                    assert np.array_equal(survival_series(cat5, 0.0, 30.0, samples).values,
                                          full.values)
            # the direct route at the series' times differs by the rounding of E t
            direct = np.abs(survival_amplitude(cat5, full.times))
            assert np.abs(full.values - direct).max() <= _phase_rounding(cat5, 0.0, 30.0)
            # the direct route: a scalar t gives the bits of its array element
            single = np.array([abs(survival_amplitude(cat5, t)) for t in ts])
            assert np.array_equal(np.abs(survival_amplitude(cat5, ts)), single)
        # any array shape: each row of a 2-D time array gives the same bits
        row = survival_amplitude(cat5, ts)
        block = survival_amplitude(cat5, np.stack([ts, ts]))
        assert block.shape == (2, samples)
        assert np.array_equal(block[0], row) and np.array_equal(block[1], row)

    def test_memory_bounded_by_the_block(self):
        # a = 20 (101 levels) over 120,001 times: the whole (T, L) phase
        # matrix and its temporaries would take about 850 MB
        exp = expand(CatSpec("S", 20.0, MASSLESS))
        ts = np.linspace(0.0, 2000.0, 120001)
        tracemalloc.start()
        try:
            survival_amplitude(exp, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_series_memory_bounded_by_the_block(self):
        # the stride tables are (S, L) and one block of P rows; nothing
        # grows with the time axis beyond the output itself
        exp = expand(CatSpec("S", 20.0, MASSLESS))
        tracemalloc.start()
        try:
            survival_series(exp, 0.0, 2000.0, 120001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("samples, bound_mib", [(4001, 1.2), (101, 0.55)])
    def test_series_memory_of_one_scan_step(self, samples, bound_mib):
        # the (S, L) stride tables R and b, and one exp block P of `step`
        # strides (a multiple of the Q strides per tile product) with its
        # tiles: 0.62 MiB in all at a = 20; a 101-sample grid, two strides,
        # still takes one whole tile of Q strides (0.40 MiB)
        exp = expand(CatSpec("S", 20.0, MASSLESS))
        tracemalloc.start()
        try:
            survival_series(exp, 0.0, 2000.0, samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20

    @given(sym=st.sampled_from(["S", "A"]),
           a=st.floats(0.0, A_MAX, exclude_min=True), M=st.floats(0.0, 5.0),
           kz=st.floats(-1.0, 1.0), t1=st.floats(1e-3, 1e4),
           samples=st.integers(2, 3000), block_cells=st.integers(1, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_grid_invariants_over_declared_box(self, sym, a, M, kz, t1, samples, block_cells):
        exp = expand(CatSpec(sym, a, PhysicalParams(M=M, kz=kz)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolution, "_BLOCK_CELLS", block_cells)
            values = survival_series(exp, 0.0, t1, samples).values
        # k = 0 at t0 = 0 has the phase 1 exactly: C(0) is the weight sum of
        # Re C's coefficients w+ + w- >= 0, in the tile product's order, so it
        # meets the exact sum within the rounding bound of any summation order
        weights = exp.weight_positive + exp.weight_negative
        c0 = autocorrelation_series(exp, 0.0, t1, samples).values[0]
        assert c0.imag == 0.0 and values[0] == abs(c0.real)
        exact = math.fsum(weights)
        assert abs(c0.real - exact) <= (weights.size - 1) * np.finfo(float).eps * exact
        assert values.max() <= 1.0 + 4.0 * np.finfo(float).eps
        assert np.array_equal(values, survival_series(exp, 0.0, t1, samples).values)

    @pytest.mark.parametrize("a", [5.0, 20.0, 100.0])
    def test_tile_rows_shared_across_grid_lengths(self, a):
        # grids of one spacing dt = 2^-6 from t0 = 0 share their first samples;
        # their lengths give other tile counts and another zero padding of the
        # last tile, and the shared samples keep their bits.  Every product of
        # a call has one shape, and stays within the one-thread budget
        exp = expand(CatSpec("S", a, PhysicalParams(M=1.0, kz=0.7)))
        shapes, matmul = [], np.matmul

        def spy(x, y, **kwargs):
            shapes.append((x.shape, y.shape))
            return matmul(x, y, **kwargs)

        rows = {}
        for samples in (65, 1000, 4001, 20000):
            t1 = (samples - 1) * 2.0 ** -6
            for name, call in (
                    ("survival", lambda: autocorrelation_series(exp, 0.0, t1, samples).values),
                    ("observables", lambda: _grid_values(exp, _EXPORTED_GENERATORS, 0.0, t1,
                                                         samples)[0])):
                shapes.clear()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(np, "matmul", spy)
                    rows[name, samples] = call()
                assert len(set(shapes)) == 1, name
                (Q, K), (_, N) = shapes[0]
                assert Q >= 2 and Q * K * N <= max(evolution._PRODUCT_MACS, 2 * K * N), name
        for samples in (65, 1000, 4001):
            assert np.array_equal(rows["survival", samples], rows["survival", 20000][:samples])
            assert np.array_equal(rows["observables", samples],
                                  rows["observables", 20000][:, :samples])

    def test_complex_series_matches_magnitude(self, cat5):
        za = autocorrelation_series(cat5, 0.0, 10.0, 101)
        ab = survival_series(cat5, 0.0, 10.0, 101)
        assert np.abs(np.abs(za.values) - ab.values).max() == 0.0

    def test_argument_validation(self, cat5):
        with pytest.raises(ValueError):
            survival_series(cat5, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            survival_series(cat5, 1.0, 0.5, 10)


def test_weak_field_fractional_revival_periods():
    # quarter- and half-revival packets carry local periods T1/2 and T1
    n0 = gaussian_fit(expand(CatSpec("S", 5.0, MASSLESS))).n0
    kz = kz_for_ab_ratio(2.04, n0, 1.0)
    p = PhysicalParams(M=0.0, kz=kz, eB=1.0)
    exp = expand(CatSpec("S", 5.0, p))
    sc = time_scales(n0, p)
    for frac, period in ((0.25, sc.T1 / 2.0), (0.5, sc.T1)):
        t0 = frac * sc.T2 - 3.2 * period
        series = survival_series(exp, t0, frac * sc.T2 + 3.2 * period, 8001)
        peaks = find_peaks(series, min_height=np.percentile(series.values, 85),
                           min_separation=0.55 * period)
        spacings = np.diff([pk[0] for pk in peaks])
        spacings = spacings[spacings < 1.8 * period]
        assert spacings.size >= 3
        assert np.median(spacings) == pytest.approx(period, rel=0.2)


class TestEvolveState:
    def test_initial_profile_pointwise(self):
        # tight truncation: the pointwise error scales like sqrt(tail_eps)
        spec = CatSpec("S", 5.0, MASSLESS)
        exp = expand(spec, tail_eps=1e-15)
        s = np.linspace(-10.0, 10.0, 501)
        comps = evolve_profile(exp, s, 0.0)
        target = initial_profile(spec, s, normalized=True)
        assert np.abs(comps[0] - target).max() < 1e-8
        assert max(np.abs(comps[j]).max() for j in (1, 2, 3)) < 1e-14

    def test_origin_value(self):
        spec = CatSpec("S", 5.0, MASSLESS)
        exp = expand(spec, tail_eps=1e-15)
        psi = evolve_profile(exp, [0.0], 0.0)[:, 0]
        expected = math.pi ** -0.25 * math.exp(-12.5) / math.sqrt(0.5 * (1 + math.exp(-25.0)))
        # absolute pointwise tolerance: truncation leaves sqrt(tail_eps)-scale dust
        assert psi[0].real == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("t", (0.0, 7.3, 15.549, 95.2))
    def test_unitarity(self, cat5, t):
        s = np.linspace(-11.0, 11.0, 4001)
        comps = evolve_profile(cat5, s, t)
        dens = np.einsum("cs,cs->s", comps.conj(), comps).real
        assert np.trapezoid(dens, s) == pytest.approx(1.0, abs=1e-8)

    def test_overlap_equals_survival_amplitude(self, cat5):
        s = np.linspace(-12.0, 12.0, 6001)
        psi0 = evolve_profile(cat5, s, 0.0)
        for t in (0.9, 7.7, 33.3):
            psit = evolve_profile(cat5, s, t)
            overlap = np.trapezoid(np.einsum("cs,cs->s", psi0.conj(), psit), s)
            assert abs(overlap - survival_amplitude(cat5, t)) < 1e-8


@pytest.mark.parametrize("route", [
    lambda exp: survival_amplitude(exp, 1e308),
    lambda exp: evolve_profile(exp, [0.0], 1e308),
    lambda exp: probability_density(exp, 0.0, 1e308),
    lambda exp: expectation_values(exp, GeneratorId.GAMMA0, [0.0, -1e308]),
], ids=["survival_amplitude", "evolve_profile", "probability_density", "expectation_values"])
def test_direct_routes_refuse_an_overflowing_window(cat5, route):
    # the phase 2 max E_n |t| overflows: refused by name before any kernel
    # runs, not through an overflow warning or a nan
    with pytest.raises(ValueError, match="leaves the double range"):
        route(cat5)


@pytest.mark.parametrize("series", [
    lambda exp: survival_series(exp, 0.0, 1e306, 2).values,
    lambda exp: expectation_series(exp, GeneratorId.GAMMA0, 0.0, 1e306, 2).series.values,
], ids=["survival", "observables"])
def test_stride_table_sized_to_a_short_grid(cat5, series):
    # two samples need R = exp(-i E r dt) at r = 0 and 1 only: a table over all
    # S = 64 offsets would overflow E r dt although the window is accepted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = series(cat5)
    assert values.shape == (2,) and np.isfinite(values).all()


def test_short_grid_has_the_bits_of_a_long_grids_head(cat5):
    # a grid shorter than one stride keeps the phases P[0] R[r] of a longer
    # grid with the same t0 and dt (dt = 0.25 exactly on both)
    short = autocorrelation_series(cat5, 0.0, 1.0, 5).values
    assert np.array_equal(short, autocorrelation_series(cat5, 0.0, 49.75, 200).values[:5])


def test_spectrum_line_at_inverse_T1(cat5, scales5):
    # |C|^2 over [0, 4 T1]: dominant nonzero line sits at 1/T1, i.e. bin 4
    T1 = scales5.T1
    n = 8192
    ts = np.linspace(0.0, 4.0 * T1, n, endpoint=False)
    power = np.abs(survival_amplitude(cat5, ts)) ** 2
    spec = np.abs(np.fft.rfft(power - power.mean()))
    assert int(np.argmax(spec[1:])) + 1 == 4


def test_mass_dominated_recurrence():
    # almost-periodic recurrence probe: a window of 10 T2 contains a return
    p = PhysicalParams(M=5.0)
    exp = expand(CatSpec("S", 5.0, p))
    n0 = gaussian_fit(exp).n0
    sc = time_scales(n0, p)
    series = survival_series(exp, sc.T2, 11.0 * sc.T2, 400001)
    assert series.values.max() > 0.8


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="long double is not extended")
@pytest.mark.parametrize("a", (5.0, 20.0, 100.0))
@pytest.mark.parametrize("sym", ("S", "A"))
def test_series_accuracy_against_long_double(sym, a):
    # the survival command's default window [0, 2 T1], at 120,001 samples;
    # the reference sums the same float64 weights and energies at the exact
    # times t0 + k dt in extended precision
    exp = expand(CatSpec(sym, a, MASSLESS))
    t1 = 2.0 * time_scales(gaussian_fit(exp).n0, MASSLESS).T1
    series = survival_series(exp, 0.0, t1, 120001)
    k = np.linspace(0, 120000, 200).astype(int)
    ld = np.longdouble
    arg = np.multiply.outer(k.astype(ld) * ld(series.dt), exp.energies.astype(ld))
    w_pos, w_neg = exp.weight_positive.astype(ld), exp.weight_negative.astype(ld)
    w_sum, w_diff = w_pos + w_neg, w_neg - w_pos
    ref = np.hypot((np.cos(arg) * w_sum).sum(axis=1), (np.sin(arg) * w_diff).sum(axis=1))
    err = float(np.abs(series.values[k] - ref).max())
    direct = float(np.abs(np.abs(survival_amplitude(exp, series.times[k])) - ref).max())
    bound = _phase_rounding(exp, 0.0, t1)
    print(f"{sym} a = {a:g}: stride tables {err:.2e}, direct {direct:.2e}, bound {bound:.2e}")
    assert err <= bound
    assert direct <= bound
