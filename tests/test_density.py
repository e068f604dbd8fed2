"""Probability density: direct evolution vs closed double sum, grids."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_revivals import evolution
from dirac_revivals.catstate import CatSpec, expand, gaussian_fit, initial_profile
from dirac_revivals.density import density_closed_form, density_grid, probability_density
from dirac_revivals.evolution import TimeSeries, kz_for_ab_ratio, time_scales
from dirac_revivals.landau import PhysicalParams
from dirac_revivals.numerics import find_peaks

MASSLESS = PhysicalParams()


@pytest.fixture(scope="module")
def fig6():
    """Weak-field configuration: massless, a=5, A/B = 2.04 at the fitted level."""
    n0 = gaussian_fit(expand(CatSpec("S", 5.0, MASSLESS))).n0
    kz = kz_for_ab_ratio(2.04, n0, 1.0)
    p = PhysicalParams(M=0.0, kz=kz, eB=1.0)
    exp = expand(CatSpec("S", 5.0, p))
    return exp, time_scales(n0, p)


@given(sym=st.sampled_from("SA"), a=st.floats(0.5, 40.0), M=st.floats(0.0, 5.0),
       kz=st.floats(-3.0, 3.0), eB=st.floats(0.25, 4.0), t1=st.floats(0.1, 50.0))
@settings(max_examples=30, deadline=None)
def test_grid_rows_match_closed_form_over_the_domain(sym, a, M, kz, eB, t1):
    # on the default window +-(a + 6) each row's maximum sits on the humps, so
    # 1e-12 of it bounds the kernel's rounding; on a narrow window off the humps
    # the closed form's truncation tail would set the row maximum instead
    exp = expand(CatSpec(sym, a, PhysicalParams(M=M, kz=kz, eB=eB)))
    grid = density_grid(exp, -(a + 6.0), a + 6.0, 201, 0.0, t1, 3)
    for t, row in zip(grid.t, grid.values):
        ref = density_closed_form(exp, grid.s, float(t))
        assert np.abs(row - ref).max() <= 1e-12 * np.abs(row).max()


class TestPointwise:
    def test_two_humps_at_t0(self):
        spec = CatSpec("S", 5.0, MASSLESS)
        exp = expand(spec, tail_eps=1e-15)
        for s in (5.0, -5.0):
            expected = initial_profile(spec, s, normalized=True) ** 2
            assert probability_density(exp, s, 0.0) == pytest.approx(expected, abs=1e-8)
        # humps dominate the origin by e^{a^2}-ish contrast
        assert probability_density(exp, 0.0, 0.0) < 1e-6 * probability_density(exp, 5.0, 0.0)

    def test_nonnegative(self, fig6):
        exp, sc = fig6
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = rng.uniform(-11, 11)
            t = rng.uniform(0.0, sc.T2)
            assert probability_density(exp, s, t) >= -1e-12

    @pytest.mark.parametrize("sym", ("S", "A"))
    def test_spatial_parity(self, sym):
        exp = expand(CatSpec(sym, 4.0, PhysicalParams(M=1.0, kz=0.6)))
        s = np.linspace(0.1, 9.0, 40)
        for t in (0.0, 3.3, 21.0):
            left = probability_density(exp, -s, t)
            right = probability_density(exp, s, t)
            assert np.abs(left - right).max() < 1e-12

    def test_charge_conservation(self, fig6):
        exp, sc = fig6
        s = np.linspace(-11.0, 11.0, 4000)
        for t in (0.0, sc.T1 / 3.0, sc.T2 / 4.0, sc.T2 / 2.0):
            dens = probability_density(exp, s, t)
            assert np.trapezoid(dens, s) == pytest.approx(1.0, abs=1e-6)

    def test_scaled_field_normalization(self):
        # physical measure ds/sqrt(eB): integrals stay 1 for eB != 1
        p = PhysicalParams(M=0.5, kz=0.2, eB=4.0)
        exp = expand(CatSpec("S", 3.0, p))
        s = np.linspace(-9.0, 9.0, 4000)
        dens = probability_density(exp, s, 2.7)
        assert np.trapezoid(dens, s) / math.sqrt(p.eB) == pytest.approx(1.0, abs=1e-8)


class TestClosedForm:
    def test_matches_direct_at_random_points(self):
        exp = expand(CatSpec("S", 5.0, PhysicalParams(M=1.0, kz=0.0, eB=1.0)))
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = rng.uniform(-8.0, 8.0)
            t = rng.uniform(0.0, 400.0)
            direct = probability_density(exp, s, t)
            closed = density_closed_form(exp, s, t)
            assert abs(closed - direct) < 1e-8

    def test_antisymmetric_state_too(self):
        exp = expand(CatSpec("A", 4.0, PhysicalParams(M=0.5, kz=1.0)))
        rng = np.random.default_rng(1)
        for _ in range(40):
            s = rng.uniform(-8.0, 8.0)
            t = rng.uniform(0.0, 200.0)
            assert density_closed_form(exp, s, t) == pytest.approx(
                probability_density(exp, s, t), abs=1e-10)

    def test_t0_reduces_to_two_gaussians(self):
        spec = CatSpec("S", 5.0, MASSLESS)
        exp = expand(spec, tail_eps=1e-15)
        s = np.linspace(-9.0, 9.0, 301)
        target = initial_profile(spec, s, normalized=True) ** 2
        assert np.abs(density_closed_form(exp, s, 0.0) - target).max() < 1e-8

    def test_massless_interference_term_active(self):
        # with B*eta = 1/2 the double-sum interference drives visible
        # sub-period structure: density at the origin is time dependent
        exp = expand(CatSpec("S", 5.0, MASSLESS))
        ts = np.linspace(0.0, 10.0, 400)
        vals = np.array([density_closed_form(exp, 0.0, t) for t in ts])
        assert np.ptp(vals) > 1e-3


class TestGrid:
    def test_row_normalization_and_bounds(self, fig6):
        exp, sc = fig6
        grid = density_grid(exp, -11.0, 11.0, 2001, 0.0, 2.0 * sc.T1, 9)
        assert grid.values.min() >= -1e-12
        assert np.abs(grid.row_integrals() - 1.0).max() < 1e-6

    def test_swap_period(self, fig6):
        # hump positions collapse to the origin and reform each T1
        exp, sc = fig6
        grid = density_grid(exp, -11.0, 11.0, 1201, 0.0, 3.0 * sc.T1, 901)
        pos = np.abs(grid.s[np.argmax(grid.values, axis=1)])
        series = TimeSeries(t0=0.0, dt=grid.t[1] - grid.t[0], values=pos)
        peaks = find_peaks(series, min_height=3.0, min_separation=sc.T1 / 2.0)
        spacing = np.diff([p[0] for p in peaks])
        assert spacing.size >= 2
        assert abs(float(np.mean(spacing)) - 35.0) <= 2.0

    def test_quarter_revival_alternation(self, fig6):
        # near t = T2/4 the maxima alternate with half the swap period
        exp, sc = fig6
        t0 = sc.T2 / 4.0 - 1.6 * sc.T1
        grid = density_grid(exp, -11.0, 11.0, 1201, t0, t0 + 3.2 * sc.T1, 961)
        pos = np.abs(grid.s[np.argmax(grid.values, axis=1)])
        series = TimeSeries(t0=t0, dt=grid.t[1] - grid.t[0], values=pos)
        peaks = find_peaks(series, min_height=2.5, min_separation=sc.T1 / 4.0)
        spacing = np.diff([p[0] for p in peaks])
        assert spacing.size >= 3
        assert float(np.median(spacing)) == pytest.approx(sc.T1 / 2.0, rel=0.15)

    def test_one_hermite_table_per_grid(self, fig6, monkeypatch):
        exp, sc = fig6
        calls = []
        table = evolution.hermite_table

        def counted(n_max, s, eB=1.0):
            calls.append(n_max)
            return table(n_max, s, eB)

        monkeypatch.setattr(evolution, "hermite_table", counted)
        grid = density_grid(exp, -11.0, 11.0, 301, 0.0, sc.T1, 7)
        assert len(calls) == 1
        monkeypatch.undo()
        for row, t in zip(grid.values, grid.t):
            assert np.array_equal(row, probability_density(exp, grid.s, float(t)))

    def test_grid_validation(self, fig6):
        exp, _ = fig6
        with pytest.raises(ValueError):
            density_grid(exp, -1.0, 1.0, 1, 0.0, 1.0, 4)
        with pytest.raises(ValueError):
            density_grid(exp, 1.0, -1.0, 10, 0.0, 1.0, 4)
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            density_grid(exp, -1.0, math.inf, 10, 0.0, 1.0, 4)
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            density_grid(exp, -1.0, 1.0, 10, 0.0, math.inf, 4)
        # 5e-324 / 2 rounds to 0: the three rows would share or mislabel their times
        with pytest.raises(ValueError, match=r"spacing .* = 4.94066e-324/2 rounds to 0"):
            density_grid(exp, -1.0, 1.0, 10, 0.0, 5e-324, 3)
        # dt = 1.1e-16 is half an ulp of t = 1: two rows would carry the label t = 1
        with pytest.raises(ValueError, match=r"spacing 1.11022e-16 is at most 4 ulp"):
            density_grid(exp, -1.0, 1.0, 10, 1.0, 1.0000000000000004, 5)
