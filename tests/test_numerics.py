"""Special-function kernels: values, stability, quadrature, peak finding."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_revivals.evolution import TimeSeries
from dirac_revivals.numerics import find_peaks, hermite_table
from dirac_revivals.oracle import _trapezoid

# frozen from a 40-digit recurrence (mpmath); the suite never re-runs it
F200_AT_3 = -0.17704504501632922724
F10000_AT_141_4 = 0.21916361311660018423
F300_AT_0_7 = -0.019354190050420793067
# around and past the old |s| <= 37 table limit, where the seed exp(-s^2/2) is below exp(-600)
# (mpmath 1.3.0, exp(-s^2/2) H_n(s) / sqrt(2^n n! sqrt(pi)) at 60 digits)
F681_AT_38 = 0.00020432117786681472455
F1009_AT_46 = 0.00011629003630852877709
F50_AT_36_5 = 5.9805642003025626131e-237


class TestHermiteFn:
    """F_n(s) is the last row of the one-column table hermite_table(n, [s])."""

    def test_ground_state_at_origin(self):
        assert hermite_table(0, [0.0])[0, 0] == pytest.approx(math.pi ** -0.25, abs=1e-15)

    def test_odd_function_vanishes_at_origin(self):
        assert hermite_table(1, [0.0])[1, 0] == 0.0

    def test_high_order_against_extended_precision(self):
        assert hermite_table(200, [3.0])[200, 0] == pytest.approx(F200_AT_3, rel=1e-10)
        assert hermite_table(300, [0.7])[300, 0] == pytest.approx(F300_AT_0_7, rel=1e-10)

    def test_beyond_envelope_underflow_region(self):
        # true value is O(1) although exp(-s^2/2) alone underflows doubles
        assert hermite_table(10000, [141.4])[10000, 0] == pytest.approx(F10000_AT_141_4, rel=1e-9)

    def test_far_tail_underflows_to_zero(self):
        assert hermite_table(3, [60.0])[3, 0] == 0.0

    def test_far_columns_read_zero(self):
        # past |s| = 2^30 a column is 0 without its seed, whose s*s overflows
        # past ~1.3e154 and whose int64 exponent past ~3.6e9; the rest keep their bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = hermite_table(20, [4e9, -1e154, 1e300, 2.0 ** 30, 0.5])
        assert np.all(table[:, :4] == 0.0)
        assert np.array_equal(table[:, 4], hermite_table(20, [0.5])[:, 0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            hermite_table(2, [float("nan")])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            hermite_table(-1, [0.0])

    @pytest.mark.parametrize("eB", [0.0, -1.0, math.inf, math.nan])
    def test_bad_field_rejected(self, eB):
        with pytest.raises(ValueError, match="eB must be positive and finite"):
            hermite_table(2, [0.0], eB)

    @given(n=st.integers(min_value=0, max_value=60),
           s=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_parity(self, n, s):
        left = hermite_table(n, [-s])[n, 0]
        right = (-1.0) ** n * hermite_table(n, [s])[n, 0]
        assert left == pytest.approx(right, abs=1e-13)

    def test_scale_covariance(self):
        # eB -> c*eB multiplies the function by c^(1/4) at fixed dimensionless s
        for n in (0, 3, 17):
            for c in (0.25, 2.0, 9.0):
                base = hermite_table(n, [1.3], 1.0)[n, 0]
                scaled = hermite_table(n, [1.3], c)[n, 0]
                assert scaled == pytest.approx(c ** 0.25 * base, rel=1e-13)

    @pytest.mark.parametrize("n, s, ref", [(681, 38.0, F681_AT_38), (1009, 46.0, F1009_AT_46),
                                           (50, 36.5, F50_AT_36_5)])
    def test_table_past_envelope_underflow(self, n, s, ref):
        assert hermite_table(n, np.array([s]))[n, 0] == pytest.approx(ref, rel=1e-10)

    def test_table_exact_parity_to_80(self):
        pos = np.linspace(0.0, 80.0, 1601)
        table = hermite_table(1500, np.concatenate([-pos[:0:-1], pos]))
        sign = np.where(np.arange(1501) % 2 == 0, 1.0, -1.0)[:, None]
        assert np.isfinite(table).all()
        assert np.array_equal(table[:, ::-1], sign * table)

    def test_table_matches_scalar(self):
        # a row of a grid table does not depend on n_max or on the other points
        s = np.linspace(-6.0, 6.0, 11)
        table = hermite_table(25, s)
        for n in (0, 1, 7, 25):
            for j, sv in enumerate(s):
                assert table[n, j] == pytest.approx(hermite_table(n, [sv])[n, 0], abs=1e-14)


def _trapezoid_gram(n_max):
    # the oracle's Gram rule: nodes past the turning point r, a step resolving frequency 2r
    r = math.sqrt(2 * n_max + 1)
    h = math.pi / (2 * r + 12)
    F = hermite_table(n_max, _trapezoid(r + 12, h))
    return h * F @ F.T


def test_orthonormality_up_to_300():
    assert np.abs(_trapezoid_gram(300) - np.eye(301)).max() < 1e-10


def test_orthonormality_up_to_1000():
    assert np.abs(_trapezoid_gram(1000) - np.eye(1001)).max() < 1e-10


@pytest.mark.parametrize("n_max", [7, 40, 200, 1300])
def test_trapezoid_gram_accuracy(n_max):
    # the rule converges geometrically: the Gram matrix is the identity to rounding
    assert np.abs(_trapezoid_gram(n_max) - np.eye(n_max + 1)).max() <= 1e-13


@pytest.mark.parametrize("half_width, h", [(12.0, 0.1), (12.0, math.pi / 129), (63.4, 0.0276)])
def test_trapezoid_nodes_exactly_symmetric(half_width, h):
    x = _trapezoid(half_width, h)
    assert x.size % 2 == 1 and x[x.size // 2] == 0.0 and x[-1] >= half_width
    assert np.array_equal(x, -x[::-1])


def test_trapezoid_orthonormality_on_wide_grid():
    s = np.linspace(-45.0, 45.0, 9001)
    table = hermite_table(400, s)
    gram = (table @ table.T) * (s[1] - s[0])
    assert np.abs(gram - np.eye(401)).max() < 1e-10


class TestFindPeaks:
    def test_constant_below_threshold(self):
        series = TimeSeries(t0=0.0, dt=0.1, values=np.full(100, 0.5))
        assert find_peaks(series, min_height=0.6, min_separation=0.5) == []

    def test_triangular_bump(self):
        t = np.arange(0.0, 4.0 + 1e-12, 0.1)
        values = np.maximum(0.0, 1.0 - np.abs(t - 2.0))
        series = TimeSeries(t0=0.0, dt=0.1, values=values)
        peaks = find_peaks(series, min_height=0.5, min_separation=0.5)
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(2.0, abs=1e-9)
        assert peaks[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_abs_cos_peaks_at_multiples_of_pi(self):
        dt = 0.01
        t = np.arange(0.0, 10.0, dt)
        series = TimeSeries(t0=0.0, dt=dt, values=np.abs(np.cos(t)))
        peaks = find_peaks(series, min_height=0.9, min_separation=1.0)
        got = [p[0] for p in peaks]
        expected = [math.pi, 2 * math.pi, 3 * math.pi]
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert abs(g - e) < 0.01

    def test_min_separation_keeps_highest(self):
        values = np.array([0.0, 1.0, 0.2, 0.9, 0.0, 0.0, 0.8, 0.0])
        series = TimeSeries(t0=0.0, dt=1.0, values=values)
        peaks = find_peaks(series, min_height=0.5, min_separation=3.0)
        assert [round(p[0]) for p in peaks] == [1, 6]

    def test_empty_series_rejected(self):
        series = TimeSeries(t0=0.0, dt=1.0, values=np.array([]))
        with pytest.raises(ValueError):
            find_peaks(series, min_height=0.0, min_separation=1.0)


def _greedy_peaks_reference(series, min_height, min_separation):
    """find_peaks as it stood at commit 23cf542, sorting candidates by numpy scalars."""
    values = np.asarray(series.values)
    n, dt, t0 = values.size, float(series.dt), float(series.t0)
    interior = np.arange(1, n - 1)
    is_max = (values[interior] >= values[interior - 1]) & (values[interior] >= values[interior + 1])
    is_max &= ~((values[interior] == values[interior - 1]) & (values[interior] == values[interior + 1]))
    cand = interior[is_max & (values[interior] >= min_height)]
    kept = []
    for i in sorted(cand, key=lambda i: (-values[i], i)):
        if all(abs(i - j) * dt >= min_separation for j in kept):
            kept.append(i)
    peaks = []
    for i in kept:
        ym, y0, yp = values[i - 1], values[i], values[i + 1]
        denom = ym - 2.0 * y0 + yp
        if denom < 0.0:
            delta = 0.5 * (ym - yp) / denom
            height = y0 - 0.25 * (ym - yp) * delta
        else:
            delta, height = 0.0, y0
        peaks.append((t0 + (i + delta) * dt, float(height)))
    peaks.sort()
    return peaks


@given(levels=st.lists(st.integers(0, 4), min_size=1, max_size=60),
       scale=st.sampled_from([1.0, 0.1, 1.0 / 3.0]), dt=st.sampled_from([1.0, 0.1, 0.37]),
       min_height=st.integers(0, 4), gap=st.integers(0, 61), frac=st.sampled_from([0.0, 0.5]))
@settings(max_examples=300, deadline=None)
def test_find_peaks_matches_the_greedy_reference(levels, scale, dt, min_height, gap, frac):
    # few distinct levels give ties in height, plateaus and equal-height
    # neighbours; separations run over every whole and half multiple of dt
    series = TimeSeries(t0=-1.5, dt=dt, values=np.array(levels) * scale)
    got = find_peaks(series, min_height * scale, (gap + frac) * dt)
    want = _greedy_peaks_reference(series, min_height * scale, (gap + frac) * dt)
    assert [(float(t).hex(), h.hex()) for t, h in got] == \
        [(float(t).hex(), h.hex()) for t, h in want]
