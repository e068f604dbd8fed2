"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL table.
Criterion 4 is split: the a=10 classical-period target carries a strict
xfail, because no mean level satisfies both targets at once -- T1 within
30+-1 requires n0 <= 48.7 while the level distribution of the a=10 state
centers at 49.7 (and the a=5/a=20 targets pin the same period formula).
"""

import math
import time

import numpy as np
import pytest

from dirac_revivals.catstate import CatSpec, expand, gaussian_fit
from dirac_revivals.evolution import (TimeSeries, kz_for_ab_ratio,
                                      survival_amplitude, survival_series,
                                      time_scales)
from dirac_revivals.landau import PhysicalParams, _params_arrays
from dirac_revivals.numerics import find_peaks
from dirac_revivals.observables import (GeneratorId, closed_form_series,
                                        concurrence_sq, expectation_values)
from dirac_revivals.oracle import expand_oracle, matrix_elements

MASSLESS = PhysicalParams()


def report(number: int, name: str, ok: bool, detail: str, t0: float) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE C{number} [{status}] {name}: {detail} ({time.perf_counter() - t0:.1f}s)")
    return ok


def fitted_n0(a: float) -> float:
    return gaussian_fit(expand(CatSpec("S", a, MASSLESS))).n0


def weak_field_setup(ratio: float = 2.04):
    n0 = fitted_n0(5.0)
    kz = kz_for_ab_ratio(ratio, n0, 1.0)
    p = PhysicalParams(M=0.0, kz=kz, eB=1.0)
    return expand(CatSpec("S", 5.0, p)), time_scales(n0, p), n0


def test_criterion_1_constraint_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 10001))
        p = PhysicalParams(M=float(rng.uniform(0.0, 50.0)),
                           kz=float(rng.uniform(-30.0, 30.0)),
                           eB=float(rng.uniform(1e-3, 50.0)))
        _, A, B, eta = _params_arrays(n, p)
        worst = max(worst, abs(eta * (A * A + B * B + 1.0) - 1.0))
    ok = worst < 1e-12
    assert report(1, "constraint identity", ok, f"max residual {worst:.2e} over 1000 draws", t0)


def test_criterion_2_coefficient_oracle_equivalence():
    t0 = time.perf_counter()
    param_sets = (MASSLESS,
                  PhysicalParams(M=1.0, kz=0.3, eB=1.0),
                  PhysicalParams(M=5.0, kz=-1.1, eB=0.7))
    worst = 0.0
    for a in (1.0, 5.0, 10.0):
        for sym in ("S", "A"):
            for p in param_sets:
                spec = CatSpec(sym, a, p)
                exp = expand(spec)
                oracle = expand_oracle(spec, exp.n_max + 2)
                rows = exp.levels - 1  # oracle row n - 1 holds level n
                for c, c_oracle in ((exp.c_r1_plus, oracle.c_r1_plus),
                                    (exp.c_r2_plus, oracle.c_r2_plus),
                                    (exp.c_r2_minus, oracle.c_r2_minus)):
                    worst = max(worst, np.abs(c - c_oracle[rows]).max())
    ok = worst <= 1e-8
    assert report(2, "coefficient oracle equivalence", ok,
                  f"max |dc| {worst:.2e} over a in (1,5,10), S/A, 3 parameter sets", t0)


def test_criterion_3_mean_level_reproduction():
    t0 = time.perf_counter()
    results = {a: fitted_n0(a) for a in (5.0, 10.0, 20.0)}
    checks = [abs(results[5.0] - 12.0) <= 1.0,
              abs(results[10.0] - 50.0) <= 2.0,
              abs(results[20.0] - 200.0) <= 5.0]
    ok = all(checks)
    assert report(3, "mean-level reproduction", ok,
                  "n0 = " + ", ".join(f"{a:g}: {n:.2f}" for a, n in results.items()), t0)


def test_criterion_4_time_scales():
    t0 = time.perf_counter()
    sc5 = time_scales(fitted_n0(5.0), MASSLESS)
    sc20 = time_scales(fitted_n0(20.0), MASSLESS)
    _, sc_w, _ = weak_field_setup()
    checks = {
        "T1(a=5)=15+-1": abs(sc5.T1 - 15.0) <= 1.0,
        "T1(a=20)=63+-2": abs(sc20.T1 - 63.0) <= 2.0,
        "T2(a=5)=3.7e2+-5%": abs(sc5.T2 - 3.7e2) <= 0.05 * 3.7e2,
        "T2(a=20)=2.5e4+-5%": abs(sc20.T2 - 2.5e4) <= 0.05 * 2.5e4,
        "T3(A/B=2.04)=2.7e5+-10%": abs(sc_w.T3 - 2.7e5) <= 0.10 * 2.7e5,
    }
    ok = all(checks.values())
    detail = (f"T1={sc5.T1:.2f}/{sc20.T1:.2f}, T2={sc5.T2:.1f}/{sc20.T2:.0f}, "
              f"T3={sc_w.T3:.3e}; " + "; ".join(k for k, v in checks.items() if not v))
    assert report(4, "time scales (attainable set)", ok, detail, t0)


@pytest.mark.xfail(strict=True,
                   reason="T1(a=10)=30+-1 conflicts with T1 = pi*sqrt(2*n0) at the "
                          "required n0=50+-2 (pi*sqrt(2*49.7) = 31.3); the a=5 and "
                          "a=20 targets pin that same formula")
def test_criterion_4_t1_a10_target():
    t0 = time.perf_counter()
    sc10 = time_scales(fitted_n0(10.0), MASSLESS)
    ok = abs(sc10.T1 - 30.0) <= 1.0
    report(4, "time scales T1(a=10)", ok, f"T1={sc10.T1:.2f} vs 30+-1", t0)
    assert ok


def test_criterion_5_survival_structure():
    t0 = time.perf_counter()
    checks = {}

    cat5 = expand(CatSpec("S", 5.0, MASSLESS))
    checks["|C(0)|=1"] = abs(abs(survival_amplitude(cat5, 0.0)) - 1.0) < 1e-12

    sc = time_scales(fitted_n0(5.0), MASSLESS)
    series = survival_series(cat5, 1e-9, 2.0 * sc.T1, 40001)
    peaks = find_peaks(series, min_height=0.5, min_separation=0.3)
    checks["peak within 5% of T1"] = any(abs(p[0] - sc.T1) <= 0.05 * sc.T1 for p in peaks)

    series = survival_series(cat5, 1e-9, 1.2 * sc.T2, 120001)
    peaks = find_peaks(series, min_height=0.5, min_separation=sc.T2 / 40.0)
    checks["half revival within 5% of T2/2"] = any(
        abs(p[0] - sc.T2 / 2.0) <= 0.05 * (sc.T2 / 2.0) for p in peaks)

    # super-revival packets: envelope of |C| over [0, T3/2]
    exp_w, sc_w, _ = weak_field_setup()
    n = 400000
    series = survival_series(exp_w, 0.0, 0.5 * sc_w.T3, n)
    window = max(1, int(0.004 * sc_w.T3 / series.dt))
    nwin = n // window
    env = series.values[:nwin * window].reshape(nwin, window).max(axis=1)
    env_t = series.times[:nwin * window].reshape(nwin, window).mean(axis=1)
    env_series = TimeSeries(t0=float(env_t[0]), dt=float(env_t[1] - env_t[0]), values=env)
    packets = find_peaks(env_series, min_height=0.55, min_separation=0.03 * sc_w.T3)
    for target in (0.08, 0.16, 0.33):
        near = [p for p in packets if abs(p[0] / sc_w.T3 - target) <= 0.025]
        checks[f"packet near t/T3={target}"] = bool(near) and max(h for _, h in near) >= 0.7

    ok = all(checks.values())
    assert report(5, "survival structure", ok,
                  "; ".join(f"{k}:{'ok' if v else 'MISS'}" for k, v in checks.items()), t0)


def test_criterion_6_charge_conservation():
    t0 = time.perf_counter()
    from dirac_revivals.density import probability_density
    exp_w, sc_w, _ = weak_field_setup()
    s = np.linspace(-11.0, 11.0, 4000)
    worst = 0.0
    for t in (0.0, sc_w.T1 / 3.0, sc_w.T2 / 4.0, sc_w.T2 / 2.0):
        dens = probability_density(exp_w, s, t)
        worst = max(worst, abs(float(np.trapezoid(dens, s)) - 1.0))
    ok = worst < 1e-6
    assert report(6, "charge conservation", ok,
                  f"max |integral - 1| = {worst:.2e} at 4 times incl. T2/4 (ns=4000)", t0)


def test_criterion_7_selection_rules():
    t0 = time.perf_counter()
    p = PhysicalParams(M=1.0, kz=0.7, eB=1.0)
    levels = np.arange(1, 41)
    tables = {g: matrix_elements(g, levels, p) for g in GeneratorId}

    # level pairs n < m, all label pairs: [n, la, m, lb] -> [n, m, la, lb]
    n, m = np.meshgrid(levels, levels, indexing="ij")
    diag_gens = [GeneratorId.IDENTITY, GeneratorId.GAMMA0,
                 GeneratorId.GAMMA5_ALPHA_Z, GeneratorId.GAMMA5_GAMMA_Z]
    worst_diag = max(np.abs(tables[g].transpose(0, 2, 1, 3)[n < m]).max() for g in diag_gens)
    same_parity = (m > n) & ((m - n) % 2 == 0)
    worst_parity = max(np.abs(t.transpose(0, 2, 1, 3)[same_parity]).max()
                       for t in tables.values())

    exp_w, sc_w, _ = weak_field_setup()
    ts = np.linspace(0.0, sc_w.T1, 400)
    worst_perp = max(np.abs(expectation_values(exp_w, g, ts)).max()
                     for g in (GeneratorId.ALPHA_X, GeneratorId.ALPHA_Y))

    ok = worst_diag <= 1e-10 and worst_parity <= 1e-10 and worst_perp <= 1e-10
    assert report(7, "selection rules", ok,
                  f"diagonal-generator n!=m leak {worst_diag:.1e}; same-parity all-generator "
                  f"leak {worst_parity:.1e}; <alpha_x,y> over T1 {worst_perp:.1e}", t0)


def test_criterion_8_closed_form_observables():
    t0 = time.perf_counter()
    exp_w, sc_w, _ = weak_field_setup()
    ts = np.linspace(0.0, sc_w.T2, 2000)
    worst = 0.0
    for g in (GeneratorId.GAMMA5_ALPHA_Z, GeneratorId.I_GAMMA_Z,
              GeneratorId.GAMMA5_GAMMA_Z, GeneratorId.GAMMA0):
        dev = np.abs(expectation_values(exp_w, g, ts) - closed_form_series(exp_w, g, ts)).max()
        worst = max(worst, dev)

    # velocity-component prefactor: the direct engine matches the +4M form
    # and rules out the -2M variant on a massive configuration
    p = PhysicalParams(M=2.0, kz=1.5, eB=1.0)
    exp_m = expand(CatSpec("S", 4.0, p))
    tm = np.linspace(0.0, 50.0, 800)
    direct = expectation_values(exp_m, GeneratorId.ALPHA_Z, tm)
    plus4m = closed_form_series(exp_m, GeneratorId.ALPHA_Z, tm)
    dev_az = np.abs(direct - plus4m).max()
    dev_neg = np.abs(direct - (-0.5 * plus4m)).max()  # the -2M variant
    resolved = dev_az < 1e-8 and dev_neg > 1e-3

    ok = worst < 1e-8 and resolved
    assert report(8, "closed-form observable regression", ok,
                  f"max dev {worst:.2e} over [0,T2] x 2000; alpha_z prefactor +4M "
                  f"(dev {dev_az:.1e}; -2M variant off by {dev_neg:.1e})", t0)


def test_criterion_9_correlation_dynamics(analytic_signal):
    t0 = time.perf_counter()
    checks = {}
    exp_w, sc_w, _ = weak_field_setup()

    checks["concurrence^2(0)=0"] = abs(concurrence_sq(exp_w, 0.0)) < 1e-12

    # tensor-component revivals at t/T2 = 1/8, 1/4, 3/8, 1/2 within 2% of T2
    n = 2 ** 17
    ts = np.linspace(0.0, sc_w.T2, n)
    z = expectation_values(exp_w, GeneratorId.GAMMA5_GAMMA_Z, ts)
    envelope = np.abs(analytic_signal(z - z.mean()))
    env_series = TimeSeries(t0=0.0, dt=float(ts[1] - ts[0]), values=envelope)
    peaks = find_peaks(env_series, min_height=0.4 * envelope.max(),
                       min_separation=0.03 * sc_w.T2)
    for target in (0.125, 0.25, 0.375, 0.5):
        dist = min(abs(p[0] / sc_w.T2 - target) for p in peaks) if peaks else 1.0
        checks[f"revival at t/T2={target}"] = dist <= 0.02

    # frequency doubling: beat line of the observable at twice the survival line
    cat5 = expand(CatSpec("S", 5.0, MASSLESS))
    sc5 = time_scales(fitted_n0(5.0), MASSLESS)
    nfft = 16384
    tf = np.linspace(0.0, 4.0 * sc5.T1, nfft, endpoint=False)
    power = np.abs(survival_amplitude(cat5, tf)) ** 2
    surv_bin = int(np.argmax(np.abs(np.fft.rfft(power - power.mean()))[1:])) + 1
    g0 = expectation_values(cat5, GeneratorId.GAMMA0, tf)
    env2 = np.abs(analytic_signal(g0 - g0.mean())) ** 2
    obs_bin = int(np.argmax(np.abs(np.fft.rfft(env2 - env2.mean()))[1:])) + 1
    checks["frequency doubling"] = abs(obs_bin - 2 * surv_bin) <= 1

    ok = all(checks.values())
    assert report(9, "correlation dynamics", ok,
                  "; ".join(f"{k}:{'ok' if v else 'MISS'}" for k, v in checks.items())
                  + f"; bins {surv_bin}->{obs_bin}", t0)
