"""Eigensystem: energies, one-particle parameters, spinors, derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_revivals.landau import (LevelIndex, PhysicalParams, _component_table, energy,
                                   energy_derivatives, one_particle_params, spinor)
from dirac_revivals.observables import GeneratorId, matrix_elements


class TestEnergy:
    def test_rest_energy(self):
        assert energy(0, PhysicalParams(M=5.0)) == pytest.approx(5.0, abs=1e-15)

    def test_massless_level_12(self):
        assert energy(12, PhysicalParams()) == pytest.approx(math.sqrt(24.0), rel=1e-15)

    def test_boosted_level_13(self):
        p = PhysicalParams(M=0.0, kz=10.2, eB=1.0)
        assert energy(13, p) == pytest.approx(math.sqrt(130.04), rel=1e-14)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            energy(-1, PhysicalParams())

    def test_strictly_increasing_and_bounded_below(self):
        p = PhysicalParams(M=1.5, kz=0.7, eB=0.8)
        E = energy(np.arange(0, 200), p)
        assert np.all(np.diff(E) > 0.0)
        assert np.all(E >= math.sqrt(p.M ** 2 + p.kz ** 2) - 1e-15)


class TestOneParticleParams:
    def test_zero_kz_gives_zero_A(self):
        for n in (1, 5, 40):
            assert one_particle_params(n, PhysicalParams(M=2.0, kz=0.0)).A == 0.0

    def test_massless_eta_half(self):
        for kz in (0.0, 3.0):
            q = one_particle_params(7, PhysicalParams(M=0.0, kz=kz))
            assert q.eta == pytest.approx(0.5, abs=1e-15)

    @given(n=st.integers(min_value=1, max_value=10000),
           M=st.floats(min_value=0.0, max_value=50.0),
           kz=st.floats(min_value=-30.0, max_value=30.0),
           eB=st.floats(min_value=1e-3, max_value=50.0))
    @settings(max_examples=120, deadline=None)
    def test_constraint_identity(self, n, M, kz, eB):
        q = one_particle_params(n, PhysicalParams(M=M, kz=kz, eB=eB))
        assert abs(q.constraint_residual()) < 1e-12
        assert 0.0 <= abs(q.A) <= 1.0 and 0.0 <= q.B <= 1.0

    def test_monotone_in_n(self):
        p = PhysicalParams(M=1.0, kz=2.0, eB=1.0)
        qs = [one_particle_params(n, p) for n in range(1, 80)]
        A = np.array([q.A for q in qs])
        B = np.array([q.B for q in qs])
        assert np.all(np.diff(A) <= 1e-15)
        assert np.all(np.diff(B) >= -1e-15)


def _overlaps(levels, p):
    """<u_a|u_b> over ds/sqrt(eB) for every (level, label) pair: the quadrature
    element of the identity generator, shape (L, 4, L, 4)."""
    return matrix_elements(GeneratorId.IDENTITY, levels, p)


class TestSpinors:
    def test_unit_norm_all_labels(self):
        p = PhysicalParams(M=1.0, kz=0.5, eB=1.0)
        gram = _overlaps([3], p)[0, :, 0, :]
        assert np.diag(gram) == pytest.approx(np.ones(4), abs=1e-12)

    def test_label_orthogonality_same_level(self):
        p = PhysicalParams(M=1.0, kz=0.5, eB=1.0)
        gram = _overlaps([3], p)[0, :, 0, :]
        assert np.abs(gram[np.triu_indices(4, 1)]).max() < 1e-12

    def test_cross_level_orthogonality(self):
        # every label pair of every n != m pair of levels 1..60
        p = PhysicalParams(M=0.7, kz=1.3, eB=1.2)
        levels = np.arange(1, 61)
        gram = _overlaps(levels, p).transpose(0, 2, 1, 3)  # [n, m, a, b]
        assert np.abs(gram[levels[:, None] != levels[None, :]]).max() < 1e-10

    def test_heavy_mass_limit_components(self):
        p = PhysicalParams(M=1e4, kz=0.0, eB=1.0)
        u = spinor(LevelIndex(1, 1, "+"), 0.0, p)
        # A -> 0 and B -> 0: only the first component survives
        assert abs(u[1]) == 0.0 and abs(u[2]) < 1e-12
        assert abs(u[3]) < 1e-4 * abs(u[0])

    def test_pointwise_matches_tables(self):
        p = PhysicalParams(M=0.3, kz=-0.8, eB=2.0)
        from dirac_revivals.numerics import hermite_fn
        lv = LevelIndex(4, 2, "-")
        coef, offset = _component_table([(lv.r, lv.nu)], lv.n, p)
        u = spinor(lv, 0.9, p)
        for i in range(4):
            order = lv.n - 1 + int(offset[0, i])
            assert u[i] == pytest.approx(coef[0, i] * hermite_fn(order, 0.9, p.scale), abs=1e-14)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            LevelIndex(0, 1, "+")


class TestEnergyDerivatives:
    def test_massless_first_derivative(self):
        d1, _, _ = energy_derivatives(12.0, PhysicalParams())
        assert d1 == pytest.approx(1.0 / math.sqrt(24.0), rel=1e-14)

    def test_concavity(self):
        for p in (PhysicalParams(), PhysicalParams(M=3.0, kz=1.0, eB=0.5)):
            _, d2, _ = energy_derivatives(7.7, p)
            assert d2 < 0.0

    def test_against_finite_differences(self):
        # independent central-difference oracle in extended precision; the
        # third difference needs a wider step (the eps*E/h^3 roundoff floor
        # sits near 1e-3 relative for h = 1e-3 even in 80-bit arithmetic)
        p = PhysicalParams(M=1.3, kz=0.4, eB=0.9)
        n0 = 20.0

        def E(n):
            n = np.longdouble(n)
            return np.sqrt(np.longdouble(p.M) ** 2 + np.longdouble(p.kz) ** 2
                           + 2.0 * n * np.longdouble(p.eB))

        h = np.longdouble(1e-3)
        fd1 = (E(n0 + h) - E(n0 - h)) / (2 * h)
        fd2 = (E(n0 + h) - 2 * E(n0) + E(n0 - h)) / h ** 2
        h3 = np.longdouble(1e-2)
        fd3 = (E(n0 + 2 * h3) - 2 * E(n0 + h3) + 2 * E(n0 - h3) - E(n0 - 2 * h3)) / (2 * h3 ** 3)
        d1, d2, d3 = energy_derivatives(n0, p)
        assert d1 == pytest.approx(float(fd1), rel=1e-6)
        assert d2 == pytest.approx(float(fd2), rel=1e-6)
        assert d3 == pytest.approx(float(fd3), rel=1e-6)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(M=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(eB=0.0)
    with pytest.raises(ValueError):
        LevelIndex(2, 3, "+")
    with pytest.raises(ValueError):
        LevelIndex(2, 1, "x")
