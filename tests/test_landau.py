"""Eigensystem: energies, one-particle parameters, spinors, derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_revivals.catstate import CatSpec, expand
from dirac_revivals.evolution import evolve_profile
from dirac_revivals.landau import (PhysicalParams, _component_table, _params_arrays, energy,
                                   energy_derivatives)
from dirac_revivals.numerics import hermite_table
from dirac_revivals.observables import GeneratorId
from dirac_revivals.oracle import matrix_elements


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
        _, A, _, _ = _params_arrays(np.array([1, 5, 40]), PhysicalParams(M=2.0, kz=0.0))
        assert np.all(A == 0.0)

    def test_massless_eta_half(self):
        for kz in (0.0, 3.0):
            _, _, _, eta = _params_arrays(7, PhysicalParams(M=0.0, kz=kz))
            assert eta == pytest.approx(0.5, abs=1e-15)

    @given(n=st.integers(min_value=1, max_value=10000),
           M=st.floats(min_value=0.0, max_value=50.0),
           kz=st.floats(min_value=-30.0, max_value=30.0),
           eB=st.floats(min_value=1e-3, max_value=50.0))
    @settings(max_examples=120, deadline=None)
    def test_constraint_identity(self, n, M, kz, eB):
        _, A, B, eta = _params_arrays(n, PhysicalParams(M=M, kz=kz, eB=eB))
        assert abs(eta * (A * A + B * B + 1.0) - 1.0) < 1e-12
        assert 0.0 <= abs(A) <= 1.0 and 0.0 <= B <= 1.0

    def test_monotone_in_n(self):
        p = PhysicalParams(M=1.0, kz=2.0, eB=1.0)
        _, A, B, _ = _params_arrays(np.arange(1, 80), p)
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
        u = _component_table(1, p)[0]  # coefficients of u^+_{1,1}
        # A -> 0 and B -> 0: only the first component survives
        assert abs(u[1]) == 0.0 and abs(u[2]) < 1e-12
        assert abs(u[3]) < 1e-4 * abs(u[0])

    def test_pointwise_matches_tables(self):
        # the evolved state is the sum of c e^{-+iEt} u(s) over the populated
        # labels, each spinor u being its table row on its Hermite orders
        p = PhysicalParams(M=0.3, kz=-0.8, eB=2.0)
        exp = expand(CatSpec("A", 2.0, p))
        s, t = 0.9, 1.7
        coef = _component_table(exp.levels, p)[:, [0, 2, 3]]  # (1,+), (2,+), (2,-)
        F = hermite_table(exp.n_max, [s], p.eB)[:, 0]
        u = coef * F[exp.levels[:, None, None] - 1 + np.arange(4) % 2]  # (level, label, component)
        phase = np.exp(-1j * exp.energies * t)
        c = np.stack([exp.c_r1_plus * phase, exp.c_r2_plus * phase.conj(),
                      exp.c_r2_minus * phase.conj()], axis=1)
        got = evolve_profile(exp, [s], t)[:, 0]
        assert np.abs(got - np.einsum("la,lai->i", c, u)).max() < 1e-14

    @given(M=st.floats(0.0, 5.0), kz=st.floats(-3.0, 3.0), eB=st.floats(0.25, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_component_table_layout(self, M, kz, eB):
        # component j of every label sits on F_{n-1+j%2} and the F are orthonormal,
        # so each level's label overlaps are its table rows dotted: an orthogonal
        # 4x4 matrix on every level a cat state in the box keeps (a <= 40)
        u = _component_table(np.arange(1, 1301), PhysicalParams(M=M, kz=kz, eB=eB))
        err = np.abs(np.einsum("lai,lbi->lab", u, u) - np.eye(4)).max()
        assert err <= 8 * np.finfo(float).eps
        # (1,+) has no component 1, so nothing reads the order the rule gives it
        assert np.all(u[:, 0, 1] == 0.0)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError, match="levels must be"):
            matrix_elements(GeneratorId.IDENTITY, [0], PhysicalParams())


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
