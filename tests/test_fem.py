import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from drillstab.bitrock import BitRockModel
from drillstab.dynamics import OperatingPoint
from drillstab.errors import DomainError, NumericError
from drillstab.fem import (DrillStringGeometry, assemble, eigenvalues_general,
                           element_matrices, jacobian_fem, modal_properties,
                           polar_moment, state_matrix)
from drillstab.reference import W_REF_KN


def quoted_close(computed, quoted, rel=0.02, decimals=2):
    """Tolerance for values published at fixed decimal precision: the
    larger of a relative band and one unit in the last printed decimal."""
    return abs(computed - quoted) <= max(rel * abs(quoted), 10.0 ** -decimals)


TWO_DOF_OMEGAS = (0.85, 15.60)
TWO_DOF_XIS = (0.30, 0.06)
TEN_DOF_OMEGAS = (0.83, 2.66, 4.76, 7.11, 9.73, 12.62, 15.63, 18.23, 22.75, 45.00)
TEN_DOF_XIS_B0060 = (0.30, 0.10, 0.07, 0.06, 0.05, 0.06, 0.06, 0.07, 0.08, 0.14)
TEN_DOF_XIS_B0021 = (0.30, 0.10, 0.06, 0.04, 0.03, 0.03, 0.03, 0.03, 0.03, 0.05)


class TestElementMatrices:
    def test_mass_template_scaling(self):
        # rho * J * l = 6
        m, _ = element_matrices(j=1.0, l_el=3.0, density=2.0, shear_modulus=1.0)
        assert np.array_equal(m, np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_stiffness_template_and_rigid_rotation(self):
        # G * J / l = 1
        _, k = element_matrices(j=1.0, l_el=3.0, density=1.0, shear_modulus=3.0)
        assert np.array_equal(k, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(k @ np.ones(2), 0.0)

    def test_drill_pipe_polar_moment(self, geometry):
        oracle = math.pi / 32 * (0.140 ** 4 - 0.119 ** 4)
        assert geometry.j_dp == oracle
        assert geometry.j_dp == pytest.approx(1.802e-5, rel=1e-3)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(DomainError):
            element_matrices(j=0.0, l_el=1.0, density=1.0, shear_modulus=1.0)
        with pytest.raises(DomainError):
            polar_moment(0.1, 0.2)


class TestAssembledModes:
    def test_two_dof_reference_case(self, geometry):
        model = assemble(geometry, n_dp=1, n_bha=1, alpha=0.5, beta=0.006)
        modes = modal_properties(model)
        assert len(modes) == 2
        for (w, xi), wq, xq in zip(modes, TWO_DOF_OMEGAS, TWO_DOF_XIS):
            assert quoted_close(w, wq), (w, wq)
            assert quoted_close(xi, xq), (xi, xq)

    @pytest.mark.parametrize("beta,xis", [(0.006, TEN_DOF_XIS_B0060),
                                          (0.0021, TEN_DOF_XIS_B0021)])
    def test_ten_dof_reference_case(self, geometry, beta, xis):
        model = assemble(geometry, n_dp=8, n_bha=2, alpha=0.5, beta=beta)
        modes = modal_properties(model)
        assert len(modes) == 10
        for (w, xi), wq, xq in zip(modes, TEN_DOF_OMEGAS, xis):
            assert quoted_close(w, wq), (w, wq)
            assert quoted_close(xi, xq), (xi, xq)

    def test_mass_bookkeeping(self, geometry):
        # total mass-matrix content equals the column's polar inertia minus
        # the eliminated top-row/column contribution (2/3 of the first
        # element's rho J l)
        for n_dp, n_bha in ((1, 1), (4, 3)):
            model = assemble(geometry, n_dp=n_dp, n_bha=n_bha)
            total = geometry.density * (geometry.j_dp * geometry.l_dp
                                        + geometry.j_bha * geometry.l_bha)
            first_el = geometry.density * geometry.j_dp * (geometry.l_dp / n_dp)
            assert model.mass.sum() == pytest.approx(total - 2 * first_el / 3,
                                                     rel=1e-12)

    def test_refinement_converges_from_above(self, geometry):
        firsts = []
        for half in (1, 2, 4, 8):
            model = assemble(geometry, n_dp=half, n_bha=half)
            firsts.append(modal_properties(model)[0][0])
        assert all(a > b for a, b in zip(firsts, firsts[1:]))
        model32 = assemble(geometry, n_dp=16, n_bha=16)
        w32 = modal_properties(model32)[0][0]
        # consistent-mass elements overshoot; 16 elements sit within 0.2%
        # of the 32-element value and within 3% of the 2-element 0.85 rad/s
        assert abs(firsts[-1] - w32) / w32 < 2e-3
        assert abs(firsts[-1] - firsts[0]) / firsts[0] < 0.03

    def test_invalid_element_counts(self, geometry):
        with pytest.raises(DomainError):
            assemble(geometry, n_dp=0, n_bha=1)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 1e308])
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_damping_must_be_finite_and_nonnegative(self, geometry, name,
                                                    value):
        # 1e308 is finite, but alpha*M or beta*K overflows
        with pytest.raises(DomainError, match=name):
            assemble(geometry, n_dp=8, n_bha=2, **{name: value})


class TestModalProperties:
    def test_single_constrained_element(self):
        # one element with GJ/l = k and rho J l = m: omega = sqrt(3 k / m)
        k, m = 7.0, 3.0
        stub = SimpleNamespace(stiffness=np.array([[k]]),
                               mass=np.array([[m / 3.0]]),
                               alpha=0.0, beta=0.0)
        modes = modal_properties(stub)
        assert modes[0][0] == pytest.approx(math.sqrt(3 * k / m), rel=1e-12)

    def test_undamped_has_zero_ratios(self, geometry):
        model = assemble(geometry, n_dp=2, n_bha=2, alpha=0.0, beta=0.0)
        assert all(xi == 0.0 for _, xi in modal_properties(model))

    @pytest.mark.parametrize("n_dp, n_bha", [(1, 1), (8, 2), (20, 5)])
    def test_frequencies_match_scipy_eigh(self, geometry, n_dp, n_bha):
        model = assemble(geometry, n_dp=n_dp, n_bha=n_bha, alpha=0.5, beta=0.006)
        w2 = np.array([w for w, _ in modal_properties(model)]) ** 2
        want = scipy.linalg.eigh(model.stiffness, model.mass, eigvals_only=True)
        np.testing.assert_allclose(w2, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mass, stiffness", [
        ([[1.0, 0.0], [0.0, -1.0]], [[2.0, -1.0], [-1.0, 1.0]]),   # M indefinite
        ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]),      # K indefinite
    ])
    def test_matrices_not_positive_definite_raise_numeric_error(self, mass,
                                                                stiffness):
        # NumericError is the CLI's exit code 3
        stub = SimpleNamespace(mass=np.array(mass), stiffness=np.array(stiffness),
                               alpha=0.0, beta=0.0)
        with pytest.raises(NumericError):
            modal_properties(stub)


class TestJacobianFem:
    def test_zero_derivative_matches_linear_system(self, geometry, r1):
        flat = BitRockModel(kind=4, params=(5.0, 0.0, 0.0, 0.0))
        model = assemble(geometry, n_dp=1, n_bha=1, alpha=0.5, beta=0.006)
        op = OperatingPoint(omega=5.0, wob=W_REF_KN)
        a = jacobian_fem(model, flat, r1, op)
        n = model.n_el
        lin = np.block([
            [np.zeros((n, n)), np.eye(n)],
            [-np.linalg.solve(model.mass, model.stiffness),
             -np.linalg.solve(model.mass, model.damping)],
        ])
        assert np.allclose(a, lin, rtol=0, atol=1e-12)
        eigs = eigenvalues_general(a)
        assert (eigs.real < 0).all()

    def test_quadratic_eigenproblem_residual(self, geometry, m2, r1):
        model = assemble(geometry, n_dp=1, n_bha=1, alpha=0.5, beta=0.006)
        op = OperatingPoint(omega=10.0, wob=W_REF_KN)
        a = jacobian_fem(model, m2, r1, op)
        n = model.n_el
        c_nl = model.damping.copy()
        from drillstab.bitrock import torque_derivative
        c_nl[-1, -1] += 1000.0 * torque_derivative(m2, r1, op.omega)
        vals, vecs = np.linalg.eig(a)
        k_norm = np.linalg.norm(model.stiffness, 2)
        for lam, v in zip(vals, vecs.T):
            u = v[:n]
            u = u / np.linalg.norm(u)
            resid = (lam ** 2 * model.mass + lam * c_nl + model.stiffness) @ u
            assert np.linalg.norm(resid) < 1e-8 * k_norm


class TestEigenvaluesGeneral:
    def test_diagonal(self):
        vals = eigenvalues_general(np.diag([1.0, -2.0, 3.0]))
        assert np.allclose(vals, [-2.0, 1.0, 3.0])

    def test_rotation_generator(self):
        vals = eigenvalues_general(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(vals, [-1j, 1j])

    def test_trace_and_determinant_oracles(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.standard_normal((8, 8))
            vals = eigenvalues_general(a)
            scale = max(1.0, abs(np.trace(a)))
            assert abs(vals.sum() - np.trace(a)) <= 1e-8 * scale
            det = np.linalg.det(a)
            assert abs(vals.prod() - det) <= 1e-8 * max(1.0, abs(det))

    def test_conjugate_pairing(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((9, 9))
        vals = eigenvalues_general(a)
        paired = np.sort_complex(vals.conj())
        assert np.allclose(np.sort_complex(vals), paired, rtol=0, atol=1e-10)

    def test_bad_inputs(self):
        for shape in ((2, 3), (3,), (2, 2, 3), (4, 0, 0)):
            with pytest.raises(DomainError):
                eigenvalues_general(np.ones(shape))
        with pytest.raises(DomainError):
            eigenvalues_general(np.array([[math.nan, 0.0], [0.0, 1.0]]))


def same_bits(a, b) -> bool:
    """Whether a and b hold the same float64 bits, real and imaginary parts
    apart (a real array has a +0.0 imaginary part)."""
    return all(np.array_equal(np.ascontiguousarray(part(a)).view(np.int64),
                              np.ascontiguousarray(part(b)).view(np.int64))
               for part in (np.real, np.imag))


class TestStacks:
    @pytest.mark.parametrize("mesh", [(1, 1, 0.5, 0.006),
                                      (8, 2, 0.5, 0.0021), (1, 1, 0.0, 0.0)])
    def test_stack_matches_per_matrix_calls(self, geometry, mesh):
        model = assemble(geometry, *mesh)
        rng = np.random.default_rng(mesh[0])
        offsets = np.geomspace(1e-6, 1e6, 20) * 170.0
        c = np.concatenate([-170.0 + offsets, -170.0 - offsets,
                            rng.normal(0.0, 1e4, 8)]).reshape(6, 8)
        stack = state_matrix(model, c)
        vals = eigenvalues_general(stack)
        n2 = 2 * model.n_el
        assert stack.shape == (6, 8, n2, n2) and vals.shape == (6, 8, n2)
        for idx in np.ndindex(c.shape):
            one = state_matrix(model, float(c[idx]))
            assert same_bits(stack[idx], one)
            assert same_bits(vals[idx], eigenvalues_general(one))

    def test_matrix_input_returns_the_sorted_eig_values(self):
        rng = np.random.default_rng(4)
        for a in (np.diag([1.0, -2.0, 3.0]), rng.standard_normal((8, 8)),
                  np.array([[0.0, 1.0], [-1.0, 0.0]])):
            vals = np.linalg.eig(a)[0]
            want = vals[np.lexsort((vals.imag, vals.real))]
            got = eigenvalues_general(a)
            assert got.dtype == want.dtype and same_bits(got, want)

    def test_one_non_finite_matrix_fails_the_stack(self):
        stack = np.stack([np.eye(3)] * 4)
        stack[2, 0, 1] = math.inf
        with pytest.raises(DomainError):
            eigenvalues_general(stack)

    def test_one_failed_residual_fails_the_stack(self, monkeypatch):
        real = np.linalg.eig

        def perturbed(a):
            vals, vecs = real(a)
            vals[1, 0] += 1e-3
            return vals, vecs
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((3, 5, 5))
        eigenvalues_general(stack)
        monkeypatch.setattr(np.linalg, "eig", perturbed)
        with pytest.raises(NumericError, match="residual"):
            eigenvalues_general(stack)


class TestGeometryValidation:
    def test_diameter_ordering_enforced(self):
        with pytest.raises(DomainError):
            DrillStringGeometry(shear_modulus=85e9, density=7800, l_dp=100,
                                l_bha=10, d_dp_outer=0.119, d_dp_inner=0.140,
                                d_bha_outer=0.161, d_bha_inner=0.073)

    def test_damping_identity_enforced(self, geometry):
        model = assemble(geometry, 1, 1, alpha=0.5, beta=0.006)
        assert np.array_equal(model.damping,
                              0.5 * model.mass + 0.006 * model.stiffness)
