"""Boundary feedback assembly, small-gain radius, domination."""
import numpy as np
import pytest

import possys as ps
from possys.errors import SingularSystemError
from possys.perturbation import (
    DirichletOperator,
    assemble_perturbed,
    boundary_control_operator,
    dirichlet_operator,
    domination_check,
    small_gain_radius,
    variation_of_constants_check,
)


class TestDirichletColumn:
    def test_toy_values(self):
        space = ps.GridSpace(length=2.0, cells=2)
        d = dirichlet_operator(space, np.array([1.0, 1.0]), 0.0)
        np.testing.assert_allclose(d.column, [0.5, 0.25])

    def test_product_formula(self, rng):
        space = ps.GridSpace(length=1.0, cells=6)
        q = rng.uniform(0.2, 3.0, 6)
        lam = 0.7
        d = dirichlet_operator(space, q, lam)
        h = space.spacing
        expected = np.cumprod(1.0 / (1.0 + h * (lam + q)))
        np.testing.assert_allclose(d.column, expected, rtol=1e-14)

    def test_rejects_degenerate_denominator(self):
        space = ps.GridSpace(length=1.0, cells=2)
        with pytest.raises(ValueError):
            dirichlet_operator(space, np.array([0.0, 0.0]), -2.5)

    def test_injection_recovers_boundary_column(self, toy):
        _, model, _ = toy
        op = boundary_control_operator(model)
        np.testing.assert_allclose(op.column, [1.0, 0.0], atol=1e-12)
        assert op.provenance == "boundary_dirichlet"

    def test_injection_lambda_independent(self):
        rs = ps.renewal_scenario(1.0, 0.0, length=2.0, cells=25)
        a = boundary_control_operator(rs.generator, lam=0.0)
        c = boundary_control_operator(rs.generator, lam=5.0)
        np.testing.assert_allclose(a.column, c.column, atol=1e-9)

    @pytest.mark.parametrize("q, beta", [(1.0, 0.5), (np.linspace(0.2, 2.0, 60), np.linspace(1.5, 0.0, 60))])
    def test_renewal_column_is_exact_and_closed_loop_structured(self, q, beta):
        rs = ps.renewal_scenario(q, beta, length=6.0, cells=60)
        exact = np.zeros(60)
        exact[0] = 1.0 / rs.generator.space.spacing
        assert np.array_equal(rs.boundary_input.column, exact)
        a_s = rs.system.perturbed.matrix
        # rows 1.. of A_S are the upwind rows of A, bit for bit: bidiagonal
        assert np.array_equal(a_s[1:], rs.generator.matrix[1:])
        assert np.array_equal(a_s[1:], np.tril(np.triu(a_s, -1))[1:])
        # Metzler with zero tolerance
        assert np.min(a_s - np.diag(np.diag(a_s))) >= 0.0

    def test_injection_rejects_inconsistent_absorption(self):
        space = ps.GridSpace(length=2.0, cells=10)
        model = ps.build_upwind_generator(space, 1.0, ps.ZeroInflow())
        wrong = ps.GeneratorModel(
            space=space, matrix=model.matrix, boundary="zero_inflow", absorption=np.full(10, 2.0)
        )
        with pytest.raises(ValueError, match="differs"):
            boundary_control_operator(wrong)

    def test_injection_requires_transport_model(self):
        space = ps.GridSpace(length=1.0, cells=3)
        model = ps.GeneratorModel.from_matrix(space, -np.eye(3))
        with pytest.raises(ValueError):
            boundary_control_operator(model)


class TestAssembly:
    def test_rank_one_structure(self, toy):
        _, model, b = toy
        system = assemble_perturbed(model, b, 1.0)
        p = system.perturbation
        assert np.linalg.matrix_rank(p) == 1
        np.testing.assert_allclose(system.perturbed.matrix, model.matrix + p)
        np.testing.assert_allclose(p, [[1.0, 1.0], [0.0, 0.0]])

    def test_boundary_label_upgrades(self, toy):
        _, model, b = toy
        system = assemble_perturbed(model, b, 0.5)
        assert system.perturbed.boundary == "nonlocal"

    def test_matches_direct_birth_boundary(self):
        space = ps.GridSpace(length=2.0, cells=20)
        beta = np.linspace(0.1, 0.6, 20)
        base = ps.build_upwind_generator(space, 1.0, ps.ZeroInflow())
        b = ps.ControlOperator.boundary_injection(space)
        system = assemble_perturbed(base, b, beta)
        direct = ps.build_upwind_generator(space, 1.0, ps.NonlocalBirth(rates=beta))
        np.testing.assert_allclose(system.perturbed.matrix, direct.matrix, atol=1e-12)

    def test_negative_feedback_warns(self, toy):
        _, model, b = toy
        with pytest.warns(UserWarning):
            assemble_perturbed(model, b, -0.5)


class TestSmallGainRadius:
    def test_toy_oracle(self, toy):
        # rank-one scalar: beta0 * (1/2 + 1/4) = 3 beta0 / 4
        _, model, b = toy
        for beta0 in (0.4, 1.0, 1.6):
            system = assemble_perturbed(model, b, beta0)
            assert small_gain_radius(system) == pytest.approx(0.75 * beta0, abs=1e-10)

    def test_power_iteration_equals_rank_one_scalar(self, rng):
        space = ps.GridSpace(length=3.0, cells=30)
        for _ in range(10):
            q = rng.uniform(0.3, 2.0, 30)
            beta = rng.uniform(0.0, 1.5, 30)
            model = ps.build_upwind_generator(space, q, ps.ZeroInflow())
            b = ps.ControlOperator.boundary_injection(space)
            system = assemble_perturbed(model, b, beta)
            assert small_gain_radius(system, rng=rng) == pytest.approx(
                system.small_gain_radius, abs=1e-8
            )

    def test_radius_of_zero_feedback(self, toy):
        _, model, b = toy
        system = assemble_perturbed(model, b, 0.0)
        assert small_gain_radius(system) == 0.0

    def test_net_reproduction_meaning(self):
        # r approximates the birth integral of the continuum model
        rs = ps.renewal_scenario(2.0, 1.0, length=10.0, cells=1000)
        r = small_gain_radius(rs.system)
        assert r == pytest.approx(0.5 * (1 - np.exp(-20.0)), abs=1e-3)


class TestDomination:
    def test_toy_ordering(self, toy):
        _, model, b = toy
        system = assemble_perturbed(model, b, 0.8)
        rep = domination_check(system, (0.1, 1.0, 10.0), np.array([0.5, 1.0, 5.0]))
        assert rep.ok and rep.spectral_ok
        assert not rep.exponential_violations and not rep.resolvent_violations
        assert rep.s_base <= rep.s_perturbed + 1e-12

    def test_requires_nonnegative_perturbation(self, toy):
        _, model, b = toy
        with pytest.warns(UserWarning):
            system = assemble_perturbed(model, b, -0.5)
        with pytest.raises(ValueError):
            domination_check(system, (1.0,), np.array([1.0]))

    def test_lambda_grid_must_clear_spectrum(self, toy):
        _, model, b = toy
        system = assemble_perturbed(model, b, 0.8)
        with pytest.raises(ValueError):
            domination_check(system, (1.0,), np.array([-2.0]))


class TestVariationOfConstants:
    def test_residual_first_order_in_dt(self):
        rs = ps.renewal_scenario(1.0, 0.5, length=4.0, cells=50)
        x = rs.generator.space.vector(np.exp(-np.linspace(0.0, 3.0, 50)))
        residuals = [
            variation_of_constants_check(rs.system, x, 1.0, dt).residual
            for dt in (1e-2, 5e-3, 2.5e-3)
        ]
        assert residuals[0] / residuals[1] == pytest.approx(2.0, abs=0.4)
        assert residuals[1] / residuals[2] == pytest.approx(2.0, abs=0.4)

    def test_zero_perturbation_zero_residual(self, toy):
        _, model, b = toy
        system = assemble_perturbed(model, b, 0.0)
        x = model.space.vector(np.array([1.0, 0.5]))
        rep = variation_of_constants_check(system, x, 1.0, 0.01)
        assert rep.residual <= 1e-12


def test_from_matrix_entrypoint(rng):
    space = ps.GridSpace(length=1.0, cells=4)
    a = -2.0 * np.eye(4) + 0.1
    p = np.abs(rng.random((4, 4))) * 0.05
    base = ps.GeneratorModel.from_matrix(space, a)
    system = ps.PerturbedSystem.from_matrix(base, p)
    np.testing.assert_allclose(system.perturbed.matrix, a + p)
    assert system.small_gain_radius is None  # no rank-one scalar for generic P
    assert np.isfinite(small_gain_radius(system, rng=rng))
