"""Boundary feedback assembly, small-gain radius, domination."""
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import possys as ps
from possys import perturbation
from possys.errors import SingularSystemError
from possys.generators import BorderedBidiagonal, resolvent_matrix, shifted_inverse
from possys.perturbation import (
    assemble_perturbed,
    domination_check,
    resolvent_gap_factors,
    small_gain_radius,
    variation_of_constants_check,
)
from test_bands import random_bordered_metzler

T_GRID = (0.1, 1.0, 10.0)


def dense_domination(system, lambda_grid, tol=1e-10):
    """The dense comparison domination_check replaced: exp(tA) - exp(tA_S)
    and R(lam, A) - R(lam, A_S) as n x n matrices, violations listed the
    way the report lists them."""
    def violations(grid, gaps):
        out = []
        for x, gap in zip(grid, gaps):
            worst = float(np.max(gap))
            if worst > tol:
                i, j = np.unravel_index(np.argmax(gap), gap.shape)
                out.append((float(x), int(i), int(j), worst))
        return tuple(out)

    exp_gaps = [
        scipy.linalg.expm(t * system.base.matrix) - scipy.linalg.expm(t * system.perturbed.matrix)
        for t in T_GRID
    ]
    res_gaps = [
        resolvent_matrix(system.base, lam) - resolvent_matrix(system.perturbed, lam)
        for lam in lambda_grid
    ]
    return violations(T_GRID, exp_gaps), violations(lambda_grid, res_gaps), res_gaps


def dirichlet_column(q, lam, h):
    """The paper's Dirichlet column d = D_lam e: (lam - A_m) d = 0 with unit
    boundary trace, d_j = prod_{k<=j} 1 / (1 + h (lam + q_k)) on the upwind grid."""
    return np.cumprod(1.0 / (1.0 + h * (lam + q)))


def assert_dirichlet_identity(model, q, lam):
    """lam d - A d is the boundary injection e_0 / h, whatever lam."""
    h = model.space.spacing
    d = dirichlet_column(q, lam, h)
    e0 = np.zeros(model.cells)
    e0[0] = 1.0 / h
    np.testing.assert_allclose(lam * d - model.matvec(d), e0, rtol=0, atol=1e-10 / h)


profiles = st.integers(min_value=1, max_value=80).flatmap(
    lambda n: st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=n, max_size=n)
)


class TestDirichletColumn:
    def test_toy_values(self, toy):
        _, model, _ = toy
        q = np.array([1.0, 1.0])
        np.testing.assert_allclose(dirichlet_column(q, 0.0, model.space.spacing), [0.5, 0.25])
        assert_dirichlet_identity(model, q, 0.0)

    @given(q=profiles, length=st.floats(min_value=0.1, max_value=50.0),
           lam=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_product_formula(self, q, length, lam):
        q = np.array(q)
        space = ps.GridSpace(length=length, cells=len(q))
        assert_dirichlet_identity(ps.build_upwind_generator(space, q), q, lam)

    @given(q=profiles, length=st.floats(min_value=0.1, max_value=50.0),
           lam=st.floats(min_value=0.0, max_value=100.0), beta=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_injection_lambda_independent(self, q, length, lam, beta):
        q = np.array(q)
        rs = ps.renewal_scenario(q, beta, length=length, cells=len(q))
        assert_dirichlet_identity(rs.generator, q, lam)

    def test_injection_recovers_boundary_column(self, toy):
        _, model, _ = toy
        op = ps.ControlOperator.boundary_injection(model.space)
        np.testing.assert_allclose(op.column, [1.0, 0.0], atol=1e-12)

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


class TestAssembly:
    def test_rank_one_structure(self, toy):
        _, model, b = toy
        system = assemble_perturbed(model, b, 1.0)
        p = system.perturbation
        assert np.linalg.matrix_rank(p) == 1
        np.testing.assert_allclose(system.perturbed.matrix, model.matrix + p)
        np.testing.assert_allclose(p, [[1.0, 1.0], [0.0, 0.0]])

    def test_negative_feedback_is_refused(self, toy):
        _, model, b = toy
        with pytest.raises(ValueError, match="^feedback rates must be nonnegative$"):
            assemble_perturbed(model, b, -0.5)

    def test_matrix_perturbation_with_a_negative_entry_is_refused(self):
        # K = P would have eigenvalues +-0.5i; P is no positive perturbation
        space = ps.GridSpace(length=2.0, cells=2)
        base = ps.GeneratorModel.from_matrix(space, -np.eye(2))
        with pytest.raises(ValueError, match=r"^perturbation is not nonnegative: P\[1, 0\] = -0\.5$"):
            ps.PerturbedSystem.from_matrix(base, np.array([[0.0, 0.5], [-0.5, 0.0]]))


class TestSmallGainRadius:
    def test_toy_oracle(self, toy):
        # rank-one scalar: beta0 * (1/2 + 1/4) = 3 beta0 / 4
        _, model, b = toy
        for beta0 in (0.4, 1.0, 1.6):
            system = assemble_perturbed(model, b, beta0)
            assert small_gain_radius(system) == pytest.approx(0.75 * beta0, abs=1e-10)

    def test_radius_of_zero_feedback(self, toy):
        _, model, b = toy
        system = assemble_perturbed(model, b, 0.0)
        assert small_gain_radius(system) == 0.0

    def test_net_reproduction_meaning(self):
        # r approximates the birth integral of the continuum model
        rs = ps.renewal_scenario(2.0, 1.0, length=10.0, cells=1000)
        r = small_gain_radius(rs.system)
        assert r == pytest.approx(0.5 * (1 - np.exp(-20.0)), abs=1e-3)

    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        boundary=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_metzler_bands_against_dense_eigvals(self, n, seed, boundary):
        # the rank-one scalar against the dense spectral radius of
        # K = (-A)^-1 P, injected at cell 0 (A_S keeps the bands) or anywhere
        model = random_bordered_metzler(n, seed)
        rng = np.random.default_rng([seed, 1])
        b = np.zeros(n)
        if boundary:
            b[0] = rng.uniform(0.0, 2.0)
        else:
            b = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
        beta = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 2.0, n))
        system = assemble_perturbed(model, b, beta)
        k = np.linalg.solve(-model.matrix, np.outer(b, beta * model.space.spacing))
        # eigvals of K carries roundoff of order eps max |K_ij|
        assert abs(small_gain_radius(system) - np.max(np.abs(np.linalg.eigvals(k)))) <= 1e-12 * np.max(np.abs(k))

    def test_singular_resolvent_raises(self):
        # A 1 = 0, so R(0, A) does not exist, on either path
        space = ps.GridSpace(length=2.0, cells=2)
        base = ps.GeneratorModel.from_matrix(space, np.array([[-1.0, 1.0], [1.0, -1.0]]))
        b = np.array([1.0, 0.0])
        for system in (
            assemble_perturbed(base, b, 0.5),
            ps.PerturbedSystem.from_matrix(base, np.outer(b, [0.5, 0.5])),
        ):
            with pytest.raises(SingularSystemError):
                small_gain_radius(system)


class TestDeferredLoopGain:
    """`PerturbedSystem.small_gain_radius`: the rank-one scalar, solved where
    it is read rather than at assembly."""

    def test_equals_the_rank_one_scalar(self):
        system = ps.renewal_scenario(1.0, 0.5, length=20.0, cells=400).system
        d0 = shifted_inverse(system.base, 0.0, 1.0) @ system.injection
        assert system.small_gain_radius == abs(np.dot(system.feedback * system.base.space.spacing, d0))

    def test_threads_share_one_solve(self):
        # the system keeps no gain, so concurrent reads each solve and agree
        system = ps.renewal_scenario(1.0, 0.5, length=20.0, cells=400).system
        barrier = threading.Barrier(8, timeout=30)
        values = []

        def read():
            barrier.wait()
            values.append(system.small_gain_radius)

        threads = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(values) == 8 and len(set(values)) == 1 and values[0] is not None


class TestDomination:
    def test_toy_ordering(self, toy):
        _, model, b = toy
        system = assemble_perturbed(model, b, 0.8)
        rep = domination_check(system, (0.1, 1.0, 10.0), np.array([0.5, 1.0, 5.0]))
        assert rep.ok and rep.spectral_ok
        assert not rep.exponential_violations and not rep.resolvent_violations
        assert rep.s_base <= rep.s_perturbed + 1e-12

    def test_requires_nonnegative_perturbation(self, toy):
        # P[1, 0] = -1e-13 leaves A_S Metzler; the cutoff is strict
        _, model, _ = toy
        system = assemble_perturbed(model, np.array([0.0, -1e-13]), np.array([1.0, 0.0]))
        assert system.perturbation_min() == -1e-13
        with pytest.raises(ValueError, match="nonnegative perturbation"):
            domination_check(system, (1.0,), np.array([1.0]))

    def test_lambda_grid_must_clear_spectrum(self, toy):
        _, model, b = toy
        system = assemble_perturbed(model, b, 0.8)
        with pytest.raises(ValueError):
            domination_check(system, (1.0,), np.array([-2.0]))

    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        boundary=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_metzler_bands_against_dense(self, n, seed, boundary):
        # Metzler bands, some subdiagonal entries zero, and a rank-one P >= 0
        # injected at cell 0 (A_S keeps the bands) or anywhere (A_S dense);
        # column sums of A_S stay near or below zero, so the dense oracle's
        # roundoff sits far below tol
        rng = np.random.default_rng(seed)
        sub = np.where(rng.random(n - 1) < 0.2, 0.0, rng.uniform(0.0, 3.0, n - 1))
        row0 = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
        b = np.zeros(n)
        if boundary:
            b[0] = rng.uniform(0.0, 2.0)
        else:
            b = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
        beta = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 2.0, n))
        space = ps.GridSpace(length=float(n), cells=n)
        off_sums = np.append(sub, 0.0) + np.insert(row0[1:], 0, 0.0)
        diag = -(off_sums + np.sum(b) * beta * space.spacing + rng.uniform(-0.2, 1.0, n))
        row0[0] = diag[0]
        model = ps.GeneratorModel(space, bands=BorderedBidiagonal(diag, sub, row0))
        system = assemble_perturbed(model, b, beta)
        lams = ps.spectral_bound(system.perturbed) + np.array([0.5, 1.0, 2.0, 5.0, 10.0])

        rep = domination_check(system, T_GRID, lams)
        exp_bad, res_bad, res_gaps = dense_domination(system, lams)
        assert rep.exponential_violations == exp_bad == ()
        assert rep.resolvent_violations == res_bad == ()
        # s is monotone in the Metzler order: s(A) <= s(A + P) for P >= 0
        assert rep.spectral_ok and rep.ok
        for lam, dense_gap in zip(lams, res_gaps):
            u, v = resolvent_gap_factors(system, lam)
            # the roundoff of a difference scales with both terms
            scale = np.max(np.abs(resolvent_matrix(model, lam))) + np.max(
                np.abs(resolvent_matrix(system.perturbed, lam))
            )
            assert np.max(np.abs(-np.outer(u, v) - dense_gap)) <= 1e-15 * scale

    def test_large_renewal_stays_banded(self, monkeypatch):
        """3000 cells: no expm, no resolvent matrix, no n x n array."""
        def refuse(*args, **kwargs):
            raise AssertionError("dense call in the banded domination check")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        monkeypatch.setattr(perturbation, "resolvent_matrix", refuse)
        rs = ps.renewal_scenario(1.0, 0.5, length=20.0, cells=3000)
        lams = ps.spectral_bound(rs.system.perturbed) + np.array([0.5, 1.0, 2.0, 5.0, 10.0])
        tracemalloc.start()
        try:
            rep = domination_check(rs.system, T_GRID, lams)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.ok and rep.exponential_violations == ()
        for m in (rs.system.base, rs.system.perturbed):
            assert m._dense is None
        assert rs.system._dense is None
        # one 3000 x 3000 array is 72 MB
        assert peak < 4e6


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

    def test_assembled_system_builds_no_dense_perturbation(self, monkeypatch):
        # P z is b ((beta h) . z) on the rank-one factors; the dense view
        # stays unbuilt, and the residual matches the dense P's to roundoff
        rs = ps.renewal_scenario(1.0, 0.5, length=4.0, cells=50)
        x = rs.generator.space.vector(np.exp(-np.linspace(0.0, 3.0, 50)))
        dense = ps.PerturbedSystem.from_matrix(rs.system.base, rs.system.perturbation)
        want = variation_of_constants_check(dense, x, 1.0, 0.01).residual
        rs = ps.renewal_scenario(1.0, 0.5, length=4.0, cells=50)

        def refuse(system):
            raise AssertionError("dense perturbation built")

        monkeypatch.setattr(ps.PerturbedSystem, "perturbation", property(refuse))
        got = variation_of_constants_check(rs.system, x, 1.0, 0.01).residual
        assert got == pytest.approx(want, rel=1e-12)
        assert rs.system._dense is None

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
    # no rank-one scalar for generic P: the dense spectral radius of K
    k = np.linalg.solve(-a, p)
    assert small_gain_radius(system) == pytest.approx(np.max(np.abs(np.linalg.eigvals(k))), rel=1e-14)
