"""Time stepping: exact exponentials, implicit Euler, norm curves."""
import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import possys as ps
from possys.control import step_input_operators
from possys.generators import BorderedBidiagonal, ShiftedInverse, _dense_inverse
from possys.semigroup import (
    EvolutionPlan,
    Uniformization,
    left_invertibility_audit,
    norm_curves,
    step_operator,
)
from test_bands import columns_of, random_bordered_metzler


class TestEvolutionPlan:
    def test_grid(self):
        plan = EvolutionPlan(t_end=1.0, dt=0.25, method="exact_exponential")
        assert plan.steps == 4
        np.testing.assert_allclose(plan.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_misaligned_dt(self):
        with pytest.raises(ValueError):
            EvolutionPlan(t_end=1.0, dt=0.3, method="exact_exponential")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            EvolutionPlan(t_end=1.0, dt=0.5, method="rk4")

    def test_tolerates_representable_fractions(self):
        plan = EvolutionPlan(t_end=1.0, dt=0.05, method="implicit_euler")
        assert plan.steps == 20


def dense_step(model, dt, method):
    """The matrix of `step_operator(model, dt, method)`, one column per basis vector."""
    return columns_of(step_operator(model, dt, method), model.cells)


class TestStepMatrix:
    """The matrices of both one-step operators."""

    def test_exact_is_expm(self, toy):
        _, model, _ = toy
        e = dense_step(model, 0.3, "exact_exponential")
        np.testing.assert_allclose(e, scipy.linalg.expm(0.3 * model.matrix), atol=1e-14)

    def test_implicit_euler_is_resolvent_step(self, toy):
        _, model, _ = toy
        e = dense_step(model, 0.1, "implicit_euler")
        np.testing.assert_allclose(e, np.linalg.inv(np.eye(2) - 0.1 * model.matrix), atol=1e-13)

    def test_implicit_converges_first_order(self, toy):
        _, model, _ = toy
        exact = scipy.linalg.expm(model.matrix)
        errs = []
        for dt in (0.1, 0.05, 0.025):
            e = dense_step(model, dt, "implicit_euler")
            errs.append(np.max(np.abs(np.linalg.matrix_power(e, int(round(1 / dt))) - exact)))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.4)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.4)

    def test_both_methods_positive_for_metzler(self, toy):
        _, model, _ = toy
        assert np.min(dense_step(model, 0.5, "exact_exponential")) >= 0.0
        assert np.min(dense_step(model, 0.5, "implicit_euler")) >= 0.0

    def test_implicit_rejects_dt_past_spectrum(self):
        space = ps.GridSpace(length=1.0, cells=1)
        model = ps.GeneratorModel.from_matrix(space, np.array([[2.0]]))
        with pytest.raises(ps.SingularSystemError):
            step_operator(model, 0.5, "implicit_euler")


def _renewal(cells, q, beta, length):
    return ps.renewal_scenario(q, beta, length=length, cells=cells).system.perturbed


_cells = st.integers(min_value=1, max_value=40)
_dt = st.floats(min_value=1e-3, max_value=2.0)
_rate = st.floats(min_value=0.0, max_value=3.0)
_models = st.one_of(
    st.builds(_renewal, _cells, _rate, _rate, st.floats(min_value=0.5, max_value=20.0)),
    _cells.flatmap(lambda n: st.builds(
        _renewal,
        st.just(n),
        st.lists(_rate, min_size=n, max_size=n),
        st.lists(_rate, min_size=n, max_size=n),
        st.floats(min_value=0.5, max_value=20.0),
    )),
    st.builds(
        ps.ring_transport_scenario, st.sampled_from([0.5, 2.0]),
        st.floats(min_value=0.5, max_value=4.0), st.integers(min_value=2, max_value=40),
    ),
    st.builds(ps.markov_cycle_scenario, st.integers(min_value=2, max_value=40)),
)


class TestBidiagonalStep:
    """The O(n) implicit-Euler operator against the dense inverse oracle."""

    @given(model=_models, dt=_dt, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_oracle(self, model, dt, seed):
        # stay clear of dt at which I - dt A is (nearly) singular
        assume(np.linalg.cond(np.eye(model.cells) - dt * model.matrix) < 1e8)
        dense = _dense_inverse(model, 1.0, dt)
        op = step_operator(model, dt, "implicit_euler")
        # on the bands where I - dt A is an M-matrix, or A lower bidiagonal
        banded = model.bands.lower or 1.0 / dt > ps.spectral_bound(model)
        assert isinstance(op, ShiftedInverse) == banded
        rng = np.random.default_rng(seed)
        tol = dict(rtol=1e-9, atol=1e-12 * float(np.max(np.abs(dense))))
        for x in rng.standard_normal((3, model.cells)):
            np.testing.assert_allclose(op @ x, dense @ x, **tol)
            np.testing.assert_allclose(op.T @ x, dense.T @ x, **tol)
        np.testing.assert_allclose(columns_of(op, model.cells), dense, **tol)

    @given(
        n=st.integers(min_value=1, max_value=30),
        dt=_dt,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        lower=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_explicit_bordered_metzler_against_dense(self, n, dt, seed, lower):
        # random Metzler bordered or lower-bidiagonal A, some with a positive
        # diagonal: where 1 / dt <= s(A) the Sherman-Morrison term can lose
        # accuracy, so step_operator must route those to the dense inverse
        # unless A is lower bidiagonal and has no such term
        rng = np.random.default_rng(seed)
        a = np.diag(rng.uniform(-3.0, 1.0, n)) + np.diag(rng.uniform(0.0, 3.0, n - 1), -1)
        if not lower:
            a[0, 1:] = np.where(rng.random(n - 1) < 0.5, rng.uniform(0.0, 2.0, n - 1), 0.0)
        m = np.eye(n) - dt * a
        assume(np.linalg.cond(m) < 1e8)
        model = ps.GeneratorModel.from_matrix(ps.GridSpace(length=float(n), cells=n), a)
        dense = _dense_inverse(model, 1.0, dt)
        op = step_operator(model, dt, "implicit_euler")
        banded = not np.any(a[0, 1:]) or 1.0 / dt > ps.spectral_bound(model)
        assert isinstance(op, ShiftedInverse) == banded
        got = columns_of(op, n) if banded else op
        assert np.max(np.abs(got - dense)) <= 1e-9 * np.max(np.abs(dense))
        # one vector at a time, forward and adjoint, against a dense solve
        for x in rng.standard_normal((2, n)):
            for y, ref in ((op @ x, np.linalg.solve(m, x)), (op.T @ x, np.linalg.solve(m.T, x))):
                assert np.max(np.abs(y - ref)) <= 1e-9 * np.max(np.abs(dense)) * np.max(np.abs(x)) * n

    def test_certificate_positive_for_metzler_presets(self):
        rs = ps.renewal_scenario(1.0, 0.5, length=20.0, cells=400)
        for model in (rs.generator, rs.system.perturbed, ps.markov_cycle_scenario(9),
                      ps.ring_transport_scenario(2.0, cells=30)):
            op = step_operator(model, 0.05, "implicit_euler")
            assert np.min(columns_of(op, model.cells)) >= 0
            assert np.min(op @ np.ones(model.cells)) > 0

    def test_certificate_refused_past_the_spectrum(self):
        # gain 2 ring grows at about ln 2: dt = 3 leaves the M-matrix regime
        model = ps.ring_transport_scenario(2.0, cells=20)
        op = step_operator(model, 3.0, "implicit_euler")
        assert np.min(columns_of(op, 20)) < 0
        assert np.min(_dense_inverse(model, 1.0, 3.0)) < 0

    def test_unstructured_matrix_takes_dense_path(self):
        space = ps.GridSpace(length=3.0, cells=3)
        model = ps.GeneratorModel.from_matrix(
            space, [[-2.0, 0.0, 0.0], [0.5, -2.0, 0.0], [0.5, 0.5, -2.0]]
        )
        e = step_operator(model, 0.3, "implicit_euler")
        assert isinstance(e, np.ndarray)
        np.testing.assert_array_equal(e, _dense_inverse(model, 1.0, 0.3))

    def test_singular_sherman_morrison_denominator(self):
        space = ps.GridSpace(length=2.0, cells=2)
        model = ps.GeneratorModel.from_matrix(space, [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ps.SingularSystemError):
            step_operator(model, 1.0, "implicit_euler")

    def test_zero_pivot(self):
        space = ps.GridSpace(length=2.0, cells=2)
        model = ps.GeneratorModel.from_matrix(space, [[-1.0, 0.0], [1.0, 2.0]])
        with pytest.raises(ps.SingularSystemError):
            step_operator(model, 0.5, "implicit_euler")

    def test_exact_method_stays_dense(self):
        # without bands the uniformization takes a dense P
        space = ps.GridSpace(length=3.0, cells=3)
        no_bands = ps.GeneratorModel.from_matrix(space, [[-2.0, 0.0, 0.0], [1.0, -2.0, 0.0], [1.0, 1.0, -2.0]])
        assert no_bands.bands is None
        e = step_operator(no_bands, 0.3, "exact_exponential")
        assert isinstance(e, Uniformization)
        np.testing.assert_allclose(columns_of(e, 3), scipy.linalg.expm(0.3 * no_bands.matrix), rtol=1e-14, atol=0)

    def test_exact_method_on_metzler_bands(self, toy):
        _, model, _ = toy
        e = step_operator(model, 0.3, "exact_exponential")
        assert isinstance(e, Uniformization)
        np.testing.assert_allclose(columns_of(e, 2), scipy.linalg.expm(0.3 * model.matrix), rtol=1e-14, atol=0)


class TestBandExponential:
    """The uniformization sum and its input column, on Metzler bands and on
    dense Metzler matrices, against dense expm."""

    @staticmethod
    def check(model, tau, y):
        e = Uniformization(model, tau)
        n = model.cells
        ref = scipy.linalg.expm(tau * model.matrix)
        for got, want in ((e @ y, ref @ y), (e.T @ y, ref.T @ y)):
            assert np.linalg.norm(got - want, 1) <= 1e-12 * np.linalg.norm(want, 1)
        # F = int_0^tau exp(s A) y ds: the last column of exp(tau [[A, y], [0, 0]])
        block = np.zeros((n + 1, n + 1))
        block[:n, :n], block[:n, n] = model.matrix, y
        want = scipy.linalg.expm(tau * block)[:n, n]
        assert np.linalg.norm(e.integral(y) - want, 1) <= 1e-12 * np.linalg.norm(want, 1)

    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        tau=st.sampled_from([0.05, 0.4, 1.0]),
        absorb=st.sampled_from([0.0, 100.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_metzler_bands(self, n, seed, tau, absorb):
        # with absorb = 100, c tau reaches 100 and the sum runs in substeps,
        # while the slow cells, some with a_jj > 0, keep expm accurate
        model = random_bordered_metzler(n, seed, absorb=absorb)
        self.check(model, tau, np.random.default_rng(seed).random(n))

    @given(
        n=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        tau=st.sampled_from([0.05, 0.4, 1.0]),
        absorb=st.sampled_from([0.0, 100.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_dense_metzler(self, n, seed, tau, absorb):
        # no bands (A[n-1, 0] > 0): a dense P, whose growth only its column
        # sums bound
        rng = np.random.default_rng(seed)
        a = np.where(rng.random((n, n)) < 0.5, rng.uniform(0.0, 2.0, (n, n)), 0.0)
        a[n - 1, 0] = 1.0
        diag = rng.uniform(-3.0, 1.0, n)
        diag[::3] -= absorb
        np.fill_diagonal(a, diag)
        model = ps.GeneratorModel.from_matrix(ps.GridSpace(length=float(n), cells=n), a)
        assert model.bands is None
        self.check(model, tau, rng.random(n))

    @pytest.mark.parametrize("diag, sub, row0", [
        # P = I + A / c grows (largest column sum 5.2 at c = 1): cutting the
        # sum at the tail of Poisson(c tau), as if P did not grow, is 1.2% off
        ([0.2, -0.5, -1.0], [4.0, 4.0], [0.2, 0.0, 4.0]),
        # every a_jj > 0: c = max(-a_jj) would be negative
        ([0.5, 0.3, 0.1], [1.0, 2.0], [0.5, 0.0, 1.0]),
    ])
    def test_growing_bands(self, diag, sub, row0):
        bands = BorderedBidiagonal(np.array(diag), np.array(sub), np.array(row0))
        self.check(ps.GeneratorModel(ps.GridSpace(length=3.0, cells=3), bands=bands), 5.0, np.ones(3))


def test_implicit_euler_is_the_default_at_every_size():
    assert EvolutionPlan(1.0, 0.5).method == "implicit_euler"
    for cells in (10, 501):
        model = ps.renewal_scenario(1.0, 0.0, length=1.0, cells=cells).generator
        assert isinstance(step_operator(model, 0.1), ShiftedInverse)
        e, _ = step_input_operators(model, model.space.basis(0), 0.1)
        assert isinstance(e, ShiftedInverse)


class TestEvolve:
    def test_matches_expm(self, toy, rng):
        _, model, _ = toy
        x = model.space.vector(rng.random(2))
        traj = ps.evolve(model, x, EvolutionPlan(1.0, 0.125, "exact_exponential"))
        np.testing.assert_allclose(
            traj.final.values, scipy.linalg.expm(model.matrix) @ x.values, atol=1e-13
        )

    def test_preserves_cone_both_methods(self, toy, rng):
        _, model, _ = toy
        x = model.space.vector(rng.random(2) + 0.1)
        for method in ("exact_exponential", "implicit_euler"):
            traj = ps.evolve(model, x, EvolutionPlan(2.0, 0.125, method))
            assert np.min(traj.states) >= -1e-15

    def test_implicit_step_needs_dt_below_one_over_the_spectral_bound(self):
        # the gain 2 ring grows at s(A) > 0
        model = ps.ring_transport_scenario(2.0, cells=20)
        s = ps.spectral_bound(model)
        x = model.space.vector(np.ones(20))
        with pytest.raises(ps.SingularSystemError, match=r"dt s\(A\) < 1"):
            ps.evolve(model, x, EvolutionPlan(2.002 / s, 1.001 / s, "implicit_euler"))
        traj = ps.evolve(model, x, EvolutionPlan(1.998 / s, 0.999 / s, "implicit_euler"))
        assert np.min(traj.states) >= 0 and traj.norms()[-1] > traj.norms()[0]

    def test_norms_and_vector_at(self, toy):
        _, model, _ = toy
        x = model.space.vector(np.array([1.0, 0.0]))
        traj = ps.evolve(model, x, EvolutionPlan(1.0, 0.25, "exact_exponential"))
        assert traj.norms()[0] == pytest.approx(1.0)
        v = traj.vector_at(2)  # t = 2 * 0.25
        np.testing.assert_allclose(
            v.values, scipy.linalg.expm(0.5 * model.matrix) @ x.values, atol=1e-13
        )


class TestOperatorNormCurve:
    def test_against_dense_exponentials(self, toy):
        _, model, _ = toy
        dt = 0.25
        curve, _, _ = norm_curves(model, step_operator(model, dt, "exact_exponential"), 11)
        for k, val in enumerate(curve):
            ref = ps.induced_operator_norm(scipy.linalg.expm(k * dt * model.matrix), model.space)
            assert val == pytest.approx(ref, abs=1e-12)

    def test_implicit_euler_curve_against_dense_powers(self):
        # the gain fit lifts N over the implicit-Euler power norms
        rs = ps.renewal_scenario(1.0, 0.5, length=5.0, cells=30)
        model = rs.system.perturbed
        e = _dense_inverse(model, 1.0, 0.1)
        norms = [ps.induced_operator_norm(np.linalg.matrix_power(e, k), model.space) for k in range(21)]
        curve, _, _ = norm_curves(model, step_operator(model, 0.1), 20)
        np.testing.assert_allclose(curve, norms, rtol=1e-12)

    def test_exponential_gate_reads_structure(self):
        # expm of a Metzler generator may carry roundoff of either sign; the
        # adjoint recursion reads the curve of the exact step through it
        model = ps.renewal_scenario(1.0, 0.5, length=5.0, cells=30).generator
        e = scipy.linalg.expm(0.1 * model.matrix)
        clean, _, _ = norm_curves(model, e, 20)
        signed = e.copy()
        assert signed[0, -1] == 0.0  # lower triangular
        signed[0, -1] = -1e-18
        curve, _, _ = norm_curves(model, signed, 20)
        np.testing.assert_allclose(curve, clean, rtol=1e-14)

    def test_markov_norm_constant(self):
        model = ps.markov_cycle_scenario(5)
        curve, _, _ = norm_curves(model, step_operator(model, 0.5), 6)
        np.testing.assert_allclose(curve, 1.0, atol=1e-12)


class TestNormCurves:
    """The shared kernel against dense matrix powers."""

    @staticmethod
    def check(model, method, dt, vectors, steps=12):
        e = step_operator(model, dt, method)
        dense = e if isinstance(e, np.ndarray) else columns_of(e, model.cells)
        op, low, curves = norm_curves(model, e, steps, vectors)
        for k in range(steps + 1):
            power = np.linalg.matrix_power(dense, k)
            assert op[k] == pytest.approx(ps.induced_operator_norm(power, model.space), rel=1e-12)
            assert low[k] == pytest.approx(np.min(np.sum(np.abs(power), axis=0)), rel=1e-12)
            for curve, v in zip(curves, vectors):
                assert curve[k] == pytest.approx(ps.weighted_l1(power @ v, model.space), rel=1e-12)

    @pytest.mark.parametrize("method", ["exact_exponential", "implicit_euler"])
    def test_closed_loop(self, rng, method):
        rs = ps.renewal_scenario(1.0, 0.5, length=5.0, cells=30)
        model = rs.system.perturbed
        self.check(model, method, 0.1, (rng.random(30), rs.boundary_input.column))

    def test_refuses_a_vector_off_the_cone(self, rng):
        model = ps.renewal_scenario(1.0, 0.5, length=5.0, cells=30).system.perturbed
        vectors = (rng.random(30), rng.standard_normal(30))
        with pytest.raises(ValueError, match="a vector has a negative entry"):
            norm_curves(model, step_operator(model, 0.1), 12, vectors)


class TestLeftInvertibility:
    def test_markov_holds_with_unit_amplitude(self):
        model = ps.markov_cycle_scenario(6)
        audit = left_invertibility_audit(model, np.linspace(0.0, 3.0, 13))
        assert audit.holds
        assert audit.amplitude == pytest.approx(1.0, abs=1e-9)
        assert abs(audit.rate) < 1e-9

    def test_transport_fails_once_mass_exits(self):
        # zero-inflow transport empties the domain: no uniform lower bound
        rs = ps.renewal_scenario(1.0, 0.0, length=1.0, cells=40)
        audit = left_invertibility_audit(rs.generator, np.linspace(0.0, 4.0, 17))
        assert not audit.holds

    def test_outflow_mode_decays_as_the_semigroup_does(self):
        # h = 1/16, q = 1: the last cell's mass decays like exp(-17 t), about
        # 2e-15 at t = 2, while implicit Euler at dt = 1/32 keeps 1.4e-12 of it
        rs = ps.renewal_scenario(1.0, 0.5, length=5.0, cells=80)
        audit = left_invertibility_audit(rs.generator, np.linspace(0.0, 2.0, 65))
        assert not audit.holds
        assert audit.lower_bounds[-1] < 1e-13

    @pytest.mark.parametrize("gain", [2.0, 100.0])
    def test_ring_against_its_closed_form(self, gain):
        # on the ring T(t) e_j travels Poisson(t / h) cells and is multiplied
        # by the gain at each seam crossing; e_0, farthest from the seam,
        # crosses least: its mass is sum_m gain^m P(m n <= N < (m + 1) n)
        n, grid = 60, np.linspace(0.0, 2.0, 65)
        audit = left_invertibility_audit(ps.ring_transport_scenario(gain, length=1.0, cells=n), grid)
        crossings = np.arange(4)[:, None]
        below = scipy.stats.poisson.cdf(np.arange(1, 5)[:, None] * n - 1, grid * n)
        prob = np.diff(below, axis=0, prepend=0.0)
        np.testing.assert_allclose(audit.lower_bounds, np.sum(gain**crossings * prob, axis=0), rtol=1e-12)

    def test_seam_gain_leaves_the_term_count(self):
        # the Perron vector bounds the growth of P^k near s(A); the column
        # sums would charge the gain-100 ring 50 times the terms
        counts = []
        for gain in (2.0, 100.0):
            e = Uniformization(ps.ring_transport_scenario(gain, length=1.0, cells=2400), 1 / 32)
            counts.append(e._substeps * len(e._weights))
        assert counts[1] < 1.1 * counts[0]

    def test_requires_uniform_grid_from_zero(self, toy):
        _, model, _ = toy
        with pytest.raises(ValueError):
            left_invertibility_audit(model, np.array([0.5, 1.0]))

    @staticmethod
    def forward_products(model, t_grid):
        """min_j ||exp(t_k A) e_j|| / ||e_j|| per grid time: the smallest
        column sum of the dense exponential, the weights being uniform."""
        return np.array([np.min(np.sum(np.abs(scipy.linalg.expm(t * model.matrix)), axis=0)) for t in t_grid])

    @staticmethod
    def assert_no_sample_below(model, t_grid, lower, rng):
        for t, low in zip(t_grid, lower):
            x = rng.exponential(size=(model.cells, 20)) * (rng.random((model.cells, 20)) < 0.5)
            x[0] += 1e-3
            ratios = np.sum(np.abs(scipy.linalg.expm(t * model.matrix) @ x), axis=0) / np.sum(x, axis=0)
            assert np.all(ratios >= low * (1.0 - 1e-12))

    def test_lower_bound_is_a_bound(self, toy, rng):
        _, model, _ = toy
        grid = np.linspace(0.0, 1.0, 5)
        audit = left_invertibility_audit(model, grid)
        np.testing.assert_allclose(audit.lower_bounds, self.forward_products(model, grid), rtol=1e-12)
        self.assert_no_sample_below(model, grid, audit.lower_bounds, rng)

    @pytest.mark.parametrize("name", ["renewal", "closed_loop", "ring", "markov"])
    def test_adjoint_route_matches_forward_products(self, name):
        rs = ps.renewal_scenario(1.0, 0.5, length=5.0, cells=50)
        model = {
            "renewal": rs.generator,
            "closed_loop": rs.system.perturbed,
            "ring": ps.ring_transport_scenario(2.0, length=1.0, cells=50),
            "markov": ps.markov_cycle_scenario(7),
        }[name]
        grid = np.linspace(0.0, 2.0, 65)
        ref = self.forward_products(model, grid)
        audit = left_invertibility_audit(model, grid)
        np.testing.assert_allclose(audit.lower_bounds, ref, rtol=1e-12)

    @given(n=st.integers(min_value=2, max_value=40), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_metzler_bands(self, n, seed):
        model = random_bordered_metzler(n, seed)
        grid = np.linspace(0.0, 1.0, 9)
        audit = left_invertibility_audit(model, grid)
        np.testing.assert_allclose(audit.lower_bounds, self.forward_products(model, grid), rtol=1e-12)
        self.assert_no_sample_below(model, grid, audit.lower_bounds, np.random.default_rng(seed))
