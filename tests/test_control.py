"""Input signals, input maps, and the admissibility audits."""
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import possys as ps
from possys import cli, control
from possys.control import (
    additivity_check,
    composition_law_check,
    impulse_response_norms,
    resolvent_bound_audit,
    step_input_operators,
)
from possys.semigroup import Uniformization
from test_bands import columns_of, random_bordered_metzler
from test_semigroup import free_evolution


def steps_signal(rng, n_seg=3, t_max=2.0):
    cuts = np.sort(rng.uniform(0.1, t_max, size=n_seg - 1))
    bp = np.concatenate([[0.0], cuts, [t_max]])
    return ps.InputSignal(bp, rng.uniform(-1.0, 2.0, size=n_seg))


class TestInputSignal:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ps.InputSignal(np.array([0.5, 1.0]), np.array([1.0]))  # must start at 0
        with pytest.raises(ValueError):
            ps.InputSignal(np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ps.InputSignal(np.array([0.0, 1.0]), np.array([np.inf]))
        # NaN passes the increasing check, and an infinite end makes
        # value_at's tolerance infinite, which reads the signal as zero
        for bp in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                ps.InputSignal(np.array(bp), np.array([1.0, 2.0]))

    def test_value_at_right_continuous(self):
        u = ps.InputSignal(np.array([0.0, 1.0, 2.0]), np.array([3.0, 5.0]))
        np.testing.assert_allclose(
            u.value_at(np.array([0.0, 0.99, 1.0, 1.99, 2.0, 5.0])), [3, 3, 5, 5, 0, 0]
        )

    def test_zero_signal(self):
        z = ps.InputSignal.zero()
        assert z.end == 0.0
        assert not np.any(z.values)
        np.testing.assert_allclose(z.value_at(np.array([0.0, 1.0])), [0.0, 0.0])

    @given(st.floats(min_value=0.01, max_value=2.99))
    @settings(max_examples=60, deadline=None)
    def test_truncate_then_shift_partition(self, t):
        # u = 1[0,1)*2 + 1[1,3)*0.5 split at t: truncation + shift rebuild u
        u = ps.InputSignal(np.array([0.0, 1.0, 3.0]), np.array([2.0, 0.5]))
        head, tail = u.truncated(t), u.shifted(t)
        probes = np.linspace(0.0, 3.5, 141)
        rebuilt = head.value_at(probes) + tail.value_at(np.maximum(probes - t, 0.0)) * (probes >= t)
        # the only disagreement allowed is at the split point itself
        mism = np.nonzero(~np.isclose(rebuilt, u.value_at(probes)))[0]
        assert all(abs(probes[i] - t) < 1e-9 for i in mism)

    def test_add_merges_breakpoints(self):
        a = ps.InputSignal(np.array([0.0, 1.0]), np.array([1.0]))
        b = ps.InputSignal(np.array([0.0, 0.5, 2.0]), np.array([2.0, -1.0]))
        tot = a + b
        np.testing.assert_allclose(tot.value_at(np.array([0.25, 0.75, 1.5])), [3.0, 0.0, -1.0])

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "u.csv"
        # a final row with u = 0 closes the support
        path.write_text("t,u\n0.0,1.5\n0.25,-0.5\n1.0,0.0\n")
        v = ps.InputSignal.from_csv(path)
        np.testing.assert_array_equal(v.breakpoints, [0.0, 0.25, 1.0])
        np.testing.assert_array_equal(v.values, [1.5, -0.5])

    def test_csv_rejects_open_support(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u\n0.0,1.0\n1.0,2.0\n")
        with pytest.raises(ValueError):
            ps.InputSignal.from_csv(path)

    def test_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0.0,0.0\n")
        with pytest.raises(ValueError):
            ps.InputSignal.from_csv(path)


class TestInputMap:
    def test_zero_input_is_zero(self, toy):
        _, model, b = toy
        phi = ps.input_map(model, b, ps.InputSignal.zero(), 1.0)
        assert ps.l1_norm(phi) == 0.0

    def test_constant_input_closed_form(self, toy):
        _, model, b = toy
        u = ps.InputSignal.constant(1.0, 1.0)
        phi = ps.input_map(model, b, u, 1.0)
        r0b = np.array([0.5, 0.25])
        expected = r0b - scipy.linalg.expm(model.matrix) @ r0b
        np.testing.assert_allclose(phi.values, expected, atol=1e-12)

    def test_long_exact_map_matches_block_exponential(self):
        # tau = 500 on 400 cells: 25620 uniformization products, well inside
        # the work budget, against the last column of the block exponential
        sc = ps.renewal_scenario(1.0, 0.5, 20.0, 400)
        model, col, tau = sc.system.perturbed, sc.system.injection, 500.0
        phi = ps.input_map(model, col, ps.InputSignal.constant(1.0, tau), tau)
        n = model.cells
        block = np.zeros((n + 1, n + 1))
        block[:n, :n], block[:n, n] = tau * model.matrix, tau * col
        ref = scipy.linalg.expm(block)[:n, n]
        np.testing.assert_allclose(phi.values, ref, rtol=0, atol=1e-12 * np.max(ref))

    def test_segment_and_stepper_paths_agree(self, toy, rng):
        # simulate's exact step pair from x = 0 is the segment path's map
        _, model, b = toy
        u = ps.InputSignal(np.array([0.0, 0.25, 0.75, 1.0]), rng.uniform(0, 2, 3))
        exact = ps.input_map(model, b, u, 1.0)                       # segment path
        plan = ps.EvolutionPlan(1.0, 0.0625, "exact_exponential")
        stepped = ps.mild_solution(model, b, model.space.zeros(), u, plan).states[-1]
        np.testing.assert_allclose(stepped, exact.values, atol=1e-12)

    def test_positive_input_lands_in_cone(self, toy, rng):
        _, model, b = toy
        for _ in range(25):
            u = steps_signal(rng)
            u = ps.InputSignal(u.breakpoints, np.abs(u.values))
            phi = ps.input_map(model, b, u, 2.0)
            assert np.min(phi.values) >= -1e-12

    def test_misaligned_signal_warns(self, toy):
        _, model, b = toy
        u = ps.InputSignal(np.array([0.0, 0.3]), np.array([1.0]))
        with pytest.warns(UserWarning, match="resampled onto the dt = 0.25 grid"):
            ps.mild_solution(model, b, model.space.zeros(), u, ps.EvolutionPlan(1.0, 0.25))
        with pytest.warns(UserWarning, match="resampled onto the dt = 0.25 grid"):
            additivity_check(model, b, u, ps.InputSignal.zero(), 1.0, dt=0.25)

    def test_implicit_method_close_to_exact(self, toy):
        _, model, b = toy
        u = ps.InputSignal.constant(1.0, 1.0)
        exact = ps.input_map(model, b, u, 1.0)
        approx = ps.mild_solution(model, b, model.space.zeros(), u, ps.EvolutionPlan(1.0, 1e-3)).states[-1]
        np.testing.assert_allclose(approx, exact.values, atol=5e-3)


class TestMildSolution:
    def test_reduces_to_evolve_without_input(self, toy, rng):
        _, model, b = toy
        x = model.space.vector(rng.random(2))
        plan = ps.EvolutionPlan(1.0, 0.25, "exact_exponential")
        with_input = ps.mild_solution(model, b, x, ps.InputSignal.zero(), plan)
        plain = free_evolution(model, x, plan)
        np.testing.assert_allclose(with_input.states, plain.states, atol=1e-13)

    def test_implicit_step_needs_dt_below_one_over_the_spectral_bound(self):
        model = ps.renewal_scenario(1.0, 50.0, cells=30).system.perturbed
        s = ps.spectral_bound(model)
        x, b, u = model.space.vector(np.ones(30)), np.zeros(30), ps.InputSignal.zero()
        for dt in (0.5, 1.001 / s):
            with pytest.raises(ps.SingularSystemError, match=r"dt s\(A\) < 1"):
                ps.mild_solution(model, b, x, u, ps.EvolutionPlan(2 * dt, dt, "implicit_euler"))
        dt = 0.999 / s
        traj = ps.mild_solution(model, b, x, u, ps.EvolutionPlan(2 * dt, dt, "implicit_euler"))
        assert np.min(traj.states) >= 0 and traj.norms()[-1] > traj.norms()[0]
        # the exact exponential takes any step
        ps.mild_solution(model, b, x, u, ps.EvolutionPlan(1.0, 0.5, "exact_exponential"))

    def test_renewal_steady_state(self):
        # constant unit inflow: z(inf) = R(0, A_S) B when r < 1
        rs = ps.renewal_scenario(1.0, 0.5, length=4.0, cells=40)
        model = rs.system.perturbed
        b = rs.boundary_input
        plan = ps.EvolutionPlan(40.0, 0.05, "exact_exponential")
        traj = ps.mild_solution(model, b, model.space.zeros(), ps.InputSignal.constant(1.0, 40.0), plan)
        target = ps.resolvent_apply(model, 0.0, b.column)
        assert ps.l1_norm(traj.final - target) < 1e-6

    @pytest.mark.filterwarnings("ignore:input breakpoints resampled:UserWarning")
    def test_superposition(self, toy, rng):
        _, model, b = toy
        x = model.space.vector(rng.random(2))
        u = steps_signal(rng, t_max=1.0)
        plan = ps.EvolutionPlan(1.0, 0.03125, "exact_exponential")
        full = ps.mild_solution(model, b, x, u, plan)
        free = free_evolution(model, x, plan)
        forced = ps.mild_solution(model, b, model.space.zeros(), u, plan)
        np.testing.assert_allclose(
            full.final.values, free.final.values + forced.final.values, atol=1e-12
        )


class TestAdmissibility:
    def test_boundary_impulse_norm_is_one(self, toy):
        _, model, b = toy
        # h-weighted norm of (1/h) e0 is exactly 1; decay afterwards
        assert ps.admissibility_constant(model, b, 1.0, p=1) == pytest.approx(1.0)

    def test_impulse_curve_decreasing_here(self, toy):
        _, model, b = toy
        norms = impulse_response_norms(model, b, 1.0, 1.0 / 64)
        assert norms[0] == pytest.approx(1.0)
        assert np.all(np.diff(norms) < 0)

    def test_impulse_curve_builds_no_input_operator(self, toy, monkeypatch):
        # the curve steps the implicit-Euler E alone, no (E, F) pair
        _, model, b = toy

        def refuse(*args):
            raise AssertionError("built the input operator F")

        monkeypatch.setattr(control, "step_input_operators", refuse)
        dt = 1.0 / 64
        norms = impulse_response_norms(model, b, 1.0, dt)
        # with a = 1 + 2 dt, E^k e0 = a^-k (1, k dt / a)
        a, k = 1.0 + 2.0 * dt, np.arange(65)
        assert np.allclose(norms, a**-k * (1 + k * dt / a), rtol=1e-12, atol=0)

    def test_markov_constant_in_tau(self):
        model = ps.markov_cycle_scenario(4)
        b = model.space.basis(0).values
        for tau in (0.5, 2.0, 7.0):
            assert ps.admissibility_constant(model, b, tau, p=1) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _quadrature(model):
        """(kappa_inf, kappa_2) at tau = 1 from a fine trapezoid rule on the
        exact impulse-response curve of the toy model."""
        e0 = np.array([1.0, 0.0])
        ts = np.linspace(0.0, 1.0, 4097)
        curve = np.array(
            [np.sum(np.abs(scipy.linalg.expm(model.matrix * t) @ e0)) for t in ts]
        )
        return np.trapezoid(curve, ts), np.sqrt(np.trapezoid(curve**2, ts))

    def test_default_stepper_p2_and_pinf_within_half_a_step(self, toy):
        # implicit Euler on the default dt = tau/1024 grid is first-order:
        # measured 1.58e-4 (p = inf) and 1.17e-4 (p = 2) off, under dt/2
        _, model, b = toy
        ref_inf, ref_2 = self._quadrature(model)
        tol = 0.5 / 1024
        assert ps.admissibility_constant(model, b, 1.0, p=np.inf) == pytest.approx(ref_inf, abs=tol)
        assert ps.admissibility_constant(model, b, 1.0, p=2) == pytest.approx(ref_2, abs=tol)

    def test_sampled_gain_is_lower_bound(self, toy, rng):
        # kappa bounds ||Phi_tau u|| / ||u||_1 for random nonnegative step signals
        _, model, b = toy
        kappa = ps.admissibility_constant(model, b, 1.0, p=1)
        dt = 1.0 / 128
        for _ in range(50):
            sig = ps.InputSignal(np.arange(129) * dt, rng.exponential(size=128) * (rng.random(128) < 0.5))
            phi = ps.mild_solution(model, b, model.space.zeros(), sig, ps.EvolutionPlan(1.0, dt)).states[-1]
            u_norm = np.sum(sig.values * np.diff(sig.breakpoints))
            assert ps.weighted_l1(phi, model.space) <= kappa * u_norm + 1e-9

    def test_uniform_decay_curve_monotone(self, toy):
        _, model, b = toy
        curve = ps.admissibility_curve(impulse_response_norms(model, b, 2.0, 1.0 / 512), 1.0 / 512, np.inf)
        assert curve[0] == 0.0 and np.all(np.diff(curve) > 0)

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_constant_is_the_last_point_of_the_curve(self, toy, p):
        _, model, b = toy
        curve = ps.admissibility_curve(impulse_response_norms(model, b, 1.0, 1.0 / 1024), 1.0 / 1024, p)
        assert ps.admissibility_constant(model, b, 1.0, p=p) == curve[-1]
        assert np.all(np.diff(curve) >= 0)

    def test_curve_refuses_other_p(self):
        with pytest.raises(ValueError, match="p must be 1, 2, or inf"):
            ps.admissibility_curve(np.ones(3), 0.5, 3)


class TestResolventBound:
    def test_scalar_oracle(self):
        # A = -I, B = e0, h = 1: ||R(lam)B|| = 1/(lam+1), bound max (lam-a)/(lam+1)
        space = ps.GridSpace(length=2.0, cells=2)
        model = ps.GeneratorModel.from_matrix(space, -np.eye(2))
        b = np.array([1.0, 0.0])
        grid = -0.5 + np.logspace(-1, 2, 25)
        m = resolvent_bound_audit(model, b, -0.5, p=1)
        expected = np.max((grid + 0.5) / (grid + 1.0))
        assert m == pytest.approx(expected, rel=1e-12)
        assert m < 1.0

    def test_large_lambda_finite(self, toy):
        _, model, b = toy
        for alpha in (1e3, 1e6):
            m = resolvent_bound_audit(model, b, alpha, p=1)
            assert np.isfinite(m)

    def test_renewal_grid_finite(self):
        rs = ps.renewal_scenario(1.0, 0.5, length=4.0, cells=50)
        alpha = -1.0
        m = resolvent_bound_audit(rs.generator, rs.boundary_input, alpha)
        assert np.isfinite(m) and m > 0

    def test_validates_alpha(self, toy):
        _, model, b = toy
        with pytest.raises(ValueError):
            resolvent_bound_audit(model, b, -3.0)  # alpha below s(A)
        with pytest.raises(ValueError, match="strictly above alpha"):
            resolvent_bound_audit(model, b, 1e17)  # alpha + 0.1 rounds to alpha


class TestSystemLaws:
    def test_law_checks_refuse_dt_past_spectrum(self):
        # s(A) = 100: the implicit-Euler step of the tau/64 grid at tau = 1
        # has dt s(A) = 1.56
        model = ps.GeneratorModel.from_matrix(ps.GridSpace(length=2.0, cells=2), [[100.0, 0.0], [1.0, -1.0]])
        b = np.array([1.0, 0.0])
        u = ps.InputSignal.constant(1.0, 0.5)
        with pytest.raises(ps.SingularSystemError, match="dt = 0.015625"):
            composition_law_check(model, b, u, 0.5, 0.5, dt=1 / 64)
        with pytest.raises(ps.SingularSystemError, match="dt = 0.015625"):
            additivity_check(model, b, u, u, 1.0, dt=1 / 64)
        with pytest.raises(ps.SingularSystemError, match="dt = 0.015625"):
            control.composition_probe(model, b, 1.0)
        # the exact map runs: Phi_1 1 = (e^100 - 1) / 100 in cell 0
        assert ps.input_map(model, b, ps.InputSignal.constant(1.0, 1.0), 1.0).values[0] == pytest.approx(
            np.expm1(100.0) / 100.0, rel=1e-12
        )

    def test_composition_zero_input(self, toy):
        _, model, b = toy
        assert composition_law_check(model, b, ps.InputSignal.zero(), 1.0, 1.0, dt=0.25) == 0.0

    def test_head_supported_signal(self, toy):
        # u supported in [0, t): the shifted tail vanishes
        _, model, b = toy
        u = ps.InputSignal(np.array([0.0, 0.5]), np.array([2.0]))
        res = composition_law_check(model, b, u, 1.0, 1.0, dt=0.125)
        assert res <= 1e-10

    @pytest.mark.filterwarnings("ignore:input breakpoints resampled:UserWarning")
    def test_random_signals(self, toy, rng):
        _, model, b = toy
        for _ in range(20):
            u = steps_signal(rng, t_max=2.0)
            res = composition_law_check(model, b, u, 1.0, 1.0, dt=0.0625)
            assert res <= 1e-10
            res2 = additivity_check(model, b, u, steps_signal(rng, t_max=2.0), 2.0, dt=0.0625)
            assert res2 <= 1e-10


class TestPositivityEquivalence:
    """The report's `positive_admissible` is the column test b >= 0.  On a
    Metzler A that is equivalent to R(lam, A) b >= 0 above s(A) and to
    Phi_t u >= 0 for u >= 0, which these oracles check numerically."""

    @given(
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        boundary=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_boundary_injection_all_green(self, n, seed, boundary):
        # random Metzler bands, s(A) < 64, with the boundary injection e_0 / h
        # or a random b >= 0: R(lam, A) b >= 0 from lam = s(A) + 0.1 (1 +
        # |s(A)|) up, and the implicit-Euler input maps of u = 1 on t / 64
        # grids, whose step is >= 0 while (t / 64) s(A) < 1, are >= 0
        model = random_bordered_metzler(n, seed)
        s = ps.spectral_bound(model)
        assert s < 64.0
        if boundary:
            col = ps.ControlOperator.boundary_injection(model.space).column
        else:
            col = np.random.default_rng(seed).exponential(size=n)
        for lam in s + np.array([1e-1, 1.0, 10.0, 100.0]) * (1.0 + abs(s)):
            g = ps.resolvent_apply(model, lam, col).values
            assert np.min(g) >= -1e-12 * np.max(np.abs(g))
        one = ps.InputSignal.constant(1.0, 1.0)
        for t in (0.5, 1.0):
            phi = ps.mild_solution(model, col, model.space.zeros(), one, ps.EvolutionPlan(t, t / 64)).states[-1]
            assert np.min(phi) >= -1e-12 * np.max(np.abs(phi))

    def test_signed_column_all_red(self, tmp_path, capsys):
        # the CLI's positive_admissible: true for the renewal boundary
        # injection, false for a column with a negative entry and no loop
        renewal = {"kind": "renewal", "q": 1.0, "beta": 0.5, "length": 20.0, "cells": 60}
        signed = {"kind": "explicit", "matrix": [[-2.0, 0.0], [1.0, -2.0]], "length": 2.0, "b": [1.0, -1.0]}
        for scenario, admissible in ((renewal, True), (signed, False)):
            cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
            cfg.write_text(json.dumps({"scenario": scenario, "audits": ["admissibility"]}))
            assert cli.main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["audits_run"] == ["admissibility"]
            assert report["positive_admissible"] is admissible


class TestStepPairs:
    """(E, F) pairs are built on every call, from the model they are given;
    a check builds one and hands it to each of its input maps."""

    @staticmethod
    def count_builds(monkeypatch):
        """The step of every exact-exponential operator built."""
        calls = []
        real = Uniformization.__init__

        def counted(self, model, tau):
            calls.append(tau)
            real(self, model, tau)

        monkeypatch.setattr(Uniformization, "__init__", counted)
        return calls

    def test_composition_law_builds_once(self, monkeypatch):
        calls = []
        real = control.step_input_operators

        def counted(model, b, dt, *args):
            calls.append(dt)
            return real(model, b, dt, *args)

        monkeypatch.setattr(control, "step_input_operators", counted)
        rs = ps.renewal_scenario(1.0, 0.5, length=2.0, cells=12)
        probe = ps.InputSignal.constant(1.0, 0.5)
        residual = composition_law_check(rs.generator, rs.boundary_input, probe, 0.5, 0.5, dt=1 / 64)
        assert residual <= 1e-12
        # one step pair serves the check and its three input maps
        assert calls == [1 / 64]

    def test_models_never_share_entries(self, monkeypatch):
        calls = self.count_builds(monkeypatch)
        space = ps.GridSpace(length=2.0, cells=2)
        b = ps.ControlOperator.boundary_injection(space)
        one = ps.GeneratorModel.from_matrix(space, [[-2.0, 0.0], [1.0, -2.0]])
        two = ps.GeneratorModel.from_matrix(space, [[-3.0, 0.0], [1.0, -3.0]])
        e1, _ = step_input_operators(one, b, 0.25, "exact_exponential")
        e2, _ = step_input_operators(two, b, 0.25, "exact_exponential")
        assert len(calls) == 2
        np.testing.assert_allclose(columns_of(e1, 2), scipy.linalg.expm(0.25 * one.matrix), atol=1e-14)
        np.testing.assert_allclose(columns_of(e2, 2), scipy.linalg.expm(0.25 * two.matrix), atol=1e-14)
