"""ISS verdicts and the fitted (N, mu, G) envelope."""
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import possys as ps
from possys import cli, iss, semigroup
from possys.control import input_recursion, step_input_operators
from possys.errors import GainValidationError
from possys.iss import EISS, GUARD_BAND, INCONCLUSIVE, NOT_EISS, ISSReport

DATA = Path(__file__).parent / "data"


def closed_loop(toy, beta0):
    _, model, b = toy
    return ps.assemble_perturbed(model, b, beta0)


class TestVerdict:
    def test_stable_side(self, toy):
        rep = ps.iss_verdict(closed_loop(toy, 1.2))
        assert rep.verdict == EISS
        assert rep.small_gain_radius == pytest.approx(0.9)
        assert rep.witness is None

    def test_unstable_side_with_witness(self, toy):
        rep = ps.iss_verdict(closed_loop(toy, 1.4))
        assert rep.verdict == NOT_EISS
        assert rep.small_gain_radius == pytest.approx(1.05)
        assert rep.witness is not None
        assert rep.witness["growth_rate"] > 0
        x = np.array(rep.witness["initial_state"])
        assert np.all(x >= -1e-12) and x.sum() == pytest.approx(1.0)

    def test_threshold_is_inconclusive(self, toy):
        # r = 0.75 * (4/3) rounds to just below 1: inside the guard band
        rep = ps.iss_verdict(closed_loop(toy, 4.0 / 3.0))
        assert rep.verdict == INCONCLUSIVE

    def test_stable_base_required(self):
        # wrap gain > 1 pushes s(A) past zero with no feedback at all
        model = ps.ring_transport_scenario(gain=2.0, length=1.0, cells=30)
        system = ps.PerturbedSystem.from_matrix(model, np.zeros((30, 30)))
        rep = ps.iss_verdict(system)
        assert rep.verdict == NOT_EISS


class TestReportInvariants:
    def test_rejects_unknown_verdict(self):
        with pytest.raises(ValueError):
            ISSReport(verdict="maybe", spectral_bound=-1.0, small_gain_radius=0.5)

    def test_eiss_needs_its_scalars(self):
        with pytest.raises(ValueError, match="contradicts"):
            ISSReport(verdict=EISS, spectral_bound=-1.0, small_gain_radius=1.5)


def fitted(built):
    """The gain fit of a built scenario's loop, with the step and its norm
    curves (||E^k||, ||E^k F||, ||E^k b||)."""
    system, col = built.system, built.injection.column
    model = system.perturbed
    steps = semigroup.FIT_STEPS
    dt = semigroup.decay_horizon(ps.spectral_bound(model)) / steps
    e, f = step_input_operators(model, col, dt)
    op, _, (imp, inj) = semigroup.norm_curves(model, e, steps, (f, col))
    return SimpleNamespace(
        model=model, fit=iss.iss_gain_fit(system, col), e=e, f=f, dt=dt,
        times=np.arange(steps + 1) * dt, curves=(op, imp, inj),
    )


class TestGainFit:
    def test_envelope_validates_on_fresh_samples(self, toy):
        system = closed_loop(toy, 1.0)
        _, model, b = toy
        n_amp, mu, g = ps.iss_gain_fit(system, b)
        assert n_amp >= 1.0 and mu > 0.0 and g > 0.0
        # decay rate tracks the closed-loop spectral bound
        s = ps.spectral_bound(system.perturbed)
        assert mu == pytest.approx(abs(s), abs=0.05)

    def test_norm_curves_take_adjoint_route(self):
        # the adjoint recursion is the only route of `norm_curves`: 800
        # steps of a 400-cell loop cost 800 band solves
        rs = ps.renewal_scenario(1.0, 0.5, length=20.0, cells=400)
        n_amp, mu, g = iss.iss_gain_fit(rs.system, rs.boundary_input)
        assert n_amp >= 1.0 and mu > 0.0 and g > 0.0

    def test_no_step_between_500_and_501_cells(self):
        # one stepper at every grid size: the fitted rates of neighbouring
        # grids agree, with no jump where a size switch used to change method
        fits = []
        for cells in (500, 501):
            rs = ps.renewal_scenario(1.0, 0.5, length=20.0, cells=cells)
            fits.append(ps.iss_gain_fit(rs.system, rs.boundary_input)[1])
        assert abs(fits[0] - fits[1]) <= 1e-6

    @pytest.mark.parametrize("name", ["renewal-n60"])
    def test_mu_is_the_implicit_euler_rate(self, name):
        # mu = log1p(-dt s(A_S)) / dt exactly
        v = fitted(cli.build_scenario(cli.RunConfig.from_file(str(DATA / f"{name}.json"))))
        s = ps.spectral_bound(v.model)
        assert v.fit[1] == math.log1p(-v.dt * s) / v.dt
        assert 0 < v.fit[1] < -s

    def test_loop_with_dt_s_at_least_one_is_refused(self, monkeypatch):
        # log1p(-dt s) is nan or -inf there, which a check of mu <= 0 would
        # let through; the loop is refused before any step
        rs = ps.renewal_scenario(1.0, 3.0, length=2.0, cells=30)
        s = ps.spectral_bound(rs.system.perturbed)
        dt = 2.0 / s
        assert dt * s >= 1

        def refuse(*args, **kwargs):
            raise AssertionError("stepped a loop without a decay rate")

        monkeypatch.setattr(iss, "norm_curves", refuse)
        for horizon, step in ((dt, dt), (4 * dt, dt), (None, None)):
            with pytest.raises(GainValidationError, match="is not negative"):
                iss.iss_gain_fit(rs.system, rs.boundary_input, horizon=horizon, dt=step)

    def test_refuses_an_injection_column_with_a_negative_entry(self, toy):
        # the adjoint pass rests on F >= 0, where the norm is additive
        with pytest.raises(ValueError, match=r"^injection column is not nonnegative: b\[1\] = -0\.5$"):
            ps.iss_gain_fit(closed_loop(toy, 1.0), np.array([1.0, -0.5]))

    def test_unstable_loop_refuses_to_fit(self, toy):
        system = closed_loop(toy, 1.5)
        _, model, b = toy
        with pytest.raises(GainValidationError):
            ps.iss_gain_fit(system, b)

    @staticmethod
    def renewal_n60():
        return cli.build_scenario(cli.RunConfig.from_file(str(DATA / "renewal-n60.json")))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_envelope_holds_on_random_cone_pairs(self, seed):
        """100 random nonnegative pairs on renewal-n60, u in L1 over the
        whole horizon, stay under the fit's own envelope (N, mu, G) at every
        grid time."""
        v = fitted(self.renewal_n60())
        n_amp, mu, gain = v.fit
        h, steps, trials = v.model.space.spacing, len(v.times) - 1, 100
        rng = np.random.default_rng(seed)
        z = rng.exponential(size=(v.model.cells, trials)) * 10.0 ** rng.uniform(-1, 1, size=trials)
        z[:, ::7] = 0.0
        u = np.zeros((steps, trials))
        for i in range(trials):
            if i % 5 == 4:
                continue
            marks = np.sort(rng.integers(0, steps + 1, size=2 * rng.integers(1, 6)))
            for a, b in zip(marks[::2], marks[1::2]):
                u[a:b, i] += rng.exponential() * 10.0 ** rng.uniform(-1, 1)
        envelope = n_amp * np.exp(-mu * v.times)
        for i in range(trials):
            x_norm, u_norm = h * z[:, i].sum(), v.dt * u[:, i].sum()
            for k, zk in enumerate(input_recursion(v.e, v.f, z[:, i], u[:, i])):
                gap = envelope[k] * x_norm + gain * u_norm - h * np.abs(zk).sum()
                assert gap >= -1e-8, (k, i, gap)

    def test_cone_route_holds_no_trials_by_steps_array(self):
        """Over 5000 steps the cone route keeps a few (steps + 1)-vectors;
        a 101 x 5001 array of trial norms alone would take 4 MB."""
        built = self.renewal_n60()
        args = (built.system, built.injection)
        iss.iss_gain_fit(*args, horizon=10.0, dt=0.002)
        tracemalloc.start()
        try:
            iss.iss_gain_fit(*args, horizon=10.0, dt=0.002)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    def test_report_with_envelope(self, toy):
        # an eISS verdict and its fitted envelope: N >= 1 by T(0) = I
        system = closed_loop(toy, 1.0)
        _, model, b = toy
        n_amp, mu, g = ps.iss_gain_fit(system, b)
        assert ps.iss_verdict(system).verdict == EISS
        assert n_amp >= 1.0 and mu > 0 and g > 0


@pytest.mark.parametrize("name", ["renewal-n60"])
def test_fit_is_the_sup_over_the_extremal_pairs(name):
    """N and G are the sups of the unit basis state's and the one-step unit
    pulse's ratios over the grid, so every grid point obeys both, and by the
    triangle inequality so does every pair: there is nothing to re-check.
    G is the largest ||E^k b||, and every one-step pulse ratio
    ||E^m F|| / dt, F = dt E b, lies under it."""
    v = fitted(cli.build_scenario(cli.RunConfig.from_file(str(DATA / f"{name}.json"))))
    n_amp, mu, gain = v.fit
    op, imp, inj = v.curves
    above = op > semigroup.NORM_FLOOR
    assert n_amp == np.max(op[above] * np.exp(mu * v.times[above]))
    assert gain == np.max(inj)
    assert np.all(n_amp * np.exp(-mu * v.times[above]) >= op[above] * (1 - 1e-15))
    assert np.all(imp[:-1] / v.dt <= gain * (1 + 1e-15))


def test_guard_band_constant():
    assert GUARD_BAND == 1e-9
