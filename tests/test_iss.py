"""ISS verdicts and the fitted (N, mu, G) envelope."""
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import possys as ps
from possys import cli, iss, semigroup
from possys.errors import GainValidationError
from possys.generators import ShiftedInverse
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

    def test_guard_band_widens_the_gap(self, toy):
        rep = ps.iss_verdict(closed_loop(toy, 1.2), guard=0.2)
        assert rep.verdict == INCONCLUSIVE  # r = 0.9 > 1 - 0.2

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

    def test_eiss_needs_positive_decay(self):
        with pytest.raises(ValueError):
            ISSReport(
                verdict=EISS, spectral_bound=-1.0, small_gain_radius=0.5,
                amplitude=2.0, decay_rate=-0.1, gain=1.0,
            )

    def test_amplitude_at_least_one(self):
        with pytest.raises(ValueError):
            ISSReport(
                verdict=EISS, spectral_bound=-1.0, small_gain_radius=0.5,
                amplitude=0.5, decay_rate=0.1, gain=1.0,
            )


class TestGainFit:
    def test_envelope_validates_on_fresh_samples(self, toy):
        system = closed_loop(toy, 1.0)
        _, model, b = toy
        n_amp, mu, g = ps.iss_gain_fit(system, b, trials=80, rng=np.random.default_rng(5))
        assert n_amp >= 1.0 and mu > 0.0 and g > 0.0
        # decay rate tracks the closed-loop spectral bound
        s = ps.spectral_bound(system.perturbed)
        assert mu == pytest.approx(abs(s), abs=0.05)

    def test_norm_curves_take_adjoint_route(self, monkeypatch):
        # the implicit-Euler step of the closed loop carries its structural
        # nonnegativity certificate, so the O(K n^3) signed fallback never runs
        def refuse(*args, **kwargs):
            raise AssertionError("signed fallback taken")

        monkeypatch.setattr(semigroup, "weighted_column_sums", refuse)
        rs = ps.renewal_scenario(1.0, 0.5, length=20.0, cells=400)
        n_amp, mu, g = iss.iss_gain_fit(rs.system, rs.boundary_input, trials=5)
        assert n_amp >= 1.0 and mu > 0.0 and g > 0.0

    def test_no_step_between_500_and_501_cells(self):
        # one stepper at every grid size: the fitted rates of neighbouring
        # grids agree, with no jump where a size switch used to change method
        fits = []
        for cells in (500, 501):
            rs = ps.renewal_scenario(1.0, 0.5, length=20.0, cells=cells)
            _, mu, _ = ps.iss_gain_fit(rs.system, rs.boundary_input, trials=5)
            fits.append((mu, ps.growth_estimate(rs.system.perturbed)))
        (mu_a, est_a), (mu_b, est_b) = fits
        assert abs(mu_a - mu_b) <= 1e-6
        assert abs(est_a - est_b) <= 1e-6

    def test_unstable_loop_refuses_to_fit(self, toy):
        system = closed_loop(toy, 1.5)
        _, model, b = toy
        with pytest.raises(GainValidationError):
            ps.iss_gain_fit(system, b, trials=10, rng=np.random.default_rng(5))

    @staticmethod
    def renewal_n60():
        return cli.build_scenario(cli.RunConfig.from_file(str(DATA / "renewal-n60.json")))

    @staticmethod
    def fit_dt(model):
        return semigroup.decay_horizon(ps.spectral_bound(model)) / semigroup.FIT_STEPS

    @staticmethod
    def scale_first_curves(monkeypatch, op=1.0, curves=1.0):
        """Scale the fit's norm curves, the first `norm_curves` call, and
        leave the validation's own call alone."""
        real = iss.norm_curves
        calls = []

        def scaled(*args):
            got_op, low, got = real(*args)
            calls.append(args)
            return (got_op * op, low, got * curves) if len(calls) == 1 else (got_op, low, got)

        monkeypatch.setattr(iss, "norm_curves", scaled)

    def test_cone_route_catches_an_understated_gain(self, monkeypatch):
        """With the fit's G halved on renewal-n60 the cone route raises on
        the unit pulse, and the forward route, which steps the random pairs
        through e @ z + F u_k, still finds the same worst trial as before."""
        built = self.renewal_n60()
        model = built.system.perturbed
        _, _, gain = iss.iss_gain_fit(built.system, built.injection, rng=np.random.default_rng(3))
        caught = []
        for forward in (False, True):
            with monkeypatch.context() as m:
                self.scale_first_curves(m, curves=0.5)
                if forward:
                    m.setattr(iss, "_nonnegative", lambda *args: False)
                with pytest.raises(GainValidationError) as exc:
                    iss.iss_gain_fit(built.system, built.injection, rng=np.random.default_rng(3))
            caught.append(exc.value)
        cone, column = caught
        dt = self.fit_dt(model)
        e, f = iss.step_input_operators(model, built.injection.column, dt)
        _, _, (imp,) = semigroup.norm_curves(model, e, semigroup.DEFAULT_METHOD, semigroup.FIT_STEPS, (f,))
        m = int(np.argmax(imp[:-1]))
        assert cone.trial == -1
        assert cone.gap == pytest.approx(0.5 * gain - imp[m] / dt, rel=1e-12)
        assert cone.gap == pytest.approx(-0.4756120469785379, rel=1e-12)
        assert cone.time == pytest.approx((m + 1) * dt, rel=1e-12)
        assert not np.any(cone.state)
        assert np.array_equal(cone.signal.values, [1.0 / dt])
        assert (column.trial, column.time) == (65, 11.99884471143604)
        assert column.gap == pytest.approx(-1.772546990928908, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_unit_pulse_catches_a_gain_the_trials_miss(self, monkeypatch, seed):
        """G x 0.9 on renewal-n60 passes the 100 random pairs; a unit pulse
        on the first step, whose norm reaches max_m ||E^m F|| / dt, does not."""
        built = self.renewal_n60()
        _, _, gain = iss.iss_gain_fit(built.system, built.injection, rng=np.random.default_rng(seed))
        self.scale_first_curves(monkeypatch, curves=0.9)
        with pytest.raises(GainValidationError) as exc:
            iss.iss_gain_fit(built.system, built.injection, rng=np.random.default_rng(seed))
        err = exc.value
        model = built.system.perturbed
        dt = self.fit_dt(model)
        e, f = iss.step_input_operators(model, built.injection.column, dt)
        _, _, (imp,) = semigroup.norm_curves(model, e, semigroup.DEFAULT_METHOD, semigroup.FIT_STEPS, (f,))
        m = int(np.argmax(imp[:-1]))
        assert err.trial == -1
        assert err.gap == pytest.approx(0.9 * gain - imp[m] / dt, rel=1e-12)
        assert err.gap < -0.07  # max c / dt = 0.9756 against G = 1
        assert err.time == pytest.approx((m + 1) * dt, rel=1e-12)
        assert not np.any(err.state)
        assert np.array_equal(err.signal.breakpoints, [0.0, dt])
        assert np.array_equal(err.signal.values, [1.0 / dt])

    def test_unit_basis_state_catches_an_understated_amplitude(self, monkeypatch):
        """One trial that starts at x = 0 cannot see N x 0.99; the basis
        state where ||E^k|| is attained can, and it is the witness."""
        built = self.renewal_n60()
        self.scale_first_curves(monkeypatch, op=0.99)
        with pytest.raises(GainValidationError) as exc:
            iss.iss_gain_fit(built.system, built.injection, trials=1, rng=np.random.default_rng(3))
        err = exc.value
        model = built.system.perturbed
        w = model.space.weights
        (j,) = np.flatnonzero(err.state)
        assert err.trial == -1 and err.gap < 0
        assert err.state[j] * w[j] == pytest.approx(1.0, rel=1e-15)
        assert len(err.signal.values) == 0
        dt = self.fit_dt(model)
        k = round(err.time / dt)
        e, _ = iss.step_input_operators(model, built.injection.column, dt)
        column = np.linalg.matrix_power(e.toarray(), k)[:, j]
        op, _, _ = semigroup.norm_curves(model, e, semigroup.DEFAULT_METHOD, k)
        assert w @ column / w[j] == pytest.approx(op[k], rel=1e-12)

    def test_cross_check_catches_a_wrong_adjoint(self, monkeypatch):
        """An adjoint solve off by 1e-6 moves every cone norm, and the
        forward trajectory of x0 = 1, u = 1 no longer matches them."""
        built = self.renewal_n60()
        real = ShiftedInverse._apply_adjoint
        monkeypatch.setattr(ShiftedInverse, "_apply_adjoint", lambda op, y: real(op, y) * (1 + 1e-6))
        with pytest.raises(GainValidationError) as exc:
            iss.iss_gain_fit(built.system, built.injection, rng=np.random.default_rng(3))
        assert exc.value.trial == -1
        # off from the first adjoint step on
        assert exc.value.time == self.fit_dt(built.system.perturbed)

    def test_cross_check_failure_exits_3(self, monkeypatch, tmp_path, capsys):
        doc = json.loads((DATA / "renewal-n60.json").read_text())
        doc["audits"] = ["iss", "gain_fit"]
        cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg.write_text(json.dumps(doc))
        real = ShiftedInverse._apply_adjoint
        monkeypatch.setattr(ShiftedInverse, "_apply_adjoint", lambda op, y: real(op, y) * (1 + 1e-6))
        assert cli.main(["audit", "--config", str(cfg), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("numerical failure: forward and adjoint norms")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

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
        system = closed_loop(toy, 1.0)
        _, model, b = toy
        n_amp, mu, g = ps.iss_gain_fit(system, b, trials=40, rng=np.random.default_rng(6))
        rep = ps.iss_verdict(system).with_envelope(n_amp, mu, g)
        assert rep.verdict == EISS
        assert rep.amplitude >= 1.0 and rep.decay_rate > 0 and rep.gain > 0


def test_guard_band_constant():
    assert GUARD_BAND == 1e-9
