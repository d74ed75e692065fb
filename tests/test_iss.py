"""ISS verdicts and the fitted (N, mu, G) envelope."""
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

    def test_block_route_catches_an_understated_gain(self, monkeypatch):
        """With G halved on renewal-n60 the random pairs violate the
        envelope, and the block route of the validation finds the same worst
        violation as the column recursion e @ z + F u_k."""
        built = cli.build_scenario(cli.RunConfig.from_file(str(DATA / "renewal-n60.json")))
        real = iss.norm_curves

        def halved(*args):
            op, low, (imp, inj) = real(*args)
            return op, low, (imp / 2, inj / 2)

        monkeypatch.setattr(iss, "norm_curves", halved)
        caught = []
        for advance in (ShiftedInverse.advance, lambda e, z, f, u: e @ z + np.multiply.outer(f, u)):
            monkeypatch.setattr(ShiftedInverse, "advance", advance)
            with pytest.raises(GainValidationError) as exc:
                iss.iss_gain_fit(built.system, built.injection, rng=np.random.default_rng(3))
            caught.append(exc.value)
        block, column = caught
        assert (block.trial, block.time) == (column.trial, column.time)
        assert block.gap == pytest.approx(column.gap, rel=1e-12)

    def test_report_with_envelope(self, toy):
        system = closed_loop(toy, 1.0)
        _, model, b = toy
        n_amp, mu, g = ps.iss_gain_fit(system, b, trials=40, rng=np.random.default_rng(6))
        rep = ps.iss_verdict(system).with_envelope(n_amp, mu, g)
        assert rep.verdict == EISS
        assert rep.amplitude >= 1.0 and rep.decay_rate > 0 and rep.gain > 0


def test_guard_band_constant():
    assert GUARD_BAND == 1e-9
