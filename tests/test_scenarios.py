"""Preset scenario builders."""
import json

import numpy as np
import pytest

import possys as ps
from possys import cli
from possys.scenarios import profile_array
from test_semigroup import free_evolution


class TestRenewal:
    def test_flags(self):
        rs = ps.renewal_scenario(1.0, 0.5, length=2.0, cells=20)
        assert rs.sup_beta_below_sup_q and rs.sup_beta_below_min_q
        rs2 = ps.renewal_scenario(np.linspace(0.5, 2.0, 20), 1.0, length=2.0, cells=20)
        assert rs2.sup_beta_below_sup_q and not rs2.sup_beta_below_min_q

    def test_default_length_resolves_decay(self):
        rs = ps.renewal_scenario(2.0, 0.1)
        assert rs.generator.space.length == pytest.approx(10.0)  # 20 / min q

    def test_zero_absorption_needs_explicit_length(self):
        with pytest.raises(ValueError):
            ps.renewal_scenario(0.0, 0.1)
        rs = ps.renewal_scenario(0.0, 0.1, length=5.0, cells=50)
        assert rs.generator.space.length == 5.0

    def test_system_wiring(self):
        rs = ps.renewal_scenario(1.0, 0.5, length=2.0, cells=20)
        assert rs.system.base is rs.generator
        assert rs.parameters["cells"] == 20

    def test_profiles_can_vary(self):
        q = np.linspace(1.0, 2.0, 30)
        beta = np.linspace(0.0, 0.9, 30)
        rs = ps.renewal_scenario(q, beta, length=3.0, cells=30)
        h = rs.generator.space.spacing
        np.testing.assert_array_equal(rs.generator.bands.diag[1:], -1.0 / h - q[1:])


class TestProfileArray:
    def test_scalar_broadcast(self):
        np.testing.assert_array_equal(profile_array(2.0, 4), [2.0, 2.0, 2.0, 2.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            profile_array(-1.0, 3)
        with pytest.raises(ValueError):
            profile_array(np.array([1.0, -0.1, 0.0]), 3)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            profile_array(np.ones(4), 3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            profile_array(np.array([1.0, np.inf]), 2)


class TestRing:
    def test_eigenvalue_formula(self):
        for a, n in ((0.5, 50), (2.0, 100)):
            model = ps.ring_transport_scenario(gain=a, length=1.0, cells=n)
            expected = n * (a ** (1.0 / n) - 1.0)
            assert ps.spectral_bound(model) == pytest.approx(expected, abs=1e-9)

    def test_unit_gain_conserves_mass(self, rng):
        model = ps.ring_transport_scenario(gain=1.0, length=1.0, cells=40)
        x = model.space.vector(rng.random(40))
        traj = free_evolution(model, x, ps.EvolutionPlan(1.0, 0.05, "exact_exponential"))
        assert ps.l1_norm(traj.final) == pytest.approx(ps.l1_norm(x), rel=1e-12)


class TestMarkov:
    def test_columns_sum_to_zero(self):
        model = ps.markov_cycle_scenario(7)
        np.testing.assert_allclose(np.sum(model.matrix, axis=0), 0.0, atol=1e-15)
        assert model.space.spacing == 1.0

    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            ps.markov_cycle_scenario(1)

    def test_mass_conserved_on_cone(self, rng):
        model = ps.markov_cycle_scenario(5)
        x = model.space.vector(rng.random(5))
        traj = free_evolution(model, x, ps.EvolutionPlan(2.0, 0.1, "exact_exponential"))
        np.testing.assert_allclose(traj.norms(), ps.l1_norm(x), rtol=1e-12)

    def test_cycle_is_the_unit_ring_on_bands(self, tmp_path, capsys):
        # the gain-1 ring with h = 1: stored as bands and no dense array, with
        # the dense cycle as its matrix, and the 8-cell report the dense
        # build gave
        model = ps.markov_cycle_scenario(8)
        assert model.bands is not None and model._dense is None
        cycle = -np.eye(8)
        cycle[(np.arange(8) + 1) % 8, np.arange(8)] += 1.0
        assert np.array_equal(model.matrix, cycle)
        cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg.write_text(json.dumps({"scenario": {"kind": "markov_cycle", "cells": 8}, "audits": list(cli.KNOWN_AUDITS)}))
        assert cli.main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["audits_run"] == ["inverse_estimate", "left_invertibility"]
        assert (report["s_A"], report["lambda0"], report["c"]) == (0.0, 1.0, 1.0)
        assert report["left_invertibility"] == {"amplitude": 1.0, "holds": True, "rate": 0.0}
