"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
oracle here is a closed form or an independent dense computation.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.optimize

import possys as ps
from possys import cli
from possys.control import additivity_check, composition_law_check
from possys.generators import inverse_estimate_constant, resolvent_matrix
from possys.perturbation import domination_check, small_gain_radius, variation_of_constants_check
from possys.semigroup import FIT_STEPS, decay_horizon


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL - {label}")
        raise
    print(f"criterion {num:02d}: PASS - {label}")


def test_criterion_01_renewal_small_gain_radius():
    with criterion(1, "renewal small-gain radius vs closed forms, under 10 s"):
        beta0, n, length = 0.5, 2000, 20.0
        start = time.perf_counter()
        rs = ps.renewal_scenario(1.0, beta0, length=length, cells=n)
        r = small_gain_radius(rs.system)
        elapsed = time.perf_counter() - start
        h = length / n
        discrete = beta0 * h * np.sum(np.cumprod(np.full(n, 1.0 / (1.0 + h))))
        continuum = beta0 * (1.0 - np.exp(-20.0))
        assert abs(r - discrete) <= 1e-9, (r, discrete)
        assert abs(r - continuum) <= 1e-3, (r, continuum)
        assert elapsed < 10.0, elapsed


def test_criterion_02_threshold_flip(toy):
    with criterion(2, "verdict flips across beta0 = 4/3 on the 2-cell family"):
        _, model, b = toy

        assert ps.iss_verdict(ps.assemble_perturbed(model, b, 1.2)).verdict == "eISS"
        assert ps.iss_verdict(ps.assemble_perturbed(model, b, 1.4)).verdict == "not_eISS"

        def closed_loop_bound(beta0):
            return ps.spectral_bound(ps.assemble_perturbed(model, b, beta0).perturbed)

        root = scipy.optimize.brentq(closed_loop_bound, 1.2, 1.4, xtol=1e-12)
        assert abs(root - 4.0 / 3.0) <= 1e-9, root


def test_criterion_03_sup_norm_sufficient_condition():
    with criterion(3, "sup-norm birth bound gives r < 1 and eISS on 50 profiles"):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(100, 400))
            q0 = rng.uniform(0.5, 2.0)
            shape = rng.uniform(0.05, 1.0, n)
            shape[rng.integers(0, n)] = 1.0  # pin sup beta = factor * q0
            factor = rng.uniform(0.05, 0.95)
            beta = factor * q0 * shape
            rs = ps.renewal_scenario(q0, beta, length=20.0 / q0, cells=n)
            assert np.max(beta) < q0
            r = small_gain_radius(rs.system)
            assert r < 1.0, (r, q0, factor)
            assert ps.iss_verdict(rs.system).verdict == "eISS"


def test_criterion_04_domination_suite():
    with criterion(4, "T(t) <= S(t) and resolvent ordering on 20 random pairs"):
        rng = np.random.default_rng(44)
        for _ in range(20):
            n = int(rng.integers(3, 51))
            space = ps.GridSpace(length=float(n), cells=n)
            off = rng.random((n, n)) * 0.5
            np.fill_diagonal(off, 0.0)
            p = rng.random((n, n)) * 0.2
            a = off - np.diag(np.sum(off, axis=0) + np.sum(p, axis=0) + rng.uniform(0.1, 1.0, n))
            base = ps.GeneratorModel.from_matrix(space, a)
            system = ps.PerturbedSystem.from_matrix(base, p)
            s_pert = ps.spectral_bound(system.perturbed)
            lam_grid = s_pert + np.array([0.5, 1.0, 2.0, 5.0, 10.0])
            rep = domination_check(system, (0.1, 1.0, 10.0), lam_grid, tol=1e-10)
            assert rep.ok, rep
            assert not rep.exponential_violations and not rep.resolvent_violations


def test_criterion_05_variation_of_constants():
    with criterion(5, "variation-of-constants residual halves with dt"):
        rs = ps.renewal_scenario(1.0, 0.5, length=4.0, cells=50)
        x = rs.generator.space.vector(np.exp(-np.linspace(0.0, 3.0, 50)))
        residuals = [
            variation_of_constants_check(rs.system, x, 1.0, dt).residual
            for dt in (1e-2, 5e-3, 2.5e-3)
        ]
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 1.6 <= coarse / fine <= 2.4, residuals


def test_criterion_06_inverse_estimate_oracle():
    with criterion(6, "column-score c equals the sampled cone minimum, 1e5 draws"):
        rng = np.random.default_rng(46)
        for _ in range(10):
            n = int(rng.integers(3, 26))
            space = ps.GridSpace(length=1.0, cells=n)
            off = rng.random((n, n)) * rng.uniform(0.1, 2.0)
            np.fill_diagonal(off, 0.0)
            a = off - np.diag(np.sum(off, axis=0) + rng.uniform(0.1, 1.0, n))
            model = ps.GeneratorModel.from_matrix(space, a)
            lam0 = ps.spectral_bound(model) + 1.0
            c = inverse_estimate_constant(model, lam0)
            r = resolvent_matrix(model, lam0)

            draws = 100_000
            x = rng.exponential(1.0, size=(n, draws))
            # vertex rays: the minimum is attained on a basis direction
            idx = np.arange(draws) % n
            x[:, : 10 * n] = 0.0
            x[idx[: 10 * n], np.arange(10 * n)] = rng.uniform(0.1, 10.0, 10 * n)
            ratios = np.sum(np.abs(r @ x), axis=0) / np.sum(x, axis=0)
            assert abs(np.min(ratios) - c) <= 1e-12, (np.min(ratios), c)


def test_criterion_07_markov_identity(rng):
    with criterion(7, "cycle chain satisfies lam * ||R f|| = ||f|| exactly"):
        model = ps.markov_cycle_scenario(6)
        for lam in (0.5, 1.0, 5.0):
            for _ in range(100):
                f = model.space.vector(rng.random(6) + 1e-3)
                g = ps.resolvent_apply(model, lam, f)
                assert abs(lam * ps.l1_norm(g) / ps.l1_norm(f) - 1.0) <= 1e-10


def test_criterion_08_ring_transport_estimate(rng):
    with criterion(8, "doubling ring resolvent keeps ||R f|| >= ||f|| / lam"):
        model = ps.ring_transport_scenario(gain=2.0, length=1.0, cells=100)
        for lam in (np.log(2.0) + 0.1, 2.0, 5.0):
            for _ in range(100):
                f = model.space.vector(rng.random(100) + 1e-3)
                g = ps.resolvent_apply(model, lam, f)
                assert ps.l1_norm(g) >= ps.l1_norm(f) / lam - 1e-12


def test_criterion_09_control_system_laws():
    with criterion(9, "composition and additivity laws hold to 1e-10 on 100 signals"):
        rs = ps.renewal_scenario(1.0, 0.5, length=20.0, cells=200)
        model, b = rs.generator, rs.boundary_input
        rng = np.random.default_rng(49)
        dt, t, tau = 0.05, 1.0, 1.0
        grid = np.arange(0, int(round((t + tau) / dt)) + 1) * dt
        for _ in range(100):
            k = rng.integers(1, 5)
            cuts = np.sort(rng.choice(np.arange(1, len(grid) - 1), size=k, replace=False))
            bp = np.concatenate([[0.0], grid[cuts], [t + tau]])
            u = ps.InputSignal(bp, rng.exponential(1.0, size=len(bp) - 1))
            assert composition_law_check(model, b, u, t, tau, dt=dt) <= 1e-10
            v = ps.InputSignal(np.array([0.0, t + tau]), np.array([rng.exponential(1.0)]))
            assert additivity_check(model, b, u, v, t + tau, dt=dt) <= 1e-10


def test_criterion_10_iss_estimate_validation():
    with criterion(10, "fitted (N, mu, G) envelope holds on 500 random pairs stepped densely"):
        rs = ps.renewal_scenario(1.0, 0.5, length=20.0, cells=60)
        # raises GainValidationError on any violation beyond -1e-8 slack
        n_amp, mu, gain = ps.iss_gain_fit(rs.system, rs.boundary_input)
        a = rs.system.perturbed.matrix
        s_closed = float(np.max(np.linalg.eigvals(a).real))
        assert abs(mu - abs(s_closed)) <= 0.05, (mu, s_closed)
        assert n_amp >= 1.0 and gain > 0.0
        # the fit's implicit-Euler grid, stepped with a dense inverse
        n, h = rs.system.perturbed.cells, rs.system.perturbed.space.spacing
        steps = FIT_STEPS
        dt = decay_horizon(ps.spectral_bound(rs.system.perturbed)) / steps
        e = np.linalg.inv(np.eye(n) - dt * a)
        f = dt * (e @ rs.boundary_input.column)
        rng = np.random.default_rng(50)
        pairs = 500
        z = rng.exponential(size=(n, pairs)) * 10.0 ** rng.uniform(-1, 1, size=pairs)
        z[:, ::7] = 0.0
        u = np.zeros((steps, pairs))
        for i in range(pairs):
            for _ in range(rng.integers(0, 6)):
                lo, hi = np.sort(rng.integers(0, steps + 1, size=2))
                u[lo:hi, i] += rng.exponential() * 10.0 ** rng.uniform(-1, 1)
        x_norm, u_norm = h * z.sum(axis=0), np.zeros(pairs)
        for k in range(steps + 1):
            gaps = n_amp * np.exp(-mu * k * dt) * x_norm + gain * u_norm - h * np.abs(z).sum(axis=0)
            assert np.min(gaps) >= -1e-8, (k, int(np.argmin(gaps)), np.min(gaps))
            if k < steps:
                z = e @ z + np.outer(f, u[k])
                u_norm += dt * u[k]


def test_criterion_11_deterministic_reports(tmp_path, capsys):
    with criterion(11, "audit runs are byte-identical for fixed config and seed"):
        config = {
            "scenario": {"kind": "renewal", "q": 1.0, "beta": 0.5, "length": 20.0, "cells": 300},
            "seed": 11,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["audit", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["audit", "--config", str(cfg), "--out", str(out2)]) == 0
        raw1, raw2 = out1.read_bytes(), out2.read_bytes()
        assert raw1 == raw2
        assert json.loads(raw1)["verdict"] == "eISS"
