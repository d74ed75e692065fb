"""Upwind generators, resolvents, spectral bounds, inverse estimates."""
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import possys as ps
from possys import cli, generators
from possys.errors import EigensolverError, SingularSystemError
from possys.generators import inverse_estimate_constant, perron_mode, resolvent_matrix


class TestUpwindStructure:
    def test_zero_inflow_matrix(self, toy):
        _, model, _ = toy
        np.testing.assert_allclose(model.matrix, [[-2.0, 0.0], [1.0, -2.0]])

    def test_variable_absorption(self):
        space = ps.GridSpace(length=1.0, cells=4)
        q = np.array([1.0, 2.0, 3.0, 4.0])
        model = ps.build_upwind_generator(space, q)
        np.testing.assert_allclose(np.diag(model.matrix), -4.0 - q)
        np.testing.assert_allclose(np.diag(model.matrix, -1), 4.0)

    def test_wrap_boundary_couples_last_to_first(self):
        space = ps.GridSpace(length=1.0, cells=5)
        model = ps.build_upwind_generator(space, 0.0, wrap=2.0)
        assert model.matrix[0, -1] == pytest.approx(2.0 * 5.0)
        # columns sums telescope to (a-1)/h in the wrap column only
        np.testing.assert_allclose(np.sum(model.matrix, axis=0), [0, 0, 0, 0, 5.0])

    def test_rejects_negative_rates(self):
        space = ps.GridSpace(length=1.0, cells=3)
        with pytest.raises(ValueError):
            ps.build_upwind_generator(space, -1.0)
        for wrap, shown in ((-0.1, "-0.1"), (float("nan"), "nan"), (float("inf"), "inf")):
            with pytest.raises(ValueError, match=rf"^wrap gain must be finite and >= 0, got {shown}$"):
                ps.build_upwind_generator(space, 1.0, wrap=wrap)

    def test_from_matrix_detects_metzler(self):
        # a negative entry off the diagonal is refused and named, on bands
        # and on a matrix without them
        space = ps.GridSpace(length=2.0, cells=2)
        m = ps.GeneratorModel.from_matrix(space, np.array([[-1.0, 0.5], [2.0, -3.0]]))
        assert m.bands is not None
        with pytest.raises(ValueError, match=r"^generator is not Metzler: A\[0, 1\] = -0\.5$"):
            ps.GeneratorModel.from_matrix(space, np.array([[-1.0, -0.5], [2.0, -3.0]]))
        dense = np.array([[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [-0.25, 1.0, -1.0]])
        with pytest.raises(ValueError, match=r"^generator is not Metzler: A\[2, 0\] = -0\.25$"):
            ps.GeneratorModel.from_matrix(ps.GridSpace(length=3.0, cells=3), dense)


class TestResolvent:
    def test_toy_oracle(self, toy):
        _, model, _ = toy
        r = resolvent_matrix(model, 0.0)
        np.testing.assert_allclose(r, [[0.5, 0.0], [0.25, 0.5]], atol=1e-14)

    def test_identity_residual(self, toy, rng):
        _, model, _ = toy
        f = model.space.vector(rng.random(2))
        g = ps.resolvent_apply(model, 3.0, f)
        np.testing.assert_allclose(3.0 * g.values - model.matrix @ g.values, f.values, atol=1e-12)

    def test_near_eigenvalue_rejected(self, toy):
        _, model, _ = toy
        with pytest.raises(SingularSystemError):
            resolvent_matrix(model, -2.0)

    def test_positivity_scan(self, toy):
        # s(A) = -2: nonnegative above it, and at -3 the diagonal is negative
        _, model, _ = toy
        for lam in (-1.99, -1.0, 0.0, 1.0):
            assert np.min(resolvent_matrix(model, lam)) >= 0.0
        assert np.min(resolvent_matrix(model, -3.0)) < 0.0


class TestSpectralBound:
    def test_triangular_reads_diagonal(self, toy):
        _, model, _ = toy
        assert ps.spectral_bound(model) == -2.0

    def test_dense_fallback_matches_eig(self, rng):
        space = ps.GridSpace(length=1.0, cells=6)
        for _ in range(20):
            a = np.abs(rng.standard_normal((6, 6)))
            np.fill_diagonal(a, rng.standard_normal(6))
            model = ps.GeneratorModel.from_matrix(space, a)
            assert model.bands is None
            assert ps.spectral_bound(model) == pytest.approx(np.max(np.linalg.eigvals(a).real))

    def test_ring_formula(self):
        # eigenvalues (1/h)(a^{1/n} w_k - 1): rightmost at w_k = 1
        model = ps.ring_transport_scenario(gain=2.0, length=1.0, cells=100)
        expected = 100.0 * (2.0 ** 0.01 - 1.0)
        assert ps.spectral_bound(model) == pytest.approx(expected, abs=1e-9)

    def test_perron_mode_matches_dense(self, rng):
        space = ps.GridSpace(length=1.0, cells=12)
        a = rng.random((12, 12))
        a -= np.diag(np.sum(a, axis=0) + 0.5)
        model = ps.GeneratorModel.from_matrix(space, a)
        rate, vec = perron_mode(model)
        assert rate == pytest.approx(np.max(np.linalg.eigvals(a).real), abs=1e-7)
        assert np.all(vec >= -1e-12)
        assert np.sum(vec) == pytest.approx(1.0)


class TestInverseEstimate:
    def test_diagonal_oracle(self):
        # A = -I, h = 1: R(1, A) = I/2, every column score is 1/2
        space = ps.GridSpace(length=2.0, cells=2)
        model = ps.GeneratorModel.from_matrix(space, -np.eye(2))
        assert inverse_estimate_constant(model, 1.0) == pytest.approx(0.5)

    def test_toy_value(self, toy):
        _, model, _ = toy
        # R(0,A) columns (1/2, 1/4) and (0, 1/2): scores 3/4 and 1/2
        assert inverse_estimate_constant(model, 0.0) == pytest.approx(0.5)

    def test_is_a_lower_bound_on_the_cone(self, toy, rng):
        _, model, _ = toy
        c = inverse_estimate_constant(model, 0.0)
        for _ in range(200):
            x = model.space.vector(rng.random(2))
            g = ps.resolvent_apply(model, 0.0, x)
            assert ps.l1_norm(g) >= c * ps.l1_norm(x) - 1e-12

    def test_needs_lambda_beyond_spectrum(self, toy):
        _, model, _ = toy
        with pytest.raises(ValueError):
            inverse_estimate_constant(model, -2.5)

    def test_needs_positive_resolvent(self):
        # s(A) = 1: every entry of R(0.5, A) is negative, and lambda0 = 0.5
        # is refused
        space = ps.GridSpace(length=2.0, cells=2)
        m = ps.GeneratorModel.from_matrix(space, np.array([[-1.0, 2.0], [2.0, -1.0]]))
        assert np.max(resolvent_matrix(m, 0.5)) < 0
        with pytest.raises(ValueError, match="must exceed the spectral bound"):
            inverse_estimate_constant(m, 0.5)

    def test_curve_decreases(self, toy):
        _, model, _ = toy
        curve = [inverse_estimate_constant(model, lam) for lam in (0.0, 1.0, 2.0)]
        assert np.all(np.diff(curve) < 0)


class TestSpectralReport:
    """The report's spectral part is s_A alone: the resolvent is positive
    exactly above it, so no scan is reported."""

    def test_toy_fields(self, tmp_path, capsys):
        doc = {"scenario": {"kind": "explicit", "matrix": [[-2.0, 0.0], [1.0, -2.0]], "length": 2.0}, "audits": []}
        cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["s_A"] == -2.0
        assert "resolvent_positive_from" not in report

    def test_large_n_stays_cheap(self):
        rs = ps.renewal_scenario(1.0, 0.5, length=20.0, cells=2000)
        assert ps.spectral_bound(rs.generator) == pytest.approx(-101.0)


@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    offset=st.sampled_from([-1.0, -0.3, 0.3, 1.0, 5.0]),
)
@settings(max_examples=300, deadline=None)
def test_positivity_certificate_against_dense_entries(n, seed, offset):
    # random Metzler bands, some subdiagonal and feedback entries zero, at
    # lam on both sides of s(A): lam > s(A), with s(A) from the
    # characteristic root, exactly when the dense inverse is >= 0
    rng = np.random.default_rng(seed)
    diag = rng.uniform(-3.0, 1.0, n)
    sub = np.where(rng.random(n - 1) < 0.2, 0.0, rng.uniform(0.0, 3.0, n - 1))
    row0 = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
    row0[0] = diag[0]
    bands = ps.BorderedBidiagonal(diag, sub, row0)
    model = ps.GeneratorModel(ps.GridSpace(length=float(n), cells=n), bands=bands)
    a = bands.toarray()
    ev = np.linalg.eigvals(a)
    s = float(np.max(ev.real))
    lam = s + offset * (1.0 + abs(s))
    if np.min(np.abs(lam - ev)) < 1e-6 * (1.0 + abs(lam)):
        return
    r = np.linalg.solve(lam * np.eye(n) - a, np.eye(n))
    assert (lam > ps.spectral_bound(model)) == bool(np.min(r) >= -1e-12 * np.max(np.abs(r))) == (offset > 0)
    assert model._dense is None


@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    offset=st.sampled_from([-10.0, -1.0, -0.1, -1e-3, 1e-3, 0.1, 1.0, 10.0]),
)
@settings(max_examples=300, deadline=None)
def test_positivity_closed_form_against_dense_resolvent(n, seed, offset):
    # random dense Metzler matrices, some off-diagonal entries zero: for a
    # Z-matrix lam I - A the inverse is nonnegative exactly when lam > s(A),
    # as the smallest entry of the dense resolvent shows wherever its solve
    # is not refused
    rng = np.random.default_rng(seed)
    a = np.where(rng.random((n, n)) < 0.3, 0.0, rng.uniform(0.0, 2.0, (n, n)))
    np.fill_diagonal(a, rng.uniform(-4.0, 1.0, n))
    model = ps.GeneratorModel.from_matrix(ps.GridSpace(length=float(n), cells=n), a)
    s = ps.spectral_bound(model)
    lam = s + offset * (1.0 + abs(s))
    try:
        r = resolvent_matrix(model, lam)
    except SingularSystemError:
        return
    assert (lam > ps.spectral_bound(model)) == bool(np.min(r) >= -1e-12) == (offset > 0)


def test_threads_share_one_perron_computation(monkeypatch):
    """`_perron` is the one value a model keeps: eight threads reading s(A)
    of a fresh banded model at once run the characteristic root once and
    read the same value."""
    calls = []
    real = generators._characteristic_root

    def counted(bands):
        calls.append(bands.cells)
        return real(bands)

    monkeypatch.setattr(generators, "_characteristic_root", counted)
    model = ps.ring_transport_scenario(2.0, length=1.0, cells=400)
    barrier = threading.Barrier(8, timeout=30)
    values = []

    def read():
        barrier.wait()
        values.append(ps.spectral_bound(model))

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
    assert calls == [400]
    assert len(values) == 8 and len(set(values)) == 1
