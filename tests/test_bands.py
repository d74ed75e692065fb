"""Band-stored generators against the dense assembly they replace."""
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import possys as ps
from possys import cli, generators, iss
from possys.control import input_recursion, mild_solution
from possys.errors import GainValidationError
from possys.generators import (
    BorderedBidiagonal,
    ShiftedInverse,
    _characteristic_root,
    _dense_inverse,
    perron_mode,
    shifted_inverse,
)
from possys.semigroup import EvolutionPlan, norm_curves, step_operator


def dense_upwind(space, q, boundary):
    """The dense upwind assembly, written out entry by entry."""
    n, h = space.cells, space.spacing
    q = np.broadcast_to(np.asarray(q, dtype=float), (n,))
    a = np.zeros((n, n))
    np.fill_diagonal(a, -1.0 / h - q)
    idx = np.arange(n - 1)
    a[idx + 1, idx] = 1.0 / h
    if isinstance(boundary, ps.ProportionalWrap):
        a[0, n - 1] += boundary.gain / h
    elif isinstance(boundary, ps.NonlocalBirth):
        a[0, :] += np.broadcast_to(boundary.rates, (n,))
    return a


def dense_markov(cells):
    mat = -np.eye(cells)
    idx = np.arange(cells)
    mat[(idx + 1) % cells, idx] += 1.0
    return mat


def assert_no_dense_view(model):
    assert model._dense is None


class TestAgainstDenseAssembly:
    @pytest.mark.parametrize("q, beta, cells", [
        (1.0, 0.5, 1),
        (1.0, 0.5, 40),
        (np.linspace(0.2, 2.0, 60), np.linspace(1.5, 0.0, 60), 60),
    ])
    def test_renewal(self, q, beta, cells):
        rs = ps.renewal_scenario(q, beta, length=6.0, cells=cells)
        space = rs.generator.space
        assert_no_dense_view(rs.generator)
        assert_no_dense_view(rs.system.perturbed)
        assert rs.system._dense is None
        a = dense_upwind(space, q, ps.ZeroInflow())
        col = np.zeros(cells)
        col[0] = 1.0 / space.spacing
        p = np.outer(col, np.broadcast_to(beta, (cells,)) * space.spacing)
        assert np.array_equal(rs.generator.matrix, a)
        assert np.array_equal(rs.system.perturbation, p)
        assert np.array_equal(rs.system.perturbed.matrix, a + p)
        for view in (rs.generator.matrix, rs.system.perturbation, rs.system.perturbed.matrix):
            assert not view.flags.writeable
        # the view is built once
        assert rs.generator.matrix is rs.generator.matrix

    @pytest.mark.parametrize("gain", [0.5, 2.0])
    @pytest.mark.parametrize("cells", [1, 2, 30])
    def test_ring(self, gain, cells):
        model = ps.ring_transport_scenario(gain, length=1.5, cells=cells)
        assert model.bands is not None
        assert np.array_equal(model.matrix, dense_upwind(model.space, 0.0, ps.ProportionalWrap(gain)))

    def test_birth_boundary(self):
        space = ps.GridSpace(length=2.0, cells=7)
        rule = ps.NonlocalBirth(rates=np.linspace(0.0, 1.2, 7))
        model = ps.build_upwind_generator(space, 0.7, rule)
        assert np.array_equal(model.matrix, dense_upwind(space, 0.7, rule))

    @pytest.mark.parametrize("cells", [2, 3, 17])
    def test_markov_cycle(self, cells):
        model = ps.markov_cycle_scenario(cells)
        assert model.bands is not None
        assert np.array_equal(model.matrix, dense_markov(cells))
        assert np.array_equal(model.bands.toarray(), dense_markov(cells))

    @pytest.mark.parametrize("matrix, bordered", [
        ([[-2.0, 0.5, 1.0], [1.0, -2.0, 0.0], [0.0, 1.0, -3.0]], True),
        ([[-2.0, 0.0, 0.0], [1.0, -2.0, 0.0], [0.5, 1.0, -3.0]], False),
    ])
    def test_explicit(self, tmp_path, matrix, bordered):
        b, beta = [2.0, 0.0, 0.0], [0.5, 0.25, 1.0]
        doc = {"scenario": {"kind": "explicit", "matrix": matrix, "length": 3.0, "b": b, "beta": beta}}
        path = tmp_path / "explicit.json"
        path.write_text(json.dumps(doc))
        built = cli.build_scenario(cli.RunConfig.from_file(str(path)))
        a = np.array(matrix)
        p = np.outer(b, np.array(beta) * 1.0)
        assert (built.model.bands is not None) == bordered
        assert (built.system.perturbed.bands is not None) == bordered
        assert np.array_equal(built.model.matrix, a)
        assert np.array_equal(built.system.perturbation, p)
        assert np.array_equal(built.system.perturbed.matrix, a + p)

    @pytest.mark.parametrize("dt", [0.05, 0.5, 2.0])
    def test_explicit_bordered_step_against_dense(self, dt, rng):
        space = ps.GridSpace(length=3.0, cells=3)
        model = ps.GeneratorModel.from_matrix(space, [[-2.0, 0.5, 1.0], [1.0, -2.0, 0.0], [0.0, 1.0, -3.0]])
        op = step_operator(model, dt, "implicit_euler")
        dense = _dense_inverse(model, 1.0, dt)
        assert isinstance(op, ShiftedInverse) and np.min(dense) >= 0
        x = rng.standard_normal(3)
        np.testing.assert_allclose(op.toarray(), dense, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(op.T @ x, dense.T @ x, rtol=1e-13, atol=1e-15)

    def test_off_boundary_injection_takes_dense_sum(self):
        rs = ps.renewal_scenario(1.0, 0.0, length=2.0, cells=6)
        col = np.linspace(1.0, 0.0, 6)
        system = ps.assemble_perturbed(rs.generator, col, 0.4)
        p = np.outer(col, np.full(6, 0.4 * rs.generator.space.spacing))
        assert system.perturbed.bands is None
        assert np.array_equal(system.perturbed.matrix, rs.generator.matrix + p)
        assert system.small_gain_radius == pytest.approx(
            abs(np.full(6, 0.4 / 3.0) @ np.linalg.solve(-rs.generator.matrix, col)), rel=1e-12
        )

    def test_matvec_and_column_sums(self, rng):
        n = 9
        diag, sub, row0 = rng.standard_normal(n), rng.standard_normal(n - 1), rng.standard_normal(n)
        row0[0] = diag[0]
        bands = BorderedBidiagonal(diag, sub, row0)
        a = bands.toarray()
        assert np.array_equal(BorderedBidiagonal.detect(a).toarray(), a)
        x, block = rng.standard_normal(n), rng.standard_normal((n, 4))
        tol = dict(rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(bands.matvec(x), a @ x, **tol)
        np.testing.assert_allclose(bands.matvec(block), a @ block, **tol)
        # row0[0] is diag[0]: the adjoint counts it once
        assert row0[0] != 0.0
        np.testing.assert_allclose(bands.rmatvec(x), a.T @ x, **tol)
        np.testing.assert_allclose(bands.rmatvec(block), a.T @ block, **tol)
        np.testing.assert_allclose(bands.column_sums(), a.sum(axis=0), **tol)
        np.testing.assert_allclose(bands.column_sums(absolute=True), np.abs(a).sum(axis=0), **tol)

    def test_band_validation(self):
        with pytest.raises(ValueError, match="agree"):
            BorderedBidiagonal([-1.0, -2.0], [1.0], [-3.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            BorderedBidiagonal([-1.0, np.nan], [1.0], [-1.0, 0.0])
        with pytest.raises(ValueError, match="subdiagonal"):
            BorderedBidiagonal([-1.0, -1.0], [1.0, 1.0], [-1.0, 0.0])
        space = ps.GridSpace(length=1.0, cells=3)
        with pytest.raises(ValueError, match="cells"):
            ps.GeneratorModel(space, bands=BorderedBidiagonal([-1.0, -1.0], [1.0], [-1.0, 0.0]))
        with pytest.raises(TypeError):
            ps.GeneratorModel(space)


def test_large_simulation_stays_banded():
    """20000 cells and 20 implicit-Euler steps never build an n x n array."""
    tracemalloc.start()
    try:
        rs = ps.renewal_scenario(1.0, 0.5, length=20.0, cells=20000)
        model = rs.system.perturbed
        x = model.space.vector(np.exp(-((model.space.centers - 5.0) / 2.0) ** 2))
        u = ps.InputSignal.constant(1.0, 0.5)
        traj = mild_solution(model, rs.boundary_input, x, u, EvolutionPlan(1.0, 0.05, "implicit_euler"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (21, 20000)
    assert np.min(traj.states) >= 0.0
    for m in (rs.generator, model):
        assert_no_dense_view(m)
    assert rs.system._dense is None
    assert peak < 64e6


def _renewal_pair(cells=40):
    rs = ps.renewal_scenario(1.0, 0.5, length=6.0, cells=cells)
    return rs.generator, rs.system.perturbed


@pytest.mark.parametrize("which, lam, banded", [
    # renewal A, h = 0.15: lam = -4 is not dominant (|lam + 1/h + 1| < 1/h),
    # but A is lower bidiagonal, so it stays on the bands
    ("renewal", 1.0, True),
    ("renewal", -4.0, True),
    ("closed_loop", 1.0, True),
    ("closed_loop", -4.0, False),
    ("ring", 2.0, True),
    ("markov", 0.5, True),
])
def test_resolvent_solves_against_dense(which, lam, banded, rng):
    """resolvent_apply, the adjoint and inverse_estimate_constant against
    np.linalg.solve of the dense lam I - A."""
    model = {
        "renewal": lambda: _renewal_pair()[0],
        "closed_loop": lambda: _renewal_pair()[1],
        "ring": lambda: ps.ring_transport_scenario(2.0, length=1.0, cells=30),
        "markov": lambda: ps.GeneratorModel(
            ps.GridSpace(length=8.0, cells=8), bands=BorderedBidiagonal.detect(dense_markov(8))
        ),
    }[which]()
    n = model.cells
    m = lam * np.eye(n) - model.bands.toarray()
    op = shifted_inverse(model, lam, 1.0)
    assert isinstance(op, ShiftedInverse) == banded
    f = rng.standard_normal(n)
    ref = np.linalg.solve(m, f)
    tol = dict(rtol=1e-10, atol=1e-13 * np.max(np.abs(ref)))
    np.testing.assert_allclose(ps.resolvent_apply(model, lam, f).values, ref, **tol)
    ref_t = np.linalg.solve(m.T, f)
    np.testing.assert_allclose(op.T @ f, ref_t, rtol=1e-10, atol=1e-13 * np.max(np.abs(ref_t)))
    if lam > ps.spectral_bound(model):
        w = model.space.weights
        c_ref = np.min((w @ np.linalg.inv(m)) / w)
        assert ps.inverse_estimate_constant(model, lam) == pytest.approx(c_ref, rel=1e-12)
    assert (model._dense is None) == banded


# preset models and the steps (1, dt) and shifts (lam, 1) the audits take on
# them; at each, sigma - tau a_jj >= tau a_j+1,j in every column
PRESETS = {
    "renewal": lambda: ps.renewal_scenario(1.0, 0.5, length=20.0, cells=400).system.perturbed,
    "renewal_per_cell_q": lambda: ps.renewal_scenario(
        np.linspace(0.2, 2.0, 300), np.linspace(0.5, 0.0, 300), length=20.0, cells=300
    ).system.perturbed,
    "ring": lambda: ps.ring_transport_scenario(2.0, length=1.0, cells=300),
    "zero_inflow": lambda: ps.build_upwind_generator(ps.GridSpace(length=20.0, cells=400), 1.0),
}
SHIFTS = [(1.0, 0.05), (1.0, 0.0125), (1.0, 1.0), (0.5, 1.0), (10.0, 1.0), (1e3, 1.0)]


@pytest.mark.parametrize("which", sorted(PRESETS))
@pytest.mark.parametrize("sigma, tau", SHIFTS)
def test_forward_solve_is_solve_banded_bit_for_bit(which, sigma, tau, rng):
    """On column-dominant T the unpivoted factor is the LU that
    solve_banded's banded LAPACK solver forms, so the T-solve equals it bit
    for bit; the simulate CSV and the reports rest on this."""
    bands = PRESETS[which]().bands
    diag, sub = sigma - tau * bands.diag, -tau * bands.sub
    assert np.all(np.abs(diag[:-1]) >= np.abs(sub))
    op = ShiftedInverse(bands, sigma, tau)
    ab = np.vstack((diag, np.append(sub, 0.0)))
    for y in (rng.standard_normal(bands.cells), rng.standard_normal((bands.cells, 100))):
        assert np.array_equal(op._solve_t(y), scipy.linalg.solve_banded((1, 0), ab, y))


@pytest.mark.parametrize("which", sorted(PRESETS))
def test_tbtrs_receives_fortran_bands(which, monkeypatch, rng):
    """tbtrs takes its band in Fortran order; a C-ordered one would be copied
    on every call.  Every call, from the constructor on, gets an
    F-contiguous band, and solves as it would with a C-ordered copy."""
    real = generators._lapack_tbtrs()
    bands_seen = []

    def tbtrs(ab, b, **kwargs):
        bands_seen.append(ab)
        assert ab.flags.f_contiguous
        out = real(ab, b, **kwargs)
        assert np.array_equal(out[0], real(np.ascontiguousarray(ab), b, **kwargs)[0])
        return out

    monkeypatch.setattr(generators, "_lapack_tbtrs", lambda: tbtrs)
    model = PRESETS[which]()
    op = shifted_inverse(model, 1.0, 0.05)
    for y in (rng.standard_normal(model.cells), rng.standard_normal((model.cells, 5))):
        op @ y
        op.T @ y
    assert len(bands_seen) == 7


@pytest.mark.parametrize("l_max", [0.3, 0.83])
def test_prefix_solve_is_the_full_solve(l_max, rng):
    """A vector with a long zero tail is solved on its nonzero prefix when
    1/2 < max|l| < 1, and the result is the full tbtrs's bit for bit: past
    the cut the full solve's L recurrence sticks at a subnormal, which the
    division by D rounds to zero."""
    space = ps.GridSpace(length=1.0, cells=20000)
    # q = 0: l = (dt / h) / (1 + dt / h)
    op = ShiftedInverse(ps.build_upwind_generator(space, 0.0).bands, 1.0, l_max / (1.0 - l_max) * space.spacing)
    assert op._lmax == pytest.approx(l_max)
    lengths = []
    real = op._tbtrs

    def tbtrs(ab, b, **kwargs):
        lengths.append(len(b))
        return real(ab, b, **kwargs)

    op._tbtrs = tbtrs
    y = np.zeros(space.cells)
    y[:50] = rng.random(50)
    w = real(op._lower, y, uplo="L", diag="U")[0]
    z = op._solve_t(y)
    assert np.array_equal(z, w / op._d)
    (cut,) = lengths
    if l_max > 0.5:
        assert 50 < cut < 5000 and np.all(z[cut:] == 0.0)
        assert np.all(w[cut:] != 0.0) and np.max(np.abs(w[cut:])) < np.finfo(float).smallest_normal
    else:
        assert cut == space.cells


@pytest.mark.parametrize("which", sorted(PRESETS))
@pytest.mark.parametrize("sigma, tau", [(1.0, 0.05), (2.0, 1.0)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_block_apply_is_column_applies(which, sigma, tau, order, rng):
    """A trajectory stepped in a block comes out as it does alone."""
    model = PRESETS[which]()
    op = shifted_inverse(model, sigma, tau)
    block = np.asarray(rng.standard_normal((model.cells, 100)), order=order)
    for apply in (op.__matmul__, op.T.__matmul__):
        cols = np.column_stack([apply(block[:, j]) for j in range(block.shape[1])])
        assert np.array_equal(apply(block), cols)


@pytest.mark.parametrize("which", sorted(PRESETS))
@pytest.mark.parametrize("sigma, tau", [(1.0, 0.05), (1.0, 1.0)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_block_recursion_is_column_recursion(which, sigma, tau, order, rng):
    """input_recursion steps a block's columns bit for bit as it steps each
    column alone, over 200 steps, and writes neither the caller's block nor
    a block it has already yielded."""
    model = PRESETS[which]()
    e = shifted_inverse(model, sigma, tau)
    assert isinstance(e, ShiftedInverse)
    n, m = model.cells, 24
    f = tau * (e @ rng.exponential(size=n))
    start = np.asarray(rng.standard_normal((n, m)), order=order)
    kept = start.copy()
    u = rng.exponential(size=(200, m))
    u[:, ::5] = 0.0
    columns = [list(input_recursion(e, f, start[:, i], u[:, i])) for i in range(m)]
    yielded = []
    for k, z in enumerate(input_recursion(e, f, start, u)):
        assert np.array_equal(z, np.column_stack([col[k] for col in columns]))
        yielded.append((z, z.copy()))
    assert len(yielded) == 201
    assert np.array_equal(start, kept)
    assert all(np.array_equal(z, snap) for z, snap in yielded)


@pytest.mark.parametrize("lam", [-1.5, -4.0, -7.0])
def test_solves_off_column_dominance(lam, rng):
    """Renewal A at 60 cells, h = 0.1: for lam < -q, |a_j+1,j| > |lam - a_jj|,
    where a pivoting LU swaps rows.  The unpivoted factor of the bidiagonal
    T has |L| |D| = |T| and solves as accurately."""
    model = ps.renewal_scenario(1.0, 0.5, length=6.0, cells=60).generator
    bands = model.bands
    assert np.all(np.abs(lam - bands.diag[:-1]) < np.abs(bands.sub))
    m = lam * np.eye(60) - bands.toarray()
    op = shifted_inverse(model, lam, 1.0)
    assert isinstance(op, ShiftedInverse)
    for f in (rng.standard_normal(60), rng.standard_normal((60, 5))):
        for got, mat in ((op @ f, m), (op.T @ f, m.T)):
            ref = np.linalg.solve(mat, f)
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-13 * np.max(np.abs(ref)))


def test_default_audit_stays_banded(tmp_path, monkeypatch):
    """The five default audits at 3000 cells build no n x n array (72 MB)."""
    built = []
    real = cli.build_scenario

    def keep(cfg):
        built.append(real(cfg))
        return built[-1]

    monkeypatch.setattr(cli, "build_scenario", keep)
    doc = {"scenario": {"kind": "renewal", "q": 1.0, "beta": 0.5, "length": 20.0, "cells": 3000}}
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        assert cli.main(["audit", "--config", str(path), "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    report = json.loads(out.read_text())
    assert report["audits_run"] == list(cli.DEFAULT_AUDITS)
    (b,) = built
    assert report["s_A"] == ps.spectral_bound(b.model) and "resolvent_positive_from" not in report
    for m in (b.model, b.system.perturbed):
        assert_no_dense_view(m)
    assert b.system._dense is None
    assert peak < 64e6


def random_bordered_metzler(n, seed, off_loop="", absorb=0.0):
    """A random Metzler generator on bands: lower bidiagonal plus row 0.

    Some subdiagonal entries are zero and some diagonal entries positive;
    with `off_loop` the largest diagonal entry sits on a cell the feedback
    row cannot reach ("cut") or that feeds nothing back ("no_feedback"), so
    s(A) is either that entry or the characteristic root, depending on phi
    just above it.  Every third cell also absorbs at the rate `absorb`.
    """
    rng = np.random.default_rng(seed)
    diag = rng.uniform(-3.0, 1.0, n)
    sub = np.where(rng.random(n - 1) < 0.2, 0.0, rng.uniform(0.0, 3.0, n - 1))
    row0 = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
    if off_loop:
        j = int(rng.integers(1, n))
        diag[j] = np.max(diag) + rng.uniform(0.0, 1.0)
        if off_loop == "cut":
            sub[j - 1] = 0.0
        else:
            row0[j:] = 0.0
    diag[::3] -= absorb
    row0[0] = diag[0]
    bands = BorderedBidiagonal(diag, sub, row0)
    return ps.GeneratorModel(ps.GridSpace(length=float(n), cells=n), bands=bands)


@given(
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_envelope_check_cross_checks_forward_and_adjoint(n, seed):
    """On random bands the gain-fit validation's forward trajectory of
    x0 = 1, u = 1 matches its adjoint curves, so the cross-check passes;
    a halved or a doubled ||E^k x0|| raises at t = 0, and curves from an
    adjoint solve off by 1e-6 raise at the first step."""
    model = random_bordered_metzler(n, seed)
    dt, steps = 0.05, 60
    e = shifted_inverse(model, 1.0, dt)
    assert isinstance(e, ShiftedInverse) and np.min(e.toarray()) >= 0
    f = dt * (e @ np.random.default_rng(seed).exponential(size=n))
    times = np.arange(steps + 1) * dt

    def curves():
        _, _, (impulse, free) = norm_curves(model, e, steps, (f, np.ones(n)))
        return impulse, free

    impulse, free = curves()
    iss._cross_check(model, e, f, impulse, free, times)
    for scale in (0.5, 2.0):
        with pytest.raises(GainValidationError) as exc:
            iss._cross_check(model, e, f, impulse, scale * free, times)
        assert exc.value.time == 0.0
    real = ShiftedInverse._apply_adjoint
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ShiftedInverse, "_apply_adjoint", lambda op, y: real(op, y) * (1 + 1e-6))
        wrong = curves()
    with pytest.raises(GainValidationError) as exc:
        iss._cross_check(model, e, f, *wrong, times)
    assert exc.value.time == dt


class TestPerronMode:
    """The characteristic root on the bands against a dense eigensolve."""

    @staticmethod
    def check(model):
        rate, vec = perron_mode(model)
        ev, vecs = np.linalg.eig(model.matrix)
        i = int(np.argmax(ev.real))
        ref = np.abs(vecs[:, i].real)
        ref /= ref.sum()
        assert rate == pytest.approx(ev[i].real, abs=1e-8)
        np.testing.assert_allclose(vec, ref, atol=1e-8 * np.max(ref))
        assert np.all(vec >= 0.0) and np.sum(vec) == pytest.approx(1.0)
        return rate

    def test_unstable_renewal(self):
        rs = ps.renewal_scenario(1.0, 1.5, length=20.0, cells=300)
        assert rs.system.perturbed.bands is not None
        assert self.check(rs.system.perturbed) > 0.0

    def test_ring_gain_two(self):
        model = ps.ring_transport_scenario(2.0, length=1.0, cells=60)
        rate = self.check(model)
        assert rate == pytest.approx(60.0 * (2.0 ** (1.0 / 60.0) - 1.0), abs=1e-8)

    @pytest.mark.parametrize("cells", [2400, 5000])
    @pytest.mark.parametrize("beta", [0.5, 1.5])
    def test_large_spectral_bound_is_the_lotka_root(self, cells, beta):
        # s(A_S) comes from the characteristic root on the bands; the
        # discrete Euler-Lotka equation sum_j beta h d_j = 1,
        # d_j = (1 + h (lam + q))^-(j + 1), is the same equation written out
        rs = ps.renewal_scenario(1.0, beta, length=20.0, cells=cells)
        h = 20.0 / cells

        def lotka(lam):
            return beta * h * np.sum(np.cumprod(np.full(cells, 1.0 / (1.0 + h * (lam + 1.0))))) - 1.0

        root = scipy.optimize.brentq(lotka, -0.9, 5.0, xtol=1e-14)
        assert ps.spectral_bound(rs.system.perturbed) == pytest.approx(root, abs=1e-11)
        assert_no_dense_view(rs.system.perturbed)

    def test_banded_path_builds_no_dense_view(self):
        rs = ps.renewal_scenario(1.0, 1.5, length=20.0, cells=3000)
        rate, _ = perron_mode(rs.system.perturbed)
        assert rate > 0.0
        assert_no_dense_view(rs.system.perturbed)

    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        off_loop=st.sampled_from(["", "cut", "no_feedback"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_bordered_metzler_against_eigvals(self, n, seed, off_loop):
        model = random_bordered_metzler(n, seed, off_loop)
        a = model.bands.toarray()
        ref = float(np.max(np.linalg.eigvals(a).real))
        s = ps.spectral_bound(model)
        assert abs(s - ref) <= 1e-10 * (1.0 + abs(ref))
        rate, vec = perron_mode(model)
        assert abs(rate - s) <= 1e-10 * (1.0 + abs(s))
        assert np.all(vec >= 0.0) and np.sum(vec) == pytest.approx(1.0, abs=1e-12)
        resid = np.sum(np.abs(a @ vec - rate * vec))
        assert resid <= 1e-10 * (np.sum(np.abs(a) @ vec) + abs(rate))

    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        shape=st.sampled_from(["lower", "zero_sub"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_triangular_bands_take_max_diag(self, n, seed, shape):
        # no loop closes through row 0: s(A) is max diag, bit for bit, and
        # the root gives no eigenvector
        model = random_bordered_metzler(n, seed)
        b = model.bands
        row0, sub = b.row0.copy(), b.sub.copy()
        if shape == "lower":
            row0[1:] = 0.0
        else:
            sub[:] = 0.0
        bands = BorderedBidiagonal(b.diag, sub, row0)
        assert _characteristic_root(bands) == (np.max(b.diag), None)
        assert ps.spectral_bound(ps.GeneratorModel(model.space, bands=bands)) == np.max(b.diag)

    @pytest.mark.parametrize("cells", [60, 400, 2400, 20000])
    @pytest.mark.parametrize("gain", [0.5, 2.0, 7.0])
    def test_ring_closed_form(self, monkeypatch, cells, gain):
        # (1 + h lam)^-n gain = 1: s = (gain^(1/n) - 1) / h, h = 1 / n; the
        # power iteration this replaced did not converge on the ring
        monkeypatch.setattr(np.linalg, "eigvals", None)
        model = ps.ring_transport_scenario(gain, length=1.0, cells=cells)
        exact = math.expm1(math.log(gain) / cells) * cells
        assert ps.spectral_bound(model) == pytest.approx(exact, rel=1e-11)
        rate, vec = perron_mode(model)
        assert rate == ps.spectral_bound(model)
        # eigenvector entries fall by 1 / (1 + h s) = gain^(-1/n) per cell
        ref = np.exp(-np.arange(cells) * math.log(gain) / cells)
        np.testing.assert_allclose(vec, ref / np.sum(ref), rtol=1e-9)
        assert_no_dense_view(model)

    @pytest.mark.parametrize("cells", [2, 3, 17, 500])
    def test_markov_cycle_bound_is_zero(self, cells):
        model = ps.markov_cycle_scenario(cells)
        assert ps.spectral_bound(model) == pytest.approx(0.0, abs=1e-13)
        rate, vec = perron_mode(model)
        np.testing.assert_allclose(vec, 1.0 / cells, rtol=1e-12)
