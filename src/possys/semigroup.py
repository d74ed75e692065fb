"""Time evolution for generator models.

Two steppers: the exact matrix exponential (dense, scaling-and-squaring) and
implicit Euler, which preserves positivity at O(dt) accuracy.  Every preset
generator is lower bidiagonal except row 0, and for those implicit Euler is a
bidiagonal solve plus a rank-one correction, O(n) per step; other matrices
take a dense inverse.  Operator norms along a trajectory use the adjoint
trick: for an entrywise-nonnegative step the weighted column sums evolve
under E^T, so the whole norm curve costs K adjoint applications.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.linalg

from .errors import SingularSystemError
from .generators import (
    RESIDUAL_TOL,
    BorderedBidiagonal,
    GeneratorModel,
    _lower_triangular,
    _upper_triangular,
    spectral_bound,
)
from .lattice import GridSpace, GridVector, induced_operator_norm

METHODS = ("exact_exponential", "implicit_euler")
# above this size dense expm is avoided by default
DENSE_EXPM_LIMIT = 500
_GRID_TOL = 1e-9
# pivots and Sherman-Morrison denominators at or below this (relative) are singular
_PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class EvolutionPlan:
    """Uniform time grid: `steps` steps of width dt up to t_end."""

    t_end: float
    dt: float
    method: str = "exact_exponential"

    def __post_init__(self):
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not (0 < self.dt <= self.t_end):
            raise ValueError(f"dt must lie in (0, t_end], got {self.dt}")
        k = round(self.t_end / self.dt)
        if abs(k * self.dt - self.t_end) > _GRID_TOL * max(1.0, self.t_end):
            raise ValueError(f"t_end = {self.t_end} is not a multiple of dt = {self.dt}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")

    @property
    def steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


@dataclass(frozen=True)
class Trajectory:
    space: GridSpace
    times: np.ndarray
    states: np.ndarray  # shape (len(times), cells)

    def vector_at(self, k: int) -> GridVector:
        return self.space.vector(self.states[k])

    def norms(self) -> np.ndarray:
        return self.space.spacing * np.sum(np.abs(self.states), axis=1)

    @property
    def final(self) -> GridVector:
        return self.space.vector(self.states[-1])


def _flush_subnormals(m: np.ndarray) -> np.ndarray:
    """Zero the subnormal entries of m in place and return it.

    expm of a stiff upwind generator leaves thousands of entries below the
    smallest normal double; dense products over them run several times
    slower on x86 while changing nothing above 1e-308.
    """
    m[np.abs(m) < np.finfo(m.dtype).tiny] = 0.0
    return m


def step_matrix(model: GeneratorModel, dt: float, method: str = "exact_exponential") -> np.ndarray:
    """Dense one-step propagator: exp(A dt) or (I - dt A)^{-1}."""
    a = model.matrix
    if method == "exact_exponential":
        return _flush_subnormals(scipy.linalg.expm(a * dt))
    if method == "implicit_euler":
        m = np.eye(model.cells) - dt * a
        try:
            if _lower_triangular(m) or _upper_triangular(m):
                if np.min(np.abs(np.diag(m))) <= 1e-12:
                    raise SingularSystemError(f"implicit Euler step singular at dt = {dt}")
                return scipy.linalg.solve_triangular(m, np.eye(model.cells), lower=_lower_triangular(m))
            return np.linalg.solve(m, np.eye(model.cells))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"implicit Euler step singular at dt = {dt}") from exc
    raise ValueError(f"unknown method {method!r}")


class _Applied:
    """`op @ y` for a function of y."""

    def __init__(self, apply):
        self._apply = apply

    def __matmul__(self, y):
        return self._apply(np.asarray(y, dtype=float))


class BidiagonalStep:
    """Implicit-Euler step (I - dt A)^{-1} for A given by its bands.

    I - dt A = T - e_0 r^T with T lower bidiagonal and r = dt A[0, 1:] (r_0 =
    0).  By Sherman-Morrison, with g = T^{-1} e_0 and the denominator
    1 - r^T g,

        (I - dt A)^{-1} y = T^{-1} y + g (r^T T^{-1} y) / (1 - r^T g),

    one banded solve per right-hand side, O(n) per column.  `.T @ y` applies
    the adjoint through the upper-bidiagonal T^T and the same denominator.
    `nonnegative` certifies (I - dt A)^{-1} >= 0 from structure: T has a
    positive diagonal and a nonpositive subdiagonal (so T^{-1} >= 0), r >= 0
    and the denominator is positive.
    """

    def __init__(self, bands: BorderedBidiagonal, dt: float):
        n = bands.cells
        a_diag = bands.diag
        a_sub = bands.sub
        diag = 1.0 - dt * a_diag
        sub = -dt * a_sub
        scale = 1.0 + dt * np.abs(a_diag)
        if np.any(np.abs(diag) <= _PIVOT_TOL * scale):
            raise SingularSystemError(f"implicit Euler step singular at dt = {dt}: zero pivot")
        self.shape = (n, n)
        self._lower = np.vstack((diag, np.append(sub, 0.0)))
        self._upper = np.vstack((np.insert(sub, 0, 0.0), diag))
        self._r = dt * bands.row0
        self._r[0] = 0.0
        e0 = np.zeros(n)
        e0[0] = 1.0
        self._g = self._solve(e0)
        rg = float(self._r @ self._g)
        self._denom = 1.0 - rg
        if abs(self._denom) <= _PIVOT_TOL * (1.0 + abs(rg)):
            raise SingularSystemError(
                f"implicit Euler step singular at dt = {dt}: Sherman-Morrison denominator {self._denom:.3e}"
            )
        self._p = scipy.linalg.solve_banded((0, 1), self._upper, self._r, check_finite=False)
        self.nonnegative = bool(
            np.all(diag > 0) and np.all(sub <= 0) and np.all(self._r >= 0) and self._denom > 0
        )
        self._check_probe(bands, dt)

    def _solve(self, y: np.ndarray) -> np.ndarray:
        return scipy.linalg.solve_banded((1, 0), self._lower, y, check_finite=False)

    def _apply(self, y: np.ndarray) -> np.ndarray:
        z = self._solve(y)
        return z + np.multiply.outer(self._g, self._r @ z) / self._denom

    def _apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        z = scipy.linalg.solve_banded((0, 1), self._upper, y, check_finite=False)
        return z + np.multiply.outer(self._p, z[0]) / self._denom

    def __matmul__(self, y):
        return self._apply(np.asarray(y, dtype=float))

    @property
    def T(self) -> _Applied:
        return _Applied(self._apply_adjoint)

    def toarray(self) -> np.ndarray:
        return self._apply(np.eye(self.shape[0]))

    def _check_probe(self, bands: BorderedBidiagonal, dt: float) -> None:
        """Backward error of x = (I - dt A)^{-1} 1, scaled as generators'
        `_backward_error` scales R(1/dt, A) 1 = dt x, all in O(n)."""
        ones = np.ones(self.shape[0])
        x = self._apply(ones)
        mx = self._lower[0] * x
        mx[1:] += self._lower[1, :-1] * x[:-1]
        mx[0] -= self._r @ x
        if not np.all(np.isfinite(x)):
            err = math.inf
        else:
            col_abs = bands.column_sums(absolute=True)
            scale = len(x) + (1.0 + dt * float(np.max(col_abs))) * float(np.sum(np.abs(x)))
            err = float(np.sum(np.abs(mx - ones))) / scale
        if not err <= RESIDUAL_TOL:
            raise SingularSystemError(
                f"implicit Euler step at dt = {dt} has backward error {err:.3e}"
            )


Step = Union[np.ndarray, BidiagonalStep]


def step_operator(model: GeneratorModel, dt: float, method: str = "exact_exponential") -> Step:
    """One-step propagator for time stepping.

    Implicit Euler on a generator with bands (every preset) is the
    O(n)-per-column `BidiagonalStep`; everything else is `step_matrix`.
    """
    if method == "implicit_euler" and model.bands is not None:
        return BidiagonalStep(model.bands, dt)
    return step_matrix(model, dt, method)


def _nonnegative(e: Step) -> bool:
    """Entrywise nonnegativity: the structural certificate for a
    BidiagonalStep, the smallest entry for a dense matrix."""
    if isinstance(e, BidiagonalStep):
        return e.nonnegative
    return bool(np.min(e) >= 0)


def default_method(model: GeneratorModel) -> str:
    return "exact_exponential" if model.cells <= DENSE_EXPM_LIMIT else "implicit_euler"


def evolve(model: GeneratorModel, x: GridVector, plan: EvolutionPlan) -> Trajectory:
    """Propagate x along the plan's grid; states[k] approximates T(k dt) x."""
    if x.space != model.space:
        raise ValueError("initial state lives on a different grid")
    e = step_operator(model, plan.dt, plan.method)
    states = np.empty((plan.steps + 1, model.cells))
    states[0] = x.values
    for k in range(plan.steps):
        states[k + 1] = e @ states[k]
    return Trajectory(space=model.space, times=plan.times, states=states)


def _uniform_spacing(t_grid: np.ndarray) -> Optional[float]:
    if len(t_grid) < 2:
        return None
    gaps = np.diff(t_grid)
    if np.all(np.abs(gaps - gaps[0]) <= _GRID_TOL * max(1.0, gaps[0])):
        return float(gaps[0])
    return None


def operator_norm_trajectory(model: GeneratorModel, t_grid, method: Optional[str] = None) -> np.ndarray:
    """||T(t)|| in the induced weighted-l1 norm for each t in the grid.

    For a uniform grid and a nonnegative step matrix the curve comes from the
    adjoint recursion on the weight vector; otherwise it falls back to a
    dense exponential per grid point.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if len(t_grid) == 0:
        return np.zeros(0)
    if np.any(t_grid < 0) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be nonnegative and strictly increasing")
    method = method or default_method(model)

    dt = _uniform_spacing(t_grid)
    offset = t_grid[0]
    if dt is not None and (offset == 0.0 or abs(round(offset / dt) * dt - offset) <= _GRID_TOL):
        e = step_operator(model, dt, method)
        if _nonnegative(e):
            w = model.space.weights
            out = np.empty(len(t_grid))
            y = w.copy()
            lead = round(offset / dt)
            for _ in range(lead):
                y = e.T @ y
            out[0] = np.max(y / w)
            for k in range(1, len(t_grid)):
                y = e.T @ y
                out[k] = np.max(y / w)
            return out
        # signed steps: accumulate the full matrix power
        e = e.toarray() if isinstance(e, BidiagonalStep) else e
        m = np.linalg.matrix_power(e, round(t_grid[0] / dt)) if offset else np.eye(model.cells)
        out = np.empty(len(t_grid))
        out[0] = induced_operator_norm(m, model.space)
        for k in range(1, len(t_grid)):
            m = e @ m
            out[k] = induced_operator_norm(m, model.space)
        return out

    return np.array(
        [induced_operator_norm(step_matrix(model, float(t), "exact_exponential"), model.space)
         if t > 0 else 1.0
         for t in t_grid]
    )


def growth_estimate(model: GeneratorModel, window: Optional[float] = None, steps: int = 400) -> float:
    """Log-slope of ||T(t)|| over the tail half of a window.

    The window defaults to 20 / max(|s(A)|, 0.1), clamped to [5, 200]; the
    estimate approaches s(A) from above as the window grows.
    """
    s = spectral_bound(model)
    if window is None:
        window = min(max(20.0 / max(abs(s), 0.1), 5.0), 200.0)
    dt = window / steps
    grid = np.arange(steps + 1) * dt
    norms = operator_norm_trajectory(model, grid)
    tail = grid >= window / 2
    logs = np.log(np.maximum(norms[tail], 1e-300))
    slope = np.polyfit(grid[tail], logs, 1)[0]
    return float(slope)


@dataclass(frozen=True)
class LeftInvertibilityAudit:
    """Outcome of sampling ||T(t)x|| / ||x|| over unit samples.

    `lower_bounds[k]` is the worst ratio seen at t_grid[k]; `holds` means no
    ratio collapsed to zero; (amplitude, rate) fit lower_bounds[k] >=
    amplitude * exp(-rate * t_k) on the grid.
    """

    t_grid: np.ndarray
    lower_bounds: np.ndarray
    holds: bool
    amplitude: float
    rate: float


def left_invertibility_audit(
    model: GeneratorModel,
    t_grid,
    sample_count: int = 100,
    rng=None,
    include_signed: bool = False,
    zero_tol: float = 1e-12,
) -> LeftInvertibilityAudit:
    """Probe how far T(t) is from annihilating states.

    Samples the nonnegative cone (all basis vectors plus random unit
    vectors); signed samples are opt-in because the upwind truncation damps
    sign changes that the continuous shift semigroup would keep.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    dt = _uniform_spacing(t_grid)
    if dt is None or t_grid[0] != 0.0:
        raise ValueError("left-invertibility audit needs a uniform grid starting at 0")
    rng = rng if rng is not None else np.random.default_rng(0)
    n = model.cells

    cols = [np.eye(n)]
    cols.append(rng.exponential(size=(n, sample_count)))
    if include_signed:
        cols.append(rng.standard_normal((n, sample_count)))
    x = np.hstack(cols)
    x = x / (model.space.spacing * np.sum(np.abs(x), axis=0))

    e = step_operator(model, dt, "exact_exponential" if n <= DENSE_EXPM_LIMIT else "implicit_euler")
    lower = np.empty(len(t_grid))
    lower[0] = 1.0
    for k in range(1, len(t_grid)):
        x = e @ x
        lower[k] = np.min(model.space.spacing * np.sum(np.abs(x), axis=0))

    holds = bool(np.all(lower > zero_tol))
    if holds:
        logs = np.log(lower)
        slope, intercept = np.polyfit(t_grid, logs, 1)
        rate = -float(slope)
        # lift the fit so the envelope sits below every sample point
        amplitude = float(np.min(lower * np.exp(rate * t_grid)))
    else:
        rate = math.inf
        amplitude = 0.0
    return LeftInvertibilityAudit(
        t_grid=t_grid, lower_bounds=lower, holds=holds, amplitude=amplitude, rate=rate
    )
