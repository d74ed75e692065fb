"""Input signals, input maps, and admissibility audits.

The input map is the convolution of the semigroup with an injection column b
against a piecewise-constant signal.  `input_map` takes it exactly, segment
by segment.  On a uniform grid each step applies a pair (E, F): the stepped
map is `mild_solution` from x = 0.  The audits step the implicit-Euler
E = (I - dt A)^{-1} with F = dt E b, O(n) per step on the presets and
first-order accurate in dt, and the algebraic control-system laws hold to
roundoff, since both sides run the same recursion.  Only `mild_solution`
takes its plan's stepper, which may be exact_exponential: E = exp(A dt) and
F = int_0^dt exp(A s) b ds, two uniformization sums in one P
(`semigroup.Uniformization`), exact on aligned signals.

Admissibility is read off one impulse-response curve c(s) = ||T(s) b||, stepped
once on the tau / ADMISSIBILITY_STEPS grid: the norm is additive on the cone,
so kappa_p(t) is the L^{p'} norm of c on [0, t] (`admissibility_curve`), and
kappa_inf(t) = int_0^t c is the same functional at p = inf.  The gain fit's G
is that functional at p = 1 on the closed loop.

Positivity of the input maps is not computed: the generator is Metzler, so
T(t) >= 0 and R(lam, A) >= 0 exactly when lam > s(A) (Berman & Plemmons,
Nonnegative Matrices in the Mathematical Sciences, 1994, ch. 6), and
Phi_tau u >= 0 for every u >= 0 exactly when b >= 0.  The implicit-Euler
step (I - dt A)^{-1} is >= 0 too while dt s(A) < 1, and
`semigroup.step_operator` refuses a step past that, so every stepped map,
law check and impulse-response curve here refuses it too.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .generators import GeneratorModel, resolvent_apply, spectral_bound
from .lattice import GridSpace, GridVector, _readonly, weighted_l1
from .semigroup import (
    _GRID_TOL,
    DEFAULT_METHOD,
    EvolutionPlan,
    Step,
    Trajectory,
    Uniformization,
    grid_steps,
    step_operator,
)

# steps of the impulse-response grid on [0, tau] for the admissibility audits
ADMISSIBILITY_STEPS = 1024
# the resolvent bound's grid lies these distances above alpha
_LAMBDA_OFFSETS = np.logspace(-1, 2, 25)


@dataclass(frozen=True)
class InputSignal:
    """Piecewise-constant scalar signal.

    values[k] holds on [breakpoints[k], breakpoints[k+1]); the signal is zero
    from breakpoints[-1] on (and before 0).  An empty values array is the
    zero signal.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = _readonly(self.breakpoints)
        vals = _readonly(self.values)
        if bp.ndim != 1 or len(bp) < 1 or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if vals.shape != (len(bp) - 1,):
            raise ValueError(f"expected {len(bp) - 1} values, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float, duration: float) -> "InputSignal":
        return cls(np.array([0.0, float(duration)]), np.array([float(value)]))

    @classmethod
    def zero(cls) -> "InputSignal":
        return cls(np.array([0.0]), np.zeros(0))

    @property
    def end(self) -> float:
        """End of the support interval."""
        return float(self.breakpoints[-1])

    def value_at(self, t) -> np.ndarray:
        """Signal value(s) at time(s) t; right-continuous, zero outside support."""
        t = np.asarray(t, dtype=float)
        if len(self.values) == 0:
            return np.zeros_like(t)
        # queries a float-dust below a breakpoint belong to the segment it opens
        tol = _GRID_TOL * max(1.0, self.end)
        idx = np.searchsorted(self.breakpoints, t + tol, side="right") - 1
        inside = (idx >= 0) & (idx < len(self.values))
        return np.where(inside, self.values[np.clip(idx, 0, len(self.values) - 1)], 0.0)

    def sample_left(self, steps: int, dt: float) -> np.ndarray:
        """Left-endpoint values on the uniform grid, one per step; warns when
        a breakpoint is off the grid, since sampling moves it onto it."""
        k = np.round(self.breakpoints / dt)
        if not np.all(np.abs(k * dt - self.breakpoints) <= _GRID_TOL * max(1.0, self.end)):
            warnings.warn(f"input breakpoints resampled onto the dt = {dt} grid")
        return np.asarray(self.value_at(np.arange(steps) * dt), dtype=float)

    def truncated(self, t: float) -> "InputSignal":
        """The signal restricted to [0, t), zero afterwards."""
        if t <= 0 or len(self.values) == 0:
            return InputSignal.zero()
        if t >= self.end:
            return self
        # keep every segment starting strictly before t; cut the last one at t
        k = int(np.searchsorted(self.breakpoints[:-1], t, side="left"))
        if k == 0:
            return InputSignal.zero()
        bp = np.concatenate((self.breakpoints[:k], [min(float(self.breakpoints[k]), float(t))]))
        return InputSignal(bp, self.values[:k])

    def shifted(self, t: float) -> "InputSignal":
        """Left shift by t: the new signal at s equals the old one at s + t."""
        if t <= 0:
            return self
        if t >= self.end - _GRID_TOL:
            return InputSignal.zero()
        bp = self.breakpoints - t
        new_bp = np.concatenate(([0.0], bp[bp > _GRID_TOL]))
        # left endpoints back in original time pick each segment's value
        vals = np.asarray(self.value_at(new_bp[:-1] + t), dtype=float)
        return InputSignal(new_bp, vals)

    def __add__(self, other: "InputSignal") -> "InputSignal":
        bp = np.unique(np.concatenate((self.breakpoints, other.breakpoints)))
        lefts = bp[:-1]
        vals = np.asarray(self.value_at(lefts), dtype=float) + np.asarray(
            other.value_at(lefts), dtype=float
        )
        return InputSignal(bp, vals)

    @classmethod
    def from_csv(cls, path) -> "InputSignal":
        rows = []
        with open(path) as fh:
            header = fh.readline().strip()
            if header.replace(" ", "") != "t,u":
                raise ValueError(f"expected header 't,u', got {header!r}")
            for line in fh:
                line = line.strip()
                if line:
                    t_str, u_str = line.split(",")
                    rows.append((float(t_str), float(u_str)))
        if not rows:
            return cls.zero()
        bp = np.array([r[0] for r in rows])
        vals = np.array([r[1] for r in rows])
        if vals[-1] != 0.0:
            raise ValueError("final CSV row must close the signal with u = 0")
        return cls(bp, vals[:-1])


@dataclass(frozen=True)
class ControlOperator:
    """Injection column b; the boundary variant concentrates 1/h in cell 0.

    The 1/h scaling is what survives of the unboundedness: the weighted norm
    ||b|| stays 1 while the peak value grows as the grid refines.
    """

    space: GridSpace
    column: np.ndarray

    def __post_init__(self):
        col = _readonly(self.column)
        if col.shape != (self.space.cells,):
            raise ValueError("injection column length does not match the grid")
        if not np.all(np.isfinite(col)):
            raise ValueError("injection column must be finite")
        object.__setattr__(self, "column", col)

    @classmethod
    def boundary_injection(cls, space: GridSpace) -> "ControlOperator":
        col = np.zeros(space.cells)
        col[0] = 1.0 / space.spacing
        return cls(space=space, column=col)


def _as_column(b, space: GridSpace) -> np.ndarray:
    if isinstance(b, ControlOperator):
        if b.space != space:
            raise ValueError("control operator lives on a different grid")
        return b.column
    if isinstance(b, GridVector):
        return b.values
    col = np.asarray(b, dtype=float)
    if col.shape != (space.cells,):
        raise ValueError("injection column length does not match the grid")
    return col


def step_input_operators(
    model: GeneratorModel, b, dt: float, method: str = DEFAULT_METHOD
) -> tuple[Step, np.ndarray]:
    """One-step pair (E, F): z_{k+1} = E z_k + F u_k.

    E is `step_operator(model, dt, method)`; F = int_0^dt exp(A s) b ds is
    `Uniformization.integral` for exact_exponential and dt E b for
    implicit_euler.  Built on every call: a check that runs several input
    maps on one grid builds one pair and hands it to each (`_stepped_map`).
    """
    col = _as_column(b, model.space)
    e = step_operator(model, dt, method)
    f = e.integral(col) if method == "exact_exponential" else dt * (e @ col)
    f.setflags(write=False)
    return e, f


def input_recursion(e: Step, f: np.ndarray, z: np.ndarray, u) -> Iterator[np.ndarray]:
    """The state vector z, then z_{k+1} = E z_k + F u_k for each scalar u_k in u."""
    yield z
    for uk in u:
        z = e @ z + f * uk
        yield z


def _stepped_map(pair: tuple[Step, np.ndarray], u: InputSignal, tau: float, dt: float) -> np.ndarray:
    """Phi_tau u by the step pair (E, F) on the dt grid, from z = 0: the last
    state of `mild_solution` from x = 0, for checks that share one pair."""
    e, f = pair
    for z in input_recursion(e, f, np.zeros(len(f)), u.sample_left(grid_steps(tau, dt, "tau"), dt)):
        pass
    return z


def input_map(model: GeneratorModel, b, u: InputSignal, tau: float) -> GridVector:
    """Phi_tau u = int_0^tau T(tau - s) b u(s) ds, exactly, segment by segment.

    For u constant on [a, b) the contribution to Phi_tau is
    u * (G(tau - a) - G(tau - min(b, tau))) with G(s) = int_0^s exp(A r) b dr,
    one `Uniformization.integral` per distinct s.  The map on a dt grid is
    `mild_solution` from x = 0.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    col = _as_column(b, model.space)
    g_at = {0.0: np.zeros(model.cells)}
    acc = np.zeros(model.cells)
    for val, a, bnd in zip(u.values, u.breakpoints[:-1], u.breakpoints[1:]):
        if a >= tau or val == 0.0:
            continue
        hi, lo = tau - a, tau - min(bnd, tau)
        for s in (hi, lo):
            if s not in g_at:
                g_at[s] = Uniformization(model, s).integral(col)
        acc += val * (g_at[hi] - g_at[lo])
    return model.space.vector(acc)


def mild_solution(
    model: GeneratorModel, b, x: GridVector, u: InputSignal, plan: EvolutionPlan
) -> Trajectory:
    """z(t_k) = T(t_k) x + Phi_{t_k} u on the plan's grid.  An implicit-Euler
    plan needs dt s(A) < 1 (`semigroup.step_operator`)."""
    if x.space != model.space:
        raise ValueError("initial state lives on a different grid")
    e, f = step_input_operators(model, b, plan.dt, plan.method)
    states = np.empty((plan.steps + 1, model.cells))
    for k, z in enumerate(input_recursion(e, f, x.values, u.sample_left(plan.steps, plan.dt))):
        states[k] = z
    return Trajectory(space=model.space, times=plan.times, states=states)


def impulse_response_norms(model: GeneratorModel, b, tau: float, dt: float) -> np.ndarray:
    """||T(s) b|| for s on the uniform grid over [0, tau], stepped by the
    implicit-Euler E alone, which needs dt s(A) < 1
    (`semigroup.step_operator`)."""
    col = _as_column(b, model.space)
    steps = grid_steps(tau, dt, "tau")
    e = step_operator(model, dt)
    norms = np.empty(steps + 1)
    y = col.copy()
    norms[0] = weighted_l1(y, model.space)
    for k in range(steps):
        y = e @ y
        norms[k + 1] = weighted_l1(y, model.space)
    return norms


def admissibility_curve(norms: np.ndarray, dt: float, p: float = 1) -> np.ndarray:
    """kappa_p(t_k) at every time t_k = k dt of the impulse-response curve
    norms[k] = ||T(t_k) b||: the L^{p'} norm of the curve on [0, t_k], that
    is its running maximum for p = 1, the root of its cumulative trapezoid
    sum of squares for p = 2, and its cumulative trapezoid sum for p = inf."""
    if p == 1:
        return np.maximum.accumulate(norms)
    if p != 2 and not math.isinf(p):
        raise ValueError(f"p must be 1, 2, or inf, got {p}")
    c = norms**2 if p == 2 else norms
    cumul = np.concatenate(([0.0], np.cumsum((c[1:] + c[:-1]) * 0.5 * dt)))
    return np.sqrt(cumul) if p == 2 else cumul


def admissibility_constant(model: GeneratorModel, b, tau: float, p: float = 1) -> float:
    """kappa(tau) with ||Phi_tau u|| <= kappa ||u||_{L^p}: the last entry of
    `admissibility_curve` on the tau / ADMISSIBILITY_STEPS grid.

    For a positive system the weighted-l1 norm is additive on the cone, so
    ||Phi_tau u|| = int_0^tau ||T(s) b|| u(tau - s) ds for u >= 0, and this
    kappa is the smallest constant for every p, not a Hoelder upper bound.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    dt = tau / ADMISSIBILITY_STEPS
    return float(admissibility_curve(impulse_response_norms(model, b, tau, dt), dt, p)[-1])


def default_alpha(s: float, tau: float) -> float:
    """The resolvent-bound abscissa for s = s(A) when none is given: anchored
    to the decay resolvable on the audit window, not to s(A), since for stiff
    upwind grids s(A) ~ -1/h sits in a pseudospectral zone where ||R(lam)B||
    blows up with refinement."""
    return max(s + 0.1, -1.0 / tau)


def resolvent_bound_audit(model: GeneratorModel, b, alpha: float, p: float = 1) -> float:
    """Smallest m with ||R(lam, A) b|| <= m / (lam - alpha)^(1/p) on the 25
    points lam = alpha + logspace(-1, 2)."""
    s = spectral_bound(model)
    if alpha <= s:
        raise ValueError(f"alpha = {alpha} must exceed the spectral bound {s}")
    col = _as_column(b, model.space)
    lams = alpha + _LAMBDA_OFFSETS
    if np.any(lams <= alpha):
        raise ValueError("lambda grid must lie strictly above alpha")
    exponent = 0.0 if math.isinf(p) else 1.0 / p
    best = 0.0
    for lam in lams:
        g = resolvent_apply(model, float(lam), model.space.vector(col))
        best = max(best, weighted_l1(g.values, model.space) * (lam - alpha) ** exponent)
    return float(best)


def composition_law_check(model: GeneratorModel, b, u: InputSignal, t: float, tau: float, dt: float) -> float:
    """Residual of Phi_{tau+t} u = T(tau) Phi_t (u|_{[0,t)}) + Phi_tau (u shifted by t)
    on the dt grid."""
    if t <= 0 or tau <= 0:
        raise ValueError("t and tau must be positive")
    pair = step_input_operators(model, b, dt)
    lhs = _stepped_map(pair, u, t + tau, dt)
    head = _stepped_map(pair, u.truncated(t), t, dt)
    for _ in range(grid_steps(tau, dt, "tau")):
        head = pair[0] @ head
    tail = _stepped_map(pair, u.shifted(t), tau, dt)
    return weighted_l1(lhs - head - tail, model.space)


def composition_probe(model: GeneratorModel, b, tau: float) -> float:
    """The composition-law residual the audits report: the unit step on
    [0, tau/2), split at tau/2, on the tau/64 grid."""
    half = tau / 2
    return composition_law_check(model, b, InputSignal.constant(1.0, half), half, half, dt=tau / 64)


def additivity_check(model: GeneratorModel, b, u: InputSignal, v: InputSignal, tau: float, dt: float) -> float:
    """Residual of Phi_tau(u + v) = Phi_tau u + Phi_tau v on the dt grid."""
    pair = step_input_operators(model, b, dt)
    both, one, two = (_stepped_map(pair, w, tau, dt) for w in (u + v, u, v))
    return weighted_l1(both - one - two, model.space)

