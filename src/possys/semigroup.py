"""Time evolution for generator models.

Two steppers: implicit Euler, the default at every grid size, which
preserves positivity at O(dt) accuracy, and the exact matrix exponential,
kept as an explicit choice and as the stepper of `left_invertibility_audit`.
Every preset generator is lower bidiagonal except row 0, and for those
implicit Euler is a bidiagonal solve plus a rank-one correction
(`generators.ShiftedInverse`), O(n) per step; other matrices take a dense
inverse.  On bands the exponential is a uniformization sum of band products
(`BandExponential`), O(n) per term; matrices without bands take the dense
scaling-and-squaring `expm` of `step_matrix`, which is also the reference of
the tests and of `variation_of_constants_check`.  Every generator is
Metzler (`GeneratorModel` refuses any other), so both steps are
entrywise nonnegative wherever the audits take them, and operator norms
along a trajectory use the adjoint trick: the weighted column sums evolve
under E^T, so the norm curve and the cone lower bound cost K adjoint
applications (`norm_curves`).  The growth bound is not fitted to
||E^k||: in finite dimension it is s(A), which `generators.spectral_bound`
computes.  The gain fit's grid is `FIT_STEPS` steps over `decay_horizon`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .generators import (
    BorderedBidiagonal,
    GeneratorModel,
    ShiftedInverse,
    _Applied,
    _characteristic_root,
    _dense_inverse,
    shifted_inverse,
)
from .lattice import GridSpace, GridVector

METHODS = ("exact_exponential", "implicit_euler")
# the stepper of every time-stepping default, at every grid size
DEFAULT_METHOD = "implicit_euler"
_GRID_TOL = 1e-9
# steps on the grid of the gain fit
FIT_STEPS = 800
# a norm at or below this has underflowed
NORM_FLOOR = 1e-300
# a cone lower bound at or below this has collapsed: left invertibility fails
ZERO_TOL = 1e-12
# largest c tau rho of one uniformization substep (see BandExponential):
# e^-50 is far above underflow
_SUBSTEP = 50.0
# bound on the weight of the terms a uniformization sum leaves out, relative
# to the norm of the vector it is applied to: a tenth of a unit roundoff
_TAIL = 1e-17


def grid_steps(t: float, dt: float, what: str = "t") -> int:
    """The number of dt steps in t, refused with ValueError unless t is a
    positive multiple of dt up to _GRID_TOL (relative for t > 1)."""
    k = round(t / dt)
    if k < 1 or abs(k * dt - t) > _GRID_TOL * max(1.0, abs(t)):
        raise ValueError(f"{what} = {t} is not a positive multiple of dt = {dt}")
    return k


@dataclass(frozen=True)
class EvolutionPlan:
    """Uniform time grid: `steps` steps of width dt up to t_end."""

    t_end: float
    dt: float
    method: str = DEFAULT_METHOD

    def __post_init__(self):
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not (0 < self.dt <= self.t_end):
            raise ValueError(f"dt must lie in (0, t_end], got {self.dt}")
        grid_steps(self.t_end, self.dt, "t_end")
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
    if method == "exact_exponential":
        import scipy.linalg

        return _flush_subnormals(scipy.linalg.expm(model.matrix * dt))
    if method == "implicit_euler":
        return _dense_inverse(model, 1.0, dt)
    raise ValueError(f"unknown method {method!r}")


def _poisson_weights(lam: float, rho: float, log_kappa: float) -> np.ndarray:
    """e^-lam lam^k / k! for k = 0..K, lam > 0, scaled to sum to 1, where K
    is the first k past the mode of Poisson(lam rho), rho >= 1, with
    kappa e^(lam (rho - 1)) P(Poisson(lam rho) > k) <= _TAIL.

    That product bounds sum_{j > k} e^-lam lam^j / j! ||P^j||, what the
    terms past k can weigh, when ||P^j|| <= kappa rho^j.  Past the mode the
    ratios of consecutive probabilities fall below lam rho / (k + 2), so the
    tail is at most the next probability over 1 - lam rho / (k + 2); its log
    is run from k = 0, so nothing underflows and no scipy.stats.  The
    weights are built by a running product, whose rounding drifts with k in
    one direction; the scaling takes that common drift out, which the
    left-out tail, below _TAIL, cannot notice.
    """
    mean = lam * rho
    log_cut = math.log(_TAIL) - log_kappa - lam * (rho - 1.0)
    k = 0
    log_next = math.log(mean) - mean  # log P(Poisson(mean) = k + 1)
    while not (k + 2 > mean and log_next - math.log1p(-mean / (k + 2)) <= log_cut):
        k += 1
        log_next += math.log(mean / (k + 1))
    weights = np.empty(k + 1)
    weights[0] = math.exp(-lam)
    for j in range(1, k + 1):
        weights[j] = weights[j - 1] * lam / j
    return weights / np.sum(weights)


class BandExponential:
    """exp(tau A) for a Metzler A given by its bands, with `@` and `.T @`
    on a vector or a block in O(n) per term and no n x n array.

    Uniformization (Jensen 1953; Stewart, Introduction to the Numerical
    Solution of Markov Chains, 1994, ch. 8): with c = max|a_jj| (1 on a zero
    diagonal), P = I + A / c >= 0 also where some a_jj > 0, and
        exp(tau A) = sum_k e^(-c tau) (c tau)^k / k! P^k,
    whose terms have one sign on the cone, so nothing cancels.  A growing P
    shifts the weight of the sum to later terms, which `_poisson_weights`
    counts from a bound ||P^k||_1 = ||(P^T)^k||_inf <= kappa rho^k, the
    cheaper of two:
      - kappa = 1 and rho = max(1, largest column sum of P);
      - P u <= rho u for a vector u > 0, so P^k e_j <= rho^k u / u_j, with
        kappa = sum(u) / min(u).  u is A's Perron vector from the
        characteristic root (`generators._characteristic_root`), where A
        has one, so rho = max(1, 1 + s(A) / c) up to rounding: on a ring
        whose seam multiplies by g the column sums give rho near g, and the
        sum would take g times the terms.
    tau is split into m equal substeps with c tau rho / m <= _SUBSTEP, so
    each substep applies the same weights.
    """

    def __init__(self, bands: BorderedBidiagonal, tau: float):
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"step tau must be positive and finite, got {tau}")
        c = float(np.max(np.abs(bands.diag))) or 1.0
        diag = 1.0 + bands.diag / c
        row0 = bands.row0 / c
        row0[0] = diag[0]
        self._p = BorderedBidiagonal(diag, bands.sub / c, row0)
        bounds = [(float(np.max(self._p.column_sums())), 0.0)]
        u = _characteristic_root(bands)[1]
        if u is not None and np.min(u) > 0:
            bounds.append((float(np.max(self._p.matvec(u) / u)), math.log(np.sum(u) / np.min(u))))
        plans = []
        for rho, log_kappa in bounds:
            rho = max(1.0, rho)
            substeps = max(1, math.ceil(c * tau * rho / _SUBSTEP))
            plans.append((substeps, _poisson_weights(c * tau / substeps, rho, log_kappa)))
        self._substeps, self._weights = min(plans, key=lambda plan: plan[0] * len(plan[1]))

    def _sum(self, y: np.ndarray, product) -> np.ndarray:
        for _ in range(self._substeps):
            term = y
            y = self._weights[0] * term
            for w in self._weights[1:]:
                term = product(term)
                y += w * term
        return y

    def __matmul__(self, y):
        return self._sum(np.asarray(y, dtype=float), self._p.matvec)

    @property
    def T(self) -> _Applied:
        return _Applied(lambda y: self._sum(y, self._p.rmatvec))


Step = Union[np.ndarray, ShiftedInverse, BandExponential]


def step_operator(model: GeneratorModel, dt: float, method: str = DEFAULT_METHOD) -> Step:
    """One-step propagator for time stepping: implicit Euler is
    `shifted_inverse(model, 1, dt)`, O(n) per column on the presets' bands;
    the exact exponential is a `BandExponential` on bands, O(n) per term,
    and `step_matrix` otherwise."""
    if method == "implicit_euler":
        return shifted_inverse(model, 1.0, dt)
    if method == "exact_exponential" and model.bands is not None:
        return BandExponential(model.bands, dt)
    return step_matrix(model, dt, method)


def norm_curves(model: GeneratorModel, e: Step, steps: int, vectors=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """||E^k||, min_j ||E^k e_j|| / ||e_j|| and, as row i of a third array,
    ||E^k v_i|| for the vectors v_i (a sequence, or the rows of an array),
    k = 0..steps, in the weighted l1 norm of the model's grid, for a step
    E >= 0 of the model and vectors v_i >= 0; a vector with a negative entry
    is refused with ValueError.  E >= 0 is not checked here: both callers
    step a Metzler generator where its steps are nonnegative, the gain fit
    by implicit Euler at s(A_S) < 0 and left invertibility by the exact
    exponential.

    The first two are the largest and the smallest weighted column sum of
    E^k; on the cone the norm is linear, so the smallest is the cone lower
    bound min ||E^k x|| / ||x||, x >= 0.  They ride the adjoint recursion
    y <- E^T y from the weights: the column sums are y / w and
    ||E^k v|| = y . v, `steps` adjoint applications and one product with
    the vectors per step.
    """
    w = model.space.weights
    vecs = np.asarray(vectors, dtype=float).reshape(-1, model.cells)
    if not np.all(vecs >= 0):
        raise ValueError("norm curves are taken on the cone: a vector has a negative entry")
    op = np.empty(steps + 1)
    low = np.empty(steps + 1)
    curves = np.empty((len(vecs), steps + 1))
    y = w.copy()
    for k in range(steps + 1):
        if k:
            y = e.T @ y
        sums = y / w
        op[k], low[k] = np.max(sums), np.min(sums)
        curves[:, k] = vecs @ y
    return op, low, curves


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


def decay_horizon(s: float) -> float:
    """Window of a gain fit for a decay rate near s: 20 / max(|s|, 0.05),
    clamped to [10, 1000]."""
    return min(max(20.0 / max(abs(s), 0.05), 10.0), 1000.0)


@dataclass(frozen=True)
class LeftInvertibilityAudit:
    """Lower norm estimate of T(t) on the positive cone.

    `lower_bounds[k]` is min_j ||T(t_k) e_j|| / ||e_j||, the smallest ratio
    ||T(t_k) x|| / ||x|| over x >= 0; `holds` means all of
    them exceed ZERO_TOL; (amplitude, rate) fit lower_bounds[k] >=
    amplitude * exp(-rate * t_k) on the grid.
    """

    t_grid: np.ndarray
    lower_bounds: np.ndarray
    holds: bool
    amplitude: float
    rate: float


def left_invertibility_audit(model: GeneratorModel, t_grid) -> LeftInvertibilityAudit:
    """Probe how far T(t) is from annihilating states of the positive cone.

    A is Metzler, so ||T(t)x|| = <T(t)* w, x> is linear on the cone and its
    minimum over unit x >= 0 sits at a basis vector: the lower bounds are
    the smallest weighted column sums of `norm_curves`, read off its adjoint
    recursion: O(n) per uniformization term on bands, O(n^2) per step after
    one dense `expm` otherwise.  Steps with the exact exponential: implicit
    Euler damps the outflow mode by (1 + dt a)^-k instead of exp(-a k dt),
    which can keep a ratio that the semigroup sends under ZERO_TOL above it.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    dt = _uniform_spacing(t_grid)
    if dt is None or t_grid[0] != 0.0:
        raise ValueError("left-invertibility audit needs a uniform grid starting at 0")
    e = step_operator(model, dt, "exact_exponential")
    _, lower, _ = norm_curves(model, e, len(t_grid) - 1)

    holds = bool(np.all(lower > ZERO_TOL))
    if holds:
        rate = -float(np.polyfit(t_grid, np.log(lower), 1)[0])
        # lift the fit so the envelope sits below every grid point
        amplitude = float(np.min(lower * np.exp(rate * t_grid)))
    else:
        rate = math.inf
        amplitude = 0.0
    return LeftInvertibilityAudit(
        t_grid=t_grid, lower_bounds=lower, holds=holds, amplitude=amplitude, rate=rate
    )
