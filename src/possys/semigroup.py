"""Time evolution for generator models.

Two steppers: implicit Euler, the default at every grid size and the only
stepper of the audits that step in time, which preserves positivity at O(dt)
accuracy while dt s(A) < 1, a bound `step_operator` enforces for every
caller, and the exact matrix exponential, kept as a choice of `simulate`'s
plan (`step_operator`, `control.step_input_operators`, `EvolutionPlan`) and
as the stepper of `left_invertibility_audit`.
Every preset generator is lower bidiagonal except row 0, and for those
implicit Euler is a bidiagonal solve, plus a rank-one correction when row 0
closes a loop (`generators.ShiftedInverse`), O(n) per step; other matrices
take a dense inverse.  The exponential of every generator, and the integral of its input
column, is a uniformization sum in P = I + A / c >= 0 (`Uniformization`),
O(n) per term on bands and O(n^2) without them.  Every generator is Metzler
(`GeneratorModel` refuses any other), so both steps are entrywise
nonnegative wherever the audits take them, and operator norms along a
trajectory use the adjoint trick: the weighted column sums evolve under E^T,
so the norm curve and the cone lower bound cost K adjoint applications
(`norm_curves`).  The growth bound is not fitted to ||E^k||: in finite
dimension it is s(A), which `generators.spectral_bound` computes.  The gain
fit's grid is `FIT_STEPS` steps over `decay_horizon`.
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
    _perron,
    shifted_inverse,
)
from .errors import SingularSystemError, WorkBudgetError
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
# largest c tau rho of one uniformization substep (see Uniformization):
# e^-50 is far above underflow
_SUBSTEP = 50.0
# most work of the uniformization sums of one call: its products times the
# entries of P (3n on bands, n^2 dense) plus _OVERHEAD, a product's call cost;
# at 0.45 to 1.8 ns a unit (2 to 20000 cells, one BLAS thread) about 9 s
_WORK = 5e9
_OVERHEAD = 5_000
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


def _poisson_weights(lam: float, rho: float, log_kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """q_k = e^-lam lam^k / k! and the survival weights P(N > k) =
    q_{k+1} + ... + q_{K+1}, N ~ Poisson(lam), for k = 0..K, lam > 0, scaled
    so that the q_k sum to 1, where K is the first k past the mode of
    Poisson(lam rho), rho >= 1, with
    kappa e^(lam (rho - 1)) P(Poisson(lam rho) > k) <= _TAIL.

    When ||P^j|| <= kappa rho^j that product bounds sum_{j > k} q_j ||P^j||,
    what the terms past k weigh, and lam times it bounds the survival terms
    past K, sum_{j > K + 1} q_j ||I + ... + P^(j-1)||, of total lam.  Past
    the mode consecutive probabilities fall by ratios below lam rho / (k + 2),
    so the tail is at most the next one over 1 - lam rho / (k + 2); its log
    is run from k = 0: nothing underflows, no scipy.stats.  The scaling takes
    out the running product's rounding, which drifts one way with k.
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
    total = np.sum(weights)
    survival = np.append(weights[1:], weights[k] * lam / (k + 1))
    return weights / total, np.cumsum(survival[::-1])[::-1] / total


class Uniformization:
    """exp(tau A) for a Metzler A, with `@` and `.T @` on a vector, and its
    input column `integral(b)` = int_0^tau exp(s A) b ds.

    Uniformization (Jensen 1953; Stewart, Introduction to the Numerical
    Solution of Markov Chains, 1994, ch. 8): with c = max|a_jj| (1 on a zero
    diagonal), P = I + A / c >= 0 also where some a_jj > 0, and
    N ~ Poisson(c tau),
        exp(tau A) = sum_k P(N = k) P^k,
        int_0^tau exp(s A) ds = (1 / c) sum_k P(N > k) P^k,
    whose terms have one sign on the cone, so nothing cancels.  P keeps the
    bands (O(n) a product) or is dense.  A growing P shifts the weight of the
    sums to later terms, which `_poisson_weights` counts from a bound
    ||P^k||_1 = ||(P^T)^k||_inf <= kappa rho^k, the cheaper of two:
      - kappa = 1 and rho = max(1, largest column sum of P);
      - on bands, P u <= rho u for a vector u > 0, so P^k e_j <= rho^k u / u_j,
        with kappa = sum(u) / min(u).  u is A's Perron vector, read from
        the model's one Perron computation (`generators._perron`) where the
        bands give one, so rho = max(1, 1 + s(A) / c) up to rounding: on a
        ring whose seam multiplies by g the column sums give rho near g.
    tau is split into m equal substeps with c tau rho / m <= _SUBSTEP, over
    which F composes as F <- E F + F.  A non-finite c tau rho, or more than
    `_WORK` over all the caller's `applications`, raises `WorkBudgetError`.
    """

    def __init__(self, model: GeneratorModel, tau: float, applications: int = 1):
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"step tau must be positive and finite, got {tau}")
        bands = model.bands
        diag = np.diagonal(model.matrix) if bands is None else bands.diag
        c = float(np.max(np.abs(diag))) or 1.0
        entries = model.cells * (model.cells if bands is None else 3)
        if bands is None:
            p = model.matrix / c
            np.fill_diagonal(p, 1.0 + diag / c)
            self._product, self._adjoint = p.__matmul__, p.T.__matmul__
            bounds = [(float(np.max(np.sum(p, axis=0))), 0.0)]
        else:
            row0 = bands.row0 / c
            row0[0] = 1.0 + diag[0] / c
            p = BorderedBidiagonal(1.0 + diag / c, bands.sub / c, row0)
            self._product, self._adjoint = p.matvec, p.rmatvec
            bounds = [(float(np.max(p.column_sums())), 0.0)]
            u = _perron(model)[1]
            if u is not None and np.min(u) > 0:
                bounds.append((float(np.max(p.matvec(u) / u)), math.log(np.sum(u) / np.min(u))))
        plans = []
        for rho, log_kappa in bounds:
            rho = max(1.0, rho)
            lam = float(c * tau * rho)
            if not math.isfinite(lam):
                raise WorkBudgetError(f"the exact exponential of step {tau}: c tau rho = {lam!r} is not finite")
            substeps = max(1, math.ceil(lam / _SUBSTEP))
            plans.append((substeps, *_poisson_weights(c * tau / substeps, rho, log_kappa), lam))
        self._substeps, self._weights, survival, lam = min(plans, key=lambda plan: plan[0] * len(plan[1]))
        products = self._substeps * len(self._weights)
        if applications * products * (entries + _OVERHEAD) > _WORK:
            raise WorkBudgetError(f"the exact exponential of step {tau} needs {applications} x {products} products of "
                                  f"{entries} entries (c tau rho = {lam!r}), more than {_WORK:.0e} work")
        self._survival = survival / c

    @staticmethod
    def _series(weights: np.ndarray, y: np.ndarray, product) -> np.ndarray:
        term = y
        out = weights[0] * term
        for w in weights[1:]:
            term = product(term)
            out += w * term
        return out

    def _sum(self, y: np.ndarray, product) -> np.ndarray:
        for _ in range(self._substeps):
            y = self._series(self._weights, y, product)
        return y

    def __matmul__(self, y):
        return self._sum(np.asarray(y, dtype=float), self._product)

    @property
    def T(self) -> _Applied:
        return _Applied(lambda y: self._sum(y, self._adjoint))

    def integral(self, b) -> np.ndarray:
        """int_0^tau exp(s A) b ds: F_h of one substep h, then
        F <- E_h F + F_h over the other substeps."""
        f = f_sub = self._series(self._survival, np.asarray(b, dtype=float), self._product)
        for _ in range(self._substeps - 1):
            f = self._series(self._weights, f, self._product) + f_sub
        return f


Step = Union[np.ndarray, ShiftedInverse, Uniformization]


def step_operator(model: GeneratorModel, dt: float, method: str = DEFAULT_METHOD) -> Step:
    """One-step propagator for time stepping: implicit Euler is
    `shifted_inverse(model, 1, dt)`, O(n) per vector on the presets' bands;
    the exact exponential is a `Uniformization`, O(n) per term on bands.

    Implicit Euler with dt s(A) >= 1 is refused with SingularSystemError:
    there (I - dt A)^{-1} is singular or has negative entries, and its steps
    may leave the cone and decay where T(t) grows.  Every implicit-Euler
    step of the package is built here, so this is its one such refusal."""
    if method == "implicit_euler":
        s = _perron(model)[0]
        if dt * s >= 1.0:
            raise SingularSystemError(
                f"implicit Euler needs dt s(A) < 1, got dt = {dt!r} and s(A) = {s!r}: "
                f"dt must stay below 1/s(A) = {1.0 / s!r}"
            )
        return shifted_inverse(model, 1.0, dt)
    if method == "exact_exponential":
        return Uniformization(model, dt)
    raise ValueError(f"unknown method {method!r}")


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
        op[k], low[k] = sums.max(), sums.min()
        curves[:, k] = vecs @ y
    return op, low, curves


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
    recursion: O(n) per uniformization term on bands, O(n^2) per term on a
    matrix without bands.  Steps with the exact exponential: implicit
    Euler damps the outflow mode by (1 + dt a)^-k instead of exp(-a k dt),
    which can keep a ratio that the semigroup sends under ZERO_TOL above it.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    dt = _uniform_spacing(t_grid)
    if dt is None or t_grid[0] != 0.0:
        raise ValueError("left-invertibility audit needs a uniform grid starting at 0")
    steps = len(t_grid) - 1
    _, lower, _ = norm_curves(model, Uniformization(model, dt, steps), steps)

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
