"""Boundary feedback as a rank-one perturbation of the generator.

The boundary injection is the paper's Dirichlet column e_0 / h
(`ControlOperator.boundary_injection`), and the feedback row beta_j h closes
the loop: A_S = A + P with P = outer(b, beta h).  The birth row enters only
here, in `assemble_perturbed`, as a perturbation of the Dirichlet boundary
(Greiner, Houston J. Math. 13, 1987).  The loop gain that decides stability
is the spectral radius of K = R(0, A) P, which for this rank-one structure
collapses to the scalar sum_j beta_j h d0_j with d0 = R(0, A) b, one O(n)
solve on bands that `PerturbedSystem.small_gain_radius` makes on every read:
a system keeps its factors and nothing computed from them.
The same factors give the order relations of `domination_check` in O(n):
R(lam, A) - R(lam, A_S) = -(R(lam, A_S) b)(R(lam, A)^T beta h)^T, and
T(t) <= S(t) follows from A Metzler and P >= 0 alone.  Both are the paper's
setting: `GeneratorModel` refuses a generator that is not Metzler, and
negative feedback rates, like a matrix P with a negative entry, are refused
here.  `variation_of_constants_check` steps T and S by
`semigroup.Uniformization` and applies P through
`PerturbedSystem.perturbation_matvec`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control import ControlOperator
from .generators import (
    BorderedBidiagonal,
    GeneratorModel,
    resolvent_matrix,
    shifted_inverse,
    spectral_bound,
)
from .lattice import GridVector, _readonly, weighted_l1
from .semigroup import grid_steps, step_operator


def _min_product(u: np.ndarray, v: np.ndarray) -> tuple[float, int, int]:
    """The smallest u_i v_j and its (i, j), in O(n): a product is monotone
    in each factor, so the minimum sits on a pair of extremes of u and v."""
    ends_u = (int(np.argmin(u)), int(np.argmax(u)))
    ends_v = (int(np.argmin(v)), int(np.argmax(v)))
    i, j = min(((i, j) for i in ends_u for j in ends_v), key=lambda ij: u[ij[0]] * v[ij[1]])
    return float(u[i] * v[j]), i, j


class PerturbedSystem:
    """A_S = A + P with the pieces kept for audits.

    Assembled systems keep P as its rank-one factors, the injection column
    and the feedback row beta (P = outer(injection, beta h)); `perturbation`
    then builds the dense P from them on every read.  `small_gain_radius` is
    computed on every read too, one O(n) solve on bands: the rank-one scalar
    of those factors, or the dense spectral radius for a matrix-built
    system.  Nothing is kept, so threads may share a system freely.
    """

    def __init__(
        self,
        base: GeneratorModel,
        perturbation=None,
        perturbed: Optional[GeneratorModel] = None,
        injection=None,
        feedback=None,
    ):
        if perturbed is None:
            raise TypeError("the perturbed generator is required")
        if perturbation is None and (injection is None or feedback is None):
            raise TypeError("give the perturbation or both of its rank-one factors")
        self.base = base
        self.perturbed = perturbed
        self.injection = None if injection is None else _readonly(injection)
        self.feedback = None if feedback is None else _readonly(feedback)
        self._dense = None if perturbation is None else _readonly(perturbation)

    @property
    def small_gain_radius(self) -> float:
        """The loop gain r, the spectral radius of K = R(0, A) P.  Rank-one
        factors give K = (R(0, A) b)(beta h)^T, so r is the scalar
        |sum_j beta_j h (R(0, A) b)_j|; a matrix-built system takes
        max |eigvals(K)|, the spectral radius also of a signed K.  A singular
        R(0, A) raises SingularSystemError."""
        if self.injection is None:
            k = resolvent_matrix(self.base, 0.0) @ self._dense
            return float(np.max(np.abs(np.linalg.eigvals(k))))
        d0 = shifted_inverse(self.base, 0.0, 1.0) @ self.injection
        return float(abs(np.dot(self.feedback * self.base.space.spacing, d0)))

    @property
    def perturbation(self) -> np.ndarray:
        """Dense read-only P: the one given, or built from the rank-one factors."""
        if self._dense is not None:
            return self._dense
        p = np.outer(self.injection, self.feedback * self.base.space.spacing)
        p.setflags(write=False)
        return p

    def perturbation_min(self) -> float:
        """Smallest entry of P; from the rank-one factors when the system has them."""
        if self.injection is None:
            return float(np.min(self.perturbation))
        return _min_product(self.injection, self.feedback * self.base.space.spacing)[0]

    def perturbation_matvec(self, z: np.ndarray) -> np.ndarray:
        """P @ z; from the rank-one factors, b ((beta h) . z), when the system
        has them, so no n x n array is built."""
        if self.injection is None:
            return self.perturbation @ z
        return self.injection * np.dot(self.feedback * self.base.space.spacing, z)

    @classmethod
    def from_matrix(cls, base: GeneratorModel, perturbation) -> "PerturbedSystem":
        p = np.asarray(perturbation, dtype=float)
        if p.shape != (base.cells, base.cells):
            raise ValueError("perturbation shape does not match the generator")
        if np.min(p) < 0:
            i, j = np.unravel_index(np.argmin(p), p.shape)
            raise ValueError(f"perturbation is not nonnegative: P[{i}, {j}] = {float(p[i, j])!r}")
        perturbed = GeneratorModel(space=base.space, matrix=base.matrix + p)
        return cls(base=base, perturbed=perturbed, perturbation=p)


def assemble_perturbed(model: GeneratorModel, b, beta) -> PerturbedSystem:
    """Close the loop: the scalar beta-weighted population integral feeds the
    injection column b.  P = outer(b, beta h).

    When A has bands and b lives in cell 0 (the boundary injection), P only
    adds to row 0 and A_S keeps the bands; nothing n x n is built.  Nothing
    is solved either: the loop gain is solved where
    `PerturbedSystem.small_gain_radius` is read.
    """
    col = b.column if isinstance(b, ControlOperator) else np.asarray(b, dtype=float)
    if col.shape != (model.cells,):
        raise ValueError("injection column length does not match the grid")
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (model.cells,)).astype(float)
    if not np.all(np.isfinite(beta)):
        raise ValueError("feedback profile must be finite")
    if np.min(beta) < 0:
        raise ValueError("feedback rates must be nonnegative")
    h = model.space.spacing
    w = beta * h

    bands = model.bands
    if bands is not None and not np.any(col[1:]):
        row0 = bands.row0 + col[0] * w
        diag = np.concatenate((row0[:1], bands.diag[1:]))
        perturbed = GeneratorModel(space=model.space, bands=BorderedBidiagonal(diag, bands.sub, row0))
    else:
        perturbed = GeneratorModel(space=model.space, matrix=model.matrix + np.outer(col, w))
    return PerturbedSystem(base=model, perturbed=perturbed, injection=col, feedback=beta)


def small_gain_radius(system: PerturbedSystem) -> float:
    """Spectral radius r of K = R(0, A) P: `PerturbedSystem.small_gain_radius`."""
    return system.small_gain_radius


@dataclass(frozen=True)
class DominationReport:
    """Entrywise comparison T(t) <= S(t) and R(lam, A) <= R(lam, A_S).

    `exponential_violations` is always empty: T(t) <= S(t) for every t >= 0
    follows from A Metzler and P >= 0 (see `domination_check`); the field
    keeps the report's shape beside `resolvent_violations`."""

    ok: bool
    spectral_ok: bool
    s_base: float
    s_perturbed: float
    exponential_violations: tuple
    resolvent_violations: tuple


def resolvent_gap_factors(system: PerturbedSystem, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) with R(lam, A) - R(lam, A_S) = -u v^T, for a system kept as
    its rank-one factors P = b (beta h)^T.

    The second resolvent identity gives R(lam, A) - R(lam, A_S) =
    -R(lam, A_S) P R(lam, A), so u = R(lam, A_S) b and
    v = R(lam, A)^T (beta h): two solves, O(n) on bands.
    """
    u = shifted_inverse(system.perturbed, lam, 1.0) @ system.injection
    v = shifted_inverse(system.base, lam, 1.0).T @ (system.feedback * system.base.space.spacing)
    return u, v


def _max_entry(m: np.ndarray) -> tuple[float, int, int]:
    """The largest entry of a dense matrix and its (i, j)."""
    i, j = np.unravel_index(np.argmax(m), m.shape)
    return float(m[i, j]), int(i), int(j)


def _resolvent_gap_max(system: PerturbedSystem, lam: float) -> tuple[float, int, int]:
    """The largest entry of R(lam, A) - R(lam, A_S) and its (i, j);
    matrix-built systems evaluate -R(lam, A_S) P R(lam, A) densely."""
    if system.injection is None:
        r_s = resolvent_matrix(system.perturbed, lam)
        return _max_entry(-(r_s @ system.perturbation) @ resolvent_matrix(system.base, lam))
    low, i, j = _min_product(*resolvent_gap_factors(system, lam))
    return -low, i, j


def domination_check(
    system: PerturbedSystem, t_grid, lambda_grid, tol: float = 1e-10
) -> DominationReport:
    """Check the order relations a nonnegative perturbation must produce.

    A P with a negative entry is refused with ValueError.  The resolvent
    half comes from `resolvent_gap_factors`: two O(n) solves per lam on
    bands, no n x n array.  The exponential half holds at every t, so
    `t_grid` is not read: by the Trotter product formula
    S(t) = lim_k (e^{tA/k} e^{tP/k})^k with e^{tA/k} >= 0 (A Metzler) and
    e^{tP/k} >= I (P >= 0), so each factor dominates e^{tA/k} and the limit
    dominates T(t) = (e^{tA/k})^k.
    """
    if system.perturbation_min() < 0:
        raise ValueError("domination requires a nonnegative perturbation")
    s_base = spectral_bound(system.base)
    s_pert = spectral_bound(system.perturbed)
    lams = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    for lam in lams:
        if lam <= s_pert:
            raise ValueError(f"lambda = {lam} is not above s(A_S) = {s_pert}")
    res_bad = []
    for lam in lams:
        worst, i, j = _resolvent_gap_max(system, float(lam))
        if worst > tol:
            res_bad.append((float(lam), i, j, worst))
    spectral_ok = s_base <= s_pert + 1e-12
    return DominationReport(
        ok=not res_bad and spectral_ok,
        spectral_ok=spectral_ok,
        s_base=s_base,
        s_perturbed=s_pert,
        exponential_violations=(),
        resolvent_violations=tuple(res_bad),
    )


@dataclass(frozen=True)
class VariationResidual:
    """Residual of the perturbed-vs-base convolution identity at step dt;
    `rate` = residual / dt is the first-order quadrature constant."""

    residual: float
    dt: float
    rate: float


def variation_of_constants_check(
    system: PerturbedSystem, x: GridVector, t: float, dt: float
) -> VariationResidual:
    """Compare S(t) x with T(t) x + int_0^t T(t-s) P S(s) x ds.

    Both semigroups step exactly; the convolution uses left-endpoint
    quadrature, so the residual shrinks linearly with dt.
    """
    if x.space != system.base.space:
        raise ValueError("state lives on a different grid")
    steps = grid_steps(t, dt, "t")
    e_t = step_operator(system.base, dt, "exact_exponential")
    e_s = step_operator(system.perturbed, dt, "exact_exponential")
    z = x.values.copy()          # S(s) x
    base_only = x.values.copy()  # T(s) x
    conv = np.zeros_like(z)
    for _ in range(steps):
        conv = e_t @ (conv + dt * system.perturbation_matvec(z))
        z = e_s @ z
        base_only = e_t @ base_only
    residual = weighted_l1(z - base_only - conv, system.base.space)
    return VariationResidual(residual=residual, dt=dt, rate=residual / dt)
