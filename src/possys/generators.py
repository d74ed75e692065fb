"""Generator matrices for transport with absorption, and their resolvents.

The continuous model is f' = -df/dx - q(x) f on [0, L] whose inflow at
x = 0 is a `wrap` gain times the outflow at x = L, none by default; the
upwind finite-volume truncation turns it into a Metzler matrix acting on
grid vectors.  The birth row is no inflow rule here: it enters only as the
boundary perturbation of `perturbation.assemble_perturbed`.  Everything
downstream (spectral bounds, resolvent solves, inverse estimates) is
phrased against the matrix, so custom Metzler generators can be wrapped
with `GeneratorModel.from_matrix`; a matrix with a negative entry off the
diagonal is refused there.  Positivity is therefore never computed: for a
Metzler A, lam I - A is a Z-matrix, and R(lam, A) >= 0 exactly when
lam > s(A), where it is a nonsingular M-matrix (Berman & Plemmons,
Nonnegative Matrices in the Mathematical Sciences, 1994, ch. 6).
The upwind generators are stored as bordered-bidiagonal bands; their dense
matrix is built only where a dense routine asks for it.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import EigensolverError, SingularSystemError
from .lattice import GridSpace, GridVector, _readonly

# pivots and Sherman-Morrison denominators at or below this, relative to the
# terms they are formed from, are singular
PIVOT_TOL = 1e-12
# relative residual allowed on a resolvent solve
RESIDUAL_TOL = 1e-10
# Newton steps allowed to the characteristic root
_ROOT_MAX_ITER = 100
# the smallest subnormal: a solve entry bounded below it rounds to 0
_SUBNORMAL = 5e-324
# largest |-1/h - q| an upwind diagonal may take: the audits shift the
# generator and sum such terms, which must not overflow
MAX_DIAGONAL = np.finfo(float).max / 1e3


@dataclass(frozen=True, eq=False)
class BorderedBidiagonal:
    """Bands of a matrix whose rows 1..n-1 are zero off the diagonal and the
    subdiagonal; row 0 is free.

    `diag` holds the n diagonal entries, `sub` the n - 1 entries A[j+1, j]
    and `row0` the whole first row (so row0[0] == diag[0]).  Every preset
    generator has this shape: the upwind stencil plus one wrap entry, and
    the boundary feedback only adds to row 0.
    """

    diag: np.ndarray
    sub: np.ndarray
    row0: np.ndarray

    def __post_init__(self):
        for name in ("diag", "sub", "row0"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        n = len(self.diag)
        if self.diag.shape != (n,) or self.sub.shape != (n - 1,) or self.row0.shape != (n,):
            raise ValueError("bands need n diagonal, n - 1 subdiagonal and n first-row entries")
        if not all(np.all(np.isfinite(v)) for v in (self.diag, self.sub, self.row0)):
            raise ValueError("generator entries must be finite")
        if self.row0[0] != self.diag[0]:
            raise ValueError("row0[0] and diag[0] are the same entry and must agree")

    @classmethod
    def detect(cls, a: np.ndarray) -> Optional["BorderedBidiagonal"]:
        """The bands of a dense square matrix, or None when some row below the
        first has an entry off the two diagonals.  Counts exact zeros on
        views, no n x n temporary."""
        body = np.count_nonzero(a[1:])
        if body != np.count_nonzero(np.diagonal(a)[1:]) + np.count_nonzero(np.diagonal(a, -1)):
            return None
        return cls(np.diagonal(a), np.diagonal(a, -1), a[0])

    @property
    def cells(self) -> int:
        return len(self.diag)

    @property
    def lower(self) -> bool:
        """Lower bidiagonal: nothing right of the diagonal in row 0."""
        return not np.any(self.row0[1:])

    def toarray(self) -> np.ndarray:
        """The dense matrix, read-only."""
        n = self.cells
        a = np.zeros((n, n))
        a[0] = self.row0
        idx = np.arange(1, n)
        a[idx, idx] = self.diag[1:]
        a[idx, idx - 1] = self.sub
        a.setflags(write=False)
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a vector, in O(n)."""
        x = np.asarray(x, dtype=float)
        y = self.diag * x
        y[1:] += self.sub * x[:-1]
        y[0] = self.row0 @ x
        return y

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A^T @ y for a vector, in O(n)."""
        y = np.asarray(y, dtype=float)
        x = self.diag * y
        x[:-1] += self.sub * y[1:]
        # row0[0] is diag[0], counted just above
        x[1:] += self.row0[1:] * y[0]
        return x

    def column_sums(self, absolute: bool = False) -> np.ndarray:
        """Column sums of A, or of |A| when `absolute`."""
        row0, diag, sub = self.row0, self.diag, self.sub
        if absolute:
            row0, diag, sub = np.abs(row0), np.abs(diag), np.abs(sub)
        out = row0.copy()
        out[1:] += diag[1:]
        out[:-1] += sub
        return out


class GeneratorModel:
    """A generator matrix together with the grid it acts on.

    Bordered-bidiagonal generators (every preset) are stored as their
    `bands`; `matrix` then builds the dense matrix from them on every read,
    which only the dense routines do.  A dense `matrix` argument is kept
    (as a read-only copy) and its bands, when it has them, are detected once
    here; other matrices leave `bands` None.
    The generator must be Metzler: a negative entry off the diagonal is
    refused with ValueError naming it, so every model is the generator of a
    positive semigroup and no audit needs a route off the cone.
    The one value a model keeps is `_perron`, s(A) and its eigenvector,
    which every audit reads several times; everything else is computed
    where it is read.
    """

    def __init__(
        self,
        space: GridSpace,
        matrix=None,
        *,
        bands: Optional[BorderedBidiagonal] = None,
    ):
        n = space.cells
        if (matrix is None) == (bands is None):
            raise TypeError("give exactly one of matrix and bands")
        if matrix is not None:
            matrix = _readonly(matrix)
            if matrix.shape != (n, n):
                raise ValueError(f"matrix shape {matrix.shape} does not match {n} cells")
            if not np.all(np.isfinite(matrix)):
                raise ValueError("generator entries must be finite")
            bands = BorderedBidiagonal.detect(matrix)
        elif bands.cells != n:
            raise ValueError(f"bands of {bands.cells} cells do not match {n} cells")
        self.space = space
        self.bands = bands
        self._dense = matrix
        # the result of `_perron`, computed under the lock, so that threads
        # sharing a model compute it once
        self._perron = None
        self._lock = threading.Lock()
        low, i, j = self.off_diagonal_min()
        if low < 0:
            raise ValueError(f"generator is not Metzler: A[{i}, {j}] = {low!r}")

    @classmethod
    def from_matrix(cls, space: GridSpace, matrix) -> "GeneratorModel":
        return cls(space=space, matrix=np.asarray(matrix, dtype=float))

    @property
    def matrix(self) -> np.ndarray:
        """Dense read-only matrix: the one given, or built from the bands."""
        return self.bands.toarray() if self._dense is None else self._dense

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x, from the bands when the model has them."""
        if self.bands is not None:
            return self.bands.matvec(x)
        return self.matrix @ x

    def column_sums(self, absolute: bool = False) -> np.ndarray:
        """Column sums of A, or of |A| when `absolute`; from the bands when
        the model has them."""
        if self.bands is not None:
            return self.bands.column_sums(absolute)
        return np.sum(np.abs(self.matrix) if absolute else self.matrix, axis=0)

    def off_diagonal_min(self) -> tuple[float, int, int]:
        """Smallest off-diagonal entry and its (i, j); A is Metzler exactly
        when it is >= 0.  One cell has none and gives inf."""
        b = self.bands
        if b is None:
            off = self.matrix - np.diag(np.diag(self.matrix))
            i, j = np.unravel_index(np.argmin(off), off.shape)
            return float(off[i, j]), int(i), int(j)
        # off[k] is A[k, k - 1] for 0 < k < n and A[0, k - n + 1] from n on
        off = np.concatenate(([math.inf], b.sub, b.row0[1:]))
        k = int(np.argmin(off))
        return float(off[k]), *((k, k - 1) if k < b.cells else (0, k - b.cells + 1))

    @property
    def cells(self) -> int:
        return self.space.cells


def build_upwind_generator(space: GridSpace, q, *, wrap: float = 0.0) -> GeneratorModel:
    """Upwind truncation of -d/dx - q(x) whose inflow is `wrap` times the outflow.

    Cell j gets diagonal -1/h - q_j and receives the upwind flux f_{j-1}/h;
    cell 0 receives wrap f_{n-1}/h: nothing for the default wrap = 0 (the
    Dirichlet generator), a ring for wrap >= 1.  Metzler for q, wrap >= 0.
    """
    if not np.isfinite(wrap) or wrap < 0:
        raise ValueError(f"wrap gain must be finite and >= 0, got {wrap}")
    n = space.cells
    h = space.spacing
    q = np.broadcast_to(np.asarray(q, dtype=float), (n,)).copy()
    if not np.all(np.isfinite(q)):
        raise ValueError("absorption profile must be finite")
    if np.min(q) < 0:
        raise ValueError("absorption profile must be nonnegative")

    diag = -1.0 / h - q
    if not np.max(np.abs(diag)) <= MAX_DIAGONAL:
        raise ValueError(
            f"diagonal -1/h - q reaches {np.max(np.abs(diag)):.3e}, beyond {MAX_DIAGONAL:.3e}"
        )
    row0 = np.zeros(n)
    row0[0] = diag[0]
    row0[n - 1] += wrap / h
    diag[0] = row0[0]

    bands = BorderedBidiagonal(diag, np.full(n - 1, 1.0 / h), row0)
    return GeneratorModel(space=space, bands=bands)


def _lower_triangular(a: np.ndarray) -> bool:
    return np.count_nonzero(np.triu(a, 1)) == 0


def _upper_triangular(a: np.ndarray) -> bool:
    return np.count_nonzero(np.tril(a, -1)) == 0


def _check_pivots(pivots, scale, what: str) -> None:
    """Refuse with SingularSystemError unless every |pivot| exceeds PIVOT_TOL
    times `scale`, the size of the terms the pivot was formed from."""
    if np.any(np.abs(pivots) <= PIVOT_TOL * scale):
        gap = float(np.min(np.abs(pivots)))
        raise SingularSystemError(f"{what} is singular: a pivot is within {gap:.3e} of zero")


def _dense_inverse(model: GeneratorModel, sigma: float, tau: float) -> np.ndarray:
    """Dense (sigma I - tau A)^{-1}: substitution when the matrix is
    triangular (refused on a pivot that `_check_pivots` calls zero), LU
    otherwise; LAPACK's own singularity report is refused the same way."""
    n = model.cells
    a = model.matrix
    what = f"{sigma!r} I - {tau!r} A"
    m = sigma * np.eye(n) - tau * a
    lower = _lower_triangular(m)
    triangular = lower or _upper_triangular(m)
    if triangular:
        _check_pivots(np.diag(m), abs(sigma) + tau * np.abs(np.diag(a)), what)
    try:
        if triangular:
            import scipy.linalg

            return scipy.linalg.solve_triangular(m, np.eye(n), lower=lower)
        return np.linalg.solve(m, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{what} is singular: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _lapack_tbtrs():
    """LAPACK dtbtrs from scipy's compiled `linalg/_flapack` module, loaded
    from its file so that `scipy.linalg/__init__` (about 0.25 s of imports,
    most of them outside LAPACK) never runs; `find_spec` locates the scipy
    package without executing it.  A scipy whose layout has no such file
    takes the public `scipy.linalg.lapack.dtbtrs`, the same routine.
    Call it under `_TBTRS_LOCK`, so that threads load the extension once."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.submodule_search_locations:
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec("scipy.linalg._flapack")
        if spec is not None:
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
            return flapack.dtbtrs
    from scipy.linalg.lapack import dtbtrs

    return dtbtrs


_TBTRS_LOCK = threading.Lock()


class _Applied:
    """`op @ y` for a function of y."""

    def __init__(self, apply):
        self._apply = apply

    def __matmul__(self, y):
        return self._apply(np.asarray(y, dtype=float))


class ShiftedInverse:
    """(sigma I - tau A)^{-1}, tau > 0, applied to a vector, for A given by
    its bands: the implicit-Euler step is (1, dt), the resolvent R(lam, A) is
    (lam, 1).

    sigma I - tau A = T - e_0 r^T with T lower bidiagonal and r = tau A[0, 1:]
    (r_0 = 0).  `@` solves with T and `.T @` with T^T, one LAPACK tbtrs each,
    O(n); a vector with a zero tail may be solved on a prefix only (see
    `_solve_t`).  On a lower-bidiagonal A (`bands.lower`, every renewal base
    generator) r = 0 and that is all, and the constructor solves nothing.  A
    bordered A adds the Sherman-Morrison terms g (r^T T^{-1} y) / (1 - r^T g)
    and p (T^{-T} y)_0 / (1 - r^T g), with g = T^{-1} e_0 and p = T^{-T} r
    solved once here.  No solve is probed: `shifted_inverse` builds this
    only where its accuracy is a theorem, and the resolvent results are
    checked where they leave the solve layer (`resolvent_apply`,
    `inverse_estimate_constant`).
    tbtrs comes from `_lapack_tbtrs`, which loads one LAPACK extension
    module and not scipy.linalg; `import possys` and the scenario builds
    never solve, so they load numpy alone.
    """

    def __init__(self, bands: BorderedBidiagonal, sigma: float, tau: float):
        with _TBTRS_LOCK:
            self._tbtrs = _lapack_tbtrs()
        n = bands.cells
        what = f"{sigma!r} I - {tau!r} A"
        diag = sigma - tau * bands.diag
        sub = -tau * bands.sub
        _check_pivots(diag, abs(sigma) + tau * np.abs(bands.diag), what)
        # T = L D, the LU of T without pivoting (multipliers sub_j * (1 / diag_j));
        # |L| |D| = |T|, so it is backward stable at every shift (Higham,
        # Accuracy and Stability of Numerical Algorithms, ch. 9)
        self._d = diag
        # Fortran order, as tbtrs takes its band: a C-ordered one is copied
        # on every call.  Filled row by row, with no n-length temporaries.
        self._lower = np.empty((2, n), order="F")
        self._lower[0] = 1.0
        np.divide(1.0, diag[:-1], out=self._lower[1, :-1])
        self._lower[1, :-1] *= sub
        self._lower[1, -1] = 0.0
        self._upper = np.empty((2, n), order="F")
        self._upper[0, 0] = 0.0
        self._upper[0, 1:] = sub
        self._upper[1] = diag
        self._lmax = float(np.max(np.abs(self._lower[1])))
        self._r = None if bands.lower else tau * bands.row0
        # an overflowing T^-1 e_0 is refused below, not warned about
        with np.errstate(over="ignore"):
            if self._r is not None:
                self._r[0] = 0.0
                self._g = self._solve_t(np.eye(1, n)[0])
                if not np.all(np.isfinite(self._g)):
                    raise SingularSystemError(f"{what} is singular: T^-1 e_0 overflows")
                rg = float(self._r @ self._g)
                self._denom = 1.0 - rg
                _check_pivots(self._denom, 1.0 + abs(rg), f"{what} (Sherman-Morrison denominator)")
                self._p = self._tbtrs(self._upper, self._r, uplo="U")[0]

    def _solve_t(self, y: np.ndarray) -> np.ndarray:
        """T^{-1} y: tbtrs with L, then the division by D.

        Past the last nonzero y_m, L's recurrence is w_{j+1} = -l_j w_j, so
        |w_j| <= |w_m| l^(j - m) with l = max|l_j|.  For 1/2 < l < 1,
        rounding holds that tail at a subnormal instead of 0, and each later
        cell costs a subnormal operation; so the solve runs to m, goes on
        from w_m while 2 |w_m| l^(j - m) (a margin for the tail's rounding)
        is at least the smallest subnormal, and writes exact zeros after
        that.  Below 1/2 the tail rounds to zeros by itself.
        """
        n = m = len(y)
        if y[-1] == 0 and 0.5 < self._lmax < 1.0:
            # the prefix up to the last nonzero, by one byte scan of y != 0
            m = (y != 0).tobytes().rfind(1) + 1 or n
        w = self._tbtrs(self._lower[:, :m], y[:m], uplo="L", diag="U")[0]
        if m < n and w[-1] != 0:
            # the cells that bound needs; all of them when w_m is not finite
            k = (math.log(abs(w[-1])) + math.log(2.0) - math.log(_SUBNORMAL)) / -math.log(self._lmax)
            tail = np.zeros(math.ceil(k) if k < n - m else n - m)
            tail[:1] = 0.0 - w[-1] * self._lower[1, m - 1]
            tail = self._tbtrs(self._lower[:, m : m + len(tail)], tail, uplo="L", diag="U")[0]
            w = np.concatenate((w, tail))
        # tbtrs returns a fresh array (overwrite_b is off), so divide in place
        w /= self._d[: len(w)]
        return w if len(w) == n else np.concatenate((w, np.zeros(n - len(w))))

    def _apply(self, y: np.ndarray) -> np.ndarray:
        z = self._solve_t(y)
        return z if self._r is None else z + self._g * self._r.dot(z) / self._denom

    def _apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        z = self._tbtrs(self._upper, y, uplo="U")[0]
        return z if self._r is None else z + self._p * z[0] / self._denom

    def __matmul__(self, y):
        return self._apply(np.asarray(y, dtype=float))

    @property
    def T(self) -> _Applied:
        return _Applied(self._apply_adjoint)


def shifted_inverse(model: GeneratorModel, sigma: float, tau: float) -> Union[np.ndarray, ShiftedInverse]:
    """(sigma I - tau A)^{-1}, tau > 0, as an operator with `@` and `.T @`.

    Bands take `ShiftedInverse` exactly where its accuracy is a theorem.
    When A is lower bidiagonal there is no Sherman-Morrison term, and the
    unpivoted bidiagonal substitution is backward stable at every shift
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 8-9).
    When sigma / tau > s(A) (`_perron`), T is a nonsingular M-matrix,
    T^{-1} >= 0 and 1 - r^T g > 0, so every Sherman-Morrison term is >= 0 on
    the cone and nothing cancels.  At other shifts of a bordered A the term
    can cancel; those, like matrices without bands, take the dense inverse.
    """
    bands = model.bands
    if bands is not None and (bands.lower or sigma / tau > _perron(model)[0]):
        return ShiftedInverse(bands, sigma, tau)
    return _dense_inverse(model, sigma, tau)


def _check_backward_error(model: GeneratorModel, lam: float, g: np.ndarray, rhs: np.ndarray) -> None:
    """Refuse g = (lam I - A)^{-1} rhs with SingularSystemError unless its
    backward error is <= RESIDUAL_TOL; a g that is not finite has backward
    error inf.  `resolvent_apply` and `resolvent_matrix` check their results
    here, as they leave the solve layer.  O(n) on bands.

    The residual is scaled the way backward stability predicts: huge
    resolvents are fine as long as the solve is exact for a nearby problem.
    """
    err = math.inf
    if np.all(np.isfinite(g)):
        resid = np.linalg.norm(lam * g - model.matvec(g) - rhs, ord=1)
        norm_a = float(np.max(model.column_sums(absolute=True)))
        scale = np.linalg.norm(rhs, ord=1) + (abs(lam) + norm_a) * np.linalg.norm(g, ord=1)
        err = resid / scale if scale > 0 else resid
    if not err <= RESIDUAL_TOL:
        raise SingularSystemError(f"{lam!r} I - 1.0 A has backward error {err:.3e}")


def resolvent_matrix(model: GeneratorModel, lam: float) -> np.ndarray:
    """Dense (lam I - A)^{-1}, with a probe check on the solve residual."""
    r = _dense_inverse(model, lam, 1.0)
    # probe the solve with a single vector; a full matrix residual is O(n^3)
    ones = np.ones(model.cells)
    _check_backward_error(model, lam, r @ ones, ones)
    return r


def resolvent_apply(model: GeneratorModel, lam: float, f) -> GridVector:
    """g = (lam I - A)^{-1} f, refused unless the backward error is <= 1e-10."""
    vals = f.values if isinstance(f, GridVector) else np.asarray(f, dtype=float)
    op = shifted_inverse(model, lam, 1.0)
    # an overflowing solve is refused by the check, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        g = op @ vals
        _check_backward_error(model, lam, g, vals)
    return model.space.vector(g)


def spectral_bound(model: GeneratorModel) -> float:
    """max Re(spectrum): a read of the model's one Perron computation
    (`_perron`)."""
    return _perron(model)[0]


def _log_phi(bands: BorderedBidiagonal, loop: np.ndarray, lam: float) -> tuple[float, float, np.ndarray]:
    """log phi(lam), its derivative in lam, and log g(lam), for lam > max diag
    (see `_characteristic_root`); `loop` indexes the nonzero row0[1:] entries.

    g_0 = 1 / (lam - diag_0) and g_j = g_{j-1} sub_{j-1} / (lam - diag_j):
    the logs of the ratios are summed, so no product overflows near max
    diag, and a zero subdiagonal entry gives log g = -inf downstream of it.
    Each log ratio is -log1p((lam - (diag_j + sub_{j-1})) / sub_{j-1}): for
    an upwind stencil diag_j + sub_{j-1} is exact (it is -q_j), so the
    ratios carry no error of size eps / h that n equal cells would add up.
    """
    gap = lam - bands.diag
    with np.errstate(divide="ignore"):
        log_ratio = -np.log1p((lam - (bands.diag[1:] + bands.sub)) / bands.sub)
    log_g = np.concatenate(([0.0], np.cumsum(log_ratio))) - math.log(gap[0])
    terms = np.log(bands.row0[loop]) + log_g[loop]
    top = float(np.max(terms))
    if top == -math.inf:
        return -math.inf, 0.0, log_g
    weights = np.exp(terms - top)
    total = float(np.sum(weights))
    # d/dlam log g_j = -sum_{k <= j} 1 / (lam - diag_k)
    slope = -float(weights @ np.cumsum(1.0 / gap)[loop]) / total
    return top + math.log(total), slope, log_g


def _characteristic_root(bands: BorderedBidiagonal) -> tuple[float, Optional[np.ndarray]]:
    """s(A) of a Metzler A given by its bands and, when s(A) is the root below,
    its nonnegative eigenvector with unit sum (None otherwise).

    Write A = B + e_0 c^T with B the lower bidiagonal part (`diag`, `sub`)
    and c = row0 with c_0 = 0.  Then det(lam - A) = det(lam - B) (1 - phi(lam))
    with phi(lam) = c^T g(lam), g(lam) = (lam - B)^{-1} e_0.  For
    lam > max diag, phi is positive, decreasing and log-convex, so s(A) is
    the root of phi = 1 when phi exceeds 1 just above max diag (always so
    when the largest diagonal entry lies on the feedback loop) and max diag
    otherwise; (lam - A) g = e_0 (1 - phi) makes g the eigenvector at the
    root.  For renewal phi = 1 is the discrete Lotka equation, for the ring
    (1 + h lam)^{-n} gain = 1.

    The root is bracketed by max diag and the largest column sum (an upper
    bound on s(A) for Metzler A) and found by Newton's method on log phi,
    with bisection whenever a step leaves the bracket.  On the convex,
    decreasing log phi a Newton step from either side lands at or left of
    the root, and from the left the iterates rise to it monotonically.
    """
    eps = np.finfo(float).eps
    diag_max = float(np.max(bands.diag))
    loop = np.flatnonzero(bands.row0[1:]) + 1
    hi = float(np.max(bands.column_sums()))
    # phi just above max diag: an offset of roundoff size in units of max|A|
    scale = float(np.max(bands.column_sums(absolute=True)))
    lo = diag_max + 8.0 * eps * scale
    if not len(loop) or hi <= lo or _log_phi(bands, loop, lo)[0] <= 0.0:
        return diag_max, None
    lam = hi
    for _ in range(_ROOT_MAX_ITER):
        f, slope, _ = _log_phi(bands, loop, lam)
        if f == 0.0:
            break
        if f > 0.0:
            lo = lam
        else:
            hi = lam
        nxt = lam - f / slope
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        done = abs(nxt - lam) <= 4.0 * eps * (abs(lam) + eps * scale)
        lam = nxt
        if done:
            break
    else:
        raise EigensolverError(f"characteristic root not found in {_ROOT_MAX_ITER} Newton steps")
    log_g = _log_phi(bands, loop, lam)[2]
    g = np.exp(log_g - np.max(log_g))
    return lam, g / np.sum(g)


def _perron(model: GeneratorModel) -> tuple[float, Optional[np.ndarray]]:
    """s(A) and, where the bands give it, its nonnegative eigenvector of unit
    sum (else None), computed once per model and kept in its `_perron` slot,
    the model's one memo.  Bands take `_characteristic_root` (exactly max
    diag when no loop closes through row 0), a dense triangular matrix its
    diagonal, any other dense matrix one `eigvals` (`eig` would move s(A) in
    the last bit)."""
    with model._lock:
        if model._perron is None:
            model._perron = _perron_of(model)
        return model._perron


def _perron_of(model: GeneratorModel) -> tuple[float, Optional[np.ndarray]]:
    if model.bands is not None:
        return _characteristic_root(model.bands)
    a = model.matrix
    if _lower_triangular(a) or _upper_triangular(a):
        return float(np.max(np.diag(a))), None
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolve failed: {exc}") from exc
    return float(np.max(ev.real)), None


def perron_mode(model: GeneratorModel) -> tuple[float, np.ndarray]:
    """Rightmost eigenvalue with a nonnegative eigenvector of unit sum.

    Where `_perron` has the eigenvector, the characteristic root's
    g = (s - B)^{-1} e_0 on the bands, that is the answer.  Everything
    else, a matrix without bands or a reducible banded matrix whose bound is
    a diagonal entry off the feedback loop, takes a dense eigensolve.
    """
    rate, vec = _perron(model)
    if vec is not None:
        return rate, vec
    ev, vecs = np.linalg.eig(model.matrix)
    i = int(np.argmax(ev.real))
    v = np.abs(vecs[:, i].real)
    total = float(np.sum(v))
    return float(ev[i].real), v / total if total else v


def inverse_estimate_constant(model: GeneratorModel, lambda0: float) -> float:
    """Largest c with ||R(lambda0, A) x|| >= c ||x|| for x in the cone.

    Defined for lambda0 > s(A), where R(lambda0, A) >= 0 (see the module
    docstring); the bound is then attained on a basis direction, so c is
    the smallest weighted column score (w^T R e_j) / w_j, read off one
    adjoint solve R^T w.
    """
    s = spectral_bound(model)
    if lambda0 <= s:
        raise ValueError(f"lambda0 = {lambda0} must exceed the spectral bound {s}")
    w = model.space.weights
    op = shifted_inverse(model, lambda0, 1.0)
    # an overflowing solve is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        scores = (op.T @ w) / w
    if not np.all(np.isfinite(scores)):
        raise SingularSystemError(f"{lambda0!r} I - 1.0 A has backward error inf")
    return float(np.min(scores))
