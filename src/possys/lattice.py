"""Grid vectors with a weighted l1 norm and the order structure of L1.

A `GridSpace` is a uniform subdivision of [0, L] into n cells; grid vectors
carry one value per cell and are measured in the weighted l1 norm
``h * sum |f_j|``.  On the nonnegative cone this norm is additive, which is
the property every downstream audit leans on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# entries below -POSITIVITY_TOL count as genuinely negative
POSITIVITY_TOL = 1e-12


def _readonly(values) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GridSpace:
    """Uniform grid on [0, length] with `cells` cells of width length/cells."""

    length: float
    cells: int

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError(f"length must be positive and finite, got {self.length}")
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")

    @property
    def spacing(self) -> float:
        return self.length / self.cells

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights; uniform, so every cell weighs `spacing`."""
        return np.full(self.cells, self.spacing)

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.cells) + 0.5) * self.spacing

    def vector(self, values) -> "GridVector":
        return GridVector(self, _readonly(values))

    def zeros(self) -> "GridVector":
        return self.vector(np.zeros(self.cells))

    def basis(self, j: int) -> "GridVector":
        e = np.zeros(self.cells)
        e[j] = 1.0
        return self.vector(e)


@dataclass(frozen=True)
class GridVector:
    """Immutable state vector over a GridSpace."""

    space: GridSpace
    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(self.values)
        if vals.shape != (self.space.cells,):
            raise ValueError(f"expected {self.space.cells} values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid vector entries must be finite")
        object.__setattr__(self, "values", vals)

    def __add__(self, other: "GridVector") -> "GridVector":
        self._check_space(other)
        return self.space.vector(self.values + other.values)

    def __sub__(self, other: "GridVector") -> "GridVector":
        self._check_space(other)
        return self.space.vector(self.values - other.values)

    def __mul__(self, scalar: float) -> "GridVector":
        return self.space.vector(self.values * float(scalar))

    __rmul__ = __mul__

    def _check_space(self, other: "GridVector"):
        if other.space != self.space:
            raise ValueError("grid vectors live on different spaces")


def l1_norm(f: GridVector) -> float:
    """Weighted l1 norm, h * sum_j |f_j|; additive on the nonnegative cone."""
    return float(f.space.spacing * np.sum(np.abs(f.values)))


def weighted_l1(values: np.ndarray, space: GridSpace) -> float:
    """Same norm on a bare array, for internal loops that avoid wrapping."""
    return float(space.spacing * np.sum(np.abs(values)))


def induced_operator_norm(matrix: np.ndarray, space: GridSpace) -> float:
    """Operator norm induced by the weighted l1 norm.

    For M acting on grid vectors this is the largest weighted column sum,
    max_j (sum_i w_i |M_ij|) / w_j.  Uniform weights reduce it to the plain
    l1 matrix norm.
    """
    w = space.weights
    return float(np.max((w @ np.abs(matrix)) / w))
