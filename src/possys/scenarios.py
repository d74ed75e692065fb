"""Preset systems: the renewal population model, ring transport, and the
Markov cycle.

The renewal preset is the package's main subject: transport with absorption
q(x) on a truncated domain, boundary inflow fed back through the
beta-weighted population integral plus an external control.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .control import ControlOperator
from .generators import GeneratorModel, build_upwind_generator
from .lattice import GridSpace
from .perturbation import PerturbedSystem, assemble_perturbed

Profile = Union[float, list, tuple, np.ndarray]


def profile_array(value: Profile, cells: int) -> np.ndarray:
    """Accept a constant or a per-cell table; reject anything negative."""
    arr = np.broadcast_to(np.asarray(value, dtype=float), (cells,)).copy()
    if not np.all(np.isfinite(arr)):
        raise ValueError("profile entries must be finite")
    if np.min(arr) < 0:
        raise ValueError("profile entries must be nonnegative")
    return arr


def _compact(arr: np.ndarray):
    if np.all(arr == arr[0]):
        return float(arr[0])
    return [float(v) for v in arr]


@dataclass(frozen=True)
class RenewalScenario:
    """Assembled renewal system: generator, boundary injection, closed loop.

    `sup_beta_below_sup_q` is the classical sufficient flag for a loop gain
    below one; it is sharp only for constant absorption, so the stronger
    `sup_beta_below_min_q` travels along for varying profiles.
    `parameters` echoes the inputs, a constant profile as one number.
    """

    system: PerturbedSystem
    boundary_input: ControlOperator
    parameters: dict
    sup_beta_below_sup_q: bool
    sup_beta_below_min_q: bool

    @property
    def generator(self) -> GeneratorModel:
        return self.system.base


def renewal_scenario(
    q: Profile, beta: Profile, length: float | None = None, cells: int = 2000
) -> RenewalScenario:
    """Transport with absorption q, birth feedback beta, boundary control.

    The default domain length 20 / min(q) keeps the discarded tail mass
    below e^{-20}; profiles hitting zero need an explicit length.
    """
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    q_arr = profile_array(q, cells)
    beta_arr = profile_array(beta, cells)
    if length is None:
        q_min = float(np.min(q_arr))
        if q_min <= 0:
            raise ValueError("length must be given when min(q) = 0")
        length = 20.0 / q_min
    space = GridSpace(length=float(length), cells=cells)
    base = build_upwind_generator(space, q_arr)
    b = ControlOperator.boundary_injection(space)
    system = assemble_perturbed(base, b, beta_arr)
    sup_q = float(np.max(q_arr))
    min_q = float(np.min(q_arr))
    sup_b = float(np.max(beta_arr))
    return RenewalScenario(
        system=system,
        boundary_input=b,
        parameters={
            "q": _compact(q_arr),
            "beta": _compact(beta_arr),
            "length": float(length),
            "cells": cells,
        },
        sup_beta_below_sup_q=sup_b < sup_q,
        sup_beta_below_min_q=sup_b < min_q,
    )


def ring_transport_scenario(gain: float = 2.0, length: float = 1.0, cells: int = 100) -> GeneratorModel:
    """Pure transport on a ring whose seam multiplies by `gain`.

    gain >= 1 keeps the cone norm from decaying; gain < 1 is allowed but the
    lower-estimate audits are then expected to fail.
    """
    space = GridSpace(length=float(length), cells=cells)
    return build_upwind_generator(space, 0.0, wrap=float(gain))


def markov_cycle_scenario(cells: int) -> GeneratorModel:
    """Unidirectional rate-1 jump cycle on `cells` states (unit weights): the
    gain-1 ring with h = 1, on its bands.

    Columns sum to zero, so total mass is conserved and the resolvent scales
    norms on the cone by exactly 1/lambda.
    """
    if cells < 2:
        raise ValueError(f"cycle needs at least 2 states, got {cells}")
    return ring_transport_scenario(gain=1.0, length=float(cells), cells=cells)
