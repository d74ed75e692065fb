"""Input-to-state stability verdicts and gain envelopes.

The spectral route decides eISS from two numbers: the spectral bound of the
unperturbed generator and the small-gain radius of the loop operator.  The
trajectory route fits an envelope ||z(t)|| <= N exp(-mu t) ||x|| + G ||u||_L1
on the implicit-Euler grid.  Both routes are kept; neither is allowed to
stand in for the other.

mu is not fitted: it is log1p(-dt s(A_S)) / dt, the decay rate of the step
E = (I - dt A_S)^-1, which tends to -s(A_S) as dt -> 0.  On every step the
triangle inequality gives ||z_k|| <= ||E^k|| ||x0|| + max_m ||E^m F|| / dt
||u||_L1.  N and G are the sups of those two ratios over the grid, that is
over the worst unit-norm pairs, a basis state and a one-step pulse, so
every pair (x, u) on the grid, signed or not, obeys the envelope by
construction.  The curves are read from one adjoint pass, exact where the
norm is additive on the cone, that is for E >= 0 and F >= 0.  The fit's two
refusals ensure both: A_S is Metzler and s(A_S) >= 0 is refused, so E >= 0,
and a signed injection column is refused, so F >= 0.  That the forward
norms of x0 = 1, u = 1 are then the sums the adjoint pass reads is an
identity, asserted by a test on random bands and dense matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control import _as_column, step_input_operators
from .errors import GainValidationError
from .generators import perron_mode, spectral_bound
from .perturbation import PerturbedSystem, small_gain_radius
from .semigroup import (
    FIT_STEPS,
    NORM_FLOOR,
    decay_horizon,
    grid_steps,
    norm_curves,
)

EISS = "eISS"
NOT_EISS = "not_eISS"
INCONCLUSIVE = "inconclusive"
# spectral comparisons within this band are refused, not decided
GUARD_BAND = 1e-9


@dataclass(frozen=True)
class ISSReport:
    """Verdict with the two deciding scalars.  witness carries a growing
    positive initial state for not_eISS verdicts; the (N, mu, G) envelope is
    `iss_gain_fit`'s."""

    verdict: str
    spectral_bound: float
    small_gain_radius: float
    witness: Optional[dict] = None

    def __post_init__(self):
        if self.verdict not in (EISS, NOT_EISS, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == EISS and not (self.spectral_bound < 0 and self.small_gain_radius < 1):
            raise ValueError("eISS verdict contradicts its own scalars")


def iss_verdict(system: PerturbedSystem) -> ISSReport:
    """Spectral eISS test: s(A) < 0 and loop radius < 1, with the guard band
    GUARD_BAND.

    Inside the band the verdict is inconclusive rather than a coin flip.
    not_eISS verdicts attach a nonnegative initial state whose zero-input
    trajectory grows; its growth rate is s(A_S).
    """
    s_a = spectral_bound(system.base)
    r = small_gain_radius(system)
    if s_a < -GUARD_BAND and r < 1.0 - GUARD_BAND:
        verdict = EISS
    elif r > 1.0 + GUARD_BAND or s_a > GUARD_BAND:
        verdict = NOT_EISS
    else:
        verdict = INCONCLUSIVE
    witness = None
    if verdict == NOT_EISS:
        rate, vec = perron_mode(system.perturbed)
        witness = {
            "initial_state": [float(v) for v in vec],
            "growth_rate": float(rate),
        }
    return ISSReport(verdict=verdict, spectral_bound=s_a, small_gain_radius=r, witness=witness)


def iss_gain_fit(
    system: PerturbedSystem,
    b,
    horizon: Optional[float] = None,
    dt: Optional[float] = None,
) -> tuple[float, float, float]:
    """Fit (N, mu, G) for the perturbed system.

    The horizon defaults to `decay_horizon(s(A_S))` on FIT_STEPS steps.
    mu = log1p(-dt s(A_S)) / dt, the decay rate of the implicit-Euler step
    E: every eigenvalue lambda of A_S has |1 - dt lambda| >= 1 - dt s(A_S),
    so mu never exceeds the step's spectral rate, and A_S is Metzler, so
    s(A_S) is an eigenvalue and ||E^k|| >= rho(E)^k = exp(-mu t_k): no
    envelope with a larger mu holds at every k.  A loop with s(A_S) >= 0 is
    refused with GainValidationError.  N = max_k ||E^k|| exp(mu t_k) over
    the grid points whose norm is above NORM_FLOOR, and G = max(max_k
    ||E^k b||, max_m ||E^m F|| / dt) with F the per-step input operator.
    These are the sups over the extremal pairs, a unit basis state and a
    one-step unit pulse, so by the triangle inequality every pair on the
    grid obeys the envelope.  The fit is for the L1 input norm, and for an
    injection column b >= 0: one with a negative entry is refused with
    ValueError.

    One adjoint `norm_curves` pass reads every curve.  It rests on E >= 0
    and F >= 0, which the two refusals ensure; a test asserts that its
    norms are those of forward trajectories.
    """
    model = system.perturbed
    col = _as_column(b, model.space)
    if np.min(col) < 0:
        j = int(np.argmin(col))
        raise ValueError(f"injection column is not nonnegative: b[{j}] = {float(col[j])!r}")
    s = spectral_bound(model)
    # log1p(-dt s) is -inf or nan once dt s >= 1
    if not s < 0:
        raise GainValidationError(f"closed-loop spectral bound {s} is not negative; no decaying envelope")
    if horizon is None:
        horizon = decay_horizon(s)
    if dt is None:
        dt = horizon / FIT_STEPS
    steps = grid_steps(horizon, dt, "horizon")
    mu = math.log1p(-dt * s) / dt
    e, f = step_input_operators(model, col, dt)
    op_norms, _, (imp_norms, inj_norms) = norm_curves(model, e, steps, (f, col))
    times = np.arange(steps + 1) * dt
    # lift over the curve above the floor; beyond it exp(mu t) may overflow
    above = op_norms > NORM_FLOOR
    amplitude = float(np.max(op_norms[above] * np.exp(mu * times[above])))
    gain = float(max(np.max(inj_norms), np.max(imp_norms[:-1]) / dt))
    return amplitude, mu, gain
