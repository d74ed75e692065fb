"""Input-to-state stability verdicts and gain envelopes.

The spectral route decides eISS from two numbers: the spectral bound of the
unperturbed generator and the small-gain radius of the loop operator.  The
trajectory route fits an envelope ||z(t)|| <= N exp(-mu t) ||x|| + G ||u||_L1
and validates it on random positive (x, u) pairs.  Both routes are kept;
neither is allowed to stand in for the other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control import InputSignal, _as_column, input_recursion, step_input_operators
from .errors import GainValidationError
from .generators import perron_mode, spectral_bound
from .perturbation import PerturbedSystem, small_gain_radius
from .semigroup import (
    DEFAULT_METHOD,
    FIT_STEPS,
    NORM_FLOOR,
    decay_horizon,
    grid_steps,
    norm_curves,
    tail_slope,
)

EISS = "eISS"
NOT_EISS = "not_eISS"
INCONCLUSIVE = "inconclusive"
# spectral comparisons within this band are refused, not decided
GUARD_BAND = 1e-9


@dataclass(frozen=True)
class ISSReport:
    """Verdict with the two deciding scalars and, when fitted, the envelope.

    amplitude/decay_rate/gain are the (N, mu, G) of the estimate; they stay
    None until a gain fit runs.  witness carries a growing positive initial
    state for not_eISS verdicts.
    """

    verdict: str
    spectral_bound: float
    small_gain_radius: float
    p: float = 1
    amplitude: Optional[float] = None
    decay_rate: Optional[float] = None
    gain: Optional[float] = None
    witness: Optional[dict] = None

    def __post_init__(self):
        if self.verdict not in (EISS, NOT_EISS, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == EISS:
            if not (self.spectral_bound < 0 and self.small_gain_radius < 1):
                raise ValueError("eISS verdict contradicts its own scalars")
            if self.decay_rate is not None and self.decay_rate <= 0:
                raise ValueError("eISS envelope needs a positive decay rate")
        if self.amplitude is not None and self.amplitude < 1:
            raise ValueError("envelope amplitude is >= 1 by T(0) = I")

    def with_envelope(self, amplitude: float, decay_rate: float, gain: float) -> "ISSReport":
        return ISSReport(
            verdict=self.verdict,
            spectral_bound=self.spectral_bound,
            small_gain_radius=self.small_gain_radius,
            p=self.p,
            amplitude=amplitude,
            decay_rate=decay_rate,
            gain=gain,
            witness=self.witness,
        )


def iss_verdict(system: PerturbedSystem, p: float = 1, guard: float = GUARD_BAND, rng=None) -> ISSReport:
    """Spectral eISS test: s(A) < 0 and loop radius < 1, with a guard band.

    Inside the band the verdict is inconclusive rather than a coin flip.
    not_eISS verdicts attach a nonnegative initial state whose zero-input
    trajectory grows; its growth rate is s(A_S).
    """
    s_a = spectral_bound(system.base)
    r = small_gain_radius(system, rng=rng)
    if s_a < -guard and r < 1.0 - guard:
        verdict = EISS
    elif r > 1.0 + guard or s_a > guard:
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
    return ISSReport(
        verdict=verdict, spectral_bound=s_a, small_gain_radius=r, p=p, witness=witness
    )


def iss_gain_fit(
    system: PerturbedSystem,
    b,
    trials: int = 100,
    horizon: Optional[float] = None,
    dt: Optional[float] = None,
    p: float = 1,
    rng=None,
    slack: float = 1e-8,
) -> tuple[float, float, float]:
    """Fit (N, mu, G) for the perturbed system and validate on random pairs.

    The horizon defaults to `decay_horizon(s(A_S))` on FIT_STEPS steps.
    mu is the log-slope of ||S(t)|| over the tail half of the horizon
    (`tail_slope`), N lifts the envelope over the measured norm curve above
    NORM_FLOOR, and G combines
    max_k ||S(t_k) b|| with the per-step input operator so the estimate
    holds exactly on the grid.  `trials` random nonnegative (x, u) pairs are
    then checked; any violation beyond the slack raises GainValidationError.
    """
    if p != 1:
        raise ValueError("gain fitting is implemented for the L1 input norm only")
    rng = rng if rng is not None else np.random.default_rng(0)
    model = system.perturbed
    col = _as_column(b, model.space)
    if horizon is None:
        horizon = decay_horizon(spectral_bound(model))
    if dt is None:
        dt = horizon / FIT_STEPS
    steps = grid_steps(horizon, dt, "horizon")
    e, f = step_input_operators(model, col, dt)

    op_norms, _, (imp_norms, inj_norms) = norm_curves(model, e, DEFAULT_METHOD, steps, (f, col))
    times = np.arange(steps + 1) * dt
    mu = -tail_slope(times, op_norms)
    if mu <= 0:
        raise GainValidationError(
            f"fit window produced nonpositive decay rate {mu}; lengthen the horizon",
            trial=-1,
        )
    # lift over the curve above the floor; beyond it exp(mu t) may overflow
    above = op_norms > NORM_FLOOR
    amplitude = float(np.max(op_norms[above] * np.exp(mu * times[above])))
    gain = float(max(np.max(inj_norms), np.max(imp_norms[:-1]) / dt))

    # validation: z_{k+1} = E z_k + F u_k for all trials at once
    n = model.cells
    x0 = rng.exponential(size=(n, trials)) * (10.0 ** rng.uniform(-1, 1, size=trials))
    x0[:, ::7] = 0.0
    u_mat = np.zeros((steps, trials))
    for i in range(trials):
        if i % 5 == 4:
            continue
        pieces = rng.integers(1, 6)
        marks = np.sort(rng.integers(0, steps + 1, size=2 * pieces))
        for a, bnd in zip(marks[::2], marks[1::2]):
            u_mat[a:bnd, i] += rng.exponential() * (10.0 ** rng.uniform(-1, 1))

    x_norm = model.space.spacing * np.sum(np.abs(x0), axis=0)
    u_norm = dt * np.sum(u_mat, axis=0)
    worst_gap = math.inf
    worst = (0, 0)
    for k, z in enumerate(input_recursion(e, f, x0, u_mat)):
        z_norm = model.space.spacing * np.sum(np.abs(z), axis=0)
        envelope = amplitude * math.exp(-mu * times[k]) * x_norm + gain * u_norm
        gaps = envelope - z_norm
        i = int(np.argmin(gaps))
        if gaps[i] < worst_gap:
            worst_gap, worst = float(gaps[i]), (k, i)
    if worst_gap < -slack:
        k, i = worst
        raise GainValidationError(
            f"envelope violated by {-worst_gap:.3e} at t = {times[k]}",
            trial=i,
            state=x0[:, i].copy(),
            signal=InputSignal(np.arange(steps + 1) * dt, u_mat[:, i].copy()),
            time=float(times[k]),
            gap=worst_gap,
        )
    return amplitude, mu, gain
