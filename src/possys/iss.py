"""Input-to-state stability verdicts and gain envelopes.

The spectral route decides eISS from two numbers: the spectral bound of the
unperturbed generator and the small-gain radius of the loop operator.  The
trajectory route fits an envelope ||z(t)|| <= N exp(-mu t) ||x|| + G ||u||_L1
and validates it.  Both routes are kept; neither is allowed to stand in for
the other.

On every step the triangle inequality gives
||z_k|| <= ||E^k|| ||x0|| + max_m ||E^m F|| / dt ||u||_L1, so the envelope
holds for every pair (x, u) on the grid, signed or not, once it holds for
the worst unit-norm pairs, a basis state and a one-step pulse.  Those are
checked on the fit's own norm curves, after one forward trajectory of the
pair x0 = 1, u = 1 has matched them: exactly on a nonnegative step with
F >= 0, where the norm is additive on the cone, and as an upper bound
elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control import InputSignal, _as_column, input_recursion, step_input_operators
from .errors import GainValidationError
from .generators import RESIDUAL_TOL, perron_mode, spectral_bound
from .lattice import weighted_column_sums, weighted_l1
from .perturbation import PerturbedSystem, small_gain_radius
from .semigroup import (
    DEFAULT_METHOD,
    FIT_STEPS,
    NORM_FLOOR,
    _nonnegative,
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
# an envelope may fall short of a norm by this much before it is refused
SLACK = 1e-8


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


def iss_verdict(system: PerturbedSystem, guard: float = GUARD_BAND) -> ISSReport:
    """Spectral eISS test: s(A) < 0 and loop radius < 1, with a guard band.

    Inside the band the verdict is inconclusive rather than a coin flip.
    not_eISS verdicts attach a nonnegative initial state whose zero-input
    trajectory grows; its growth rate is s(A_S).
    """
    s_a = spectral_bound(system.base)
    r = small_gain_radius(system)
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
    return ISSReport(verdict=verdict, spectral_bound=s_a, small_gain_radius=r, witness=witness)


def iss_gain_fit(
    system: PerturbedSystem,
    b,
    horizon: Optional[float] = None,
    dt: Optional[float] = None,
) -> tuple[float, float, float]:
    """Fit (N, mu, G) for the perturbed system and validate the envelope.

    The horizon defaults to `decay_horizon(s(A_S))` on FIT_STEPS steps.
    mu is the log-slope of ||S(t)|| over the tail half of the horizon
    (`tail_slope`), N lifts the envelope over the measured norm curve above
    NORM_FLOOR, and G combines
    max_k ||S(t_k) b|| with the per-step input operator so the estimate
    holds exactly on the grid.  The fit is for the L1 input norm.

    One `norm_curves` call serves the fit and its validation
    (`_check_envelope`), which matches the curves against one forward
    trajectory and checks the worst unit-norm pairs; those bound every pair
    on the grid, signed or not.  A violation beyond SLACK raises
    GainValidationError naming its witness.  An understated N or G is
    caught; an overstated mu is absorbed by N's lift and is not.
    """
    model = system.perturbed
    col = _as_column(b, model.space)
    if horizon is None:
        horizon = decay_horizon(spectral_bound(model))
    if dt is None:
        dt = horizon / FIT_STEPS
    steps = grid_steps(horizon, dt, "horizon")
    e, f = step_input_operators(model, col, dt)

    x0 = np.ones(model.cells)
    op_norms, _, (imp_norms, inj_norms, free) = norm_curves(model, e, DEFAULT_METHOD, steps, (f, col, x0))
    times = np.arange(steps + 1) * dt
    mu = -tail_slope(times, op_norms)
    if mu <= 0:
        raise GainValidationError(f"fit window produced nonpositive decay rate {mu}; lengthen the horizon")
    # lift over the curve above the floor; beyond it exp(mu t) may overflow
    above = op_norms > NORM_FLOOR
    amplitude = float(np.max(op_norms[above] * np.exp(mu * times[above])))
    gain = float(max(np.max(inj_norms), np.max(imp_norms[:-1]) / dt))

    cone = _nonnegative(model, e, DEFAULT_METHOD) and bool(np.all(f >= 0))
    _check_envelope(model, e, f, (op_norms, imp_norms, free), amplitude, mu, gain, times, cone)
    return amplitude, mu, gain


def _check_envelope(model, e, f, curves, amplitude, mu, gain, times, cone):
    """The envelope on every pair (x, u) on the grid, from the norm curves
    (||E^k||, c_k, ||E^k x0||) of the fit, c_k = ||E^k F||, x0 = 1.

    The pair x0 = 1, u = 1 has z_k = E^k x0 + sum_{j<k} E^{k-1-j} F, so by
    the triangle inequality ||z_k|| <= ||E^k x0|| + c_0 + ... + c_{k-1}; on
    the cone (`cone`: E >= 0 and F >= 0) the norm is additive and the two
    are equal.  A forward trajectory of that pair above the bound, or off
    it on the cone, by more than RESIDUAL_TOL relative raises
    GainValidationError; then the extremal pairs are checked on the curves
    it certified.
    """
    op, impulse, free = curves
    steps = len(times) - 1
    total = free.copy()
    total[1:] += np.cumsum(impulse[:-1])
    stepped = np.fromiter(
        (weighted_l1(z, model.space) for z in input_recursion(e, f, np.ones(model.cells), np.ones(steps))),
        float, steps + 1,
    )
    # norms underflowed below NORM_FLOOR are compared in absolute terms
    off = (stepped - total) / np.maximum(np.maximum(stepped, total), NORM_FLOOR)
    bad = np.flatnonzero((np.abs(off) if cone else off) > RESIDUAL_TOL)
    if len(bad):
        k = int(bad[0])
        raise GainValidationError(
            f"forward and adjoint norms of the pair x0 = 1, u = 1 differ by {abs(off[k]):.3e} "
            f"relative at t = {times[k]}",
            time=float(times[k]),
        )
    _check_extremal_pairs(model, e, op, impulse, amplitude, mu, gain, times, cone)


def _check_extremal_pairs(model, e, op, impulse, amplitude, mu, gain, times, cone):
    """The envelope on the worst unit-norm pairs, raising
    GainValidationError with that pair as the witness.

    By the triangle inequality ||z_k|| <= ||E^k|| ||x|| + max_m c_m / dt ||u||_L1
    with c_m = ||E^m F||, so the envelope holds for every pair on the grid
    once it holds for a unit basis state (ratio ||E^k||, `op`) and for a
    one-step unit pulse (ratio c_m / dt, `impulse`).  The basis state is
    read off the adjoint recursion on the cone and off the powers E^k
    elsewhere.  An understated N or G is caught here; an overstated mu is
    not, since N is lifted over the same norm curve it was fitted to.
    """
    dt = times[1]
    above = op > NORM_FLOOR
    basis_gaps = np.where(above, amplitude * np.exp(-mu * times) - op, np.inf)
    k = int(np.argmin(basis_gaps))
    if basis_gaps[k] < -SLACK:
        w = model.space.weights
        if cone:
            y = w
            for _ in range(k):
                y = e.T @ y
            sums = y / w
        else:
            m = np.eye(model.cells)
            for _ in range(k):
                m = e @ m
            sums = weighted_column_sums(m, model.space)
        j = int(np.argmax(sums))
        raise GainValidationError(
            f"envelope violated by {-basis_gaps[k]:.3e} at t = {times[k]} from the unit basis state {j}",
            state=model.space.basis(j).values / w[j],
            signal=InputSignal.zero(),
            time=float(times[k]),
            gap=float(basis_gaps[k]),
        )
    pulse_gaps = gain - impulse[:-1] / dt
    m = int(np.argmin(pulse_gaps))
    if pulse_gaps[m] < -SLACK:
        raise GainValidationError(
            f"envelope violated by {-pulse_gaps[m]:.3e} at t = {times[m + 1]} "
            "from a unit pulse on the first step",
            state=np.zeros(model.cells),
            signal=InputSignal.constant(1.0 / dt, dt),
            time=float(times[m + 1]),
            gap=float(pulse_gaps[m]),
        )
