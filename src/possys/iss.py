"""Input-to-state stability verdicts and gain envelopes.

The spectral route decides eISS from two numbers: the spectral bound of the
unperturbed generator and the small-gain radius of the loop operator.  The
trajectory route fits an envelope ||z(t)|| <= N exp(-mu t) ||x|| + G ||u||_L1
and validates it on random positive (x, u) pairs.  Both routes are kept;
neither is allowed to stand in for the other.

On a nonnegative step the weighted l1 norm is additive on the cone, so the
validation reads every trial's norm off one adjoint recursion,
||z_k|| = y_k . x0 + sum_{j<k} (y_{k-1-j} . F) u_j with y_k = (E^T)^k w, and
checks those numbers against one forward trajectory of the summed trial.
On the cone the worst unit-norm pairs are a basis state and a one-step
pulse, and both are checked as well.  Other steps step the trials forward.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control import InputSignal, _as_column, input_recursion, step_input_operators
from .errors import GainValidationError
from .generators import RESIDUAL_TOL, perron_mode, spectral_bound
from .lattice import weighted_l1
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
# steps per block of the gain-fit validation's trial norms
_CHUNK = 1024


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
    then checked; any violation beyond the slack raises GainValidationError
    naming the worst trial.

    On a nonnegative step with F >= 0 the trial norms come from a second
    `norm_curves` call of the validation's own (`_cone_trial_norms`), and a
    forward trajectory of the summed trial that disagrees with them raises
    with trial -1.  After the trials pass, the envelope is checked on the
    worst unit-norm pairs of the cone (`_check_extremal_pairs`), which
    catches an understated N or G that the trials miss; an overstated mu is
    absorbed by N's lift and is not caught.  Other steps step the trials
    forward through `input_recursion` and get no extremal check.
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

    cone = _nonnegative(model, e, DEFAULT_METHOD) and bool(np.all(f >= 0))
    if cone:
        op_check, _, curves = norm_curves(model, e, DEFAULT_METHOD, steps, np.vstack((f, x0.T)))
        blocks = _cone_trial_norms(model, e, f, curves, x0, u_mat, times)
    else:
        blocks = (
            model.space.spacing * np.sum(np.abs(z), axis=0)[None]
            for z in input_recursion(e, f, x0, u_mat)
        )
    x_norm = model.space.spacing * np.sum(np.abs(x0), axis=0)
    u_norm = dt * np.sum(u_mat, axis=0)
    worst_gap = math.inf
    worst = (0, 0)
    k0 = 0
    for z_norm in blocks:
        decay = amplitude * np.exp(-mu * times[k0 : k0 + len(z_norm)])
        gaps = np.multiply.outer(decay, x_norm)
        gaps += gain * u_norm
        gaps -= z_norm
        k, i = np.unravel_index(np.argmin(gaps), gaps.shape)
        if gaps[k, i] < worst_gap:
            worst_gap, worst = float(gaps[k, i]), (k0 + int(k), int(i))
        k0 += len(z_norm)
    if worst_gap < -slack:
        k, i = worst
        raise GainValidationError(
            f"envelope violated by {-worst_gap:.3e} at t = {times[k]}",
            trial=i,
            state=x0[:, i].copy(),
            signal=InputSignal(times, u_mat[:, i].copy()),
            time=float(times[k]),
            gap=worst_gap,
        )
    if cone:
        _check_extremal_pairs(model, e, op_check, curves[0], amplitude, mu, gain, times, slack)
    return amplitude, mu, gain


def _cone_trial_norms(model, e, f, curves, x0, u_mat, times, chunk: int = _CHUNK):
    """||z_k|| of every trial, in blocks of up to `chunk` steps k, from the
    cone identity; each block is checked against one forward trajectory.

    curves holds c_m = y_m . f and then y_m . x0_i, y_m = (E^T)^m w, from
    `norm_curves`.  For E >= 0, f >= 0 and nonnegative trials,
    ||z_k|| = y_k . x0 + sum_{j<k} c_{k-1-j} u_j.  A piecewise-constant input
    is a sum of segments, level v on steps s <= j < t, and a segment adds
    v (c_{max(k-t, 0)} + ... + c_{k-1-s}) for k > s: O(steps log steps) per
    segment and no array of steps x steps entries.  Every term is >= 0, so
    no sum cancels: the running sums of c for k <= t and sums of
    power-of-two windows (`_window_sums`) for k > t.  A difference of two
    running sums would lose all relative accuracy once the window has
    decayed far below the running sum.
    By linearity the trajectory of the summed trial (sum x0, sum u) has the
    sum of the trial norms as its norm; a step where the two differ by more
    than RESIDUAL_TOL relative raises GainValidationError with trial -1.
    """
    steps, trials = u_mat.shape
    c = curves[0, :-1]
    ramp = np.zeros(steps + 1)
    np.cumsum(c, out=ramp[1:])
    # table[j][m] = c_m + ... + c_{m + 2^j - 1}
    table = [c]
    while 1 << len(table) <= steps:
        half = 1 << (len(table) - 1)
        table.append(table[-1][:-half] + table[-1][half:])
    segments = []
    for i in range(trials):
        u = u_mat[:, i]
        edges = np.flatnonzero(np.diff(u, prepend=0.0, append=0.0))
        segments.extend((i, int(s), int(t), u[s]) for s, t in zip(edges[:-1], edges[1:]) if u[s])
    summed = input_recursion(e, f, x0.sum(axis=1), u_mat.sum(axis=1))
    for k0 in range(0, steps + 1, chunk):
        k1 = min(k0 + chunk, steps + 1)
        block = curves[1:, k0:k1].copy()
        for i, s, t, v in segments:
            lo, hi = max(s + 1, k0), min(t + 1, k1)
            if lo < hi:
                block[i, lo - k0 : hi - k0] += v * ramp[lo - s : hi - s]
            lo = max(t + 1, k0)
            if lo < k1:
                block[i, lo - k0 :] += v * _window_sums(table, lo - t, k1 - lo, t - s)
        total = block.sum(axis=0)
        stepped = np.fromiter(
            (weighted_l1(z, model.space) for z in itertools.islice(summed, k1 - k0)), float, k1 - k0
        )
        # norms underflowed below NORM_FLOOR are compared in absolute terms
        scale = np.maximum(np.maximum(stepped, total), NORM_FLOOR)
        off = np.abs(stepped - total) / scale
        bad = np.flatnonzero(off > RESIDUAL_TOL)
        if len(bad):
            k = k0 + int(bad[0])
            raise GainValidationError(
                f"forward and adjoint norms of the summed trials differ by {off[bad[0]]:.3e} "
                f"relative at t = {times[k]}",
                trial=-1,
                time=float(times[k]),
            )
        yield block.T


def _window_sums(table, start: int, count: int, width: int) -> np.ndarray:
    """c_m + ... + c_{m + width - 1} for m = start .. start + count - 1, one
    power-of-two window of `table` per set bit of width."""
    acc = np.zeros(count)
    offset = 0
    for j in range(width.bit_length()):
        if width >> j & 1:
            acc += table[j][start + offset : start + offset + count]
            offset += 1 << j
    return acc


def _check_extremal_pairs(model, e, op, impulse, amplitude, mu, gain, times, slack):
    """The envelope on the worst unit-norm pairs of the cone, raising
    GainValidationError with trial -1 and that pair as the witness.

    For E >= 0, ||z_k|| <= max_j (y_k)_j / w_j ||x|| + max_m c_m / dt ||u||_L1
    with c_m = ||E^m f||, so the envelope holds for every nonnegative pair
    on the grid once it holds for a unit basis state (ratio ||E^k||, `op`)
    and for a one-step unit pulse (ratio c_m / dt, `impulse`).  An understated
    N or G is caught here; an overstated mu is not, since N is lifted over
    the same norm curve it was fitted to.
    """
    dt = times[1]
    above = op > NORM_FLOOR
    basis_gaps = np.where(above, amplitude * np.exp(-mu * times) - op, np.inf)
    k = int(np.argmin(basis_gaps))
    if basis_gaps[k] < -slack:
        w = model.space.weights
        y = w
        for _ in range(k):
            y = e.T @ y
        j = int(np.argmax(y / w))
        raise GainValidationError(
            f"envelope violated by {-basis_gaps[k]:.3e} at t = {times[k]} from the unit basis state {j}",
            trial=-1,
            state=model.space.basis(j).values / w[j],
            signal=InputSignal.zero(),
            time=float(times[k]),
            gap=float(basis_gaps[k]),
        )
    pulse_gaps = gain - impulse[:-1] / dt
    m = int(np.argmin(pulse_gaps))
    if pulse_gaps[m] < -slack:
        raise GainValidationError(
            f"envelope violated by {-pulse_gaps[m]:.3e} at t = {times[m + 1]} "
            "from a unit pulse on the first step",
            trial=-1,
            state=np.zeros(model.cells),
            signal=InputSignal.constant(1.0 / dt, dt),
            time=float(times[m + 1]),
            gap=float(pulse_gaps[m]),
        )
