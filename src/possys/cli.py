"""Command-line front end: simulate, audit, sweep.

Configuration is a single JSON document.  Outputs are deterministic for a
fixed config: nothing draws from its seed, which is only echoed; floats are
serialized with shortest round-trip formatting, JSON keys are sorted, and
CSV uses LF line endings.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
import tempfile
import threading
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import __version__
from .control import (
    ADMISSIBILITY_STEPS,
    ControlOperator,
    InputSignal,
    admissibility_curve,
    composition_probe,
    default_alpha,
    impulse_response_norms,
    mild_solution,
    resolvent_bound_audit,
)
from .errors import ConfigError, PossysError, SingularSystemError, WorkBudgetError
from .generators import GeneratorModel, inverse_estimate_constant, spectral_bound
from .iss import EISS, iss_gain_fit, iss_verdict
from .lattice import POSITIVITY_TOL, GridSpace, GridVector
from .perturbation import PerturbedSystem, assemble_perturbed, small_gain_radius
from .scenarios import markov_cycle_scenario, renewal_scenario, ring_transport_scenario
from .semigroup import EvolutionPlan, left_invertibility_audit

CONFIG_KEYS = (
    "scenario", "plan", "input", "initial_state", "audits", "seed", "tau", "lambda0", "alpha", "p", "gain_fit",
)
# scenario kind -> the keys its scenario object may have
SCENARIO_KEYS = {
    "renewal": ("kind", "q", "beta", "length", "cells"),
    "ring_transport": ("kind", "a", "length", "cells"),
    "markov_cycle": ("kind", "cells"),
    "explicit": ("kind", "matrix", "length", "b", "beta"),
}
# sweep parameter -> (the scenario key it sets, the scenario kind it needs)
SWEEP_PARAMS = {
    "beta0": ("beta", "renewal"),
    "q0": ("q", "renewal"),
    "a": ("a", "ring_transport"),
    "n": ("cells", "renewal"),
}


def _number(value, what: str, integer: bool = False, positive: bool = False, nullable: bool = False):
    """A config value that must be a JSON integer (`integer`) or a finite JSON
    number, returned as float; > 0 when `positive`, null when `nullable`."""
    if value is None and nullable:
        return None
    ok = type(value) is int if integer else type(value) in (int, float) and abs(value) <= sys.float_info.max
    if not ok or (positive and value <= 0):
        kind = ("positive " if positive else "") + ("integer" if integer else "finite number")
        raise ConfigError(f"{what} must be a {kind}, got {json.dumps(value)}")
    return value if integer else float(value)


def _known_keys(obj: dict, keys, what: str) -> None:
    """Refuse the first key of `obj`, in sorted order, that is not in `keys`."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {what} key {unknown[0]!r}; known keys are {sorted(keys)}")


def _fmt(x: float) -> str:
    """Shortest round-trip decimal of an IEEE double."""
    return repr(float(x))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


@dataclass
class RunConfig:
    """Parsed and defaulted configuration document."""

    scenario: dict
    plan: dict
    signal: Optional[InputSignal]
    initial_state: Union[str, list]
    audits: list
    seed: int
    tau: float
    lambda0: Optional[float]
    alpha: Optional[float]
    p: float
    gain_fit: dict

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _known_keys(raw, CONFIG_KEYS, "config")

        scenario = raw.get("scenario")
        if not isinstance(scenario, dict) or "kind" not in scenario:
            raise ConfigError("config needs a scenario object with a 'kind'")
        kind = scenario["kind"]
        if not isinstance(kind, str) or kind not in SCENARIO_KEYS:
            raise ConfigError(f"unknown scenario kind {kind!r}")
        _known_keys(scenario, SCENARIO_KEYS[kind], f"{kind} scenario")

        plan = raw.get("plan", {})
        if not isinstance(plan, dict):
            raise ConfigError("plan must be an object")
        _known_keys(plan, ("t_end", "dt", "method"), "plan")
        plan = {k: _number(v, f"plan.{k}", positive=True) if k in ("t_end", "dt") else v
                for k, v in plan.items()}

        signal = None
        inp = raw.get("input")
        if inp is not None:
            if not isinstance(inp, dict):
                raise ConfigError("input must be an object or null")
            _known_keys(inp, ("path", "breakpoints", "values"), "input")
            if "path" in inp:
                if not os.path.exists(inp["path"]):
                    raise ConfigError(f"input file not found: {inp['path']}")
                try:
                    signal = InputSignal.from_csv(inp["path"])
                except ValueError as exc:
                    raise ConfigError(f"bad input CSV {inp['path']}: {exc}") from exc
            else:
                try:
                    signal = InputSignal(
                        np.asarray(inp.get("breakpoints", []), dtype=float),
                        np.asarray(inp.get("values", []), dtype=float),
                    )
                except ValueError as exc:
                    raise ConfigError(f"bad inline input signal: {exc}") from exc

        initial = raw.get("initial_state", "zeros")
        if isinstance(initial, str):
            if initial not in ("zeros", "bump"):
                raise ConfigError(f"unknown initial_state preset {initial!r}")
        elif isinstance(initial, list):
            initial = [_number(v, f"initial_state[{i}]") for i, v in enumerate(initial)]
        else:
            raise ConfigError("initial_state must be 'zeros', 'bump', or a list")

        audits = raw.get("audits", list(DEFAULT_AUDITS))
        if not isinstance(audits, list) or any(a not in KNOWN_AUDITS for a in audits):
            raise ConfigError(f"audits must be a list drawn from {sorted(KNOWN_AUDITS)}")

        seed = _number(raw.get("seed", 0), "seed", integer=True)
        if seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
        tau = _number(raw.get("tau", 1.0), "tau", positive=True)

        p_raw = raw.get("p", 1)
        if type(p_raw) is not bool and p_raw in (1, 2):
            p = float(p_raw)
        elif p_raw in ("inf", "Infinity"):
            p = math.inf
        else:
            raise ConfigError("p must be 1, 2, or 'inf'")

        fit = raw.get("gain_fit", {})
        if not isinstance(fit, dict) or any(k not in ("horizon", "dt") for k in fit):
            raise ConfigError("gain_fit must be an object with keys drawn from ['dt', 'horizon']")
        gain_fit = {
            k: _number(fit.get(k), f"gain_fit.{k}", positive=True, nullable=True) for k in ("horizon", "dt")
        }

        return cls(
            scenario=scenario,
            plan=plan,
            signal=signal,
            initial_state=initial,
            audits=audits,
            seed=seed,
            tau=tau,
            lambda0=_number(raw.get("lambda0"), "lambda0", nullable=True),
            alpha=_number(raw.get("alpha"), "alpha", nullable=True),
            p=p,
            gain_fit=gain_fit,
        )


@dataclass
class BuiltScenario:
    kind: str
    model: GeneratorModel                      # the generator audits run against
    system: Optional[PerturbedSystem] = None   # closed loop, when one exists
    injection: Optional[ControlOperator] = None
    echo: dict = field(default_factory=dict)


def _cells(sc: dict, default: int) -> int:
    return _number(sc.get("cells", default), "scenario.cells", integer=True, positive=True)


def _values(value, what: str, cells: int):
    """A scenario value that is one finite number or a list of `cells` of
    them, each checked by `_number` under its index."""
    if isinstance(value, list):
        if len(value) != cells:
            raise ConfigError(f"{what} needs {cells} values, got {len(value)}")
        return [_number(v, f"{what}[{i}]") for i, v in enumerate(value)]
    return _number(value, what)


def build_scenario(cfg: RunConfig) -> BuiltScenario:
    sc = cfg.scenario
    kind = sc["kind"]
    try:
        if kind == "renewal":
            cells = _cells(sc, 2000)
            rs = renewal_scenario(
                _values(sc.get("q", 1.0), "scenario.q", cells),
                _values(sc.get("beta", 0.0), "scenario.beta", cells),
                length=_number(sc.get("length"), "scenario.length", positive=True, nullable=True),
                cells=cells,
            )
            echo = dict(rs.parameters)
            echo["flags"] = {
                "sup_beta_below_sup_q": rs.sup_beta_below_sup_q,
                "sup_beta_below_min_q": rs.sup_beta_below_min_q,
            }
            return BuiltScenario(
                kind=kind,
                model=rs.generator,
                system=rs.system,
                injection=rs.boundary_input,
                echo=echo,
            )
        if kind == "ring_transport":
            echo = {
                "a": _number(sc.get("a", 2.0), "scenario.a"),
                "length": _number(sc.get("length", 1.0), "scenario.length", positive=True),
                "cells": _cells(sc, 100),
            }
            model = ring_transport_scenario(gain=echo["a"], length=echo["length"], cells=echo["cells"])
            return BuiltScenario(kind=kind, model=model, echo=echo)
        if kind == "markov_cycle":
            cells = _cells(sc, 8)
            return BuiltScenario(kind=kind, model=markov_cycle_scenario(cells), echo={"cells": cells})
        if kind == "explicit":
            rows = sc.get("matrix")
            n = len(rows) if isinstance(rows, list) else 0
            if not n or not all(isinstance(row, list) and len(row) == n for row in rows):
                raise ConfigError("explicit scenario needs a square matrix")
            matrix = [_values(row, f"scenario.matrix[{i}]", n) for i, row in enumerate(rows)]
            space = GridSpace(length=_number(sc.get("length", n), "scenario.length", positive=True), cells=n)
            model = GeneratorModel.from_matrix(space, matrix)
            built = BuiltScenario(kind=kind, model=model, echo={"cells": n, "length": space.length})
            if "b" in sc:
                built.injection = ControlOperator(space=space, column=_values(sc["b"], "scenario.b", n))
            if "beta" in sc:
                if built.injection is None:
                    raise ConfigError("explicit scenario with beta needs an injection column b")
                built.system = assemble_perturbed(model, built.injection, _values(sc["beta"], "scenario.beta", n))
            return built
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad scenario parameters: {exc}") from exc
    raise ConfigError(f"unknown scenario kind {kind!r}")


def _check_initial_state(cfg: RunConfig, built: BuiltScenario) -> None:
    """An initial_state list holds one value per cell: audit and simulate
    refuse another length alike, though only simulate reads it."""
    if isinstance(cfg.initial_state, list) and len(cfg.initial_state) != built.model.cells:
        raise ConfigError(f"initial_state needs {built.model.cells} values, got {len(cfg.initial_state)}")


def _initial_vector(cfg: RunConfig, space: GridSpace) -> GridVector:
    if cfg.initial_state == "zeros":
        return space.zeros()
    if cfg.initial_state == "bump":
        x = space.centers
        width = space.length / 10.0
        return space.vector(np.exp(-(((x - space.length / 4.0) / width) ** 2)))
    return space.vector(np.asarray(cfg.initial_state, dtype=float))


def _plan(cfg: RunConfig) -> EvolutionPlan:
    plan = cfg.plan
    t_end = plan.get("t_end", 10.0)
    dt = plan.get("dt", t_end / 200)
    # without a method the plan keeps EvolutionPlan's default stepper
    method = {"method": plan["method"]} if "method" in plan else {}
    try:
        return EvolutionPlan(t_end=t_end, dt=dt, **method)
    except ValueError as exc:
        raise ConfigError(f"bad plan: {exc}") from exc


class OutputError(Exception):
    """An output file could not be written; the CLI exits 2."""


@contextlib.contextmanager
def _output(path: str):
    """`path` opened for writing; an OSError from opening, writing or closing
    it becomes an OutputError naming the path."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _stdout_error(exc: OSError) -> OutputError:
    return OutputError(f"cannot write stdout: {exc.strerror or exc}")


def _complain(message) -> None:
    """Print `message` as one line on stderr.  A stderr closed at start-up
    (None, where print would write to stdout) or failing to write loses the
    line, never the exit code."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(message, file=sys.stderr, flush=True)


def _summary(summary: dict) -> None:
    """Print the command's one-line JSON summary; an OSError from writing it
    (an unbuffered stdout fails here) becomes an OutputError."""
    try:
        print(json.dumps(_jsonable(summary), sort_keys=True))
    except OSError as exc:
        raise _stdout_error(exc) from exc


# fields per block of the simulate CSV formatter
_FORMAT_FIELDS = 16384


def _write_rows(fh, times, states) -> None:
    # floatfmt's bytes are repr's, so each field is _fmt's shortest round
    # trip; blocks of _FORMAT_FIELDS fields keep its arrays small, and each
    # block goes to the file as soon as it is made.  A row wider than that
    # is cut into blocks of _FORMAT_FIELDS fields, each but its last ending
    # in "," where floatfmt ends a row in "\n".
    from . import floatfmt

    width = states.shape[1] + 1
    step = max(1, _FORMAT_FIELDS // width)
    fh.flush()
    for a in range(0, len(times), step):
        block = np.column_stack((times[a : a + step], states[a : a + step]))
        for c in range(0, width, _FORMAT_FIELDS):
            text = floatfmt.csv_rows(block[:, c : c + _FORMAT_FIELDS])
            fh.buffer.write(text if c + _FORMAT_FIELDS >= width else text[:-1] + b",")


def _writers(rows: int) -> int:
    """Processes that format a table of `rows` rows: one per CPU this process
    may run on (`os.sched_getaffinity`), at most one per row, writer i on the
    i-th of those CPUs (`_write_table`).  One where fork or the CPU set is
    unavailable, or while other threads are alive, since a forked child
    holds only the calling thread and could inherit a lock one of them
    holds."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), rows)


def _pin(cpus) -> None:
    """Run this process on `cpus` alone.  Where that is refused (a CPU that
    is offline or outside the cgroup's set) it runs where it ran."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _start_writer(files: contextlib.ExitStack, times, states, cpu: int):
    """Fork a child that runs on `cpu` (`_pin`), writes these rows to a
    temporary file, entered into `files`, and exits: (pid, file), or None
    when no file or no process can be had."""
    try:
        tmp = files.enter_context(tempfile.TemporaryFile("w+", newline=""))
        with warnings.catch_warnings():
            # on 3.12+ fork warns when BLAS threads exist; the child only
            # formats floats with numpy ufuncs, calling no BLAS and taking
            # no lock
            warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
            pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            _pin({cpu})
            _write_rows(tmp, times, states)
            tmp.flush()
            code = 0
        finally:
            # never return into the caller's stack, atexit or buffers
            os._exit(code)
    return pid, tmp


def _write_table(fh, times, states) -> None:
    """Write one CSV row per time, `t` then the state, every field repr(float).

    The rows are cut into one contiguous block per writer (`_writers`).  A
    forked child formats each later block into a temporary file while this
    process writes block 0; the files are then appended in order.  Writer i
    runs on the i-th CPU of this process's set, and this process gets its
    own set back once block 0 is written: Linux starts a forked child on
    its parent's CPU and may leave it there, so two unpinned writers can
    take turns on one core.  A block whose child could not start or failed
    is formatted here: the work is deterministic, so a real error raises as
    it would in one process, and the bytes do not depend on the number of
    writers or on where they ran."""
    # the children inherit the formatter's tables
    from . import floatfmt  # noqa: F401

    # Freeing this untouched array raises glibc's mmap threshold to 16 MiB
    # and its heap trim threshold to twice that, and the children inherit
    # both.  The heap then keeps a formatter block's 5 MiB of arrays from
    # one block to the next instead of handing them back and faulting them
    # in again, which took two fifths of the formatter's time.
    np.empty(16 << 20, np.uint8)

    rows = len(times)
    k = _writers(rows)
    cuts = [rows * i // k for i in range(k + 1)]
    blocks = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    if k > 1:
        home = os.sched_getaffinity(0)
        cpus = sorted(home)
        # nothing buffered before the fork may be written twice; a standard
        # stream closed at start-up is None, and one that cannot be flushed
        # is left to run's flush
        fh.flush()
        for stream in (sys.stdout, sys.stderr):
            with contextlib.suppress(OSError, AttributeError):
                stream.flush()
    with contextlib.ExitStack() as files:
        writers = []
        try:
            for i, block in enumerate(blocks[1:], 1):
                writers.append(_start_writer(files, times[block], states[block], cpus[i]))
            if k > 1:
                _pin({cpus[0]})
            _write_rows(fh, times[blocks[0]], states[blocks[0]])
        finally:
            if k > 1:
                _pin(home)
            # every child is reaped, whether or not block 0 was written
            done = [w is not None and os.waitpid(w[0], 0)[1] == 0 for w in writers]
        for block, writer, ok in zip(blocks[1:], writers, done):
            if ok:
                writer[1].seek(0)
                shutil.copyfileobj(writer[1].buffer, fh.buffer)
            else:
                _write_rows(fh, times[block], states[block])


def cmd_simulate(cfg: RunConfig, plan: EvolutionPlan, out_path: str) -> int:
    built = build_scenario(cfg)
    _check_initial_state(cfg, built)
    model = built.system.perturbed if built.system is not None else built.model
    x0 = _initial_vector(cfg, model.space)
    u = cfg.signal if cfg.signal is not None else InputSignal.zero()
    if built.injection is not None:
        col = built.injection.column
    else:
        if np.any(u.values):
            raise ConfigError("scenario has no injection column; input signal cannot act")
        col = np.zeros(model.cells)

    traj = mild_solution(model, col, x0, u, plan)

    n = model.cells
    with _output(out_path) as fh:
        fh.write("t," + ",".join(f"x{j}" for j in range(n)) + "\n")
        _write_table(fh, traj.times, traj.states)

    norms = traj.norms()
    marks = sorted(set(np.linspace(0, len(traj.times) - 1, 5).astype(int).tolist()))
    summary = {
        "command": "simulate",
        "version": __version__,
        "seed": cfg.seed,
        "out": out_path,
        "rows": len(traj.times),
        "cells": n,
        "method": plan.method,
        "dt": plan.dt,
        "final_norm": float(norms[-1]),
        "positivity_violations": int(np.sum(traj.states < -POSITIVITY_TOL)),
        "checkpoints": {
            "t": [float(traj.times[k]) for k in marks],
            "l1_norm": [float(norms[k]) for k in marks],
        },
    }
    _summary(summary)
    return 0


def _inverse_estimate(cfg, built, report):
    lam0 = cfg.lambda0 if cfg.lambda0 is not None else max(report["s_A"], 0.0) + 1.0
    report["lambda0"] = lam0
    try:
        report["c"] = inverse_estimate_constant(built.model, lam0)
    except (ValueError, SingularSystemError) as exc:
        return str(exc)
    return None


def _admissibility(cfg, built, report):
    model, col, tau = built.model, built.injection.column, cfg.tau
    # kappa and kappa_inf off one impulse-response curve.  It (tau/1024 grid)
    # and the probe (tau/64) step implicit Euler, refused past dt s(A) < 1;
    # the curve runs first, so a model past the bound on both names its dt
    dt = tau / ADMISSIBILITY_STEPS
    try:
        norms = impulse_response_norms(model, col, tau, dt)
        residual = composition_probe(model, col, tau)
    except SingularSystemError as exc:
        return str(exc)
    report["kappa"] = float(admissibility_curve(norms, dt, cfg.p)[-1])
    # A is Metzler, so every input map of a u >= 0 is >= 0 exactly when b >= 0
    scale = float(np.max(np.abs(col))) or 1.0
    report["positive_admissible"] = bool(np.min(col) >= -POSITIVITY_TOL * scale)
    report["composition_residual"] = residual
    kappa_inf = admissibility_curve(norms, dt, math.inf)
    marks = [ADMISSIBILITY_STEPS // d for d in (8, 4, 2, 1)]
    report["uniform_decay"] = {
        "tau": [k * dt for k in marks],
        "kappa_inf": [float(kappa_inf[k]) for k in marks],
    }


def _resolvent_bound(cfg, built, report):
    alpha = cfg.alpha if cfg.alpha is not None else default_alpha(report["s_A"], cfg.tau)
    report["alpha"] = alpha
    try:
        report["m_alpha"] = resolvent_bound_audit(built.model, built.injection.column, alpha, p=cfg.p)
    except (ValueError, SingularSystemError) as exc:
        return str(exc)
    return None


def _small_gain(cfg, built, report):
    report["r"] = small_gain_radius(built.system)


def _iss(cfg, built, report):
    rep = iss_verdict(built.system)
    report.update(verdict=rep.verdict, r=rep.small_gain_radius, witness=rep.witness)


def _gain_fit(cfg, built, report):
    if cfg.p != 1:
        return "gain fit is implemented for p = 1 only"
    col = built.injection.column
    if np.min(col) < 0:
        j = int(np.argmin(col))
        return f"gain fit needs a nonnegative injection column, got b[{j}] = {float(col[j])!r}"
    # the iss audit's verdict when it ran first
    verdict = report["verdict"] or iss_verdict(built.system).verdict
    if verdict != EISS:
        return f"gain fit requires an eISS verdict, got {verdict}"
    report["N"], report["mu"], report["G"] = iss_gain_fit(built.system, col, **cfg.gain_fit)
    return None


def _left_invertibility(cfg, built, report):
    t_end = cfg.plan.get("t_end", 2.0)
    try:
        audit = left_invertibility_audit(built.model, np.linspace(0.0, t_end, 65))
    except WorkBudgetError as exc:
        return str(exc)
    report["left_invertibility"] = {
        "holds": audit.holds,
        "amplitude": audit.amplitude,
        "rate": audit.rate if math.isfinite(audit.rate) else None,
    }


def _domination(cfg, built, report):
    # A is Metzler, so P >= 0 gives T(t) <= S(t) and R(lam, A) <= R(lam, A_S)
    if built.system.perturbation_min() < 0:
        return "domination requires a nonnegative perturbation"
    report["domination_ok"] = True
    return None


class Audit(NamedTuple):
    """One audit.  `run(cfg, built, report)` writes `keys` into the report
    and returns None, or returns why it skipped.  `needs`: the BuiltScenario
    fields it cannot run without, and the skip reason when one of them is
    None."""

    run: Callable[[RunConfig, BuiltScenario, dict], Optional[str]]
    keys: tuple
    default: bool = False
    needs: tuple = ((), "")


_INJECTION = (("injection",), "scenario has no injection column")
_PERTURBATION = (("system",), "scenario has no perturbation")
_LOOP_AND_INJECTION = (("system", "injection"), "gain fit needs a perturbed system with an injection column")
# the audits in the order DEFAULT_AUDITS and KNOWN_AUDITS list them
AUDITS = {
    "inverse_estimate": Audit(_inverse_estimate, ("lambda0", "c"), default=True),
    "admissibility": Audit(
        _admissibility, ("kappa", "positive_admissible", "composition_residual", "uniform_decay"),
        default=True, needs=_INJECTION,
    ),
    "resolvent_bound": Audit(_resolvent_bound, ("alpha", "m_alpha"), default=True, needs=_INJECTION),
    "small_gain": Audit(_small_gain, ("r",), default=True, needs=_PERTURBATION),
    "iss": Audit(_iss, ("verdict", "r", "witness"), default=True, needs=_PERTURBATION),
    "gain_fit": Audit(_gain_fit, ("N", "mu", "G"), needs=_LOOP_AND_INJECTION),
    "left_invertibility": Audit(_left_invertibility, ("left_invertibility",)),
    "domination": Audit(_domination, ("domination_ok",), needs=_PERTURBATION),
}
DEFAULT_AUDITS = tuple(name for name, audit in AUDITS.items() if audit.default)
KNOWN_AUDITS = tuple(AUDITS)


def cmd_audit(cfg: RunConfig, out_path: str) -> int:
    built = build_scenario(cfg)
    _check_initial_state(cfg, built)
    report = {
        "version": __version__,
        "seed": cfg.seed,
        "scenario": {"kind": built.kind, "parameters": built.echo},
        "audits_run": [],
        "skipped": [],
        "p": cfg.p if math.isfinite(cfg.p) else "inf",
        "tau": cfg.tau,
        "s_A": spectral_bound(built.model),
    }
    report.update((key, None) for audit in AUDITS.values() for key in audit.keys)
    for name in cfg.audits:
        audit = AUDITS[name]
        fields, reason = audit.needs
        if all(getattr(built, f) is not None for f in fields):
            reason = audit.run(cfg, built, report)
        if reason is None:
            report["audits_run"].append(name)
        else:
            report["skipped"].append([name, reason])

    payload = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    with _output(out_path) as fh:
        fh.write(payload)
    _summary({
        "command": "audit",
        "out": out_path,
        "r": report["r"],
        "s_A": report["s_A"],
        "verdict": report["verdict"],
    })
    return 0


def _sweep_row(cfg: RunConfig, param: str, value: float) -> dict:
    key, kind = SWEEP_PARAMS[param]
    if cfg.scenario.get("kind") != kind:
        raise ConfigError(f"sweep over {param} needs a {kind} scenario")
    # build_scenario refuses a cells value that is not a positive integer
    setting = int(value) if param == "n" and float(value).is_integer() else value
    built = build_scenario(replace(cfg, scenario={**cfg.scenario, key: setting}))
    if built.system is None:
        return {"value": value, "r": None, "s_perturbed": spectral_bound(built.model),
                "verdict": None, "mu": None}
    rep = iss_verdict(built.system)
    s_pert = spectral_bound(built.system.perturbed)
    # an eISS loop decays at its growth bound: mu = -s(A_S), not fitted
    return {"value": value, "r": rep.small_gain_radius, "s_perturbed": s_pert,
            "verdict": rep.verdict, "mu": -s_pert if rep.verdict == EISS else None}


def cmd_sweep(cfg: RunConfig, param: str, values: list, out_path: str) -> int:
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {tuple(SWEEP_PARAMS)}, got {param!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    # one row at a time: the banded solves hold the GIL, so threads only
    # add contention, and one scenario is alive at a time
    rows = sorted((_sweep_row(cfg, param, v) for v in values), key=lambda row: row["value"])
    with _output(out_path) as fh:
        fh.write(f"# seed={cfg.seed} version={__version__}\n")
        fh.write("value,r,s_perturbed,verdict,mu\n")
        for row in rows:
            fh.write(
                ",".join(
                    [
                        _fmt(row["value"]),
                        "" if row["r"] is None else _fmt(row["r"]),
                        _fmt(row["s_perturbed"]),
                        "" if row["verdict"] is None else row["verdict"],
                        "" if row["mu"] is None else _fmt(row["mu"]),
                    ]
                )
                + "\n"
            )
    _summary({"command": "sweep", "out": out_path, "rows": len(rows)})
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="possys",
        description="Simulate positive boundary-controlled transport systems and audit their stability.",
    )
    parser.add_argument("--version", action="version", version=f"possys {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate the system and write a trajectory CSV")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default="trajectory.csv")

    aud = sub.add_parser("audit", help="run the requested audits and write a JSON report")
    aud.add_argument("--config", required=True)
    aud.add_argument("--out", default="report.json")

    swp = sub.add_parser("sweep", help="sweep one parameter and write a CSV table")
    swp.add_argument("--config", required=True)
    swp.add_argument("--param", required=True)
    swp.add_argument("--values", required=True, help="comma-separated list of values")
    swp.add_argument("--out", default="sweep.csv")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        # every command refuses the plans simulate refuses, though only
        # simulate and left_invertibility read the plan
        plan = _plan(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, plan, args.out)
        if args.command == "audit":
            return cmd_audit(cfg, args.out)
        values = []
        for chunk in args.values.split(","):
            chunk = chunk.strip()
            if chunk:
                try:
                    values.append(float(chunk))
                except ValueError as exc:
                    raise ConfigError(f"bad sweep value {chunk!r}") from exc
        return cmd_sweep(cfg, args.param, values, args.out)
    except ConfigError as exc:
        _complain(f"config error: {exc}")
        return 2
    except OutputError as exc:
        _complain(exc)
        return 2
    except (PossysError, np.linalg.LinAlgError, ValueError) as exc:
        _complain(f"numerical failure: {exc}")
        return 3
    except MemoryError as exc:
        _complain(f"out of memory: {exc}")
        return 3


def run() -> None:
    """The `possys` script and `python -m possys.cli`: `main()`, then stdout
    and stderr flushed and the process ended by `os._exit` with its code,
    skipping the interpreter's teardown (the final collection and the
    freeing of every module), which writes nothing.  A buffered stdout that
    cannot be flushed exits 2, as an unwritable --out does.  argparse's own
    exits and an exception out of `main` take the normal path."""
    code = main()
    try:
        # a stream that was closed at start-up is None
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        _complain(_stdout_error(exc))
        code = 2
    with contextlib.suppress(OSError, AttributeError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
