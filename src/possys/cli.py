"""Command-line front end: simulate, audit, sweep.

Configuration is a single JSON document.  Outputs are deterministic for a
fixed config and seed: floats are serialized with shortest round-trip
formatting, JSON keys are sorted, and CSV uses LF line endings.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from . import __version__
from .control import (
    ControlOperator,
    InputSignal,
    admissibility_constant,
    composition_law_check,
    mild_solution,
    positivity_equivalence_audit,
    resolvent_bound_audit,
    uniform_decay_curve,
)
from .errors import ConfigError, PossysError
from .generators import (
    GeneratorModel,
    inverse_estimate_constant,
    spectral_bound,
    spectral_report,
)
from .iss import EISS, iss_gain_fit, iss_verdict
from .lattice import GridSpace, GridVector
from .perturbation import PerturbedSystem, assemble_perturbed, domination_check, small_gain_radius
from .scenarios import markov_cycle_scenario, renewal_scenario, ring_transport_scenario
from .semigroup import (
    EvolutionPlan,
    decay_horizon,
    default_method,
    growth_estimate,
    left_invertibility_audit,
)

TOLERANCE_PROFILES = {
    "default": {"positivity": 1e-12, "guard_band": 1e-9},
    "strict": {"positivity": 1e-13, "guard_band": 1e-10},
    "loose": {"positivity": 1e-10, "guard_band": 1e-8},
}
DEFAULT_AUDITS = ("inverse_estimate", "admissibility", "resolvent_bound", "small_gain", "iss")
KNOWN_AUDITS = DEFAULT_AUDITS + ("gain_fit", "left_invertibility", "domination")
# sweep parameter -> (the scenario key it sets, the scenario kind it needs)
SWEEP_PARAMS = {
    "beta0": ("beta", "renewal"),
    "q0": ("q", "renewal"),
    "a": ("a", "ring_transport"),
    "n": ("cells", "renewal"),
}


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
    tolerances: dict
    tolerance_profile: str
    raw: dict = field(repr=False, default_factory=dict)

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

        scenario = raw.get("scenario")
        if not isinstance(scenario, dict) or "kind" not in scenario:
            raise ConfigError("config needs a scenario object with a 'kind'")

        plan = raw.get("plan", {})
        if not isinstance(plan, dict):
            raise ConfigError("plan must be an object")

        signal = None
        inp = raw.get("input")
        if inp is not None:
            if not isinstance(inp, dict):
                raise ConfigError("input must be an object or null")
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
        elif not isinstance(initial, list):
            raise ConfigError("initial_state must be 'zeros', 'bump', or a list")

        audits = raw.get("audits", list(DEFAULT_AUDITS))
        if not isinstance(audits, list) or any(a not in KNOWN_AUDITS for a in audits):
            raise ConfigError(f"audits must be a list drawn from {sorted(KNOWN_AUDITS)}")

        seed = raw.get("seed", 0)
        if not isinstance(seed, int):
            raise ConfigError("seed must be an integer")

        tau = float(raw.get("tau", 1.0))
        if tau <= 0:
            raise ConfigError("tau must be positive")

        p_raw = raw.get("p", 1)
        if p_raw in (1, 2):
            p = float(p_raw)
        elif p_raw in ("inf", "Infinity"):
            p = math.inf
        else:
            raise ConfigError("p must be 1, 2, or 'inf'")

        gain_fit = {"trials": 100, "horizon": None, "dt": None}
        gain_fit.update(raw.get("gain_fit", {}))

        profile = os.environ.get("POSSYS_TOLERANCE_PROFILE", "default")
        if profile not in TOLERANCE_PROFILES:
            raise ConfigError(
                f"POSSYS_TOLERANCE_PROFILE must be one of {sorted(TOLERANCE_PROFILES)}"
            )
        tolerances = dict(TOLERANCE_PROFILES[profile])
        overrides = raw.get("tolerances", {})
        if not isinstance(overrides, dict) or any(k not in tolerances for k in overrides):
            raise ConfigError(f"tolerances overrides must be drawn from {sorted(tolerances)}")
        tolerances.update({k: float(v) for k, v in overrides.items()})

        lam0 = raw.get("lambda0")
        alpha = raw.get("alpha")
        return cls(
            scenario=scenario,
            plan=plan,
            signal=signal,
            initial_state=initial,
            audits=audits,
            seed=seed,
            tau=tau,
            lambda0=None if lam0 is None else float(lam0),
            alpha=None if alpha is None else float(alpha),
            p=p,
            gain_fit=gain_fit,
            tolerances=tolerances,
            tolerance_profile=profile,
            raw=raw,
        )


@dataclass
class BuiltScenario:
    kind: str
    model: GeneratorModel                      # the generator audits run against
    system: Optional[PerturbedSystem] = None   # closed loop, when one exists
    injection: Optional[ControlOperator] = None
    echo: dict = field(default_factory=dict)


def build_scenario(cfg: RunConfig) -> BuiltScenario:
    sc = cfg.scenario
    kind = sc["kind"]
    try:
        if kind == "renewal":
            rs = renewal_scenario(
                sc.get("q", 1.0),
                sc.get("beta", 0.0),
                length=sc.get("length"),
                cells=int(sc.get("cells", 2000)),
            )
            echo = dict(rs.spec.parameters)
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
                "a": float(sc.get("a", 2.0)),
                "length": float(sc.get("length", 1.0)),
                "cells": int(sc.get("cells", 100)),
            }
            model = ring_transport_scenario(gain=echo["a"], length=echo["length"], cells=echo["cells"])
            return BuiltScenario(kind=kind, model=model, echo=echo)
        if kind == "markov_cycle":
            cells = int(sc.get("cells", 8))
            return BuiltScenario(kind=kind, model=markov_cycle_scenario(cells), echo={"cells": cells})
        if kind == "explicit":
            matrix = np.asarray(sc.get("matrix"), dtype=float)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ConfigError("explicit scenario needs a square matrix")
            n = matrix.shape[0]
            space = GridSpace(length=float(sc.get("length", n)), cells=n)
            model = GeneratorModel.from_matrix(space, matrix)
            built = BuiltScenario(kind=kind, model=model, echo={"cells": n, "length": space.length})
            if "b" in sc:
                built.injection = ControlOperator(
                    space=space, column=np.asarray(sc["b"], dtype=float)
                )
            if "beta" in sc:
                if built.injection is None:
                    raise ConfigError("explicit scenario with beta needs an injection column b")
                built.system = assemble_perturbed(model, built.injection, sc["beta"])
            return built
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad scenario parameters: {exc}") from exc
    raise ConfigError(f"unknown scenario kind {kind!r}")


def _initial_vector(cfg: RunConfig, space: GridSpace) -> GridVector:
    if cfg.initial_state == "zeros":
        return space.zeros()
    if cfg.initial_state == "bump":
        x = space.centers
        width = space.length / 10.0
        return space.vector(np.exp(-(((x - space.length / 4.0) / width) ** 2)))
    vals = np.asarray(cfg.initial_state, dtype=float)
    if vals.shape != (space.cells,):
        raise ConfigError(f"initial_state needs {space.cells} values, got {vals.shape}")
    return space.vector(vals)


def _plan(cfg: RunConfig, model: GeneratorModel) -> EvolutionPlan:
    plan = cfg.plan
    t_end = float(plan.get("t_end", 10.0))
    dt = float(plan.get("dt", t_end / 200))
    method = plan.get("method", default_method(model))
    try:
        return EvolutionPlan(t_end=t_end, dt=dt, method=method)
    except ValueError as exc:
        raise ConfigError(f"bad plan: {exc}") from exc


def cmd_simulate(cfg: RunConfig, out_path: str) -> int:
    built = build_scenario(cfg)
    model = built.system.perturbed if built.system is not None else built.model
    plan = _plan(cfg, model)
    x0 = _initial_vector(cfg, model.space)
    u = cfg.signal if cfg.signal is not None else InputSignal.zero()
    if built.injection is not None:
        col = built.injection.column
    else:
        if u.lp_norm(1) > 0:
            raise ConfigError("scenario has no injection column; input signal cannot act")
        col = np.zeros(model.cells)

    traj = mild_solution(model, col, x0, u, plan)

    n = model.cells
    header = "t," + ",".join(f"x{j}" for j in range(n))
    with open(out_path, "w", newline="") as fh:
        fh.write(header + "\n")
        for k in range(len(traj.times)):
            row = ",".join(_fmt(v) for v in traj.states[k])
            fh.write(f"{_fmt(traj.times[k])},{row}\n")

    norms = traj.norms()
    marks = sorted(set(np.linspace(0, len(traj.times) - 1, 5).astype(int).tolist()))
    summary = {
        "command": "simulate",
        "version": __version__,
        "seed": cfg.seed,
        "out": out_path,
        "rows": len(traj.times),
        "cells": n,
        "final_norm": float(norms[-1]),
        "positivity_violations": int(np.sum(traj.states < -cfg.tolerances["positivity"])),
        "checkpoints": {
            "t": [float(traj.times[k]) for k in marks],
            "l1_norm": [float(norms[k]) for k in marks],
        },
    }
    print(json.dumps(_jsonable(summary), sort_keys=True))
    return 0


def _empty_report(cfg: RunConfig, built: BuiltScenario) -> dict:
    return {
        "version": __version__,
        "seed": cfg.seed,
        "tolerance_profile": cfg.tolerance_profile,
        "tolerances": dict(cfg.tolerances),
        "scenario": {"kind": built.kind, "parameters": built.echo},
        "audits_run": [],
        "skipped": [],
        "p": cfg.p if math.isfinite(cfg.p) else "inf",
        "tau": cfg.tau,
        "lambda0": None,
        "alpha": None,
        "s_A": None,
        "growth_estimate": None,
        "resolvent_positive_from": None,
        "c": None,
        "kappa": None,
        "m_alpha": None,
        "positive_admissible": None,
        "composition_residual": None,
        "uniform_decay": None,
        "r": None,
        "verdict": None,
        "N": None,
        "mu": None,
        "G": None,
        "witness": None,
        "left_invertibility": None,
        "domination_ok": None,
    }


def cmd_audit(cfg: RunConfig, out_path: str) -> int:
    built = build_scenario(cfg)
    model = built.model
    report = _empty_report(cfg, built)
    rng = np.random.default_rng(cfg.seed)
    guard = cfg.tolerances["guard_band"]

    spec = spectral_report(model)
    report["s_A"] = spec.spectral_bound
    report["growth_estimate"] = spec.growth_estimate
    report["resolvent_positive_from"] = (
        spec.resolvent_positive_from if math.isfinite(spec.resolvent_positive_from) else None
    )

    def skip(name: str, reason: str):
        report["skipped"].append([name, reason])

    col = built.injection.column if built.injection is not None else None

    for name in cfg.audits:
        if name == "inverse_estimate":
            lam0 = cfg.lambda0 if cfg.lambda0 is not None else max(spec.spectral_bound, 0.0) + 1.0
            report["lambda0"] = lam0
            try:
                report["c"] = inverse_estimate_constant(model, lam0)
                report["audits_run"].append(name)
            except ValueError as exc:
                skip(name, str(exc))
        elif name == "admissibility":
            if col is None:
                skip(name, "scenario has no injection column")
                continue
            report["kappa"] = admissibility_constant(model, col, cfg.tau, p=cfg.p)
            eq = positivity_equivalence_audit(model, col)
            report["positive_admissible"] = bool(eq.input_map_nonneg and eq.consistent)
            probe = InputSignal.constant(1.0, cfg.tau / 2)
            report["composition_residual"] = composition_law_check(
                model, col, probe, cfg.tau / 2, cfg.tau / 2, dt=cfg.tau / 64
            )
            taus = cfg.tau * np.array([1 / 8, 1 / 4, 1 / 2, 1.0])
            report["uniform_decay"] = {
                "tau": [float(t) for t in taus],
                "kappa_inf": [float(v) for v in uniform_decay_curve(model, col, taus)],
            }
            report["audits_run"].append(name)
        elif name == "resolvent_bound":
            if col is None:
                skip(name, "scenario has no injection column")
                continue
            alpha = cfg.alpha if cfg.alpha is not None else max(
                spec.spectral_bound + 0.1, -1.0 / cfg.tau
            )
            report["alpha"] = alpha
            grid = alpha + np.logspace(-1, 2, 25)
            report["m_alpha"] = resolvent_bound_audit(model, col, alpha, grid, p=cfg.p)
            report["audits_run"].append(name)
        elif name == "small_gain":
            if built.system is None:
                skip(name, "scenario has no perturbation")
                continue
            report["r"] = small_gain_radius(built.system, rng=rng)
            report["audits_run"].append(name)
        elif name == "iss":
            if built.system is None:
                skip(name, "scenario has no perturbation")
                continue
            rep = iss_verdict(built.system, p=cfg.p, guard=guard, rng=rng)
            report["verdict"] = rep.verdict
            report["r"] = rep.small_gain_radius
            report["witness"] = rep.witness
            report["audits_run"].append(name)
        elif name == "gain_fit":
            if built.system is None or col is None:
                skip(name, "gain fit needs a perturbed system with an injection column")
                continue
            verdict = report["verdict"]
            if verdict is None:
                verdict = iss_verdict(built.system, p=cfg.p, guard=guard, rng=rng).verdict
            if verdict != EISS:
                skip(name, f"gain fit requires an eISS verdict, got {verdict}")
                continue
            n_fit, mu, g = iss_gain_fit(
                built.system,
                col,
                trials=int(cfg.gain_fit["trials"]),
                horizon=cfg.gain_fit["horizon"],
                dt=cfg.gain_fit["dt"],
                rng=rng,
            )
            report["N"], report["mu"], report["G"] = n_fit, mu, g
            report["audits_run"].append(name)
        elif name == "left_invertibility":
            t_end = float(cfg.plan.get("t_end", 2.0))
            audit = left_invertibility_audit(
                model, np.linspace(0.0, t_end, 65), rng=rng
            )
            report["left_invertibility"] = {
                "holds": audit.holds,
                "amplitude": audit.amplitude,
                "rate": audit.rate if math.isfinite(audit.rate) else None,
            }
            report["audits_run"].append(name)
        elif name == "domination":
            if built.system is None:
                skip(name, "scenario has no perturbation")
                continue
            if model.cells > 500:
                skip(name, "dense exponential comparison limited to 500 cells")
                continue
            s_pert = spectral_bound(built.system.perturbed)
            dom = domination_check(
                built.system, (0.1, 1.0, 10.0), s_pert + np.array([0.5, 1.0, 2.0, 5.0, 10.0])
            )
            report["domination_ok"] = dom.ok
            report["audits_run"].append(name)

    payload = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    with open(out_path, "w", newline="") as fh:
        fh.write(payload)
    print(json.dumps(_jsonable({
        "command": "audit",
        "out": out_path,
        "r": report["r"],
        "s_A": report["s_A"],
        "verdict": report["verdict"],
    }), sort_keys=True))
    return 0


def _sweep_row(cfg: RunConfig, param: str, value: float) -> dict:
    key, kind = SWEEP_PARAMS[param]
    if cfg.scenario.get("kind") != kind:
        raise ConfigError(f"sweep over {param} needs a {kind} scenario")
    if param == "n" and (value <= 0 or value != int(value)):
        raise ConfigError(f"n sweep values must be positive integers, got {value}")
    built = build_scenario(replace(cfg, scenario={**cfg.scenario, key: value}))
    if built.system is None:
        return {"value": value, "r": None, "s_perturbed": spectral_bound(built.model),
                "verdict": None, "mu": None}
    rep = iss_verdict(built.system, guard=cfg.tolerances["guard_band"])
    perturbed = built.system.perturbed
    s_pert = spectral_bound(perturbed)
    mu = None
    if rep.verdict == EISS:
        mu = -growth_estimate(perturbed, window=decay_horizon(s_pert))
    return {"value": value, "r": rep.small_gain_radius, "s_perturbed": s_pert,
            "verdict": rep.verdict, "mu": mu}


def cmd_sweep(cfg: RunConfig, param: str, values: list, out_path: str) -> int:
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {tuple(SWEEP_PARAMS)}, got {param!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    with ThreadPoolExecutor(max_workers=min(4, len(values))) as pool:
        rows = list(pool.map(lambda v: _sweep_row(cfg, param, v), values))
    rows.sort(key=lambda row: row["value"])
    with open(out_path, "w", newline="") as fh:
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
    print(json.dumps({"command": "sweep", "out": out_path, "rows": len(rows)}, sort_keys=True))
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
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
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
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PossysError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
