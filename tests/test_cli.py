"""CLI contract: config validation, output formats, exit codes, determinism."""
import csv
import errno
import importlib.machinery
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import possys as ps
from possys import cli, control, generators
from possys.semigroup import FIT_STEPS, decay_horizon

DATA = Path(__file__).parent / "data"
ROOT = DATA.parents[1]


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "scenario": {"kind": "renewal", "q": 1.0, "beta": 0.5, "length": 2.0, "cells": 30},
        "plan": {"t_end": 1.0, "dt": 0.05},
        "seed": 9,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_python(*args, stdout=subprocess.PIPE, preexec_fn=None, **env):
    """A fresh interpreter that imports possys from src, with the variables
    `env` sets (None unsets one), running `preexec_fn` before it starts."""
    src = str(ROOT / "src")
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env = {key: value for key, value in env.items() if value is not None}
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, preexec_fn=preexec_fn
    )


def run_cli(*args, **kwargs):
    """possys.cli in its own process, so that a numpy warning reaches stderr."""
    return run_python("-m", "possys.cli", *args, **kwargs)


# scenario values that are not the numbers they stand for, and the error naming each
NOT_NUMBERS = [
    ({"q": True}, "scenario.q must be a finite number, got true"),
    ({"q": "1"}, 'scenario.q must be a finite number, got "1"'),
    ({"q": [1.0, 2.0]}, "scenario.q needs 30 values, got 2"),
    ({"beta": [0.5] * 29 + [None]}, "scenario.beta[29] must be a finite number, got null"),
    ({"length": "2"}, 'scenario.length must be a positive finite number, got "2"'),
    ({"kind": "ring_transport", "a": "2"}, 'scenario.a must be a finite number, got "2"'),
    ({"kind": "ring_transport", "length": True}, "scenario.length must be a positive finite number, got true"),
    ({"kind": "explicit", "matrix": [[-1.0, "0"], [0.0, -1.0]]},
     'scenario.matrix[0][1] must be a finite number, got "0"'),
    ({"kind": "explicit", "matrix": [[-1.0, 0.0], [0.0, -1.0]], "b": [1.0, True]},
     "scenario.b[1] must be a finite number, got true"),
    ({"kind": "explicit", "matrix": [[-1.0, 0.0], [0.0, -1.0]], "b": [1.0, 0.0], "beta": "0.5"},
     'scenario.beta must be a finite number, got "0.5"'),
]


# config documents of the wrong shape, the command they are given to, and the
# error naming the shape
BAD_SHAPES = [
    ([1.0], ("audit",), "config root must be a JSON object"),
    ({"scenario": {"q": 1.0}}, ("audit",), "config needs a scenario object with a 'kind'"),
    ({"plan": [1.0, 0.05]}, ("audit",), "plan must be an object"),
    ({"input": [0.0, 1.0]}, ("simulate",), "input must be an object or null"),
    ({"initial_state": "wave"}, ("simulate",), "unknown initial_state preset 'wave'"),
    ({"initial_state": 3}, ("simulate",), "initial_state must be 'zeros', 'bump', or a list"),
    ({"scenario": {"kind": "explicit", "matrix": [[-1.0, 0.0]]}}, ("audit",),
     "explicit scenario needs a square matrix"),
    ({"scenario": {"kind": "explicit", "matrix": [[-1.0]], "beta": [0.5]}}, ("audit",),
     "explicit scenario with beta needs an injection column b"),
    ({}, ("sweep", "--param", "beta0", "--values", ","), "sweep needs at least one value"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("doc, command, message", BAD_SHAPES, ids=[m for _, _, m in BAD_SHAPES])
    def test_config_of_the_wrong_shape_exits_2(self, tmp_path, capsys, doc, command, message):
        path = tmp_path / "cfg.json"
        if isinstance(doc, dict):
            write_config(tmp_path, **doc)
        else:
            path.write_text(json.dumps(doc))
        assert cli.main([*command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_names_path(self, tmp_path, capsys):
        rc = cli.main(["audit", "--config", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "absent.json" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert cli.main(["audit", "--config", str(path)]) == 2

    def test_missing_input_file_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, input={"path": str(tmp_path / "u.csv")})
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert "u.csv" in capsys.readouterr().err

    def test_unknown_scenario_kind(self, tmp_path):
        cfg = write_config(tmp_path, scenario={"kind": "tumbleweed"})
        assert cli.main(["audit", "--config", cfg]) == 2

    def test_unknown_audit_name(self, tmp_path):
        cfg = write_config(tmp_path, audits=["small_gain", "horoscope"])
        assert cli.main(["audit", "--config", cfg]) == 2

    @pytest.mark.parametrize("command", ["simulate", "audit", "sweep"])
    @pytest.mark.parametrize("plan, message", [
        ({"method": "rk4"}, "method must be one of ('exact_exponential', 'implicit_euler'), got 'rk4'"),
        ({"t_end": 1.0, "dt": 0.3}, "t_end = 1.0 is not a positive multiple of dt = 0.3"),
        # checked against simulate's t_end = 10, though left_invertibility
        # alone would take its window of 2.0
        ({"dt": 3.0}, "t_end = 10.0 is not a positive multiple of dt = 3.0"),
    ], ids=["method", "multiple", "default_t_end"])
    def test_bad_plan(self, tmp_path, capsys, command, plan, message):
        # every command refuses the plans simulate refuses, though only
        # simulate and left_invertibility read the plan
        cfg = write_config(tmp_path, plan=plan, audits=["left_invertibility"])
        out = tmp_path / "out"
        sweep = ["--param", "beta0", "--values", "0.5"] if command == "sweep" else []
        assert cli.main([command, "--config", cfg, *sweep, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: bad plan: {message}\n"
        assert not out.exists()

    def test_input_without_injection(self, tmp_path):
        cfg = write_config(
            tmp_path,
            scenario={"kind": "markov_cycle", "cells": 4},
            input={"breakpoints": [0.0, 1.0], "values": [1.0]},
        )
        assert cli.main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize("bp", [[0.0, float("nan"), 1.0], [0.0, 1.0, float("inf")]])
    def test_non_finite_input_breakpoints_exit_2(self, tmp_path, capsys, bp):
        # json writes and reads NaN and Infinity; simulate used to write an
        # all-zero trajectory for the infinite end and exit 0
        csv = tmp_path / "u.csv"
        csv.write_text("t,u\n" + "".join(f"{t},{u}\n" for t, u in zip(bp, [1.0, 0.5, 0.0])))
        for inp in ({"breakpoints": bp, "values": [1.0, 0.5]}, {"path": str(csv)}):
            cfg = write_config(tmp_path, input=inp)
            assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
            assert "breakpoints must be finite" in capsys.readouterr().err

    def test_bad_sweep_values(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["sweep", "--config", cfg, "--param", "beta0", "--values", "0.1,zebra"]) == 2

    def test_residual_tolerance_is_not_a_key(self, tmp_path, capsys):
        # every solve check reads generators.RESIDUAL_TOL; no config key
        # pretends to govern it, and "tolerances" is no config key at all
        cfg = write_config(tmp_path, tolerances={"residual": 1e-9})
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("config error: unknown config key 'tolerances'")

    def test_overflowing_absorption_exits_2(self, tmp_path):
        scenario = {"kind": "renewal", "q": 1e308, "beta": 0.5, "length": 20.0, "cells": 60}
        cfg = write_config(tmp_path, scenario=scenario)
        proc = run_cli("audit", "--config", cfg, "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1

    def test_overflowing_shifted_solve_warns_nothing(self, tmp_path):
        # lower bidiagonal, diagonal -2, subdiagonal 1: at lambda0 = s(A) +
        # 0.01 the probe solve T^-1 1 grows by 100 per cell and overflows
        # past cell 154; it is refused, with no numpy warning, and the audit
        # is skipped
        n = 200
        matrix = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), -1)
        scenario = {"kind": "explicit", "matrix": matrix.tolist(), "length": float(n), "b": np.eye(n)[0].tolist()}
        cfg = write_config(tmp_path, scenario=scenario, audits=["inverse_estimate"], lambda0=-1.99)
        out = tmp_path / "r.json"
        proc = run_cli("audit", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0
        assert proc.stderr == ""
        report = json.loads(out.read_text())
        assert report["skipped"] == [["inverse_estimate", "-1.99 I - 1.0 A has backward error inf"]]
        assert report["lambda0"] == -1.99 and report["c"] is None

    def test_refuses_a_generator_that_is_not_metzler(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert cli.main(["audit", "--config", str(DATA / "signed-n40.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: bad scenario parameters: generator is not Metzler: A[5, 20] = -0.3\n"
        assert not out.exists()

    def test_unknown_sweep_param(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["sweep", "--config", cfg, "--param", "length", "--values", "1.0"]) == 2

    @pytest.mark.parametrize("bad", [
        {"tau": None},
        {"tau": "x"},
        {"tau": 10**400},
        {"alpha": [1]},
        {"seed": True},
        {"seed": -1},
        # True == 1 in Python: p = true was reported as "p": 1.0
        {"p": True},
        {"gain_fit": 5},
        {"gain_fit": {"trials": "x"}},
        {"gain_fit": {"trails": 20}},
        # every tolerance is a module constant: "tolerances" is an unknown key
        {"tolerances": {"positivity": "x"}},
        {"tolerances": {"positivity": 1e-12}},
        {"plan": {"t_end": "x"}},
        {"plan": {"t_end": -1.0}},
        # cells is a positive JSON integer: no truncation, no bool, no string
        {"scenario": {"cells": 30.7, "kind": "renewal", "q": 1.0, "beta": 0.5, "length": 2.0}},
        {"scenario": {"cells": True, "kind": "renewal", "q": 1.0, "beta": 0.5, "length": 2.0}},
        {"scenario": {"cells": "12", "kind": "renewal", "q": 1.0, "beta": 0.5, "length": 2.0}},
        {"scenario": {"cells": 0, "kind": "ring_transport"}},
        {"scenario": {"cells": 4.0, "kind": "markov_cycle"}},
    ], ids=lambda bad: json.dumps(bad)[:40])
    def test_bad_config_values_exit_2(self, tmp_path, capsys, bad):
        doc = {"audits": ["gain_fit", "left_invertibility"], **bad}
        cfg = write_config(tmp_path, **doc)
        for command in ("audit", "simulate"):
            assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("scenario, message", NOT_NUMBERS, ids=[m for _, m in NOT_NUMBERS])
    def test_scenario_numbers_that_are_not_numbers_exit_2(self, tmp_path, capsys, scenario, message):
        # read through float() or numpy, true and "1" were taken for 1.0
        doc = {"kind": "renewal", "q": 1.0, "beta": 0.5, "length": 2.0, "cells": 30}
        if scenario.get("kind", "renewal") != "renewal":
            doc = {"kind": scenario["kind"]}
        cfg = write_config(tmp_path, scenario={**doc, **scenario})
        for command in ("audit", "simulate"):
            assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("entry", ["a", None, [1], True, 1e400], ids=json.dumps)
    def test_bad_initial_state_entry_exits_2_naming_it(self, tmp_path, capsys, entry):
        # a non-number entry is refused by both commands, never read as 1.0
        # or left to fail in the solver
        doc = {"scenario": {"kind": "explicit", "matrix": (-np.eye(4)).tolist()}, "initial_state": [entry, 1, 1, 1]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
        for command in ("audit", "simulate"):
            assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: initial_state[0] must be a finite number") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["audit", "simulate"])
    def test_initial_state_of_the_wrong_length_exits_2(self, tmp_path, capsys, command):
        # audit reads no initial state, but a list that fits no cell count
        # is the same config error for both commands
        cfg = write_config(tmp_path, initial_state=[1.0, 2.0])
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: initial_state needs 30 values, got 2\n"
        assert not (tmp_path / "out").exists()

    def test_gain_fit_trials_is_an_unknown_key(self, tmp_path, capsys):
        # the gain fit samples no random pairs, so it takes no trial count
        cfg = write_config(tmp_path, audits=["iss", "gain_fit"], gain_fit={"trials": 100})
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: gain_fit must be an object with keys drawn from ['dt', 'horizon']\n"

    @pytest.mark.parametrize("doc, key", [
        ({"sead": 1}, "sead"),
        ({"scenario": {"kind": "renewal", "bete": 0.5, "cells": 30}}, "bete"),
        ({"scenario": {"kind": "ring_transport", "beta": 0.5, "cells": 30}}, "beta"),
        ({"scenario": {"kind": "markov_cycle", "length": 2.0}}, "length"),
        ({"scenario": {"kind": "explicit", "matrix": [[-1.0]], "q": 1.0}}, "q"),
        ({"plan": {"t_end": 1.0, "step": 0.05}}, "step"),
        ({"input": {"breakpoints": [0.0, 1.0], "value": [1.0]}}, "value"),
    ], ids=lambda x: x if isinstance(x, str) else None)
    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys, doc, key):
        # a misspelt key would otherwise take its default silently
        cfg = write_config(tmp_path, **doc)
        for command in ("audit", "simulate"):
            assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: unknown ") and f"key {key!r}" in err and err.count("\n") == 1

    def test_report_is_not_a_config(self, tmp_path, capsys):
        # its parameters sit under scenario.parameters, where the renewal
        # defaults would have stood in for them
        assert cli.main(["audit", "--config", str(DATA / "renewal-n60-audit.json"), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("config error: unknown config key ")
        assert not (tmp_path / "r.json").exists()


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB for an array with shape (20000, 20000)")

    monkeypatch.setattr(cli, "mild_solution", exhausted)
    assert cli.main(["simulate", "--config", write_config(tmp_path), "--out", str(tmp_path / "t.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: Unable to allocate") and err.count("\n") == 1


class TestSimulate:
    def test_csv_shape_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, initial_state="bump")
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 21 and summary["positivity_violations"] == 0
        assert summary["method"] == "implicit_euler" and summary["dt"] == 0.05
        lines = out.read_text().splitlines()
        assert lines[0] == "t," + ",".join(f"x{j}" for j in range(30))
        assert len(lines) == 22
        first = lines[1].split(",")
        assert first[0] == "0.0" and len(first) == 31

    def test_growing_loop_past_the_implicit_step_exits_3(self, tmp_path, capsys):
        # s(A_S) = 49 here: at dt = 0.5 the implicit step is not >= 0 and its
        # trajectory decays where the loop grows
        growing = {"kind": "renewal", "q": 1.0, "beta": 50.0, "cells": 30}
        plan = {"t_end": 1.0, "dt": 0.5, "method": "implicit_euler"}
        cfg = write_config(tmp_path, scenario=growing, plan=plan, initial_state="bump")
        out = tmp_path / "t.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("numerical failure: implicit Euler needs dt s(A) < 1, got dt = 0.5")
        assert "1/s(A) = 0.0204" in captured.err
        assert not out.exists()
        cfg = write_config(tmp_path, scenario=growing, plan={**plan, "dt": 0.01}, initial_state="bump")
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["positivity_violations"] == 0

    def test_deterministic_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, input={"breakpoints": [0.0, 0.5], "values": [2.0]})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_initial_state(self, tmp_path, capsys):
        cfg = write_config(tmp_path, initial_state=[0.0] * 29 + [1.0])
        out = tmp_path / "t.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        # wrong length is a config error
        cfg2 = write_config(tmp_path, name="c2.json", initial_state=[1.0, 2.0])
        assert cli.main(["simulate", "--config", cfg2]) == 2

    def test_csv_fields_are_shortest_round_trip(self, tmp_path, capsys):
        # each field is repr(float(v)): signed zero, subnormals, tiny normals
        # and integers stored as floats included
        values = [-0.0, 5e-324, 2.5e-310, 1e-300, 3.0, -7.0]
        cfg = write_config(
            tmp_path,
            scenario={"kind": "explicit", "matrix": (-np.eye(6)).tolist()},
            plan={"t_end": 1.0, "dt": 0.5},
            initial_state=values,
        )
        out = tmp_path / "t.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_bytes().split(b"\n")
        assert lines[1] == ("0.0," + ",".join(repr(float(v)) for v in values)).encode()
        assert lines[-1] == b"" and len(lines) == 5
        for line in lines[1:-1]:
            assert all(repr(float(f)) == f for f in line.decode().split(","))

    def test_twenty_thousand_cells(self, tmp_path, capsys):
        # the config the memory-capped CI step runs
        cfg = str(Path(__file__).parent / "data" / "simulate-n20000-short.json")
        out = tmp_path / "n20000.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells"] == 20000 and summary["rows"] == 21
        assert summary["positivity_violations"] == 0


class TestTableWriters:
    """`cli._write_table` on k forked writers, with the CPU count faked."""

    @pytest.fixture(autouse=True)
    def own_cpus(self):
        # the writers pin this process and restore the CPU set they read,
        # which may be a faked one; give it back its real set
        own = os.sched_getaffinity(0)
        yield
        os.sched_setaffinity(0, own)

    @staticmethod
    def cpus(monkeypatch, k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

    @staticmethod
    def placements(monkeypatch, log, refuse=False):
        """Log each process's sched_setaffinity calls to `log` as "pid cpus"
        lines, made by the real call or, with `refuse`, refused by EINVAL."""
        real = os.sched_setaffinity

        def setaffinity(pid, cpus):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {sorted(cpus)}\n")
            if refuse:
                raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
            real(pid, cpus)

        monkeypatch.setattr(os, "sched_setaffinity", setaffinity)

    @staticmethod
    def placed(log):
        """The logged CPU sets: this process's in call order, the children's
        sorted."""
        calls = [line.split(" ", 1) for line in log.read_text().splitlines()]
        here = [cpus for pid, cpus in calls if int(pid) == os.getpid()]
        return here, sorted(cpus for pid, cpus in calls if int(pid) != os.getpid())

    @staticmethod
    def table(tmp_path, name, times, states):
        out = tmp_path / name
        with open(out, "w", newline="") as fh:
            cli._write_table(fh, times, states)
        return out.read_bytes()

    def test_three_writers_write_the_bytes_of_one(self, tmp_path, monkeypatch):
        # the later blocks hold signed zero, subnormals, a tiny normal and
        # integers stored as floats
        times = np.arange(9) * 0.125
        states = np.linspace(-1.0, 1.0, 9 * 6).reshape(9, 6) / 3.0
        states[3:] = [-0.0, 5e-324, 2.5e-310, 1e-300, 3.0, -7.0]
        states[8, 0] = 2.0 ** 60
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        self.cpus(monkeypatch, 3)
        three = self.table(tmp_path, "three.csv", times, states)
        assert len(forks) == 2
        self.cpus(monkeypatch, 1)
        assert self.table(tmp_path, "one.csv", times, states) == three
        assert len(forks) == 2
        lines = three.decode().split("\n")
        assert len(lines) == 10 and lines[-1] == ""
        assert lines[3] == "0.375,-0.0,5e-324,2.5e-310,1e-300,3.0,-7.0"
        for line in lines[:-1]:
            assert all(repr(float(f)) == f for f in line.split(","))

    @pytest.mark.parametrize("limit", [1, 4, 5, 13])
    def test_wide_rows_are_formatted_in_blocks(self, tmp_path, monkeypatch, limit):
        # rows of 13 fields against blocks of `limit`: each row goes in
        # pieces of at most `limit` fields, joined by ","
        from possys import floatfmt

        times = np.arange(4) * 0.25
        states = np.random.default_rng(5).standard_normal((4, 12)) * 10.0 ** np.arange(-6, 6)
        states[1, 3:7] = [-0.0, 5e-324, 1e300, 2.0]
        widths = []
        real = floatfmt.csv_rows

        def csv_rows(table):
            widths.append(np.shape(table))
            return real(table)

        monkeypatch.setattr(floatfmt, "csv_rows", csv_rows)
        monkeypatch.setattr(cli, "_FORMAT_FIELDS", limit)
        self.cpus(monkeypatch, 1)
        want = "".join(",".join(map(repr, row)) + "\n" for row in np.column_stack((times, states)).tolist())
        assert self.table(tmp_path, "wide.csv", times, states) == want.encode()
        assert max(cols for _, cols in widths) <= limit
        assert sum(rows * cols for rows, cols in widths) == 4 * 13

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
    def test_each_writer_runs_on_its_own_cpu(self, tmp_path, monkeypatch):
        # writer i asks for the i-th CPU of the set; this process writes
        # block 0 on the first and then has the set it read back
        own = os.sched_getaffinity(0)
        cpus = sorted(own)
        log = tmp_path / "placements"
        self.placements(monkeypatch, log)
        times = np.arange(9) * 0.125
        states = np.linspace(-1.0, 1.0, 9 * 6).reshape(9, 6)
        table = self.table(tmp_path, "all.csv", times, states)
        assert os.sched_getaffinity(0) == own
        assert self.placed(log) == ([str(cpus[:1]), str(cpus)], sorted(str([cpu]) for cpu in cpus[1:9]))
        self.cpus(monkeypatch, 1)
        assert self.table(tmp_path, "one.csv", times, states) == table

    def test_refused_placement_writes_the_bytes_of_one(self, tmp_path, capsys, monkeypatch):
        # a CPU set that cannot be had leaves each writer where it runs
        cfg = write_config(tmp_path, initial_state="bump")
        self.cpus(monkeypatch, 1)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "one.csv")]) == 0
        log = tmp_path / "placements"
        self.placements(monkeypatch, log, refuse=True)
        self.cpus(monkeypatch, 3)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "three.csv")]) == 0
        assert (tmp_path / "three.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert self.placed(log) == (["[0]", "[0, 1, 2]"], ["[1]", "[2]"])

    def test_one_cpu_never_forks(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, initial_state="bump")
        self.cpus(monkeypatch, 2)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "two.csv")]) == 0

        def no_fork():
            raise AssertionError("forked on one CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        self.cpus(monkeypatch, 1)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "one.csv")]) == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    @staticmethod
    def failing_rows(monkeypatch, fails):
        rows = cli._write_rows

        def write_rows(fh, times, states):
            if fails(times):
                raise MemoryError("no room to format this block")
            rows(fh, times, states)

        monkeypatch.setattr(cli, "_write_rows", write_rows)

    def test_failed_block_exits_as_one_process_would(self, tmp_path, capsys, monkeypatch):
        # every block after the first fails, in its child and again here
        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        self.cpus(monkeypatch, 3)
        self.failing_rows(monkeypatch, lambda times: times[0] > 0)
        cfg = write_config(tmp_path, initial_state="bump")
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "out of memory: no room to format this block\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(temp.iterdir()) == []

    def test_block_failed_in_its_child_is_formatted_again(self, tmp_path, capsys, monkeypatch):
        # a child that fails only for itself (a full temporary directory,
        # say) costs time, not bytes
        cfg = write_config(tmp_path, initial_state="bump")
        self.cpus(monkeypatch, 1)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "one.csv")]) == 0
        parent = os.getpid()
        self.cpus(monkeypatch, 3)
        self.failing_rows(monkeypatch, lambda times: os.getpid() != parent)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "three.csv")]) == 0
        assert (tmp_path / "three.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command", ["simulate", "audit", "sweep"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    out = tmp_path / "absent" / "out"
    args = ["--param", "beta0", "--values", "0.5"] if command == "sweep" else []
    assert cli.main([command, "--config", write_config(tmp_path), *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"cannot write {out}: No such file or directory\n"


# each command's arguments past --config, on the committed 60-cell renewal
COMMANDS = {
    "audit": [],
    "simulate": [],
    "sweep": ["--param", "beta0", "--values", "0.25,0.5,1.5,2.0"],
}


class TestProcessExit:
    """`cli.run`, the CLI process's entry, ends with `os._exit` after
    flushing; `cli.main` in process returns its code."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_process_writes_the_bytes_of_main(self, tmp_path, capsys, monkeypatch, command):
        config = str(DATA / "renewal-n60.json")
        own, here = tmp_path / "own.out", tmp_path / "here.out"
        proc = run_cli(command, "--config", config, *COMMANDS[command], "--out", str(own))
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr

        def refuse(code):
            raise AssertionError(f"os._exit({code}) in process")

        # one writer: a forked writer child ends with os._exit
        monkeypatch.setattr(cli, "_writers", lambda rows: 1)
        monkeypatch.setattr(os, "_exit", refuse)
        assert cli.main([command, "--config", config, *COMMANDS[command], "--out", str(here)]) == 0
        assert own.read_bytes() == here.read_bytes()
        # one complete JSON line, as main prints it
        assert proc.stdout.endswith("\n") and proc.stdout.count("\n") == 1
        summary = json.loads(proc.stdout)
        assert summary["out"] == str(own)
        assert {**summary, "out": str(here)} == json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("command, doc, code, message", [
        ("audit", {"bogus": 1}, 2, "config error: unknown config key 'bogus';"),
        ("sweep", {"plan": {"method": "rk4"}}, 2, "config error: bad plan:"),
        ("simulate", {"scenario": {"kind": "renewal", "q": 1.0, "beta": 50.0, "cells": 30},
                      "plan": {"t_end": 1.0, "dt": 0.5}},
         3, "numerical failure: implicit Euler needs dt s(A) < 1"),
    ], ids=["audit", "sweep", "simulate"])
    def test_refused_config_exits_with_one_stderr_line(self, tmp_path, command, doc, code, message):
        out = tmp_path / "out"
        proc = run_cli(command, "--config", write_config(tmp_path, **doc), *COMMANDS[command], "--out", str(out))
        assert proc.returncode == code and proc.stdout == ""
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["1", None])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_stdout_exits_2(self, tmp_path, command, unbuffered):
        # an unbuffered stdout fails in main's print, a buffered one in
        # run's flush: one stderr line either way
        with open("/dev/full", "w") as full:
            proc = run_cli(
                command, "--config", str(DATA / "renewal-n60.json"), *COMMANDS[command],
                "--out", str(tmp_path / "out"), stdout=full, PYTHONUNBUFFERED=unbuffered,
            )
        assert proc.returncode == 2
        assert proc.stderr == "cannot write stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["1", None])
    def test_closed_stderr_loses_only_the_message(self, tmp_path, unbuffered):
        # a stderr closed at start-up is None, where print writes to stdout:
        # the error line is lost, and the exit code is kept
        def closed(*args, **kwargs):
            return run_cli(*args, preexec_fn=lambda: os.close(2), PYTHONUNBUFFERED=unbuffered, **kwargs)

        proc = closed("audit", "--config", str(tmp_path / "absent.json"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "")
        config = str(DATA / "renewal-n60.json")
        with open("/dev/full", "w") as full:
            proc = closed("audit", "--config", config, "--out", str(tmp_path / "report.json"), stdout=full)
        assert proc.returncode == 2
        # the writers flush the standard streams before they fork
        proc = closed("simulate", "--config", config, "--out", str(tmp_path / "t.csv"))
        assert proc.returncode == 0 and json.loads(proc.stdout)["command"] == "simulate"

    def test_failing_stderr_loses_only_the_message(self, tmp_path, monkeypatch):
        class Closed(io.TextIOBase):
            def write(self, text):
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))

        monkeypatch.setattr(sys, "stderr", Closed())
        assert cli.main(["audit", "--config", str(tmp_path / "absent.json")]) == 2

    def test_script_is_the_process_entry(self):
        pyproject = (ROOT / "pyproject.toml").read_text()
        scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject, re.M | re.S)
        assert scripts is not None
        assert re.findall(r"^(\S+) = \"(.*)\"$", scripts.group(1), re.M) == [("possys", "possys.cli:run")]
        assert callable(cli.run)


class TestAudit:
    def test_report_schema_complete(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for key in (
            "version", "seed", "s_A", "c", "kappa", "m_alpha",
            "r", "verdict", "N", "mu", "G", "witness", "audits_run",
            "skipped", "scenario", "tau", "lambda0", "alpha", "p", "positive_admissible",
        ):
            assert key in report
        assert "growth_estimate" not in report  # s_A is the growth bound
        # the resolvent is positive exactly above s_A, and no tolerance is a knob
        for key in ("resolvent_positive_from", "tolerance_profile", "tolerances"):
            assert key not in report
        assert report["verdict"] == "eISS"
        assert report["N"] is None  # gain_fit not in the default audit list

    def test_empty_audit_list_keeps_spectral_fields(self, tmp_path, capsys):
        cfg = write_config(tmp_path, audits=[])
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["s_A"] is not None
        assert report["audits_run"] == []
        assert report["r"] is None and report["kappa"] is None

    def test_gain_fit_populates_envelope(self, tmp_path, capsys):
        cfg = write_config(tmp_path, audits=["iss", "gain_fit"])
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["N"] >= 1.0 and report["mu"] > 0 and report["G"] > 0

    @pytest.mark.parametrize("q", [100.0, 1000.0])
    def test_fast_decay_fits_the_stepper_rate(self, tmp_path, capsys, q):
        # at q = 1000 the norm curves fall under NORM_FLOOR inside the 10-unit
        # window; mu is the implicit-Euler rate of the 800-step grid,
        # log1p(-dt s) / dt, whatever the curves do
        scenario = {"kind": "renewal", "q": q, "beta": 0.5, "length": 20.0, "cells": 60}
        cfg = write_config(tmp_path, scenario=scenario, audits=["gain_fit"])
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        s = ps.spectral_bound(ps.renewal_scenario(q, 0.5, length=20.0, cells=60).system.perturbed)
        dt = decay_horizon(s) / FIT_STEPS
        assert report["mu"] == math.log1p(-s * dt) / dt

    def test_gain_fit_skipped_when_not_eiss(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            scenario={"kind": "renewal", "q": 1.0, "beta": 3.0, "length": 2.0, "cells": 30},
            audits=["iss", "gain_fit"],
        )
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "not_eISS"
        assert report["N"] is None
        assert any(row[0] == "gain_fit" for row in report["skipped"])

    def test_gain_fit_skipped_when_p_is_not_1(self, tmp_path, capsys):
        # the fitted envelope is an L1 one; a p = 2 report must not carry it
        cfg = write_config(tmp_path, p=2, audits=["iss", "gain_fit"])
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["p"] == 2.0 and report["verdict"] == "eISS"
        assert report["N"] is None and report["mu"] is None and report["G"] is None
        assert report["skipped"] == [["gain_fit", "gain fit is implemented for p = 1 only"]]

    def test_gain_fit_skipped_for_a_signed_injection_column(self, tmp_path, capsys):
        # A_S stays Metzler with b[1] < 0, so the scenario is built and the
        # other audits report; the fit, an envelope for b >= 0, is skipped
        n = 6
        matrix = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), -1)
        scenario = {
            "kind": "explicit",
            "matrix": matrix.tolist(),
            "b": [1.0, -0.1, 0.0, 0.0, 0.0, 0.0],
            "beta": [0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
        }
        cfg = write_config(tmp_path, scenario=scenario, audits=["admissibility", "iss", "gain_fit"])
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["audits_run"] == ["admissibility", "iss"]
        assert report["skipped"] == [["gain_fit", "gain fit needs a nonnegative injection column, got b[1] = -0.1"]]
        assert report["verdict"] == "eISS" and report["kappa"] is not None
        assert report["N"] is None and report["mu"] is None and report["G"] is None

    def test_pinf_kappa_is_the_last_kappa_inf(self, tmp_path, capsys):
        # at p = inf kappa(tau) is kappa_inf(tau), read off the same curve
        cfg = write_config(tmp_path, p="inf", audits=["admissibility"])
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["kappa"] == report["uniform_decay"]["kappa_inf"][-1]

    def test_admissibility_steps_one_impulse_response(self, tmp_path, capsys, monkeypatch):
        grids = []
        real = control.impulse_response_norms

        def counted(model, b, tau, dt, *args):
            grids.append((tau, dt))
            return real(model, b, tau, dt, *args)

        # count the calls under either binding the audit may go through
        for mod in (cli, control):
            monkeypatch.setattr(mod, "impulse_response_norms", counted, raising=False)
        cfg = write_config(tmp_path, audits=["admissibility"])
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0
        assert grids == [(1.0, 1.0 / 1024)]

    def test_admissibility_skips_past_dt_s_below_one(self, tmp_path, capsys):
        # on the tau / 1024 grid dt s(A) = 1.95: the implicit-Euler step is
        # signed there, and kappa would be a number of a step that leaves the cone
        scenario = {"kind": "explicit", "matrix": [[2000.0, 0.0], [1.0, -1.0]], "b": [1.0, 0.0]}
        cfg = write_config(tmp_path, scenario=scenario, audits=["admissibility"])
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["audits_run"] == []
        assert report["skipped"] == [["admissibility", "implicit Euler needs dt s(A) < 1, got dt = 0.0009765625 and "
                                      "s(A) = 2000.0: dt must stay below 1/s(A) = 0.0005"]]
        assert report["kappa"] is None and report["positive_admissible"] is None

    def test_admissibility_skips_when_only_the_probe_passes_dt_s_below_one(self, tmp_path, capsys):
        # s(A) = 100: the curve's tau/1024 step has dt s(A) = 0.098, but the
        # composition probe's tau/64 step has 1.56, and is refused before
        # any admissibility key is written
        scenario = {"kind": "explicit", "matrix": [[100.0, 0.0], [1.0, -1.0]], "b": [1.0, 0.0]}
        cfg = write_config(tmp_path, scenario=scenario, audits=["admissibility"])
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["audits_run"] == []
        assert report["skipped"] == [["admissibility", "implicit Euler needs dt s(A) < 1, got dt = 0.015625 and "
                                      "s(A) = 100.0: dt must stay below 1/s(A) = 0.01"]]
        assert all(report[k] is None for k in ("kappa", "positive_admissible", "composition_residual", "uniform_decay"))

    def test_audits_without_perturbation_are_skipped(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario={"kind": "markov_cycle", "cells": 4})
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        skipped_names = [row[0] for row in report["skipped"]]
        assert "small_gain" in skipped_names and "iss" in skipped_names
        assert report["c"] is not None  # inverse estimate still runs

    @pytest.mark.parametrize("fit", [{"horizon": 1, "dt": 5}, {"horizon": 10, "dt": 0.3}])
    def test_gain_fit_horizon_off_the_dt_grid(self, tmp_path, capsys, fit):
        cfg = write_config(tmp_path, audits=["gain_fit"], gain_fit=fit)
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: horizon = ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", cli.KNOWN_AUDITS)
    @pytest.mark.parametrize("scenario", ["ring", "renewal-n60"])
    def test_each_audit_alone(self, tmp_path, capsys, scenario, name):
        # the ring has neither an injection column nor a feedback loop;
        # the 60-cell renewal system has both and every audit runs on it
        doc = json.loads((DATA / "renewal-n60.json").read_text())
        doc["audits"] = [name]
        reasons = {}
        if scenario == "ring":
            doc["scenario"] = {"kind": "ring_transport", "a": 0.5, "length": 1.0, "cells": 30}
            reasons = {
                "admissibility": "scenario has no injection column",
                "resolvent_bound": "scenario has no injection column",
                "small_gain": "scenario has no perturbation",
                "iss": "scenario has no perturbation",
                "gain_fit": "gain fit needs a perturbed system with an injection column",
                "domination": "scenario has no perturbation",
            }
        path, out = tmp_path / "cfg.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["audit", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        if name in reasons:
            assert report["audits_run"] == [] and report["skipped"] == [[name, reasons[name]]]
        else:
            assert report["audits_run"] == [name] and report["skipped"] == []
        # the key set is fixed, whichever audits ran
        assert sorted(report) == sorted(json.loads((DATA / "renewal-n60-audit.json").read_text()))

    def test_skips_found_while_running(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            scenario={"kind": "renewal", "q": 1.0, "beta": 0.5, "length": 2.0, "cells": 501},
            audits=["inverse_estimate", "domination"],
            lambda0=-1000.0,
        )
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        # T(t) <= S(t) follows from structure, at any size
        assert report["audits_run"] == ["domination"] and report["domination_ok"] is True
        [(inv, reason)] = report["skipped"]
        assert inv == "inverse_estimate" and reason.startswith("lambda0 = -1000.0 must exceed")
        # the abscissa that was refused is still reported
        assert report["lambda0"] == -1000.0 and report["c"] is None

    def test_signed_loop_skips_domination(self, tmp_path, capsys):
        # b = (1, -0.5, 0) gives P[1, 0] = -0.25 while A_S stays Metzler: the
        # loop is eISS, and only the domination audit cannot run
        out = tmp_path / "report.json"
        cfg = str(DATA / "signed-loop-n3.json")
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["audits_run"] == ["small_gain", "iss"]
        assert report["skipped"] == [["domination", "domination requires a nonnegative perturbation"]]
        assert report["verdict"] == "eISS" and report["r"] == pytest.approx(1 / 6, rel=1e-14)
        assert report["domination_ok"] is None

    def test_domination_audit_solves_nothing(self, tmp_path, capsys, monkeypatch):
        # the audit reads P >= 0 off the loop; no resolvent is formed
        def refuse(*args, **kwargs):
            raise AssertionError("the domination audit solved a system")

        monkeypatch.setattr(generators.ShiftedInverse, "__init__", refuse)
        doc = json.loads((DATA / "renewal-n60.json").read_text())
        doc["audits"] = ["domination"]
        path, out = tmp_path / "cfg.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["audit", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["audits_run"] == ["domination"] and report["domination_ok"] is True

    def test_overflowing_resolvent_bound_is_skipped(self, tmp_path, capsys):
        # at 2000 cells and alpha = -50, the probe solve of R(lam, A) on the
        # lower-bidiagonal base overflows on the lower part of the grid; the
        # audit is skipped, the others report
        cfg = write_config(
            tmp_path,
            scenario={"kind": "renewal", "q": 1.0, "beta": 0.5, "length": 20.0, "cells": 2000},
            alpha=-50.0,
        )
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["audits_run"] == [a for a in cli.DEFAULT_AUDITS if a != "resolvent_bound"]
        ((name, reason),) = report["skipped"]
        assert name == "resolvent_bound" and reason == "-49.9 I - 1.0 A has backward error inf"
        assert report["alpha"] == -50.0 and report["m_alpha"] is None
        assert report["c"] is not None and report["kappa"] is not None and report["r"] is not None

    def test_overflowing_inverse_estimate_is_skipped(self, tmp_path):
        # the lambda0 twin of the case above: at 2000 cells, h = 0.01 and
        # s(A) = -101, the adjoint solve of R(-100.5, A) grows by 200 per
        # cell and overflows, and its column scores divide by w = h; the
        # audit is skipped with no numpy warning, the others report
        cfg = write_config(
            tmp_path,
            scenario={"kind": "renewal", "q": 1.0, "beta": 0.5, "length": 20.0, "cells": 2000},
            lambda0=-100.5,
        )
        out = tmp_path / "report.json"
        proc = run_cli("audit", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0 and proc.stderr == ""
        report = json.loads(out.read_text())
        assert report["s_A"] == -101.0
        assert report["skipped"] == [["inverse_estimate", "-100.5 I - 1.0 A has backward error inf"]]
        assert report["lambda0"] == -100.5 and report["c"] is None
        assert report["kappa"] is not None and report["m_alpha"] is not None and report["r"] is not None

    @pytest.mark.parametrize("key", ["alpha", "lambda0"])
    def test_abscissa_below_the_spectral_bound_is_skipped(self, tmp_path, capsys, key):
        # s(A) = -4 here; an abscissa at or below it skips its own audit,
        # the refusal is the reason, and every other audit reports
        audit, value = {"alpha": ("resolvent_bound", "m_alpha"), "lambda0": ("inverse_estimate", "c")}[key]
        scenario = {"kind": "renewal", "cells": 60, "length": 20.0}
        cfg = write_config(tmp_path, scenario=scenario, **{key: -1000.0})
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["audits_run"] == [a for a in cli.DEFAULT_AUDITS if a != audit]
        assert report["skipped"] == [[audit, f"{key} = -1000.0 must exceed the spectral bound -4.0"]]
        assert report[key] == -1000.0 and report[value] is None

    def test_tolerance_profile_env(self, tmp_path, capsys, monkeypatch):
        # the guard band is iss.GUARD_BAND: the variable is read by nothing
        cfg = write_config(tmp_path)
        plain, loose = tmp_path / "plain.json", tmp_path / "loose.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(plain)]) == 0
        monkeypatch.setenv("POSSYS_TOLERANCE_PROFILE", "loose")
        assert cli.main(["audit", "--config", cfg, "--out", str(loose)]) == 0
        assert loose.read_bytes() == plain.read_bytes()

    def test_explicit_scenario_with_feedback(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            scenario={
                "kind": "explicit",
                "matrix": [[-2.0, 0.0], [1.0, -2.0]],
                "length": 2.0,
                "b": [1.0, 0.0],
                "beta": [1.0, 1.0],
            },
        )
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["r"] == pytest.approx(0.75)

    def test_singular_loop_exits_3(self, tmp_path):
        # A 1 = 0: R(0, A) does not exist, so neither does the loop gain
        scenario = {"kind": "explicit", "matrix": [[-1.0, 1.0], [1.0, -1.0]], "b": [1.0, 0.0], "beta": 0.5}
        for audit in ("small_gain", "iss"):
            cfg = write_config(tmp_path, scenario=scenario, audits=[audit])
            proc = run_cli("audit", "--config", cfg, "--out", str(tmp_path / "r.json"))
            assert proc.returncode == 3
            assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("matrix, plan, reason", [
        # c tau rho overflows: 1e308 times a step of 1.6e8
        ([[-1e308, 0.0], [1.0, -1.0]], {"t_end": 1e10}, "c tau rho = inf is not finite"),
        # finite, but 7.6e10 products of 6 entries for each step of 1/32
        ([[-1e12, 0.0], [1.0, -1.0]], {}, "needs 64 x 76250000000 products of 6 entries (c tau rho = 31250000000.0)"),
    ])
    def test_uniformization_past_its_budget_is_refused(self, tmp_path, capsys, matrix, plan, reason):
        scenario = {"kind": "explicit", "matrix": matrix}
        cfg = write_config(tmp_path, scenario=scenario, plan=plan, audits=["left_invertibility"])
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        [[name, why]] = json.loads(out.read_text())["skipped"]
        assert name == "left_invertibility" and reason in why
        exact = write_config(tmp_path, "exact.json", scenario=scenario, plan={**plan, "method": "exact_exponential"})
        capsys.readouterr()
        assert cli.main(["simulate", "--config", exact, "--out", str(tmp_path / "sim.csv")]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: the exact exponential of step ")

    def test_budget_counts_every_step_of_the_audit(self, tmp_path):
        # one step of 1/32 takes 76250 products, about a second, but
        # the audit's 64 steps would take about a minute
        scenario = {"kind": "explicit", "matrix": [[-1e6, 0.0], [1.0, -1.0]]}
        cfg = write_config(tmp_path, scenario=scenario, plan={}, audits=["left_invertibility"])
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
        [[name, why]] = json.loads(out.read_text())["skipped"]
        assert name == "left_invertibility" and "needs 64 x 76250 products of 6 entries" in why

    def test_left_invertibility_fault_is_not_a_skip(self, tmp_path, monkeypatch, capsys):
        # only a work-budget refusal skips; any other ValueError is a fault
        def broken(model, t_grid):
            raise ValueError("left-invertibility audit needs a uniform grid starting at 0")

        monkeypatch.setattr(cli, "left_invertibility_audit", broken)
        cfg = write_config(tmp_path, audits=["left_invertibility"])
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: left-invertibility audit needs")

    def test_report_does_not_depend_on_the_seed(self, tmp_path, capsys):
        # nothing draws from the seed: reports differ in its echo alone
        scenario = {"kind": "renewal", "q": 1.0, "beta": 0.25, "length": 2.0, "cells": 20}
        reports = []
        for seed in range(20):
            cfg = write_config(tmp_path, scenario=scenario, audits=["small_gain", "iss"], seed=seed)
            out = tmp_path / "r.json"
            assert cli.main(["audit", "--config", cfg, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report.pop("seed") == seed
            reports.append(report)
        assert all(report == reports[0] for report in reports)


class TestSweep:
    def test_rows_sorted_by_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        rc = cli.main([
            "sweep", "--config", cfg, "--param", "beta0",
            "--values", "1.4,0.2,0.8", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "value,r,s_perturbed,verdict,mu"
        values = [float(line.split(",")[0]) for line in lines[2:]]
        assert values == sorted(values)
        verdicts = [line.split(",")[3] for line in lines[2:]]
        assert verdicts == ["eISS", "eISS", "not_eISS"]

    def test_mu_is_the_growth_bound(self, tmp_path, capsys):
        # an eISS row's decay rate is -s(A_S), bit for bit; other rows have none
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert cli.main([
            "sweep", "--config", cfg, "--param", "beta0",
            "--values", "0.2,0.8,1.0,1.4,3.0", "--out", str(out),
        ]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert {row["verdict"] for row in rows} == {"eISS", "not_eISS"}
        for row in rows:
            if row["verdict"] == "eISS":
                assert float(row["mu"]) == -float(row["s_perturbed"])
                assert "-" + row["mu"] == row["s_perturbed"]
            else:
                assert row["mu"] == ""

    def test_deterministic_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--config", cfg, "--param", "q0", "--values", "0.5,1.5"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_n_sweep_requires_integers(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for value in ("10.5", "inf", "nan"):
            assert cli.main(["sweep", "--config", cfg, "--param", "n", "--values", value]) == 2
        assert cli.main([
            "sweep", "--config", cfg, "--param", "n", "--values", "10,20",
            "--out", str(tmp_path / "n.csv"),
        ]) == 0

    def test_row_verdict_is_iss_verdict(self, tmp_path):
        # the loop gain is linear in beta, r = 0.86 beta here, so beta =
        # 1 / r(1) puts r within roundoff of 1, inside the 1e-9 guard band,
        # and the other two on either side
        cfg = cli.RunConfig.from_file(write_config(tmp_path))
        edge = 1.0 / ps.renewal_scenario(1.0, 1.0, length=2.0, cells=30).system.small_gain_radius
        assert abs(ps.renewal_scenario(1.0, edge, length=2.0, cells=30).system.small_gain_radius - 1.0) < 1e-9
        verdicts = []
        for beta in (1.0, edge, 1.4):
            row = cli._sweep_row(cfg, "beta0", beta)
            rs = ps.renewal_scenario(1.0, beta, length=2.0, cells=30)
            rep = ps.iss_verdict(rs.system)
            assert (row["verdict"], row["r"]) == (rep.verdict, rep.small_gain_radius)
            assert row["mu"] == (-row["s_perturbed"] if rep.verdict == ps.EISS else None)
            verdicts.append(row["verdict"])
        assert verdicts == [ps.EISS, ps.INCONCLUSIVE, ps.NOT_EISS]

    def test_a_sweep_needs_ring(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["sweep", "--config", cfg, "--param", "a", "--values", "1.0"]) == 2
        ring = write_config(
            tmp_path, name="ring.json",
            scenario={"kind": "ring_transport", "length": 1.0, "cells": 30},
        )
        out = tmp_path / "a.csv"
        assert cli.main(["sweep", "--config", ring, "--param", "a", "--values", "0.5,2.0", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        s_values = [float(r.split(",")[2]) for r in rows]
        assert s_values[0] < 0 < s_values[1]


def assert_report_matches(got, want, where="report"):
    """Numbers at rel 1e-12, above the last-digit drift of every refactor so
    far (values that are zero in exact arithmetic may carry roundoff up to
    1e-15), strings, booleans and nulls exactly."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_report_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_report_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and got == pytest.approx(want, rel=1e-12, abs=1e-15), where
    else:
        assert type(got) is type(want) and got == want, where


class TestCommittedReports:
    """All eight audits and a beta0 sweep at 60 cells against committed
    values, so that refactors cannot drift reports silently."""

    def test_audit(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["audit", "--config", str(DATA / "renewal-n60.json"), "--out", str(out)]) == 0
        want = json.loads((DATA / "renewal-n60-audit.json").read_text())
        assert_report_matches(json.loads(out.read_text()), want)

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert cli.main([
            "sweep", "--config", str(DATA / "renewal-n60.json"), "--param", "beta0",
            "--values", "0.25,0.5,1.5,2.0", "--out", str(out),
        ]) == 0
        got = out.read_text().splitlines()
        want = (DATA / "renewal-n60-sweep-beta0.csv").read_text().splitlines()
        assert got[:2] == want[:2] and len(got) == len(want)
        for got_row, want_row in zip(got[2:], want[2:]):
            parsed = [
                [float(f) if f not in ("", "eISS", "not_eISS", "inconclusive") else f for f in row.split(",")]
                for row in (got_row, want_row)
            ]
            assert_report_matches(*parsed, where=want_row)


STARTUP = """
import os
import sys
import numpy as np
import possys
from possys import cli
from possys.generators import shifted_inverse

def loaded():
    return "scipy.linalg" in sys.modules

def formatter():
    return "possys.floatfmt" in sys.modules

tmp, audit, simulate = sys.argv[1:4]
assert not loaded() and not formatter(), "import possys"
try:
    cli.main(["--version"])
except SystemExit as exc:
    assert exc.code == 0
assert not loaded(), "possys --version"
for path in sys.argv[4:]:
    built = cli.build_scenario(cli.RunConfig.from_file(path))
    assert not loaded() and not formatter(), path
assert cli.main(["audit", "--config", audit, "--out", os.path.join(tmp, "report.json")]) == 0
assert not loaded() and not formatter(), audit
assert cli.main(["simulate", "--config", simulate, "--out", os.path.join(tmp, "trajectory.csv")]) == 0
assert not loaded() and formatter(), simulate
# lower triangular with an entry off the two diagonals: no bands
dense = possys.GeneratorModel.from_matrix(
    possys.GridSpace(length=3.0, cells=3), [[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, -1.0]]
)
assert dense.bands is None
shifted_inverse(dense, 1.0, 1.0) @ np.ones(3)
assert loaded(), "dense solve"
"""


def test_startup_loads_numpy_alone(tmp_path):
    """import possys, --version, every committed scenario build, the audit
    of all eight audits at 400 cells and the 2000-cell simulate leave
    scipy.linalg unloaded: the band solves load LAPACK's extension alone and
    the exact exponential on Metzler bands is a uniformization sum.  The
    dense inverse of a triangular matrix without bands loads it.  The CSV
    formatter and its tables load only when simulate writes its rows.  A
    fresh interpreter, since this one has both modules already."""
    # signed-n40 is refused: its Metzler twin, A[5, 20] = 0.3, is built instead
    signed = DATA / "signed-n40.json"
    doc = json.loads(signed.read_text())
    doc["scenario"]["matrix"][5][20] = 0.3
    twin = tmp_path / "metzler-n40.json"
    twin.write_text(json.dumps(doc))
    reports = {DATA / "renewal-n60-audit.json", DATA / "audit-n100000-audit.json", signed}
    configs = sorted(set(DATA.glob("*.json")) - reports) + [twin] + sorted((ROOT / "perfbench" / "configs").glob("*.json"))
    bench = ROOT / "perfbench" / "configs"
    runs = (bench / "audit-all-n400.json", bench / "simulate-n2000.json")
    proc = run_python("-c", STARTUP, str(tmp_path), *map(str, runs), *map(str, configs))
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run():
    """Every python block of README.md runs in a fresh interpreter, so a
    public name the README uses cannot be removed without this failing."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        proc = run_python("-c", block)
        assert proc.returncode == 0, (block, proc.stderr)


THREADS = """
import sys
import threading
import numpy as np
import possys
from possys.generators import shifted_inverse

model = possys.renewal_scenario(1.0, 0.5, length=20.0, cells=400).system.perturbed
y = np.linspace(0.0, 1.0, 400)
barrier = threading.Barrier(8)
out = [None] * 8

def build(i):
    barrier.wait(timeout=60)
    op = shifted_inverse(model, 1.0, 0.05)
    out[i] = (op @ y, op.T @ y)

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
finally:
    sys.setswitchinterval(interval)
assert not any(t.is_alive() for t in threads)
assert all(o is not None for o in out), out
for forward, adjoint in out[1:]:
    assert np.array_equal(forward, out[0][0]) and np.array_equal(adjoint, out[0][1])
assert "scipy.linalg" not in sys.modules
"""


class TestLapackLoader:
    """`ShiftedInverse` takes LAPACK's dtbtrs from scipy's extension file."""

    def test_threads_load_it_once(self):
        """Eight threads behind a barrier build the first solvers of a fresh
        interpreter and solve bit for bit alike."""
        proc = run_python("-c", THREADS)
        assert proc.returncode == 0, proc.stderr

    def test_public_import_without_the_extension_file(self, monkeypatch):
        """A scipy layout without the file takes scipy.linalg.lapack's
        dtbtrs, the same routine: the solves agree bit for bit."""

        class FindsNothing:
            def __init__(self, *args):
                pass

            def find_spec(self, name):
                return None

        model = ps.renewal_scenario(1.0, 0.5, length=20.0, cells=300).system.perturbed
        y = np.random.default_rng(5).standard_normal(300)
        generators._lapack_tbtrs.cache_clear()
        from_file = generators.shifted_inverse(model, 1.0, 0.05)
        monkeypatch.setattr(importlib.machinery, "FileFinder", FindsNothing)
        generators._lapack_tbtrs.cache_clear()
        try:
            public = generators.shifted_inverse(model, 1.0, 0.05)
            assert generators._lapack_tbtrs() is scipy.linalg.lapack.dtbtrs
        finally:
            monkeypatch.undo()
            generators._lapack_tbtrs.cache_clear()
        assert np.array_equal(from_file @ y, public @ y)
        assert np.array_equal(from_file.T @ y, public.T @ y)


class TestKernelLookups:
    """The dense scipy.linalg kernels are looked up on the module at each
    call, so a wrapper set on scipy.linalg (the benchmark's kernel spans)
    sees every call."""

    @staticmethod
    def count(monkeypatch, name):
        calls = []
        real = getattr(scipy.linalg, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, counted)
        return calls

    def test_no_production_path_calls_expm(self, tmp_path, capsys, monkeypatch):
        # every exact exponential, and every input column it integrates, is a
        # uniformization sum: on bands and on a matrix without them
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.expm called")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        no_bands = {
            "kind": "explicit", "matrix": [[-3.0, 1.0, 1.0], [1.0, -3.0, 1.0], [1.0, 1.0, -3.0]],
            "b": [1.0, 0.0, 0.0], "beta": [0.5, 0.0, 0.0],
        }
        renewal = {"kind": "renewal", "q": 1.0, "beta": 0.5, "length": 2.0, "cells": 30}
        for scenario in (renewal, no_bands):
            cfg = write_config(
                tmp_path, scenario=scenario, audits=list(cli.KNOWN_AUDITS),
                plan={"t_end": 1.0, "dt": 0.05, "method": "exact_exponential"},
            )
            assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim.csv")]) == 0
            assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
            report = json.loads((tmp_path / "r.json").read_text())
            assert report["audits_run"] == list(cli.KNOWN_AUDITS) and report["skipped"] == []
        rs = ps.renewal_scenario(1.0, 0.5, length=2.0, cells=30)
        u = ps.InputSignal(np.array([0.0, 0.3, 0.7]), np.array([1.0, 0.5]))
        phi = ps.input_map(rs.generator, rs.boundary_input, u, 1.0)
        assert np.min(phi.values) >= 0 and np.max(phi.values) > 0
        x = rs.generator.space.vector(np.ones(30))
        assert ps.variation_of_constants_check(rs.system, x, 0.5, 0.05).residual > 0

    def test_dense_audit_solves_eigenvalues_once(self, tmp_path, capsys, monkeypatch):
        # s(A) of a matrix without bands is one eigvals per model, which the
        # default audits and the verdict all read
        calls = []
        real = np.linalg.eigvals

        def counted(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        matrix = [[-3.0, 1.0, 1.0], [1.0, -3.0, 1.0], [1.0, 1.0, -3.0]]
        scenario = {"kind": "explicit", "matrix": matrix, "b": [1.0, 0.0, 0.0], "beta": [0.5, 0.0, 0.0]}
        cfg = write_config(tmp_path, scenario=scenario)
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["audits_run"] == list(cli.DEFAULT_AUDITS) and report["s_A"] == pytest.approx(-1.0)
        assert calls == [(3, 3)]

    def test_solve_triangular_in_dense_inverse(self, monkeypatch):
        calls = self.count(monkeypatch, "solve_triangular")
        space = ps.GridSpace(length=2.0, cells=2)
        model = ps.GeneratorModel.from_matrix(space, [[-2.0, 0.0], [1.0, -2.0]])
        step = generators._dense_inverse(model, 1.0, 0.5)
        np.testing.assert_allclose(step, np.linalg.inv(np.eye(2) - 0.5 * model.matrix), rtol=1e-15)
        assert calls == ["solve_triangular"]
        # `_dense_inverse` catches scipy's singular report as numpy's class
        assert scipy.linalg.LinAlgError is np.linalg.LinAlgError


def test_jsonable_handles_numpy_and_inf():
    out = cli._jsonable({"a": np.float64(1.5), "b": np.array([1, 2]), "c": float("inf"), "d": np.bool_(True)})
    assert out == {"a": 1.5, "b": [1, 2], "c": None, "d": True}
