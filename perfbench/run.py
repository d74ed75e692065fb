"""End-to-end and per-layer benchmark of the possys CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs its committed config
(perfbench/configs/NAME.json, with `seed` set to N) as fresh `python -m
possys.cli` processes, one at a time, with one BLAS/OpenMP thread each.

--trace 0 repeats rounds for S seconds: one CLI run, then one set-up probe in
a fresh process (import possys, parse the config, build the scenario).  A
round starts only while the rounds so far, at their mean length, leave room
for it; at least one round is made, and at least MIN_SETUP_PROBES probes.  It
reports the trimmed mean (see trimmed_mean) of wall_s, cpu_s and setup_s over
the run's processes, and the median peak_rss_mb.  On a shared host the same
process can take twice as long as other tenants come and go within seconds;
the trimmed mean of a run moves less from run to run than the
median and still drops a stray stall.  The medians and sample counts are
printed and kept in the result file too.

--trace 1 makes one plain CLI run and one traced run (probe.py trace) and
reports the per-layer metrics of BENCHMARK.json from the traced run's spans,
with the tracing overhead.

Every CLI output is checked against the closed forms in oracles.py.  The
largest deviation is printed as oracle_err, and failed runs over attempted
runs as error_rate.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A result file with the
environment, every sample and every check goes to .perfbench/results/.
"""
from __future__ import annotations

import os

# pinned before numpy loads here, and passed to every child
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracles  # noqa: E402

SWEEP_VALUES = "0.25,0.5,0.75,1.0,1.25,1.5,2.0,3.0"
WORKLOADS = {
    "audit-n2000": (["audit"], "report.json"),
    "audit-all-n400": (["audit"], "report.json"),
    "sweep-beta-n600": (["sweep", "--param", "beta0", "--values", SWEEP_VALUES], "sweep.csv"),
    "simulate-n2000": (["simulate"], "trajectory.csv"),
}
MIN_SETUP_PROBES = 3
RUN_DEADLINE_S = 170.0  # every child is killed once the run has lasted this long
OUT = ROOT / ".perfbench"


@dataclass
class Sample:
    kind: str
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    loadavg_before: str
    loadavg_after: str


def trimmed_mean(values: list) -> float:
    """Mean of the values left after dropping the fastest and the slowest
    quarter, rounded down."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def run_child(kind: str, argv: list, stdout_path: Path, timeout: float) -> Sample:
    """Run one child to completion; wall from spawn to exit, CPU and peak RSS
    from the kernel's accounting of that child."""
    env = {k: v for k, v in os.environ.items() if k != "POSSYS_TOLERANCE_PROFILE"}
    env.update(THREAD_PIN)
    env["PYTHONPATH"] = str(ROOT / "src")
    before = _loadavg()
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 0.1), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        kind=kind,
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        loadavg_before=before,
        loadavg_after=_loadavg(),
    )


def environment() -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "possys").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "nproc": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "thread_pin": dict(THREAD_PIN),
        "caches": caches,
        "git_revision": _git_revision(),
        "src_possys_sha256": digest.hexdigest(),
    }


def _git_revision() -> str:
    """HEAD read from .git without running git; benchmark checkouts have none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def check_outputs(name: str, cfg: dict, out_path: Path, stdout_path: Path) -> list:
    try:
        if name.startswith("audit"):
            return oracles.check_audit(cfg, str(out_path))
        if name.startswith("sweep"):
            return oracles.check_sweep(cfg, str(out_path), [float(v) for v in SWEEP_VALUES.split(",")])
        summary = json.loads(stdout_path.read_text().strip().splitlines()[-1])
        return oracles.check_simulate(cfg, str(out_path), summary)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [oracles.Check(f"output_readable: {type(exc).__name__}: {exc}", False)]


def run_workload(name: str, seed: int, seconds: float, trace: bool, metric_names: list) -> dict:
    started = time.perf_counter()
    work = OUT / "work" / name
    work.mkdir(parents=True, exist_ok=True)
    cfg = json.loads((HERE / "configs" / f"{name}.json").read_text())
    cfg["seed"] = seed
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    args, out_name = WORKLOADS[name]
    out_path = work / out_name
    cli = [sys.executable, "-m", "possys.cli", args[0], "--config", str(cfg_path), *args[1:], "--out", str(out_path)]

    def left() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - started)

    samples, checks, failures = [], [], []

    def cli_run(argv: list, kind: str) -> Sample:
        out_path.unlink(missing_ok=True)
        stdout_path = work / f"{kind}.out"
        sample = run_child(kind, argv, stdout_path, left())
        run_checks = check_outputs(name, cfg, out_path, stdout_path)
        if sample.exit_code != 0:
            run_checks.append(oracles.Check(f"exit_code {sample.exit_code}", False))
        samples.append(sample)
        checks.append([asdict(c) for c in run_checks])
        failures.append(not all(c.ok for c in run_checks))
        return sample

    metrics, extra = {}, {}
    if not trace:
        setup = []

        def setup_probe() -> None:
            probe_out = work / "setup.out"
            sample = run_child("setup", [sys.executable, str(HERE / "probe.py"), "setup", str(cfg_path)], probe_out, left())
            samples.append(sample)
            try:
                setup.append(float(json.loads(probe_out.read_text())["setup_s"]))
                ok = sample.exit_code == 0
            except (OSError, ValueError, KeyError):
                ok = False
            checks.append([asdict(oracles.Check("setup_probe", ok))])
            failures.append(not ok)

        # one set-up probe after each CLI run, so both sample the same stretch
        # of host time
        runs = []
        measure_start = time.perf_counter()
        while not runs or (time.perf_counter() - measure_start) * (len(runs) + 1) / len(runs) <= seconds:
            runs.append(cli_run(cli, "cli"))
            setup_probe()
        for _ in range(MIN_SETUP_PROBES - len(runs)):
            setup_probe()
        walls = [s.wall_s for s in runs]
        cpus = [s.cpu_s for s in runs]
        metrics = {
            "wall_s": trimmed_mean(walls),
            "cpu_s": trimmed_mean(cpus),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in runs),
            "setup_s": trimmed_mean(setup) if setup else float("nan"),
        }
        extra["medians"] = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup) if setup else float("nan"),
        }
        extra["setup_samples_s"] = setup
    else:
        plain = cli_run(cli, "cli")
        spans_path = work / "spans.json"
        spans_path.unlink(missing_ok=True)
        traced = cli_run([sys.executable, str(HERE / "probe.py"), "trace", str(spans_path), *cli[3:]], "traced")
        try:
            spans = json.loads(spans_path.read_text())["spans"]
        except (OSError, ValueError, KeyError):
            spans = []
            failures[-1] = True
        output_bytes = out_path.stat().st_size if out_path.exists() else 0
        metrics = layers.layer_metrics(metric_names, spans, args[0], output_bytes)
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s

    deviations = [c["deviation"] for run in checks for c in run if c["deviation"] is not None]
    failed = sum(failures)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(failures),
        "failed": failed,
        "oracle_err": max(deviations) if deviations else float("nan"),
        "error_rate": failed / len(failures),
        "metrics": metrics,
        "samples": [asdict(s) for s in samples],
        **extra,
        "checks": checks,
        "elapsed_s": time.perf_counter() - started,
    }


def report(result: dict, units: dict) -> None:
    """Human-readable lines; stdout's last line stays the JSON result."""
    print(f"{result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"attempted={result['attempted']}  elapsed={result['elapsed_s']:.1f} s")
    for name, value in result["metrics"].items():
        note = ""
        if name in layers.LAYER_MAP:
            moves, on, flat = layers.LAYER_MAP[name]
            note = f"   moves {moves}" + (f" on {on}" if on else "") + (f"; flat on {flat}" if flat else "")
        print(f"  {name:44s} {value:>16.6g} {units[name]}{note}")
    counts = {kind: sum(s["kind"] == kind for s in result["samples"]) for kind in ("cli", "setup")}
    for name, value in result.get("medians", {}).items():
        n = counts["setup" if name == "setup_s" else "cli"]
        print(f"  {name + ' (median of ' + str(n) + ')':44s} {value:>16.6g} {units.get(name, 's')}")
    print(f"  {'oracle_err':44s} {result['oracle_err']:>16.3g} abs")
    print(f"  {'error_rate':44s} {result['error_rate']:>16.3g} ratio")
    for run in result["checks"]:
        for check in run:
            if not check["ok"]:
                print(f"  FAILED {check['name']} deviation={check['deviation']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "possys" / "cli.py").is_file():
        print(f"no possys sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    # on SIGTERM, kill and reap the running child before exiting
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), list(units))
        missing = set(units) - set(result["metrics"])
        if missing:
            print(f"metrics not produced: {sorted(missing)}", file=sys.stderr)
            return 1
        result["metrics"] = {m: result["metrics"][m] for m in units}
        result["environment"] = env
        results_dir = OUT / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        report(result, units)
        print(f"  result file {path.relative_to(ROOT)}")
        results.append(result)

    def key(result: dict, metric: str) -> str:
        return metric if len(results) == 1 else f"{result['workload']}.{metric}"

    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {key(r, m): {"value": v, "unit": units[m]} for r in results for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
