"""Per-layer metrics from the spans of a traced run, and the map from each one
to the end-to-end metric it should move.

A span name is `<layer>.<function>`: a module of src/possys, `kernel` for the
dense numpy/scipy routines, or `import`.  A metric name adds a statistic:

    .s        inclusive seconds, summed over calls that are not nested inside
              another call of the same name
    .self_s   inclusive seconds minus the part of each span its child spans
              cover (children on pool threads overlap, so their union counts)
    .calls    number of calls
    .bytes    sizes of the arrays passed in and returned, summed over calls;
              computed from shapes, not a measured memory traffic

plus the derived metrics in `derived` below.  A metric of a function the
workload never calls reads 0.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# metric -> (end-to-end metrics it should move, workloads where it should,
# workloads where it should stay flat)
LAYER_MAP = {
    "import.possys.s": ("setup_s, wall_s", "simulate-n2000 (largest share)", ""),
    "scenarios.renewal_scenario.s": ("setup_s, wall_s", "simulate-n2000 (largest share)", ""),
    "perturbation.assemble_perturbed.s": ("setup_s, wall_s", "simulate-n2000 (largest share)", ""),
    "cli.build_scenario.s": ("setup_s, wall_s", "simulate-n2000 (largest share)", ""),
    **{m: ("wall_s, cpu_s", "audit-all-n400, audit-n2000", "sweep-beta-n600") for m in (
        "generators.resolvent_matrix.s", "generators.resolvent_matrix.calls",
        "generators.resolvent_apply.s", "generators.resolvent_apply.calls",
        "generators.inverse_estimate_constant.s",
        "generators.spectral_report.s", "generators.spectral_report.self_s",
        "kernel.solve_triangular.s", "kernel.solve_triangular.calls",
        "kernel.solve.s", "kernel.solve.calls",
    )},
    **{m: ("wall_s, cpu_s", "sweep-beta-n600, audit-all-n400", "audit-n2000 (triangular, no eigensolve)") for m in (
        "generators.spectral_bound.s", "generators.spectral_bound.calls",
        "kernel.eigvals.s", "kernel.eigvals.calls",
    )},
    **{m: ("wall_s, peak_rss_mb", "simulate-n2000, audit-n2000", "") for m in (
        "semigroup.step_matrix.s", "semigroup.step_matrix.calls",
        "semigroup.growth_estimate.s",
        "semigroup.operator_norm_trajectory.s", "semigroup.operator_norm_trajectory.calls",
        "control.step_input_operators.s", "control.step_input_operators.calls",
        "control.step_input_operators.hit_ratio",
    )},
    **{m: ("wall_s", "audit-all-n400, audit-n2000", "sweep-beta-n600") for m in (
        "control.admissibility_constant.s", "control.impulse_response_norms.s",
        "control.uniform_decay_curve.s", "control.positivity_equivalence_audit.s",
        "control.composition_law_check.s", "control.input_map.s", "control.input_map.calls",
        "control.resolvent_bound_audit.s",
    )},
    **{m: ("wall_s", "simulate-n2000", "all audits") for m in (
        "control.mild_solution.s", "cli.cmd_simulate.self_s", "cli.output.bytes", "cli.output.mb_per_s",
    )},
    **{m: ("wall_s", "audit-all-n400", "audit-n2000 (no gain fit)") for m in (
        "iss.iss_gain_fit.s", "iss.iss_gain_fit.self_s",
        "lattice.induced_operator_norm.s", "lattice.induced_operator_norm.calls",
    )},
    **{m: ("wall_s, peak_rss_mb", "audit-all-n400", "audit-n2000") for m in (
        "perturbation.domination_check.s", "semigroup.left_invertibility_audit.s",
        "kernel.expm.s", "kernel.expm.calls", "kernel.expm.bytes",
    )},
    **{m: ("none (a control, about 0.1 s at n = 2000)", "", "all") for m in (
        "perturbation.small_gain_radius.s", "perturbation.small_gain_radius.calls", "iss.iss_verdict.s",
    )},
    **{m: ("wall_s vs cpu_s", "sweep-beta-n600", "") for m in (
        "cli.sweep_row.s", "cli.sweep.concurrency", "cli.sweep.row_wait_s",
    )},
    "cli.cmd_audit.self_s": ("wall_s", "audit-all-n400", "simulate-n2000"),
    "trace.overhead_s": ("none (traced wall_s minus untraced wall_s)", "", ""),
}


def _union_length(intervals: list) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class SpanIndex:
    """Spans of one traced run, grouped by name and by parent."""

    def __init__(self, spans: list):
        # span: [id, name, start, end, parent, thread, bytes]
        self.by_id = {sp[0]: sp for sp in spans}
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for sp in spans:
            self.by_name[sp[1]].append(sp)
            self.children[sp[4]].append(sp)

    def _nested_in_same_name(self, sp) -> bool:
        parent = self.by_id.get(sp[4])
        while parent is not None:
            if parent[1] == sp[1]:
                return True
            parent = self.by_id.get(parent[4])
        return False

    def inclusive(self, name: str) -> float:
        return sum(sp[3] - sp[2] for sp in self.by_name[name] if not self._nested_in_same_name(sp))

    def self_time(self, name: str) -> float:
        return sum(
            (sp[3] - sp[2]) - _union_length([(c[2], c[3]) for c in self.children[sp[0]]])
            for sp in self.by_name[name]
        )

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def nbytes(self, name: str) -> int:
        return sum(sp[6] for sp in self.by_name[name])


def derived(index: SpanIndex, command: str, output_bytes: int) -> dict:
    """Metrics worked out from several spans or from outside the program."""
    steps = index.by_name["control.step_input_operators"]
    built = sum(
        1 for sp in steps
        if any(c[1] in ("kernel.expm", "semigroup.step_matrix") for c in index.children[sp[0]])
    )
    out = {
        "control.step_input_operators.hit_ratio": (len(steps) - built) / len(steps) if steps else 0.0,
        "cli.output.bytes": output_bytes,
    }
    cmd_self = index.self_time(f"cli.cmd_{command}")
    out["cli.output.mb_per_s"] = output_bytes / 1e6 / cmd_self if cmd_self > 0 else 0.0

    rows = index.by_name["cli.sweep_row"]
    sweeps = index.by_name["cli.cmd_sweep"]
    if rows and sweeps:
        sweep = sweeps[0]
        out["cli.sweep_row.s"] = statistics.median(sp[3] - sp[2] for sp in rows)
        out["cli.sweep.concurrency"] = sum(sp[3] - sp[2] for sp in rows) / (sweep[3] - sweep[2])
        # pool.map queues every row when the sweep starts
        out["cli.sweep.row_wait_s"] = sum(sp[2] - sweep[2] for sp in rows)
    else:
        out.update({"cli.sweep_row.s": 0.0, "cli.sweep.concurrency": 0.0, "cli.sweep.row_wait_s": 0.0})
    return out


def layer_metrics(names: list, spans: list, command: str, output_bytes: int) -> dict:
    """Value of every metric in `names` for one traced run."""
    index = SpanIndex(spans)
    extra = derived(index, command, output_bytes)
    stats = {"s": index.inclusive, "self_s": index.self_time, "calls": index.calls, "bytes": index.nbytes}
    values = {}
    for name in names:
        if name in extra:
            values[name] = extra[name]
            continue
        span_name, _, stat = name.rpartition(".")
        if stat in stats:
            values[name] = stats[stat](span_name)
    return values
