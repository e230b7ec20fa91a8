"""Worker process of the benchmark: set up one workload and run its rounds.

Started by ``run.py`` in a fresh interpreter with ``src/`` on the path.  It
prints ``READY`` once the package is imported and the seeded inputs exist
(the orchestrator times that as ``setup_s``), then runs rounds until both
``--seconds`` have passed and the workload's minimum round count is met,
and prints one JSON line with its measurements.

Untraced runs report the end-to-end numbers in reference seconds: they
time a host-speed probe of ``speed.py`` before every op and divide each
measured time by the slowness the probes next to it show.  Traced runs
alternate an untraced and a traced round, check both the same way, require
the traced outputs to equal the untraced ones, and report the per-layer
numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import speed
import workloads
from tracer import NullTracer, Tracer

RESULTS_DIR = Path(__file__).resolve().parent / "results"

# percentiles that may be reported as the tail, highest first
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n_ops):
    """Highest ladder percentile with at least ten of n_ops samples beyond."""
    for p in TAIL_LADDER:
        if n_ops * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def percentile(sorted_values, p):
    """Harrell-Davis estimate of the p-th percentile of sorted_values.

    A weighted mean of all order statistics, the i-th weighted by the mass
    of Beta(q (n+1), (1-q) (n+1)) on [i/n, (i+1)/n], q = p / 100.  Unlike
    the sample percentile it does not jump between the two values next to
    the rank: ``multipole_pairing`` has as many spline as bump ops, so its
    sample median falls in the gap between the two clusters and takes one
    extreme value from each.
    """
    n = len(sorted_values)
    q = p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t)
                        + (b - 1) * math.log1p(-t))

    steps = 8  # Simpson's rule on each [i/n, (i+1)/n]
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        ys = [density((i * steps + k) * h) for k in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2])
                                + 2 * sum(ys[2:-1:2])))
    return (sum(w * v for w, v in zip(weights, sorted_values))
            / sum(weights))


class SpeedProbe(NullTracer):
    """Untraced rounds of an untraced run: one speed probe before each op."""

    def __init__(self, measure):
        self.measure = measure
        self.probes = []  # slowness, in the order the probes were taken
        self.spent_ns = 0  # time spent probing, taken off the round's wall

    def probe(self, op):
        start = time.perf_counter_ns()
        op.probe = len(self.probes)
        self.probes.append(self.measure())
        self.spent_ns += time.perf_counter_ns() - start


class Round:
    """One round of a workload, timed as a whole, then checked.

    ``first`` is the round whose numbers this one must reproduce; the first
    round of a run (``first`` None) gets the full check.
    """

    def __init__(self, workload, tracer, first):
        self.tracer = tracer
        tracer.install()
        start = time.perf_counter_ns()
        try:
            self.ops, self.stages = workload.run_round(tracer)
        finally:
            self.wall_ns = time.perf_counter_ns() - start
            tracer.uninstall()
        workload.check(self.ops, self.stages, first is None)
        if first is not None:
            workloads.check_repeat(workload, self.ops, self.stages,
                                   (first.ops, first.stages))

    @property
    def op_list(self):
        return [entry[-1] for entry in self.ops]


def run_rounds(workload, seconds, trace):
    """Rounds until time is up and the minimum count is met.

    A traced run pairs every untraced round with a traced one; all must
    reproduce the first untraced round's numbers.
    """
    min_rounds = 1 if trace else workload.min_rounds
    plain, traced = [], []
    start = time.perf_counter()
    while len(plain) < min_rounds or time.perf_counter() - start < seconds:
        plain.append(Round(workload, NullTracer() if trace
                           else SpeedProbe(workload.speed_probe),
                           plain[0] if plain else None))
        if trace:
            traced.append(Round(workload, Tracer(), plain[0]))
    return plain, traced


def ref_times(rounds):
    """Round walls (s) and op latencies (ms) in reference time.

    Every timed op or stage is divided by the median slowness of the
    probes next to its own.  A round's wall is the sum of its scaled ops and
    stages plus the rest of its time, less the probes, divided by the
    round's median slowness.
    """
    walls, latencies = [], []
    for r in rounds:
        probes = r.tracer.probes

        def ref_ns(op):
            if op.probe is None:  # never run: a stage it needed failed
                return op.ns
            return op.ns / speed.local_slowness(probes, op.probe)

        timed = r.op_list + [v for v in r.stages.values()
                             if isinstance(v, workloads.Op)]
        rest = r.wall_ns - r.tracer.spent_ns - sum(op.ns for op in timed)
        walls.append((sum(ref_ns(op) for op in timed)
                      + rest / statistics.median(probes)) * 1e-9)
        latencies += [ref_ns(op) * 1e-6 for op in r.op_list]
    return walls, latencies


def end_to_end(workload, rounds):
    walls, latencies = ref_times(rounds)
    ops = [op for r in rounds for op in r.op_list]
    durations = sorted(latencies)
    raw_walls = [(r.wall_ns - r.tracer.spent_ns) * 1e-9 for r in rounds]
    raw_durations = sorted(op.ns * 1e-6 for op in ops)
    probes = [p for r in rounds for p in r.tracer.probes]
    tail_p = tail_percentile(workload.min_rounds * workload.ops_per_round)
    if workload.name == "cli_scenarios":
        rss_kb = workload.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (len(ops) / sum(walls), "1/s"),
        "op_p50_ms": (percentile(durations, 50.0), "ms"),
        "op_tail_ms": (percentile(durations, tail_p), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    by_kind = {}
    for op, ms in zip(ops, latencies):
        by_kind.setdefault(op.kind, []).append(ms)
    detail = {
        "rounds": len(rounds),
        "round_wall_s": walls,
        "raw_round_wall_s": raw_walls,
        "raw_op_p50_ms": percentile(raw_durations, 50.0),
        "raw_op_tail_ms": percentile(raw_durations, tail_p),
        "speed_probes": len(probes),
        "speed_slowness_p50": statistics.median(probes),
        "raw_rounds": [{"wall_ns": r.wall_ns, "probe_ns": r.tracer.spent_ns,
                        "slowness": r.tracer.probes,
                        "ops": [(op.kind, op.probe, op.ns) for op in r.op_list]}
                       for r in rounds],
        "ops": len(ops),
        "ops_per_round": workload.ops_per_round,
        "op_tail_percentile": tail_p,
        "op_tail_samples_beyond": len(ops) * (100.0 - tail_p) / 100.0,
        "op_p50_samples": len(ops),
        "fail_ratio": sum(op.failed for op in ops) / len(ops),
        "ops_by_kind": {kind: {"count": len(v),
                               "p50_ms": statistics.median(v),
                               "max_ms": max(v)}
                        for kind, v in sorted(by_kind.items())},
    }
    return metrics, detail


def layer_counts(tr):
    """Machine-independent counts of one traced round."""
    c = tr.counts
    return {
        "specfun.ladder_calls": tr.calls("specfun.bessel_ladder"),
        "specfun.ladder_orders": c["specfun.ladder_orders"],
        "scaled.ops": c["scaled.ops"],
        "quadrature.integrals": tr.calls("quadrature.integrate_panels"),
        "quadrature.passes": tr.calls("quadrature.gauss_legendre"),
        "quadrature.integrand_evals": tr.calls("quadrature.integrand"),
        "quadrature.final_pass_evals": c["quadrature.final_pass_evals"],
        "modal.transfer_calls": tr.calls("modal.transfer_coeffs"),
        "modal.solve_mode_calls": tr.calls("modal.solve_mode"),
        "modal.limit_coeffs_calls": tr.calls("modal.limit_coeffs"),
        "weak_limit.profile_evals": tr.calls("weak_limit.profile"),
        "fields.eval_physical_calls": tr.calls("fields.eval_physical"),
        "harmonics.angular_basis_calls": tr.calls("harmonics.angular_basis"),
        "geometry.pushforward_calls": tr.calls("geometry.pushforward_field"),
        "halfspace.eval_H_calls": tr.calls("halfspace.eval_H"),
        "manifest.write_calls": (tr.calls("manifest.write_csv")
                                 + tr.calls("manifest.RunManifest.write")),
        "manifest.bytes_out": c["manifest.bytes_out"],
    }


def layer_times(tr):
    """Busy seconds per layer in one traced round."""
    s = tr.inclusive_s
    return {
        "specfun.ladder_s": s("specfun.bessel_ladder"),
        "quadrature.self_s": (s("quadrature.integrate_panels")
                              - s("quadrature.integrand")),
        "modal.solve_source_s": s("modal.solve_source"),
        "weak_limit.pairing_exterior_s": s("weak_limit.pairing_exterior_normal"),
        "weak_limit.pairing_interior_s": s("weak_limit.pairing_interior"),
        "weak_limit.predicted_limit_s": s("weak_limit.predicted_limit"),
        "weak_limit.energy_s": s("weak_limit.energy_integral"),
        "weak_limit.profile_s": s("weak_limit.profile"),
        "fields.eval_physical_s": s("fields.eval_physical"),
        "fields.eval_virtual_s": s("fields.eval_virtual_exterior"),
        "harmonics.angular_basis_s": s("harmonics.angular_basis"),
        "geometry.pushforward_s": s("geometry.pushforward_field"),
        "halfspace.limit_study_s": s("halfspace.limit_study"),
    }


def per_layer(plain, traced):
    """Per-layer metrics: counts of the first traced round (every traced
    round must repeat them exactly), times as medians over traced rounds."""
    counts = [layer_counts(r.tracer) for r in traced]
    repeat_ok = all(c == counts[0] for c in counts)
    times = [layer_times(r.tracer) for r in traced]
    metrics = {name: (value, "count") for name, value in counts[0].items()
               if name != "quadrature.final_pass_evals"}
    metrics["manifest.bytes_out"] = (counts[0]["manifest.bytes_out"], "B")
    for name in times[0]:
        metrics[name] = (statistics.median(t[name] for t in times), "s")
    calls = counts[0]["specfun.ladder_calls"]
    metrics["specfun.ladder_us_per_call"] = (
        statistics.median(t["specfun.ladder_s"] for t in times) / calls * 1e6
        if calls else 0.0, "us")
    evals = counts[0]["quadrature.integrand_evals"]
    metrics["quadrature.useful_eval_ratio"] = (
        counts[0]["quadrature.final_pass_evals"] / evals if evals else 0.0,
        "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.wall_ns for r in traced)
        / statistics.median(r.wall_ns for r in plain), "ratio")
    detail = {"traced_rounds": len(traced), "counts_repeat": repeat_ok,
              "counts_by_round": counts,
              "span_totals": {name: {"calls": v[0], "inclusive_s": v[1] * 1e-9,
                                     "self_s": v[2] * 1e-9}
                              for name, v in sorted(traced[0].tracer.totals.items())}}
    return metrics, detail, repeat_ok


def outputs_equal(workload, plain, traced):
    reference = workload.outputs(plain[0].ops, plain[0].stages)
    return all(workload.outputs(t.ops, t.stages) == reference for t in traced)


def write_spans(name, seed, traced):
    RESULTS_DIR.mkdir(exist_ok=True)
    doc = [{"ops": r.tracer.ops,
            "spans": [dict(zip(("id", "parent", "name", "start_ns", "end_ns",
                                "op"), s)) for s in r.tracer.spans]}
           for r in traced]
    path = RESULTS_DIR / f"spans-{name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "rounds": doc}, fh)
    return str(path.relative_to(workloads.ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    speed.warm_up()
    if args.trace and args.workload == "cli_scenarios":
        workload.in_process = True

    plain, traced = run_rounds(workload, args.seconds, args.trace)
    ops = [op for r in plain + traced for op in r.op_list]
    failures = sorted({op.error for op in ops if op.failed})
    result = {
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "failures": failures[:20],
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }
    correct = result["failed"] == 0
    if args.trace:
        metrics, detail, repeat_ok = per_layer(plain, traced)
        same = outputs_equal(workload, plain, traced)
        detail["traced_outputs_equal_untraced"] = same
        detail["spans_file"] = write_spans(args.workload, args.seed, traced)
        correct = correct and repeat_ok and same
    else:
        metrics, detail = end_to_end(workload, plain)
    result.update(correct=correct, metrics=metrics, detail=detail)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
