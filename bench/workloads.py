"""The benchmark's three workloads: seeded inputs, one round of work, checks.

A round is one complete solution of the workload (its ``wall_s``); an op is
the unit whose latency is reported.  Every input is generated from the seed
in the constructor, which is part of the measured set-up.  ``run_round``
does only the work that is timed; ``check`` judges its outputs afterwards,
with no tracing installed, and marks the ops whose outputs fail (``full``
adds the costly checks, run on the first round only).  Rounds
repeat the same inputs, so every round after the first must reproduce the
first round's numbers exactly (``check_repeat``).
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
import random
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import speed
from cloaksim import cli, fields, modal, weak_limit
from cloaksim.geometry import CloakParams
from cloaksim.weak_limit import RadialTestFunction

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = BENCH_DIR / "work"

OMEGA = 1.0
R1 = 0.5


class Op:
    """One timed unit of work and the verdict on its output."""

    __slots__ = ("kind", "ns", "probe", "value", "error", "failed",
                 "outputs")

    def __init__(self, kind):
        self.kind = kind
        self.ns = 0
        self.probe = None  # index of the speed probe taken before the op
        self.value = None
        self.error = None
        self.failed = False
        self.outputs = None  # files a CLI op wrote

    def fail(self, why):
        if not self.failed:
            self.failed = True
            self.error = why


def timed_op(tracer, op, fn):
    """Run fn() as ``op``; an unexpected exception fails the op."""
    tracer.probe(op)
    start = perf_counter_ns()
    try:
        op.value = tracer.run_op(op.kind, fn)
    except Exception as exc:  # an op boundary: record and keep running
        op.fail(f"{type(exc).__name__}: {exc}")
        op.value = None
        traceback.print_exc(file=sys.stderr)
    op.ns = perf_counter_ns() - start
    return op


def seeded_source(rng, n_max):
    """Every (n, m) up to n_max, p and q of magnitude 2^-n, seeded phases.

    Pairings and energies scale with |p| and |q| only, so fixing the
    magnitudes keeps the quadrature work of a round independent of the seed.
    """

    def coeff(n):
        return 2.0 ** -n * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))

    entries = {(n, m): (coeff(n), coeff(n))
               for n in range(1, n_max + 1) for m in range(-n, n + 1)}
    return modal.SourceCoeffs(entries=entries, r1=R1)


def _fit_slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


# -- multipole_pairing ---------------------------------------------------------


def residual_tol(rho):
    """Bound on ``modal.system_residuals``: 1e-10, or ten times the rounding
    floor of the residual evaluation, which grows like 1e-15 / rho (about
    1e-9 at rho = 1e-6 for every degree and data), whichever is larger."""
    return max(1e-10, 1e-14 / rho)


class MultipolePairing:
    """Regularisation sweep of single-mode normal-field pairings.

    Per rho: ``solve_source``, then for every (mode, profile family) one op
    (interior + layer pairing and the predicted limit), then the weighted
    energy at tol 1e-7.

    The seed draws the phases of the source and, for each mode, the spline
    values and their sign.  The kinks of the profiles stay where they are
    (the bump edges, the spline's zero knot below r1) because where a kink
    falls inside a quadrature panel decides how many doubling passes an
    integral takes: seeding them would make the work of a run depend on the
    seed.  For the same reason the spline values are not drawn afresh: the
    pass count of an integral also depends on them (one in 8 spline
    pairings took a pass less for 3 of 10 fresh draws).  Each mode gets one
    of a fixed bank of value sets, the bank of its degree dealt out in a
    seeded order, with a seeded sign.  Modes of one degree solve the same
    radial problem, and a pairing is linear in the profile, so every seed
    does the same work.
    """

    name = "multipole_pairing"
    N_MAX = 2
    RHOS = (1e-2, 1e-4, 1e-6)
    FAMILIES = ("bump", "spline")
    TOL = 1e-9
    ENERGY_TOL = 1e-7
    RATE_TOL = 0.05
    RESOLVED = 10.0
    BUMP = (0.5, 1.5)  # C1 bump support, as in the shipped converge scenario
    # natural spline through (0.4, 0) and seeded values at the later radii;
    # its kink at the zero knot stays below r1, out of every integration range
    KNOT_RADII = (0.4, 0.7, 1.0, 1.4)
    KNOT_BANK_SEED = 0  # draws the fixed bank of spline values
    min_rounds = 3
    speed_probe = staticmethod(speed.kernel_slowness)

    def __init__(self, seed):
        rng = random.Random(seed)
        self.source = seeded_source(rng, self.N_MAX)
        self.modes = self.source.modes()
        bank_rng = random.Random(self.KNOT_BANK_SEED)
        self.knot_values = {}
        for n in sorted({n for n, _ in self.modes}):
            degree = [mode for mode in self.modes if mode[0] == n]
            bank = [[bank_rng.uniform(0.75, 1.25) for _ in self.KNOT_RADII[1:]]
                    for _ in degree]
            rng.shuffle(bank)
            for mode, values in zip(degree, bank):
                sign = rng.choice((1.0, -1.0))
                self.knot_values[mode] = [sign * v for v in values]
        self.ops_per_round = (len(self.modes) * len(self.RHOS)
                              * len(self.FAMILIES))

    def profile(self, family, mode):
        if family == "bump":
            return RadialTestFunction.polynomial_bump([mode], *self.BUMP)
        knots = [(self.KNOT_RADII[0], 0.0)] + list(
            zip(self.KNOT_RADII[1:], self.knot_values[mode]))
        return RadialTestFunction.cubic_spline([mode], knots)

    def run_round(self, tracer):
        ops, stages = [], {}
        for rho in self.RHOS:
            params = CloakParams(rho=rho, omega=OMEGA, r1=R1)
            solve = timed_op(tracer, Op("solve_source"),
                             lambda: modal.solve_source(self.source, None,
                                                        params))
            stages[("solve", rho)] = solve
            for mode in self.modes:
                for family in self.FAMILIES:
                    op = Op(f"pair {family} rho={rho:g}")
                    ops.append((mode, family, rho, op))
                    if solve.failed:
                        op.fail("solve_source failed")
                        continue

                    def pair(sol=solve.value, params=params, mode=mode,
                             family=family):
                        phi = self.profile(family, mode)
                        pairing = (weak_limit.pairing_interior(sol, phi,
                                                               self.TOL)
                                   + weak_limit.pairing_exterior_normal(
                                       sol, phi, self.TOL))
                        predicted = weak_limit.predicted_limit(
                            self.source, phi, params, self.TOL)
                        return pairing, predicted

                    timed_op(tracer, op, pair)
            if not solve.failed:
                stages[("energy", rho)] = timed_op(
                    tracer, Op("energy_integral"),
                    lambda sol=solve.value: weak_limit.energy_integral(
                        sol, tol=self.ENERGY_TOL))
        return ops, stages

    def check(self, ops, stages, full):
        by_key = {(mode, family, rho): op for mode, family, rho, op in ops}
        for rho in self.RHOS:
            solve = stages[("solve", rho)]
            energy = stages.get(("energy", rho))
            bad_stage = None
            if solve.failed:
                bad_stage = solve.error
            elif energy is None or energy.failed:
                bad_stage = "energy_integral failed"
            elif not (math.isfinite(energy.value) and energy.value > 0):
                bad_stage = f"energy_integral gave {energy.value!r}"
            params = CloakParams(rho=rho, omega=OMEGA, r1=R1)
            for mode in self.modes:
                why = bad_stage
                if why is None:
                    p, q = self.source.entries[mode]
                    co = solve.value.modes.get(mode)
                    if co is None:
                        why = f"mode {mode} not solved"
                    else:
                        worst = max(modal.system_residuals(
                            mode[0], p, q, 0j, 0j, params, co))
                        if not worst < residual_tol(rho):
                            why = f"matching residual {worst:.3g}"
                if why is not None:
                    for family in self.FAMILIES:
                        by_key[(mode, family, rho)].fail(why)
        # the paper's O(rho) claim, per mode and profile
        for mode in self.modes:
            for family in self.FAMILIES:
                sweep = [by_key[(mode, family, rho)] for rho in self.RHOS]
                if any(op.value is None for op in sweep):
                    continue
                why = self.rate_problem(
                    [abs(p - q) for p, q in (op.value for op in sweep)],
                    abs(sweep[0].value[1]))
                if why is not None:
                    for op in sweep:
                        op.fail(why)

    def rate_problem(self, errs, limit):
        """Why a sweep's errors break O(rho) convergence, or None.

        Errors must shrink with rho.  The rate is fitted over the two
        smallest rho, where the expansion is asymptotic (at rho = 1e-2
        higher-order terms still show), and is checked only when the last
        error is resolved: above RESOLVED times the quadrature tolerance of
        the three integrals behind it, tol * max(1, |limit|) each.
        """
        if not all(math.isfinite(e) and e > 0 for e in errs):
            return f"non-finite or zero errors {errs}"
        if not all(a > b for a, b in zip(errs, errs[1:])):
            return f"error does not shrink with rho: {errs}"
        resolution = self.RESOLVED * 3 * self.TOL * max(1.0, limit)
        rate = _fit_slope(self.RHOS[-2:], errs[-2:])
        if errs[-1] > resolution and abs(rate - 1.0) > self.RATE_TOL:
            return f"fitted rate {rate:.4f}, expected 1 +/- {self.RATE_TOL}"
        return None

    def outputs(self, ops, stages):
        return ([op.value for *_, op in ops],
                [_stage_value(stages[k]) for k in sorted(stages, key=str)])


def check_repeat(workload, ops, stages, first):
    """Later rounds run the same inputs and must give the same numbers."""
    now_ops, now_stages = workload.outputs(ops, stages)
    ref_ops, ref_stages = workload.outputs(*first)
    for entry, got, ref in zip(ops, now_ops, ref_ops):
        if got != ref:
            entry[-1].fail("output differs from the first round")
    if now_stages != ref_stages:
        for entry in ops:
            entry[-1].fail("a stage output differs from the first round")


def _stage_value(stage):
    value = stage.value
    if isinstance(value, modal.ModalSolution):
        return value.modes
    return value


# -- field_grid ------------------------------------------------------------------


class FieldGrid:
    """Pointwise fields of a many-mode solution at seeded points.

    One ``solve_source`` per round, then one op per point: ``eval_physical``
    in the hidden region and in the layer, ``eval_virtual_exterior`` at
    virtual points.  No quadrature runs here.
    """

    name = "field_grid"
    N_MAX = 12
    RHO = 1e-6
    POINTS = {"hidden": (14, 0.6, 0.95), "layer": (13, 1.05, 1.95),
              "virtual": (13, 0.1, 1.9)}
    CHECKED = {"hidden": 2, "virtual": 2}
    # central differences at step 1e-4 |x| leave ~1e-5 of |field| at degree
    # 12 near r1; a wrong coefficient leaves O(1)
    RESIDUAL_TOL = 1e-4
    min_rounds = 3
    speed_probe = staticmethod(speed.kernel_slowness)

    def __init__(self, seed):
        rng = random.Random(seed)
        self.source = seeded_source(rng, self.N_MAX)
        self.params = CloakParams(rho=self.RHO, omega=OMEGA, r1=R1)
        self.points = []
        for kind, (count, r_lo, r_hi) in self.POINTS.items():
            for _ in range(count):
                d = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
                self.points.append(
                    (kind, rng.uniform(r_lo, r_hi) * d / np.linalg.norm(d)))
        self.ops_per_round = len(self.points)

    def run_round(self, tracer):
        solve = timed_op(tracer, Op("solve_source"),
                         lambda: modal.solve_source(self.source, None,
                                                    self.params))
        ops = []
        for kind, x in self.points:
            op = Op(kind)
            ops.append((kind, x, op))
            if solve.failed:
                op.fail("solve_source failed")
                continue
            evaluate = (fields.eval_virtual_exterior if kind == "virtual"
                        else fields.eval_physical)
            timed_op(tracer, op,
                     lambda x=x, ev=evaluate: ev(solve.value, x))
        return ops, {"solve": solve}

    def check(self, ops, stages, full):
        solution = stages["solve"].value
        for _, _, op in ops:
            if op.value is not None and not (
                    np.all(np.isfinite(op.value.E))
                    and np.all(np.isfinite(op.value.H))):
                op.fail("non-finite field value")
        if not full or solution is None:
            return
        # Maxwell residuals where the material is vacuum and the identity
        # tensor is right: hidden region (wavenumber k omega) and the
        # virtual annulus (omega); finite differences of the same evaluator
        todo = dict(self.CHECKED)
        for kind, x, op in ops:
            if todo.get(kind, 0) == 0 or op.value is None:
                continue
            todo[kind] -= 1
            if kind == "virtual":
                evaluate, omega = fields.eval_virtual_exterior, OMEGA
            else:
                evaluate = fields.eval_physical
                omega = self.params.k * OMEGA
            cache = {}

            def sample(pt, ev=evaluate, cache=cache):
                key = tuple(pt)
                if key not in cache:
                    cache[key] = ev(solution, pt)
                return cache[key]

            res_e, res_h = fields.maxwell_residuals(
                lambda pt: sample(pt).E, lambda pt: sample(pt).H, x, omega)
            scale = max(np.max(np.abs(op.value.E)), np.max(np.abs(op.value.H)))
            rel = max(res_e, res_h) / scale
            if not rel < self.RESIDUAL_TOL:
                op.fail(f"Maxwell residual {rel:.3g} relative to |field|")

    def outputs(self, ops, stages):
        return ([(op.value.E.tolist(), op.value.H.tolist())
                 if op.value is not None else None for *_, op in ops],
                [_stage_value(stages["solve"])])


# -- cli_scenarios -----------------------------------------------------------------


class CliScenarios:
    """The shipped scenarios through ``python -m cloaksim``, one fresh
    interpreter per op; the seed fixes the order of the ops in each round.

    Traced rounds call ``cli.main`` in process instead, so that the layer
    wrappers can see the calls.
    """

    name = "cli_scenarios"
    SCENARIOS = (
        ("converge", "converge", "converge_single_mode.json", 0),
        ("fields", "fields", "fields_single_mode.json", 0),
        ("halfspace", "halfspace", "halfspace_sweep.json", 0),
        ("resonant", "converge", "resonant_frequency.json", 3),
        ("specfun", "check-specfun", None, 0),
    )
    REFERENCE = {"converge": "converge_single_mode",
                 "fields": "fields_single_mode",
                 "halfspace": "halfspace_sweep", "specfun": "specfun"}
    RTOL = 1e-6
    ATOL = 1e-8  # times the largest magnitude in the reference file
    min_rounds = 4
    speed_probe = staticmethod(speed.start_slowness)  # ops start interpreters

    def __init__(self, seed):
        self.order = list(self.SCENARIOS)
        random.Random(seed).shuffle(self.order)
        self.ops_per_round = len(self.order)
        self.peak_rss_kb = 0
        self.in_process = False

    def argv(self, scenario):
        label, command, config, _ = scenario
        argv = [command, "--out", str(WORK_DIR / label)]
        if config is not None:
            argv += ["--config", str(ROOT / "scenarios" / config)]
        return argv

    def run_round(self, tracer):
        ops = []
        for scenario in self.order:
            label = scenario[0]
            shutil.rmtree(WORK_DIR / label, ignore_errors=True)
            op = Op(label)
            ops.append((scenario, op))
            if self.in_process:
                timed_op(tracer, op,
                         lambda s=scenario: cli.main(self.argv(s)))
            else:
                timed_op(tracer, op, lambda s=scenario: self._spawn(s))
            if op.value is not None:
                op.outputs = _read_outputs(WORK_DIR / label)
        return ops, {}

    def _spawn(self, scenario):
        """Run one CLI op in a fresh interpreter; returns its exit code."""
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        with open(WORK_DIR / f"{scenario[0]}.stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "cloaksim", *self.argv(scenario)],
                cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def check(self, ops, stages, full):
        for (label, _, _, expected), op in ops:
            if op.value is None:
                continue
            if op.value != expected:
                op.fail(f"exit code {op.value}, expected {expected}")
                continue
            if label in self.REFERENCE:
                why = self._compare(label, op.outputs)
                if why:
                    op.fail(why)

    def _compare(self, label, outputs):
        if "manifest.json" not in outputs:
            return "manifest.json missing"
        reference = _read_outputs(REFERENCE_DIR / self.REFERENCE[label])
        if label == "specfun":
            report = outputs.get("specfun_report.json", {})
            ref = reference["specfun_report.json"]
            if not report.get("pass"):
                return "check-specfun reported failure"
            if (report.get("grid") != ref["grid"]
                    or report.get("threshold") != ref["threshold"]):
                return "check-specfun ran another grid"
            return None
        for name, ref in reference.items():
            got = outputs.get(name)
            if got is None:
                return f"{name} missing"
            why = _compare_values(name, got, ref, self.RTOL, self.ATOL)
            if why:
                return why
        return None

    def outputs(self, ops, stages):
        return [(op.value, op.outputs) for _, op in ops], []


def _read_outputs(directory):
    """CSV files as lists of rows, JSON files as objects."""
    out = {}
    if not directory.is_dir():
        return out
    for path in sorted(directory.iterdir()):
        if path.suffix == ".csv":
            with open(path, encoding="utf-8", newline="") as fh:
                out[path.name] = list(csv.reader(fh))
        elif path.suffix == ".json":
            with open(path, encoding="utf-8") as fh:
                out[path.name] = json.load(fh)
    return out


def _numbers(doc):
    """Flatten a CSV table or JSON object into (label, value) pairs."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            for label, value in _numbers(doc[key]):
                yield f"{key}.{label}" if label else key, value
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            for label, value in _numbers(item):
                yield f"{i}.{label}" if label else str(i), value
    else:
        try:
            yield "", float(doc)
        except (TypeError, ValueError):
            yield "", doc


def _compare_values(name, got, ref, rtol, atol):
    got, ref = list(_numbers(got)), list(_numbers(ref))
    if [g[0] for g in got] != [r[0] for r in ref]:
        return f"{name}: layout differs from the reference"
    scale = max((abs(v) for _, v in ref if isinstance(v, float)), default=0.0)
    for (label, g), (_, r) in zip(got, ref):
        if isinstance(r, float) and isinstance(g, float):
            if not abs(g - r) <= rtol * max(abs(g), abs(r)) + atol * scale:
                return f"{name}[{label}] = {g!r}, reference {r!r}"
        elif g != r:
            return f"{name}[{label}] = {g!r}, reference {r!r}"
    return None


WORKLOADS = {w.name: w for w in (CliScenarios, MultipolePairing, FieldGrid)}
