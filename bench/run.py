"""cloaksim benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload multipole_pairing --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing needs installing).  The load is closed-loop and serial:
one op at a time from one process, BLAS threads pinned to 1.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run.  The full record of the run, with the run environment, goes
to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ("cli_scenarios", "multipole_pairing", "field_grid")
SCENARIOS = ("converge_single_mode.json", "fields_single_mode.json",
             "halfspace_sweep.json", "resonant_frequency.json")
THREAD_PINNING = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
# fresh interpreters timed per run for setup_s (the median), split between
# before and after the measured rounds so that they see the machine at
# different times; traced runs time the import breakdown as often
SETUP_SAMPLES, SETUP_BEFORE = 5, 2
RUN_DEADLINE_S = 170.0  # hard stop for the whole run


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(THREAD_PINNING)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def check_checkout():
    missing = [p for p in [SRC / "cloaksim" / "__init__.py",
                           *(ROOT / "scenarios" / s for s in SCENARIOS)]
               if not p.is_file()]
    if missing:
        raise BenchError("not a cloaksim checkout, missing: "
                         + ", ".join(str(p.relative_to(ROOT)) for p in missing))


def run_child(argv, deadline, stdout=subprocess.DEVNULL, **kwargs):
    """Run a child to completion within the run's deadline."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=stdout,
                            stderr=subprocess.PIPE, **kwargs)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(argv)}")
    return proc.returncode, out, err


def build(deadline):
    """Byte-compile the package and the benchmark, so every timed start
    finds warm caches (a user's installed package has them too)."""
    code, _, err = run_child([sys.executable, "-m", "compileall", "-q",
                              str(SRC), str(BENCH_DIR)], deadline)
    if code != 0:
        raise BenchError(f"compileall failed: {err.decode(errors='replace')}")


def import_cli_s(deadline):
    """Fresh interpreter start plus ``import cloaksim.cli``."""
    start = time.perf_counter()
    code, _, err = run_child([sys.executable, "-c", "import cloaksim.cli"],
                             deadline)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise BenchError(f"import cloaksim.cli failed: "
                         f"{err.decode(errors='replace')}")
    return elapsed


def worker_argv(args, setup_only=False):
    argv = [sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--setup-only"] if setup_only else [])


def start_worker(args, setup_only=False):
    """Spawn a worker; returns (process, seconds until it printed READY)."""
    start = time.perf_counter()
    proc = subprocess.Popen(worker_argv(args, setup_only), cwd=ROOT,
                            env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError("worker failed during set-up")
    return proc, ready


def finish_worker(proc, deadline, expect_result=True):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    if not expect_result:
        return None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def setup_sample(args, deadline):
    """One set-up in a fresh interpreter: (reference seconds, seconds).

    The time is divided by the mean slowness of a fresh-interpreter probe
    taken right before and one taken right after it (see ``speed.py``).
    """
    before = speed.start_slowness(child_env())
    if args.workload == "cli_scenarios":
        raw = import_cli_s(deadline)
    else:
        proc, raw = start_worker(args, setup_only=True)
        finish_worker(proc, deadline, expect_result=False)
    after = speed.start_slowness(child_env())
    return raw / ((before + after) / 2), raw


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(text):
    """(cloaksim import seconds, scipy share) from ``-X importtime``.

    Lines come child-first; a line's parent is the next line with a smaller
    indent.  The cloaksim figure sums the top-level ``cloaksim*`` entries;
    the scipy figure sums every ``scipy*`` entry not nested in another one.
    """
    rows = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((int(m.group(2)), len(m.group(3)) // 2, m.group(4)))
    total = scipy_us = 0
    stack = []  # names of the open ancestors, walking parents first
    for cumulative, depth, name in reversed(rows):
        del stack[depth:]
        top = name.split(".")[0]
        if depth == 0 and top == "cloaksim":
            total += cumulative
        if top == "scipy" and not any(a.split(".")[0] == "scipy"
                                      for a in stack):
            scipy_us += cumulative
        stack.append(name)
    return total * 1e-6, scipy_us * 1e-6


def import_breakdown(deadline):
    samples = []
    for _ in range(SETUP_SAMPLES):
        code, _, err = run_child([sys.executable, "-X", "importtime", "-c",
                                  "import cloaksim.cli"], deadline)
        if code != 0:
            raise BenchError("import cloaksim.cli failed")
        samples.append(parse_importtime(err.decode(errors="replace")))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def source_fingerprint():
    digest = hashlib.sha256()
    for path in sorted((SRC / "cloaksim").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run(args):
    deadline = time.monotonic() + RUN_DEADLINE_S
    check_checkout()
    build(deadline)
    metrics = {}
    if args.trace:
        import_s, scipy_s = import_breakdown(deadline)
        metrics["cli.import_s"] = (import_s, "s")
        metrics["cli.import_scipy_s"] = (scipy_s, "s")
        setup = []
        proc, _ = start_worker(args)
        result = finish_worker(proc, deadline)
    else:
        setup = [setup_sample(args, deadline) for _ in range(SETUP_BEFORE)]
        proc, _ = start_worker(args)
        result = finish_worker(proc, deadline)
        setup += [setup_sample(args, deadline)
                  for _ in range(SETUP_SAMPLES - len(setup))]
        metrics["setup_s"] = (statistics.median(s[0] for s in setup), "s")
    metrics.update(result["metrics"])
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in sorted(metrics.items())}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_fingerprint(),
        "python": platform.python_version(),
        "numpy": result["versions"]["numpy"],
        "scipy": result["versions"]["scipy"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pinning": THREAD_PINNING,
        "load": "closed loop, one client, one op at a time",
        "setup_s_samples": [s[0] for s in setup],
        "raw_setup_s_samples": [s[1] for s in setup],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": metrics,
        "detail": result["detail"],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record, path


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one workload of the cloaksim benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record, path = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    detail = record["detail"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['attempted']} ops, {record['failed']} failed; "
          f"record in {path.relative_to(ROOT)}")
    if not args.trace:
        print(f"op_tail_ms is p{detail['op_tail_percentile']:g} of "
              f"{detail['ops']} ops; fail_ratio {detail['fail_ratio']:g}")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
