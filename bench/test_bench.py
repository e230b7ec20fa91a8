"""Self-test of the benchmark: counters repeat, tracing changes no result.

    python3 -m pytest -q bench/test_bench.py

Each workload gets two traced runs with the same seed.  Their
machine-independent counters must be identical, and every traced round
must pass the same output checks as the untraced round it is paired with
and reproduce its numbers exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import speed  # noqa: E402

sys.path.insert(0, str(run.SRC))
import worker  # noqa: E402

MACHINE_INDEPENDENT = ("specfun.ladder_calls", "specfun.ladder_orders",
                       "scaled.ops", "quadrature.passes",
                       "quadrature.integrand_evals",
                       "harmonics.angular_basis_calls", "modal.transfer_calls")


def traced_record(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = run.RESULTS_DIR / f"{workload}-seed{seed}-trace1.json"
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_and_match_untraced(workload):
    first, first_record = traced_record(workload, 11)
    second, second_record = traced_record(workload, 11)
    for result, record in ((first, first_record), (second, second_record)):
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert record["detail"]["traced_outputs_equal_untraced"]
        assert record["detail"]["counts_repeat"]
    for name in MACHINE_INDEPENDENT:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name
    assert (first_record["detail"]["counts_by_round"][0]
            == second_record["detail"]["counts_by_round"][0])


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        70 |        120 |     scipy",
        "import time:        30 |         30 |     scipy.linalg",
        "import time:        40 |        190 |   scipy.interpolate",
        "import time:        10 |        200 | cloaksim",
        "import time:        20 |         20 | cloaksim.cli",
    ])
    total, scipy_s = run.parse_importtime(text)
    assert total == pytest.approx(220e-6)
    assert scipy_s == pytest.approx(190e-6)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert worker.tail_percentile(20) == 50.0
    assert worker.tail_percentile(192) == 90.0
    assert worker.tail_percentile(1000) == 99.0
    assert worker.tail_percentile(19) is None


def test_percentile_is_harrell_davis():
    assert worker.percentile([3.0] * 20, 50.0) == pytest.approx(3.0)
    assert worker.percentile([float(i) for i in range(21)],
                             50.0) == pytest.approx(10.0)
    uniform = [i / 999 for i in range(1000)]
    assert worker.percentile(uniform, 90.0) == pytest.approx(0.9, abs=1e-3)
    # two equal clusters: the estimate lies between them, not at an edge
    clusters = [40.0 + i * 1e-3 for i in range(100)] + [80.0] * 100
    assert 55.0 < worker.percentile(clusters, 50.0) < 65.0


def test_local_slowness_takes_the_median_of_neighbours():
    probes = [1.0, 5.0, 1.2, 1.1, 9.0]
    assert speed.local_slowness(probes, 0) == pytest.approx(3.0)
    assert speed.local_slowness(probes, 2) == pytest.approx(1.2)
    assert speed.local_slowness(probes, 4) == pytest.approx(5.05)
