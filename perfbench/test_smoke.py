"""Smoke tests of the benchmark at tiny sizes, so that it does not rot.

Run from the repository root:  python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "transition.steps",
    "analysis.stop_evals",
    "orientation.steps",
    "scheduler.draw_calls",
    "state.builds",
)


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(workload, trace, seed=5):
    done = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reports_every_listed_metric_and_passes_its_checks(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", ["converge", "orient"])
def test_exact_counts_repeat_across_processes(workload):
    first, second = result(workload, 1), result(workload, 1)
    assert [first["metrics"][c]["value"] for c in EXACT_COUNTS] == [
        second["metrics"][c]["value"] for c in EXACT_COUNTS
    ]


def test_refuses_to_run_without_the_library_source():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(
        "--workload", "orient", "--seed", "1", "--seconds", "1", "--trace", "0",
        root=bare,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
