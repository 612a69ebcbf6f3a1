"""Print every metric with its unit, and failed_frac, for each workload.

Runs ``run.py`` once per workload, each in a fresh process, and prints one
table.  Usage (from the repository root):

    python3 perfbench/report.py [--seed 1] [--trace 0|1]

Each run measures for ``run_seconds`` of ``BENCHMARK.json``.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    results = {}
    for workload in workloads:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[workload] = json.loads(done.stdout.splitlines()[-1])

    rows = {}
    for workload, res in results.items():
        for name, metric in res["metrics"].items():
            rows.setdefault((name, metric["unit"]), {})[workload] = metric["value"]
        rows.setdefault(("failed_frac", "ratio"), {})[workload] = res["failed"] / res["attempted"]
    print(f"{'metric':26} {'unit':6}" + "".join(f"{w:>14}" for w in workloads))
    for (name, unit), values in rows.items():
        print(f"{name:26} {unit:6}" + "".join(f"{values[w]:>14.6g}" for w in workloads))
    return 0 if all(res["correct"] for res in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
