"""Run the benchmark over a fixed seed list and write BENCH_<pr>.json at the repo root.

    python3 tools/bench_json.py --pr 25

``bench/run.py`` is run as a black box, one process at a time, for every
workload at ``--trace 0`` and every seed of ``SEEDS``, ``SECONDS`` long each.
Seeds, run length and workloads are constants so that any two BENCH files
compare like with like. The file records, per workload, the median and
interquartile range of each end-to-end metric over the seeds, whether every
run was ``correct``, the failed and attempted counts, and the environment the
benchmark printed (thread settings, core count, library versions and git
revision).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
WORKLOADS = ("fuse-full", "tiles-desk", "stages-full")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 20


def run_once(workload: str, seed: int) -> tuple[dict, dict]:
    """The result object and the environment printed by one benchmark run."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    """Median and interquartile range (inclusive quartiles) of one metric's runs."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "iqr": q3 - q1, "runs": values}


def workload_summary(workload: str) -> dict:
    results, envs = [], []
    for seed in SEEDS:
        result, env = run_once(workload, seed)
        results.append(result)
        envs.append(env)
        print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}",
              file=sys.stderr)
    names = results[0]["metrics"]
    return {
        "seeds": list(SEEDS),
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "metrics": {
            name: {"unit": names[name]["unit"],
                   **summarize([r["metrics"][name]["value"] for r in results])}
            for name in names
        },
        "environment": envs[0],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    args = parser.parse_args(argv)
    report = {
        "command": f"bench/run.py --seconds {SECONDS} --trace 0",
        "workloads": {w: workload_summary(w) for w in WORKLOADS},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
