"""Run the benchmark over a fixed seed list and write BENCH_<pr>.json at the repo root.

    python3 tools/bench_json.py --pr 26

Every run starts from a plain copy of the checkout's files (``git ls-files
-co --exclude-standard``: tracked and untracked, not ignored) in a temporary
directory: stages-full ``wall_s`` has read about 9% slower run from the git
working tree. The copy has no ``.git``, so the file records the checkout's ``git
rev-parse HEAD`` and whether its working tree differed from it (``dirty``).

``bench/run.py`` is run as a black box, one process at a time, for every
workload at ``--trace 0`` and every seed of ``SEEDS``, ``SECONDS`` long each,
and once more at ``--trace 1`` with ``TRACE_SEED``. Seeds, run length and
workloads are constants so that any two BENCH files compare like with like.
The file records, per workload, the median and interquartile range of each
end-to-end metric over the seeds, whether every run was ``correct``, the
failed and attempted counts, and the environment the benchmark printed
(thread settings, core count and library versions). Under
``per_layer`` it records the traced run's per-layer rows as printed (among
them each CLI stage's time, ``cli.<stage>.s``, and peak RSS,
``cli.<stage>.rss_mb``), with that run's ``correct`` and failed count.

Under ``cli_fuse`` it records the default full-scale CLI ``fuse`` (20
iterations; ``simulate`` seed ``FUSE_SEED``, ``degrade`` with ``block:32``
and factor 32) once at each ``--threads`` of ``FUSE_THREADS``: the process's
wall time and, from its manifest, ``timings_s``, ``peak_rss_mb``,
``iterations`` and the last ``rel_changes`` entry.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fuse-full", "tiles-desk", "stages-full")
SEEDS = (1, 2, 3, 4, 5)
TRACE_SEED = SEEDS[0]
SECONDS = 20
FUSE_SEED = 0
FUSE_THREADS = (1, 2, 4)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def copy_checkout(dest: Path) -> Path:
    """Copy the checkout's tracked and untracked, not ignored, files to ``dest``; return it."""
    for name in git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
        if name and (ROOT / name).is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return dest


def run_once(root: Path, workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    """The result object and the environment printed by one benchmark run from ``root``."""
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    """Median and interquartile range (inclusive quartiles) of one metric's runs."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "iqr": q3 - q1, "runs": values}


def workload_summary(root: Path, workload: str) -> dict:
    results, envs = [], []
    for seed in SEEDS:
        result, env = run_once(root, workload, seed)
        results.append(result)
        envs.append(env)
        print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}",
              file=sys.stderr)
    names = results[0]["metrics"]
    traced, _ = run_once(root, workload, TRACE_SEED, trace=1)
    print(f"{workload} traced seed {TRACE_SEED}: correct={traced['correct']} "
          f"failed={traced['failed']}", file=sys.stderr)
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
        "per_layer": {
            "seed": TRACE_SEED,
            "correct": traced["correct"],
            "failed": traced["failed"],
            "metrics": traced["metrics"],
        },
    }


def hsfuse(root: Path, *args: str) -> float:
    """Wall time of one ``python -m hsfuse`` process run from the source under ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    t0 = time.perf_counter()
    # through a shell that forks it: a child spawned straight from this
    # process starts its ru_maxrss at this process's own peak
    subprocess.run(["/bin/sh", "-c", '"$@"; exit $?', "sh", sys.executable, "-m", "hsfuse", *args],
                   env=env, capture_output=True, check=True)
    return time.perf_counter() - t0


def cli_fuse(root: Path) -> dict:
    """The default full-scale CLI ``fuse`` at each ``--threads`` of ``FUSE_THREADS``."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        gt, y, z, x = (str(Path(tmp) / f"{name}.cube") for name in ("gt", "y", "z", "x"))
        hsfuse(root, "simulate", "--seed", str(FUSE_SEED), "--out", gt)
        hsfuse(root, "degrade", "--in", gt, "--blur", "block:32", "--factor", "32",
               "--out-y", y, "--out-z", z)
        for threads in FUSE_THREADS:
            wall = hsfuse(root, "fuse", "--threads", str(threads), "--y", y, "--z", z, "--out", x)
            manifest = json.loads(Path(x + ".manifest.json").read_text())
            runs[str(threads)] = {
                "wall_s": wall,
                "timings_s": manifest["timings_s"],
                "peak_rss_mb": manifest["peak_rss_mb"],
                "iterations": manifest["iterations"],
                "last_rel_change": manifest["rel_changes"][-1],
            }
            print(f"cli fuse --threads {threads}: {wall:.2f} s", file=sys.stderr)
    return {
        "command": f"hsfuse simulate --seed {FUSE_SEED}; degrade --blur block:32 --factor 32; "
                   "fuse --threads <n>",
        "threads": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = copy_checkout(Path(tmp))
        report = {
            "command": f"bench/run.py --seconds {SECONDS} --trace 0 "
                       f"(per_layer: --trace 1 --seed {TRACE_SEED})",
            "git_revision": git("rev-parse", "HEAD").strip(),
            "dirty": bool(git("status", "--porcelain")),
            "workloads": {w: workload_summary(root, w) for w in WORKLOADS},
            "cli_fuse": cli_fuse(root),
        }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
