"""Child processes of the benchmark: a desk tile batch, a traced CLI run, the launcher.

    python3 bench/worker.py tiles --inputs T.npz --out X.raw --log L.jsonl [--spans S.json]
    python3 bench/worker.py cli --spans S.json -- <hsfuse arguments>
    python3 bench/worker.py launcher

``tiles`` fuses each tile of T.npz (arrays ``y`` and ``z``, one tile per
leading index) with ``make_prior`` + ``fuse`` and the default ``HqsConfig``,
appends every ``x_hat`` to X.raw as float64 bytes, and writes one JSON line
per tile to L.jsonl. Thread counts come from the environment the parent
sets, which takes effect because nothing here imports numpy before that.

``cli`` runs ``hsfuse.cli.main`` in this process with the span recorder
installed. With ``--spans`` either mode writes its spans there at the end.

``launcher`` starts the other children for ``run.py`` and reports each one's
exit code, wall time and peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def run_tiles(args: argparse.Namespace) -> int:
    import numpy as np

    import hsfuse

    inputs = np.load(args.inputs)
    ys, zs = inputs["y"], inputs["z"]
    size, factor = int(inputs["size"]), int(inputs["factor"])
    model = hsfuse.DegradationModel(
        hsfuse.BlurOperator.uniform_block(size, size, factor),
        hsfuse.Downsampler(factor),
        hsfuse.SpectralResponse.default_rgb(ys.shape[1]),
    )
    cfg = hsfuse.HqsConfig()
    with open(args.out, "wb") as xf, open(args.log, "w") as lf:
        for i in range(ys.shape[0]):
            y, z = hsfuse.HsiCube(ys[i]), hsfuse.HsiCube(zs[i])
            t0 = time.monotonic()
            prior = hsfuse.make_prior(hsfuse.PriorSource.naive_fusion(), y, z, model)
            t_fuse = time.monotonic()
            result = hsfuse.fuse(y, z, model, prior, cfg)
            t1 = time.monotonic()
            xf.write(np.ascontiguousarray(result.x_hat.data, dtype="<f8").tobytes())
            record = {
                "t0": t0,
                "t_fuse": t_fuse,
                "t1": t1,
                "iterations": result.iterations,
                "objective": list(result.objective_trace),
            }
            lf.write(json.dumps(record) + "\n")
    return 0


def run_cli(args: argparse.Namespace) -> int:
    from hsfuse.cli import main

    return main(args.argv)


def run_launcher(args: argparse.Namespace) -> int:
    """Serve spawn requests, one JSON line each on stdin, until stdin closes.

    Each child runs to completion (or until killed at its timeout) before the
    reply, so the caller's loop stays closed. Peak RSS comes from the child's
    own ``wait4`` record, never from ``RUSAGE_CHILDREN``, which keeps the
    maximum over every child ever waited on.
    """
    for line in sys.stdin:
        req = json.loads(line)
        t_spawn = time.monotonic()
        with open(req["log"], "wb") as fh:
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                    stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t_spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        reply = {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss * 1024 / 1e6,
                 "t_spawn": t_spawn}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("tiles")
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--spans", default=None)
    p.set_defaults(func=run_tiles)
    p = sub.add_parser("cli")
    p.add_argument("--spans", default=None)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=run_cli)
    p = sub.add_parser("launcher")
    p.set_defaults(func=run_launcher, spans=None)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]

    if args.spans is None:
        return args.func(args)
    recorder = spans.Recorder()
    with spans.installed(recorder):
        code = args.func(args)
    recorder.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
