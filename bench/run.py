"""hsfuse benchmark: three workloads, a correctness gate, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {fuse-full,tiles-desk,stages-full} --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported and run from ``src/`` next to
this directory. With ``--trace 0`` the run measures with tracing off and
reports every end-to-end metric in BENCHMARK.json; with ``--trace 1`` it runs
one untraced and one traced pass of the workload and reports every per-layer
metric. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit, ``error_rate`` and the environment.

All work is a closed loop with one client: the next process starts only
after the previous one has exited. Inputs are generated from the seed before
any timed region; the program sees only the generated files or arrays. On
tiles-desk, index ``seed % 32`` picks the batch of tiles. The full-scale
workloads use one fixed scene whatever the seed: its content sets psnr_db,
which a fixed scene lets repeat exactly. Every input has a fingerprint
recorded from the seed code (``--record-fingerprints`` writes them).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
FINGERPRINTS = BENCH / "fingerprints"

WORKLOADS = ("fuse-full", "tiles-desk", "stages-full")
SCENES = 32
FULL_SCENE = 0
BANDS = 31
FULL_SIZE, FULL_FACTOR = 512, 32
DESK_SIZE, DESK_FACTOR = 64, 4
# Two iterations never reach --tol at full scale, so both do the same work;
# the run length comes from the number of fuse processes instead.
FUSE_ITERS = 2
# The stages workload only needs an x_hat to read; one iteration makes it.
REF_ITERS = 1
ERRORMAP_NM, ERRORMAP_BAND = 540.0, 14
MIN_UNITS = 3
# Nominal seed-code cost of one unit, used to size a run to --seconds while
# keeping the amount of work fixed for a given --seconds.
FUSE_UNIT_S = 10.5
STAGE_ROUND_S = 5.5
TILES_PER_S = 5
TILE_WORKERS = 3
MAX_TILES = 1000
RUN_BUDGET_S = 170.0
# The objective may rise by at most this much per iteration (criteria 4 and 8).
DESCENT_TOL = 1e-9
# x_hat may move by 1e-12 relative; the final objective and the PSNR then move
# by far less than this.
FINGERPRINT_RTOL = 1e-9
# Cubes regenerated by the CLI must match the in-process ones this closely.
ARRAY_RTOL = 1e-12
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "HSFUSE_THREADS",
)


# ---------------------------------------------------------------- processes


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    t_spawn: float
    log: Path


class Launcher:
    """Starts the benchmark's child processes from a small helper process.

    On Linux a child's ``ru_maxrss`` keeps the high-water mark of the memory
    it had before ``exec``, which is its spawner's. Spawning from this helper,
    started before the harness loads numpy or any input, keeps that floor at
    the helper's few MB instead of the harness's hundreds.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "launcher"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list[str], log: Path, env: dict, deadline: float) -> Child:
        request = {"cmd": cmd, "cwd": str(ROOT), "env": env, "log": str(log),
                   "timeout": max(1.0, deadline - time.monotonic())}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        r = json.loads(reply)
        return Child(r["code"], r["wall_s"], r["rss_mb"], r["t_spawn"], log)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def child_env(single_thread: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if single_thread:
        env.update({var: "1" for var in THREAD_VARS})
    return env


def hsfuse_cmd(args: list[str], spans_path: Path | None) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "hsfuse", *args]
    return [sys.executable, str(BENCH / "worker.py"), "cli", "--spans", str(spans_path), "--", *args]


# ---------------------------------------------------------------- checks


def read_cube(path: Path):
    """Independent reader of the HSRC cube container, for output checks."""
    import numpy as np

    blob = path.read_bytes()
    if blob[:4] != b"HSRC":
        raise ValueError(f"{path}: bad magic")
    newline = blob.index(b"\n", 4)
    header = json.loads(blob[4:newline])
    dtype = {"f64": "<f8", "f32": "<f4"}[header["dtype"]]
    shape = (header["bands"], header["height"], header["width"])
    return np.frombuffer(blob, dtype=dtype, offset=newline + 1).reshape(shape).astype(np.float64)


def psnr_db(x, ref) -> float:
    """Mean per-band PSNR for unit peak, capped at 99 dB like the program's report."""
    import numpy as np

    mse = np.mean((x - ref) ** 2, axis=(1, 2))
    with np.errstate(divide="ignore"):
        return float(np.mean(np.minimum(10.0 * np.log10(1.0 / mse), 99.0)))


def arrays_match(a, b) -> bool:
    import numpy as np

    if a.shape != b.shape:
        return False
    return float(np.max(np.abs(a - b))) <= ARRAY_RTOL * max(float(np.max(np.abs(b))), 1e-300)


def descends(trace: list[float]) -> bool:
    return all(b - a <= DESCENT_TOL for a, b in zip(trace, trace[1:]))


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_manifest(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank.

    With ten samples or fewer no percentile has ten beyond it; the maximum is
    reported and its rank given as 100.
    """
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------- one run


@dataclass
class Run:
    """One benchmark run: its settings, scratch directory, deadline and tally."""

    seed: int
    seconds: int
    trace: bool
    record: bool
    dir: Path
    deadline: float
    launcher: Launcher
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    unchecked: int = 0
    notes: list[str] = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)

    @property
    def index(self) -> int:
        return self.seed % SCENES

    def op(self, problems: list[str], what: str) -> bool:
        """Count one operation; it fails if any check listed a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def fingerprint(self, key: str, objective: float, psnr: float, problems: list[str]) -> None:
        if self.record:
            self.fingerprints[key] = [objective, psnr]
            return
        want = self.fingerprints.get(key)
        if want is None:
            self.unchecked += 1
        elif not (close(objective, want[0], FINGERPRINT_RTOL) and close(psnr, want[1], FINGERPRINT_RTOL)):
            problems.append(
                f"fingerprint {key}: objective {objective!r} psnr {psnr!r}, recorded {want[0]!r} {want[1]!r}"
            )

    def child(self, cmd: list[str], name: str, single_thread: bool = False) -> Child:
        return self.launcher.run(cmd, self.dir / f"{name}.log", child_env(single_thread), self.deadline)

    def note_tail(self, tiles: list[float]) -> None:
        if tiles and not self.trace:
            _, rank = tail(tiles)
            self.notes.append(f"tile_s.tail is p{rank:.1f} of {len(tiles)} tile sample(s)")

    def units(self, unit_s: float) -> int:
        if self.record:
            return 1
        return max(MIN_UNITS, round(self.seconds / unit_s))


def block_model(size: int, factor: int):
    """The observation model the workloads degrade with: block blur, default RGB response."""
    import hsfuse

    return hsfuse.DegradationModel(
        hsfuse.BlurOperator.uniform_block(size, size, factor),
        hsfuse.Downsampler(factor),
        hsfuse.SpectralResponse.default_rgb(BANDS),
    )


def naive_prior(y, z, model):
    import hsfuse

    return hsfuse.make_prior(hsfuse.PriorSource.naive_fusion(), y, z, model)


def full_inputs(run: Run):
    """The fixed full-scale scene and its observations, written for the CLI."""
    import hsfuse
    from hsfuse.io import save_cube

    gt = hsfuse.generate_scene(hsfuse.SceneSpec(BANDS, FULL_SIZE, FULL_SIZE, seed=FULL_SCENE))
    model = block_model(FULL_SIZE, FULL_FACTOR)
    y, z = model.degrade(gt)
    save_cube(run.dir / "y.cube", y)
    save_cube(run.dir / "z.cube", z)
    prior_psnr = psnr_db(naive_prior(y, z, model).data, gt.data)
    return gt, y, z, prior_psnr


def check_fuse(run: Run, child: Child, out: Path, gt, prior_psnr: float, iters: int, key: str):
    """Gate one CLI fuse run; returns (problems, manifest, psnr)."""
    problems: list[str] = []
    manifest = load_manifest(Path(str(out) + ".manifest.json"))
    if child.code != 0:
        problems.append(f"exit {child.code} (log {child.log})")
    if manifest is None or manifest.get("error") is not None:
        problems.append(f"manifest error {manifest and manifest.get('error')}")
    if problems:
        return problems, None, float("nan")
    if manifest.get("iterations") != iters:
        problems.append(f"ran {manifest.get('iterations')} iterations, expected {iters}")
    trace = manifest.get("objective_trace", [])
    if not trace or not descends(trace):
        problems.append(f"objective trace {trace} rises by more than {DESCENT_TOL}")
    psnr = psnr_db(read_cube(out), gt.data)
    if not psnr > prior_psnr:
        problems.append(f"psnr {psnr:.4f} dB not above the naive prior's {prior_psnr:.4f} dB")
    if trace:
        run.fingerprint(key, trace[-1], psnr, problems)
    return problems, manifest, psnr


# ---------------------------------------------------------------- fuse-full


def fuse_full(run: Run) -> tuple[dict, dict]:
    gt, _, _, prior_psnr = full_inputs(run)
    args = ["fuse", "--y", str(run.dir / "y.cube"), "--z", str(run.dir / "z.cube"), "--iters", str(FUSE_ITERS)]
    samples: dict[str, list[float]] = {k: [] for k in ("wall", "setup", "iter", "tile", "rss", "psnr")}
    passes = [None, "traced"] if run.trace else [None] * run.units(FUSE_UNIT_S)
    walls, rss, outs, layer = {}, {}, {}, traced_layers([], {})
    for u, mode in enumerate(passes):
        out = run.dir / f"x_{mode or 'plain'}.cube"
        spans_path = run.dir / "fuse.spans.json" if mode else None
        child = run.child(hsfuse_cmd([*args, "--out", str(out)], spans_path), f"fuse{u}")
        problems, manifest, psnr = check_fuse(run, child, out, gt, prior_psnr, FUSE_ITERS, str(FULL_SCENE))
        if run.op(problems, f"fuse process {u}"):
            t = manifest["timings_s"]
            samples["wall"].append(child.wall_s)
            samples["setup"].append(child.wall_s - t["fuse"] - t["save"])
            samples["iter"].append(t["fuse"] / manifest["iterations"])
            samples["tile"].append(t["prior"] + t["fuse"])
            samples["rss"].append(child.rss_mb)
            samples["psnr"].append(psnr)
        walls[mode], rss[mode], outs[mode] = child.wall_s, child.rss_mb, out
        if mode:
            # RSS from the untraced process: tracing adds imports and spans
            layer = traced_layers([spans_path], {"fuse": rss[None]})
    if run.trace:
        compare_outputs(run, [(outs[None], outs["traced"])])
        layer["trace.overhead_s"] = walls["traced"] - walls[None]
    run.note_tail(samples["tile"])
    return end_to_end(samples), layer


# ---------------------------------------------------------------- tiles-desk


def desk_inputs(run: Run, n: int):
    import numpy as np

    import hsfuse

    model = block_model(DESK_SIZE, DESK_FACTOR)
    gts, ys, zs, prior_psnrs, keys = [], [], [], [], []
    for k in range(n):
        scene_seed = run.index * MAX_TILES + k
        gt = hsfuse.generate_scene(hsfuse.SceneSpec(BANDS, DESK_SIZE, DESK_SIZE, seed=scene_seed))
        y, z = model.degrade(gt)
        gts.append(gt.data)
        ys.append(y.data)
        zs.append(z.data)
        prior_psnrs.append(psnr_db(naive_prior(y, z, model).data, gt.data))
        keys.append(str(scene_seed))
    return np.stack(gts), np.stack(ys), np.stack(zs), prior_psnrs, keys


def tiles_desk(run: Run) -> tuple[dict, dict]:
    import numpy as np

    # at least 11 tiles per worker, so the tail always has ten samples beyond it
    n = min(MAX_TILES, max(TILE_WORKERS * 11, TILES_PER_S * run.seconds))
    gts, ys, zs, prior_psnrs, keys = desk_inputs(run, n)
    if run.record:
        chunks = [np.arange(n)]
    else:
        chunks = np.array_split(np.arange(n), TILE_WORKERS)
    if run.trace:
        # one pass is one worker's share of the tiles, untraced then traced
        passes = [(chunks[0], None), (chunks[0], "traced")]
    else:
        passes = [(c, None) for c in chunks]
    samples: dict[str, list[float]] = {k: [] for k in ("wall", "setup", "rss", "tile", "tile_each")}
    fuse_s, iterations, psnrs = 0.0, 0, {}
    walls, outs, layer = {}, {}, traced_layers([], {})
    for w, (idx, mode) in enumerate(passes):
        tag = f"tiles{w}"
        inputs = run.dir / f"{tag}.npz"
        np.savez(inputs, y=ys[idx], z=zs[idx], size=DESK_SIZE, factor=DESK_FACTOR)
        out, log = run.dir / f"{tag}.raw", run.dir / f"{tag}.jsonl"
        cmd = [sys.executable, str(BENCH / "worker.py"), "tiles", "--inputs", str(inputs), "--out", str(out), "--log", str(log)]
        spans_path = run.dir / f"{tag}.spans.json" if mode else None
        if spans_path:
            cmd += ["--spans", str(spans_path)]
        child = run.child(cmd, tag, single_thread=True)
        walls[mode], outs[mode] = child.wall_s, out
        records = [json.loads(line) for line in log.read_text().splitlines()] if log.exists() else []
        if child.code != 0 or len(records) != len(idx):
            run.op([f"worker exit {child.code}, {len(records)} of {len(idx)} tiles (log {child.log})"], tag)
            continue
        x_hats = np.fromfile(out, dtype="<f8").reshape((len(idx), BANDS, DESK_SIZE, DESK_SIZE))
        tile_times = []
        for i, rec, x_hat in zip(idx, records, x_hats):
            problems: list[str] = []
            if not descends(rec["objective"]):
                problems.append(f"objective trace {rec['objective']} rises by more than {DESCENT_TOL}")
            psnr = psnr_db(x_hat, gts[i])
            if not psnr > prior_psnrs[i]:
                problems.append(f"psnr {psnr:.4f} dB not above the naive prior's {prior_psnrs[i]:.4f} dB")
            run.fingerprint(keys[i], rec["objective"][-1], psnr, problems)
            if run.op(problems, f"tile {keys[i]}") and not mode:
                tile_times.append(rec["t1"] - rec["t0"])
                fuse_s += rec["t1"] - rec["t_fuse"]
                iterations += rec["iterations"]
                psnrs[keys[i]] = psnr
        if tile_times:
            samples["tile"].append(statistics.fmean(tile_times))
            samples["tile_each"].extend(tile_times)
        samples["wall"].append(child.wall_s)
        samples["setup"].append(records[0]["t_fuse"] - child.t_spawn)
        samples["rss"].append(child.rss_mb)
        if mode:
            layer = traced_layers([spans_path], {})
    if run.trace:
        compare_outputs(run, [(outs[None], outs["traced"])])
        layer["trace.overhead_s"] = walls["traced"] - walls[None]
        return {}, layer
    samples["iter"] = [fuse_s / iterations] if iterations else []
    samples["psnr"] = [statistics.fmean(psnrs.values())] if psnrs else []
    run.note_tail(samples["tile_each"])
    run.notes.append(f"{iterations} HQS iterations over {len(psnrs)} tiles")
    return end_to_end(samples), layer


# ---------------------------------------------------------------- stages-full


def stages_full(run: Run) -> tuple[dict, dict]:
    import numpy as np

    gt, y, z, prior_psnr = full_inputs(run)
    # the fixed reference fuse whose x_hat the evaluate and errormap stages read
    xref = run.dir / "xref.cube"
    child = run.child(
        hsfuse_cmd(["fuse", "--y", str(run.dir / "y.cube"), "--z", str(run.dir / "z.cube"),
                    "--iters", str(REF_ITERS), "--out", str(xref)], None),
        "reference-fuse",
    )
    problems, manifest, ref_psnr = check_fuse(run, child, xref, gt, prior_psnr, REF_ITERS, str(FULL_SCENE))
    if not run.op(problems, "reference fuse"):
        return end_to_end({}), traced_layers([], {})
    t = manifest["timings_s"]
    ref_iter = t["fuse"] / manifest["iterations"]
    ref_tile = t["prior"] + t["fuse"]
    err = np.abs(read_cube(xref)[ERRORMAP_BAND] - gt.data[ERRORMAP_BAND]) * (255.0 / 0.1)
    expected_pgm = np.clip(np.floor(err + 0.5), 0.0, 255.0)
    pgm_header = b"P5\n%d %d\n255\n" % (FULL_SIZE, FULL_SIZE)

    def check_stage(stage: str, child: Child, d: Path) -> list[str]:
        problems = [] if child.code == 0 else [f"exit {child.code} (log {child.log})"]
        primary = {"simulate": "gt.cube", "degrade": "y.cube", "evaluate": "report.json", "errormap": "err.pgm"}
        m = load_manifest(d / f"{primary[stage]}.manifest.json")
        if m is None or m.get("error") is not None:
            return problems + [f"manifest error {m and m.get('error')}"]
        if stage == "simulate" and not arrays_match(read_cube(d / "gt.cube"), gt.data):
            problems.append("simulated scene differs from the seeded scene")
        elif stage == "degrade" and not (
            arrays_match(read_cube(d / "y.cube"), y.data) and arrays_match(read_cube(d / "z.cube"), z.data)
        ):
            problems.append("degraded observations differ from the model's")
        elif stage == "evaluate":
            reported = json.loads((d / "report.json").read_text())["psnr"]
            if not close(reported, ref_psnr, FINGERPRINT_RTOL):
                problems.append(f"reported psnr {reported!r}, expected {ref_psnr!r}")
        elif stage == "errormap":
            blob = (d / "err.pgm").read_bytes()
            pixels = np.frombuffer(blob[len(pgm_header):], dtype=np.uint8)
            if not blob.startswith(pgm_header) or pixels.size != expected_pgm.size or (
                np.max(np.abs(pixels.astype(float) - expected_pgm.ravel())) > 1
            ):
                problems.append("error map differs from |x_hat - gt| of band 15")
            if m.get("band") != ERRORMAP_BAND + 1:
                problems.append(f"errormap picked band {m.get('band')}, expected {ERRORMAP_BAND + 1}")
        return problems

    def timings(d: Path, primary: str) -> float:
        return sum(load_manifest(d / f"{primary}.manifest.json")["timings_s"].values())

    samples: dict[str, list[float]] = {k: [] for k in ("wall", "setup", "rss")}
    passes = [None, "traced"] if run.trace else [None] * run.units(STAGE_ROUND_S)
    walls, rss, dirs, layer = {}, {}, {}, traced_layers([], {})
    for r, mode in enumerate(passes):
        d = run.dir / f"round{r}"
        d.mkdir()
        stage_args = {
            "simulate": ["simulate", "--bands", str(BANDS), "--size", str(FULL_SIZE),
                         "--seed", str(FULL_SCENE), "--out", str(d / "gt.cube")],
            "degrade": ["degrade", "--in", str(d / "gt.cube"), "--blur", f"block:{FULL_FACTOR}",
                        "--factor", str(FULL_FACTOR), "--out-y", str(d / "y.cube"), "--out-z", str(d / "z.cube")],
            "evaluate": ["evaluate", "--x-hat", str(xref), "--ref", str(d / "gt.cube"),
                         "--factor", str(FULL_FACTOR), "--json", str(d / "report.json")],
            "errormap": ["errormap", "--x-hat", str(xref), "--ref", str(d / "gt.cube"),
                         "--wavelength", str(ERRORMAP_NM), "--out", str(d / "err.pgm")],
        }
        children, spans_paths, round_ok = {}, [], True
        for stage, a in stage_args.items():
            spans_path = d / f"{stage}.spans.json" if mode else None
            child = run.child(hsfuse_cmd(a, spans_path), f"round{r}-{stage}")
            children[stage] = child
            spans_paths.append(spans_path)
            round_ok &= run.op(check_stage(stage, child, d), f"round {r} {stage}")
        walls[mode], dirs[mode] = sum(c.wall_s for c in children.values()), d
        rss[mode] = {s: c.rss_mb for s, c in children.items()}
        if not round_ok:
            continue
        samples["wall"].append(walls[mode])
        samples["setup"].append(children["simulate"].wall_s - timings(d, "gt.cube"))
        samples["rss"].append(max(rss[mode].values()))
        if mode:
            # RSS from the untraced round: tracing adds imports and spans
            layer = traced_layers(spans_paths, rss[None])
    if run.trace:
        names = ("gt.cube", "y.cube", "z.cube", "report.json", "err.pgm")
        compare_outputs(run, [(dirs[None] / f, dirs["traced"] / f) for f in names])
        layer["trace.overhead_s"] = walls["traced"] - walls[None]
    # every workload reports every metric; here these four come from the one
    # reference fuse, so a solver change moves them and nothing else
    samples.update(iter=[ref_iter], tile=[ref_tile], psnr=[ref_psnr])
    run.note_tail(samples["tile"])
    return end_to_end(samples), layer


# ---------------------------------------------------------------- metrics


def compare_outputs(run: Run, pairs: list[tuple[Path, Path]]) -> None:
    """Tracing must leave every output byte unchanged."""
    problems = [f"{b.name} differs from the untraced {a.name}" for a, b in pairs
                if not (a.exists() and b.exists() and sha256(a) == sha256(b))]
    run.op(problems, "traced outputs equal untraced outputs")


def traced_layers(spans_paths: list[Path], stage_rss: dict[str, float]) -> dict:
    import spans

    merged: list[dict] = []
    for path in spans_paths:
        if path is None or not path.exists():
            continue
        offset = len(merged)
        for s in json.loads(path.read_text()):
            s["id"] += offset
            if s["parent"] is not None:
                s["parent"] += offset
            merged.append(s)
    layer = spans.layer_metrics(merged)
    layer["trace.overhead_s"] = 0.0
    for stage in ("simulate", "degrade", "fuse", "evaluate", "errormap"):
        layer[f"cli.{stage}.rss_mb"] = stage_rss.get(stage, 0.0)
    return layer


def end_to_end(samples: dict[str, list[float]]) -> dict:
    def med(key: str) -> float:
        return statistics.median(samples[key]) if samples.get(key) else 0.0

    # with one tile per unit (full scale) every tile sample is a unit mean
    each = samples.get("tile_each") or samples.get("tile") or [0.0]
    return {
        "wall_s": med("wall"),
        "setup_s": med("setup"),
        "fuse_iter_s": med("iter"),
        "tile_s": med("tile"),
        "tile_s.tail": tail(each)[0],
        "peak_rss_mb": med("rss"),
        "psnr_db": med("psnr"),
    }


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = child_env(single_thread=workload == "tiles-desk")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: threads.get(var) for var in THREAD_VARS},
        "git_revision": git_revision(),
        "cache": "warm: the benchmark neither pins the CPU frequency nor drops the page cache",
    }


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="run one pass and store its fingerprints instead of checking them")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "hsfuse" / "__init__.py").is_file():
        print(f"error: no hsfuse sources under {SRC}", file=sys.stderr)
        return 2
    launcher = Launcher()
    try:
        return measure(args, launcher)
    finally:
        launcher.close()


def measure(args: argparse.Namespace, launcher: Launcher) -> int:
    sys.path.insert(0, str(SRC))
    import hsfuse

    if Path(hsfuse.__file__).resolve().parent != SRC / "hsfuse":
        print(f"error: imported hsfuse from {hsfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    fp_path = FINGERPRINTS / f"{args.workload}.json"
    run = Run(args.seed, args.seconds, bool(args.trace), args.record_fingerprints,
              run_dir, time.monotonic() + RUN_BUDGET_S, launcher)
    if fp_path.exists():
        run.fingerprints = json.loads(fp_path.read_text())
    try:
        e2e, layer = {"fuse-full": fuse_full, "tiles-desk": tiles_desk, "stages-full": stages_full}[
            args.workload](run)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.record_fingerprints:
        FINGERPRINTS.mkdir(exist_ok=True)
        rows = (f"{json.dumps(k)}: {json.dumps(run.fingerprints[k])}" for k in sorted(run.fingerprints, key=int))
        fp_path.write_text("{\n" + ",\n".join(rows) + "\n}\n")

    metrics, units = (layer, layer_units) if args.trace else (e2e, e2e_units)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    for note in run.notes:
        print(f"note: {note}")
    if run.unchecked:
        print(f"note: {run.unchecked} result(s) have no recorded fingerprint")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"error_rate = {run.failed / max(run.attempted, 1):.6g} ({run.failed} of {run.attempted} operations)")
    print("env " + json.dumps(environment(args.workload), sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
