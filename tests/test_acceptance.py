"""Numbered acceptance gate for the toolkit.

Each check ends with one `[criterion N] <name>: PASS|FAIL (<measurements>)`
line on stdout (visible with pytest -s, or in the captured output of a
failure) and then asserts the same verdict, so the printed line and the
pytest result always agree. Tolerances and runtime budgets are pinned as
constants inside each test.

The oracles here are rebuilt from scratch on purpose: dense matrices come
from unit impulses and Kronecker products, never from the library's own
FFT paths.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import hsfuse
from helpers import rand_cube, random_srf_matrix, relative_gap, solve_cg, vstep_gradient
from hsfuse.cube import HsiCube
from hsfuse.degradation import (
    BlurOperator,
    DegradationModel,
    Downsampler,
    SpectralResponse,
)
from hsfuse.gradients import (
    LaplacianOperator,
    spectral_diff_adjoint_array,
    spectral_diff_apply_array,
)
from hsfuse.hqs import HqsConfig, fuse
from hsfuse.io import band_index_for_wavelength
from hsfuse.metrics import evaluate
from hsfuse.priors import PriorSource, make_prior
from hsfuse.scenes import SceneSpec, generate_scene
from hsfuse.sylvester import build_system, solve_fast, sylvester_residual
from hsfuse.vstep import vstep


def _report(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def dense_sylvester_solve(system):
    """(bands*pixels) x (bands*pixels) dense solve built from impulses."""
    bands = system.bands
    h, w = system.c3.height, system.c3.width
    n = h * w
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(system.normal_apply_array(e.reshape(h, w)).ravel())
    c2 = np.stack(cols, axis=1)
    big = np.kron(system.c1, np.eye(n)) + np.kron(np.eye(bands), c2)
    x = np.linalg.solve(big, system.c3.data.ravel())
    return HsiCube(x.reshape(bands, h, w))


def dense_denoise_minimizer(x_next, prior, lap, mu_p, nu_p):
    """Minimize ||v-x||^2 + mu_p ||D(v-p)||^2 + nu_p ||E(v-p)||^2 densely."""
    bands, h, w = x_next.data.shape
    n = h * w
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(lap.apply_array(e.reshape(h, w)).ravel())
    d_small = np.stack(cols, axis=1)
    d_full = np.kron(np.eye(bands), d_small)
    if bands > 1:
        e0 = np.zeros((bands - 1, bands))
        for i in range(bands - 1):
            e0[i, i] = -1.0
            e0[i, i + 1] = 1.0
        e_full = np.kron(e0, np.eye(n))
    else:
        e_full = np.zeros((0, bands * n))
    reg = mu_p * d_full.T @ d_full + nu_p * e_full.T @ e_full
    a = np.eye(bands * n) + reg
    rhs = x_next.data.ravel() + reg @ prior.data.ravel()
    return np.linalg.solve(a, rhs).reshape(bands, h, w)


def desk_model():
    blur = BlurOperator.uniform_block(64, 64, 4)
    return DegradationModel(
        blur=blur, down=Downsampler(4), srf=SpectralResponse.default_rgb(31)
    )


@pytest.fixture(scope="module")
def desk_runs():
    """Five seeded 31x64x64 s=4 fusions shared by the descent and quality
    checks; elapsed covers scene synthesis through the final iterate."""
    runs = []
    for seed in range(5):
        t0 = time.perf_counter()
        gt = generate_scene(
            SceneSpec(bands=31, height=64, width=64, endmembers=5, smoothness=4.0, seed=seed)
        )
        model = desk_model()
        y, z = model.degrade(gt)
        prior = make_prior(PriorSource(kind="naive_fusion"), y=y, z=z, model=model)
        result = fuse(y=y, z=z, model=model, prior=prior, cfg=HqsConfig())
        runs.append(
            {
                "seed": seed,
                "gt": gt,
                "model": model,
                "y": y,
                "z": z,
                "prior": prior,
                "result": result,
                "elapsed": time.perf_counter() - t0,
            }
        )
    return runs


def test_criterion_1_operator_adjoints(rng):
    t0 = time.perf_counter()
    h, w, bands = 16, 16, 8
    blurs = [
        BlurOperator.uniform_block(h, w, 2),
        BlurOperator.uniform_block(h, w, 4),
        BlurOperator.gaussian(h, w, 1.1, support=7),
        BlurOperator.custom(h, w, rng.uniform(0.05, 1.0, (5, 5))),
    ]
    downs = [Downsampler(2), Downsampler(4), Downsampler(2, phase=(1, 1))]
    srfs = [
        SpectralResponse.default_rgb(bands),
        SpectralResponse(random_srf_matrix(rng, bands, 3)),
    ]
    lap = LaplacianOperator.create(h, w)
    tiny = float(np.finfo(np.float64).tiny)

    def gap(fwd, adj, in_shape, out_shape):
        x = rng.standard_normal(in_shape)
        u = rng.standard_normal(out_shape)
        lhs = float(np.sum(fwd(x) * u))
        rhs = float(np.sum(x * adj(u)))
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), tiny)

    worst = {"B": 0.0, "S": 0.0, "R": 0.0, "BS": 0.0, "D": 0.0, "E": 0.0}
    draws = 100
    for i in range(draws):
        b = blurs[i % len(blurs)]
        worst["B"] = max(worst["B"], gap(b.apply_array, b.adjoint_array, (h, w), (h, w)))
        d = downs[i % len(downs)]
        lo = (h // d.factor, w // d.factor)
        worst["S"] = max(worst["S"], gap(d.apply_array, d.adjoint_array, (h, w), lo))
        r = srfs[i % len(srfs)]
        worst["R"] = max(
            worst["R"],
            gap(r.apply_array, r.adjoint_array, (bands, h, w), (r.out_bands, h, w)),
        )
        s2 = (downs[0], downs[2])[i % 2]  # factor 2 variants, fixed composed grid
        worst["BS"] = max(
            worst["BS"],
            gap(
                lambda x: s2.apply_array(b.apply_array(x)),
                lambda u: b.adjoint_array(s2.adjoint_array(u)),
                (h, w),
                (h // 2, w // 2),
            ),
        )
        # the stencil operator is self-adjoint, so it is its own transpose
        worst["D"] = max(worst["D"], gap(lap.apply_array, lap.apply_array, (h, w), (h, w)))
        worst["E"] = max(
            worst["E"],
            gap(
                spectral_diff_apply_array,
                spectral_diff_adjoint_array,
                (bands, h, w),
                (bands - 1, h, w),
            ),
        )
    elapsed = time.perf_counter() - t0
    worst_overall = max(worst.values())
    ok = worst_overall <= 1e-10 and elapsed < 10.0
    _report(
        1,
        "operator adjoints",
        ok,
        f"{draws} draws per operator, worst gap {worst_overall:.2e} "
        f"(per op {', '.join(f'{k}={v:.1e}' for k, v in worst.items())}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_sylvester_oracle_triangle(rng):
    t0 = time.perf_counter()
    grids = [(4, 4), (6, 6), (8, 8), (6, 8)]
    worst_pair = 0.0
    worst_resid = 0.0
    systems = 24
    for i in range(systems):
        bands = (2, 3, 4)[i % 3]
        s = (1, 2)[i % 2]
        h, w = grids[i % 4]
        kind = ("block", "gauss", "custom")[i % 3]
        if kind == "block":
            blur = BlurOperator.uniform_block(h, w, max(s, 2))
        elif kind == "gauss":
            blur = BlurOperator.gaussian(h, w, 0.7, support=3)
        else:
            blur = BlurOperator.custom(h, w, rng.uniform(0.05, 1.0, (3, 3)))
        srf = SpectralResponse(random_srf_matrix(rng, bands, max(1, bands - 1)))
        model = DegradationModel(blur=blur, down=Downsampler(s), srf=srf)
        gt = rand_cube(rng, bands, h, w, lo=0.1, hi=1.0)
        y, z = model.degrade(gt)
        v = rand_cube(rng, bands, h, w)
        rho = float(10.0 ** rng.uniform(-4, -1))
        system = build_system(model, y, z, v, rho)
        fast = solve_fast(system)
        cg = solve_cg(system, tol=1e-12, max_iter=20000)
        assert cg.converged, f"CG stalled on system {i}"
        dense = dense_sylvester_solve(system)
        for a, b in ((fast, cg.x), (fast, dense), (cg.x, dense)):
            worst_pair = max(worst_pair, relative_gap(a.data, b.data))
        worst_resid = max(worst_resid, sylvester_residual(system, fast))
    elapsed = time.perf_counter() - t0
    ok = systems >= 20 and worst_pair <= 1e-7 and worst_resid <= 1e-8 and elapsed < 30.0
    _report(
        2,
        "x-step oracle triangle",
        ok,
        f"{systems} systems, worst pairwise gap {worst_pair:.2e}, "
        f"worst fast residual {worst_resid:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_denoising_step_exactness(rng):
    t0 = time.perf_counter()
    geoms = [(4, 4), (5, 5), (6, 6), (4, 6), (6, 5), (3, 6)]
    worst_gap = 0.0
    worst_grad = 0.0
    instances = 24
    for i in range(instances):
        bands = 1 + i % 5
        h, w = geoms[i % 6]
        lap = LaplacianOperator.create(h, w)
        x = rand_cube(rng, bands, h, w)
        p = rand_cube(rng, bands, h, w)
        mu_p = float(10.0 ** rng.uniform(-3, 1))
        nu_p = float(10.0 ** rng.uniform(-4, 0))
        v = vstep(x, p, lap, mu_p, nu_p)
        want = dense_denoise_minimizer(x, p, lap, mu_p, nu_p)
        worst_gap = max(worst_gap, relative_gap(v.data, want))
        rho = 0.7
        g = vstep_gradient(v, x, p, lap, rho, mu_p * rho, nu_p * rho)
        scale = max(1.0, x.norm(), p.norm())
        worst_grad = max(worst_grad, g.norm() / scale)
    elapsed = time.perf_counter() - t0
    ok = (
        instances >= 20
        and worst_gap <= 1e-8
        and worst_grad <= 1e-8
        and elapsed < 10.0
    )
    _report(
        3,
        "v-step exactness",
        ok,
        f"{instances} instances, worst oracle gap {worst_gap:.2e}, "
        f"worst scaled gradient {worst_grad:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_objective_descent(desk_runs):
    worst_rise = -np.inf
    for run in desk_runs:
        tr = np.asarray(run["result"].objective_trace)
        rise = float(np.max(np.diff(tr))) if tr.size > 1 else 0.0
        worst_rise = max(worst_rise, rise)
    elapsed = desk_runs[0]["elapsed"]
    ok = worst_rise <= 1e-9 and elapsed < 60.0
    _report(
        4,
        "objective descent",
        ok,
        f"worst per-iteration rise {worst_rise:.2e} over {len(desk_runs)} runs, "
        f"seed-0 runtime {elapsed:.2f}s",
    )


def test_criterion_5_fusion_beats_prior(desk_runs):
    margins = []
    rmse_ok = True
    for run in desk_runs:
        rp = evaluate(run["prior"], run["gt"], factor=4)
        rf = evaluate(run["result"].x_hat, run["gt"], factor=4)
        margins.append(rf.psnr - rp.psnr)
        rmse_ok = rmse_ok and rf.rmse <= rp.rmse
    ok = len(margins) >= 5 and min(margins) >= 1.0 and rmse_ok
    _report(
        5,
        "fusion beats the prior",
        ok,
        f"psnr margins over {len(margins)} seeds: min {min(margins):.2f} dB, "
        f"max {max(margins):.2f} dB; rmse never worse: {rmse_ok}",
    )


def test_criterion_6_data_residuals_not_worse(desk_runs):
    def rel(est, obs):
        return float(np.linalg.norm(est.data - obs.data) / np.linalg.norm(obs.data))

    ok = True
    details = []
    for run in desk_runs:
        model = run["model"]
        yp, zp = model.degrade(run["prior"])
        yf, zf = model.degrade(run["result"].x_hat)
        ry_p, ry_f = rel(yp, run["y"]), rel(yf, run["y"])
        rz_p, rz_f = rel(zp, run["z"]), rel(zf, run["z"])
        ok = ok and ry_f <= ry_p and rz_f <= rz_p
        details.append(
            f"seed {run['seed']}: y {ry_p:.2e}->{ry_f:.2e}, z {rz_p:.2e}->{rz_f:.2e}"
        )
    _report(6, "data residuals not worse", ok, "; ".join(details))


def test_criterion_7_metric_self_consistency(desk_runs):
    gt = desk_runs[0]["gt"]
    ident = evaluate(gt, gt, factor=4)
    ident_ok = (ident.rmse, ident.psnr, ident.sam, ident.ergas, ident.ssim) == (
        0.0,
        99.0,
        0.0,
        0.0,
        1.0,
    )
    fused = desk_runs[0]["result"].x_hat
    base_sam = evaluate(fused, gt, factor=4).sam
    scaled_sam = evaluate(HsiCube(fused.data * 2.0), gt, factor=4).sam
    sam_ok = scaled_sam == base_sam
    noise_rng = np.random.default_rng(2026)
    sigma = 0.02
    noisy = HsiCube(gt.data + noise_rng.normal(0.0, sigma, gt.data.shape))
    rmse = evaluate(noisy, gt, factor=4).rmse
    calib_gap = abs(rmse - 255.0 * sigma) / (255.0 * sigma)
    calib_ok = calib_gap <= 0.02
    ok = ident_ok and sam_ok and calib_ok
    _report(
        7,
        "metric self-consistency",
        ok,
        f"identity exact: {ident_ok}; doubled-input sam bitwise equal: {sam_ok}; "
        f"rmse calibration gap {calib_gap:.4f} vs 2% budget",
    )


def test_criterion_8_full_scale_pipeline(tmp_path):
    from hsfuse.cli import main

    gt = str(tmp_path / "gt.cube")
    ylr = str(tmp_path / "y.cube")
    zrgb = str(tmp_path / "z.cube")
    xhat = str(tmp_path / "xhat.cube")
    csv = str(tmp_path / "report.csv")
    pgm = str(tmp_path / "err540.pgm")

    t0 = time.perf_counter()
    steps = [
        ("simulate", ["simulate", "--bands", "31", "--size", "512", "--seed", "0", "--out", gt]),
        ("degrade", ["degrade", "--in", gt, "--blur", "block:32", "--factor", "32",
                     "--out-y", ylr, "--out-z", zrgb]),
        ("fuse", ["fuse", "--y", ylr, "--z", zrgb, "--out", xhat]),
        ("evaluate", ["evaluate", "--x-hat", xhat, "--ref", gt, "--factor", "32", "--csv", csv]),
        ("errormap", ["errormap", "--x-hat", xhat, "--ref", gt, "--wavelength", "540", "--out", pgm]),
    ]
    for name, argv in steps:
        rc = main(argv)
        if rc != 0:
            _report(8, "full-scale pipeline", False, f"{name} exited {rc}")
    elapsed = time.perf_counter() - t0

    man = json.loads((tmp_path / "xhat.cube.manifest.json").read_text())
    trace = np.asarray(man["objective_trace"])
    manifest_ok = (
        man["error"] is None
        and man["command"] == "fuse"
        and man["iterations"] >= 1
        and (trace.size < 2 or float(np.max(np.diff(trace))) <= 1e-9)
    )
    pgm_bytes = (tmp_path / "err540.pgm").read_bytes()
    head = b"P5\n512 512\n255\n"
    pgm_ok = pgm_bytes.startswith(head) and len(pgm_bytes) == len(head) + 512 * 512
    emap_man = json.loads((tmp_path / "err540.pgm.manifest.json").read_text())
    band_ok = emap_man["band"] == band_index_for_wavelength(540.0, 31) + 1
    ok = elapsed < 600.0 and manifest_ok and pgm_ok and band_ok
    _report(
        8,
        "full-scale pipeline",
        ok,
        f"{elapsed:.0f}s for 31x512x512 at factor 32; manifest valid: {manifest_ok}; "
        f"540nm graymap valid: {pgm_ok and band_ok} (band {emap_man['band']})",
    )


def test_criterion_9_bit_reproducibility(tmp_path):
    commands = [
        ["simulate", "--threads", "1", "--bands", "31", "--size", "64", "--seed", "0",
         "--out", "gt.cube"],
        ["degrade", "--threads", "1", "--in", "gt.cube", "--blur", "block:4",
         "--factor", "4", "--out-y", "y.cube", "--out-z", "z.cube"],
        ["fuse", "--threads", "1", "--y", "y.cube", "--z", "z.cube", "--out", "xhat.cube"],
        ["evaluate", "--threads", "1", "--x-hat", "xhat.cube", "--ref", "gt.cube",
         "--factor", "4", "--csv", "report.csv"],
    ]

    # The children run from a temp directory, where a relative PYTHONPATH
    # (such as `src`) resolves to nothing; hand them the absolute root of the
    # hsfuse under test so they import that same copy.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(hsfuse.__file__)))
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)

    def run(dirpath):
        dirpath.mkdir()
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "hsfuse"] + argv,
                cwd=dirpath,
                env=env,
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                return f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[:200]}"
        man = json.loads((dirpath / "xhat.cube.manifest.json").read_text())
        return (
            (dirpath / "xhat.cube").read_bytes(),
            man["objective_trace"],
            (dirpath / "report.csv").read_bytes(),
        )

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    if isinstance(first, str) or isinstance(second, str):
        _report(9, "bit reproducibility", False, f"{first if isinstance(first, str) else second}")
    cube_same = first[0] == second[0]
    trace_same = first[1] == second[1]
    csv_same = first[2] == second[2]
    ok = cube_same and trace_same and csv_same
    _report(
        9,
        "bit reproducibility",
        ok,
        f"single-thread reruns byte-identical: cube {cube_same}, "
        f"trace {trace_same}, metrics csv {csv_same}",
    )
