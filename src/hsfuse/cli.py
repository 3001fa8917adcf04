"""Command line pipeline: simulate, degrade, fuse, evaluate, errormap.

Exit codes: 0 success, 2 validation problem, 3 I/O or file-format problem,
4 numerical failure. Every run writes one JSON manifest (flag echo, inputs,
outputs, timings) next to its primary output unless --manifest says otherwise;
on a numerical failure the manifest is still written, with an error record.

Heavy imports happen inside the command handlers so that --threads (or the
HSFUSE_THREADS variable) can cap the numeric libraries' thread pools before
they load. Runs with --threads 1 and fixed seeds are bit-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .errors import CubeFormatError, UnsupportedStructureError, ValidationError

__all__ = ["main", "entry"]

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _configure_threads(threads: int | None) -> int | None:
    if threads is None:
        env = os.environ.get("HSFUSE_THREADS")
        if env is not None:
            try:
                threads = int(env)
            except ValueError:
                raise ValidationError(f"HSFUSE_THREADS must be an integer, got {env!r}") from None
    if threads is None:
        return None
    if threads < 1:
        raise ValidationError(f"thread count must be at least 1, got {threads}")
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _manifest_path(args: argparse.Namespace, primary_out: str) -> str:
    return args.manifest if args.manifest else str(primary_out) + ".manifest.json"


def _write_manifest(path: str, manifest: dict) -> None:
    from .io import write_atomic

    write_atomic(path, (json.dumps(manifest, indent=2) + "\n").encode())


def _run(manifest: dict, path: str, body) -> int:
    """Run a command body, writing the manifest on success and on failure."""
    try:
        body()
    except BaseException as exc:
        manifest["error"] = {"type": type(exc).__name__, "message": str(exc)}
        try:
            _write_manifest(path, manifest)
        except OSError:
            pass
        raise
    manifest["error"] = None
    _write_manifest(path, manifest)
    return 0


def _parse_blur(spec: str, height: int, width: int):
    from .degradation import BlurOperator

    kind, _, rest = spec.partition(":")
    try:
        if kind == "block":
            return BlurOperator.uniform_block(height, width, int(rest))
        if kind == "gauss":
            parts = rest.split(":")
            sigma = float(parts[0])
            support = int(parts[1]) if len(parts) > 1 else None
            if len(parts) > 2:
                raise ValidationError(f"too many fields in blur spec {spec!r}")
            return BlurOperator.gaussian(height, width, sigma, support)
    except (ValueError, IndexError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed blur spec {spec!r}: {exc}") from exc
    raise ValidationError(
        f"unknown blur spec {spec!r}; use block:<size> or gauss:<sigma>[:<support>]"
    )


def _resolve_srf(spec: str, in_bands: int, out_bands: int | None):
    from .degradation import SpectralResponse
    from .io import load_srf_csv

    if spec == "default":
        srf = SpectralResponse.default_rgb(in_bands)
        if out_bands is not None and srf.out_bands != out_bands:
            raise ValidationError(
                f"default SRF produces {srf.out_bands} bands but z has {out_bands}; "
                "pass --srf <csv>"
            )
        return srf
    srf = load_srf_csv(spec)
    if srf.in_bands != in_bands:
        raise ValidationError(
            f"SRF table covers {srf.in_bands} channels, cube has {in_bands}"
        )
    if out_bands is not None and srf.out_bands != out_bands:
        raise ValidationError(
            f"SRF table produces {srf.out_bands} bands but z has {out_bands}"
        )
    return srf


def cmd_simulate(args: argparse.Namespace) -> int:
    from .io import save_cube
    from .scenes import SceneSpec, generate_scene

    spec = SceneSpec(
        bands=args.bands,
        height=args.size,
        width=args.size,
        endmembers=args.endmembers,
        smoothness=args.smoothness,
        seed=args.seed,
    )
    mpath = _manifest_path(args, args.out)
    manifest = {
        "command": "simulate",
        "config": {
            "bands": args.bands,
            "size": args.size,
            "endmembers": args.endmembers,
            "smoothness": args.smoothness,
            "seed": args.seed,
        },
        "outputs": {},
        "timings_s": {},
    }

    def body() -> None:
        t0 = time.perf_counter()
        cube = generate_scene(spec)
        manifest["timings_s"]["generate"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        save_cube(args.out, cube, scale=(0.0, 1.0))
        manifest["timings_s"]["save"] = time.perf_counter() - t0
        manifest["outputs"]["cube"] = {"path": str(args.out), "shape": list(cube.data.shape)}
        print(f"wrote {args.out} ({cube.bands}x{cube.height}x{cube.width})")

    return _run(manifest, mpath, body)


def cmd_degrade(args: argparse.Namespace) -> int:
    from .degradation import DegradationModel, Downsampler
    from .io import load_cube, save_cube

    mpath = _manifest_path(args, args.out_y)
    manifest = {
        "command": "degrade",
        "config": {
            "in": args.in_path,
            "blur": args.blur,
            "factor": args.factor,
            "srf": args.srf,
            "noise": args.noise,
            "noise_seed": args.noise_seed,
        },
        "inputs": {},
        "outputs": {},
        "timings_s": {},
    }

    def body() -> None:
        t0 = time.perf_counter()
        x = load_cube(args.in_path)
        manifest["inputs"]["cube"] = {"path": args.in_path, "shape": list(x.data.shape)}
        manifest["timings_s"]["load"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        blur = _parse_blur(args.blur, x.height, x.width)
        srf = _resolve_srf(args.srf, x.bands, None)
        model = DegradationModel(
            blur, Downsampler(args.factor), srf, noise_sigma=args.noise, noise_seed=args.noise_seed
        )
        y, z = model.degrade(x)
        manifest["timings_s"]["degrade"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        save_cube(args.out_y, y)
        save_cube(args.out_z, z)
        manifest["timings_s"]["save"] = time.perf_counter() - t0
        manifest["outputs"]["y"] = {"path": args.out_y, "shape": list(y.data.shape)}
        manifest["outputs"]["z"] = {"path": args.out_z, "shape": list(z.data.shape)}
        print(
            f"wrote {args.out_y} ({y.bands}x{y.height}x{y.width}) and "
            f"{args.out_z} ({z.bands}x{z.height}x{z.width})"
        )

    return _run(manifest, mpath, body)


def _infer_factor(y, z) -> int:
    if z.height % y.height or z.width % y.width:
        raise ValidationError(
            f"z grid {(z.height, z.width)} is not an integer multiple of y grid "
            f"{(y.height, y.width)}"
        )
    factor = z.height // y.height
    if factor < 1 or z.width != y.width * factor:
        raise ValidationError(
            f"inconsistent resolution ratio between z {(z.height, z.width)} "
            f"and y {(y.height, y.width)}"
        )
    return factor


def cmd_fuse(args: argparse.Namespace) -> int:
    from .degradation import DegradationModel, Downsampler
    from .hqs import HqsConfig, fuse
    from .io import load_cube, save_cube
    from .priors import PriorSource, make_prior

    mpath = _manifest_path(args, args.out)
    manifest = {
        "command": "fuse",
        "config": {
            "y": args.y,
            "z": args.z,
            "prior": args.prior,
            "mu": args.mu,
            "nu": args.nu,
            "rho": args.rho,
            "iters": args.iters,
            "tol": args.tol,
            "blur": args.blur,
            "srf": args.srf,
        },
        "inputs": {},
        "outputs": {},
        "timings_s": {},
    }

    def body() -> None:
        t0 = time.perf_counter()
        y = load_cube(args.y)
        z = load_cube(args.z)
        manifest["inputs"]["y"] = {"path": args.y, "shape": list(y.data.shape)}
        manifest["inputs"]["z"] = {"path": args.z, "shape": list(z.data.shape)}
        manifest["timings_s"]["load"] = time.perf_counter() - t0

        factor = _infer_factor(y, z)
        blur_spec = args.blur if args.blur else f"block:{factor}"
        manifest["config"]["blur"] = blur_spec
        manifest["config"]["factor"] = factor
        blur = _parse_blur(blur_spec, z.height, z.width)
        srf = _resolve_srf(args.srf, y.bands, z.bands)
        model = DegradationModel(blur, Downsampler(factor), srf)

        if args.prior == "naive":
            src = PriorSource.naive_fusion()
        elif args.prior.startswith("file:"):
            src = PriorSource.external_file(args.prior[5:])
        else:
            raise ValidationError(
                f"prior must be 'naive' or 'file:<path>', got {args.prior!r}"
            )
        cfg = HqsConfig(
            mu=args.mu, nu=args.nu, rho=args.rho, max_iter=args.iters, rel_tol=args.tol
        )

        t0 = time.perf_counter()
        prior = make_prior(src, y, z, model)
        manifest["timings_s"]["prior"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = fuse(y, z, model, prior, cfg)
        manifest["timings_s"]["fuse"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        save_cube(args.out, result.x_hat)
        manifest["timings_s"]["save"] = time.perf_counter() - t0
        manifest["outputs"]["x_hat"] = {
            "path": args.out,
            "shape": list(result.x_hat.data.shape),
        }
        manifest["iterations"] = result.iterations
        manifest["converged"] = result.converged
        manifest["objective_trace"] = list(result.objective_trace)
        # how far the run was from --tol, also when it stopped at the cap
        manifest["rel_changes"] = list(result.rel_changes)
        print(
            f"wrote {args.out} after {result.iterations} iteration(s), "
            f"converged={result.converged}"
        )

    return _run(manifest, mpath, body)


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .io import load_cube
    from .metrics import CSV_HEADER, evaluate

    primary = args.json or args.csv or (args.x_hat + ".metrics")
    mpath = _manifest_path(args, primary)
    manifest = {
        "command": "evaluate",
        "config": {
            "x_hat": args.x_hat,
            "ref": args.ref,
            "factor": args.factor,
            "json": args.json,
            "csv": args.csv,
        },
        "inputs": {},
        "outputs": {},
        "timings_s": {},
    }

    def body() -> None:
        t0 = time.perf_counter()
        x_hat = load_cube(args.x_hat)
        ref = load_cube(args.ref)
        manifest["inputs"]["x_hat"] = {"path": args.x_hat, "shape": list(x_hat.data.shape)}
        manifest["inputs"]["ref"] = {"path": args.ref, "shape": list(ref.data.shape)}
        manifest["timings_s"]["load"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        report = evaluate(x_hat, ref, args.factor)
        manifest["timings_s"]["evaluate"] = time.perf_counter() - t0
        manifest["metrics"] = report.to_dict()
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(report.to_json())
                fh.write("\n")
            manifest["outputs"]["json"] = {"path": args.json}
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(CSV_HEADER + "\n")
                fh.write(report.csv_row() + "\n")
            manifest["outputs"]["csv"] = {"path": args.csv}
        print(
            f"rmse={report.rmse:.6g} psnr={report.psnr:.6g} ergas={report.ergas:.6g} "
            f"sam={report.sam:.6g} ssim={report.ssim:.6g}"
        )

    return _run(manifest, mpath, body)


def cmd_errormap(args: argparse.Namespace) -> int:
    from .io import band_index_for_wavelength, export_error_map, load_cube

    mpath = _manifest_path(args, args.out)
    manifest = {
        "command": "errormap",
        "config": {
            "x_hat": args.x_hat,
            "ref": args.ref,
            "band": args.band,
            "wavelength": args.wavelength,
            "max_error": args.max_error,
        },
        "inputs": {},
        "outputs": {},
        "timings_s": {},
    }

    def body() -> None:
        if (args.band is None) == (args.wavelength is None):
            raise ValidationError("pass exactly one of --band or --wavelength")
        t0 = time.perf_counter()
        x_hat = load_cube(args.x_hat)
        ref = load_cube(args.ref)
        manifest["inputs"]["x_hat"] = {"path": args.x_hat, "shape": list(x_hat.data.shape)}
        manifest["inputs"]["ref"] = {"path": args.ref, "shape": list(ref.data.shape)}
        manifest["timings_s"]["load"] = time.perf_counter() - t0
        if args.band is not None:
            if not 1 <= args.band <= x_hat.bands:
                raise ValidationError(
                    f"--band is 1-based and must lie in [1, {x_hat.bands}], got {args.band}"
                )
            band0 = args.band - 1
        else:
            band0 = band_index_for_wavelength(
                args.wavelength, x_hat.bands, args.wl_min, args.wl_max
            )
        t0 = time.perf_counter()
        export_error_map(x_hat, ref, band0, args.out, max_error=args.max_error)
        manifest["timings_s"]["export"] = time.perf_counter() - t0
        manifest["band"] = band0 + 1
        manifest["outputs"]["image"] = {"path": args.out}
        print(f"wrote {args.out} (band {band0 + 1} of {x_hat.bands})")

    return _run(manifest, mpath, body)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsfuse",
        description="Fuse a low-resolution hyperspectral cube with a high-resolution "
        "mixed-band image into a high-resolution cube.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap numeric thread pools (1 gives bit-reproducible runs); "
        "falls back to HSFUSE_THREADS",
    )
    common.add_argument(
        "--manifest",
        default=None,
        help="manifest path (default: <primary output>.manifest.json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="generate a seeded synthetic scene")
    p.add_argument("--bands", type=int, default=31)
    p.add_argument("--size", type=int, default=512, help="square edge length")
    p.add_argument("--endmembers", type=int, default=5)
    p.add_argument("--smoothness", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("degrade", parents=[common], help="apply the degradation model")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--blur", default="block:32", help="block:<size> or gauss:<sigma>[:<support>]")
    p.add_argument("--factor", type=int, default=32)
    p.add_argument("--srf", default="default", help="'default' or an SRF csv path")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--noise-seed", type=int, default=0)
    p.add_argument("--out-y", required=True)
    p.add_argument("--out-z", required=True)
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("fuse", parents=[common], help="reconstruct the high-resolution cube")
    p.add_argument("--y", required=True, help="low-resolution cube")
    p.add_argument("--z", required=True, help="high-resolution mixed-band cube")
    p.add_argument("--prior", default="naive", help="'naive' or file:<path>")
    p.add_argument("--mu", type=float, default=0.05)
    p.add_argument("--nu", type=float, default=0.001)
    p.add_argument("--rho", type=float, default=0.001)
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--blur", default=None, help="defaults to block:<factor>")
    p.add_argument("--srf", default="default", help="'default' or an SRF csv path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("evaluate", parents=[common], help="score a cube against a reference")
    p.add_argument("--x-hat", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("--json", default=None, help="write the report as JSON here")
    p.add_argument("--csv", default=None, help="write the report as CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("errormap", parents=[common], help="export a per-band error image")
    p.add_argument("--x-hat", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--band", type=int, default=None, help="1-based band number")
    p.add_argument("--wavelength", type=float, default=None, help="band center in nm")
    p.add_argument("--wl-min", type=float, default=400.0)
    p.add_argument("--wl-max", type=float, default=700.0)
    p.add_argument("--max-error", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_errormap)
    return parser


def _exit_code_for(exc: Exception) -> int | None:
    if isinstance(exc, ValidationError):
        return 2
    if isinstance(exc, (CubeFormatError, OSError)):
        return 3
    import numpy as np

    if isinstance(exc, (ArithmeticError, UnsupportedStructureError, np.linalg.LinAlgError)):
        return 4
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _configure_threads(args.threads)
        return args.func(args)
    except Exception as exc:
        code = _exit_code_for(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())
