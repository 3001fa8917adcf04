"""Command line pipeline: simulate, degrade, fuse, evaluate, errormap.

Exit codes: 0 success, 2 validation problem, 3 I/O or file-format problem,
4 numerical failure. Every run writes one JSON manifest (flag echo, inputs,
outputs, timings) next to its primary output unless --manifest says otherwise;
on a failure the manifest is still written, with an error record. All five
commands share one stage runner (``_Stage``) for that manifest, and every
file they write (cubes, manifests, JSON/CSV reports, error maps) goes through
``io.write_atomic``, so a failed write leaves the previous file in place.

Heavy imports happen inside the command handlers so that the BLAS/OpenMP
thread pools can be pinned to one thread before numpy loads. The package's
own pool (see ``cube``) is then the only parallelism; --threads, or the
HSFUSE_THREADS variable, or the available cores size it. Output bytes do not
depend on that size, and runs with fixed seeds are bit-reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import hsfuse

from .errors import (
    CubeFormatError,
    UnsupportedStructureError,
    ValidationError,
    check_int,
)

__all__ = ["main", "entry"]

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _configure_threads(threads: int | None) -> int:
    """Size the package's pool and pin every BLAS/OpenMP pool to one thread.

    The size is ``threads`` (--threads), else ``HSFUSE_THREADS``, else the
    available cores, written to ``HSFUSE_THREADS`` and read back (and checked)
    by ``cube.pool_size``. BLAS worker threads would spin between calls on the
    cores the pool needs, and the loop gives them almost no work.
    """
    if threads is not None:
        os.environ["HSFUSE_THREADS"] = str(check_int("--threads", threads, 1))
    elif "HSFUSE_THREADS" not in os.environ:
        os.environ["HSFUSE_THREADS"] = str(_available_cores())
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    from .cube import pool_size

    return pool_size()


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size in MB (1e6 bytes); None without ``resource``."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB on Linux
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6


# the manifest layout's version, raised when a key is renamed, moved or dropped
_SCHEMA_VERSION = 1


def _write_manifest(path: str, manifest: dict) -> None:
    from .io import write_atomic

    write_atomic(path, (json.dumps(manifest, indent=2) + "\n").encode())


class _Stage:
    """One command run and its manifest.

    The manifest goes to --manifest, or next to the primary output. Its keys
    come in a fixed order: ``schema_version`` (``_SCHEMA_VERSION``),
    ``command``, ``versions`` (python, numpy and hsfuse), ``config`` (the
    value of each flag in ``flags``, then the resolved ``threads``),
    ``inputs`` (all commands but simulate), ``outputs``, ``timings_s``, any
    command-specific results, ``peak_rss_mb`` (the process's peak RSS so
    far, which for an in-process caller covers everything it ran before),
    then ``error``. Leaving the ``with`` block
    writes it: ``error`` is None on success, or the exception's type and
    message, which is re-raised; a failure to write that manifest is not
    reported over the original error.
    """

    def __init__(self, args: argparse.Namespace, primary: str, flags: str):
        import platform

        import numpy as np

        self.path = args.manifest or str(primary) + ".manifest.json"
        config = {flag: getattr(args, flag) for flag in flags.split()}
        config["threads"] = args.threads
        self.manifest: dict = {
            "schema_version": _SCHEMA_VERSION,
            "command": args.command,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "hsfuse": hsfuse.__version__,
            },
            "config": config,
        }
        if args.command != "simulate":
            self.manifest["inputs"] = {}
        self.manifest["outputs"] = {}
        self.manifest["timings_s"] = {}

    def __enter__(self) -> "_Stage":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.manifest["peak_rss_mb"] = _peak_rss_mb()
        if exc is None:
            self.manifest["error"] = None
            _write_manifest(self.path, self.manifest)
            return
        self.manifest["error"] = {"type": type(exc).__name__, "message": str(exc)}
        with contextlib.suppress(OSError):
            _write_manifest(self.path, self.manifest)

    @contextlib.contextmanager
    def timed(self, name: str):
        """Record the wall time of the block under ``timings_s[name]`` if it succeeds."""
        t0 = time.perf_counter()
        yield
        self.manifest["timings_s"][name] = time.perf_counter() - t0

    def load(self, role: str, path: str):
        from .io import load_cube

        cube = load_cube(path)
        self.manifest["inputs"][role] = {"path": path, "shape": list(cube.data.shape)}
        return cube

    def shape(self, role: str, path: str) -> tuple[int, int, int]:
        """An input's (bands, height, width) from its header, recorded as ``load`` records it."""
        from .io import cube_shape

        shape = cube_shape(path)
        self.manifest["inputs"][role] = {"path": path, "shape": list(shape)}
        return shape

    def output(self, role: str, path: str, cube=None) -> None:
        record: dict = {"path": path}
        if cube is not None:
            record["shape"] = list(cube.data.shape)
        self.manifest["outputs"][role] = record


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
    else:
        srf = load_srf_csv(spec)
        if srf.in_bands != in_bands:
            raise ValidationError(
                f"SRF table covers {srf.in_bands} channels, cube has {in_bands}"
            )
    if out_bands is not None and srf.out_bands != out_bands:
        raise ValidationError(
            f"SRF {spec!r} produces {srf.out_bands} bands but z has {out_bands}; "
            "pass --srf <csv> with that many columns"
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
    with _Stage(args, args.out, "bands size endmembers smoothness seed") as stage:
        with stage.timed("generate"):
            cube = generate_scene(spec)
        with stage.timed("save"):
            save_cube(args.out, cube, scale=(0.0, 1.0))
        stage.output("cube", args.out, cube)
        print(f"wrote {args.out} ({cube.bands}x{cube.height}x{cube.width})")
    return 0


def cmd_degrade(args: argparse.Namespace) -> int:
    from .degradation import DegradationModel, Downsampler
    from .io import save_cube

    with _Stage(args, args.out_y, "in blur factor srf noise noise_seed") as stage:
        with stage.timed("load"):
            x = stage.load("cube", getattr(args, "in"))  # "in" is a keyword
        with stage.timed("degrade"):
            blur = _parse_blur(args.blur, x.height, x.width)
            srf = _resolve_srf(args.srf, x.bands, None)
            model = DegradationModel(
                blur, Downsampler(args.factor), srf, noise_sigma=args.noise, noise_seed=args.noise_seed
            )
            y, z = model.degrade(x)
        with stage.timed("save"):
            save_cube(args.out_y, y)
            save_cube(args.out_z, z)
        stage.output("y", args.out_y, y)
        stage.output("z", args.out_z, z)
        print(
            f"wrote {args.out_y} ({y.bands}x{y.height}x{y.width}) and "
            f"{args.out_z} ({z.bands}x{z.height}x{z.width})"
        )
    return 0


def _infer_factor(y, z) -> int:
    factor = z.height // y.height
    if z.height != y.height * factor or z.width != y.width * factor:
        raise ValidationError(
            f"z grid {(z.height, z.width)} is not the same integer multiple of y grid "
            f"{(y.height, y.width)} along both axes"
        )
    return factor


def cmd_fuse(args: argparse.Namespace) -> int:
    from .degradation import DegradationModel, Downsampler
    from .hqs import HqsConfig, fuse
    from .io import save_cube
    from .priors import PriorSource, make_prior

    with _Stage(args, args.out, "y z prior mu nu rho iters tol blur srf") as stage:
        with stage.timed("load"):
            y = stage.load("y", args.y)
            z = stage.load("z", args.z)

        factor = _infer_factor(y, z)
        blur_spec = args.blur if args.blur else f"block:{factor}"
        stage.manifest["config"].update(blur=blur_spec, factor=factor)
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

        with stage.timed("prior"):
            # held only by the list, so fuse gets the one reference and frees
            # the cube once it holds its spectrum
            holder = [make_prior(src, y, z, model)]
        with stage.timed("fuse"):
            result = fuse(y, z, model, holder.pop(), cfg)
        with stage.timed("save"):
            save_cube(args.out, result.x_hat)
        stage.output("x_hat", args.out, result.x_hat)
        stage.manifest["iterations"] = result.iterations
        stage.manifest["converged"] = result.converged
        stage.manifest["objective_trace"] = list(result.objective_trace)
        # how far the run was from --tol, also when it stopped at the cap
        stage.manifest["rel_changes"] = list(result.rel_changes)
        print(
            f"wrote {args.out} after {result.iterations} iteration(s), "
            f"converged={result.converged}"
        )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .io import write_atomic
    from .metrics import CSV_HEADER, evaluate

    primary = args.json or args.csv or (args.x_hat + ".metrics")
    with _Stage(args, primary, "x_hat ref factor json csv") as stage:
        with stage.timed("load"):
            x_hat = stage.load("x_hat", args.x_hat)
            ref = stage.load("ref", args.ref)
        with stage.timed("evaluate"):
            report = evaluate(x_hat, ref, args.factor)
        stage.manifest["metrics"] = report.to_dict()
        if args.json:
            write_atomic(args.json, (report.to_json() + "\n").encode())
            stage.output("json", args.json)
        if args.csv:
            write_atomic(args.csv, f"{CSV_HEADER}\n{report.csv_row()}\n".encode())
            stage.output("csv", args.csv)
        print(
            f"rmse={report.rmse:.6g} psnr={report.psnr:.6g} ergas={report.ergas:.6g} "
            f"sam={report.sam:.6g} ssim={report.ssim:.6g}"
        )
    return 0


def cmd_errormap(args: argparse.Namespace) -> int:
    from .cube import check_shape
    from .io import band_index_for_wavelength, export_error_map, load_cube

    with _Stage(args, args.out, "x_hat ref band wavelength wl_min wl_max max_error") as stage:
        if (args.band is None) == (args.wavelength is None):
            raise ValidationError("pass exactly one of --band or --wavelength")
        with stage.timed("load"):
            shape = stage.shape("x_hat", args.x_hat)
            check_shape("x_hat", shape, stage.shape("ref", args.ref))
            bands = shape[0]
            if args.band is not None:
                if not 1 <= args.band <= bands:
                    raise ValidationError(
                        f"--band is 1-based and must lie in [1, {bands}], got {args.band}"
                    )
                band0 = args.band - 1
            else:
                band0 = band_index_for_wavelength(args.wavelength, bands, args.wl_min, args.wl_max)
            # the one band of each file, every band of which is still checked
            x_hat = load_cube(args.x_hat, band0)
            ref = load_cube(args.ref, band0)
        with stage.timed("export"):
            export_error_map(x_hat, ref, 0, args.out, max_error=args.max_error)
        stage.manifest["band"] = band0 + 1
        stage.output("image", args.out)
        print(f"wrote {args.out} (band {band0 + 1} of {bands})")
    return 0


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
        help="threads of the hsfuse pool (output bytes do not depend on it); "
        "falls back to HSFUSE_THREADS, then to the available cores",
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
    p.add_argument("--in", required=True)
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
        args.threads = _configure_threads(args.threads)
        return args.func(args)
    except Exception as exc:
        code = _exit_code_for(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())
