"""Command line pipeline: simulate, degrade, fuse, evaluate, errormap.

Exit codes: 0 success, 2 validation problem, 3 I/O or file-format problem,
4 numerical failure. Every run writes one JSON manifest (flag echo, inputs,
outputs, timings) next to its primary output unless --manifest says otherwise;
on a failure the manifest is still written, with an error record. All five
commands share one stage runner (``_Stage``) for that manifest, and every
file they write (cubes, manifests, JSON/CSV reports, error maps) goes through
``io.write_atomic`` or its temp file, so a failed write leaves the previous
file in place.

Every stage that reads files reads their headers first, under ``load``, and
checks them before it reads any payload. No stage holds a whole input or
output cube but ``fuse``, which under ``load`` reads both headers, builds
and checks the model against them, and only then loads y and z whole.
``simulate`` times the endmember spectra, their maps and the peak of their
product under ``generate``, and the scaled product's blocks of pixels,
written straight into the file, under ``save``. ``degrade`` reads its
input's header under ``load``, the band-by-band and block-by-block passes
that make y and z under ``degrade``, and the two outputs under ``save``.
``evaluate`` reads both headers under ``load`` and scores the files band by
band under ``evaluate``; ``errormap`` reads both headers under ``load``, and
under ``export`` reads and checks every band of both files, keeping the
mapped band's difference, and writes the map.

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
    """Put the pool size in ``HSFUSE_THREADS`` (--threads, else as set, else the cores); read it back."""
    if threads is not None:
        os.environ["HSFUSE_THREADS"] = str(check_int("--threads", threads, 1))
    elif "HSFUSE_THREADS" not in os.environ:
        os.environ["HSFUSE_THREADS"] = str(_available_cores())
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
    ``command``, ``versions`` (python, numpy and hsfuse), ``config`` (every
    parsed flag but the manifest and output paths, in parser order, then
    ``threads``, which entering the stage resolves, so that an invalid size
    is recorded as its error),
    ``inputs`` (all commands but simulate), ``outputs``, ``timings_s``, any
    command-specific results, ``peak_rss_mb`` (the process's peak RSS so
    far, which for an in-process caller covers everything it ran before),
    then ``error``. Leaving the ``with`` block, or failing to enter it, writes
    it: ``error`` is None on success, or the exception's type and message,
    which is re-raised; a failure to write that manifest is not reported over
    the original error.
    """

    def __init__(self, args: argparse.Namespace, primary: str):
        import platform

        import numpy as np

        self.path = args.manifest or str(primary) + ".manifest.json"
        skip = {"command", "func", "manifest", "threads"}
        config = {k: v for k, v in vars(args).items() if k not in skip and not k.startswith("out")}
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
        config = self.manifest["config"]
        try:
            config["threads"] = _configure_threads(config["threads"])
        except Exception as exc:
            self.__exit__(type(exc), exc, exc.__traceback__)
            raise
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

    def shape(self, role: str, path: str) -> tuple[int, int, int]:
        """An input's (bands, height, width) from its header alone, recorded under ``inputs``.

        Every stage that reads files records them this way before it reads
        any payload; ``fuse`` then loads its two inputs whole.
        """
        from .io import open_cube

        with open_cube(path) as reader:
            shape = reader.shape
        self.manifest["inputs"][role] = {"path": path, "shape": list(shape)}
        return shape

    def output(self, role: str, path: str, shape: tuple[int, ...] | None = None) -> None:
        record: dict = {"path": path}
        if shape is not None:
            record["shape"] = list(shape)
        self.manifest["outputs"][role] = record


def _parse_blur(spec: str, height: int, width: int):
    from .degradation import BlurOperator

    kind, _, rest = spec.partition(":")
    if kind not in ("block", "gauss"):
        raise ValidationError(
            f"unknown blur spec {spec!r}; use block:<size> or gauss:<sigma>[:<support>]"
        )
    fields = rest.split(":")
    try:
        numbers = [int(rest)] if kind == "block" else [float(fields[0]), *map(int, fields[1:2])]
    except ValueError as exc:
        raise ValidationError(f"malformed blur spec {spec!r}: {exc}") from exc
    if len(fields) > 2:
        raise ValidationError(f"too many fields in blur spec {spec!r}")
    build = BlurOperator.uniform_block if kind == "block" else BlurOperator.gaussian
    return build(height, width, *numbers)


def _model(stage: _Stage, args, factor: int, shape: tuple[int, int, int], out_bands=None, **noise):
    """The model of --blur (``block:<factor>`` if unset), --srf and ``factor``, noted in config.

    ``shape`` is the high-resolution (bands, height, width), and ``out_bands`` z's bands if known.
    """
    from .degradation import DegradationModel, Downsampler, SpectralResponse
    from .io import load_srf_csv

    spec = f"block:{factor}" if args.blur is None else args.blur
    stage.manifest["config"].update(blur=spec, factor=factor)
    bands, height, width = shape
    blur = _parse_blur(spec, height, width)
    if args.srf == "default":
        srf = SpectralResponse.default_rgb(bands)
    else:
        srf = load_srf_csv(args.srf)
        if srf.in_bands != bands:
            raise ValidationError(f"SRF table covers {srf.in_bands} channels, cube has {bands}")
    if out_bands is not None and srf.out_bands != out_bands:
        raise ValidationError(
            f"SRF {args.srf!r} produces {srf.out_bands} bands but z has {out_bands}; "
            "pass --srf <csv> with that many columns"
        )
    return DegradationModel(blur, Downsampler(factor), srf, **noise)


def cmd_simulate(args: argparse.Namespace) -> int:
    from .io import save_blocks
    from .scenes import SceneSpec, scene_blocks

    with _Stage(args, args.out) as stage:
        spec = SceneSpec(
            bands=args.bands,
            height=args.size,
            width=args.size,
            endmembers=args.endmembers,
            smoothness=args.smoothness,
            seed=args.seed,
        )
        shape = (spec.bands, spec.height, spec.width)
        with stage.timed("generate"):
            block = scene_blocks(spec)
        with stage.timed("save"):
            save_blocks(args.out, shape, block, scale=(0.0, 1.0))
        stage.output("cube", args.out, shape)
        print(f"wrote {args.out} ({'x'.join(map(str, shape))})")
    return 0


def cmd_degrade(args: argparse.Namespace) -> int:
    from .io import save_cube

    with _Stage(args, args.out_y) as stage:
        path = getattr(args, "in")  # "in" is a keyword
        with stage.timed("load"):
            shape = stage.shape("cube", path)
        with stage.timed("degrade"):
            noise = {"noise_sigma": args.noise, "noise_seed": args.noise_seed}
            model = _model(stage, args, args.factor, shape, **noise)
            # read from the file band by band, then block by block, never whole
            y, z = model.degrade(path)
        with stage.timed("save"):
            save_cube(args.out_y, y)
            save_cube(args.out_z, z)
        stage.output("y", args.out_y, y.data.shape)
        stage.output("z", args.out_z, z.data.shape)
        print(
            f"wrote {args.out_y} ({y.bands}x{y.height}x{y.width}) and "
            f"{args.out_z} ({z.bands}x{z.height}x{z.width})"
        )
    return 0


def _infer_factor(y: tuple[int, int, int], z: tuple[int, int, int]) -> int:
    """The factor of z's grid over y's, from their (bands, height, width) shapes."""
    factor = z[1] // y[1]
    if z[1:] != (y[1] * factor, y[2] * factor):
        raise ValidationError(
            f"z grid {z[1:]} is not the same integer multiple of y grid {y[1:]} along both axes"
        )
    return factor


def cmd_fuse(args: argparse.Namespace) -> int:
    from .hqs import HqsConfig, fuse
    from .io import load_cube, save_cube
    from .priors import PriorSource, make_prior

    with _Stage(args, args.out) as stage:
        with stage.timed("load"):
            y_shape, z_shape = stage.shape("y", args.y), stage.shape("z", args.z)
            # the model is checked against both headers before any payload is read
            factor = _infer_factor(y_shape, z_shape)
            model = _model(stage, args, factor, (y_shape[0], *z_shape[1:]), z_shape[0])
            y, z = load_cube(args.y), load_cube(args.z)

        if args.prior == "naive":
            src = PriorSource.naive_fusion()
        elif args.prior.startswith("file:"):
            src = PriorSource.external_file(args.prior[5:])
        else:
            raise ValidationError(f"prior must be 'naive' or 'file:<path>', got {args.prior!r}")
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
        stage.output("x_hat", args.out, result.x_hat.data.shape)
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
    with _Stage(args, primary) as stage:
        with stage.timed("load"):
            stage.shape("x_hat", args.x_hat)
            stage.shape("ref", args.ref)
        with stage.timed("evaluate"):
            # read from the files band by band, never a whole cube
            report = evaluate(args.x_hat, args.ref, args.factor)
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
    from .io import band_index_for_wavelength, export_error_map

    with _Stage(args, args.out) as stage:
        if (args.band is None) == (args.wavelength is None):
            raise ValidationError("pass exactly one of --band or --wavelength")
        with stage.timed("load"):
            bands = stage.shape("x_hat", args.x_hat)[0]
            stage.shape("ref", args.ref)
            if args.band is not None:
                if not 1 <= args.band <= bands:
                    raise ValidationError(
                        f"--band is 1-based and must lie in [1, {bands}], got {args.band}"
                    )
                band0 = args.band - 1
            else:
                band0 = band_index_for_wavelength(args.wavelength, bands, args.wl_min, args.wl_max)
        with stage.timed("export"):
            export_error_map(args.x_hat, args.ref, band0, args.out, max_error=args.max_error)
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
    p.add_argument("--blur", help="block:<size> or gauss:<sigma>[:<support>]; default block:<factor>")
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
    p.add_argument("--blur", help="defaults to block:<factor>")
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
    # BLAS worker threads would spin between calls on the cores the pool
    # needs, and the loop gives them almost no work
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    try:
        return args.func(args)
    except Exception as exc:
        code = _exit_code_for(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())
