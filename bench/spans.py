"""In-memory span recorder for the benchmark's traced runs.

Spans come only from wrappers this file installs: around the 2-D FFT entry
points of ``numpy.fft`` and ``scipy.fft``, and around the public functions of
each ``hsfuse`` module, at the module attribute their caller looks the
function up (``hqs.fuse`` calls ``build_system`` through ``hsfuse.hqs``, so
that is where the wrapper goes). The program itself is not edited.

A span is a dict with ``id``, ``name``, ``parent`` (the id of the span that
was open when it started, or None), ``t0``/``t1`` in seconds, and optional
counters (``mb``, ``elems``, ``iterations``). Spans stay in memory until
``Recorder.dump`` writes them out. Importing this module imports nothing but
the standard library, so a worker can pin thread counts before numpy loads.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict

FFT_SPAN = "fft"
_FFT_MODULES = ("numpy.fft", "scipy.fft")
_FFT_FUNCS = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def _fft_counts(args, kwargs, result):
    src = args[0] if args else kwargs.get("x", kwargs.get("a"))
    size_in = int(getattr(src, "size", 0))
    nbytes_in = int(getattr(src, "nbytes", 0))
    # a real transform's half spectrum is the smaller side; count the full grid
    return {
        "elems": max(size_in, int(result.size)),
        "mb": (nbytes_in + int(result.nbytes)) / 1e6,
    }


def _file_mb(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"mb": os.path.getsize(path) / 1e6}


def _validated_mb(args, kwargs):
    return {"mb": int(getattr(args[0].data, "nbytes", 0)) / 1e6}


def _fuse_counts(args, kwargs, result):
    return {"iterations": int(result.iterations), "elems": int(result.x_hat.data.size)}


# (module, attribute path, span name, counters before the call, counters after)
FFT_TARGETS = tuple(
    (module, func, FFT_SPAN, None, _fft_counts) for module in _FFT_MODULES for func in _FFT_FUNCS
)
LAYER_TARGETS = (
    ("hsfuse.cli", "cmd_simulate", "cli.simulate", None, None),
    ("hsfuse.cli", "cmd_degrade", "cli.degrade", None, None),
    ("hsfuse.cli", "cmd_fuse", "cli.fuse", None, None),
    ("hsfuse.cli", "cmd_evaluate", "cli.evaluate", None, None),
    ("hsfuse.cli", "cmd_errormap", "cli.errormap", None, None),
    ("hsfuse.io", "load_cube", "io.load_cube", None, _file_mb),
    ("hsfuse.io", "save_cube", "io.save_cube", None, _file_mb),
    ("hsfuse.scenes", "generate_scene", "scenes.generate_scene", None, None),
    ("hsfuse.degradation", "DegradationModel.degrade", "degradation.degrade", None, None),
    ("hsfuse.metrics", "evaluate", "metrics.evaluate", None, None),
    ("hsfuse.priors", "make_prior", "priors.make_prior", None, None),
    ("hsfuse.hqs", "fuse", "hqs.fuse", None, _fuse_counts),
    ("hsfuse.hqs", "objective_value", "hqs.objective_value", None, None),
    ("hsfuse.hqs", "regularizer_value", "gradients.regularizer_value", None, None),
    ("hsfuse.hqs", "build_system", "sylvester.build_system", None, None),
    ("hsfuse.sylvester", "solve_fast", "sylvester.solve_fast", None, None),
    ("hsfuse.sylvester", "sylvester_residual", "sylvester.sylvester_residual", None, None),
    ("hsfuse.hqs", "vstep", "vstep.vstep", None, None),
    ("hsfuse.vstep", "solve_tridiagonal", "vstep.solve_tridiagonal", None, None),
    ("hsfuse.vstep", "dft2_per_band", "cube.dft2_per_band", None, None),
    ("hsfuse.vstep", "idft2_per_band", "cube.idft2_per_band", None, None),
    ("hsfuse.cube", "HsiCube.__post_init__", "cube.validate", _validated_mb, None),
    ("hsfuse.cube", "FreqCube.__post_init__", "cube.validate", _validated_mb, None),
)
# FFT wrappers go in first, before anything imports hsfuse
ALL_TARGETS = FFT_TARGETS + LAYER_TARGETS


class Recorder:
    """Collects spans with parent links; one recorder per process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, fn, name: str, before=None, after=None):
        """Return ``fn`` wrapped so each call records one span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # numpy/scipy entry points may call each other; count the outer call
            if name == FFT_SPAN and self._stack and self._stack[-1]["name"] == FFT_SPAN:
                return fn(*args, **kwargs)
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
            }
            if before is not None:
                span.update(before(args, kwargs))
            self.spans.append(span)
            self._stack.append(span)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                span.update(after(args, kwargs, result))
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Install a wrapper on every target in ``ALL_TARGETS``; restore every original on exit.

    A target the program does not have raises ``LookupError``, so a moved or
    renamed function fails the traced run instead of reading as a free layer.
    """
    saved = []
    try:
        for module_name, path, name, before, after in ALL_TARGETS:
            try:
                owner, attr = _resolve(importlib.import_module(module_name), path)
                # a method is taken from its class's own dict, so restoring it
                # leaves the class as it was
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError) as exc:
                raise LookupError(f"trace target {module_name}:{path} not found") from exc
            setattr(owner, attr, recorder.wrap(original, name, before, after))
            saved.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        end = s["t0"]
        for c in sorted(children[s["id"]], key=lambda c: c["t0"]):
            lo, hi = max(c["t0"], end), min(c["t1"], s["t1"])
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


def _ancestor(span: dict, by_id: dict, name: str) -> dict | None:
    """Nearest enclosing span called ``name``, or None."""
    parent = span["parent"]
    while parent is not None:
        p = by_id[parent]
        if p["name"] == name:
            return p
        parent = p["parent"]
    return None


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive ``s``, ``self_s``, ``calls`` and summed counters.

    ``s`` counts only the outermost span of a name, so recursion is not
    counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "mb": 0.0, "elems": 0, "iterations": 0}
    )
    for s in spans:
        row = out[s["name"]]
        row["calls"] += 1
        row["self_s"] += selfs[s["id"]]
        if _ancestor(s, by_id, s["name"]) is None:
            row["s"] += s["t1"] - s["t0"]
        row["mb"] += s.get("mb", 0.0)
        row["elems"] += s.get("elems", 0)
        row["iterations"] += s.get("iterations", 0)
    return dict(out)


def fft_planes_per_iter(spans: list[dict]) -> float:
    """Elements transformed inside ``hqs.fuse``, in whole-cube units per iteration.

    A 2-D transform of every band of the high-resolution cube counts 1; one of
    a 3-band image of the same grid counts 3/bands.
    """
    by_id = {s["id"]: s for s in spans}
    cubes = 0.0
    for s in spans:
        if s["name"] == FFT_SPAN:
            fuse_span = _ancestor(s, by_id, "hqs.fuse")
            if fuse_span is not None and fuse_span.get("elems"):
                cubes += s.get("elems", 0) / fuse_span["elems"]
    iterations = sum(s.get("iterations", 0) for s in spans if s["name"] == "hqs.fuse")
    return cubes / iterations if iterations else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics the traced run reports, from one pass's spans.

    Times are totals over the pass; a layer the pass never entered reads 0.
    """
    summary = summarize(spans)
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0, "mb": 0.0, "elems": 0, "iterations": 0}

    def get(name: str, field: str) -> float:
        return summary.get(name, zero)[field]

    out: dict[str, float] = {}
    for stage in ("simulate", "degrade", "fuse", "evaluate", "errormap"):
        out[f"cli.{stage}.s"] = get(f"cli.{stage}", "s")
    for name in ("io.load_cube", "io.save_cube"):
        out[f"{name}.s"] = get(name, "s")
        out[f"{name}.mb"] = get(name, "mb")
    for name in (
        "scenes.generate_scene",
        "degradation.degrade",
        "metrics.evaluate",
        "priors.make_prior",
        "gradients.regularizer_value",
        "sylvester.build_system",
        "sylvester.sylvester_residual",
        "vstep.solve_tridiagonal",
        "cube.dft2_per_band",
        "cube.idft2_per_band",
    ):
        out[f"{name}.s"] = get(name, "s")
    for name in ("hqs.fuse", "hqs.objective_value", "sylvester.solve_fast", "vstep.vstep"):
        out[f"{name}.self_s"] = get(name, "self_s")
    out["hqs.iterations"] = get("hqs.fuse", "iterations")
    out["cube.validate.calls"] = get("cube.validate", "calls")
    out["cube.validate.mb"] = get("cube.validate", "mb")
    out["cube.validate.s"] = get("cube.validate", "s")
    out["fft.calls"] = get(FFT_SPAN, "calls")
    out["fft.planes_per_iter"] = fft_planes_per_iter(spans)
    out["fft.s"] = get(FFT_SPAN, "s")
    out["fft.mb_computed"] = get(FFT_SPAN, "mb")
    return out
