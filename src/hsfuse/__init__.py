"""Hyperspectral and mixed-band image fusion.

Reconstructs a high-resolution hyperspectral cube from a low-resolution
hyperspectral observation and a high-resolution image with few mixed bands,
by alternating a closed-form data-fit solve with a per-frequency smoothing
solve around a cheap fused prior.

Submodules are imported lazily so the command line layer can pin thread
counts before any numeric library loads.
"""

from __future__ import annotations

__version__ = "0.1.0"

_EXPORTS = {
    "HsiCube": "cube",
    "FreqCube": "cube",
    "dft2_per_band": "cube",
    "idft2_per_band": "cube",
    "BlurOperator": "degradation",
    "Downsampler": "degradation",
    "SpectralResponse": "degradation",
    "DegradationModel": "degradation",
    "LaplacianOperator": "gradients",
    "SylvesterSystem": "sylvester",
    "build_system": "sylvester",
    "solve_fast": "sylvester",
    "vstep": "vstep",
    "HqsConfig": "hqs",
    "FusionResult": "hqs",
    "fuse": "hqs",
    "PriorSource": "priors",
    "make_prior": "priors",
    "SceneSpec": "scenes",
    "generate_scene": "scenes",
    "MetricReport": "metrics",
    "evaluate": "metrics",
    "load_cube": "io",
    "save_cube": "io",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
