"""Seeded synthetic scenes: low-rank mixtures of smooth spectra.

A scene is built as (bands x p) endmember spectra times (p x pixels) abundance
maps. Spectra are smoothed random walks rescaled into [0.2, 1], so they are
positive and spectrally smooth. Abundance logits are white noise blurred by a
periodic Gaussian of width ``smoothness`` pixels, standardized, and passed
through a softmax over endmembers, so maps are non-negative and sum to one at
every pixel. The product is scaled by its global peak into [0, 1]. Everything
is drawn from one seeded generator, so a spec pins the scene bit-for-bit.

The product is never formed whole. ``scene_blocks`` draws the spectra and
maps and takes the peak over ``cube.blocks`` blocks of pixels, then gives
each block of the scaled scene on demand, recomputed from the factors:
``generate_scene`` fills a cube with those blocks, and ``io.save_blocks``
writes them to a file, one block per pool item either way, so a file holds
the bytes of the cube. A GEMM cut at those blocks gives the bits of the
whole product.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cube import HsiCube, blocks, pool_map
from .degradation import BlurOperator
from .errors import ValidationError, check_int, check_real

__all__ = ["SceneSpec", "generate_scene", "scene_blocks"]


@dataclass(frozen=True)
class SceneSpec:
    bands: int
    height: int
    width: int
    endmembers: int = 5
    smoothness: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_int("bands", self.bands, 1)
        check_int("height", self.height, 4)
        check_int("width", self.width, 4)
        if check_int("endmembers", self.endmembers, 1) > self.bands:
            raise ValidationError(
                f"endmembers ({self.endmembers}) cannot exceed bands ({self.bands})"
            )
        check_real("smoothness", self.smoothness)
        check_int("seed", self.seed, 0)


def _smooth_spectra(rng: np.random.Generator, bands: int, count: int) -> np.ndarray:
    """Positive smooth curves, one column per endmember, values in [0.2, 1]."""
    walks = np.cumsum(rng.standard_normal((count, bands)), axis=1)
    # convolve 'same' returns max(len, win) values, so the window must not
    # exceed the band count
    win = min(max(3, bands // 6), bands)
    kernel = np.ones(win) / win
    smooth = np.stack([np.convolve(w, kernel, mode="same") for w in walks])
    lo = smooth.min(axis=1, keepdims=True)
    span = smooth.max(axis=1, keepdims=True) - lo
    span[span < 1e-12] = 1.0
    return (0.2 + 0.8 * (smooth - lo) / span).T


def _standardize(maps: np.ndarray) -> np.ndarray:
    """Each map of ``maps`` less its mean, over its std (1 below 1e-12), in place.

    One map at a time, so std's temporary is one map, not all of them; each
    map's std and mean are the bits of the whole array's over axes (1, 2).
    """
    for plane in maps:
        std = plane.std()
        plane -= plane.mean()
        plane /= 1.0 if std < 1e-12 else std
    return maps


def _abundance_maps(
    rng: np.random.Generator, count: int, height: int, width: int, smoothness: float
) -> np.ndarray:
    logits = rng.standard_normal((count, height, width))
    support = 2 * int(np.ceil(3.0 * smoothness)) + 1
    cap = min(height, width)
    if support > cap:
        support = cap if cap % 2 else cap - 1
    blur = BlurOperator.gaussian(height, width, smoothness, support)
    # in place: the maps are one buffer of their size
    blur.apply_array(logits, logits)
    _standardize(logits)
    logits -= logits.max(axis=0, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0, keepdims=True)
    return logits


def scene_blocks(spec: SceneSpec) -> Callable[..., np.ndarray]:
    """The scaled scene of ``spec`` as a function of a slice of its pixels (flat, row-major).

    ``block(cols, out=None)`` gives every band at those pixels, (bands, n)
    float64, recomputed from the endmember spectra and maps into ``out`` or
    a new array; its values at the ``cube.blocks`` blocks are the bits of the
    cube ``generate_scene`` makes.
    """
    rng = np.random.default_rng(spec.seed)
    spectra = _smooth_spectra(rng, spec.bands, spec.endmembers)
    maps = _abundance_maps(rng, spec.endmembers, spec.height, spec.width, spec.smoothness)
    maps = maps.reshape(spec.endmembers, -1)
    peak = max(pool_map(lambda cols: float((spectra @ maps[:, cols]).max()), blocks(maps.shape[1])))

    def block(cols: slice, out: np.ndarray | None = None) -> np.ndarray:
        values = np.matmul(spectra, maps[:, cols], out=out)
        values /= peak
        return values

    return block


def generate_scene(spec: SceneSpec) -> HsiCube:
    """Deterministic scene for the given spec; rank at most ``endmembers``."""
    block = scene_blocks(spec)
    data = np.empty((spec.bands, spec.height * spec.width))
    # each block straight into the cube, which holds no block-sized temporary
    pool_map(lambda cols: block(cols, data[:, cols]), blocks(data.shape[1]))
    return HsiCube(data.reshape(spec.bands, spec.height, spec.width))
