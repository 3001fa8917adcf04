"""Seeded synthetic scenes: low-rank mixtures of smooth spectra.

A scene is built as (bands x p) endmember spectra times (p x pixels) abundance
maps. Spectra are smoothed random walks rescaled into [0.2, 1], so they are
positive and spectrally smooth. Abundance logits are white noise blurred by a
periodic Gaussian of width ``smoothness`` pixels, standardized, and passed
through a softmax over endmembers, so maps are non-negative and sum to one at
every pixel. The product is scaled by its global peak into [0, 1]. Everything
is drawn from one seeded generator, so a spec pins the scene bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import HsiCube
from .degradation import BlurOperator
from .errors import ValidationError, check_int, check_real

__all__ = ["SceneSpec", "generate_scene"]


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


def _abundance_maps(
    rng: np.random.Generator, count: int, height: int, width: int, smoothness: float
) -> np.ndarray:
    logits = rng.standard_normal((count, height, width))
    support = 2 * int(np.ceil(3.0 * smoothness)) + 1
    cap = min(height, width)
    if support > cap:
        support = cap if cap % 2 else cap - 1
    blur = BlurOperator.gaussian(height, width, smoothness, support)
    logits = blur.apply_array(logits)
    std = logits.std(axis=(1, 2), keepdims=True)
    std[std < 1e-12] = 1.0
    logits = (logits - logits.mean(axis=(1, 2), keepdims=True)) / std
    logits -= logits.max(axis=0, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=0, keepdims=True)


def generate_scene(spec: SceneSpec) -> HsiCube:
    """Deterministic scene for the given spec; rank at most ``endmembers``."""
    rng = np.random.default_rng(spec.seed)
    spectra = _smooth_spectra(rng, spec.bands, spec.endmembers)
    maps = _abundance_maps(rng, spec.endmembers, spec.height, spec.width, spec.smoothness)
    data = np.tensordot(spectra, maps, axes=(1, 0))
    # in place: the scaled cube is the product's own buffer, not a second cube
    data /= data.max()
    return HsiCube(data)
