"""Prior cubes for the regularizer's anchor term.

The fusion driver treats the prior as data: any high-resolution cube of the
right shape works. Two sources are supported: an external file (the usual
case, e.g. the output of a separately trained network) and a self-contained
naive fusion built from the inputs themselves.

Naive fusion upsamples the low-res cube bilinearly, then back-projects the
spectral residual per pixel so the result reproduces the mixed-band image
exactly: with correction R^T (R R^T)^-1 (z - R u), the prior satisfies
``srf(prior) == z`` up to solver roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import HsiCube
from .degradation import DegradationModel
from .errors import ValidationError, check_int

__all__ = ["PriorSource", "bilinear_upsample", "make_prior"]


@dataclass(frozen=True)
class PriorSource:
    """Tagged choice of where the prior cube comes from."""

    kind: str
    path: str | None = None

    @classmethod
    def external_file(cls, path: str) -> "PriorSource":
        return cls(kind="external_file", path=str(path))

    @classmethod
    def naive_fusion(cls) -> "PriorSource":
        return cls(kind="naive_fusion")


def _axis_weights(n_out: int, n_in: int, factor: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # half-pixel-center mapping: output i sits at input coordinate (i+0.5)/s - 0.5
    coords = (np.arange(n_out) + 0.5) / factor - 0.5
    coords = np.clip(coords, 0.0, n_in - 1.0)
    lo = np.floor(coords).astype(int)
    lo = np.minimum(lo, n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    w = coords - lo
    return lo, hi, w


def bilinear_upsample(y: HsiCube, factor: int) -> HsiCube:
    """Separable linear interpolation to a grid ``factor`` times finer.

    Pixel centers are aligned under the half-pixel convention and edge values
    are clamped, so constant inputs map to constant outputs of the same value.
    """
    if check_int("factor", factor, 1) == 1:
        return y
    rl, rh, rw = _axis_weights(y.height * factor, y.height, factor)
    data = y.data[:, rl, :] * (1.0 - rw)[None, :, None] + y.data[:, rh, :] * rw[None, :, None]
    cl, ch, cw = _axis_weights(y.width * factor, y.width, factor)
    data = data[:, :, cl] * (1.0 - cw)[None, None, :] + data[:, :, ch] * cw[None, None, :]
    return HsiCube(data)


def _naive_fusion(y: HsiCube, z: HsiCube, model: DegradationModel) -> HsiCube:
    up = bilinear_upsample(y, model.down.factor)
    r = model.srf.matrix
    gram = r @ r.T
    resid = z.as_matrix() - r @ up.as_matrix()
    correction = r.T @ np.linalg.solve(gram, resid)
    return HsiCube.from_matrix(up.as_matrix() + correction, up.height, up.width)


def make_prior(src: PriorSource, y: HsiCube, z: HsiCube, model: DegradationModel) -> HsiCube:
    """Produce the prior cube and check it against the model geometry."""
    model.check_data(y, z)
    if src.kind == "naive_fusion":
        return _naive_fusion(y, z, model)
    if src.kind != "external_file":
        raise ValidationError(f"unknown prior source kind {src.kind!r}")
    if not src.path:
        raise ValidationError("external_file prior needs a path")
    from .io import load_cube

    cube = load_cube(src.path)
    model.check_hr("prior cube", cube)
    return cube
