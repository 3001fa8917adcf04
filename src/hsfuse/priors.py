"""Prior cubes for the regularizer's anchor term.

The fusion driver treats the prior as data: any high-resolution cube of the
right shape works. The usual prior is a cube file, e.g. the output of a
separately trained network; it is read like any other input
(``io.load_cube``, or ``fuse --prior file:<path>``, which checks its header
first) and handed to ``hqs.fuse`` as is. ``make_prior`` builds the one prior
this package makes itself, a naive fusion of the inputs.

Naive fusion upsamples the low-res cube bilinearly to u, then back-projects
the spectral residual per pixel so the result reproduces the mixed-band image
exactly: with K = R^T (R R^T)^-1, the prior u + K (z - R u) satisfies
``srf(prior) == z`` up to solver roundoff. The upsample is linear and acts on
each band alone, so it commutes with the band mix M = I - K R, and the prior
is built as ``Wr (M y)_b Wc^T + (K z)_b``: the bands x bands mix runs on the
low-resolution grid, and the only cube-sized work is one upsample per band
and one GEMM over z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import HsiCube
from .degradation import DegradationModel
from .errors import ValidationError

__all__ = ["PriorSource", "make_prior"]


@dataclass(frozen=True)
class PriorSource:
    """Tagged choice of the prior ``make_prior`` builds; ``naive_fusion`` is the one kind."""

    kind: str

    @classmethod
    def naive_fusion(cls) -> "PriorSource":
        return cls(kind="naive_fusion")


def _axis_weights(n_in: int, factor: int) -> np.ndarray:
    """The (n_in*factor, n_in) linear interpolation matrix of one axis; rows sum to 1."""
    n_out = n_in * factor
    # half-pixel-center mapping: output i sits at input coordinate (i+0.5)/s - 0.5
    coords = np.clip((np.arange(n_out) + 0.5) / factor - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(coords).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    w = coords - lo
    mat = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    mat[rows, lo] = 1.0 - w
    # a clamped output has hi == lo and w == 0
    mat[rows, hi] += w
    return mat


def make_prior(src: PriorSource, y: HsiCube, z: HsiCube, model: DegradationModel) -> HsiCube:
    """Build the naive-fusion prior of y and z, checked against the model geometry."""
    model.check_data(y, z)
    if src.kind != "naive_fusion":
        raise ValidationError(f"unknown prior source kind {src.kind!r}")
    r = model.srf.matrix
    # K = R^T (R R^T)^-1; R R^T is symmetric
    k = np.linalg.solve(r @ r.T, r).T
    low = ((np.eye(len(k)) - k @ r) @ y.as_matrix()).reshape(y.data.shape)
    height, width = model.hr_shape
    out = (k @ z.as_matrix()).reshape(len(k), height, width)
    s = model.down.factor
    wr = _axis_weights(y.height, s)
    wc = _axis_weights(y.width, s)
    # one band at a time, so the upsample adds a plane, not a cube, to the peak
    for b in range(len(k)):
        out[b] += wr @ low[b] @ wc.T
    return HsiCube(out)
