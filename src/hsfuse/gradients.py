"""Spatial and spectral penalty operators for the smoothness regularizer.

The spatial term applies the 4-neighbour Laplacian stencil ``LAPLACIAN_KERNEL``
circularly to every band: ``LaplacianOperator`` is a ``BlurOperator`` built
from the stencil without normalizing (it sums to 0). Its frequency response
is real, with value 0 at DC and maximum 8 at Nyquist; quadratic forms
consume its squared magnitude.

The spectral term is the first difference along the band axis, a (B-1) x B
banded map. It is deliberately not wrapped circularly: band 1 and band B are
not neighbours. Its normal matrix is tridiagonal with diagonal (1, 2, ..., 2, 1)
and off-diagonals -1, the path graph's Laplacian, which the DCT-II basis
diagonalizes (``spectral_gram_eig``, plain arrays): the stencil and the band
difference are constants of this module, and ``regularizer_value``, the public
entry point, builds the stencil on its cube's grid, so only its cubes' shapes
and its weights are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import HsiCube, check_shape
from .degradation import BlurOperator
from .errors import ValidationError, check_real

__all__ = [
    "LAPLACIAN_KERNEL",
    "LaplacianOperator",
    "spectral_diff_apply_array",
    "spectral_diff_adjoint_array",
    "spectral_gram_eig",
    "regularizer_value",
]

LAPLACIAN_KERNEL = np.array(
    [
        [0.0, -1.0, 0.0],
        [-1.0, 4.0, -1.0],
        [0.0, -1.0, 0.0],
    ]
)
LAPLACIAN_KERNEL.setflags(write=False)


@dataclass(frozen=True)
class LaplacianOperator(BlurOperator):
    """Per-band circular convolution with ``LAPLACIAN_KERNEL``, anchored at its center.

    It holds that stencil only: the constructors inherited from
    ``BlurOperator`` raise ``ValidationError`` for any other kernel or anchor.
    """

    def __post_init__(self) -> None:
        if self.anchor != (1, 1) or not np.array_equal(self.kernel, LAPLACIAN_KERNEL):
            raise ValidationError(
                "a LaplacianOperator holds LAPLACIAN_KERNEL at anchor (1, 1), unnormalized"
            )

    @classmethod
    def create(cls, height: int, width: int) -> "LaplacianOperator":
        """The stencil on a height x width grid; it must fit (3x3 or larger)."""
        return cls.custom(height, width, LAPLACIAN_KERNEL, (1, 1), normalize=False)

    @property
    def response_sq(self) -> np.ndarray:
        """``|multiplier|^2`` per frequency: the Gram multiplier of D^T D."""
        return (self.multiplier * np.conj(self.multiplier)).real


def spectral_diff_apply_array(data: np.ndarray) -> np.ndarray:
    if data.shape[0] < 2:
        raise ValidationError("spectral difference needs at least 2 bands")
    return data[1:] - data[:-1]


def spectral_diff_adjoint_array(data: np.ndarray) -> np.ndarray:
    out = np.zeros((data.shape[0] + 1,) + data.shape[1:], dtype=data.dtype)
    out[:-1] -= data
    out[1:] += data
    return out


def spectral_gram_eig(bands: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues ``d`` and orthonormal eigenvectors (columns) of the normal matrix.

    They are the DCT-II's (Strang, SIAM Review 1999): ``d_k = 4 sin^2(pi k / 2B)``,
    ``u[i, k] = c_k cos(pi k (2i + 1) / 2B)`` with the numerator taken mod 4B.
    """
    k = np.arange(bands)
    turns = k * (2 * np.arange(bands)[:, None] + 1) % (4 * bands)
    u = np.sqrt((2.0 - (k == 0)) / bands) * np.cos(np.pi * turns / (2 * bands))
    return 4.0 * np.sin(np.pi * k / (2 * bands)) ** 2, u


def regularizer_value(x: HsiCube, xt: HsiCube, mu: float, nu: float) -> float:
    """Weighted squared penalty mu*||D(x - xt)||^2 + nu*||E(x - xt)||^2, D on x's own grid.

    The spectral term vanishes for single-band cubes.
    """
    mu, nu = check_real("mu", mu, allow_zero=True), check_real("nu", nu, allow_zero=True)
    check_shape("xt", xt.data.shape, x.data.shape)
    diff = x.data - xt.data
    value = mu * float(np.sum(LaplacianOperator.create(x.height, x.width).apply_array(diff) ** 2))
    if x.bands > 1:
        value += nu * float(np.sum(spectral_diff_apply_array(diff) ** 2))
    return value
