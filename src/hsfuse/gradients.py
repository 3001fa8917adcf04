"""Spatial and spectral penalty operators for the smoothness regularizer.

The spatial term applies a 4-neighbour Laplacian stencil circularly to every
band. Its frequency response is real for the symmetric default stencil, with
value 0 at DC and maximum 8 at Nyquist; quadratic forms only ever consume the
squared magnitude, which stays real for any kernel.

The spectral term is the first difference along the band axis, a (B-1) x B
banded map. It is deliberately not wrapped circularly: band 1 and band B are
not neighbours. Its normal matrix is tridiagonal with diagonal (1, 2, ..., 2, 1)
and off-diagonals -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import HsiCube
from .degradation import _embed_kernel
from .errors import ValidationError

__all__ = [
    "LAPLACIAN_KERNEL",
    "LaplacianOperator",
    "TridiagMatrix",
    "spectral_diff_apply_array",
    "spectral_diff_adjoint_array",
    "spectral_gram_apply_array",
    "spectral_gram_tridiag",
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
class LaplacianOperator:
    """Per-band circular convolution with a small high-pass stencil."""

    height: int
    width: int
    kernel: np.ndarray
    multiplier: np.ndarray
    response_sq: np.ndarray

    @classmethod
    def create(cls, height: int, width: int, kernel: np.ndarray | None = None) -> "LaplacianOperator":
        if kernel is None:
            kernel = LAPLACIAN_KERNEL
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.ndim != 2 or min(kernel.shape) < 1:
            raise ValidationError(f"stencil must be a non-empty 2-D array, got {kernel.shape}")
        if not np.all(np.isfinite(kernel)):
            raise ValidationError("stencil values must be finite")
        if height < 1 or width < 1:
            raise ValidationError(f"grid must be at least 1x1, got {height}x{width}")
        if kernel.shape[0] > height or kernel.shape[1] > width:
            raise ValidationError(f"stencil {kernel.shape} does not fit the {height}x{width} grid")
        anchor = ((kernel.shape[0] - 1) // 2, (kernel.shape[1] - 1) // 2)
        embedded = _embed_kernel(kernel, anchor, height, width)
        multiplier = np.conj(np.fft.fft2(embedded))
        response_sq = (multiplier * np.conj(multiplier)).real
        kernel = kernel.copy()
        kernel.setflags(write=False)
        multiplier.setflags(write=False)
        response_sq.setflags(write=False)
        return cls(height, width, kernel, multiplier, response_sq)

    def apply_array(self, data: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(np.fft.fft2(data, axes=(-2, -1)) * self.multiplier, axes=(-2, -1)).real


def spectral_diff_apply_array(data: np.ndarray) -> np.ndarray:
    if data.shape[0] < 2:
        raise ValidationError("spectral difference needs at least 2 bands")
    return data[1:] - data[:-1]


def spectral_diff_adjoint_array(data: np.ndarray) -> np.ndarray:
    out = np.zeros((data.shape[0] + 1,) + data.shape[1:], dtype=data.dtype)
    out[:-1] -= data
    out[1:] += data
    return out


def spectral_gram_apply_array(data: np.ndarray) -> np.ndarray:
    """Normal-matrix action of the band difference, valid for 1 band as well."""
    if data.shape[0] == 1:
        return np.zeros_like(data)
    return spectral_diff_adjoint_array(spectral_diff_apply_array(data))


@dataclass(frozen=True)
class TridiagMatrix:
    """Symmetric-layout tridiagonal storage: diag (n,), sub/sup (n-1,)."""

    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

    def __post_init__(self) -> None:
        diag = np.asarray(self.diag, dtype=np.float64)
        sub = np.asarray(self.sub, dtype=np.float64)
        sup = np.asarray(self.sup, dtype=np.float64)
        n = diag.shape[0]
        if diag.ndim != 1 or n < 1:
            raise ValidationError("diagonal must be a non-empty 1-D array")
        if sub.shape != (max(n - 1, 0),) or sup.shape != (max(n - 1, 0),):
            raise ValidationError(
                f"off-diagonals must have length {n - 1}, got {sub.shape} and {sup.shape}"
            )
        for arr, name in ((diag, "diag"), (sub, "sub"), (sup, "sup")):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} values must be finite")
            arr.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "sup", sup)

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def to_dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        if self.n > 1:
            out += np.diag(self.sub, -1) + np.diag(self.sup, 1)
        return out


def spectral_gram_tridiag(bands: int) -> TridiagMatrix:
    """Tridiagonal normal matrix of the band difference operator."""
    if bands < 2:
        raise ValidationError(f"spectral difference needs at least 2 bands, got {bands}")
    diag = np.full(bands, 2.0)
    diag[0] = diag[-1] = 1.0
    off = np.full(bands - 1, -1.0)
    return TridiagMatrix(diag, off, off.copy())


def regularizer_value(
    x: HsiCube,
    xt: HsiCube,
    mu: float,
    nu: float,
    lap: LaplacianOperator | None = None,
) -> float:
    """Weighted squared penalty mu*||D(x - xt)||^2 + nu*||E(x - xt)||^2.

    The spectral term vanishes for single-band cubes.
    """
    for name, w in (("mu", mu), ("nu", nu)):
        if not (np.isfinite(w) and w >= 0):
            raise ValidationError(f"{name} must be non-negative and finite, got {w!r}")
    if x.data.shape != xt.data.shape:
        raise ValidationError(f"cube shapes differ: {x.data.shape} vs {xt.data.shape}")
    if lap is None:
        lap = LaplacianOperator.create(x.height, x.width)
    diff = x.data - xt.data
    value = mu * float(np.sum(lap.apply_array(diff) ** 2))
    if x.bands > 1:
        value += nu * float(np.sum(spectral_diff_apply_array(diff) ** 2))
    return value
