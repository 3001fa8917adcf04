"""Hyperspectral cube containers, per-band 2-D DFTs and circular convolution.

A cube is stored band-major as a float64 array of shape (bands, height, width).
The matricized view has one row per band and one column per pixel, with pixel
index p = row * width + col, so flattening a cube band-major and stacking the
rows of the matricized form describe the same vector.

Every 2-D DFT of the package is made here (``dft2``, ``circular_convolve`` and
their cube forms), each looked up on ``np.fft`` at call time. Transforms use
the unnormalized forward DFT; the inverse carries the full 1/(height*width)
factor. Cubes are immutable once constructed: every operation returns a new
instance and the wrapped arrays are marked read-only. Wrapping takes
ownership: a float64 contiguous array passed to a cube is frozen in place
rather than copied, so pass a copy if the caller still needs to write it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SymmetryViolationError, ValidationError, check_int

__all__ = [
    "HsiCube",
    "FreqCube",
    "circular_convolve",
    "column_blocks",
    "dft2",
    "dft2_per_band",
    "idft2_per_band",
]

# largest imaginary residue, relative to max(1, peak real magnitude), that an
# inverse transform discards as roundoff
_IMAG_TOL = 1e-6

# frequencies per block when a loop walks a (bands, pixels) spectrum: a block
# of every band stays cache-resident
_BLOCK_COLUMNS = 1 << 13


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class HsiCube:
    """An image cube: finite float64 values, band-major layout."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValidationError(
                f"cube data must have shape (bands, height, width), got {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise ValidationError(f"cube dimensions must all be at least 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("cube values must be finite")
        arr = np.ascontiguousarray(arr)
        object.__setattr__(self, "data", _freeze(arr))

    @classmethod
    def filled(cls, bands: int, height: int, width: int, fill: float = 0.0) -> "HsiCube":
        """New cube of the given dimensions with every value set to ``fill``."""
        for name, dim in (("bands", bands), ("height", height), ("width", width)):
            check_int(name, dim, 1)
        if not np.isfinite(fill):
            raise ValidationError(f"fill value must be finite, got {fill!r}")
        return cls(np.full((bands, height, width), float(fill)))

    @classmethod
    def from_matrix(cls, mat: np.ndarray, height: int, width: int) -> "HsiCube":
        """Rebuild a cube from its (bands, pixels) matricized form."""
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2:
            raise ValidationError(f"matrix form must be 2-D, got shape {mat.shape}")
        if mat.shape[1] != height * width:
            raise ValidationError(
                f"matrix has {mat.shape[1]} columns, expected height*width = {height * width}"
            )
        return cls(mat.reshape(mat.shape[0], height, width))

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def num_pixels(self) -> int:
        return self.data.shape[1] * self.data.shape[2]

    def as_matrix(self) -> np.ndarray:
        """Read-only (bands, pixels) view; no copy."""
        return self.data.reshape(self.bands, self.num_pixels)

    def norm(self) -> float:
        """Frobenius norm over all values."""
        return float(np.linalg.norm(self.data))


@dataclass(frozen=True)
class FreqCube:
    """Per-band 2-D DFT coefficients of a cube, complex128, band-major."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != 3:
            raise ValidationError(
                f"frequency data must have shape (bands, height, width), got {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise ValidationError(f"cube dimensions must all be at least 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("frequency coefficients must be finite")
        arr = np.ascontiguousarray(arr)
        object.__setattr__(self, "data", _freeze(arr))


def dft2(data: np.ndarray) -> np.ndarray:
    """Unnormalized 2-D DFT over the last two axes, in one new complex buffer."""
    buf = np.empty(data.shape, dtype=np.complex128)
    buf[...] = data
    return np.fft.fft2(buf, axes=(-2, -1), out=buf)


def circular_convolve(data: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """``ifft2(fft2(data) * multiplier).real`` over the last two axes, in one complex buffer."""
    buf = dft2(data)
    buf *= multiplier
    # ifftn, as numpy's ifft2 drops its out= argument
    np.fft.ifftn(buf, axes=(-2, -1), out=buf)
    return buf.real


def dft2_per_band(cube: HsiCube) -> FreqCube:
    """Unnormalized 2-D DFT of each band.

    Coefficient (0, 0) of each band equals the sum over that band.
    """
    return FreqCube(dft2(cube.data))


def idft2_per_band(fc: FreqCube) -> HsiCube:
    """Inverse per-band DFT of a spectrum that should come from a real cube.

    The imaginary residue of the inverse transform is measured relative to
    max(1, peak real magnitude) and discarded when small. A residue above
    ``_IMAG_TOL`` means the coefficients were not conjugate-symmetric.

    Raises:
        SymmetryViolationError: imaginary residue exceeds ``_IMAG_TOL``.
    """
    full = np.empty_like(fc.data)
    # one output buffer keeps the transient to a single spectrum; ifftn, as
    # numpy's ifft2 drops its out= argument
    np.fft.ifftn(fc.data, axes=(-2, -1), out=full)
    real = full.real
    scale = max(1.0, float(np.abs(real).max()))
    resid = float(np.abs(full.imag).max()) / scale
    if resid > _IMAG_TOL:
        raise SymmetryViolationError(
            f"inverse transform has imaginary residue {resid:.3e} (tolerance {_IMAG_TOL:.1e}); "
            "input was not the spectrum of a real cube"
        )
    return HsiCube(real.copy())


def column_blocks(n: int) -> list[slice]:
    """Slices that cover ``range(n)`` in cache-sized blocks of spectrum columns."""
    return [slice(j, j + _BLOCK_COLUMNS) for j in range(0, n, _BLOCK_COLUMNS)]
