"""Hyperspectral cube containers, per-band 2-D DFTs and circular convolution.

A cube is stored band-major as a float64 array of shape (bands, height, width).
The matricized view has one row per band and one column per pixel, with pixel
index p = row * width + col, so flattening a cube band-major and stacking the
rows of the matricized form describe the same vector.

Every 2-D DFT of the package is made here, each looked up on ``np.fft`` at
call time. Transforms use the unnormalized forward DFT; the inverse carries
the full 1/(height*width) factor. A cube is real, so its spectrum is held as
the half spectrum of ``np.fft.rfftn``: columns 0..width//2 of every band,
shape (bands, height, width//2 + 1). Every other column is the conjugate
mirror of a stored one, bin (r, c) of bin (-r, -c) modulo the grid, so a
Parseval sum counts each stored column that has a mirror twice (all but
``self_mirrored(width)``). ``rdft2``/``dft2_per_band`` and
``idft2_per_band`` are that transform pair. The full complex ``dft2`` stays
for the spectra used whole: blur multipliers (an aliasing group spans every
column), the small low-resolution y, and ``circular_convolve``'s buffer,
which it filters and transforms back in place.

Cubes are immutable once constructed: every operation returns a new
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
    "half_spectrum",
    "idft2_per_band",
    "rdft2",
    "self_mirrored",
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
    """Half spectrum of a real cube: complex128, band-major.

    ``data`` has shape (bands, height, width//2 + 1). ``width`` is the cube's,
    which the stored column count alone does not determine.
    """

    data: np.ndarray
    width: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != 3:
            raise ValidationError(
                f"frequency data must have shape (bands, height, width//2 + 1), got {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise ValidationError(f"cube dimensions must all be at least 1, got {arr.shape}")
        width = check_int("width", self.width, 1)
        if arr.shape[2] != width // 2 + 1:
            raise ValidationError(
                f"{arr.shape[2]} stored columns do not match width {width} "
                f"(expected {width // 2 + 1})"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("frequency coefficients must be finite")
        arr = np.ascontiguousarray(arr)
        object.__setattr__(self, "data", _freeze(arr))
        object.__setattr__(self, "width", width)


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


def rdft2(data: np.ndarray) -> np.ndarray:
    """Half spectrum of real ``data`` over the last two axes, in one new complex buffer."""
    out = np.empty(data.shape[:-1] + (data.shape[-1] // 2 + 1,), dtype=np.complex128)
    return np.fft.rfftn(data, axes=(-2, -1), out=out)


def half_spectrum(full: np.ndarray) -> np.ndarray:
    """The stored columns of a full spectrum over the last two axes, as a contiguous copy."""
    return np.ascontiguousarray(full[..., : full.shape[-1] // 2 + 1])


def self_mirrored(width: int) -> list[int]:
    """Stored columns that are their own mirror: 0, and width//2 when width is even."""
    return [0, width // 2] if width % 2 == 0 else [0]


def dft2_per_band(cube: HsiCube) -> FreqCube:
    """Unnormalized 2-D DFT of each band, as the half spectrum.

    Coefficient (0, 0) of each band equals the sum over that band.
    """
    return FreqCube(rdft2(cube.data), cube.width)


def idft2_per_band(fc: FreqCube) -> HsiCube:
    """Inverse per-band DFT of a half spectrum that should come from a real cube.

    ``np.fft.irfftn`` writes the real cube directly. Only the self-mirrored
    columns can break conjugate symmetry, and a full inverse would turn that
    break into an imaginary residue; it is measured on those columns,
    relative to max(1, peak real magnitude), and discarded when small.

    Raises:
        SymmetryViolationError: imaginary residue exceeds ``_IMAG_TOL``.
    """
    spec = fc.data
    height, width = spec.shape[1], fc.width
    # a self-mirrored column c adds exp(2j*pi*c*j/width)/width, which is +-1/width,
    # times its inverse over rows to pixel column j, so the worst pixel
    # carries the sum of the columns' imaginary parts
    rows = np.fft.ifft(spec[..., self_mirrored(width)], axis=-2)
    resid = float(np.abs(rows.imag).sum(axis=-1).max()) / width
    real = np.empty(spec.shape[:2] + (width,), dtype=np.float64)
    np.fft.irfftn(spec, s=(height, width), axes=(-2, -1), out=real)
    # the scale is at least 1, so a residue within the tolerance needs no peak scan
    if resid > _IMAG_TOL:
        scale = max(1.0, float(real.max()), -float(real.min()))
        if resid / scale > _IMAG_TOL:
            raise SymmetryViolationError(
                f"inverse transform has imaginary residue {resid / scale:.3e} "
                f"(tolerance {_IMAG_TOL:.1e}); input was not the spectrum of a real cube"
            )
    return HsiCube(real)


def column_blocks(n: int) -> list[slice]:
    """Slices that cover ``range(n)`` in cache-sized blocks of spectrum columns."""
    return [slice(j, j + _BLOCK_COLUMNS) for j in range(0, n, _BLOCK_COLUMNS)]
