"""Forward degradation operators: circular blur, decimation, spectral response.

The blur applies the same 2-D kernel to every band as a circular (periodic)
convolution, evaluated in the frequency domain. A kernel is placed by its
anchor tap: output pixel (i, j) is the kernel-weighted sum of the input window
whose anchor sits on (i, j). With the anchor at the top-left tap, a k x k
uniform kernel averages the window [i, i+k) x [j, j+k), so decimation by k at
phase (0, 0) yields exact non-overlapping block means.

All three operators act on plain arrays through ``apply_array`` /
``adjoint_array`` and do not re-validate their input; ``DegradationModel``
checks a cube's full (bands, height, width) shape once at its entry point.
Adjoints are exact: for every pair <apply(x), y> == <x, adjoint(y)> up to
roundoff. ``DegradationModel`` rejects grids the decimation factor does not
divide, so every model it accepts has the aliasing-group structure the
closed-form x-step solver needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cube import HsiCube
from .errors import ValidationError

__all__ = [
    "BlurOperator",
    "Downsampler",
    "SpectralResponse",
    "DegradationModel",
]


def _embed_kernel(kernel: np.ndarray, anchor: tuple[int, int], height: int, width: int) -> np.ndarray:
    """Place kernel taps on the full grid at offsets relative to the anchor."""
    kh, kw = kernel.shape
    full = np.zeros((height, width))
    rows = (np.arange(kh) - anchor[0]) % height
    cols = (np.arange(kw) - anchor[1]) % width
    # += accumulates taps that wrap onto one grid cell when the kernel spans
    # the whole axis in a tight grid
    np.add.at(full, (rows[:, None], cols[None, :]), kernel)
    return full


@dataclass(frozen=True)
class BlurOperator:
    """Circular convolution with a fixed kernel, bound to one grid size."""

    height: int
    width: int
    kernel: np.ndarray
    anchor: tuple[int, int]
    kind: tuple
    multiplier: np.ndarray = field(repr=False)

    @classmethod
    def _build(
        cls,
        height: int,
        width: int,
        kernel: np.ndarray,
        anchor: tuple[int, int],
        kind: tuple,
        normalize: bool,
    ) -> "BlurOperator":
        kernel = np.array(kernel, dtype=np.float64)
        if kernel.ndim != 2 or min(kernel.shape) < 1:
            raise ValidationError(f"kernel must be a non-empty 2-D array, got shape {kernel.shape}")
        if height < 1 or width < 1:
            raise ValidationError(f"grid must be at least 1x1, got {height}x{width}")
        if kernel.shape[0] > height or kernel.shape[1] > width:
            raise ValidationError(
                f"kernel {kernel.shape} does not fit the {height}x{width} grid"
            )
        if not np.all(np.isfinite(kernel)):
            raise ValidationError("kernel values must be finite")
        ar, ac = anchor
        if not (0 <= ar < kernel.shape[0] and 0 <= ac < kernel.shape[1]):
            raise ValidationError(f"anchor {anchor} lies outside the kernel {kernel.shape}")
        if normalize:
            total = kernel.sum()
            if abs(total) < 1e-12:
                raise ValidationError("kernel sum is too close to zero to normalize")
            kernel = kernel / total
        embedded = _embed_kernel(kernel, (ar, ac), height, width)
        multiplier = np.conj(np.fft.fft2(embedded))
        kernel.setflags(write=False)
        multiplier.setflags(write=False)
        return cls(height, width, kernel, (ar, ac), kind, multiplier)

    @classmethod
    def uniform_block(cls, height: int, width: int, size: int) -> "BlurOperator":
        """k x k uniform kernel anchored at its top-left tap.

        Decimating the blurred image by k at phase (0, 0) then equals averaging
        each non-overlapping k x k block.
        """
        if size < 1:
            raise ValidationError(f"block size must be at least 1, got {size}")
        kernel = np.full((size, size), 1.0 / (size * size))
        return cls._build(height, width, kernel, (0, 0), ("uniform_block", size), normalize=True)

    @classmethod
    def gaussian(cls, height: int, width: int, sigma: float, support: int | None = None) -> "BlurOperator":
        """Isotropic Gaussian kernel, center-anchored, truncated to odd support."""
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValidationError(f"sigma must be positive, got {sigma!r}")
        if support is None:
            support = 2 * int(np.ceil(3.0 * sigma)) + 1
        if support < 1 or support % 2 == 0:
            raise ValidationError(f"support must be odd and positive, got {support}")
        half = support // 2
        offsets = np.arange(-half, half + 1)
        prof = np.exp(-0.5 * (offsets / sigma) ** 2)
        kernel = np.outer(prof, prof)
        return cls._build(
            height, width, kernel, (half, half), ("gaussian", float(sigma), support), normalize=True
        )

    @classmethod
    def custom(
        cls,
        height: int,
        width: int,
        kernel: np.ndarray,
        anchor: tuple[int, int] | None = None,
        normalize: bool = True,
    ) -> "BlurOperator":
        """User-supplied kernel; anchored at its center tap unless told otherwise.

        ``normalize=False`` keeps the kernel as given (the DC response then
        equals the kernel sum rather than 1).
        """
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.ndim != 2:
            raise ValidationError(f"kernel must be 2-D, got shape {kernel.shape}")
        if anchor is None:
            anchor = ((kernel.shape[0] - 1) // 2, (kernel.shape[1] - 1) // 2)
        return cls._build(height, width, kernel, anchor, ("custom",), normalize=normalize)

    def apply_array(self, data: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(np.fft.fft2(data, axes=(-2, -1)) * self.multiplier, axes=(-2, -1)).real

    def adjoint_array(self, data: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(
            np.fft.fft2(data, axes=(-2, -1)) * np.conj(self.multiplier), axes=(-2, -1)
        ).real


@dataclass(frozen=True)
class Downsampler:
    """Decimation by an integer factor at a fixed sub-pixel phase."""

    factor: int
    phase: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if int(self.factor) != self.factor or self.factor < 1:
            raise ValidationError(f"factor must be a positive integer, got {self.factor!r}")
        pr, pc = self.phase
        if not (0 <= pr < self.factor and 0 <= pc < self.factor):
            raise ValidationError(
                f"phase {self.phase} must lie in [0, {self.factor}) on both axes"
            )

    def _check_divisible(self, height: int, width: int) -> None:
        if height % self.factor or width % self.factor:
            raise ValidationError(
                f"factor {self.factor} does not divide the {height}x{width} grid"
            )

    def apply_array(self, data: np.ndarray) -> np.ndarray:
        self._check_divisible(data.shape[-2], data.shape[-1])
        pr, pc = self.phase
        return data[..., pr :: self.factor, pc :: self.factor]

    def adjoint_array(self, data: np.ndarray) -> np.ndarray:
        s = self.factor
        pr, pc = self.phase
        out = np.zeros(data.shape[:-2] + (data.shape[-2] * s, data.shape[-1] * s), dtype=data.dtype)
        out[..., pr::s, pc::s] = data
        return out


@dataclass(frozen=True)
class SpectralResponse:
    """Linear band-mixing matrix with non-negative rows normalized to sum 1."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise ValidationError(f"response matrix must be 2-D, got shape {mat.shape}")
        out_bands, in_bands = mat.shape
        if out_bands < 1:
            raise ValidationError("response matrix needs at least one output band")
        if out_bands >= in_bands:
            raise ValidationError(
                f"response must reduce bands: got {out_bands} outputs from {in_bands} inputs"
            )
        if not np.all(np.isfinite(mat)):
            raise ValidationError("response entries must be finite")
        if np.any(mat < 0):
            raise ValidationError("response entries must be non-negative")
        sums = mat.sum(axis=1)
        if np.any(sums < 1e-12):
            bad = int(np.argmin(sums))
            raise ValidationError(f"response row {bad} sums to zero and cannot be normalized")
        mat = mat / sums[:, None]
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def default_rgb(
        cls,
        in_bands: int,
        lo_nm: float = 400.0,
        hi_nm: float = 700.0,
        sigma_nm: float = 40.0,
    ) -> "SpectralResponse":
        """Three Gaussian bands at 650/550/450 nm over a uniform channel grid."""
        if in_bands < 4:
            raise ValidationError(
                f"default RGB response needs at least 4 input bands, got {in_bands}"
            )
        centers_nm = np.array([650.0, 550.0, 450.0])
        grid = np.linspace(lo_nm, hi_nm, in_bands)
        mat = np.exp(-0.5 * ((grid[None, :] - centers_nm[:, None]) / sigma_nm) ** 2)
        return cls(mat)

    @property
    def out_bands(self) -> int:
        return self.matrix.shape[0]

    @property
    def in_bands(self) -> int:
        return self.matrix.shape[1]

    def apply_array(self, data: np.ndarray) -> np.ndarray:
        return np.tensordot(self.matrix, data, axes=(1, 0))

    def adjoint_array(self, data: np.ndarray) -> np.ndarray:
        return np.tensordot(self.matrix.T, data, axes=(1, 0))


@dataclass(frozen=True)
class DegradationModel:
    """Blur + decimation on the spatial side, band mixing on the spectral side.

    ``noise_sigma`` adds seeded i.i.d. Gaussian noise to both outputs; it
    defaults to 0 so degradation is bit-reproducible.
    """

    blur: BlurOperator
    down: Downsampler
    srf: SpectralResponse
    noise_sigma: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValidationError(f"noise sigma must be non-negative, got {self.noise_sigma!r}")
        if self.blur.height % self.down.factor or self.blur.width % self.down.factor:
            raise ValidationError(
                f"factor {self.down.factor} does not divide the blur grid "
                f"{self.blur.height}x{self.blur.width}"
            )

    @property
    def bands(self) -> int:
        return self.srf.in_bands

    @property
    def hr_shape(self) -> tuple[int, int]:
        return (self.blur.height, self.blur.width)

    def degrade(self, x: HsiCube) -> tuple[HsiCube, HsiCube]:
        """Produce the low-res cube and the mixed-band image for a full cube."""
        expected = (self.bands,) + self.hr_shape
        if x.data.shape != expected:
            raise ValidationError(f"cube has shape {x.data.shape}, model expects {expected}")
        y = self.down.apply_array(self.blur.apply_array(x.data))
        z = self.srf.apply_array(x.data)
        if self.noise_sigma > 0:
            rng = np.random.default_rng(self.noise_seed)
            # draw order fixed (y then z) so a seed pins both outputs
            y = y + rng.normal(0.0, self.noise_sigma, y.shape)
            z = z + rng.normal(0.0, self.noise_sigma, z.shape)
        return HsiCube(y), HsiCube(z)
