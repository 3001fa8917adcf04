"""Forward degradation operators: circular blur, decimation, spectral response.

The blur applies the same 2-D kernel to every band as a circular (periodic)
convolution, evaluated in the frequency domain by ``cube.circular_convolve``.
``BlurOperator.custom`` is its one builder: the uniform and Gaussian kernels
below, and the Laplacian stencil in ``gradients``, all go through it. A
kernel is placed by its anchor tap: output pixel (i, j) is the
kernel-weighted sum of the input window whose anchor sits on (i, j). With the
anchor at the top-left tap, a k x k uniform kernel averages the window
[i, i+k) x [j, j+k), so decimation by k at phase (0, 0) yields exact
non-overlapping block means.

All three operators act on plain arrays through ``apply_array`` /
``adjoint_array`` and do not re-validate their input, with one exception:
``Downsampler.apply_array`` raises ``ValidationError`` when its factor does
not divide the grid. A ``Downsampler`` is bound to no grid and is applied to
arrays on its own, outside any ``DegradationModel`` (acceptance criterion 1
does so); slicing would otherwise drop the remainder silently and leave an
untyped broadcast error to a later step. Validation lives at the entry
points: the constructors check their scalar arguments once, through
``errors.check_int``/``check_real``, and ``DegradationModel`` owns the shape
contract every solver relies on: ``check_hr`` for a high-resolution cube and
``check_data`` for the (y, z) pair. Adjoints are exact: for every pair
<apply(x), y> == <x, adjoint(y)> up to roundoff. ``DegradationModel`` rejects
grids the decimation factor does not divide, so every model it accepts has
the aliasing-group structure the closed-form x-step solver needs.
``DegradationModel.degrade`` blurs and decimates one plane per pool item
(``cube.planes``) into its low-resolution output, so it never holds a whole
blurred cube.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cube import HsiCube, circular_convolve, dft2, planes, pool_map
from .errors import ValidationError, check_int, check_real

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
    multiplier: np.ndarray = field(repr=False)

    @classmethod
    def uniform_block(cls, height: int, width: int, size: int) -> "BlurOperator":
        """k x k uniform kernel anchored at its top-left tap.

        Decimating the blurred image by k at phase (0, 0) then equals averaging
        each non-overlapping k x k block.
        """
        size = check_int("block size", size, 1)
        kernel = np.full((size, size), 1.0 / (size * size))
        return cls.custom(height, width, kernel, (0, 0))

    @classmethod
    def gaussian(cls, height: int, width: int, sigma: float, support: int | None = None) -> "BlurOperator":
        """Isotropic Gaussian kernel, center-anchored, truncated to odd support."""
        sigma = check_real("sigma", sigma)
        if support is None:
            support = 2 * int(np.ceil(3.0 * sigma)) + 1
        if check_int("support", support, 1) % 2 == 0:
            raise ValidationError(f"support must be odd, got {support}")
        half = support // 2
        offsets = np.arange(-half, half + 1)
        prof = np.exp(-0.5 * (offsets / sigma) ** 2)
        kernel = np.outer(prof, prof)
        return cls.custom(height, width, kernel, (half, half))

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
        kernel = np.array(kernel, dtype=np.float64)
        if kernel.ndim != 2 or min(kernel.shape) < 1:
            raise ValidationError(f"kernel must be a non-empty 2-D array, got shape {kernel.shape}")
        if anchor is None:
            anchor = ((kernel.shape[0] - 1) // 2, (kernel.shape[1] - 1) // 2)
        height, width = check_int("height", height, 1), check_int("width", width, 1)
        if kernel.shape[0] > height or kernel.shape[1] > width:
            raise ValidationError(
                f"kernel {kernel.shape} does not fit the {height}x{width} grid"
            )
        if not np.all(np.isfinite(kernel)):
            raise ValidationError("kernel values must be finite")
        ar, ac = anchor
        if not all(check_int("anchor", a, 0) < n for a, n in zip((ar, ac), kernel.shape)):
            raise ValidationError(f"anchor {anchor} lies outside the kernel {kernel.shape}")
        if normalize:
            total = kernel.sum()
            if abs(total) < 1e-12:
                raise ValidationError("kernel sum is too close to zero to normalize")
            kernel = kernel / total
        embedded = _embed_kernel(kernel, (ar, ac), height, width)
        multiplier = np.conj(dft2(embedded))
        kernel.setflags(write=False)
        multiplier.setflags(write=False)
        return cls(height, width, kernel, (ar, ac), multiplier)

    def apply_array(self, data: np.ndarray) -> np.ndarray:
        return circular_convolve(data, self.multiplier)

    def adjoint_array(self, data: np.ndarray) -> np.ndarray:
        return circular_convolve(data, np.conj(self.multiplier))

    def check_grid(self, cube: HsiCube) -> None:
        """Raise unless ``cube`` lies on the operator's grid."""
        if (self.height, self.width) != (cube.height, cube.width):
            raise ValidationError(
                f"operator grid {(self.height, self.width)} does not match cube grid "
                f"{(cube.height, cube.width)}"
            )


@dataclass(frozen=True)
class Downsampler:
    """Decimation by an integer factor at a fixed sub-pixel phase."""

    factor: int
    phase: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        check_int("factor", self.factor, 1)
        pr, pc = self.phase
        if not all(check_int("phase", p, 0) < self.factor for p in (pr, pc)):
            raise ValidationError(
                f"phase {self.phase} must lie in [0, {self.factor}) on both axes"
            )

    def apply_array(self, data: np.ndarray) -> np.ndarray:
        height, width = data.shape[-2:]
        if height % self.factor or width % self.factor:
            raise ValidationError(
                f"factor {self.factor} does not divide the {height}x{width} grid"
            )
        pr, pc = self.phase
        return data[..., pr :: self.factor, pc :: self.factor]

    def adjoint_array(self, data: np.ndarray) -> np.ndarray:
        s = self.factor
        pr, pc = self.phase
        out = np.zeros(data.shape[:-2] + (data.shape[-2] * s, data.shape[-1] * s), dtype=data.dtype)
        out[..., pr::s, pc::s] = data
        return out


# default_rgb's channel grid (400-700 nm) and Gaussian band shapes
_RGB_LO_NM, _RGB_HI_NM, _RGB_SIGMA_NM = 400.0, 700.0, 40.0
_RGB_CENTERS_NM = np.array([650.0, 550.0, 450.0])


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
    def default_rgb(cls, in_bands: int) -> "SpectralResponse":
        """Three Gaussian bands at 650/550/450 nm over a uniform channel grid."""
        check_int("in_bands", in_bands, 4)
        grid = np.linspace(_RGB_LO_NM, _RGB_HI_NM, in_bands)
        mat = np.exp(-0.5 * ((grid[None, :] - _RGB_CENTERS_NM[:, None]) / _RGB_SIGMA_NM) ** 2)
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
        check_real("noise sigma", self.noise_sigma, allow_zero=True)
        check_int("noise seed", self.noise_seed, 0)
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

    def check_hr(self, name: str, cube: HsiCube) -> None:
        """Raise unless ``cube`` has the high-resolution shape (bands, height, width)."""
        cube.check_shape(name, (self.bands,) + self.hr_shape)

    def check_data(self, y: HsiCube, z: HsiCube) -> None:
        """Raise unless y and z have the shapes ``degrade`` produces."""
        s = self.down.factor
        y.check_shape("y", (self.bands, self.blur.height // s, self.blur.width // s))
        z.check_shape("z", (self.srf.out_bands,) + self.hr_shape)

    def degrade(self, x: HsiCube) -> tuple[HsiCube, HsiCube]:
        """Produce the low-res cube and the mixed-band image for a full cube."""
        self.check_hr("x", x)
        y = np.empty((self.bands, *(n // self.down.factor for n in self.hr_shape)))

        def blur_down(rows: slice) -> None:
            # assigned, not kept as a view: a strided view holds its whole blurred plane
            y[rows] = self.down.apply_array(self.blur.apply_array(x.data[rows]))

        pool_map(blur_down, planes(self.bands))
        z = self.srf.apply_array(x.data)
        if self.noise_sigma > 0:
            rng = np.random.default_rng(self.noise_seed)
            # draw order fixed (y then z) so a seed pins both outputs
            y = y + rng.normal(0.0, self.noise_sigma, y.shape)
            z = z + rng.normal(0.0, self.noise_sigma, z.shape)
        return HsiCube(y), HsiCube(z)
