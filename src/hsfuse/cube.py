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
Parseval sum counts each stored column that has a mirror twice: all but
column 0 and, for an even width, column width//2. ``half_sums`` is the one
place that rule lives; it sums over blocks of stored columns on the pool.
``mix_bands`` is the one full band mix in place: a small matrix applied
over the band axis of a cube or spectrum, block by block on the pool, which
walks a spectrum as its ``real_rows`` view. The band updates of
``sylvester`` and ``priors`` that write into an array walk it the same way,
each through ``each_block`` with its own product.
``rdft2`` and ``irdft2`` are that transform pair on arrays, ``dft2_per_band``
and ``idft2_per_band`` on cubes; each pool item makes one numpy call over a
chunk of planes (``chunks``). ``circular_convolve`` filters on half spectra
too, one plane per item in one half-spectrum buffer: the multiplier of a
real kernel is conjugate-symmetric, so its stored columns are all the
product needs. The full complex ``dft2`` stays for the spectra used whole: blur multipliers (an
aliasing group spans every column) and the small low-resolution y.

``pool_map`` is the package's only parallelism. Every transform of planes
here and every independent block loop of the HQS iteration (band mixes,
chunks of eigen-channels, v-step blocks, ``half_sums`` blocks) runs through
it. Its pool size is ``HSFUSE_THREADS`` when that is set, otherwise 1,
because a library caller may not have pinned its BLAS threads; the CLI sets
it to ``--threads`` or the available cores and pins BLAS to one thread. A map
runs on the calling thread and on helper threads that it starts and joins
itself, so no thread outlives a map. Each item writes its own output or
returns its own partial result, and callers combine partial results in item
order, so output bytes do not depend on the pool size. A pool of 1 runs the
same functions in the calling thread alone. ``serial`` makes a function that
pool items share, such as the reads or writes of one open file, run for one
item at a time.
This module alone cuts work, by shape, never by the pool size, with one
private slicer under two rules: ``chunks`` (the rows of one numpy call: a
pool item of planes or channels, or a call inside one, such as a chunk of
bands of one column block) and ``blocks`` (pool items of a block of pixels
or frequencies, which ``each_block`` walks on the pool). A block starts on
a multiple of ``_BLOCK_COLUMNS`` and ends on one or at the last column, so
a GEMM cut into blocks of columns gives the bits of the whole product
(checked with numpy 2.4's OpenBLAS, whose GEMM gives other bits for blocks
cut at columns that are not multiples of 8).

Cubes are immutable once constructed: every operation returns a new
instance and the wrapped arrays are marked read-only. Wrapping takes
ownership: a float64 contiguous array passed to a cube is frozen in place
rather than copied, so pass a copy if the caller still needs to write it.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SymmetryViolationError, ValidationError, check_int

__all__ = [
    "HsiCube",
    "FreqCube",
    "blocks",
    "check_shape",
    "chunks",
    "circular_convolve",
    "dft2",
    "dft2_per_band",
    "each_block",
    "half_spectrum",
    "half_sums",
    "idft2_per_band",
    "irdft2",
    "mix_bands",
    "pool_map",
    "pool_size",
    "rdft2",
    "real_rows",
    "serial",
]

# largest imaginary residue, relative to max(1, peak real magnitude), that an
# inverse transform discards as roundoff
_IMAG_TOL = 1e-6

# frequencies per block when a loop walks a (bands, pixels) spectrum: a block
# of every band stays cache-resident, and the block temporaries that each pool
# thread's malloc arena keeps between maps stay small
_BLOCK_COLUMNS = 1 << 12

# bytes of the rows (planes, eigen-channels, member rows) that one numpy call
# takes (``chunks``): small grids batch their per-call overhead away, while a
# chunk stays cache-sized and bounds the temporaries that a call allocates,
# such as an inverse transform's complex copy of its chunk
_CHUNK_BYTES = 1 << 18

def _freeze_data(cube: "HsiCube | FreqCube", dtype: type) -> None:
    """Check ``cube.data`` is 3-D, non-empty and finite; freeze it as contiguous ``dtype``.

    Data whose dtype does not cast to ``dtype`` under numpy's ``same_kind``
    rule (complex into float64, text, datetimes) is refused, not converted.
    """
    arr = np.asarray(cube.data)
    if not np.can_cast(arr.dtype, dtype, "same_kind"):
        raise ValidationError(f"cube data of dtype {arr.dtype} does not cast to {np.dtype(dtype)}")
    arr = arr.astype(dtype, copy=False)
    if arr.ndim != 3 or min(arr.shape) < 1:
        raise ValidationError(
            f"cube data must be 3-D with every dimension at least 1, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("cube values must be finite")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    object.__setattr__(cube, "data", arr)


@dataclass(frozen=True)
class HsiCube:
    """An image cube: finite float64 values, band-major layout."""

    data: np.ndarray

    def __post_init__(self) -> None:
        _freeze_data(self, np.float64)

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def as_matrix(self) -> np.ndarray:
        """Read-only (bands, pixels) view; no copy."""
        return self.data.reshape(self.bands, -1)

    def norm(self) -> float:
        """Frobenius norm over all values."""
        return float(np.linalg.norm(self.data))


def check_shape(name: str, shape: tuple[int, ...], expected: tuple[int, ...]) -> None:
    """The one shape rule, also for a cube known by its file header: ``shape`` must be ``expected``."""
    if shape != expected:
        raise ValidationError(f"{name} has shape {shape}, expected {expected}")


@dataclass(frozen=True)
class FreqCube:
    """Half spectrum of a real cube: complex128, band-major.

    ``data`` has shape (bands, height, width//2 + 1). ``width`` is the cube's,
    which the stored column count alone does not determine.
    """

    data: np.ndarray
    width: int

    def __post_init__(self) -> None:
        width = check_int("width", self.width, 1)
        # checked before the array is frozen, so a rejected array stays writable
        shape = np.shape(self.data)
        if len(shape) == 3 and shape[2] != width // 2 + 1:
            raise ValidationError(
                f"{shape[2]} stored columns do not match width {width} "
                f"(expected {width // 2 + 1})"
            )
        _freeze_data(self, np.complex128)
        object.__setattr__(self, "width", width)


def pool_size() -> int:
    """Threads that run each ``pool_map``, the caller's included: ``HSFUSE_THREADS``, or 1."""
    env = os.environ.get("HSFUSE_THREADS", "1")
    try:
        env = int(env)
    except ValueError:
        pass  # check_int rejects the text by name
    return check_int("HSFUSE_THREADS", env, 1)


def pool_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, run on threads of the map's own.

    Up to ``pool_size()`` threads, the calling one among them, take the next
    unclaimed item until none is left. The others are started for this map
    and joined before it returns, so nothing of ``fn`` outlives the map, and
    a map run from an item has threads of its own. Each result lands at its
    item's index, so the list does not depend on the pool size or on which
    thread ran what. The first error raised by ``fn`` is raised here once
    every thread has stopped.
    """
    results = [None] * len(items)
    errors = []
    claim = itertools.count()
    lock = threading.Lock()

    def drain() -> None:
        try:
            while True:
                with lock:
                    i = next(claim)
                if i >= len(items):
                    return
                results[i] = fn(items[i])
        except BaseException as error:  # raised below, once every thread has stopped
            errors.append(error)

    helpers = [threading.Thread(target=drain) for _ in range(min(pool_size(), len(items)) - 1)]
    try:
        for thread in helpers:
            thread.start()
        drain()
    finally:
        for thread in helpers:
            if thread.is_alive():  # not one that a failed start left unstarted
                thread.join()
    if errors:
        raise errors[0]
    return results


def serial(fn: Callable) -> Callable:
    """``fn`` behind a lock of its own, so the threads of a ``pool_map`` call it one at a time."""
    lock = threading.Lock()

    def call(*args, **kwargs):
        with lock:
            return fn(*args, **kwargs)

    return call


def _slices(rows: int, per: int) -> list[slice]:
    """Slices of ``per`` rows (at least 1; the last may hold fewer) that cover ``range(rows)``."""
    per = max(1, per)
    return [slice(i, i + per) for i in range(0, rows, per)]


def chunks(rows: int, row_bytes: int) -> list[slice]:
    """Slices of ``range(rows)`` for one numpy call each: a pool item, or a call inside one.

    A chunk holds as many rows as fit ``_CHUNK_BYTES``, or 1, whatever the pool size.
    """
    return _slices(rows, _CHUNK_BYTES // row_bytes)


def blocks(count: int) -> list[slice]:
    """Slices of ``_BLOCK_COLUMNS`` columns (the last may hold fewer) that cover ``range(count)``."""
    return _slices(count, _BLOCK_COLUMNS)


def _each_stack(fn: Callable[..., object], items: list[slice], *arrays: np.ndarray) -> None:
    """``fn`` of every array's stack of 2-D planes at each slice in ``items``, on the pool.

    The arrays share their leading shape, flattened into one axis of planes
    that ``items`` slices. An output array must be contiguous, so that its
    stack view is written in place.
    """
    planes = [a.reshape((-1,) + a.shape[-2:]) for a in arrays]
    pool_map(lambda rows: fn(*[p[rows] for p in planes]), items)  # a list: see each_block


def _spectrum_chunks(spec: np.ndarray) -> list[slice]:
    """``chunks`` of the planes of a half spectrum."""
    count = spec.size // (spec.shape[-2] * spec.shape[-1])
    return chunks(count, spec.nbytes // count)


def dft2(data: np.ndarray) -> np.ndarray:
    """Unnormalized 2-D DFT over the last two axes, in one new complex buffer."""
    buf = np.empty(data.shape, dtype=np.complex128)
    buf[...] = data
    return np.fft.fft2(buf, axes=(-2, -1), out=buf)


def circular_convolve(
    data: np.ndarray, multiplier: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``ifft2(fft2(data) * multiplier).real`` over the last two axes of real ``data``.

    ``multiplier`` is the (height, width) spectrum of a real kernel, so the
    product of each plane's half spectrum with its stored columns is the half
    spectrum of the result; only those ``width // 2 + 1`` columns are read, so
    a caller may pass them alone. Each pool item filters one plane in one
    half-size complex buffer: the row transform writes it, the column
    transforms and the product work in it, and the inverse row transform
    writes the real output. These are the calls ``np.fft.rfftn`` and
    ``irfftn`` make, in their order, so the bits are theirs, without the
    temporaries they allocate per call. The output is a new array, or the
    contiguous float64 ``out``, which may be ``data`` itself: a plane is
    transformed before its result overwrites it.
    """
    height, width = data.shape[-2:]
    half = multiplier[..., : width // 2 + 1]
    out = np.empty(data.shape, dtype=np.float64) if out is None else out

    def plane(src: np.ndarray, dst: np.ndarray) -> None:
        buf = np.empty(src.shape[:-1] + half.shape[-1:], dtype=np.complex128)
        np.fft.rfft(src, axis=-1, out=buf)
        np.fft.fft(buf, axis=-2, out=buf)
        buf *= half
        np.fft.ifft(buf, axis=-2, out=buf)
        np.fft.irfft(buf, n=width, axis=-1, out=dst)

    # one plane per item, not ``chunks``: each thread's complex buffer stays one
    # half-spectrum plane, where a chunk of small planes would hold several
    _each_stack(plane, _slices(data.size // (height * width), 1), data, out)
    return out


def rdft2(data: np.ndarray) -> np.ndarray:
    """Half spectrum of real ``data`` over the last two axes, in one new complex buffer."""
    out = np.empty(data.shape[:-1] + (data.shape[-1] // 2 + 1,), dtype=np.complex128)
    _each_stack(
        lambda src, dst: np.fft.rfftn(src, axes=(-2, -1), out=dst), _spectrum_chunks(out), data, out
    )
    return out


def irdft2(spec: np.ndarray, width: int) -> np.ndarray:
    """Inverse of ``rdft2`` for a ``width``-column grid, into one new real array.

    ``np.fft.irfftn`` writes the real result directly, one call per chunk of
    planes (``chunks``), whose complex temporary the chunk's size bounds.
    Only the self-mirrored columns can break conjugate symmetry, and a full
    inverse would turn that break into an imaginary residue; it is measured
    on those columns, relative to max(1, peak real magnitude), and discarded
    when small. A non-finite spectrum gives a non-finite result, which the
    caller's ``HsiCube`` rejects.

    Raises:
        SymmetryViolationError: imaginary residue exceeds ``_IMAG_TOL``.
    """
    height = spec.shape[-2]
    # a self-mirrored column c adds exp(2j*pi*c*j/width)/width, which is +-1/width,
    # times its inverse over rows to pixel column j, so the worst pixel
    # carries the sum of the columns' imaginary parts
    rows = np.fft.ifft(spec[..., _self_mirrored(width)], axis=-2)
    resid = float(np.abs(rows.imag).sum(axis=-1).max()) / width
    real = np.empty(spec.shape[:-1] + (width,), dtype=np.float64)
    _each_stack(
        lambda src, dst: np.fft.irfftn(src, s=(height, width), axes=(-2, -1), out=dst),
        _spectrum_chunks(spec),
        spec,
        real,
    )
    # the scale is at least 1, so a residue within the tolerance needs no peak scan
    if resid > _IMAG_TOL:
        scale = max(1.0, float(real.max()), -float(real.min()))
        if resid / scale > _IMAG_TOL:
            raise SymmetryViolationError(
                f"inverse transform has imaginary residue {resid / scale:.3e} "
                f"(tolerance {_IMAG_TOL:.1e}); input was not the spectrum of a real cube"
            )
    return real


def half_spectrum(full: np.ndarray) -> np.ndarray:
    """The stored columns of a full spectrum over the last two axes, as a contiguous copy."""
    return np.ascontiguousarray(full[..., : full.shape[-1] // 2 + 1])


def _self_mirrored(width: int) -> list[int]:
    """Stored columns that are their own mirror: 0, and width//2 when width is even."""
    return [0, width // 2] if width % 2 == 0 else [0]


def dft2_per_band(cube: HsiCube) -> FreqCube:
    """Unnormalized 2-D DFT of each band, as the half spectrum.

    Coefficient (0, 0) of each band equals the sum over that band.
    """
    return FreqCube(rdft2(cube.data), cube.width)


def idft2_per_band(fc: FreqCube) -> HsiCube:
    """Inverse per-band DFT of a half spectrum that should come from a real cube (``irdft2``).

    Raises:
        SymmetryViolationError: imaginary residue exceeds ``_IMAG_TOL``.
    """
    return HsiCube(irdft2(fc.data, fc.width))


def each_block(fn: Callable, *arrays: np.ndarray) -> list:
    """``fn`` of each block of ``_BLOCK_COLUMNS`` columns of the arrays, on the pool.

    The arrays share the length of their last axis, which the blocks slice;
    ``fn`` takes one view per array, over the same columns, and the results
    come back in block order.
    """
    # a list, not a generator: CPython builds a generator's argument tuple at a
    # guessed size and shrinks it, and the shrunk tuples pile up on a free list
    return pool_map(lambda cols: fn(*[a[..., cols] for a in arrays]), blocks(arrays[0].shape[-1]))


def real_rows(a: np.ndarray) -> np.ndarray:
    """Contiguous ``a`` as a (a.shape[0], values) float64 view; a complex value is two floats."""
    return a.reshape(a.shape[0], -1).view(np.float64)


def mix_bands(mat: np.ndarray, spec: np.ndarray) -> None:
    """``spec <- mat @ spec`` over the band axis, in place.

    ``spec`` is contiguous, real or complex. A real matrix mixes real and
    imaginary parts alike, so a spectrum is mixed as its real view, one
    block of columns per pool item.
    """

    def mix(out: np.ndarray) -> None:
        out[...] = mat @ out

    each_block(mix, real_rows(spec))


def half_sums(fn: Callable, arrays: Sequence[np.ndarray], width: int):
    """A sum over the full spectra of a ``width``-column grid, from their half spectra.

    Each array holds stored columns in its last two axes, (height,
    width//2 + 1), and is flattened over them. The arrays may differ in
    leading shape: a (height, width//2 + 1) table can sit beside (bands,
    height, width//2 + 1) spectra, for the stored blocks and the
    self-mirrored columns alike. ``fn`` takes one slice of every flattened
    array, over the same columns and with a contiguous last axis (so a
    complex slice can be viewed as floats; a table's slice is 1-D), and
    returns their sum (a number or an array of sums). It runs on each
    ``each_block`` block on the pool, and the block sums are added in
    block order. Every stored column but the self-mirrored ones stands for
    itself and its mirror, so with ``own``, ``fn`` of the self-mirrored
    columns alone, the full sum is ``2*stored - own``. This is the one
    place that rule lives.
    """
    stored = sum(each_block(fn, *(a.reshape(a.shape[:-2] + (-1,)) for a in arrays)))
    cols = _self_mirrored(width)
    own = fn(*[np.ascontiguousarray(a[..., cols]).reshape(a.shape[:-2] + (-1,)) for a in arrays])
    return 2 * stored - own
