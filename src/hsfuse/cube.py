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
``mix_bands`` is the one band mix: a small matrix applied over the band axis
of a cube or spectrum, in place, block by block on the pool.
``rdft2`` and ``irdft2`` are that transform pair on arrays, ``dft2_per_band``
and ``idft2_per_band`` on cubes; each pool item makes one numpy call over a
stack of planes (``stacks``). ``circular_convolve`` filters on half spectra
too, one plane per item: the multiplier of a real kernel is
conjugate-symmetric, so its stored columns are all the product needs. The
full complex ``dft2`` stays for the spectra used whole: blur multipliers (an
aliasing group spans every column) and the small low-resolution y.

The package has one thread pool, and ``pool_map`` is its only entry. Every
transform of planes here and every independent block loop of the HQS
iteration (band mixes, stacks of eigen-channels, v-step blocks, ``half_sums``
blocks) runs through it. Its size is ``HSFUSE_THREADS`` when that is set,
otherwise 1, because a library caller may not have pinned its BLAS threads;
the CLI sets it to ``--threads`` or the available cores and pins BLAS to one
thread. Each item writes its own output or returns its own partial result,
and callers combine partial results in item order, so output bytes do not
depend on the pool size. A pool of 1 runs the same functions in the calling
thread, and ``concurrent.futures`` is imported only when a map first needs a
worker.
This module alone cuts work, with one private slicer under ``stacks`` (pool
items of planes or channels), ``chunks`` (the rows of one numpy call inside
an item; ``block_chunks`` in a pass over a column block), ``planes`` (pool
items of one plane each) and ``each_block`` (a function over blocks of
columns on the pool).

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
    "block_chunks",
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
    "planes",
    "pool_map",
    "pool_size",
    "rdft2",
    "stacks",
]

# largest imaginary residue, relative to max(1, peak real magnitude), that an
# inverse transform discards as roundoff
_IMAG_TOL = 1e-6

# frequencies per block when a loop walks a (bands, pixels) spectrum: a block
# of every band stays cache-resident, and the block temporaries that each pool
# thread's malloc arena keeps between maps stay small
_BLOCK_COLUMNS = 1 << 12

# bytes of the rows (planes, eigen-channels, member rows) that one numpy call
# takes (``chunks``, ``stacks``): small grids batch their per-call overhead away,
# while a stack stays cache-sized and bounds the temporaries that a call
# allocates, such as an inverse transform's complex copy of its stack
_STACK_BYTES = 1 << 18

# the package's executor and its worker count, made by the first map that
# needs a worker and replaced when the pool size changes
_pool_lock = threading.Lock()
_pool = None
_pool_workers = 0


def _freeze_data(cube: "HsiCube | FreqCube", dtype: type) -> None:
    """Check ``cube.data`` is 3-D, non-empty and finite; freeze it as contiguous ``dtype``."""
    arr = np.asarray(cube.data, dtype=dtype)
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

    @property
    def num_pixels(self) -> int:
        return self.data.shape[1] * self.data.shape[2]

    def as_matrix(self) -> np.ndarray:
        """Read-only (bands, pixels) view; no copy."""
        return self.data.reshape(self.bands, self.num_pixels)

    def norm(self) -> float:
        """Frobenius norm over all values."""
        return float(np.linalg.norm(self.data))

    def check_shape(self, name: str, expected: tuple[int, ...]) -> None:
        """Raise ``ValidationError`` naming the cube ``name`` unless its shape is ``expected``."""
        check_shape(name, self.data.shape, expected)


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


def _submit(workers: int, fn: Callable[[], None], count: int) -> list:
    """Queue ``count`` calls of ``fn`` on the package's executor of ``workers`` threads.

    The executor is made on first use and replaced when ``workers`` changes;
    a replaced one still runs what was queued on it. Submitting under the
    lock keeps a replacement from shutting an executor between its lookup
    and the submit.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool_workers != workers:
            from concurrent.futures import ThreadPoolExecutor

            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="hsfuse")
            _pool_workers = workers
        return [_pool.submit(fn) for _ in range(count)]


def pool_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, run on the package's thread pool.

    ``pool_size()`` threads, the calling one among them, take the next
    unclaimed item until none is left. Each result lands at its item's
    index, so the list does not depend on the pool size or on which thread
    ran what. An error raised by ``fn`` is raised here once every thread has
    stopped.
    """
    results = [None] * len(items)
    claim = itertools.count()
    lock = threading.Lock()
    # emptied once the map is over: an executor thread holds a finished or
    # cancelled share a moment longer, and through it this closure, which
    # must not keep fn's inputs alive past the map
    task = [fn, items]

    def drain() -> None:
        fn, items = task
        while True:
            with lock:
                i = next(claim)
            if i >= len(items):
                return
            results[i] = fn(items[i])

    size = pool_size()
    helpers = min(size, len(items)) - 1
    futures = _submit(size - 1, drain, helpers) if helpers > 0 else []
    try:
        drain()
    finally:
        # a share no worker has started finds nothing left to take; cancelling
        # it keeps a map run from a worker from waiting on its own pool
        errors = [f.exception() for f in futures if not f.cancel()]
        task.clear()
    for error in errors:
        if error is not None:
            raise error
    return results


def _slices(rows: int, per: int) -> list[slice]:
    """Slices of ``per`` rows (at least 1; the last may hold fewer) that cover ``range(rows)``."""
    per = max(1, per)
    return [slice(i, i + per) for i in range(0, rows, per)]


def chunks(rows: int, row_bytes: int) -> list[slice]:
    """Slices of ``range(rows)`` for one numpy call each, inside one pool item.

    A chunk holds as many rows as fit ``_STACK_BYTES``, or 1, whatever the pool size.
    """
    return _slices(rows, _STACK_BYTES // row_bytes)


def block_chunks(rows: int) -> list[slice]:
    """``chunks`` of float64 rows of a full block (8 at the default cap), for every block alike."""
    return chunks(rows, 8 * _BLOCK_COLUMNS)


def planes(count: int) -> list[slice]:
    """One slice per plane of ``range(count)``: pool items whose temporaries grow with the item."""
    return _slices(count, 1)


def stacks(rows: int, row_bytes: int) -> list[slice]:
    """Slices that cover ``range(rows)``, each a stack of rows for one pool item.

    A stack holds no more rows than a ``chunks`` stack; whenever there are
    ``pool_size()`` rows there are at least that many stacks, so no thread of
    the pool idles.
    """
    return _slices(rows, min(_STACK_BYTES // row_bytes, rows // pool_size()))


def _each_stack(fn: Callable[..., object], items: list[slice], *arrays: np.ndarray) -> None:
    """``fn(*stacks)`` for each slice in ``items`` of the arrays' 2-D planes, on the pool.

    The arrays share their leading shape, flattened into one axis of planes
    that ``items`` slices. An output array must be contiguous, so that its
    stack view is written in place.
    """
    planes = [a.reshape((-1,) + a.shape[-2:]) for a in arrays]
    pool_map(lambda rows: fn(*[p[rows] for p in planes]), items)  # a list: see each_block


def _spectrum_stacks(spec: np.ndarray) -> list[slice]:
    """``stacks`` of the planes of a half spectrum."""
    count = spec.size // (spec.shape[-2] * spec.shape[-1])
    return stacks(count, spec.nbytes // count)


def dft2(data: np.ndarray) -> np.ndarray:
    """Unnormalized 2-D DFT over the last two axes, in one new complex buffer."""
    buf = np.empty(data.shape, dtype=np.complex128)
    buf[...] = data
    return np.fft.fft2(buf, axes=(-2, -1), out=buf)


def circular_convolve(data: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """``ifft2(fft2(data) * multiplier).real`` over the last two axes of real ``data``.

    ``multiplier`` is the (height, width) spectrum of a real kernel, so the
    product of each plane's half spectrum with its stored columns is the half
    spectrum of the result. Each plane is filtered in its own half-size buffer
    and transformed back into the new real output, one plane per pool item
    rather than a stack: ``irfftn`` allocates a complex temporary as large as
    its whole input, so a stack of planes would hold that many complex
    buffers at once.
    """
    height, width = data.shape[-2:]
    half = multiplier[..., : width // 2 + 1]
    out = np.empty(data.shape, dtype=np.float64)

    def plane(src: np.ndarray, dst: np.ndarray) -> None:
        spec = np.fft.rfftn(src, axes=(-2, -1))
        spec *= half
        # irfftn, as numpy's irfft2 drops its out= argument
        np.fft.irfftn(spec, s=(height, width), axes=(-2, -1), out=dst)

    _each_stack(plane, planes(data.size // (height * width)), data, out)
    return out


def rdft2(data: np.ndarray) -> np.ndarray:
    """Half spectrum of real ``data`` over the last two axes, in one new complex buffer."""
    out = np.empty(data.shape[:-1] + (data.shape[-1] // 2 + 1,), dtype=np.complex128)
    _each_stack(
        lambda src, dst: np.fft.rfftn(src, axes=(-2, -1), out=dst), _spectrum_stacks(out), data, out
    )
    return out


def irdft2(spec: np.ndarray, width: int) -> np.ndarray:
    """Inverse of ``rdft2`` for a ``width``-column grid, into one new real array.

    ``np.fft.irfftn`` writes the real result directly, one call per stack of
    planes (``stacks``), whose complex temporary the stack's size bounds.
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
        _spectrum_stacks(spec),
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
    blocks = _slices(arrays[0].shape[-1], _BLOCK_COLUMNS)
    # a list, not a generator: CPython builds a generator's argument tuple at a
    # guessed size and shrinks it, and the shrunk tuples pile up on a free list
    return pool_map(lambda cols: fn(*[a[..., cols] for a in arrays]), blocks)


def mix_bands(
    mat: np.ndarray, spec: np.ndarray, add: tuple[np.ndarray, np.ndarray] | None = None
) -> None:
    """``spec <- mat @ spec``, plus ``m @ s`` when ``add = (m, s)``, over the band axis in place.

    ``spec`` is contiguous, real or complex, and ``s`` shares its dtype and
    trailing size. A real matrix mixes real and imaginary parts alike, so a
    spectrum is mixed as its real view, one block of columns per pool item.
    """

    def real(a: np.ndarray) -> np.ndarray:
        return a.reshape(a.shape[0], -1).view(np.float64)

    def mix(out: np.ndarray, *s: np.ndarray) -> None:
        block = mat @ out
        if not s:
            out[...] = block
            return
        # ``m @ s`` is written straight into the spectrum: adding it through a
        # second block-sized temporary made this pass 3x slower at 31x64x64
        np.matmul(add[0], s[0], out=out)
        out += block

    each_block(mix, real(spec), *(() if add is None else (real(add[1]),)))


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
