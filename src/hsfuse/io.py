"""File formats: raw cube container, SRF tables, and error-map images.

Cube container layout, front to back:

* 4 magic bytes ``HSRC``
* one line of JSON (terminated by a newline) with keys ``bands``, ``height``,
  ``width`` (JSON integers), ``dtype`` ("f64" or "f32"), ``layout``
  ("band-major"), and an optional two-element ``scale``
* the raw little-endian payload, exactly bands*height*width values

The package writes f64 cubes and reads f64 or f32 ones, since cubes may come
from other tools; SRF tables are only read. A cube is written whole by
``save_cube`` or block by block of pixels by ``save_blocks``, which writes
each band's segment of a block at its offset and refuses a non-finite block,
so the package never writes a cube that ``load_cube`` rejects. ``load_cube``
reads a whole cube; every other read goes through ``open_cube``, which gives
a cube or a cube file the same reads, of a band or of every band at a block
of pixels. A read given ``out`` fills it, from either; without it, a file's
read gives a new array and a cube's a read-only view. A file's reads come
from a ``BandReader``, which checks each as float64 and finite, so a read of
every band rejects each file the whole read rejects. Writes are
bit-reproducible for equal inputs. Every file the package writes (cubes and
error maps here; the CLI's manifests and reports) goes through
``write_atomic`` or its temp file: a sibling temp file renamed onto the
target, so a failed write leaves the previous file in place. Error maps are
binary P5 graymaps scaling |difference| linearly so ``max_error`` maps to
255, with round-half-up quantization.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .cube import HsiCube, blocks, check_shape, pool_map, serial
from .degradation import SpectralResponse
from .errors import (
    BadMagicError,
    CubeFormatError,
    TruncatedPayloadError,
    UnknownDtypeError,
    ValidationError,
    check_int,
    check_real,
)

__all__ = [
    "MAGIC",
    "save_cube",
    "save_blocks",
    "load_cube",
    "BandReader",
    "open_cube",
    "write_atomic",
    "load_srf_csv",
    "export_error_map",
    "band_index_for_wavelength",
]

MAGIC = b"HSRC"

_DTYPES = {"f64": "<f8", "f32": "<f4"}


@contextlib.contextmanager
def _atomic(path: str | Path):
    """The open binary temp file that becomes ``path`` when the block succeeds (``write_atomic``)."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def write_atomic(path: str | Path, *chunks: bytes | memoryview) -> None:
    """Write the bytes-like ``chunks`` to ``path`` through a sibling temp file and ``os.replace``.

    A chunk may be a memoryview of an array's own buffer, which is written
    without a copy.

    Readers see the previous file or the complete new one, never a partial
    write. On failure the temp file is removed and ``path`` is left as it was;
    an OS error is raised again with its errno (so its ``OSError`` subclass)
    and ``path``, not the temp file the caller never named. The new file gets
    the usual mode of a file created by ``open``.
    """
    with _atomic(path) as fh:
        for chunk in chunks:
            fh.write(chunk)


def _header(shape: tuple[int, int, int], scale: tuple[float, float] | None) -> bytes:
    """The magic and header line of an f64 cube of ``shape``; ``scale`` is checked here."""
    header: dict = dict(zip(("bands", "height", "width"), shape), dtype="f64", layout="band-major")
    if scale is not None:
        lo, hi = float(scale[0]), float(scale[1])
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise ValidationError(f"scale must be a finite (lo, hi) pair with hi > lo, got {scale!r}")
        header["scale"] = [lo, hi]
    return MAGIC + json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n"


def save_cube(path: str | Path, cube: HsiCube, scale: tuple[float, float] | None = None) -> None:
    """Write a cube as f64; ``scale`` optionally records the nominal value range."""
    # the array's own buffer, not a cube-sized bytes copy of it
    payload = memoryview(np.ascontiguousarray(cube.data, dtype=_DTYPES["f64"])).cast("B")
    write_atomic(path, _header(cube.data.shape, scale), payload)


def save_blocks(
    path: str | Path,
    shape: tuple[int, int, int],
    block: Callable[[slice], np.ndarray],
    scale: tuple[float, float] | None = None,
) -> None:
    """Write the f64 cube of ``shape`` whose values at the pixels ``cols`` are ``block(cols)``.

    ``block`` gives every band at a slice of pixels (flat, row-major), as
    (bands, n) float64. It is called once per ``cube.blocks`` block, one block
    per pool item, and each band's segment is written at its offset in the
    temp file of ``write_atomic``, so the file is the one ``save_cube`` writes
    for the cube of those values, and no cube is held. A non-finite block is
    refused with ``ValidationError``, as ``HsiCube`` refuses one, and
    nothing is written to ``path``.
    """
    bands, height, width = shape
    head = _header(shape, scale)
    pixels = height * width
    with _atomic(path) as fh:

        @serial
        def write(start: int, values: np.ndarray) -> None:
            for b, segment in enumerate(values):
                fh.seek(len(head) + (b * pixels + start) * values.itemsize)
                fh.write(memoryview(segment).cast("B"))

        def put(cols: slice) -> None:
            values = np.ascontiguousarray(block(cols), dtype=_DTYPES["f64"])
            if not np.isfinite(values).all():
                raise ValidationError("cube values must be finite")
            write(cols.start, values)

        fh.write(head)
        pool_map(put, blocks(pixels))


def _open_payload(fh, path: str | Path) -> tuple[tuple[int, int, int], str]:
    """Check an open cube's magic, header and payload length; return its dims and numpy dtype."""
    if fh.read(4) != MAGIC:
        raise BadMagicError(f"{path}: missing {MAGIC!r} magic")
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise CubeFormatError(f"{path}: header line is not terminated")
    try:
        header = json.loads(line[:-1].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CubeFormatError(f"{path}: header is not one-line JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise CubeFormatError(f"{path}: header must be a JSON object")
    try:
        dims = tuple(header[key] for key in ("bands", "height", "width"))
        dtype = header["dtype"]
        layout = header["layout"]
    except KeyError as exc:
        raise CubeFormatError(f"{path}: header is missing the required key {exc}") from exc
    if not all(type(d) is int for d in dims):
        raise CubeFormatError(f"{path}: dimensions must be JSON integers, got {dims}")
    if min(dims) < 1:
        raise CubeFormatError(f"{path}: dimensions must be positive, got {dims}")
    if layout != "band-major":
        raise CubeFormatError(f"{path}: unsupported layout {layout!r}")
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise UnknownDtypeError(f"{path}: unknown dtype {dtype!r}")
    expected = dims[0] * dims[1] * dims[2] * np.dtype(_DTYPES[dtype]).itemsize
    payload = os.fstat(fh.fileno()).st_size - fh.tell()
    if payload < expected:
        raise TruncatedPayloadError(f"{path}: payload has {payload} bytes, header promises {expected}")
    if payload > expected:
        raise CubeFormatError(f"{path}: {payload - expected} trailing bytes after the payload")
    return dims, _DTYPES[dtype]


def _band(k: int, shape: tuple[int, int, int]) -> int:
    """``k`` as the index of one of the cube's bands, in ``[0, bands)``, or ``ValidationError``."""
    if check_int("band", k, 0) >= shape[0]:
        raise ValidationError(f"band {k!r} outside [0, {shape[0]})")
    return k


def _contiguous(cols: slice) -> slice:
    """``cols``, a slice of flat pixel indices, if its step is 1; else ``ValidationError``."""
    if cols.step not in (None, 1):
        raise ValidationError(f"pixel slice {cols!r} must have step 1")
    return cols


def _out(out: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    """A read's buffer: ``out`` if it is a writable C-contiguous float64 array of ``shape``.

    Without ``out``, a new such array; any other ``out`` is a ``ValidationError``.
    """
    if out is None:
        return np.empty(shape)
    got = (getattr(out, "dtype", type(out)), np.shape(out))
    if got != (np.float64, shape) or not (out.flags.c_contiguous and out.flags.writeable):
        raise ValidationError(
            f"out must be a writable C-contiguous float64 array of shape {shape}, got {got}"
        )
    return out


def _read_into(fh, values: np.ndarray, path: str | Path) -> np.ndarray:
    """Fill ``values`` from ``fh``'s next bytes; a short read is a truncated payload."""
    got = fh.readinto(memoryview(values).cast("B"))
    if got != values.nbytes:
        raise TruncatedPayloadError(f"{path}: read {got} of {values.nbytes} payload bytes")
    return values


class BandReader:
    """The cube file open as ``fh``, read a band or a block of pixels at a time, checked finite.

    ``shape`` and ``dtype`` (the payload's numpy dtype) come from the checked
    header. Reads fill float64 arrays with contiguous rows; f32 values pass
    through a row buffer of each read's own. The file is read for one call at
    a time (``cube.serial``) and the values are checked after, so pool items
    may share a reader, whose file position is all they share, and check
    their values at once.
    """

    def __init__(self, fh, path: str | Path):
        self.shape, self.dtype = _open_payload(fh, path)
        self._fh, self._path = fh, path
        self._start = fh.tell()
        self._fill = serial(self._fill_rows)

    def band(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """Band ``k`` as a float64 (height, width) plane: the contiguous ``out``, or a new one."""
        out = _out(out, self.shape[1:])
        self._rows(_band(k, self.shape) * self.shape[1] * self.shape[2], out.reshape(1, -1))
        return out

    def pixels(self, cols: slice, out: np.ndarray | None = None) -> np.ndarray:
        """Every band's values at the pixels ``cols`` (flat, row-major) as a float64 (bands, n) array."""
        part = range(self.shape[1] * self.shape[2])[_contiguous(cols)]
        out = _out(out, (self.shape[0], len(part)))
        self._rows(part.start, out)
        return out

    def _rows(self, start: int, rows: np.ndarray) -> None:
        """Fill row i of ``rows`` from value ``start`` of band i, and check them finite."""
        self._fill(start, rows)
        if not np.isfinite(rows).all():
            raise CubeFormatError(f"{self._path}: payload contains non-finite values")

    def _fill_rows(self, start: int, rows: np.ndarray) -> None:
        plane = self.shape[1] * self.shape[2]
        raw = None if self.dtype == _DTYPES["f64"] else np.empty(rows.shape[1], dtype=self.dtype)
        for i, row in enumerate(rows):
            self._fh.seek(self._start + (start + i * plane) * np.dtype(self.dtype).itemsize)
            if raw is None:
                _read_into(self._fh, row, self._path)
            else:
                row[...] = _read_into(self._fh, raw, self._path)


def _filled(view: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``view``, or ``out`` filled with its values; ``out`` must fit as a file read's must."""
    if out is None:
        return view
    _out(out, view.shape)[...] = view
    return out


class _CubeReads:
    """A cube's reads, named as a ``BandReader``'s: they fill ``out``, or give views of its data."""

    def __init__(self, cube: HsiCube):
        self.shape, self._data = cube.data.shape, cube.data

    def band(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        return _filled(self._data[_band(k, self.shape)], out)

    def pixels(self, cols: slice, out: np.ndarray | None = None) -> np.ndarray:
        return _filled(self._data.reshape(self.shape[0], -1)[:, _contiguous(cols)], out)


@contextlib.contextmanager
def open_cube(source: HsiCube | str | os.PathLike):
    """A reader of a cube or of the cube file at a path: ``shape``, ``band`` and ``pixels``.

    Given ``out``, both fill it. Without it, a file's reads (a ``BandReader``)
    give new arrays and a cube's read-only views of its data. Both take a
    band index in ``[0, bands)``, a pixel slice of step 1 and an ``out`` that
    is a writable C-contiguous float64 array of the read's shape, and raise
    ``ValidationError`` for any other before reading.
    """
    if isinstance(source, HsiCube):
        yield _CubeReads(source)
        return
    with open(source, "rb") as fh:
        yield BandReader(fh, source)


def load_cube(path: str | Path) -> HsiCube:
    """Read a cube, checking magic, header, and payload length exactly.

    The payload is read band by band straight into the cube's own float64
    array by ``BandReader``'s row fill, so an f64 file is held in memory once
    and an f32 one passes through one band-sized row buffer; the cube's
    constructor is the one finiteness scan.
    """
    with open(path, "rb") as fh:
        reader = BandReader(fh, path)
        values = np.empty(reader.shape)
        reader._fill_rows(0, values.reshape(len(values), -1))
    try:
        return HsiCube(values)
    except ValidationError as exc:
        raise CubeFormatError(f"{path}: payload contains non-finite values") from exc


def load_srf_csv(path: str | Path) -> SpectralResponse:
    """Read a response table; rows are re-normalized by the constructor.

    Data row i holds input channel i's weights and must start with the band
    index i + 1, so a reordered or gapped table is rejected.
    """
    with open(path, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [row for row in rows if row]
    if len(rows) < 2:
        raise CubeFormatError(f"{path}: need a header row plus at least one channel row")
    header = rows[0]
    if not header or header[0].strip().lower() != "band" or len(header) < 2:
        raise CubeFormatError(f"{path}: header must be 'band,<name0>,...', got {header!r}")
    out_bands = len(header) - 1
    table = np.empty((len(rows) - 1, out_bands))
    for i, row in enumerate(rows[1:]):
        if len(row) != out_bands + 1:
            raise CubeFormatError(
                f"{path}: row {i + 2} has {len(row)} columns, expected {out_bands + 1}"
            )
        if row[0].strip() != str(i + 1):
            raise CubeFormatError(f"{path}: row {i + 2} has band index {row[0]!r}, expected {i + 1}")
        try:
            table[i] = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise CubeFormatError(f"{path}: row {i + 2} has a non-numeric value ({exc})") from exc
    try:
        return SpectralResponse(table.T)
    except ValidationError as exc:
        raise CubeFormatError(f"{path}: {exc}") from exc


def export_error_map(
    x_hat: HsiCube | str | os.PathLike,
    x_ref: HsiCube | str | os.PathLike,
    band: int,
    path: str | Path,
    max_error: float = 0.1,
) -> None:
    """Write |x_hat - x_ref| of one band as a binary P5 graymap.

    Each input is a cube or the path of a cube file; shapes, ``band`` (a
    0-based index) and ``max_error`` are checked before any band is read.
    Every band of both is read through ``open_cube`` into one reused scan
    plane, so a file is checked as a whole read checks it; x_hat's mapped
    band goes into the other plane, which keeps the difference and becomes
    the map. Errors of ``max_error`` and above map to 255; quantization is
    round-half-up.
    """
    with open_cube(x_hat) as hat, open_cube(x_ref) as ref:
        check_shape("x_hat", hat.shape, ref.shape)
        bands, height, width = hat.shape
        _band(band, hat.shape)
        check_real("max_error", max_error)
        err, scan = np.empty((2, height, width))
        for k in range(bands):
            hat.band(k, err if k == band else scan)
            ref.band(k, scan)
            if k == band:
                np.subtract(err, scan, out=err)
    np.abs(err, out=err)
    err *= 255.0 / max_error
    err += 0.5
    pixels = np.clip(np.floor(err, out=err), 0.0, 255.0, out=err).astype(np.uint8)
    write_atomic(path, b"P5\n%d %d\n255\n" % (width, height), pixels.tobytes())


def band_index_for_wavelength(
    wavelength_nm: float, bands: int, lo_nm: float = 400.0, hi_nm: float = 700.0
) -> int:
    """0-based index of the band whose center is nearest the wavelength.

    Band centers are spaced uniformly from ``lo_nm`` to ``hi_nm`` inclusive.
    Ties and out-of-range wavelengths resolve to the nearest center. Every
    wavelength is a length, so each must be a finite, positive real number.
    """
    check_int("bands", bands, 1)
    wavelength_nm = check_real("wavelength_nm", wavelength_nm)
    lo_nm, hi_nm = check_real("lo_nm", lo_nm), check_real("hi_nm", hi_nm)
    if hi_nm <= lo_nm:
        raise ValidationError(f"need hi_nm > lo_nm, got {lo_nm!r} and {hi_nm!r}")
    centers = np.linspace(lo_nm, hi_nm, bands)
    return int(np.argmin(np.abs(centers - wavelength_nm)))
