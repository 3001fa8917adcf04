"""File formats: raw cube container, SRF tables, and error-map images.

Cube container layout, front to back:

* 4 magic bytes ``HSRC``
* one line of JSON (terminated by a newline) with keys ``bands``, ``height``,
  ``width`` (JSON integers), ``dtype`` ("f64" or "f32"), ``layout``
  ("band-major"), and an optional two-element ``scale``
* the raw little-endian payload, exactly bands*height*width values

The package writes f64 cubes and reads f64 or f32 ones, since cubes may come
from other tools; SRF tables are only read. A ``BandReader`` reads an open
cube file's bands front to back as float64 planes, checking each finite as
it is read, so a read of every band rejects each file the whole read
rejects. It is the one band read: ``load_cube`` given a band keeps that band
alone and reads past the others, and ``metrics.evaluate`` scores files
through it. ``cube_shape`` reads only the header, checked alike. Writes are
bit-reproducible for equal inputs. Every file the package writes (cubes and
error maps here; the CLI's manifests and reports) goes through
``write_atomic``: a sibling temp file renamed onto the target, so a failed
write leaves the previous file in place. Error maps are binary P5 graymaps scaling |difference| linearly so
``max_error`` maps to 255, with round-half-up quantization.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from pathlib import Path

import numpy as np

from .cube import HsiCube
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
    "load_cube",
    "cube_shape",
    "BandReader",
    "write_atomic",
    "load_srf_csv",
    "export_error_map",
    "band_index_for_wavelength",
]

MAGIC = b"HSRC"

_DTYPES = {"f64": "<f8", "f32": "<f4"}


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
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def save_cube(path: str | Path, cube: HsiCube, scale: tuple[float, float] | None = None) -> None:
    """Write a cube as f64; ``scale`` optionally records the nominal value range."""
    header: dict = {
        "bands": cube.bands,
        "height": cube.height,
        "width": cube.width,
        "dtype": "f64",
        "layout": "band-major",
    }
    if scale is not None:
        lo, hi = float(scale[0]), float(scale[1])
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise ValidationError(f"scale must be a finite (lo, hi) pair with hi > lo, got {scale!r}")
        header["scale"] = [lo, hi]
    # the array's own buffer, not a cube-sized bytes copy of it
    payload = memoryview(np.ascontiguousarray(cube.data, dtype=_DTYPES["f64"])).cast("B")
    head = MAGIC + json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n"
    write_atomic(path, head, payload)


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


def _read_into(fh, values: np.ndarray, path: str | Path) -> np.ndarray:
    """Fill ``values`` from ``fh``'s next bytes; a short read is a truncated payload."""
    got = fh.readinto(memoryview(values).cast("B"))
    if got != values.nbytes:
        raise TruncatedPayloadError(f"{path}: read {got} of {values.nbytes} payload bytes")
    return values


def cube_shape(path: str | Path) -> tuple[int, int, int]:
    """A cube file's (bands, height, width), checked as ``load_cube`` checks it, values aside."""
    with open(path, "rb") as fh:
        return _open_payload(fh, path)[0]


class BandReader:
    """The bands of the cube file open as ``fh``, read front to back, each checked finite.

    ``shape`` and ``dtype`` (the payload's numpy dtype) come from the checked
    header. A skipped band and an f32 band pass through one reused band
    buffer of that dtype.
    """

    def __init__(self, fh, path: str | Path):
        self.shape, self.dtype = _open_payload(fh, path)
        self._fh, self._path = fh, path
        self._raw: np.ndarray | None = None

    def read(self, out: np.ndarray | None = None) -> None:
        """Read the next band into the float64 (height, width) ``out``, or past it when None."""
        raw = out
        if out is None or self.dtype != _DTYPES["f64"]:
            if self._raw is None:
                self._raw = np.empty(self.shape[1:], dtype=self.dtype)
            raw = self._raw
        if not np.isfinite(_read_into(self._fh, raw, self._path)).all():
            raise CubeFormatError(f"{self._path}: payload contains non-finite values")
        if out is not None and raw is not out:
            out[...] = raw


def load_cube(path: str | Path, band: int | None = None) -> HsiCube:
    """Read a cube, checking magic, header, and payload length exactly.

    The payload is read straight into the cube's own (aligned) array, so an
    f64 file is held in memory once; an f32 payload is upcast once. With a
    0-based ``band``, the cube is that band alone, (1, height, width); every
    band is still read and checked by the ``BandReader``.
    """
    with open(path, "rb") as fh:
        reader = BandReader(fh, path)
        bands = reader.shape[0]
        if band is None:
            values = _read_into(fh, np.empty(reader.shape, dtype=reader.dtype), path)
        else:
            if check_int("band", band, 0) >= bands:
                raise ValidationError(f"band {band!r} outside [0, {bands})")
            values = np.empty((1, *reader.shape[1:]))
            for b in range(bands):
                reader.read(values[0] if b == band else None)
    try:
        return HsiCube(values.astype(np.float64, copy=False))
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
    x_hat: HsiCube,
    x_ref: HsiCube,
    band: int,
    path: str | Path,
    max_error: float = 0.1,
) -> None:
    """Write |x_hat - x_ref| of one band as a binary P5 graymap.

    ``band`` is a 0-based index. Errors of ``max_error`` and above map to 255;
    quantization is round-half-up.
    """
    x_hat.check_shape("x_hat", x_ref.data.shape)
    if check_int("band", band, 0) >= x_hat.bands:
        raise ValidationError(f"band {band!r} outside [0, {x_hat.bands})")
    check_real("max_error", max_error)
    err = np.abs(x_hat.data[band] - x_ref.data[band]) * (255.0 / max_error)
    pixels = np.clip(np.floor(err + 0.5), 0.0, 255.0).astype(np.uint8)
    write_atomic(path, b"P5\n%d %d\n255\n" % (x_hat.width, x_hat.height), pixels.tobytes())


def band_index_for_wavelength(
    wavelength_nm: float, bands: int, lo_nm: float = 400.0, hi_nm: float = 700.0
) -> int:
    """0-based index of the band whose center is nearest the wavelength.

    Band centers are spaced uniformly from ``lo_nm`` to ``hi_nm`` inclusive.
    Ties and out-of-range wavelengths resolve to the nearest center.
    """
    check_int("bands", bands, 1)
    if not (np.isfinite(wavelength_nm) and np.isfinite(lo_nm) and np.isfinite(hi_nm)):
        raise ValidationError("wavelengths must be finite")
    if hi_nm <= lo_nm:
        raise ValidationError(f"need hi_nm > lo_nm, got {lo_nm!r} and {hi_nm!r}")
    centers = np.linspace(lo_nm, hi_nm, bands)
    return int(np.argmin(np.abs(centers - wavelength_nm)))
