"""File formats: raw cube container, SRF tables, and error-map images.

Cube container layout, front to back:

* 4 magic bytes ``HSRC``
* one line of JSON (terminated by a newline) with keys ``bands``, ``height``,
  ``width``, ``dtype`` ("f64" or "f32"), ``layout`` ("band-major"), and an
  optional two-element ``scale``
* the raw little-endian payload, exactly bands*height*width values

Writes are bit-reproducible for equal inputs. Cubes (and the CLI's JSON
manifests) are written atomically through a sibling temp file, so a failed
write leaves the previous file in place. Error maps are binary P5
graymaps scaling |difference| linearly so ``max_error`` maps to 255, with
round-half-up quantization.
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
)

__all__ = [
    "MAGIC",
    "save_cube",
    "load_cube",
    "write_atomic",
    "save_srf_csv",
    "load_srf_csv",
    "export_error_map",
    "band_index_for_wavelength",
]

MAGIC = b"HSRC"

_DTYPES = {"f64": "<f8", "f32": "<f4"}


def write_atomic(path: str | Path, *chunks: bytes) -> None:
    """Write ``chunks`` to ``path`` through a sibling temp file and ``os.replace``.

    Readers see the previous file or the complete new one, never a partial
    write. On failure the temp file is removed and ``path`` is left as it was.
    The new file gets the usual mode of a file created by ``open``.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_cube(
    path: str | Path,
    cube: HsiCube,
    dtype: str = "f64",
    scale: tuple[float, float] | None = None,
) -> None:
    """Write a cube; ``scale`` optionally records the nominal value range."""
    if dtype not in _DTYPES:
        raise ValidationError(f"dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    header: dict = {
        "bands": cube.bands,
        "height": cube.height,
        "width": cube.width,
        "dtype": dtype,
        "layout": "band-major",
    }
    if scale is not None:
        lo, hi = float(scale[0]), float(scale[1])
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise ValidationError(f"scale must be a finite (lo, hi) pair with hi > lo, got {scale!r}")
        header["scale"] = [lo, hi]
    payload = np.ascontiguousarray(cube.data, dtype=_DTYPES[dtype]).tobytes()
    head = MAGIC + json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n"
    write_atomic(path, head, payload)


def load_cube(path: str | Path) -> HsiCube:
    """Read a cube, checking magic, header, and payload length exactly.

    The payload is read straight into the cube's own (aligned) array, so an
    f64 file is held in memory once; an f32 payload is upcast once.
    """
    with open(path, "rb") as fh:
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
            bands = int(header["bands"])
            height = int(header["height"])
            width = int(header["width"])
            dtype = header["dtype"]
            layout = header["layout"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CubeFormatError(f"{path}: header is missing or mistypes a required key ({exc})") from exc
        if min(bands, height, width) < 1:
            raise CubeFormatError(f"{path}: dimensions must be positive, got {(bands, height, width)}")
        if layout != "band-major":
            raise CubeFormatError(f"{path}: unsupported layout {layout!r}")
        if dtype not in _DTYPES:
            raise UnknownDtypeError(f"{path}: unknown dtype {dtype!r}")
        expected = bands * height * width * np.dtype(_DTYPES[dtype]).itemsize
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload < expected:
            raise TruncatedPayloadError(
                f"{path}: payload has {payload} bytes, header promises {expected}"
            )
        if payload > expected:
            raise CubeFormatError(
                f"{path}: {payload - expected} trailing bytes after the payload"
            )
        values = np.empty((bands, height, width), dtype=_DTYPES[dtype])
        got = fh.readinto(memoryview(values).cast("B"))
        if got != expected:
            raise TruncatedPayloadError(
                f"{path}: read {got} payload bytes, header promises {expected}"
            )
    values = values.astype(np.float64, copy=False)
    if not np.all(np.isfinite(values)):
        raise CubeFormatError(f"{path}: payload contains non-finite values")
    return HsiCube(values)


def save_srf_csv(path: str | Path, srf: SpectralResponse, names: tuple[str, ...] | None = None) -> None:
    """Write the response transposed: one row per input channel."""
    if names is None:
        names = tuple(f"out{i}" for i in range(srf.out_bands))
    if len(names) != srf.out_bands:
        raise ValidationError(
            f"got {len(names)} column names for {srf.out_bands} output bands"
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["band", *names])
        for idx in range(srf.in_bands):
            writer.writerow([idx + 1, *(format(v, ".12g") for v in srf.matrix[:, idx])])


def load_srf_csv(path: str | Path) -> SpectralResponse:
    """Read a response table; rows are re-normalized by the constructor."""
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
    if x_hat.data.shape != x_ref.data.shape:
        raise ValidationError(
            f"cube shapes differ: {x_hat.data.shape} vs {x_ref.data.shape}"
        )
    if int(band) != band or not 0 <= band < x_hat.bands:
        raise ValidationError(f"band {band!r} outside [0, {x_hat.bands})")
    if not (np.isfinite(max_error) and max_error > 0):
        raise ValidationError(f"max_error must be positive, got {max_error!r}")
    err = np.abs(x_hat.data[band] - x_ref.data[band]) * (255.0 / max_error)
    pixels = np.clip(np.floor(err + 0.5), 0.0, 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (x_hat.width, x_hat.height))
        fh.write(pixels.tobytes())


def band_index_for_wavelength(
    wavelength_nm: float, bands: int, lo_nm: float = 400.0, hi_nm: float = 700.0
) -> int:
    """0-based index of the band whose center is nearest the wavelength.

    Band centers are spaced uniformly from ``lo_nm`` to ``hi_nm`` inclusive.
    Ties and out-of-range wavelengths resolve to the nearest center.
    """
    if int(bands) != bands or bands < 1:
        raise ValidationError(f"bands must be a positive integer, got {bands!r}")
    if not (np.isfinite(wavelength_nm) and np.isfinite(lo_nm) and np.isfinite(hi_nm)):
        raise ValidationError("wavelengths must be finite")
    if hi_nm <= lo_nm:
        raise ValidationError(f"need hi_nm > lo_nm, got {lo_nm!r} and {hi_nm!r}")
    centers = np.linspace(lo_nm, hi_nm, bands)
    return int(np.argmin(np.abs(centers - wavelength_nm)))
