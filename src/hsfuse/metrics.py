"""Reconstruction quality metrics against a reference cube.

Conventions, fixed so numbers are comparable across runs:

* RMSE is reported on the 0-255 scale: 255 times the root mean square error of
  [0, 1]-scaled cubes.
* PSNR uses peak 1.0 and averages per-band values, each capped at 99 dB (the
  cap is what an identical pair reports).
* SAM is the mean spectral angle in degrees; pixels where either spectrum has
  zero norm are skipped. Cosines are clipped into [-1, 1] before arccos.
* ERGAS uses the resolution ratio ``factor``; bands whose reference mean is
  below 1e-6 are excluded with a warning.
* SSIM follows the single-scale formulation with an 11x11 Gaussian window
  (sigma 1.5), K1 = 0.01, K2 = 0.03, dynamic range 1.0, window-weighted
  moments, and 'valid'-mode borders; per-band values are averaged. The
  window sums of a, b, a*a + b*b and a*b are two GEMM passes of the 1-D
  profile over 'valid' rows only, the second on the transposed first.

``evaluate`` takes cubes or cube files and walks them one band pair at a
time: ``io.open_cube`` reads each input's band into its one reused plane,
checking a file's finite, so a file is never held whole. Each band pair is
scored in one ``pool_map``, whose items are its strips of SSIM rows (two
strip-sized buffers each) and the reference band's mean. A strip returns
its squared error and SSIM sum, added up in strip order, and adds the
a*b, a*a and b*b of the rows it owns to three per-pixel SAM planes, so
each pixel's sums add in band order. The angles are summed per
``each_block`` block of pixels at the end, in block order. The report
depends neither on the pool size nor on whether cubes or files were scored.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .cube import HsiCube, check_shape, each_block, pool_map
from .errors import ValidationError, check_int
from .io import open_cube

__all__ = ["MetricReport", "CSV_HEADER", "evaluate"]

CSV_HEADER = "rmse,psnr,ergas,sam,ssim"

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_C1 = 0.01**2  # (K1 * dynamic range)^2
_SSIM_C2 = 0.03**2  # (K2 * dynamic range)^2
_PSNR_CAP = 99.0
# A window pass makes one GEMM per stack of this many output rows, with the
# (rows, rows + window - 1) Toeplitz block of the normalized 1-D Gaussian profile
_SSIM_ROWS = 32
_SPAN = _SSIM_ROWS + _SSIM_WINDOW - 1
_PROFILE = np.exp(-0.5 * ((np.arange(_SSIM_WINDOW) - _SSIM_WINDOW // 2) / _SSIM_SIGMA) ** 2)
_PROFILE /= _PROFILE.sum()
_TAPS = sum(g * np.eye(_SSIM_ROWS, _SPAN, k) for k, g in enumerate(_PROFILE))


@dataclass(frozen=True)
class MetricReport:
    rmse: float
    psnr: float
    sam: float
    ergas: float
    ssim: float

    def to_dict(self) -> dict[str, float]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def csv_row(self) -> str:
        """Values in the column order of ``CSV_HEADER``."""
        return ",".join(
            format(v, ".10g") for v in (self.rmse, self.psnr, self.ergas, self.sam, self.ssim)
        )


def _window_rows(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:, i] = sum_k g[k] x[:, i + k]`` over the 'valid' rows i of the (n, rows, cols) ``x``.

    Each stack of output rows is one GEMM of ``_TAPS`` by a view of the input
    rows it reads; the leftover rows take the top-left corner of ``_TAPS``.
    """
    n, rows, cols = x.shape
    full, tail = divmod(rows - _SSIM_WINDOW + 1, _SSIM_ROWS)
    done, (s0, s1, s2) = full * _SSIM_ROWS, x.strides
    blocks = as_strided(x, (n, full, _SPAN, cols), (s0, _SSIM_ROWS * s1, s1, s2))
    np.matmul(_TAPS, blocks, out=out[:, :done].reshape(n, full, _SSIM_ROWS, cols))
    np.matmul(_TAPS[:tail, : tail + _SSIM_WINDOW - 1], x[:, done:], out=out[:, done:])
    return out


def _strip_scores(a: np.ndarray, b: np.ndarray, lo: int, sums: np.ndarray) -> tuple[float, float]:
    """Squared error and SSIM sum of one band pair's strip of SSIM rows from ``lo``.

    The strip owns the input rows no later strip reads: it counts their
    squared error and adds their a*b, a*a and b*b to the (3, height, width)
    SAM ``sums``, so each row counts once over a band's strips.
    """
    h, w = a.shape
    vh, vw = h - _SSIM_WINDOW + 1, w - _SSIM_WINDOW + 1
    n = min(_SSIM_ROWS, vh - lo)
    m = n + _SSIM_WINDOW - 1
    # a strip of SSIM rows is one Toeplitz block. ``first`` holds its window
    # inputs, their row sums transposed, then its SSIM map; ``second`` the row
    # sums, then the window sums
    first, second = np.empty(4 * m * w), np.empty(4 * n * w)
    sa, sb = a[lo : lo + m], b[lo : lo + m]
    inputs = first.reshape(4, m, w)
    own = m if lo + n == vh else n
    diff = np.subtract(sa[:own], sb[:own], out=inputs[0, :own])
    err = float(np.vdot(diff, diff))
    inputs[0], inputs[1] = sa, sb
    # the SAM sums take the owned rows of the products the window inputs need
    dots, sq_a, sq_b = sums[:, lo : lo + own]
    sq_a += np.square(sa, out=inputs[2])[:own]
    sq_b += np.square(sb, out=inputs[3])[:own]
    np.add(inputs[2], inputs[3], out=inputs[2])
    dots += np.multiply(sa, sb, out=inputs[3])[:own]
    rows = _window_rows(inputs, second.reshape(4, n, w))
    turned = first[: 4 * w * n].reshape(4, w, n)
    turned[...] = rows.transpose(0, 2, 1)
    # SSIM's mean does not mind the transpose; only var_a + var_b enters it
    mu_a, mu_b, sq, ab = _window_rows(turned, second[: 4 * vw * n].reshape(4, vw, n))
    num = np.multiply(mu_a, mu_b, out=first[: vw * n].reshape(vw, n))
    ab -= num  # cov
    for term, shift in ((num, _SSIM_C1), (ab, _SSIM_C2)):
        term *= 2.0
        term += shift
    num *= ab
    np.square(mu_a, out=mu_a)
    mu_a += np.square(mu_b, out=mu_b)
    sq -= mu_a  # var_a + var_b
    sq += _SSIM_C2
    mu_a += _SSIM_C1
    mu_a *= sq
    num /= mu_a
    return err, float(np.sum(num))


def _sam_block(dots: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray) -> tuple[float, int]:
    """Spectral angle sum (degrees) and count over the valid pixels of a block of columns."""
    valid = (sq_a > 0) & (sq_b > 0)
    # sqrt of the product (not product of sqrts) so identical spectra give
    # cosine exactly 1
    cosines = np.clip(dots[valid] / np.sqrt(sq_a[valid] * sq_b[valid]), -1.0, 1.0)
    return float(np.sum(np.degrees(np.arccos(cosines)))), int(np.count_nonzero(valid))


def evaluate(
    x_hat: HsiCube | str | os.PathLike, x_ref: HsiCube | str | os.PathLike, factor: int
) -> MetricReport:
    """All five metrics of ``x_hat`` against the reference ``x_ref``.

    Each is a cube or the path of a cube file, which is read one band at a
    time and never held whole. A cube and its file go through the same loop
    and report the same bytes. Shapes are checked before any band is read.
    """
    with open_cube(x_hat) as hat, open_cube(x_ref) as ref:
        check_shape("x_hat", hat.shape, ref.shape)
        check_int("factor", factor, 1)
        bands, height, width = hat.shape
        if min(height, width) < _SSIM_WINDOW:
            raise ValidationError(
                f"images must be at least {_SSIM_WINDOW}x{_SSIM_WINDOW} for the SSIM window"
            )
        vh, vw = height - _SSIM_WINDOW + 1, width - _SSIM_WINDOW + 1
        strips = range(0, vh, _SSIM_ROWS)
        planes = np.empty((2, height, width))  # band k of each input
        sums = np.zeros((3, height, width))  # each pixel's SAM sums over the bands read so far
        per_band = []
        for k in range(bands):
            reads = [partial(reader.band, k, plane) for reader, plane in zip((hat, ref), planes)]
            a, b = pool_map(lambda job: job(), reads)
            scores = [partial(_strip_scores, a, b, lo, sums) for lo in strips]
            ref_mean, *per_strip = pool_map(lambda job: job(), [partial(np.mean, b), *scores])
            err = total = 0.0
            for strip_err, strip_total in per_strip:
                err += strip_err
                total += strip_total
            per_band.append((err / (height * width), float(ref_mean), total / (vh * vw)))
    per_block = each_block(_sam_block, *sums.reshape(3, -1))
    mse_b, ref_means, ssim_b = np.array(per_band).T

    rmse = 255.0 * float(np.sqrt(np.mean(mse_b)))

    with np.errstate(divide="ignore"):
        psnr = float(np.mean(np.minimum(10.0 * np.log10(1.0 / mse_b), _PSNR_CAP)))

    angles, count = (sum(v) for v in zip(*per_block))
    sam = angles / count if count else 0.0

    usable = ref_means >= 1e-6
    if not np.all(usable):
        warnings.warn(
            f"ERGAS: excluded {int(np.sum(~usable))} band(s) with near-zero reference mean",
            stacklevel=2,
        )
    ratios = mse_b[usable] / ref_means[usable] ** 2
    ergas = (100.0 / factor) * float(np.sqrt(np.mean(ratios))) if ratios.size else 0.0

    return MetricReport(rmse=rmse, psnr=psnr, sam=sam, ergas=ergas, ssim=float(np.mean(ssim_b)))
