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
  moments, and 'valid'-mode borders; per-band values are averaged. One
  circular blur of the stack (a, b, a*a, b*b, a*b) by the center-anchored
  ``BlurOperator.gaussian``, built once per call, gives a band's five window
  sums; rows [5, H-5) and columns [5, W-5) are the pixels whose window never
  wraps around the border, which is exactly the 'valid' region.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .cube import HsiCube
from .degradation import BlurOperator
from .errors import ValidationError, check_int

__all__ = ["MetricReport", "CSV_HEADER", "evaluate"]

CSV_HEADER = "rmse,psnr,ergas,sam,ssim"

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_PSNR_CAP = 99.0


@dataclass(frozen=True)
class MetricReport:
    rmse: float
    psnr: float
    sam: float
    ergas: float
    ssim: float

    def to_dict(self) -> dict[str, float]:
        return {
            "rmse": self.rmse,
            "psnr": self.psnr,
            "sam": self.sam,
            "ergas": self.ergas,
            "ssim": self.ssim,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def csv_row(self) -> str:
        """Values in the column order of ``CSV_HEADER``."""
        return ",".join(
            format(v, ".10g") for v in (self.rmse, self.psnr, self.ergas, self.sam, self.ssim)
        )


def _ssim_band(a: np.ndarray, b: np.ndarray, window: BlurOperator) -> float:
    c1, c2 = _SSIM_K1**2, _SSIM_K2**2
    h = _SSIM_WINDOW // 2
    sums = window.apply_array(np.stack((a, b, a * a, b * b, a * b)))[:, h:-h, h:-h]
    mu_a, mu_b, sq_a, sq_b, ab = sums
    var_a = sq_a - mu_a * mu_a
    var_b = sq_b - mu_b * mu_b
    cov = ab - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def evaluate(x_hat: HsiCube, x_ref: HsiCube, factor: int) -> MetricReport:
    """All five metrics of ``x_hat`` against the reference ``x_ref``."""
    x_hat.check_shape("x_hat", x_ref.data.shape)
    check_int("factor", factor, 1)
    if min(x_hat.height, x_hat.width) < _SSIM_WINDOW:
        raise ValidationError(
            f"images must be at least {_SSIM_WINDOW}x{_SSIM_WINDOW} for the SSIM window"
        )
    window = BlurOperator.gaussian(x_hat.height, x_hat.width, _SSIM_SIGMA, _SSIM_WINDOW)
    # one band at a time, so no temporary is larger than one band's stack of
    # five SSIM window sums; the SAM sums over bands run per pixel, in band order
    dots, sq_a, sq_b = (np.zeros(x_hat.data.shape[1:]) for _ in range(3))
    per_band = []
    for a, b in zip(x_hat.data, x_ref.data):
        diff = a - b
        per_band.append((np.mean(diff * diff), np.mean(b), _ssim_band(a, b, window)))
        dots += a * b
        sq_a += a * a
        sq_b += b * b
    mse_b, ref_means, ssim_b = np.array(per_band).T

    rmse = 255.0 * float(np.sqrt(np.mean(mse_b)))

    with np.errstate(divide="ignore"):
        psnr = float(np.mean(np.minimum(10.0 * np.log10(1.0 / mse_b), _PSNR_CAP)))

    valid = (sq_a > 0) & (sq_b > 0)
    if np.any(valid):
        # sqrt of the product (not product of sqrts) so identical spectra give
        # cosine exactly 1
        cosines = np.clip(dots[valid] / np.sqrt(sq_a[valid] * sq_b[valid]), -1.0, 1.0)
        sam = float(np.mean(np.degrees(np.arccos(cosines))))
    else:
        sam = 0.0

    usable = ref_means >= 1e-6
    if not np.all(usable):
        warnings.warn(
            f"ERGAS: excluded {int(np.sum(~usable))} band(s) with near-zero reference mean",
            stacklevel=2,
        )
    if np.any(usable):
        ratios = mse_b[usable] / ref_means[usable] ** 2
        ergas = (100.0 / factor) * float(np.sqrt(np.mean(ratios)))
    else:
        ergas = 0.0

    ssim = float(np.mean(ssim_b))

    return MetricReport(rmse=rmse, psnr=psnr, sam=sam, ergas=ergas, ssim=ssim)
