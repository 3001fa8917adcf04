"""The denoising sub-problem as one elementwise gain in the band difference's eigenbasis.

Minimizing ``||v - x_next||^2 + mu_p*||D(v - prior)||^2 + nu_p*||E(v - prior)||^2``
decouples across spatial frequencies because D acts per band as a circular
stencil and E mixes bands pointwise. At each frequency f the deviation
``w = v - prior`` solves

    T_f w_f = x_next_f - prior_f,    T_f = (1 + mu_p*|lap(f)|^2) I + nu_p*G

with ``G = E0^T E0`` the path graph's Laplacian over bands at every
frequency. The DCT-II basis U diagonalizes G as ``U diag(d) U^T``
(``gradients.spectral_gram_eig``), and so every T_f at once: for spectra
whose band vectors are in U's coordinates (mixed by U^T), the solve is

    v = p + g * (x - p),    g[k, f] = 1 / (1 + mu_p*|lap(f)|^2 + nu_p*d_k).

``factor_denoise`` builds ``DenoiseFactors`` once for fixed weights and a
grid, whose ``LaplacianOperator`` it makes: the basis U and the gain's two
terms, ``nu_p*d_k`` per band and ``1 + mu_p*|lap(f)|^2`` per frequency of the
half grid, not the gain itself. ``DenoiseFactors.gain`` builds the gain
for the bands and frequencies it is given, in the caller's buffer, and
``DenoiseFactors.denoise`` applies it, with no transform and no band mix,
to spectra that the HQS loop keeps in U's coordinates (see ``hqs``, which
forms v this way once per tile of its one pass over the spectrum, and reads
the objective's coupling and regularizer off the same gain). Each frequency
is solved on its own, so it runs unchanged on half spectra (see ``cube``).
``vstep``, the one-shot spatial form, rotates x_next and the prior
(``cube.mix_bands``), transforms them (``dft2_per_band``), applies the gain
a chunk of bands at a time (``cube.chunks``), rotates back and transforms
back (``idft2_per_band``). ``solve_tridiagonal`` is the Thomas algorithm for
T_f's tridiagonal form; the loop does not need it.

``vstep`` and ``solve_tridiagonal`` are the entry points that check their
inputs; ``factor_denoise`` and ``DenoiseFactors`` trust theirs, which come
from ``vstep`` or from ``hqs.fuse`` after ``HqsConfig`` has checked the
weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import (
    FreqCube,
    HsiCube,
    check_shape,
    chunks,
    dft2_per_band,
    half_spectrum,
    idft2_per_band,
    mix_bands,
)
from .errors import ValidationError, check_real
from .gradients import LaplacianOperator, spectral_gram_eig

__all__ = [
    "DenoiseFactors",
    "factor_denoise",
    "solve_tridiagonal",
    "vstep",
]


def solve_tridiagonal(
    diag: np.ndarray, sub: np.ndarray, sup: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Thomas algorithm without pivoting, batched over trailing axes.

    ``diag`` and ``rhs`` share shape (n, ...); ``sub``/``sup`` broadcast to
    (n-1, ...). Intended for strictly diagonally dominant systems; the
    right-hand side may be complex.
    """
    diag = np.asarray(diag, dtype=np.float64)
    rhs = np.asarray(rhs)
    if rhs.shape != diag.shape:
        raise ValidationError(f"rhs shape {rhs.shape} must match diag shape {diag.shape}")
    n = diag.shape[0]
    tail = diag.shape[1:]
    sub = np.broadcast_to(np.asarray(sub, dtype=np.float64), (n - 1,) + tail)
    sup = np.broadcast_to(np.asarray(sup, dtype=np.float64), (n - 1,) + tail)
    # pivots enter as real reciprocals ``inv``, and a complex value times a
    # real acts on its parts componentwise (division does not), so a complex
    # solve is bit-identical to solving the real and imaginary parts apart
    c = np.empty((n - 1,) + tail, dtype=np.float64)
    inv = np.empty_like(diag)
    x = np.empty(rhs.shape, dtype=np.result_type(rhs, np.float64))
    inv[0] = 1.0 / diag[0]
    x[0] = rhs[0] * inv[0]
    for i in range(1, n):
        c[i - 1] = sup[i - 1] * inv[i - 1]
        inv[i] = 1.0 / (diag[i] - sub[i - 1] * c[i - 1])
        x[i] = (rhs[i] - sub[i - 1] * x[i - 1]) * inv[i]
    for i in range(n - 2, -1, -1):
        x[i] = x[i] - c[i] * x[i + 1]
    return x


@dataclass(frozen=True)
class DenoiseFactors:
    """Every frequency's T_f, diagonalized once for fixed weights: the basis and the gain's terms.

    ``basis`` is U, ``band_term[k]`` is ``nu_p*d_k`` with d_k the eigenvalue
    of U's column k, and ``freq_term`` is ``1 + mu_p*|lap(f)|^2`` on the half
    grid, shape (height, width//2 + 1). The gain is never stored whole:
    ``gain`` builds it for the frequencies a pass is working on.
    """

    basis: np.ndarray
    band_term: np.ndarray
    freq_term: np.ndarray

    def gain(self, rows: slice, freq: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``1 / (band_term[rows] + freq)`` written into and returned as ``out``.

        ``freq`` is a slice of ``freq_term``, flattened or not, and ``out``
        a float64 array of shape (bands in ``rows``,) + freq.shape.
        """
        np.add.outer(self.band_term[rows], freq, out=out)
        return np.reciprocal(out, out=out)

    @staticmethod
    def denoise(x_hat: np.ndarray, p_hat: np.ndarray, gain: np.ndarray, out: np.ndarray) -> None:
        """Write the v-step solution ``p + g (x - p)`` into ``out``.

        ``x_hat``, ``p_hat`` and ``out`` hold some bands of x_next's and the
        prior's spectra in U's coordinates at some frequencies, in any
        layout, and ``gain`` the gain there (``DenoiseFactors.gain``). The
        deviation is formed in ``out``, then scaled by the gain and shifted
        back by ``p``.
        """
        np.subtract(x_hat, p_hat, out=out)
        out *= gain
        out += p_hat


def factor_denoise(height: int, width: int, bands: int, mu_p: float, nu_p: float) -> DenoiseFactors:
    """U and the gain's terms, with the height x width grid's ``|lap(f)|^2`` on the half grid."""
    eig, basis = spectral_gram_eig(bands)
    lap_sq = LaplacianOperator.create(height, width).response_sq
    return DenoiseFactors(basis, nu_p * eig, 1.0 + mu_p * half_spectrum(lap_sq))


def vstep(
    x_next: HsiCube,
    prior: HsiCube,
    lap: LaplacianOperator,
    mu_p: float,
    nu_p: float,
) -> HsiCube:
    """One-shot denoising solve across all frequencies.

    With both weights zero the system matrix is the identity at every
    frequency, so the input is returned unchanged.
    """
    mu_p = check_real("mu_p", mu_p, allow_zero=True)
    nu_p = check_real("nu_p", nu_p, allow_zero=True)
    check_shape("prior", prior.data.shape, x_next.data.shape)
    check_shape("x_next", x_next.data.shape, (x_next.bands, lap.height, lap.width))
    if mu_p == 0.0 and nu_p == 0.0:
        return x_next
    fac = factor_denoise(lap.height, lap.width, x_next.bands, mu_p, nu_p)

    def rotated(cube: HsiCube) -> np.ndarray:
        data = cube.data.copy()
        mix_bands(fac.basis.T, data)
        return dft2_per_band(HsiCube(data)).data

    x_hat, p_hat = rotated(x_next), rotated(prior)
    out = np.empty_like(x_hat)
    for rows in chunks(len(out), out[0].nbytes):
        gain = fac.gain(rows, fac.freq_term, np.empty(out[rows].shape))
        fac.denoise(x_hat[rows], p_hat[rows], gain, out[rows])
    mix_bands(fac.basis, out)
    return idft2_per_band(FreqCube(out, x_next.width))
