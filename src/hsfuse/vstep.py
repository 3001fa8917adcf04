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
half grid, not the gain itself. ``denoise_spectrum`` builds the gain for a few bands of one block of
frequencies at a time and applies it, with no transform and no band mix, to
spectra that the HQS loop keeps in U's coordinates (see ``hqs``, which also
reads the objective's coupling and regularizer off the gain, built the same
way). Each frequency is solved on its own, so it runs unchanged on half
spectra (see ``cube``).
``vstep``, the one-shot spatial form, rotates x_next and the prior
(``cube.mix_bands``), transforms them (``dft2_per_band``), applies the gain,
rotates back and transforms back (``idft2_per_band``). ``solve_tridiagonal``
is the Thomas algorithm for T_f's tridiagonal form; the loop does not need it.

``vstep`` and ``solve_tridiagonal`` are the entry points that check their
inputs; ``factor_denoise`` and ``denoise_spectrum`` trust theirs, which come
from ``vstep`` or from ``hqs.fuse`` after ``HqsConfig`` has checked the weights.
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
    each_block,
    half_spectrum,
    idft2_per_band,
    mix_bands,
)
from .errors import ValidationError, check_real
from .gradients import LaplacianOperator, spectral_gram_eig

__all__ = [
    "DenoiseFactors",
    "denoise_spectrum",
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

    def gain(self, freq: np.ndarray, rows: slice) -> np.ndarray:
        """``1 / (band_term[rows] + freq)`` as a new (bands in ``rows``, freq.size) array.

        ``freq`` is a 1-D slice of the flattened ``freq_term``.
        """
        gain = np.add.outer(self.band_term[rows], freq)
        return np.reciprocal(gain, out=gain)


def factor_denoise(height: int, width: int, bands: int, mu_p: float, nu_p: float) -> DenoiseFactors:
    """U and the gain's terms, with the height x width grid's ``|lap(f)|^2`` on the half grid."""
    eig, basis = spectral_gram_eig(bands)
    lap_sq = LaplacianOperator.create(height, width).response_sq
    return DenoiseFactors(basis, nu_p * eig, 1.0 + mu_p * half_spectrum(lap_sq))


def denoise_spectrum(
    fac: DenoiseFactors, x_hat: np.ndarray, p_hat: np.ndarray, out: np.ndarray
) -> None:
    """Write the DFT of the v-step solution, in U's coordinates, into ``out``.

    ``x_hat`` and ``p_hat`` are the half spectra of x_next and the prior in
    U's coordinates, shape (bands, height, width//2 + 1); ``out`` must be a
    third array of that shape. The deviation ``x - p`` is formed in ``out``,
    scaled by the gain and shifted back by ``p``, one block of frequencies
    per pool item (``cube.each_block``); the gain is built for one chunk of
    bands of the block at a time (``cube.chunks`` of the block's complex row).
    """
    bands = x_hat.shape[0]

    def block(x: np.ndarray, p: np.ndarray, v: np.ndarray, freq: np.ndarray) -> None:
        np.subtract(x, p, out=v)
        for rows in chunks(bands, v[0].nbytes):
            v[rows] *= fac.gain(freq, rows)
        v += p

    flat = (a.reshape(bands, -1) for a in (x_hat, p_hat, out))
    each_block(block, *flat, fac.freq_term.reshape(-1))


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

    x_hat = rotated(x_next)
    out = np.empty_like(x_hat)
    denoise_spectrum(fac, x_hat, rotated(prior), out)
    mix_bands(fac.basis, out)
    return idft2_per_band(FreqCube(out, x_next.width))
