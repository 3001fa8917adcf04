"""Per-frequency tridiagonal solver for the denoising sub-problem.

Minimizing ``||v - x_next||^2 + mu_p*||D(v - prior)||^2 + nu_p*||E(v - prior)||^2``
decouples across spatial frequencies because D acts per band as a circular
stencil and E mixes bands pointwise. At each frequency f the optimality
condition is a bands x bands real tridiagonal system

    T_f v_f = x_next_f + (mu_p * |lap(f)|^2 + nu_p * E0^T E0) prior_f

with ``T_f = I + mu_p * |lap(f)|^2 + nu_p * E0^T E0``. T_f is strictly
diagonally dominant, so the Thomas algorithm needs no pivoting. Its real
factorization depends on the weights only: the HQS loop factors every
frequency once per run (``factor_denoise``) and then, each iteration, forms
the right-hand side from spectra it already holds and substitutes
(``denoise_spectrum``), with no transform. ``vstep`` is the one-shot spatial
form of the same solve: forward transforms of x_next and the prior,
``denoise_spectrum``, one inverse transform. Batched solves are bit-identical
to solving frequencies one at a time in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import FreqCube, HsiCube, column_blocks, dft2_per_band, idft2_per_band
from .errors import ValidationError
from .gradients import LaplacianOperator, spectral_gram_apply_array, spectral_gram_tridiag

__all__ = [
    "DenoiseFactors",
    "denoise_spectrum",
    "factor_denoise",
    "solve_tridiagonal",
    "vstep",
]


def _check_weight(name: str, value: float) -> float:
    if not (np.isfinite(value) and value >= 0):
        raise ValidationError(f"{name} must be non-negative and finite, got {value!r}")
    return float(value)


def _factor_tridiagonal(
    diag: np.ndarray, sub: np.ndarray, sup: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-elimination factors ``(c, inv)`` of the Thomas algorithm.

    Batched over trailing axes: ``diag`` has shape (n, ...), ``sub``/``sup``
    broadcast to (n-1, ...). ``inv[i]`` is the reciprocal of pivot i and
    ``c[i] = sup[i] * inv[i]``; they depend on the matrix only.
    """
    diag = np.asarray(diag, dtype=np.float64)
    n = diag.shape[0]
    tail = diag.shape[1:]
    sub = np.broadcast_to(np.asarray(sub, dtype=np.float64), (n - 1,) + tail)
    sup = np.broadcast_to(np.asarray(sup, dtype=np.float64), (n - 1,) + tail)
    c = np.empty((n - 1,) + tail, dtype=np.float64)
    inv = np.empty_like(diag)
    inv[0] = 1.0 / diag[0]
    for i in range(1, n):
        c[i - 1] = sup[i - 1] * inv[i - 1]
        inv[i] = 1.0 / (diag[i] - sub[i - 1] * c[i - 1])
    return c, inv


def _substitute(
    c: np.ndarray, inv: np.ndarray, sub: np.ndarray, rhs: np.ndarray, out: np.ndarray
) -> None:
    """Forward and back substitution with ``_factor_tridiagonal``'s factors.

    ``out`` may be ``rhs``: the solve then happens in place.
    """
    # pivots enter as real reciprocals: multiplying a complex value by a real
    # acts on its parts componentwise, so a complex solve is bit-identical to
    # solving the real and imaginary parts separately (division is not)
    n = inv.shape[0]
    out[0] = rhs[0] * inv[0]
    for i in range(1, n):
        out[i] = (rhs[i] - sub[i - 1] * out[i - 1]) * inv[i]
    for i in range(n - 2, -1, -1):
        out[i] = out[i] - c[i] * out[i + 1]


def solve_tridiagonal(
    diag: np.ndarray, sub: np.ndarray, sup: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Thomas algorithm without pivoting, batched over trailing axes.

    ``diag`` and ``rhs`` share shape (n, ...); ``sub``/``sup`` broadcast to
    (n-1, ...). Intended for strictly diagonally dominant systems; the
    right-hand side may be complex.
    """
    diag = np.asarray(diag)
    rhs = np.asarray(rhs)
    if rhs.shape != diag.shape:
        raise ValidationError(f"rhs shape {rhs.shape} must match diag shape {diag.shape}")
    c, inv = _factor_tridiagonal(diag, sub, sup)
    sub = np.broadcast_to(np.asarray(sub, dtype=np.float64), c.shape)
    x = np.empty(rhs.shape, dtype=np.result_type(rhs, np.float64))
    _substitute(c, inv, sub, rhs, x)
    return x


@dataclass(frozen=True)
class DenoiseFactors:
    """Every frequency's T_f, factored once for fixed weights.

    ``mu_lap`` is ``mu_p * |lap(f)|^2`` per frequency; ``sub`` is T_f's
    off-diagonal, the same at every frequency; ``c``/``inv`` come from
    the Thomas forward elimination, one column per frequency.
    """

    mu_lap: np.ndarray
    nu_p: float
    sub: np.ndarray
    c: np.ndarray
    inv: np.ndarray


def factor_denoise(lap: LaplacianOperator, bands: int, mu_p: float, nu_p: float) -> DenoiseFactors:
    """Factor T_f at every frequency of ``lap``'s grid."""
    mu_p = _check_weight("mu_p", mu_p)
    nu_p = _check_weight("nu_p", nu_p)
    mu_lap = mu_p * lap.response_sq.reshape(-1)
    if bands == 1:
        gram_diag, gram_off = np.zeros(1), np.zeros(0)
    else:
        gram = spectral_gram_tridiag(bands)
        gram_diag, gram_off = gram.diag, gram.sub
    diag = 1.0 + mu_lap + nu_p * gram_diag[:, None]
    sub = np.broadcast_to((nu_p * gram_off)[:, None], (bands - 1, mu_lap.size))
    c, inv = _factor_tridiagonal(diag, sub, sub)
    return DenoiseFactors(mu_lap, nu_p, sub, c, inv)


def denoise_spectrum(
    fac: DenoiseFactors, x_hat: np.ndarray, p_hat: np.ndarray, out: np.ndarray
) -> None:
    """Write the DFT of the v-step solution into ``out``.

    ``x_hat`` and ``p_hat`` are the DFTs of x_next and the prior, shape
    (bands, height, width); ``out`` must be a third array of that shape. The
    right-hand side ``x + mu_lap*p + nu_p*E0^T E0 p`` is formed and solved
    one cache-sized block of frequencies at a time.
    """
    bands = x_hat.shape[0]
    x = x_hat.reshape(bands, -1)
    p = p_hat.reshape(bands, -1)
    rhs = out.reshape(bands, -1)
    for cols in column_blocks(x.shape[1]):
        pb, rb = p[:, cols], rhs[:, cols]
        rb[...] = x[:, cols] + fac.mu_lap[cols] * pb + fac.nu_p * spectral_gram_apply_array(pb)
        _substitute(fac.c[:, cols], fac.inv[:, cols], fac.sub[:, cols], rb, rb)


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
    mu_p = _check_weight("mu_p", mu_p)
    nu_p = _check_weight("nu_p", nu_p)
    if mu_p == 0.0 and nu_p == 0.0:
        return x_next
    if x_next.data.shape != prior.data.shape:
        raise ValidationError(
            f"cube shapes differ: {x_next.data.shape} vs {prior.data.shape}"
        )
    bands, height, width = x_next.data.shape
    if (lap.height, lap.width) != (height, width):
        raise ValidationError(
            f"operator grid {(lap.height, lap.width)} does not match cube grid "
            f"{(height, width)}"
        )
    out = np.empty((bands, height, width), dtype=np.complex128)
    denoise_spectrum(
        factor_denoise(lap, bands, mu_p, nu_p),
        dft2_per_band(x_next).data,
        dft2_per_band(prior).data,
        out,
    )
    return idft2_per_band(FreqCube(out))
