"""Per-frequency tridiagonal solver for the denoising sub-problem.

Minimizing ``||v - x_next||^2 + mu_p*||D(v - prior)||^2 + nu_p*||E(v - prior)||^2``
decouples across spatial frequencies because D acts per band as a circular
stencil and E mixes bands pointwise. At each frequency f the optimality
condition is a bands x bands real tridiagonal system

    T_f v_f = x_next_f + (mu_p * |lap(f)|^2 + nu_p * E0^T E0) prior_f

with ``T_f = I + mu_p * |lap(f)|^2 + nu_p * E0^T E0``. T_f is strictly
diagonally dominant, so the Thomas algorithm needs no pivoting; its real
factorization is shared by the real and imaginary parts of the right-hand
side. The batched path factors every frequency in one vectorized sweep and is
bit-identical to solving frequencies one at a time in any order.
"""

from __future__ import annotations

import numpy as np

from .cube import FreqCube, HsiCube, dft2_per_band, idft2_per_band
from .errors import ValidationError
from .gradients import LaplacianOperator, spectral_gram_apply_array, spectral_gram_tridiag

__all__ = ["solve_tridiagonal", "vstep"]


def _check_weight(name: str, value: float) -> float:
    if not (np.isfinite(value) and value >= 0):
        raise ValidationError(f"{name} must be non-negative and finite, got {value!r}")
    return float(value)


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
    n = diag.shape[0]
    if rhs.shape != diag.shape:
        raise ValidationError(f"rhs shape {rhs.shape} must match diag shape {diag.shape}")
    # pivots enter as real reciprocals: multiplying a complex value by a real
    # acts on its parts componentwise, so a complex solve is bit-identical to
    # solving the real and imaginary parts separately (division is not)
    if n == 1:
        return rhs * (1.0 / diag)
    tail = diag.shape[1:]
    sub = np.broadcast_to(np.asarray(sub, dtype=np.float64), (n - 1,) + tail)
    sup = np.broadcast_to(np.asarray(sup, dtype=np.float64), (n - 1,) + tail)
    c = np.empty((n - 1,) + tail, dtype=np.float64)
    d = np.empty_like(rhs)
    inv = 1.0 / diag[0]
    c[0] = sup[0] * inv
    d[0] = rhs[0] * inv
    for i in range(1, n):
        inv = 1.0 / (diag[i] - sub[i - 1] * c[i - 1])
        if i < n - 1:
            c[i] = sup[i] * inv
        d[i] = (rhs[i] - sub[i - 1] * d[i - 1]) * inv
    x = np.empty_like(rhs)
    x[n - 1] = d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def vstep(
    x_next: HsiCube,
    prior: HsiCube,
    lap: LaplacianOperator,
    mu_p: float,
    nu_p: float,
) -> HsiCube:
    """Full denoising solve across all frequencies.

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
    # one column per frequency: (bands, pixels), squared response shared by bands
    x_cols = dft2_per_band(x_next).data.reshape(bands, -1)
    p_cols = dft2_per_band(prior).data.reshape(bands, -1)
    lap_sq = lap.response_sq.reshape(1, -1)
    if bands == 1:
        cols = (x_cols + mu_p * lap_sq * p_cols) / (1.0 + mu_p * lap_sq)
    else:
        gram = spectral_gram_tridiag(bands)
        rhs = x_cols + mu_p * lap_sq * p_cols + nu_p * spectral_gram_apply_array(p_cols)
        diag = 1.0 + mu_p * lap_sq + nu_p * gram.diag[:, None]
        sub = (nu_p * gram.sub)[:, None]
        sup = (nu_p * gram.sup)[:, None]
        cols = solve_tridiagonal(diag, sub, sup, rhs)
    return idft2_per_band(FreqCube(cols.reshape(bands, height, width)))
