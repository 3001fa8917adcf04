"""Shared oracles for the test suite.

Everything here is deliberately independent of the library's FFT-based
implementations: blur is evaluated tap by tap with np.roll, dense operator
matrices are built from impulses, and adjointness is checked through raw
inner products. The x-step and v-step oracles live here too: matrix-free
conjugate gradient on the full Sylvester operator, and the gradient of the
v-step objective. ``fuse_spatial`` is the HQS loop in the spatial domain,
the reference the spectral ``hsfuse.hqs.fuse`` is compared against.
"""

from typing import NamedTuple

import numpy as np

from hsfuse.cube import HsiCube
from hsfuse.errors import ValidationError
from hsfuse.gradients import LaplacianOperator, spectral_gram_apply_array
from hsfuse.hqs import HqsConfig, objective_value
from hsfuse.sylvester import build_system, solve_fast
from hsfuse.vstep import vstep


def rand_cube(rng, bands, height, width, lo=-1.0, hi=1.0) -> HsiCube:
    return HsiCube(rng.uniform(lo, hi, (bands, height, width)))


def roll_blur(data: np.ndarray, kernel: np.ndarray, anchor: tuple[int, int]) -> np.ndarray:
    """Direct circular correlation: out[i,j] = sum_uv K[u,v] x[i+u-ar, j+v-ac]."""
    ar, ac = anchor
    out = np.zeros_like(data, dtype=np.float64)
    for u in range(kernel.shape[0]):
        for v in range(kernel.shape[1]):
            out += kernel[u, v] * np.roll(data, (-(u - ar), -(v - ac)), axis=(-2, -1))
    return out


def dense_matrix(apply_fn, in_shape, out_shape=None) -> np.ndarray:
    """Materialize a linear map column by column from unit impulses."""
    n = int(np.prod(in_shape))
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(np.asarray(apply_fn(e.reshape(in_shape))).ravel())
    mat = np.stack(cols, axis=1)
    if out_shape is not None:
        assert mat.shape[0] == int(np.prod(out_shape))
    return mat


def adjoint_gap(fwd, adj, in_shape, out_shape, rng) -> float:
    """Relative gap between <A x, y> and <x, A^T y> for one random draw."""
    x = rng.standard_normal(in_shape)
    y = rng.standard_normal(out_shape)
    lhs = float(np.vdot(np.asarray(fwd(x)), y))
    rhs = float(np.vdot(x, np.asarray(adj(y))))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-30)
    return float(np.linalg.norm(a - b)) / denom


def random_srf_matrix(rng, in_bands: int, out_bands: int) -> np.ndarray:
    """Non-negative response rows with a guaranteed positive sum."""
    mat = rng.uniform(0.0, 1.0, (out_bands, in_bands)) ** 2 + 0.05
    return mat


class CgSolution(NamedTuple):
    x: HsiCube
    converged: bool
    iterations: int


def solve_cg(system, x0: HsiCube | None = None, tol: float = 1e-9, max_iter: int = 1000) -> CgSolution:
    """Matrix-free conjugate gradient on the full SPD operator C1 X + X C2.

    Stops when the recurrence residual drops below ``tol`` relative to ||C3||;
    returns the last iterate with ``converged=False`` if the budget runs out.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    b = system.c3.data
    if x0 is None:
        x = np.zeros_like(b)
    else:
        if x0.data.shape != b.shape:
            raise ValidationError(f"x0 has shape {x0.data.shape}, system expects {b.shape}")
        x = x0.data.copy()
    bnorm = max(float(np.linalg.norm(b)), float(np.finfo(np.float64).tiny))
    r = b - system.operator_apply_array(x)
    p = r.copy()
    rs = float(np.vdot(r, r).real)
    converged = np.sqrt(rs) / bnorm <= tol
    iterations = 0
    while not converged and iterations < max_iter:
        ap = system.operator_apply_array(p)
        alpha = rs / float(np.vdot(p, ap).real)
        x += alpha * p
        r -= alpha * ap
        rs_new = float(np.vdot(r, r).real)
        iterations += 1
        if np.sqrt(rs_new) / bnorm <= tol:
            converged = True
        else:
            p = r + (rs_new / rs) * p
        rs = rs_new
    return CgSolution(HsiCube(x), bool(converged), iterations)


def vstep_gradient(
    v: HsiCube,
    x_next: HsiCube,
    prior: HsiCube,
    lap: LaplacianOperator,
    rho: float,
    mu: float,
    nu: float,
) -> HsiCube:
    """Gradient of the unscaled v-step sub-problem objective at v.

    Zero (to roundoff) exactly at the ``vstep`` solution with
    mu_p = mu/rho and nu_p = nu/rho.
    """
    if not (np.isfinite(rho) and rho > 0):
        raise ValidationError(f"rho must be positive, got {rho!r}")
    if not (v.data.shape == x_next.data.shape == prior.data.shape):
        raise ValidationError("v, x_next, and prior must share one shape")
    diff = v.data - prior.data
    gram_d = np.fft.ifft2(np.fft.fft2(diff, axes=(-2, -1)) * lap.response_sq, axes=(-2, -1)).real
    grad = rho * (v.data - x_next.data) + mu * gram_d
    if v.bands > 1:
        grad = grad + nu * spectral_gram_apply_array(diff)
    return HsiCube(grad)


class SpatialFusion(NamedTuple):
    x_hat: HsiCube
    iterations: int
    objective_trace: tuple[float, ...]
    converged: bool
    iterates: tuple[HsiCube, ...]


def fuse_spatial(y, z, model, prior, cfg: HqsConfig | None = None) -> SpatialFusion:
    """Reference HQS loop on cubes: every iteration builds the Sylvester system,
    solves it with ``solve_fast``, runs ``vstep`` and evaluates the spatial
    ``objective_value``; same start, stop test and return value as ``fuse``.
    """
    if cfg is None:
        cfg = HqsConfig()
    lap = LaplacianOperator.create(prior.height, prior.width)
    v = prior
    x_prev = None
    trace = []
    iterates = []
    converged = False
    for _ in range(cfg.max_iter):
        x = solve_fast(build_system(model, y, z, v, cfg.rho))
        v = vstep(x, prior, lap, cfg.mu / cfg.rho, cfg.nu / cfg.rho)
        iterates.append(x)
        trace.append(objective_value(x, v, y, z, model, prior, cfg, lap=lap))
        if x_prev is not None:
            denom = max(x_prev.norm(), float(np.finfo(np.float64).tiny))
            if float(np.linalg.norm(x.data - x_prev.data)) / denom <= cfg.rel_tol:
                converged = True
                break
        x_prev = x
    return SpatialFusion(x, len(iterates), tuple(trace), converged, tuple(iterates))
