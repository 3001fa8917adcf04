"""Shared oracles for the test suite.

Everything here is deliberately independent of the library's FFT-based
implementations: blur is evaluated tap by tap with np.roll, dense operator
matrices are built from impulses, and adjointness is checked through raw
inner products. The x-step and v-step oracles live here too: matrix-free
conjugate gradient on the full Sylvester operator (the tests' other
independent x-step oracle is the dense Kronecker solve), the band
difference's tridiagonal normal matrix, and the gradient of the v-step
objective. ``fuse_spatial`` is the HQS loop in the spatial domain, the
reference the spectral ``hsfuse.hqs.fuse`` is compared against. It shares
the x-step kernel with the loop (``solve_fast`` runs the loop's x-step once,
in the identity band basis), so it checks the loop's spectral bookkeeping,
the v-step and the scoring, not the x-step itself. ``ssim_direct`` forms
the SSIM window sums window by window, with no FFT.
``desk_problem`` builds one of the acceptance gate's desk fusions, from
``desk_truth`` and ``desk_model``. ``stand_in_prior`` builds a seeded
imperfect prior from a scene's ground truth, in place of the network output
the paper hands the fusion: blurred, noisy or off in each band's gain.
``dense_joint_minimizer`` is the estimator itself: the minimizer of the HQS
objective over (x, v) at fixed rho, from one dense solve.
``bad_cube_files`` writes one malformed cube file per way a read can reject it.
"""

from typing import NamedTuple

import numpy as np

from hsfuse.cube import HsiCube
from hsfuse.degradation import BlurOperator, DegradationModel, Downsampler, SpectralResponse
from hsfuse.errors import ValidationError
from hsfuse.gradients import (
    LAPLACIAN_KERNEL,
    LaplacianOperator,
    spectral_diff_adjoint_array,
    spectral_diff_apply_array,
)
from hsfuse.hqs import HqsConfig, objective_value
from hsfuse.io import MAGIC, save_cube
from hsfuse.priors import PriorSource, make_prior
from hsfuse.scenes import SceneSpec, generate_scene
from hsfuse.sylvester import build_system, solve_fast
from hsfuse.vstep import vstep


def desk_truth(seed) -> HsiCube:
    """The ground truth of desk fusion ``seed``: a 31x64x64 scene."""
    return generate_scene(
        SceneSpec(bands=31, height=64, width=64, endmembers=5, smoothness=4.0, seed=seed)
    )


def desk_model() -> DegradationModel:
    """The desk fusions' model: a 4x4 block blur, factor 4 and the default RGB response."""
    return DegradationModel(
        BlurOperator.uniform_block(64, 64, 4), Downsampler(4), SpectralResponse.default_rgb(31)
    )


def desk_problem(seed):
    """One of the acceptance gate's five desk fusions (criteria 4-7)."""
    model = desk_model()
    y, z = model.degrade(desk_truth(seed))
    return model, y, z, make_prior(PriorSource.naive_fusion(), y, z, model)


STAND_INS = ("blurred", "noisy", "gain")


def stand_in_prior(gt: HsiCube, kind: str, seed: int) -> HsiCube:
    """An imperfect prior made from the ground truth ``gt``, seeded by ``seed``.

    ``blurred``: a Gaussian blur of sigma 1.0 (``BlurOperator.gaussian``);
    ``noisy``: white noise at 3% of ``gt``'s standard deviation; ``gain``:
    band k scaled by 1 + 0.05 sin(k / 3).
    """
    if kind == "blurred":
        return HsiCube(BlurOperator.gaussian(gt.height, gt.width, 1.0).apply_array(gt.data))
    if kind == "noisy":
        noise = np.random.default_rng(seed).normal(0.0, 0.03 * gt.data.std(), gt.data.shape)
        return HsiCube(gt.data + noise)
    if kind == "gain":
        return HsiCube(gt.data * (1.0 + 0.05 * np.sin(np.arange(gt.bands) / 3.0))[:, None, None])
    raise ValueError(f"unknown stand-in prior {kind!r}")


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


def ssim_direct(a: np.ndarray, b: np.ndarray) -> float:
    """Mean per-band SSIM of two (bands, H, W) arrays from direct 11x11 window sums.

    Gaussian window sigma 1.5, K1 = 0.01, K2 = 0.03, dynamic range 1.0, and
    only windows that lie wholly inside the image ('valid' borders).
    """
    offsets = np.arange(-5, 6)
    profile = np.exp(-0.5 * (offsets / 1.5) ** 2)
    window = np.outer(profile, profile)
    window /= window.sum()

    def window_sums(x):
        views = np.lib.stride_tricks.sliding_window_view(x, (11, 11), axis=(-2, -1))
        return np.einsum("...ijuv,uv->...ij", views, window)

    c1, c2 = 0.01**2, 0.03**2
    mu_a, mu_b = window_sums(a), window_sums(b)
    var_a = window_sums(a * a) - mu_a**2
    var_b = window_sums(b * b) - mu_b**2
    cov = window_sums(a * b) - mu_a * mu_b
    ssim_map = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(np.mean(ssim_map.mean(axis=(-2, -1))))


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


def spectral_gram_tridiag(bands: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the band difference's normal matrix.

    A single band has no difference, so its normal matrix is the 1x1 zero.
    """
    diag = np.zeros(bands)
    diag[1:] += 1.0
    diag[:-1] += 1.0
    return diag, np.full(bands - 1, -1.0)


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
        grad = grad + nu * spectral_diff_adjoint_array(spectral_diff_apply_array(diff))
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
        trace.append(objective_value(x, v, y, z, model, prior, cfg))
        if x_prev is not None:
            denom = max(x_prev.norm(), float(np.finfo(np.float64).tiny))
            if float(np.linalg.norm(x.data - x_prev.data)) / denom <= cfg.rel_tol:
                converged = True
                break
        x_prev = x
    return SpatialFusion(x, len(iterates), tuple(trace), converged, tuple(iterates))


def dense_joint_minimizer(
    y, z, model, prior, cfg: HqsConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """The (x, v) minimizing the augmented objective of ``hsfuse.hqs``, and its value.

    With A_y = down∘blur, A_z = srf and Q = mu D^T D + nu E^T E (D the
    Laplacian, E the band difference), every operator is a dense matrix
    built from impulses, both convolutions by ``roll_blur``, and the 2n x 2n
    normal equations

        (A_y^T A_y + A_z^T A_z + rho I) x - rho v = A_y^T y + A_z^T z
        -rho x + (rho I + Q) v = Q prior

    are solved in one dense solve.
    """
    shape = prior.data.shape
    n = prior.data.size
    blur = model.blur
    a_y = dense_matrix(
        lambda e: model.down.apply_array(roll_blur(e, blur.kernel, blur.anchor)), shape
    )
    a_z = dense_matrix(model.srf.apply_array, shape)
    d = dense_matrix(lambda e: roll_blur(e, LAPLACIAN_KERNEL, (1, 1)), shape)
    q = cfg.mu * d.T @ d
    if prior.bands > 1:
        e = dense_matrix(spectral_diff_apply_array, shape)
        q += cfg.nu * e.T @ e
    eye = np.eye(n)
    lhs = np.block(
        [
            [a_y.T @ a_y + a_z.T @ a_z + cfg.rho * eye, -cfg.rho * eye],
            [-cfg.rho * eye, cfg.rho * eye + q],
        ]
    )
    p = prior.data.ravel()
    rhs = np.concatenate([a_y.T @ y.data.ravel() + a_z.T @ z.data.ravel(), q @ p])
    x, v = np.split(np.linalg.solve(lhs, rhs), 2)
    value = (
        np.sum((a_y @ x - y.data.ravel()) ** 2)
        + np.sum((a_z @ x - z.data.ravel()) ** 2)
        + cfg.rho * np.sum((x - v) ** 2)
        + (v - p) @ q @ (v - p)
    )
    return x.reshape(shape), v.reshape(shape), float(value)


def woodbury_minimizer(y, z, model, prior, cfg: HqsConfig) -> np.ndarray:
    """The x of ``dense_joint_minimizer``, solved one aliasing group at a time.

    Minimizing over v first leaves a quadratic in x alone: the data terms plus
    ``(x - p)^T W (x - p)``, with ``W = rho Q (rho I + Q)^-1``. Q is diagonal in
    full unnormalized 2-D spectra (DFT) whose band vectors are mixed by U^T, U
    the eigenvectors of the band difference's normal matrix (from ``np.linalg.eigh``):
    ``a = mu |lap(f)|^2 + nu d_k`` and ``W = rho a / (rho + a)`` per frequency f
    and band k. Down-sampling by s at phase (r, c) folds the s^2 members f_m of
    aliasing group g into one low-resolution frequency:
    ``Y_g = (1/s^2) sum_m t_m h_m X_m``, h the blur's response and
    ``t = exp(2 pi i (f_1 r / height + f_2 c / width))``. With ``e = conj(t h)``
    and ``Ru = srf U``, member m solves

        B_m X_m + (1/s^2) e_m sum_n conj(e_n) X_n = b_m,
        B_m = diag(W_m) + Ru^T Ru,  b_m = Ru^T Z_m + e_m U^T Y_g + W_m U^T P_m,

    and Woodbury on the group's rank-one coupling gives the capacitance
    ``K_g = I + (1/s^2) sum_m |e_m|^2 B_m^-1``; solving
    ``K_g c_g = (1/s^2) sum_m conj(e_m) B_m^-1 b_m`` gives
    ``X_m = B_m^-1 (b_m - e_m c_g)``. Every B_m is inverted densely; both
    responses come from impulses through ``roll_blur``, and there is no half
    spectrum or mirror rule, so the solve shares no code with the x-step.
    """
    bands, height, width = prior.data.shape
    s = model.down.factor
    groups = (s, height // s, s, width // s)  # a frequency index is alias * group size + group

    def rows(data: np.ndarray) -> np.ndarray:
        """The DFT of each band of ``data`` as (height, width, bands) band vectors."""
        return np.moveaxis(np.fft.fft2(data), 0, -1)

    def group_sum(a: np.ndarray) -> np.ndarray:
        return a.reshape(groups + a.shape[2:]).sum(axis=(0, 2))

    def spread(a: np.ndarray) -> np.ndarray:
        """A per-group array repeated at each of its members, as (height, width, ...)."""
        full = np.broadcast_to(a[None, :, None], groups + a.shape[2:])
        return full.reshape((height, width) + a.shape[2:])

    diag, off = spectral_gram_tridiag(bands)
    d, u = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    ru = model.srf.matrix @ u
    impulse = np.zeros((height, width))
    impulse[0, 0] = 1.0
    lap_sq = np.abs(np.fft.fft2(roll_blur(impulse, LAPLACIAN_KERNEL, (1, 1)))) ** 2
    a = cfg.mu * lap_sq[..., None] + cfg.nu * d
    w = cfg.rho * a / (cfg.rho + a)
    pr, pc = model.down.phase
    f1, f2 = np.arange(height)[:, None], np.arange(width)[None, :]
    t = np.exp(2j * np.pi * (f1 * pr / height + f2 * pc / width))
    e = np.conj(t * np.fft.fft2(roll_blur(impulse, model.blur.kernel, model.blur.anchor)))
    b = rows(z.data) @ ru + e[..., None] * spread(rows(y.data) @ u) + w * (rows(prior.data) @ u)
    b_mat = np.broadcast_to(ru.T @ ru, (height, width, bands, bands)).copy()
    b_mat[..., np.arange(bands), np.arange(bands)] += w
    b_inv = np.linalg.inv(b_mat)
    solved = (b_inv @ b[..., None])[..., 0]
    k = np.eye(bands) + group_sum(np.abs(e[..., None, None]) ** 2 * b_inv) / s**2
    c = np.linalg.solve(k, group_sum(np.conj(e[..., None]) * solved)[..., None] / s**2)
    x_rows = solved - e[..., None] * (b_inv @ spread(c))[..., 0]
    return np.fft.ifft2(np.moveaxis(x_rows @ u.T, -1, 0)).real


def bad_cube_files(tmp_path, rng, bands=5, height=4, width=6):
    """Files that ``load_cube`` rejects, by name, and the valid blob they come from.

    The non-finite values sit in band 3, so a read of any other band meets
    them only by scanning the rest of the file.
    """
    path = tmp_path / "good.cube"
    save_cube(path, rand_cube(rng, bands, height, width))
    blob = path.read_bytes()
    start = blob.index(b"\n") + 1
    bad_value = start + 8 * (3 * height * width + 5)
    files = {
        "nan": blob[:bad_value] + np.array([np.nan]).tobytes() + blob[bad_value + 8 :],
        "inf": blob[:bad_value] + np.array([-np.inf]).tobytes() + blob[bad_value + 8 :],
        "truncated": blob[:-1],
        "trailing": blob + b"\0",
        "header": MAGIC + b"not json\n" + blob[start:],
        "magic": b"NOPE" + blob[4:],
        "dtype": blob[:start].replace(b'"f64"', b'"i32"') + blob[start:],
    }
    out = {}
    for name, content in files.items():
        out[name] = tmp_path / f"{name}.cube"
        out[name].write_bytes(content)
    return out, blob
