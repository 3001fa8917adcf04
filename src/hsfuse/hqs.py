"""Half quadratic splitting driver for fusion super-resolution.

The augmented objective

    L(x, v) = ||y - down(blur(x))||^2 + ||z - srf(x)||^2 + rho*||x - v||^2
              + mu*||D(v - prior)||^2 + nu*||E(v - prior)||^2

is minimized by alternating exact sub-solves with a fixed rho: the Sylvester
step updates x with v fixed (closed form, ``sylvester.solve_spectrum``, whose
mix back to bands ``q Lambda^-1`` ends each channel's Sherman-Morrison
solve), the v-step updates v with x fixed as one elementwise gain on the
deviation v - prior (``vstep.denoise_spectrum``). Both are exact
minimizers, so the objective trace is non-increasing. The iteration starts
from v = prior and returns the last x iterate.

Every operator in L is circulant or pointwise in frequency, so x and v stay
spectra from the first iteration to the last: half spectra (see ``cube``)
whose band axis is in the coordinates of U, the DCT-II basis that
diagonalizes the band difference's normal matrix (see ``vstep``). There the
v-step is one gain per band and frequency, and the band-difference penalty
is ``sum_k d_k ||(v - prior)_k||^2``. The x-step keeps its kernels, built
from ``srf U`` and from y's spectrum times U^T; the other terms and the stop
test do not see the orthogonal U. A run transforms each input once (the
prior and z through ``cube.rdft2``, y on its low-resolution grid through
``sylvester.lowres_spectrum``), rotates the prior and y into U's
coordinates (``cube.mix_bands``), factors both sub-steps once, and returns x
through one rotation back and one inverse transform (``cube.irdft2``).
The x-step's data term holds no cube of its own (``sylvester.data_term``):
z is mixed into the x-step's first band mix, and y enters its
Sherman-Morrison pass as one shift per aliasing group and channel.
The objective and the stop test are evaluated through Parseval's theorem,
each in one ``cube.half_sums`` call: one pass over blocks of stored columns
on the package's thread pool, with the mirror rule applied there and
nowhere else. The objective's pass sums the z-term, the coupling, the
smoothness and the band difference together; the y-term is a sum over
aliasing groups on the low-resolution grid, ``sylvester.lowres_misfit``, so
the group layout stays in ``sylvester``. ``objective_value`` is the spatial
form of the same objective, for callers holding cubes. Every pass over a
spectrum is split into independent items (column blocks, bands or
eigen-channels) that run on the pool, and partial sums are added in item
order, so the iterates and the trace do not depend on the pool size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sylvester
from .cube import HsiCube, half_spectrum, half_sums, irdft2, mix_bands, rdft2
from .degradation import DegradationModel
from .errors import check_int, check_real
from .gradients import LaplacianOperator, regularizer_value
from .vstep import DenoiseFactors, denoise_spectrum, factor_denoise

# Not called here: the spatial one-shot sub-steps stay importable from this
# module because bench/spans.py wraps them at these names.
from .sylvester import build_system  # noqa: F401
from .vstep import vstep  # noqa: F401

__all__ = ["HqsConfig", "FusionResult", "objective_value", "fuse"]


@dataclass(frozen=True)
class HqsConfig:
    """Penalty weights and iteration policy."""

    mu: float = 0.05
    nu: float = 0.001
    rho: float = 0.001
    max_iter: int = 20
    rel_tol: float = 1e-5

    def __post_init__(self) -> None:
        check_real("mu", self.mu, allow_zero=True)
        check_real("nu", self.nu, allow_zero=True)
        check_real("rho", self.rho)
        check_int("max_iter", self.max_iter, 1)
        check_real("rel_tol", self.rel_tol)


@dataclass(frozen=True)
class FusionResult:
    """Outcome of ``fuse``.

    ``objective_trace[k]`` is the objective after iteration k+1.
    ``rel_changes[k]`` is ``||x_{k+2} - x_{k+1}|| / ||x_{k+1}||``, the
    quantity the stop test compares with ``rel_tol``; the first iteration has
    no predecessor, so there is one entry fewer than iterations.
    """

    x_hat: HsiCube
    iterations: int
    objective_trace: tuple[float, ...] = field(default_factory=tuple)
    converged: bool = False
    rel_changes: tuple[float, ...] = field(default_factory=tuple)


def objective_value(
    x: HsiCube,
    v: HsiCube,
    y: HsiCube,
    z: HsiCube,
    model: DegradationModel,
    prior: HsiCube,
    cfg: HqsConfig,
    lap: LaplacianOperator | None = None,
) -> float:
    """Augmented objective at a given (x, v) pair."""
    for name, cube in (("x", x), ("v", v), ("prior", prior)):
        model.check_hr(name, cube)
    model.check_data(y, z)
    y_model = model.down.apply_array(model.blur.apply_array(x.data))
    z_model = model.srf.apply_array(x.data)
    value = float(np.sum((y.data - y_model) ** 2))
    value += float(np.sum((z.data - z_model) ** 2))
    value += cfg.rho * float(np.sum((x.data - v.data) ** 2))
    value += regularizer_value(v, prior, cfg.mu, cfg.nu, lap=lap)
    return value


def _sq(a: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Sum of squared magnitudes of a (rows, columns) array, read in place, rows weighted."""
    # row by row: np.vdot would first copy a block of a wider spectrum's rows
    f = a.view(np.float64)
    rows = np.vecdot(f, f)
    return float(rows.sum() if weights is None else rows @ weights)


@dataclass(frozen=True)
class _Spectra:
    """What one run transforms and factors once, in the coordinates of U = ``denoise.basis``.

    ``srf`` is the response times U; ``y_tilde`` and ``p_hat`` are mixed by U^T.
    """

    cfg: HqsConfig
    srf: np.ndarray
    lap_sq: np.ndarray
    xstep: sylvester.XStepFactors
    denoise: DenoiseFactors
    y_tilde: np.ndarray
    data: sylvester.DataTerm
    p_hat: np.ndarray

    @classmethod
    def prepare(
        cls, y: HsiCube, z: HsiCube, model: DegradationModel, prior: HsiCube, cfg: HqsConfig
    ) -> "_Spectra":
        bands = model.bands
        height, width = model.hr_shape
        lap_sq = half_spectrum(LaplacianOperator.create(height, width).response_sq)
        denoise = factor_denoise(lap_sq, bands, cfg.mu / cfg.rho, cfg.nu / cfg.rho)
        u = denoise.basis
        srf = model.srf.matrix @ u
        xstep = sylvester.factor_xstep(
            srf.T @ srf + cfg.rho * np.eye(bands), model.blur, model.down
        )
        y_tilde = sylvester.lowres_spectrum(model.down, y.data, height, width)
        mix_bands(u.T, y_tilde)
        data = sylvester.data_term(xstep, srf, y_tilde, rdft2(z.data))
        p_hat = rdft2(prior.data)
        mix_bands(u.T, p_hat)
        return cls(cfg, srf, lap_sq, xstep, denoise, y_tilde, data, p_hat)

    def objective(self, x_hat: np.ndarray, v_hat: np.ndarray) -> float:
        """``objective_value`` by Parseval, from the half spectra of x and v in U's coordinates."""

        def sums(x, v, p, lap_sq, z_hat) -> np.ndarray:
            """z-term, coupling, smoothness and band-difference sums over a block."""
            z_res = z_hat.view(np.float64) - self.srf @ x.view(np.float64)
            dv = v - p
            smooth = float(np.vdot(dv, lap_sq * dv).real)
            return np.array([_sq(z_res), _sq(x - v), smooth, _sq(dv, self.denoise.eig)])

        width = self.xstep.width
        z_sq, coupling, smooth, spectral = half_sums(
            sums, (x_hat, v_hat, self.p_hat, self.lap_sq, self.data.z_hat), width
        )
        n = x_hat.shape[1] * width
        cfg = self.cfg
        return (
            sylvester.lowres_misfit(self.xstep, self.y_tilde, x_hat)
            + z_sq / n
            + cfg.rho * coupling / n
            + (cfg.mu * smooth + cfg.nu * spectral) / n
        )


def _rel_change(new: np.ndarray, old: np.ndarray, width: int) -> float:
    """``||new - old|| / max(||old||, tiny)`` for the cubes whose half spectra are given."""
    n = new.shape[1] * width
    diff, base = half_sums(lambda a, b: np.array([_sq(a - b), _sq(b)]), (new, old), width)
    tiny = float(np.finfo(np.float64).tiny)
    return float(np.sqrt(diff / n)) / max(float(np.sqrt(base / n)), tiny)


def fuse(
    y: HsiCube,
    z: HsiCube,
    model: DegradationModel,
    prior: HsiCube,
    cfg: HqsConfig | None = None,
) -> FusionResult:
    """Run the alternating iteration from v = prior.

    Stops early once the relative change between consecutive x iterates falls
    to ``cfg.rel_tol`` (the ``converged`` flag records whether that happened
    before the ``max_iter`` cap).

    Raises:
        UnsupportedStructureError: the x-step system is outside the closed-form
            solver's structure.
    """
    if cfg is None:
        cfg = HqsConfig()
    model.check_hr("prior", prior)
    model.check_data(y, z)
    fixed = _Spectra.prepare(y, z, model, prior, cfg)
    width = model.hr_shape[1]
    # two spectrum buffers: the x-step overwrites v's with the new x, and the
    # previous x's buffer then receives the next v
    v_hat = fixed.p_hat.copy()
    x_hat = np.empty_like(v_hat)
    trace: list[float] = []
    changes: list[float] = []
    converged = False
    iterations = 0
    for k in range(cfg.max_iter):
        # looked up on its module, so a wrapper installed there sees every x-step
        sylvester.solve_spectrum(fixed.xstep, v_hat, cfg.rho, fixed.data)
        x_hat, v_hat = v_hat, x_hat
        if k > 0:
            changes.append(_rel_change(x_hat, v_hat, width))
        denoise_spectrum(fixed.denoise, x_hat, fixed.p_hat, v_hat)
        iterations = k + 1
        trace.append(fixed.objective(x_hat, v_hat))
        if changes and changes[-1] <= cfg.rel_tol:
            converged = True
            break
    mix_bands(fixed.denoise.basis, x_hat)
    # free the prior's spectrum, the factors and v before the inverse
    # transform allocates its output
    del fixed, v_hat
    return FusionResult(
        x_hat=HsiCube(irdft2(x_hat, width)),
        iterations=iterations,
        objective_trace=tuple(trace),
        converged=converged,
        rel_changes=tuple(changes),
    )
