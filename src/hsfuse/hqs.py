"""Half quadratic splitting driver for fusion super-resolution.

The augmented objective

    L(x, v) = ||y - down(blur(x))||^2 + ||z - srf(x)||^2 + rho*||x - v||^2
              + mu*||D(v - prior)||^2 + nu*||E(v - prior)||^2

is minimized by alternating exact sub-solves with a fixed rho: the Sylvester
step updates x with v fixed (closed form, ``sylvester.solve_spectrum``), the
per-frequency tridiagonal step updates v with x fixed
(``vstep.denoise_spectrum``). Both are exact minimizers, so the objective
trace is non-increasing. The iteration starts from v = prior and returns the
last x iterate.

Every operator in L is circulant or pointwise in frequency, so x and v stay
spectra from the first iteration to the last. A run transforms each input
once (the prior, z, and y on its low-resolution grid), factors both
sub-steps once, and returns x through one inverse transform
(``idft2_per_band``). The objective and the stop test are evaluated through
Parseval's theorem, the y-term as a sum over aliasing groups on the
low-resolution grid. ``objective_value`` is the spatial form of the same
objective, for callers holding cubes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sylvester
from .cube import FreqCube, HsiCube, column_blocks, idft2_per_band
from .degradation import DegradationModel
from .errors import ValidationError
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
        for name, w in (("mu", self.mu), ("nu", self.nu)):
            if not (np.isfinite(w) and w >= 0):
                raise ValidationError(f"{name} must be non-negative and finite, got {w!r}")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValidationError(f"rho must be positive, got {self.rho!r}")
        if int(self.max_iter) != self.max_iter or self.max_iter < 1:
            raise ValidationError(f"max_iter must be a positive integer, got {self.max_iter!r}")
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValidationError(f"rel_tol must be positive, got {self.rel_tol!r}")


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
    if x.data.shape != v.data.shape or x.data.shape != prior.data.shape:
        raise ValidationError("x, v, and prior must share one shape")
    y_model = model.down.apply_array(model.blur.apply_array(x.data))
    if y_model.shape != y.data.shape:
        raise ValidationError(
            f"y has shape {y.data.shape}, model produces {y_model.shape}"
        )
    z_model = model.srf.apply_array(x.data)
    if z_model.shape != z.data.shape:
        raise ValidationError(
            f"z has shape {z.data.shape}, model produces {z_model.shape}"
        )
    value = float(np.sum((y.data - y_model) ** 2))
    value += float(np.sum((z.data - z_model) ** 2))
    value += cfg.rho * float(np.sum((x.data - v.data) ** 2))
    value += regularizer_value(v, prior, cfg.mu, cfg.nu, lap=lap)
    return value


def _sq(a: np.ndarray) -> float:
    return float(np.vdot(a, a).real)


@dataclass(frozen=True)
class _Spectra:
    """What one run transforms and factors once, before the first iteration."""

    cfg: HqsConfig
    srf: np.ndarray
    lap_sq: np.ndarray
    xstep: sylvester.XStepFactors
    denoise: DenoiseFactors
    y_tilde: np.ndarray
    z_hat: np.ndarray
    c_eig: np.ndarray
    p_hat: np.ndarray

    @classmethod
    def prepare(
        cls, y: HsiCube, z: HsiCube, model: DegradationModel, prior: HsiCube, cfg: HqsConfig
    ) -> "_Spectra":
        bands = model.bands
        height, width = model.hr_shape
        srf = model.srf.matrix
        lap = LaplacianOperator.create(height, width)
        xstep = sylvester.factor_xstep(
            srf.T @ srf + cfg.rho * np.eye(bands), model.blur, model.down
        )
        denoise = factor_denoise(lap, bands, cfg.mu / cfg.rho, cfg.nu / cfg.rho)
        y_tilde = sylvester.lowres_spectrum(model.down, y.data, height, width)
        z_hat = np.fft.fft2(z.data, axes=(-2, -1))
        c_eig = sylvester.data_rhs(xstep, srf, y_tilde, z_hat)
        p_hat = np.empty(prior.data.shape, dtype=np.complex128)
        p_hat[...] = prior.data
        np.fft.fft2(p_hat, axes=(-2, -1), out=p_hat)
        return cls(cfg, srf, lap.response_sq, xstep, denoise, y_tilde, z_hat, c_eig, p_hat)

    def objective(self, x_hat: np.ndarray, v_hat: np.ndarray) -> float:
        """``objective_value`` at the (x, v) whose DFTs are given, by Parseval."""
        bands, height, width = x_hat.shape
        n = height * width
        s = self.xstep.factor
        gl, gw = height // s, width // s
        ce = np.conj(self.xstep.e)
        x, v, p = (a.reshape(bands, -1) for a in (x_hat, v_hat, self.p_hat))
        z_hat = self.z_hat.reshape(len(self.srf), -1)
        z_res = z_hat.view(np.float64) - self.srf @ x.view(np.float64)
        y_term = 0.0
        for b in range(bands):
            # the low-resolution DFT of down(blur(x_b)), in y_tilde's phase convention
            y_model = np.einsum("alcb,alcb->lb", ce, x_hat[b].reshape(s, gl, s, gw))
            y_model /= s * s
            y_term += _sq(self.y_tilde[b] - y_model)
        lap_sq = self.lap_sq.reshape(-1)
        coupling = smooth = spectral = 0.0
        for cols in column_blocks(n):
            coupling += _sq(x[:, cols] - v[:, cols])
            dv = v[:, cols] - p[:, cols]
            smooth += float(np.vdot(dv, lap_sq[cols] * dv).real)
            spectral += _sq(dv[1:] - dv[:-1])
        cfg = self.cfg
        return (
            y_term / (gl * gw)
            + float(np.vdot(z_res, z_res)) / n
            + cfg.rho * coupling / n
            + (cfg.mu * smooth + cfg.nu * spectral) / n
        )


def _rel_change(new: np.ndarray, old: np.ndarray) -> float:
    """``||new - old|| / max(||old||, tiny)`` for the cubes whose DFTs are given."""
    n = new[0].size
    diff = sum(_sq(a - b) for a, b in zip(new, old))
    base = sum(_sq(b) for b in old)
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
    if prior.bands != model.bands or (prior.height, prior.width) != model.hr_shape:
        raise ValidationError(
            f"prior has shape {prior.data.shape}, model expects "
            f"{(model.bands,) + model.hr_shape}"
        )
    sylvester.check_data(model, y, z)
    fixed = _Spectra.prepare(y, z, model, prior, cfg)
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
        sylvester.solve_spectrum(fixed.xstep, v_hat, cfg.rho, fixed.c_eig)
        x_hat, v_hat = v_hat, x_hat
        if k > 0:
            changes.append(_rel_change(x_hat, v_hat))
        denoise_spectrum(fixed.denoise, x_hat, fixed.p_hat, v_hat)
        iterations = k + 1
        trace.append(fixed.objective(x_hat, v_hat))
        if changes and changes[-1] <= cfg.rel_tol:
            converged = True
            break
    # free the prior's spectrum, the factors and v before the inverse
    # transform allocates its output
    del fixed, v_hat
    return FusionResult(
        x_hat=idft2_per_band(FreqCube(x_hat)),
        iterations=iterations,
        objective_trace=tuple(trace),
        converged=converged,
        rel_changes=tuple(changes),
    )
