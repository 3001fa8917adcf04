"""Half quadratic splitting driver for fusion super-resolution.

The augmented objective

    L(x, v) = ||y - down(blur(x))||^2 + ||z - srf(x)||^2 + rho*||x - v||^2
              + mu*||D(v - prior)||^2 + nu*||E(v - prior)||^2

is minimized by alternating exact sub-solves with a fixed rho: the Sylvester
step updates x with v fixed (closed form, ``sylvester.solve_fast``), the
per-frequency tridiagonal step updates v with x fixed. Both are exact
minimizers, so the objective trace is non-increasing. The iteration starts
from v = prior and returns the last x iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sylvester
from .cube import HsiCube
from .degradation import DegradationModel
from .errors import ValidationError
from .gradients import LaplacianOperator, regularizer_value
from .sylvester import build_system
from .vstep import vstep

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
    x_hat: HsiCube
    iterations: int
    objective_trace: tuple[float, ...] = field(default_factory=tuple)
    converged: bool = False


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
    lap = LaplacianOperator.create(prior.height, prior.width)
    v = prior
    x = prior
    x_prev: HsiCube | None = None
    trace: list[float] = []
    converged = False
    iterations = 0
    for k in range(cfg.max_iter):
        system = build_system(model, y, z, v, cfg.rho)
        # looked up on its module, so a wrapper installed there sees every x-step
        x = sylvester.solve_fast(system)
        v = vstep(x, prior, lap, cfg.mu / cfg.rho, cfg.nu / cfg.rho)
        iterations = k + 1
        trace.append(objective_value(x, v, y, z, model, prior, cfg, lap=lap))
        if x_prev is not None:
            denom = max(x_prev.norm(), float(np.finfo(np.float64).tiny))
            if float(np.linalg.norm(x.data - x_prev.data)) / denom <= cfg.rel_tol:
                converged = True
                break
        x_prev = x
    return FusionResult(
        x_hat=x,
        iterations=iterations,
        objective_trace=tuple(trace),
        converged=converged,
    )
