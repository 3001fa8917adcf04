"""Solvers for the data-fidelity sub-problem's Sylvester equation.

Minimizing ``||y - down(blur(x))||^2 + ||z - srf(x)||^2 + rho*||x - v||^2``
over the matricized cube X gives the linear system

    C1 X + X C2 = C3

with C1 = R^T R + rho*I over bands (symmetric positive definite), C2 the
per-band normal operator of blur-then-decimate over pixels (matrix-free), and
C3 = srf_adjoint(z) + blur_adjoint(upsample_adjoint(y)) + rho*v.

``solve_fast`` is the one solver. It eigendecomposes C1 and moves each
eigen-channel to the frequency domain, where decimation couples only the
factor^2 frequencies that alias onto one low-resolution frequency; each
coupled block is ``lambda*I + (1/d) e e^H`` with e built from the blur
response (times unit twiddles for a nonzero sampling phase), inverted in
closed form by Sherman-Morrison. That covers every system ``build_system``
produces: ``DegradationModel`` rejects grids the factor does not divide, and
C1 is positive definite for rho > 0. A system outside that structure raises
``UnsupportedStructureError`` (CLI exit code 4) rather than falling back to
an iterative solver. ``sylvester_residual`` is an explicit diagnostic; the
test suite keeps a matrix-free conjugate-gradient oracle in
``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import HsiCube
from .degradation import BlurOperator, DegradationModel, Downsampler
from .errors import UnsupportedStructureError, ValidationError

__all__ = [
    "SylvesterSystem",
    "build_system",
    "sylvester_residual",
    "solve_fast",
]


@dataclass(frozen=True)
class SylvesterSystem:
    """One instance of C1 X + X C2 = C3 with C2 held as operators."""

    c1: np.ndarray
    blur: BlurOperator
    down: Downsampler
    c3: HsiCube
    rho: float

    def __post_init__(self) -> None:
        c1 = np.asarray(self.c1, dtype=np.float64)
        if c1.ndim != 2 or c1.shape[0] != c1.shape[1]:
            raise ValidationError(f"C1 must be square, got shape {c1.shape}")
        if c1.shape[0] != self.c3.bands:
            raise ValidationError(
                f"C1 is {c1.shape[0]}x{c1.shape[0]} but C3 has {self.c3.bands} bands"
            )
        if not np.all(np.isfinite(c1)):
            raise ValidationError("C1 entries must be finite")
        scale = max(float(np.abs(c1).max()), 1e-30)
        if float(np.abs(c1 - c1.T).max()) > 1e-10 * scale:
            raise ValidationError("C1 must be symmetric")
        if (self.blur.height, self.blur.width) != (self.c3.height, self.c3.width):
            raise ValidationError(
                f"blur grid {(self.blur.height, self.blur.width)} does not match C3 grid "
                f"{(self.c3.height, self.c3.width)}"
            )
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValidationError(f"rho must be positive, got {self.rho!r}")
        c1 = c1.copy()
        c1.setflags(write=False)
        object.__setattr__(self, "c1", c1)

    @property
    def bands(self) -> int:
        return self.c3.bands

    def normal_apply_array(self, data: np.ndarray) -> np.ndarray:
        """Per-band action of C2: blur, keep sampled pixels, blur-adjoint."""
        t = self.blur.apply_array(data)
        t = self.down.adjoint_array(self.down.apply_array(t))
        return self.blur.adjoint_array(t)

    def operator_apply_array(self, data: np.ndarray) -> np.ndarray:
        """Full left-hand side C1 X + X C2 on a (bands, height, width) array."""
        return np.tensordot(self.c1, data, axes=(1, 0)) + self.normal_apply_array(data)


def build_system(
    model: DegradationModel, y: HsiCube, z: HsiCube, v: HsiCube, rho: float
) -> SylvesterSystem:
    """Assemble the normal-equation system for one splitting iterate v."""
    if not (np.isfinite(rho) and rho > 0):
        raise ValidationError(f"rho must be positive, got {rho!r}")
    bands = model.srf.in_bands
    hr = model.hr_shape
    s = model.down.factor
    if v.bands != bands or (v.height, v.width) != hr:
        raise ValidationError(
            f"v has shape {v.data.shape}, model expects {(bands,) + hr}"
        )
    if y.bands != bands or (y.height * s, y.width * s) != hr:
        raise ValidationError(
            f"y has shape {y.data.shape}, model expects "
            f"{(bands, hr[0] // s, hr[1] // s)}"
        )
    if z.bands != model.srf.out_bands or (z.height, z.width) != hr:
        raise ValidationError(
            f"z has shape {z.data.shape}, model expects {(model.srf.out_bands,) + hr}"
        )
    c3 = (
        model.srf.adjoint_array(z.data)
        + model.blur.adjoint_array(model.down.adjoint_array(y.data))
        + rho * v.data
    )
    c1 = model.srf.matrix.T @ model.srf.matrix + rho * np.eye(bands)
    return SylvesterSystem(c1, model.blur, model.down, HsiCube(c3), rho)


def sylvester_residual(system: SylvesterSystem, x: HsiCube) -> float:
    """Relative residual ||C1 X + X C2 - C3|| / max(||C3||, tiny)."""
    if x.data.shape != system.c3.data.shape:
        raise ValidationError(
            f"x has shape {x.data.shape}, system expects {system.c3.data.shape}"
        )
    lhs = system.operator_apply_array(x.data)
    denom = max(system.c3.norm(), float(np.finfo(np.float64).tiny))
    return float(np.linalg.norm(lhs - system.c3.data)) / denom


def solve_fast(system: SylvesterSystem) -> HsiCube:
    """Closed-form frequency-domain solve via per-eigen-channel aliasing groups.

    Requires the decimation factor to divide both grid dimensions (the blur is
    circular by construction). Cost is one small eigendecomposition, two dense
    band mixes, and one FFT round trip per band.

    Raises:
        UnsupportedStructureError: structural preconditions do not hold.
    """
    s = system.down.factor
    height, width = system.c3.height, system.c3.width
    if height % s or width % s:
        raise UnsupportedStructureError(
            f"factor {s} does not divide the {height}x{width} grid"
        )
    lam, q = np.linalg.eigh(system.c1)
    if lam[0] <= 0:
        raise UnsupportedStructureError(
            f"C1 must be positive definite, smallest eigenvalue {lam[0]:.3e}"
        )
    bands = system.bands
    gl, gw = height // s, width // s
    d = s * s

    mixed = (q.T @ system.c3.as_matrix()).reshape(bands, height, width)
    spec = np.fft.fft2(mixed, axes=(-2, -1))

    # group member (tr, tc) of group (gr, gc) sits at frequency (tr*gl+gr, tc*gw+gc)
    pr, pc = system.down.phase
    tr = np.arange(s).reshape(s, 1, 1, 1)
    tc = np.arange(s).reshape(1, 1, s, 1)
    twiddle = np.exp(-2j * np.pi * (tr * pr + tc * pc) / s)
    e = np.conj(system.blur.multiplier.reshape(s, gl, s, gw)) * twiddle
    esq = np.einsum("alcb,alcb->lb", np.conj(e), e).real

    spec5 = spec.reshape(bands, s, gl, s, gw)
    num = np.einsum("alcb,nalcb->nlb", np.conj(e), spec5)
    denom = lam[:, None, None] * d + esq[None]
    corr = e[None] * (num / denom)[:, None, :, None, :]
    out = (spec5 - corr) / lam[:, None, None, None, None]

    channels = np.fft.ifft2(out.reshape(bands, height, width), axes=(-2, -1)).real
    return HsiCube((q @ channels.reshape(bands, -1)).reshape(bands, height, width))

