"""Closed-form solvers for the data-fidelity sub-problem's Sylvester equation.

Minimizing ``||y - down(blur(x))||^2 + ||z - srf(x)||^2 + rho*||x - v||^2``
over the matricized cube X gives the linear system

    C1 X + X C2 = C3

with C1 = R^T R + rho*I over bands (symmetric positive definite), C2 the
per-band normal operator of blur-then-decimate over pixels (matrix-free), and
C3 = srf_adjoint(z) + blur_adjoint(upsample_adjoint(y)) + rho*v.

The solve is exact per frequency. ``factor_xstep`` eigendecomposes C1; in its
eigenbasis every channel n decouples, and in the frequency domain decimation
couples only the factor^2 frequencies that alias onto one low-resolution
frequency. Each coupled block is ``lambda_n*I + (1/d) e e^H``, with ``e`` the
blur response of the group (times unit twiddles for a nonzero sampling phase),
inverted in closed form by Sherman-Morrison. That covers every system a
``DegradationModel`` produces: the model rejects grids the factor does not
divide, and C1 is positive definite for rho > 0. A system outside that
structure raises ``UnsupportedStructureError`` (CLI exit code 4) rather than
falling back to an iterative solver.

Two entry points share those kernels. ``solve_fast`` is the one-shot spatial
solve of a ``SylvesterSystem``: one forward and one inverse transform. The
HQS loop calls ``solve_spectrum`` instead, which maps the spectrum of v to the
spectrum of the solution with no transform at all: the data part of C3 is
transformed once per run (``lowres_spectrum``, ``data_rhs``; the transform of
upsample_adjoint(y) is y's small transform tiled over the aliasing groups).
``sylvester_residual`` is an explicit diagnostic; the test suite keeps a
matrix-free conjugate-gradient oracle in ``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import HsiCube, column_blocks
from .degradation import BlurOperator, DegradationModel, Downsampler
from .errors import UnsupportedStructureError, ValidationError

__all__ = [
    "SylvesterSystem",
    "XStepFactors",
    "build_system",
    "check_data",
    "data_rhs",
    "factor_xstep",
    "lowres_spectrum",
    "solve_fast",
    "solve_spectrum",
    "sylvester_residual",
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


def check_data(model: DegradationModel, y: HsiCube, z: HsiCube) -> None:
    """Check that y and z have the shapes the model produces."""
    bands = model.srf.in_bands
    hr = model.hr_shape
    s = model.down.factor
    if y.bands != bands or (y.height * s, y.width * s) != hr:
        raise ValidationError(
            f"y has shape {y.data.shape}, model expects "
            f"{(bands, hr[0] // s, hr[1] // s)}"
        )
    if z.bands != model.srf.out_bands or (z.height, z.width) != hr:
        raise ValidationError(
            f"z has shape {z.data.shape}, model expects {(model.srf.out_bands,) + hr}"
        )


def build_system(
    model: DegradationModel, y: HsiCube, z: HsiCube, v: HsiCube, rho: float
) -> SylvesterSystem:
    """Assemble the normal-equation system for one splitting iterate v."""
    if not (np.isfinite(rho) and rho > 0):
        raise ValidationError(f"rho must be positive, got {rho!r}")
    bands = model.srf.in_bands
    if v.bands != bands or (v.height, v.width) != model.hr_shape:
        raise ValidationError(
            f"v has shape {v.data.shape}, model expects {(bands,) + model.hr_shape}"
        )
    check_data(model, y, z)
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


@dataclass(frozen=True)
class XStepFactors:
    """What the x-step keeps fixed for one C1 and one blur/decimation pair.

    ``q``/``lam`` eigendecompose C1 (ascending, all positive). ``e`` has shape
    (s, gl, s, gw): member (tr, tc) of aliasing group (gr, gc), which sits at
    frequency (tr*gl + gr, tc*gw + gc), so a band spectrum of shape (H, W)
    reshapes onto it without a copy. ``esq`` is ``|e|^2`` per group.
    """

    q: np.ndarray
    lam: np.ndarray
    e: np.ndarray
    esq: np.ndarray

    @property
    def factor(self) -> int:
        return self.e.shape[0]


def factor_xstep(c1: np.ndarray, blur: BlurOperator, down: Downsampler) -> XStepFactors:
    """Eigendecompose C1 and build the aliasing-group vectors.

    Raises:
        UnsupportedStructureError: the factor does not divide the grid, or C1
            is not positive definite.
    """
    s = down.factor
    height, width = blur.height, blur.width
    if height % s or width % s:
        raise UnsupportedStructureError(
            f"factor {s} does not divide the {height}x{width} grid"
        )
    lam, q = np.linalg.eigh(c1)
    if lam[0] <= 0:
        raise UnsupportedStructureError(
            f"C1 must be positive definite, smallest eigenvalue {lam[0]:.3e}"
        )
    gl, gw = height // s, width // s
    pr, pc = down.phase
    tr = np.arange(s).reshape(s, 1, 1, 1)
    tc = np.arange(s).reshape(1, 1, s, 1)
    twiddle = np.exp(-2j * np.pi * (tr * pr + tc * pc) / s)
    e = np.conj(blur.multiplier.reshape(s, gl, s, gw)) * twiddle
    esq = np.einsum("alcb,alcb->lb", np.conj(e), e).real
    return XStepFactors(q, lam, e, esq)


def _solve_channels(fac: XStepFactors, spec: np.ndarray) -> None:
    """Solve ``(lam_n*I + C2) x_n = spec_n`` for every eigen-channel n, in place.

    ``spec`` holds the channels' spectra, shape (bands, height, width). Each
    aliasing group of a channel is one Sherman-Morrison solve.
    """
    s = fac.factor
    gl, gw = fac.e.shape[1], fac.e.shape[3]
    ce = np.conj(fac.e)
    for n, lam in enumerate(fac.lam):
        group = spec[n].reshape(s, gl, s, gw)
        num = np.einsum("alcb,alcb->lb", ce, group)
        num /= lam * (s * s) + fac.esq
        group -= fac.e * num[None, :, None, :]
        group /= lam


def _mix(mat: np.ndarray, spec: np.ndarray, offset: np.ndarray | None = None) -> None:
    """``spec <- mat @ spec (+ offset)`` over the band axis, in place, block by block.

    A real matrix mixes real and imaginary parts alike, so the complex
    (bands, pixels) spectrum is mixed as its (bands, 2*pixels) real view.
    """
    flat = spec.reshape(spec.shape[0], -1).view(np.float64)
    if offset is not None:
        offset = offset.reshape(offset.shape[0], -1).view(np.float64)
    for cols in column_blocks(flat.shape[1]):
        block = mat @ flat[:, cols]
        if offset is not None:
            block += offset[:, cols]
        flat[:, cols] = block


def lowres_spectrum(down: Downsampler, y: np.ndarray, height: int, width: int) -> np.ndarray:
    """DFT of the low-resolution cube ``y`` times the sampling-phase ramp.

    In the group layout of ``XStepFactors.e``, the DFT of
    ``blur_adjoint(upsample_adjoint(y))`` is ``e * y_tilde``, and
    ``y_tilde - e^H F(x) / s^2`` is the low-resolution DFT of
    ``y - down(blur(x))`` times the same unit-modulus ramp, so its squared
    magnitudes sum to ``gl*gw * ||y - down(blur(x))||^2``.
    """
    gl, gw = y.shape[-2:]
    pr, pc = down.phase
    ramp = np.exp(
        -2j * np.pi * (np.arange(gl)[:, None] * pr / height + np.arange(gw)[None, :] * pc / width)
    )
    return np.fft.fft2(y, axes=(-2, -1)) * ramp


def data_rhs(
    fac: XStepFactors, srf: np.ndarray, y_tilde: np.ndarray, z_hat: np.ndarray
) -> np.ndarray:
    """``q^T F(srf_adjoint(z) + blur_adjoint(upsample_adjoint(y)))``: C3 without rho*v.

    ``y_tilde`` comes from ``lowres_spectrum``, ``z_hat`` is the per-band
    DFT of z. The result is in C1's eigenbasis, shape (bands, height, width).
    """
    bands = fac.q.shape[0]
    s = fac.factor
    gl, gw = y_tilde.shape[-2:]
    out = np.empty((bands,) + z_hat.shape[1:], dtype=np.complex128)
    np.matmul(
        (srf @ fac.q).T,
        z_hat.reshape(z_hat.shape[0], -1).view(np.float64),
        out=out.reshape(bands, -1).view(np.float64),
    )
    y_eig = np.tensordot(fac.q.T, y_tilde, axes=(1, 0))
    for n in range(bands):
        group = out[n].reshape(s, gl, s, gw)
        group += fac.e * y_eig[n][None, :, None, :]
    return out


def solve_spectrum(fac: XStepFactors, v_hat: np.ndarray, rho: float, c_eig: np.ndarray) -> None:
    """The x-step on spectra: overwrite ``v_hat``, the DFT of v, with the DFT of x.

    ``c_eig`` is ``data_rhs``'s output for the same factors. Two band mixes
    and one Sherman-Morrison pass per channel; no transform.
    """
    _mix(rho * fac.q.T, v_hat, c_eig)
    _solve_channels(fac, v_hat)
    _mix(fac.q, v_hat)


def solve_fast(system: SylvesterSystem) -> HsiCube:
    """One-shot spatial solve: one forward and one inverse transform per band.

    Raises:
        UnsupportedStructureError: structural preconditions do not hold.
    """
    fac = factor_xstep(system.c1, system.blur, system.down)
    bands, height, width = system.c3.data.shape
    mixed = (fac.q.T @ system.c3.as_matrix()).reshape(bands, height, width)
    spec = np.fft.fft2(mixed, axes=(-2, -1))
    _solve_channels(fac, spec)
    channels = np.fft.ifft2(spec, axes=(-2, -1)).real
    return HsiCube((fac.q @ channels.reshape(bands, -1)).reshape(bands, height, width))
