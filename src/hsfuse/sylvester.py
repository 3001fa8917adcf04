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
inverted in closed form by Sherman-Morrison:
``x_n = (b_n - e*nu_n) / lambda_n`` with one coefficient ``nu_n`` per group.
The pass leaves ``b_n - e*nu_n`` and the mix back to bands is ``q Lambda^-1``,
so no pass of its own divides by lambda. The kernels run on half spectra (see
``cube``): the members of a group that fall in unstored columns are conjugate
mirrors of stored members of the mirror group -g, so a group's reduction
``e^H x`` is its stored partial sum plus the conjugate of the matching partial
sum of group -g, and only the stored members are updated. One kernel,
``_solve_channels``, runs the pass over a stack of channels at a time, one
numpy call per step for the whole stack rather than one per channel. That
covers every system a ``DegradationModel`` produces: the model rejects grids
the factor does not divide, and C1 is positive definite for rho > 0. A system
outside that structure raises ``UnsupportedStructureError`` (CLI exit code 4)
rather than falling back to an iterative solver.

Two entry points share those kernels. ``solve_fast`` is the one-shot spatial
solve of a ``SylvesterSystem``: it transforms C3 (``cube.rdft2``), runs
``solve_spectrum``'s band mix, Sherman-Morrison pass and ``q Lambda^-1``
back-mix, and transforms back (``cube.irdft2``). The HQS loop calls
``solve_spectrum``, which maps the spectrum of v to the spectrum of the
solution with no transform at all. The data part of C3 is never formed as a
cube (``data_term``): the first band mix adds z's half spectrum, mixed by
(srf q)^T, block by block; the transform of blur_adjoint(upsample_adjoint(y))
is ``e`` times y's small transform (``lowres_spectrum``) at every member of a
group, so it enters the Sherman-Morrison pass as one shift per group and
channel. With that shift, ``lam_n*s^2*(q^T y_tilde)_n``, the low-resolution
residual of the x the pass writes is ``-nu_n``, so ``solve_spectrum``
returns ``||y - down(blur(x))||^2 = sum |nu|^2 / (gl*gw)``. Without the
shift the sum means nothing; ``solve_fast`` ignores it.
``sylvester_residual`` is an explicit diagnostic; the test suite keeps a
matrix-free conjugate-gradient oracle in ``tests/helpers.py``.

Inputs are validated where they enter: ``build_system`` checks rho, then the
shapes of y, z and v against the model (``DegradationModel.check_data``/
``check_hr``), ``SylvesterSystem`` checks C1, and ``sylvester_residual`` the
shape of x. The factor and solve kernels trust their callers: ``solve_fast``,
and ``hqs.fuse`` once ``HqsConfig`` and the model have checked its inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cube import (
    HsiCube,
    dft2,
    half_spectrum,
    irdft2,
    mix_bands,
    chunks,
    pool_map,
    rdft2,
    stacks,
)
from .degradation import BlurOperator, DegradationModel, Downsampler
from .errors import UnsupportedStructureError, ValidationError, check_real

__all__ = [
    "DataTerm",
    "SylvesterSystem",
    "XStepFactors",
    "build_system",
    "data_term",
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
        self.blur.check_grid(self.c3)
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
    check_real("rho", rho)
    model.check_hr("v", v)
    model.check_data(y, z)
    c3 = (
        model.srf.adjoint_array(z.data)
        + model.blur.adjoint_array(model.down.adjoint_array(y.data))
        + rho * v.data
    )
    c1 = model.srf.matrix.T @ model.srf.matrix + rho * np.eye(model.bands)
    return SylvesterSystem(c1, model.blur, model.down, HsiCube(c3))


def sylvester_residual(system: SylvesterSystem, x: HsiCube) -> float:
    """Relative residual ||C1 X + X C2 - C3|| / max(||C3||, tiny)."""
    x.check_shape("x", system.c3.data.shape)
    lhs = system.operator_apply_array(x.data)
    denom = max(system.c3.norm(), float(np.finfo(np.float64).tiny))
    return float(np.linalg.norm(lhs - system.c3.data)) / denom


@dataclass(frozen=True)
class XStepFactors:
    """What the x-step keeps fixed for one C1 and one blur/decimation pair.

    ``q``/``lam`` eigendecompose C1 (ascending, all positive). Member
    (tr, tc) of aliasing group (gr, gc) sits at frequency
    (tr*gl + gr, tc*gw + gc). A half spectrum stores the members in columns
    0..width//2, so ``e`` has shape (s, gl, width//2 + 1): row tr*gl + gr,
    column c, which a band of the half spectrum reshapes onto without a copy.
    The member of group g in column c > width//2 is the conjugate mirror of a
    stored member of group -g in column width - c. For those columns,
    ``mirror`` holds the unit factor conj(u(g)) with
    ``e(-m) = u(g) * conj(e(m))``. ``u(g)`` comes from the sampling-phase
    twiddles, and it is 1 at phase (0, 0). ``esq`` is ``|e|^2`` summed over
    all s^2 members of each group, shape (gl, gw).
    """

    q: np.ndarray
    lam: np.ndarray
    e: np.ndarray
    esq: np.ndarray
    mirror: np.ndarray

    @property
    def factor(self) -> int:
        return self.e.shape[0]

    @property
    def width(self) -> int:
        return self.e.shape[2] + self.mirror.shape[1]


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
    esq = (e.real**2 + e.imag**2).sum(axis=(0, 2))
    e = half_spectrum(e.reshape(height, width)).reshape(s, gl, -1)
    # a member and its mirror have twiddle indices summing to 0 (mod s) in
    # group row or column 0, and to -1 elsewhere; the blur response of a real
    # kernel is conjugate-symmetric
    gr = np.arange(gl)[:, None]
    gc = np.arange(e.shape[2], width)[None, :] % gw
    mirror = np.exp(-2j * np.pi * (pr * (gr != 0) + pc * (gc != 0)) / s)
    return XStepFactors(q, lam, e, esq, mirror)


def _solve_channels(fac: XStepFactors, spec: np.ndarray, shift: np.ndarray | None = None) -> float:
    """Overwrite each eigen-channel ``spec_n`` with ``lam_n * x_n``; return ``sum |nu|^2``.

    ``x_n`` solves ``(lam_n*I + C2) x_n = spec_n``; ``spec`` holds the
    channels' half spectra, shape (bands, height, width//2 + 1). Each aliasing
    group of a channel is one Sherman-Morrison solve; its stored members are
    updated. The division by ``lam_n`` is left to the back-mix,
    ``q Lambda^-1`` (``solve_spectrum``, ``solve_fast``). ``shift``
    (``DataTerm.shift``) is subtracted from each group's numerator
    ``e^H spec_n``.

    Each pool item solves a stack of channels (``cube.stacks``) with one
    numpy call per step: it sums each stored column over its s member rows,
    extends those (gl, width//2 + 1) partial sums to every column by the
    mirror relation and sums the columns of each group, which gives ``e^H x``
    on the full (gl, gw) low-resolution grid; then it divides, spreads each
    group's coefficient ``nu_n`` back over its stored members and updates
    them a stack of member rows at a time (``cube.chunks``), so that no
    temporary is as large as a full-scale channel (2 MB), which each pool
    thread's heap would keep. The squared magnitudes of the coefficients are
    summed per channel and the channel sums added in channel order.
    """
    s, gl, half = fac.e.shape
    width = fac.width
    ce = np.conj(fac.e)
    channels = spec.reshape(len(fac.lam), s, gl, half)
    # column c > width//2 of group row gr mirrors column width - c of group row -gr
    mirrored = -np.arange(gl) % gl

    def stack(rows: slice) -> list[float]:
        group = channels[rows]
        partial = np.einsum("tlc,ktlc->klc", ce, group)
        full = np.empty((len(group), gl, width), dtype=np.complex128)
        full[..., :half] = partial
        full[..., half:] = fac.mirror * np.conj(partial[:, mirrored, width - half : 0 : -1])
        num = full.reshape(len(group), gl, s, -1).sum(axis=2)
        if shift is not None:
            num -= shift[rows]
        num /= (fac.lam[rows] * (s * s))[:, None, None] + fac.esq
        spread = np.tile(num, (1, 1, s))[:, None, :, :half]
        for members in chunks(s, group[:, 0].nbytes):
            group[:, members] -= fac.e[members] * spread
        return [float(np.vdot(nu, nu).real) for nu in num]

    misfits = pool_map(stack, stacks(len(fac.lam), spec[0].nbytes))
    return sum(itertools.chain.from_iterable(misfits))


def lowres_spectrum(down: Downsampler, y: np.ndarray, height: int, width: int) -> np.ndarray:
    """DFT of the low-resolution cube ``y`` times the sampling-phase ramp.

    In the group layout of ``XStepFactors.e``, the DFT of
    ``blur_adjoint(upsample_adjoint(y))`` is ``e * y_tilde`` at every member, and
    ``y_tilde - e^H F(x) / s^2`` is the low-resolution DFT of
    ``y - down(blur(x))`` times the same unit-modulus ramp, so its squared
    magnitudes sum to ``gl*gw * ||y - down(blur(x))||^2``.
    """
    gl, gw = y.shape[-2:]
    pr, pc = down.phase
    ramp = np.exp(
        -2j * np.pi * (np.arange(gl)[:, None] * pr / height + np.arange(gw)[None, :] * pc / width)
    )
    return dft2(y) * ramp


@dataclass(frozen=True)
class DataTerm:
    """The data part of C3 as the x-step consumes it, with no cube of its own.

    In C1's eigenbasis the data part of C3 is ``mix @ F(z)`` plus
    ``e * c_n[g]`` at every member of aliasing group g of channel n, with
    ``c = q^T y_tilde``. The first band mix adds the z part block by block
    (``z_hat`` is z's half spectrum, which the loop holds anyway). The y part
    needs no pass of its own. Sherman-Morrison solves a group as
    ``x = (b - e * (e^H b) / (lam_n*s^2 + |e|^2)) / lam_n``, and
    ``e^H (e*c) = |e|^2 c``, so leaving ``e*c_n`` out of b and subtracting
    ``shift = lam_n*s^2*c_n`` (shape (bands, gl, gw)) from ``e^H b`` gives
    the same x.
    """

    mix: np.ndarray
    z_hat: np.ndarray
    shift: np.ndarray


def data_term(
    fac: XStepFactors, srf: np.ndarray, y_tilde: np.ndarray, z_hat: np.ndarray
) -> DataTerm:
    """The x-step's view of ``srf_adjoint(z) + blur_adjoint(upsample_adjoint(y))``.

    ``y_tilde`` comes from ``lowres_spectrum``, ``z_hat`` is the half
    spectrum of z.
    """
    y_eig = np.tensordot(fac.q.T, y_tilde, axes=(1, 0))
    shift = (fac.lam * fac.factor**2)[:, None, None] * y_eig
    return DataTerm((srf @ fac.q).T, z_hat, shift)


def solve_spectrum(fac: XStepFactors, v_hat: np.ndarray, rho: float, data: DataTerm) -> float:
    """The x-step on half spectra: overwrite ``v_hat``, the DFT of v, with the DFT of x.

    ``data`` is ``data_term``'s output for the same factors. Two band mixes
    (the first adds z; the second is ``q Lambda^-1``, which finishes each
    channel's solve) and one Sherman-Morrison pass per channel (which adds
    y); no transform. Returns ``||y - down(blur(x))||^2`` for the x it
    writes: ``sum |nu|^2 / (gl*gw)`` over every group and channel.
    """
    mix_bands(rho * fac.q.T, v_hat, (data.mix, data.z_hat))
    misfit = _solve_channels(fac, v_hat, data.shift)
    mix_bands(fac.q / fac.lam, v_hat)
    return misfit / fac.esq.size


def solve_fast(system: SylvesterSystem) -> HsiCube:
    """One-shot spatial solve: transform C3, run ``solve_spectrum``'s kernels, transform back.

    Raises:
        UnsupportedStructureError: structural preconditions do not hold.
    """
    fac = factor_xstep(system.c1, system.blur, system.down)
    spec = rdft2(system.c3.data)
    mix_bands(fac.q.T, spec)
    _solve_channels(fac, spec)
    mix_bands(fac.q / fac.lam, spec)
    return HsiCube(irdft2(spec, system.c3.width))
