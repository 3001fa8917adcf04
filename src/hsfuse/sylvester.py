"""The closed-form x-step: the data-fidelity sub-problem's Sylvester equation.

Minimizing ``||y - down(blur(x))||^2 + ||z - srf(x)||^2 + rho*||x - v||^2``
over the matricized cube X gives the linear system

    C1 X + X C2 = C3

with C1 = R^T R + rho*I over bands (symmetric positive definite), C2 the
per-band normal operator of blur-then-decimate over pixels (matrix-free), and
C3 = srf_adjoint(z) + blur_adjoint(upsample_adjoint(y)) + rho*v.

The solve is exact per frequency. ``XStep.create`` eigendecomposes C1 in the
coordinates of an orthonormal band basis U, as ``(R U)^T (R U) + rho*I``; in
its eigenbasis every channel n decouples, and in the frequency domain
decimation couples only the factor^2 frequencies that alias onto one
low-resolution frequency. Each coupled block is ``lambda_n*I + (1/d) e e^H``,
with ``e`` the blur response of the group (times unit twiddles for a nonzero
sampling phase), inverted in closed form by Sherman-Morrison:
``x_n = (b_n - e*nu_n) / lambda_n`` with one coefficient ``nu_n`` per group.
The pass leaves ``b_n - e*nu_n`` and the mix back to bands is ``q Lambda^-1``,
so no pass of its own divides by lambda. The kernels run on half spectra (see
``cube``): the members of a group that fall in unstored columns are conjugate
mirrors of stored members of the mirror group -g, so a group's reduction
``e^H x`` is its stored partial sum plus the conjugate of the matching partial
sum of group -g, and only the stored members are updated. One kernel,
``_solve_channels``, runs the pass over a chunk of channels at a time, one
numpy call per step for the whole chunk rather than one per channel.

The data part of C3 is never formed as a cube. The first band mix adds z's
half spectrum, mixed by (srf q)^T, block by block. The transform of
blur_adjoint(upsample_adjoint(y)) is ``e`` times y's small, phase-ramped
transform ``y_tilde`` at every member of a group, so it enters the
Sherman-Morrison pass as one shift per group and channel,
``lam_n*s^2*(q^T y_tilde)_n``. With that shift the low-resolution residual of
the x the pass writes is ``-nu_n``, so ``solve_spectrum`` returns
``||y - down(blur(x))||^2 = sum |nu|^2 / (gl*gw)``.

There is one x-step path. The HQS loop builds one ``XStep`` in the v-step's
basis and calls ``solve_spectrum`` every iteration, which maps the spectrum
of v to the spectrum of the solution with no transform at all.
``solve_fast`` runs that same x-step once on cubes, in the identity basis:
it transforms v (``cube.rdft2``), calls ``solve_spectrum`` and transforms
back (``cube.irdft2``). A ``SylvesterSystem`` holds what one x-step is built
from: the model, y, z, v and rho. C1, C3 and the operator ``C1 X + X C2`` are
derived from them in one place, for the explicit diagnostic
``sylvester_residual`` and for the test suite's independent oracles (the
dense Kronecker solve and matrix-free conjugate gradient).

Every ``DegradationModel`` has a grid its factor divides, and C1 is positive
definite for rho > 0 in exact arithmetic. R^T R has rank at most the number
of mixed bands, though, so at rho of about 1e-15 or below the smallest
eigenvalue of C1 is lost in roundoff. ``XStep.create`` raises
``UnsupportedStructureError`` (CLI exit code 4) naming rho whenever it is
below ``4 * bands * eps`` times the largest, rather than falling back.

Inputs are validated where they enter: ``SylvesterSystem`` (which
``build_system`` builds) checks rho, then the shapes of y, z and v against
the model (``DegradationModel.check_data``/``check_hr``), and
``sylvester_residual`` the shape of x. ``XStep.create`` and the solve kernels
trust their callers: ``solve_fast``, and ``hqs.fuse`` once ``HqsConfig`` and
the model have checked its inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cube import (
    HsiCube,
    check_shape,
    dft2,
    half_spectrum,
    irdft2,
    mix_bands,
    chunks,
    pool_map,
    rdft2,
)
from .degradation import DegradationModel
from .errors import UnsupportedStructureError, check_real

__all__ = [
    "SylvesterSystem",
    "XStep",
    "build_system",
    "solve_fast",
    "solve_spectrum",
    "sylvester_residual",
]


@dataclass(frozen=True)
class SylvesterSystem:
    """One x-step's inputs, C1 X + X C2 = C3 for a model, the data (y, z), v and rho.

    C1 and C3 are derived here for ``sylvester_residual`` and the tests'
    oracles; ``solve_fast`` forms neither.
    """

    model: DegradationModel
    y: HsiCube
    z: HsiCube
    v: HsiCube
    rho: float

    def __post_init__(self) -> None:
        check_real("rho", self.rho)
        self.model.check_hr("v", self.v)
        self.model.check_data(self.y, self.z)

    @property
    def bands(self) -> int:
        return self.model.bands

    @property
    def c1(self) -> np.ndarray:
        """``R^T R + rho*I``."""
        r = self.model.srf.matrix
        return r.T @ r + self.rho * np.eye(self.bands)

    @property
    def c3(self) -> HsiCube:
        """``srf_adjoint(z) + blur_adjoint(upsample_adjoint(y)) + rho*v``."""
        model = self.model
        return HsiCube(
            model.srf.adjoint_array(self.z.data)
            + model.blur.adjoint_array(model.down.adjoint_array(self.y.data))
            + self.rho * self.v.data
        )

    def normal_apply_array(self, data: np.ndarray) -> np.ndarray:
        """Per-band action of C2: blur, keep sampled pixels, blur-adjoint."""
        blur, down = self.model.blur, self.model.down
        return blur.adjoint_array(down.adjoint_array(down.apply_array(blur.apply_array(data))))

    def operator_apply_array(self, data: np.ndarray) -> np.ndarray:
        """Full left-hand side C1 X + X C2 on a (bands, height, width) array."""
        return np.tensordot(self.c1, data, axes=(1, 0)) + self.normal_apply_array(data)


def build_system(
    model: DegradationModel, y: HsiCube, z: HsiCube, v: HsiCube, rho: float
) -> SylvesterSystem:
    """Assemble the normal-equation system for one splitting iterate v."""
    return SylvesterSystem(model, y, z, v, rho)


def sylvester_residual(system: SylvesterSystem, x: HsiCube) -> float:
    """Relative residual ||C1 X + X C2 - C3|| / max(||C3||, tiny)."""
    check_shape("x", x.data.shape, system.v.data.shape)
    c3 = system.c3
    lhs = system.operator_apply_array(x.data)
    denom = max(c3.norm(), float(np.finfo(np.float64).tiny))
    return float(np.linalg.norm(lhs - c3.data)) / denom


@dataclass(frozen=True)
class XStep:
    """What the x-step keeps fixed for one model, band basis U, rho and (y, z) pair.

    ``srf`` is the response in U's coordinates, R U, which the objective's
    z-term reads too. ``q``/``lam`` eigendecompose C1 = srf^T srf + rho*I
    (ascending, all positive). Member (tr, tc) of aliasing group (gr, gc)
    sits at frequency (tr*gl + gr, tc*gw + gc). A half spectrum stores the
    members in columns 0..width//2, so ``e`` has shape (s, gl, width//2 + 1):
    row tr*gl + gr, column c, which a band of the half spectrum reshapes onto
    without a copy. The member of group g in column c > width//2 is the
    conjugate mirror of a stored member of group -g in column width - c. For
    those columns, ``mirror`` holds the unit factor conj(u(g)) with
    ``e(-m) = u(g) * conj(e(m))``. ``u(g)`` comes from the sampling-phase
    twiddles, and it is 1 at phase (0, 0). ``esq`` is ``|e|^2`` summed over
    all s^2 members of each group, shape (gl, gw).

    The data term: ``shift`` (bands, gl, gw) is y's part, which the
    Sherman-Morrison pass subtracts from each group's ``e^H b``
    (``_solve_channels``), and ``z_hat`` is z's half spectrum, which the
    first band mix adds.
    """

    rho: float
    srf: np.ndarray
    q: np.ndarray
    lam: np.ndarray
    e: np.ndarray
    esq: np.ndarray
    mirror: np.ndarray
    shift: np.ndarray
    z_hat: np.ndarray

    @property
    def width(self) -> int:
        return self.e.shape[2] + self.mirror.shape[1]

    @classmethod
    def create(
        cls, model: DegradationModel, basis: np.ndarray, rho: float, y: HsiCube, z: HsiCube
    ) -> "XStep":
        """Factor C1 in the coordinates of ``basis`` and build the data term of y and z.

        Raises:
            UnsupportedStructureError: rho is so small that C1 is not
                positive definite in floating point.
        """
        s = model.down.factor
        height, width = model.hr_shape
        srf = model.srf.matrix @ basis
        lam, q = np.linalg.eigh(srf.T @ srf + rho * np.eye(model.bands))
        # eigh's error is about bands * eps * lam[-1]: below that, lam[0]'s sign is noise
        floor = 4 * model.bands * np.finfo(np.float64).eps * lam[-1]
        if lam[0] < floor:
            raise UnsupportedStructureError(
                f"rho = {rho:.3e} is too small: C1 = R^T R + rho*I is not positive "
                f"definite in floating point (smallest eigenvalue {lam[0]:.3e} < {floor:.3e})"
            )
        gl, gw = height // s, width // s
        pr, pc = model.down.phase
        tr = np.arange(s).reshape(s, 1, 1, 1)
        tc = np.arange(s).reshape(1, 1, s, 1)
        twiddle = np.exp(-2j * np.pi * (tr * pr + tc * pc) / s)
        e = np.conj(model.blur.multiplier.reshape(s, gl, s, gw)) * twiddle
        esq = (e.real**2 + e.imag**2).sum(axis=(0, 2))
        e = half_spectrum(e.reshape(height, width)).reshape(s, gl, -1)
        # a member and its mirror have twiddle indices summing to 0 (mod s) in
        # group row or column 0, and to -1 elsewhere; the blur response of a real
        # kernel is conjugate-symmetric
        gr = np.arange(gl)[:, None]
        gc = np.arange(e.shape[2], width)[None, :] % gw
        mirror = np.exp(-2j * np.pi * (pr * (gr != 0) + pc * (gc != 0)) / s)
        # y's DFT times the sampling-phase ramp: in the group layout of ``e``,
        # the DFT of blur_adjoint(upsample_adjoint(y)) is ``e * y_tilde`` at
        # every member, and ``y_tilde - e^H F(x) / s^2`` is the low-resolution
        # DFT of y - down(blur(x)) times the same unit-modulus ramp.
        # Sherman-Morrison solves a group as
        # ``x = (b - e * (e^H b) / (lam_n*s^2 + |e|^2)) / lam_n``, and
        # ``e^H (e*c) = |e|^2 c``, so leaving ``e * c_n`` out of b and
        # subtracting ``lam_n*s^2*c_n`` from ``e^H b`` (c = q^T y_tilde) gives
        # the same x
        rows, cols = np.arange(gl)[:, None], np.arange(gw)[None, :]
        ramp = np.exp(-2j * np.pi * (rows * pr / height + cols * pc / width))
        y_tilde = dft2(y.data) * ramp
        mix_bands(basis.T, y_tilde)
        shift = (lam * s**2)[:, None, None] * np.tensordot(q.T, y_tilde, axes=(1, 0))
        # z, the one cube-sized input, is transformed last, once the factors
        # and y's small arrays exist (see ``hqs._Spectra.prepare``)
        return cls(rho, srf, q, lam, e, esq, mirror, shift, rdft2(z.data))


def _solve_channels(xstep: XStep, spec: np.ndarray) -> float:
    """Overwrite each eigen-channel ``spec_n`` with ``lam_n * x_n``; return ``sum |nu|^2``.

    ``x_n`` solves ``(lam_n*I + C2) x_n = spec_n`` plus y's part of the data
    term; ``spec`` holds the channels' half spectra, shape (bands, height,
    width//2 + 1). Each aliasing group of a channel is one Sherman-Morrison
    solve; its stored members are updated. The division by ``lam_n`` is left
    to the back-mix, ``q Lambda^-1`` (``solve_spectrum``). ``xstep.shift``
    is subtracted from each group's numerator ``e^H spec_n``.

    Each pool item solves a chunk of channels (``cube.chunks``) with one
    numpy call per step: it sums each stored column over its s member rows,
    extends those (gl, width//2 + 1) partial sums to every column by the
    mirror relation and sums the columns of each group, which gives ``e^H x``
    on the full (gl, gw) low-resolution grid; then it divides, spreads each
    group's coefficient ``nu_n`` back over its stored members and updates
    them a chunk of member rows at a time (``cube.chunks``), so that no
    temporary is as large as a full-scale channel (2 MB), which each pool
    thread's heap would keep. The squared magnitudes of the coefficients are
    summed per channel and the channel sums added in channel order.
    """
    s, gl, half = xstep.e.shape
    width = xstep.width
    ce = np.conj(xstep.e)
    channels = spec.reshape(len(xstep.lam), s, gl, half)
    # column c > width//2 of group row gr mirrors column width - c of group row -gr
    mirrored = -np.arange(gl) % gl

    def chunk(rows: slice) -> list[float]:
        group = channels[rows]
        partial = np.einsum("tlc,ktlc->klc", ce, group)
        full = np.empty((len(group), gl, width), dtype=np.complex128)
        full[..., :half] = partial
        full[..., half:] = xstep.mirror * np.conj(partial[:, mirrored, width - half : 0 : -1])
        num = full.reshape(len(group), gl, s, -1).sum(axis=2)
        num -= xstep.shift[rows]
        num /= (xstep.lam[rows] * (s * s))[:, None, None] + xstep.esq
        spread = np.tile(num, (1, 1, s))[:, None, :, :half]
        for members in chunks(s, group[:, 0].nbytes):
            group[:, members] -= xstep.e[members] * spread
        return [float(np.vdot(nu, nu).real) for nu in num]

    misfits = pool_map(chunk, chunks(len(xstep.lam), spec[0].nbytes))
    return sum(itertools.chain.from_iterable(misfits))


def solve_spectrum(xstep: XStep, v_hat: np.ndarray) -> float:
    """The x-step on half spectra: overwrite ``v_hat``, the DFT of v, with the DFT of x.

    ``v_hat`` is in the coordinates of the basis ``xstep`` was built in. Two
    band mixes (the first adds z; the second is ``q Lambda^-1``, which
    finishes each channel's solve) and one Sherman-Morrison pass per channel
    (which adds y); no transform. Returns ``||y - down(blur(x))||^2`` for the
    x it writes: ``sum |nu|^2 / (gl*gw)`` over every group and channel.
    """
    mix_bands(xstep.rho * xstep.q.T, v_hat, ((xstep.srf @ xstep.q).T, xstep.z_hat))
    misfit = _solve_channels(xstep, v_hat)
    mix_bands(xstep.q / xstep.lam, v_hat)
    return misfit / xstep.esq.size


def solve_fast(system: SylvesterSystem) -> HsiCube:
    """The loop's x-step run once in the identity basis: transform v, solve, transform back.

    Raises:
        UnsupportedStructureError: rho is so small that C1 is not positive
            definite in floating point.
    """
    model = system.model
    xstep = XStep.create(model, np.eye(model.bands), system.rho, system.y, system.z)
    spec = rdft2(system.v.data)
    solve_spectrum(xstep, spec)
    return HsiCube(irdft2(spec, model.hr_shape[1]))
