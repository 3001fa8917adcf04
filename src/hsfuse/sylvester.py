"""The closed-form x-step: the data-fidelity sub-problem's Sylvester equation.

Minimizing ``||y - down(blur(x))||^2 + ||z - srf(x)||^2 + rho*||x - v||^2``
over the matricized cube X gives the linear system

    C1 X + X C2 = C3

with C1 = R^T R + rho*I over bands (symmetric positive definite), C2 the
per-band normal operator of blur-then-decimate over pixels (matrix-free), and
C3 = srf_adjoint(z) + blur_adjoint(upsample_adjoint(y)) + rho*v.

The solve is exact per frequency. ``XStep.create`` eigendecomposes C1 in the
coordinates of an orthonormal band basis U, as ``S^T S + rho*I`` with
S = R U; in its eigenbasis every channel n decouples, and in the frequency
domain decimation couples only the factor^2 frequencies that alias onto one
low-resolution frequency. Each coupled block is ``lambda_n*I + (1/d) e e^H``,
with ``e`` the blur response of the group (times unit twiddles for a nonzero
sampling phase), inverted in closed form by Sherman-Morrison. The solution
is ``x = x0 - e * Q u``: ``x0 = C1^-1 (rho*v + S^T z)`` and, for each group,
``u = Q^T (e^H x0 - s^2 y_tilde) / (lambda*s^2 + |e|^2)``, one number per
channel (Wei et al., IEEE TIP 2015, solve the same equation in closed form).

R has only out_bands (3) rows, so C1 is rho*I plus a rank-3 update: every
eigenvalue but the top r = min(out_bands, bands) is rho, and
``rho*C1^-1 = I + Q_r diag(rho/lambda_r - 1) Q_r^T`` (the Woodbury
identity). The spectrum therefore never leaves U's coordinates.
``solve_spectrum`` makes three passes over it, each on the pool: the block
pass (``_block_pass``) writes x0 in place, a rank-r update of v plus
``C1^-1 S^T`` times z's half spectrum; the reduction (``_group_sums``)
forms ``e^H x0`` for every band and group; the spread (``_spread``)
subtracts ``e * w`` at every member. Between the last two, the group step
runs on the small (bands, gl, gw) grid: ``u``, the y misfit and
``w = Q u``, with one bands x bands product each way. The kernels run on
half spectra (see ``cube``): the members of a group that fall in unstored
columns are conjugate mirrors of stored members of the mirror group -g, so
a group's reduction ``e^H x`` is its stored partial sum plus the conjugate
of the matching partial sum of group -g, and only the stored members are
updated. Each pass works on a chunk of bands (or a block of columns) per
numpy call.

The data part of C3 is never formed as a cube. z enters through its half
spectrum in the block pass. The transform of
blur_adjoint(upsample_adjoint(y)) is ``e`` times y's small, phase-ramped
transform ``y_tilde`` at every member of a group, so it enters the group
step as ``s^2 * y_tilde`` (``XStep.y_low``). The Sherman-Morrison
coefficients are ``nu = lambda * u``, and the low-resolution residual of
the x the pass writes is ``-nu``, so ``solve_spectrum`` returns
``||y - down(blur(x))||^2 = sum |nu|^2 / (gl*gw)``.

There is one x-step path. The HQS loop builds one ``XStep`` in the v-step's
basis and calls ``solve_spectrum`` every iteration, which maps the spectrum
of v to the spectrum of the solution with no transform and no full band
mix. ``solve_fast`` runs that same x-step once on cubes, in the identity
basis: it transforms v (``cube.rdft2``), calls ``solve_spectrum`` and
transforms back (``cube.irdft2``). A ``SylvesterSystem`` holds what one
x-step is built from: the model, y, z, v and rho. C1, C3 and the operator
``C1 X + X C2`` are derived from them in one place, for the explicit
diagnostic ``sylvester_residual`` and for the test suite's independent
oracles (the dense Kronecker solve and matrix-free conjugate gradient).

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

from dataclasses import dataclass

import numpy as np

from .cube import (
    HsiCube,
    check_shape,
    dft2,
    each_block,
    half_spectrum,
    irdft2,
    mix_bands,
    chunks,
    pool_map,
    rdft2,
    real_rows,
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

    ``srf`` is the response in U's coordinates, S = R U, which the objective's
    z-term reads too. ``q``/``lam`` eigendecompose C1 = S^T S + rho*I
    (ascending, all positive). S^T S has rank at most r = min(out_bands,
    bands), so every eigenvalue but the top r is rho, and with q_r the top
    r eigenvectors, ``rho * C1^-1 = I + lift q_r^T`` for
    ``lift = q_r diag(rho/lam_r - 1)``. ``z_gain`` is C1^-1 S^T. Member (tr, tc) of aliasing group (gr, gc)
    sits at frequency (tr*gl + gr, tc*gw + gc). A half spectrum stores the
    members in columns 0..width//2, so ``e`` has shape (s, gl, width//2 + 1):
    row tr*gl + gr, column c, which a band of the half spectrum reshapes onto
    without a copy. The member of group g in column c > width//2 is the
    conjugate mirror of a stored member of group -g in column width - c. For
    those columns, ``mirror`` holds the unit factor conj(u(g)) with
    ``e(-m) = u(g) * conj(e(m))``. ``u(g)`` comes from the sampling-phase
    twiddles, and it is 1 at phase (0, 0). ``esq`` is ``|e|^2`` summed over
    all s^2 members of each group, shape (gl, gw).

    The data term: ``y_low`` (bands, gl, gw) is y's part, ``s^2 * y_tilde``
    in U's coordinates, which the group step subtracts from each group's
    ``e^H x0`` (``solve_spectrum``), and ``z_hat`` is z's half spectrum,
    which the block pass adds through ``z_gain``.
    """

    rho: float
    srf: np.ndarray
    q: np.ndarray
    lam: np.ndarray
    lift: np.ndarray
    z_gain: np.ndarray
    e: np.ndarray
    esq: np.ndarray
    mirror: np.ndarray
    y_low: np.ndarray
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
        top = len(lam) - min(srf.shape)
        lift = q[:, top:] * (rho / lam[top:] - 1.0)
        z_gain = (q / lam) @ (q.T @ srf.T)
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
        # DFT of y - down(blur(x)) times the same unit-modulus ramp
        rows, cols = np.arange(gl)[:, None], np.arange(gw)[None, :]
        ramp = np.exp(-2j * np.pi * (rows * pr / height + cols * pc / width))
        y_low = dft2(y.data) * ramp
        mix_bands(basis.T, y_low)
        y_low *= s * s
        # z, the one cube-sized input, is transformed last, once the factors
        # and y's small arrays exist (see ``hqs._Spectra.prepare``)
        return cls(rho, srf, q, lam, lift, z_gain, e, esq, mirror, y_low, rdft2(z.data))


def _block_pass(xstep: XStep, spec: np.ndarray) -> None:
    """Overwrite ``spec``, the half spectrum of v, with that of ``x0 = C1^-1 (rho*v + S^T z)``.

    One block of columns per pool item, in place: ``v + lift (q_r^T v)``,
    then ``+ z_gain z_hat``, as two updates (one GEMM over the stacked
    factors lost the last bits that the fixed-point tests read).
    """
    qr = xstep.q[:, -xstep.lift.shape[1] :]

    def block(out: np.ndarray, z: np.ndarray) -> None:
        tmp = xstep.lift @ (qr.T @ out)
        out += tmp
        np.matmul(xstep.z_gain, z, out=tmp)
        out += tmp

    each_block(block, real_rows(spec), real_rows(xstep.z_hat))


def _group_sums(xstep: XStep, spec: np.ndarray) -> np.ndarray:
    """``e^H x`` of every band and aliasing group, shape (bands, gl, gw).

    Each pool item takes a chunk of bands (``cube.chunks``) with one numpy
    call per step: it sums each stored column over its s member rows,
    extends those (gl, width//2 + 1) partial sums to every column by the
    mirror relation and sums the columns of each group.
    """
    s, gl, half = xstep.e.shape
    width = xstep.width
    bands = spec.shape[0]
    ce = np.conj(xstep.e)
    channels = spec.reshape(bands, s, gl, half)
    # column c > width//2 of group row gr mirrors column width - c of group row -gr
    mirrored = -np.arange(gl) % gl
    sums = np.empty((bands, gl, width // s), dtype=np.complex128)

    def chunk(rows: slice) -> None:
        partial = np.einsum("tlc,ktlc->klc", ce, channels[rows])
        full = np.empty((len(partial), gl, width), dtype=np.complex128)
        full[..., :half] = partial
        full[..., half:] = xstep.mirror * np.conj(partial[:, mirrored, width - half : 0 : -1])
        sums[rows] = full.reshape(len(partial), gl, s, -1).sum(axis=2)

    pool_map(chunk, chunks(bands, spec[0].nbytes))
    return sums


def _spread(xstep: XStep, spec: np.ndarray, w: np.ndarray) -> None:
    """``x_m -= e_m * w_g`` at every stored member m of every group g, a chunk of bands per item.

    Within an item the members are updated a chunk of member rows at a time
    (``cube.chunks``), so that no temporary is as large as a full-scale band
    (2 MB), which each pool thread's heap would keep.
    """
    s, gl, half = xstep.e.shape
    channels = spec.reshape(len(w), s, gl, half)

    def chunk(rows: slice) -> None:
        group = channels[rows]
        spread = np.tile(w[rows], (1, 1, s))[:, None, :, :half]
        for members in chunks(s, group[:, 0].nbytes):
            group[:, members] -= xstep.e[members] * spread

    pool_map(chunk, chunks(len(w), spec[0].nbytes))


def solve_spectrum(xstep: XStep, v_hat: np.ndarray) -> float:
    """The x-step on half spectra: overwrite ``v_hat``, the DFT of v, with the DFT of x.

    ``v_hat`` is in the coordinates of the basis ``xstep`` was built in, and
    stays in them: no transform and no bands x bands mix over the spectrum.
    In C1's eigenbasis each channel n and aliasing group g is one
    Sherman-Morrison solve, ``x = x0 - e * Q u`` with ``x0`` from the block
    pass (``_block_pass``), ``r = e^H x0`` per group (``_group_sums``) and
    ``u = Q^T (r - s^2 y_tilde) / (lam*s^2 + |e_g|^2)`` on the small
    (bands, gl, gw) grid; ``_spread`` subtracts ``e * Q u``. The
    Sherman-Morrison coefficients are ``nu = lam * u``, and the
    low-resolution residual of the x written is ``-nu``, so this returns
    ``||y - down(blur(x))||^2 = sum |nu|^2 / (gl*gw)``.
    """
    _block_pass(xstep, v_hat)
    sums = _group_sums(xstep, v_hat)
    sums -= xstep.y_low
    s = xstep.e.shape[0]
    u = np.tensordot(xstep.q.T, sums, axes=(1, 0))
    # each (bands, gl, gw) array is freed once used: at factor 4 they are as
    # large as the block temporaries
    del sums
    u /= (xstep.lam * (s * s))[:, None, None] + xstep.esq
    nu = u * xstep.lam[:, None, None]
    misfit = float(np.vdot(nu, nu).real)
    del nu
    w = np.tensordot(xstep.q, u, axes=(1, 0))
    del u
    _spread(xstep, v_hat, w)
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
