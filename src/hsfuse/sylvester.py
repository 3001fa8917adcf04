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
identity). The spectrum therefore never leaves U's coordinates, and the
x-step is two pool maps and a small step between them. ``group_sums``
reduces v to ``e^H v`` for every band and group. Since the rank-r update and
z's mix act per frequency and ``e^H`` per band, ``e^H x0 = e^H v +
lift q_r^T e^H v + z_gain e^H z_hat``, so ``group_step`` needs nothing else:
on the small (bands, gl, gw) grid it makes ``u``, the y misfit and
``w = Q u``, in place of ``e^H v``. ``write_pass`` then forms x0 (a rank-r
update of v plus ``C1^-1 S^T`` times z's half spectrum) and subtracts
``e * w`` at every member, and can score the x it writes and reduce the
next iteration's v, less the prior, on the way (see ``hqs``). The kernels
run on half spectra (see ``cube``): the members of a group that fall in
unstored columns are conjugate mirrors of stored members of the mirror
group -g, so a group's ``e^H x`` is its stored partial sum plus the
conjugate of the matching partial sum of group -g, and only the stored
members are updated. Both maps walk runs of group rows closed under that
mirror (``cube.mirror_runs``, kept as ``XStep.runs``), each with every
member row: ``group_sums`` a chunk of bands per item, ``write_pass`` every
band of a run per item, in ``cube.tiles`` of its member rows and group
rows whose work arrays stay in a core's cache.

The data part of C3 is never formed as a cube. z enters through its half
spectrum in the pass. The transform of blur_adjoint(upsample_adjoint(y)) is
``e`` times y's small, phase-ramped transform ``y_tilde`` at every member of
a group, so it enters the group step as ``s^2 * y_tilde``, less z's part of
``e^H x0``, which ``XStep.create`` reduces once (``XStep.low``). The
Sherman-Morrison coefficients are ``nu = lambda * u``, and the
low-resolution residual of the x the pass writes is ``-nu``, so
``group_step`` returns ``||y - down(blur(x))||^2 = sum |nu|^2 / (gl*gw)``.

There is one x-step path. The HQS loop builds one ``XStep`` in the v-step's
basis; each iteration makes the group step and one ``write_pass``, and the
``e^H v`` it starts from comes from the set-up (``group_sums`` of the
prior) or the previous pass. That takes the spectrum of v to the spectrum
of the solution with no transform and no full band mix.
``solve_spectrum`` is that x-step for a v held whole, and ``solve_fast``
runs it once on cubes, in the identity basis: it transforms v
(``cube.rdft2``), calls ``solve_spectrum`` and transforms back
(``cube.irdft2``). A ``SylvesterSystem`` holds what one x-step is built
from: the model, y, z, v and rho. C1, C3 and the operator ``C1 X + X C2``
are derived from them in one place, for the explicit diagnostic
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

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cube import (
    HsiCube,
    Scratch,
    check_shape,
    chunks,
    dft2,
    each_block,
    half_spectrum,
    irdft2,
    mirror_runs,
    mix_bands,
    pool_map,
    rdft2,
    real_rows,
    tiles,
)
from .degradation import DegradationModel
from .errors import UnsupportedStructureError, check_real

__all__ = [
    "SylvesterSystem",
    "XStep",
    "build_system",
    "group_step",
    "group_sums",
    "solve_fast",
    "solve_spectrum",
    "sylvester_residual",
    "write_pass",
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
    ``lift = q_r diag(rho/lam_r - 1)``. ``z_gain`` is C1^-1 S^T. Member
    (tr, tc) of aliasing group (gr, gc) sits at frequency
    (tr*gl + gr, tc*gw + gc). A half spectrum stores the members in columns
    0..width//2, so ``e`` (and ``ce``, its conjugate) has shape
    (s, gl, width//2 + 1): row tr*gl + gr, column c, which a band of the
    half spectrum reshapes onto without a copy (``grid``). The member of
    group g in column c > width//2 is the conjugate mirror of a stored member
    of group -g in column width - c. For those columns, ``mirror`` holds the
    unit factor conj(u(g)) with ``e(-m) = u(g) * conj(e(m))``. ``u(g)`` comes
    from the sampling-phase twiddles, and it is 1 at phase (0, 0). ``esq`` is
    ``|e|^2`` summed over all s^2 members of each group, shape (gl, gw).

    The data term: ``low`` (bands, gl, gw) is what the group step subtracts
    from each group's ``e^H v + lift q_r^T e^H v``: y's part,
    ``s^2 * y_tilde`` in U's coordinates, less z's, ``z_gain e^H z_hat``.
    ``z_hat`` is z's half spectrum, which ``write_pass`` adds through
    ``z_gain``. ``runs`` are the maps' pool items (``_runs``).
    """

    rho: float
    srf: np.ndarray
    q: np.ndarray
    lam: np.ndarray
    lift: np.ndarray
    z_gain: np.ndarray
    e: np.ndarray
    ce: np.ndarray
    esq: np.ndarray
    mirror: np.ndarray
    low: np.ndarray
    z_hat: np.ndarray
    runs: tuple

    @property
    def width(self) -> int:
        return self.e.shape[2] + self.mirror.shape[1]

    def grid(self, spec: np.ndarray) -> np.ndarray:
        """A half spectrum in the group layout: (bands, s, gl, width//2 + 1), no copy."""
        return spec.reshape((len(spec),) + self.e.shape)


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
        low = dft2(y.data) * ramp
        mix_bands(basis.T, low)
        low *= s * s
        # z, the one cube-sized input, is transformed last, once the factors
        # and y's small arrays exist (see ``hqs._Spectra.prepare``)
        z_hat = rdft2(z.data)
        runs = _runs(s, gl, e.shape[2], mirror)
        xstep = cls(rho, srf, q, lam, lift, z_gain, e, np.conj(e), esq, mirror, low, z_hat, runs)
        z_low = group_sums(xstep, z_hat)
        real_rows(low)[...] -= z_gain @ real_rows(z_low)
        return xstep


def _runs(s: int, gl: int, half: int, mirror: np.ndarray) -> tuple:
    """The maps' runs of group rows closed under the mirror (``cube.mirror_runs``).

    Each is (parts, mirrored, mirror): the run's slices of rows, each with
    the place of its first row among the run's rows, the place of each
    row's mirror row -gr among them, and the unit factors ``XStep.mirror``
    of those rows.
    """
    runs = []
    for parts in mirror_runs(gl, s * half):
        rows = np.r_[parts]
        at = np.empty(gl, dtype=np.intp)
        at[rows] = np.arange(len(rows))
        places = tuple((part, at[part.start]) for part in parts)
        runs.append((places, at[-rows % gl], mirror[rows]))
    return tuple(runs)


def _reduce_run(xstep: XStep, run: tuple, partial: np.ndarray, sums: np.ndarray, band: slice) -> None:
    """Write ``e^H`` of a run's groups into ``sums[band]`` from its stored columns' member sums.

    ``partial`` holds, for the bands ``band`` and the run's rows, each
    stored column summed over its member rows. Column c > width//2 of
    group row gr mirrors column width - c of group row -gr, so the run's
    partial sums give every column's, and each group's columns are then
    summed, a chunk of bands at a time (``cube.chunks``).
    """
    parts, mirrored, mirror = run
    s, _, half = xstep.e.shape
    width, sums = xstep.width, sums[band]
    for rows in chunks(len(partial), len(mirrored) * width * 16):
        part = partial[rows]
        full = np.empty(part.shape[:2] + (width,), dtype=np.complex128)
        full[..., :half] = part
        full[..., half:] = mirror * np.conj(part[:, mirrored, width - half : 0 : -1])
        group = full.reshape(len(full), -1, s, width // s).sum(axis=2)
        for part, at in parts:
            sums[rows, part] = group[:, at : at + part.stop - part.start]


def group_sums(xstep: XStep, spec: np.ndarray) -> np.ndarray:
    """``e^H`` of a half spectrum for every band and aliasing group, shape (bands, gl, gw).

    Each pool item reduces a chunk of bands (``cube.chunks``) over a run of
    group rows and their mirror rows (``XStep.runs``) with every member row, so
    its output is its own rows of the (bands, gl, gw) grid.
    """
    s, gl, half = xstep.e.shape
    bands, grid = len(spec), xstep.grid(spec)
    sums = np.empty((bands, gl, xstep.width // s), dtype=np.complex128)

    def item(cut: tuple) -> None:
        run, band = cut
        partial = np.empty((len(range(bands)[band]), len(run[1]), half), dtype=np.complex128)
        for rows, at in run[0]:
            out = partial[:, at : at + rows.stop - rows.start]
            np.einsum("tlc,ktlc->klc", xstep.ce[:, rows], grid[band, :, rows], out=out)
        _reduce_run(xstep, run, partial, sums, band)

    items = [(run, band) for run in xstep.runs for band in chunks(bands, len(run[1]) * half * 16)]
    pool_map(item, items)
    return sums


def group_step(xstep: XStep, sums: np.ndarray) -> float:
    """The group step, in place: ``sums``, ``e^H v``, becomes ``w = Q u``; returns the y misfit.

    ``r = e^H x0 - s^2 y_tilde`` is ``sums + lift q_r^T sums - low``, and
    ``u = Q^T r / (lam*s^2 + |e_g|^2)``. It runs one block of columns of the
    (bands, gl, gw) grid per pool item, so besides ``sums`` it holds only
    block temporaries. The Sherman-Morrison coefficients are ``nu = lam*u``,
    and the misfit is ``||y - down(blur(x))||^2 = sum |nu|^2 / (gl*gw)``.
    """
    s = xstep.e.shape[0]
    qr = xstep.q[:, -xstep.lift.shape[1] :]
    scale = xstep.lam * (s * s)
    lam_sq = xstep.lam**2

    def block(r: np.ndarray, low: np.ndarray, esq: np.ndarray) -> float:
        r += xstep.lift @ (qr.T @ r)
        r -= low
        u = xstep.q.T @ r
        u /= np.add.outer(scale, esq)
        misfit = float(lam_sq @ np.vecdot(u, u))
        np.matmul(xstep.q, u, out=r)
        return misfit

    # a complex value is two floats, each divided by its group's |e_g|^2
    esq = np.repeat(xstep.esq.reshape(-1), 2)
    return sum(each_block(block, real_rows(sums), real_rows(xstep.low), esq)) / xstep.esq.size


def write_pass(
    xstep: XStep,
    spec: np.ndarray,
    w: np.ndarray,
    form: Callable,
    score: Callable | None,
    scratch: Scratch,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Write ``x = x0 - e * w`` over ``spec``, for ``w`` from ``group_step``; optionally score it.

    ``form(index, out)`` writes v at ``index`` of the group layout
    (``XStep.grid``), every band of some member rows and group rows, into
    ``out``. Each pool item is a run of group rows and their mirror rows
    (``XStep.runs``), walked in ``cube.tiles`` whose work arrays come from
    ``scratch``. A tile's v becomes ``x0 = v + lift (q_r^T v)``, then
    ``+ z_gain z_hat``, as two updates (one GEMM over the stacked factors
    lost the last bits that the fixed-point tests read), and then x.

    With ``score``, ``score(index, x, made, z, work)`` runs before x is
    written over ``spec[index]``: ``made`` is what ``form`` returned, ``z``
    the tile's ``z_hat`` and ``work`` a spare array shaped as x. It returns
    an array of sums and an array shaped as x to reduce, or None. The pass
    then returns the sums added over every tile and, if the tiles gave
    arrays to reduce, their ``e^H`` as ``group_sums`` shapes it: each tile
    adds its member rows' share, in the order of the member rows. The cut
    depends on the grid alone, and the sums are added in item order, so
    neither depends on the pool.
    """
    s, gl, half = xstep.e.shape
    bands = len(spec)
    qr = xstep.q[:, -xstep.lift.shape[1] :]
    grid, z_grid = xstep.grid(spec), xstep.grid(xstep.z_hat)
    # column c of group row gr takes w[:, gr, c % gw]
    columns = np.arange(half) % (xstep.width // s)
    sums = None if score is None else np.empty_like(w)

    def item(run: tuple) -> tuple[np.ndarray | None, bool]:
        partial = found = None
        spread_rows = None
        for part, offset in run[0]:
            for members, groups in tiles(s, part.stop - part.start, half):
                groups = range(part.start, part.stop)[groups]
                index = np.s_[:, members, groups.start : groups.stop]
                shape = grid[index].shape
                if groups != spread_rows:
                    # w at every stored column of the tile's group rows
                    spread_rows = groups
                    spread = scratch.get("w", (bands, 1) + shape[2:], np.complex128)
                    np.take(w[:, index[2]], columns, axis=2, out=spread[:, 0])
                x = scratch.get("x", shape, np.complex128)
                made = form(index, x)
                tmp = scratch.get("tmp", shape, np.complex128)
                rows, tmp_rows = real_rows(x), real_rows(tmp)
                np.matmul(xstep.lift, qr.T @ rows, out=tmp_rows)
                rows += tmp_rows
                z = scratch.get("z", z_grid[index].shape, np.complex128)
                np.copyto(z, z_grid[index])
                np.matmul(xstep.z_gain, real_rows(z), out=tmp_rows)
                rows += tmp_rows
                x -= np.multiply(xstep.e[index[1:]], spread, out=tmp)
                if score is not None:
                    tile_sums, reduce = score(index, x, made, z, tmp)
                    found = tile_sums if found is None else found + tile_sums
                    if reduce is not None:
                        if partial is None:
                            partial = np.empty((bands, len(run[1]), half), dtype=np.complex128)
                        at = np.s_[offset + groups.start - part.start : offset + groups.stop - part.start]
                        ce = xstep.ce[index[1:]]
                        if members.start == 0:
                            np.einsum("tlc,ktlc->klc", ce, reduce, out=partial[:, at])
                        else:
                            reduced = scratch.get("e", (bands,) + shape[2:], np.complex128)
                            partial[:, at] += np.einsum("tlc,ktlc->klc", ce, reduce, out=reduced)
                grid[index] = x
        if partial is not None:
            _reduce_run(xstep, run, partial, sums, np.s_[:])
        return found, partial is not None

    done = pool_map(item, xstep.runs)
    if score is None:
        return None, None
    return sum(found for found, _ in done), sums if done[0][1] else None


def solve_spectrum(xstep: XStep, v_hat: np.ndarray) -> float:
    """The x-step on half spectra: overwrite ``v_hat``, the DFT of v, with the DFT of x.

    ``v_hat`` is in the coordinates of the basis ``xstep`` was built in, and
    stays in them: no transform and no bands x bands mix over the spectrum.
    In C1's eigenbasis each channel n and aliasing group g is one
    Sherman-Morrison solve, ``x = x0 - e * Q u``: ``group_sums`` sums
    ``e^H v`` per group, ``group_step`` makes ``w = Q u`` from it on the
    small (bands, gl, gw) grid, and ``write_pass`` forms x0 and subtracts
    ``e * w``. Returns ``||y - down(blur(x))||^2``.
    """
    grid = xstep.grid(v_hat)
    sums = group_sums(xstep, v_hat)
    misfit = group_step(xstep, sums)
    write_pass(xstep, v_hat, sums, lambda index, out: np.copyto(out, grid[index]), None, Scratch())
    return misfit


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
