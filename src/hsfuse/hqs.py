"""Half quadratic splitting driver for fusion super-resolution.

The augmented objective

    L(x, v) = ||y - down(blur(x))||^2 + ||z - srf(x)||^2 + rho*||x - v||^2
              + mu*||D(v - prior)||^2 + nu*||E(v - prior)||^2

is minimized by alternating exact sub-solves with a fixed rho: the Sylvester
step updates x with v fixed (closed form, see ``sylvester``), the v-step
updates v with x fixed as one elementwise gain on the deviation v - prior
(``vstep.DenoiseFactors.denoise``). Both are exact minimizers, so the
objective trace is non-increasing. The iteration starts from v = prior and
returns the last x iterate; each iteration after the first opens with the
v-step for the previous x, so no v goes unused.

Every operator in L is circulant or pointwise in frequency, so x and v stay
half spectra (see ``cube``) from the first iteration to the last, their
band axis in the coordinates of U, the DCT-II basis in which the v-step is
one gain per band and frequency (see ``vstep``). A run factors both
sub-steps once, each in its own module: the v-step as a band vector and one
half-grid table, its gain built per tile where it is used
(``vstep.factor_denoise``), and the x-step in U's coordinates, with the data
term of y and z and no cube of its own (``sylvester.XStep.create``, which
transforms y on its low-resolution grid and z once). The x-step stays in
U's coordinates (see ``sylvester``), so the loop makes no bands x bands mix
over a spectrum. The prior's spectrum in U's coordinates is made once: for
``priors.PriorSource.naive_fusion()`` it is built directly from factors of
y's rank and z's spectrum (``priors.naive_factors``), with no prior cube
and no transform of one; a prior cube is transformed (``cube.rdft2``) and
rotated (``cube.mix_bands``). ``fuse`` returns x through one rotation back and one
inverse transform (``cube.irdft2``), in place: the result is a view of x's
buffer.

v is never stored. The x-step needs v twice: its ``e^H v`` per aliasing
group, for the group step, and v itself, to write x. The set-up reduces the
prior's ``e^H p`` once (``sylvester.group_sums``); the first v is the
prior. Each iteration then makes one pool map over the spectrum,
``sylvester.write_pass``: per tile it forms v from the previous x (the
v-step; in the first iteration the previous x is the prior, which is that v
bit for bit, and the tile copies it), writes the new x over the previous
one, scores it and reduces ``g (x - p)``, the next v less p, so that the
next ``e^H v`` is ``e^H p`` plus that sum on the small (bands, gl, gw)
grid. The last iteration the cap allows reduces nothing.

On both routes x starts as the prior's spectrum, and each iteration writes
x over the previous one, each tile reading its p before it writes x. In the
first iteration p is the tile of x itself; every later iteration reads it
through one reader (``_Spectra.prior``), whichever the prior. The set-up
frees z's cube and the model, whose blur multiplier only the x-step's
set-up reads, before it makes the prior's spectrum, when they are handed
over (see ``fuse``). The naive prior has y's rank:
``priors.SpectrumFactors`` keeps the factors its spectrum is built from
(0.3 MB at full scale, against a spectrum's 65.3 MB), x starts as the
spectrum they build, and the reader rebuilds a tile's p from them in the
tile's work arrays (``priors.SpectrumFactors.rows``), with the bits of that
spectrum. So the naive prior's loop holds x's half spectrum, z's half
spectrum and the x-step's small arrays. A prior cube has no factors: the
reader views its stored spectrum, and x starts as a copy of it, made after
the set-up's reductions over it, so its loop holds two spectra, the prior's
and x's.

Iteration k's trace entry is L(x_k, v_k), v_k the v-step's solution for
x_k, read off what the two exact steps compute. The y-term is the group
step's return value (see ``sylvester``). Per band k and frequency f, with
``a = mu*|lap(f)|^2 + nu*d_k`` and the v-step's gain ``g = rho/(rho + a)``,
``min_v rho*|x - v|^2 + a*|v - p|^2 = rho*(1 - g)*|x - p|^2``, so the
coupling and the regularizer need neither v nor the Laplacian; the pass
reads it as ``rho*(|x - p|^2 - Re conj(x - p) g (x - p))`` from the next
v's ``g (x - p)``. That sum, the z-term and the stop test's
``||x_k - x_{k-1}||^2`` and ``||x_k||^2`` (the next iteration's base) are
summed over each tile, by Parseval's theorem. ``objective_value`` is the
spatial form of L at any (x, v). Every pass over a spectrum is split into
independent items on the pool by shape alone, and partial sums are added in
item order, so the iterates and the trace do not depend on the pool size.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import sylvester
from .cube import HsiCube, Scratch, irdft2, mix_bands, rdft2, real_rows, self_mirrored
from .degradation import DegradationModel
from .errors import check_int, check_real
from .gradients import regularizer_value
from .priors import PriorSource, naive_factors
from .vstep import DenoiseFactors, factor_denoise

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
    objective_trace: tuple[float, ...]
    converged: bool
    rel_changes: tuple[float, ...]


def objective_value(
    x: HsiCube,
    v: HsiCube,
    y: HsiCube,
    z: HsiCube,
    model: DegradationModel,
    prior: HsiCube,
    cfg: HqsConfig,
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
    value += regularizer_value(v, prior, cfg.mu, cfg.nu)
    return value


# The pass's tile work arrays, kept from run to run: fresh ones for each run
# of a 31x64x64 desk tile cost 1.7 ms of page faults, a quarter of a
# one-iteration fuse. A pool helper's go when its map ends.
_SCRATCH = Scratch()


def _sums(
    x: np.ndarray, dev: np.ndarray, scaled: np.ndarray, z_res: np.ndarray, old: np.ndarray
) -> np.ndarray:
    """The z-term, the coupling over rho, ``||x - old||^2`` and ``||x||^2`` over contiguous arrays.

    ``dev`` is x - p, ``scaled`` the v-step's ``g (x - p)`` and ``z_res``
    z's residual. At the v-step's v,
    ``rho*|x - v|^2 + (mu*|lap|^2 + nu*d)*|v - p|^2`` is
    ``rho*(1 - g)*|x - p|^2``, so the coupling and the regularizer need
    neither v nor the Laplacian. Each sum is one dot per band, read in
    place as ``real_rows``; the step is written over ``dev``.
    """
    d, r = real_rows(dev), real_rows(x)
    # the per-band dots of the big arrays, summed in one call
    dots = np.empty((4, len(d)))
    np.vecdot(d, d, out=dots[0])
    np.vecdot(d, real_rows(scaled), out=dots[1])
    np.subtract(x, old, out=dev)
    np.vecdot(d, d, out=dots[2])
    np.vecdot(r, r, out=dots[3])
    dd, ds, step, norm = dots.sum(axis=1)
    z = real_rows(z_res)
    return np.array([np.vecdot(z, z).sum(), dd - ds, step, norm])


@dataclass(frozen=True)
class _Spectra:
    """What one run transforms and factors once, and one iteration.

    Everything is in the coordinates of U = ``denoise.basis``: the x-step is
    built in them (``xstep.srf`` is the response times U), and so is the
    prior's half spectrum. The loop reads that spectrum in one way,
    ``prior(index, z, out, work)``: p at ``index`` of the group layout
    (``XStep.grid``), for the tile whose ``z_hat`` rows are ``z``. For a
    prior cube it is a view of the stored spectrum. For the naive prior it
    is the tile rebuilt from the factors the spectrum is built from
    (``priors.SpectrumFactors.rows``) into ``out``, ``work`` being
    overwritten. ``p_sums`` is the spectrum's ``e^H`` per aliasing group
    (``sylvester.group_sums``), the first v's, and each later v's is
    ``p_sums`` plus that of ``g (x - p)``; ``p_own`` is a copy of its
    self-mirrored columns.
    """

    xstep: sylvester.XStep
    denoise: DenoiseFactors
    prior: Callable[[tuple, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    p_own: np.ndarray
    p_sums: np.ndarray

    @classmethod
    def prepare(
        cls,
        y: HsiCube,
        z: HsiCube,
        model: DegradationModel,
        prior: HsiCube | PriorSource,
        cfg: HqsConfig,
    ) -> tuple["_Spectra", np.ndarray]:
        """The run's set-up, and x's starting buffer: it holds the prior's spectrum on both routes.

        The naive prior's spectrum is built from its factors and handed
        over as that buffer, so the loop holds no second spectrum. A prior
        cube's stored spectrum stays with the reader, and the buffer is a
        copy of it, made after the set-up's reductions over it so that they
        never run beside two spectra.
        """
        # The order keeps the set-up's peak low: factor_denoise frees the
        # Laplacian operator it builds before it returns, and z and then the
        # prior are transformed only once the factors exist. At full scale
        # (CLI fuse --iters 2 --threads 1), holding the operator through the
        # set-up raised peak RSS by 3.1 MB, transforming z before the factors
        # by 4.1 MB, and both together by 9.3 MB. For a caller that hands
        # over its only references, as ``fuse`` does, the dels free z's cube
        # and the model, whose blur multiplier only ``XStep.create`` reads,
        # before the prior's spectrum is made, and a prior cube once its
        # spectrum exists.
        mu_p, nu_p = cfg.mu / cfg.rho, cfg.nu / cfg.rho
        denoise = factor_denoise(*model.hr_shape, model.bands, mu_p, nu_p)
        xstep = sylvester.XStep.create(model, denoise.basis, cfg.rho, y, z)
        naive = isinstance(prior, PriorSource)
        factors = naive_factors(y, model, denoise.basis) if naive else None
        del y, z, model
        if naive:
            p_hat = factors.spectrum(xstep.z_hat)
            # each tile's rows of the spectrum, in the group layout
            rows = np.arange(len(factors.wr_hat)).reshape(xstep.e.shape[:2])

            def read(index: tuple, z: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
                factors.rows(rows[index[1:]].ravel(), z, out, work)
                return out

        else:
            p_hat = rdft2(prior.data)
            del prior
            mix_bands(denoise.basis.T, p_hat)
            p_grid = xstep.grid(p_hat)

            def read(index: tuple, z: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
                return p_grid[index]

        own = p_hat[..., self_mirrored(xstep.width)].copy()
        fixed = cls(xstep, denoise, read, own, sylvester.group_sums(xstep, p_hat))
        return fixed, p_hat if naive else p_hat.copy()

    def iterate(
        self, x_hat: np.ndarray, first: bool, sums: np.ndarray, more: bool
    ) -> tuple[float, float, float, np.ndarray | None]:
        """One iteration: the x-step from the v-step's v for the previous x, written over ``x_hat``.

        ``x_hat`` holds the previous x; for the ``first`` iteration that is
        the prior's spectrum, as ``prepare`` returns it, and v is the
        previous x. ``sums`` is that x's v's ``e^H v``, which
        ``sylvester.group_step`` turns into ``w`` before
        ``sylvester.write_pass`` forms that v again and writes x. Both are
        looked up on their module, so that a wrapper installed there sees
        every x-step. Each tile reads its p before it writes x: in the first
        iteration it is the tile of ``x_hat``, and in every later one it
        comes from ``prior``. Returns ``objective_value`` at the new x and
        the v-step's v for it; ``||x - x_prev||^2`` and ``||x||^2``, each sum
        over the spectrum scaled by Parseval's theorem to the sum over
        pixels; and, with ``more``, the next v's ``e^H v``. The step is the
        exact difference of the two iterates. Every stored column stands for
        itself and its mirror but the self-mirrored ones
        (``cube.self_mirrored``), so each sum is twice the stored columns'
        less those columns': the pass sums the stored columns, and the
        self-mirrored ones are summed here, from a copy of the previous x's
        taken before the pass.
        """
        xstep, denoise, scratch = self.xstep, self.denoise, _SCRATCH
        own = self_mirrored(xstep.width)
        old = x_hat[..., own].copy()
        grid = xstep.grid(x_hat)
        freq = denoise.freq_term.reshape(xstep.e.shape)

        def form(index: tuple, out: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            gain = scratch.get("gain", out.shape, np.float64)
            denoise.gain(index[0], freq[index[1:]], gain)
            if first:
                # the previous x is the prior, so v = p + g (p - p) is p, bit for bit
                p = grid[index]
                np.copyto(out, p)
            else:
                p = self.prior(index, z, scratch.get("p", out.shape, np.complex128), out)
                denoise.denoise(grid[index], p, gain, out)
            return gain, p

        def score(
            index: tuple, x: np.ndarray, made: tuple, z: np.ndarray, work: np.ndarray
        ) -> tuple:
            gain, p = made
            z_res = scratch.get("z_res", z.shape, np.complex128)
            np.matmul(xstep.srf, real_rows(x), out=real_rows(z_res))
            np.subtract(z, z_res, out=z_res)
            dev = np.subtract(x, p, out=work)
            # g (x - p), the next v less p; a p rebuilt into this array is not
            # read again, and writing over it keeps one tile array fewer in
            # the core's cache
            scaled = np.multiply(dev, gain, out=scratch.get("p", x.shape, np.complex128))
            return _sums(x, dev, scaled, z_res, grid[index]), scaled if more else None

        y_term = sylvester.group_step(xstep, sums)
        stored, sums = sylvester.write_pass(xstep, x_hat, sums, form, score, scratch)
        if sums is not None:
            sums += self.p_sums
        x, p, z = np.ascontiguousarray(x_hat[..., own]), self.p_own, xstep.z_hat[..., own]
        z_res = z - np.tensordot(xstep.srf, x, axes=(1, 0))
        dev = x - p
        scaled = dev * denoise.gain(..., denoise.freq_term[..., own], np.empty(dev.shape))
        mine = _sums(x, dev, scaled, z_res, old)
        z_sq, coupled, step, norm = (2 * stored - mine) / (x_hat.shape[1] * xstep.width)
        return y_term + z_sq + xstep.rho * coupled, step, norm, sums


def fuse(
    y: HsiCube,
    z: HsiCube,
    model: DegradationModel,
    prior: HsiCube | PriorSource,
    cfg: HqsConfig = HqsConfig(),
) -> FusionResult:
    """Run the alternating iteration from v = prior, a cube or the naive prior's source.

    Stops early once the relative change between consecutive x iterates falls
    to ``cfg.rel_tol`` (the ``converged`` flag records whether that happened
    before the ``max_iter`` cap).

    The loop reads the prior only through its half spectrum. For
    ``PriorSource.naive_fusion()`` that spectrum is built directly from
    its factors (``priors.naive_factors``), and no prior cube exists. A
    cube's is taken with one transform and one band mix. On both routes
    x starts as that spectrum: the naive prior's itself, whose tiles the
    loop rebuilds from the factors, or a copy of a cube's, whose tiles it
    reads. ``fuse`` hands its own references to the set-up, which drops
    z's cube once z's spectrum exists, the model (and its blur
    multiplier) once the x-step and the naive prior's factors are built,
    and a prior cube once its spectrum exists. A caller that hands over its only references, as the CLI does
    for y, z, the model and a prior file, has each freed there, before the
    prior's spectrum is made; a caller that keeps them gets the same bytes.
    On CPython 3.10 the caller's stack holds the arguments until the call
    returns, so there they live through the run.

    Raises:
        ValidationError: the prior, y or z does not fit the model's grids.
        UnsupportedStructureError: the x-step system is outside the closed-form
            solver's structure.
    """
    if not isinstance(prior, PriorSource):
        model.check_hr("prior", prior)
    model.check_data(y, z)
    width = model.hr_shape[1]
    # popped from a list, the arguments are the set-up's only references
    handed = [y, z, model, prior]
    del y, z, model, prior
    fixed, x_hat = _Spectra.prepare(handed.pop(0), handed.pop(0), handed.pop(0), handed.pop(), cfg)
    sums = fixed.p_sums.copy()
    trace: list[float] = []
    changes: list[float] = []
    tiny = float(np.finfo(np.float64).tiny)
    for k in range(cfg.max_iter):
        objective, step, norm, sums = fixed.iterate(x_hat, k == 0, sums, k + 1 < cfg.max_iter)
        trace.append(objective)
        if k > 0:
            changes.append(float(np.sqrt(step)) / max(float(np.sqrt(base)), tiny))
            if changes[-1] <= cfg.rel_tol:
                break
        base = norm
    del sums
    mix_bands(fixed.denoise.basis, x_hat)
    # a prior cube's spectrum and the factors go before the result is scanned
    del fixed
    return FusionResult(
        # the inverse transform works in place: the cube is a view of x_hat's buffer
        x_hat=HsiCube(irdft2(x_hat, width)),
        iterations=len(trace),
        objective_trace=tuple(trace),
        converged=bool(changes) and changes[-1] <= cfg.rel_tol,
        rel_changes=tuple(changes),
    )
