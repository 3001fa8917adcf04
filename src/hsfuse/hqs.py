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
``priors.PriorSource.naive_fusion()`` it is built directly from y and z's
spectrum (``priors.prior_spectrum``), with no prior cube and no transform
of one; a prior cube is transformed (``cube.rdft2``) and rotated
(``cube.mix_bands``). ``fuse`` returns x through one rotation back and one
inverse transform (``cube.irdft2``).

The loop holds two half spectra, the prior's and x's, and z's; v is never
stored. The x-step needs v twice: its ``e^H v`` per aliasing group, for the
group step, and v itself, to write x. The set-up reduces the prior's
``e^H p`` once (``sylvester.group_sums``); the first v is the prior. Each
iteration then makes one pool map over the spectrum,
``sylvester.write_pass``: per tile it forms v from the previous x (the
v-step; the first iteration copies the prior, which is that v bit for bit),
writes the new x over the previous one, scores it and reduces
``g (x - p)``, the next v less p, so that the next ``e^H v`` is ``e^H p``
plus that sum on the small (bands, gl, gw) grid. The last iteration the cap
allows reduces nothing.

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

from dataclasses import dataclass

import numpy as np

from . import sylvester
from .cube import HsiCube, Scratch, irdft2, mix_bands, rdft2, real_rows, self_mirrored
from .degradation import DegradationModel
from .errors import check_int, check_real
from .gradients import regularizer_value
from .priors import PriorSource, prior_spectrum
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
    d, z = real_rows(dev), real_rows(z_res)
    coupled = np.vecdot(d, d).sum() - np.vecdot(d, real_rows(scaled)).sum()
    np.subtract(x, old, out=dev)
    r = real_rows(x)
    return np.array([np.vecdot(z, z).sum(), coupled, np.vecdot(d, d).sum(), np.vecdot(r, r).sum()])


@dataclass(frozen=True)
class _Spectra:
    """What one run transforms and factors once, and one iteration.

    Everything is in the coordinates of U = ``denoise.basis``: the x-step is
    built in them (``xstep.srf`` is the response times U), and so is
    ``p_hat``, the prior's half spectrum. ``p_sums`` is its ``e^H`` per
    aliasing group (``sylvester.group_sums``), the first v's, and each
    later v's is ``p_sums`` plus that of ``g (x - p)``.
    """

    xstep: sylvester.XStep
    denoise: DenoiseFactors
    p_hat: np.ndarray
    p_sums: np.ndarray

    @classmethod
    def prepare(
        cls,
        y: HsiCube,
        z: HsiCube,
        model: DegradationModel,
        prior: HsiCube | PriorSource,
        cfg: HqsConfig,
    ) -> "_Spectra":
        # The order keeps the set-up's peak low: factor_denoise frees the
        # Laplacian operator it builds before it returns, and z and then the
        # prior are transformed only once the factors exist. At full scale
        # (CLI fuse --iters 2 --threads 1), holding the operator through the
        # set-up raised peak RSS by 3.1 MB, transforming z before the factors
        # by 4.1 MB, and both together by 9.3 MB.
        mu_p, nu_p = cfg.mu / cfg.rho, cfg.nu / cfg.rho
        denoise = factor_denoise(*model.hr_shape, model.bands, mu_p, nu_p)
        xstep = sylvester.XStep.create(model, denoise.basis, cfg.rho, y, z)
        if isinstance(prior, PriorSource):
            p_hat = prior_spectrum(y, model, denoise.basis, xstep.z_hat)
        else:
            p_hat = rdft2(prior.data)
            mix_bands(denoise.basis.T, p_hat)
        return cls(xstep, denoise, p_hat, sylvester.group_sums(xstep, p_hat))

    def iterate(
        self, x_hat: np.ndarray, prev: np.ndarray, sums: np.ndarray, more: bool
    ) -> tuple[float, float, float, np.ndarray | None]:
        """One iteration: the x-step from the v-step's v for ``prev``'s x, written over ``x_hat``.

        ``prev`` holds the previous x (the prior before the first
        iteration), and may be ``x_hat`` itself; ``sums`` is its v's
        ``e^H v``, which ``sylvester.group_step`` turns into ``w`` before
        ``sylvester.write_pass`` forms that v again and writes x. Both are
        looked up on their module, so that a wrapper installed there sees
        every x-step. Returns ``objective_value`` at the new x and the
        v-step's v for it; ``||x - x_prev||^2`` and ``||x||^2``, each sum
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
        old = prev[..., own].copy()
        grid, p_grid = xstep.grid(prev), xstep.grid(self.p_hat)
        freq = denoise.freq_term.reshape(xstep.e.shape)

        def form(index: tuple, out: np.ndarray) -> np.ndarray:
            gain = scratch.get("gain", out.shape, np.float64)
            denoise.gain(index[0], freq[index[1:]], gain)
            if prev is self.p_hat:
                # x is the prior, so v = p + g (p - p) is p, bit for bit
                np.copyto(out, p_grid[index])
            else:
                denoise.denoise(grid[index], p_grid[index], gain, out)
            return gain

        def score(
            index: tuple, x: np.ndarray, gain: np.ndarray, z: np.ndarray, work: np.ndarray
        ) -> tuple:
            z_res = scratch.get("z_res", z.shape, np.complex128)
            np.matmul(xstep.srf, real_rows(x), out=real_rows(z_res))
            np.subtract(z, z_res, out=z_res)
            dev = np.subtract(x, p_grid[index], out=work)
            # g (x - p), the next v less p
            scaled = np.multiply(dev, gain, out=scratch.get("next", x.shape, np.complex128))
            return _sums(x, dev, scaled, z_res, grid[index]), scaled if more else None

        y_term = sylvester.group_step(xstep, sums)
        stored, sums = sylvester.write_pass(xstep, x_hat, sums, form, score, scratch)
        if sums is not None:
            sums += self.p_sums
        x, p, z = np.ascontiguousarray(x_hat[..., own]), self.p_hat[..., own], xstep.z_hat[..., own]
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
    ``PriorSource.naive_fusion()`` that spectrum is built directly
    (``priors.prior_spectrum``), and no prior cube exists. A cube's is
    taken with one transform and one band mix, and ``fuse`` then drops its
    own reference to ``prior``: a caller that hands over its only
    reference, as the CLI does for a prior file, has the cube freed before
    the loop allocates its iterates. On CPython 3.10 the caller's
    stack holds the argument until the call returns, so there the cube lives
    through the run.

    Raises:
        ValidationError: the prior, y or z does not fit the model's grids.
        UnsupportedStructureError: the x-step system is outside the closed-form
            solver's structure.
    """
    if not isinstance(prior, PriorSource):
        model.check_hr("prior", prior)
    model.check_data(y, z)
    fixed = _Spectra.prepare(y, z, model, prior, cfg)
    del prior
    width = model.hr_shape[1]
    # the one spectrum buffer besides the prior's: x, the prior before the
    # first iteration (so v = p), and each iteration writes the next over it
    x_hat = np.empty_like(fixed.p_hat)
    sums = fixed.p_sums.copy()
    trace: list[float] = []
    changes: list[float] = []
    tiny = float(np.finfo(np.float64).tiny)
    for k in range(cfg.max_iter):
        prev = x_hat if k > 0 else fixed.p_hat
        objective, step, norm, sums = fixed.iterate(x_hat, prev, sums, k + 1 < cfg.max_iter)
        trace.append(objective)
        if k > 0:
            changes.append(float(np.sqrt(step)) / max(float(np.sqrt(base)), tiny))
            if changes[-1] <= cfg.rel_tol:
                break
        base = norm
    del sums
    mix_bands(fixed.denoise.basis, x_hat)
    # free the prior's spectrum and the factors before the inverse transform
    # allocates its output
    del fixed
    return FusionResult(
        x_hat=HsiCube(irdft2(x_hat, width)),
        iterations=len(trace),
        objective_trace=tuple(trace),
        converged=bool(changes) and changes[-1] <= cfg.rel_tol,
        rel_changes=tuple(changes),
    )
