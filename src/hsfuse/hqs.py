"""Half quadratic splitting driver for fusion super-resolution.

The augmented objective

    L(x, v) = ||y - down(blur(x))||^2 + ||z - srf(x)||^2 + rho*||x - v||^2
              + mu*||D(v - prior)||^2 + nu*||E(v - prior)||^2

is minimized by alternating exact sub-solves with a fixed rho: the Sylvester
step updates x with v fixed (closed form, ``sylvester.solve_spectrum``), the
v-step updates v with x fixed as one elementwise gain on the deviation
v - prior (``vstep.denoise_spectrum``). Both are exact minimizers, so the
objective trace is non-increasing. The iteration starts from v = prior and
returns the last x iterate; each iteration after the first opens with the
v-step for the previous x, so no v goes unused.

Every operator in L is circulant or pointwise in frequency, so x and v stay
half spectra (see ``cube``) from the first iteration to the last, their
band axis in the coordinates of U, the DCT-II basis in which the v-step is
one gain per band and frequency (see ``vstep``). A run factors both
sub-steps once, each in its own module: the v-step as a band vector and one
half-grid table, its gain built per block of frequencies where it is used
(``vstep.factor_denoise``), and the x-step in U's coordinates, with the data
term of y and z and no cube of its own (``sylvester.XStep.create``, which
transforms y on its low-resolution grid and z once). The x-step stays in
U's coordinates (see ``sylvester``), so the loop makes no bands x bands mix
over a spectrum. The prior's spectrum in U's coordinates is made once: for
``priors.PriorSource.naive_fusion()`` it is built directly from y and z's
spectrum (``priors.prior_spectrum``), with no prior cube and no transform
of one; a prior cube is transformed (``cube.rdft2``) and rotated
(``cube.mix_bands``). ``fuse`` returns x through one rotation back and one
inverse transform (``cube.irdft2``). Besides the prior's spectrum, x and v,
the loop holds only z's spectrum.

Iteration k's trace entry is L(x_k, v_k), v_k the v-step's solution for
x_k, read off what the two exact steps compute. The y-term is the x-step's
return value (see ``sylvester``). Per band k and frequency f, with
``a = mu*|lap(f)|^2 + nu*d_k`` and the v-step's gain ``g = rho/(rho + a)``,
``min_v rho*|x - v|^2 + a*|v - p|^2 = rho*(1 - g)*|x - p|^2``, so the
coupling and the regularizer need neither v nor the Laplacian. That sum,
the z-term and the stop test's ``||x_k - x_{k-1}||^2`` and
``||x_{k-1}||^2`` are one ``cube.half_sums`` call per iteration, by
Parseval's theorem: one pass over blocks of stored columns on
``cube.pool_map``. Within a block the pass walks the bands in the
v-step's chunks (``cube.chunks`` of the block's complex row), writes one dot
product per band into a small row, and sums each row over every band, so
its temporaries are chunk-sized and its sums are those of the block taken
whole. ``objective_value`` is the spatial form of L at any
(x, v). Every pass over a spectrum is split into independent items (column
blocks, bands or eigen-channels) on the pool, and partial sums are added in
item order, so the iterates and the trace do not depend on the pool size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sylvester
from .cube import HsiCube, chunks, half_sums, irdft2, mix_bands, rdft2
from .degradation import DegradationModel
from .errors import check_int, check_real
from .gradients import regularizer_value
from .priors import PriorSource, prior_spectrum
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


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re(conj(a) * b)`` summed over each row of two (rows, columns) arrays, read in place."""
    # row by row: np.vdot would first copy a block of a wider spectrum's rows
    return np.vecdot(a.view(np.float64), b.view(np.float64))


@dataclass(frozen=True)
class _Spectra:
    """What one run transforms and factors once, and the one pass that scores an iterate.

    Everything is in the coordinates of U = ``denoise.basis``: the x-step is
    built in them (``xstep.srf`` is the response times U), and so is
    ``p_hat``, the prior's half spectrum.
    """

    xstep: sylvester.XStep
    denoise: DenoiseFactors
    p_hat: np.ndarray

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
        return cls(xstep, denoise, p_hat)

    def score(
        self, x_hat: np.ndarray, y_term: float, x_old: np.ndarray | None = None
    ) -> tuple[float, float | None]:
        """``objective_value`` at x and the v-step's v for it, and the stop test's change.

        ``x_hat`` is the x-step's output and ``y_term`` its return value.
        The change ``||x - x_old|| / max(||x_old||, tiny)`` is None without
        ``x_old``. One ``half_sums`` pass, which walks each block's bands in
        the v-step's chunks (``cube.chunks`` of the block's complex row), so no
        temporary spans more than one chunk of bands.
        """

        def sums(x, p, freq, z_hat, *old) -> np.ndarray:
            """z-term, coupling and regularizer over rho, and the stop test's sums over a block."""
            z_res = z_hat.view(np.float64) - self.xstep.srf @ x.view(np.float64)
            # one dot per band for each sum; each row is then summed over all
            # bands at once, so a block's sums do not depend on the chunking
            rows = np.empty((3 if old else 1, len(x)))
            for band in chunks(len(x), x[0].nbytes):
                # at the v-step's v, rho*|x - v|^2 + (mu*|lap|^2 + nu*d)*|v - p|^2
                # is rho*(1 - gain)*|x - p|^2
                dev = x[band] - p[band]
                coupling = self.denoise.gain(freq, band)
                np.subtract(1.0, coupling, out=coupling)
                rows[0, band] = _row_dots(dev, dev * coupling)
                if old:
                    step = x[band] - old[0][band]
                    rows[1, band] = _row_dots(step, step)
                    rows[2, band] = _row_dots(old[0][band], old[0][band])
            return np.array([_row_dots(z_res, z_res).sum(), *(r.sum() for r in rows)])

        width = self.xstep.width
        arrays = (x_hat, self.p_hat, self.denoise.freq_term, self.xstep.z_hat)
        if x_old is not None:
            arrays += (x_old,)
        z_sq, coupled, *stop = half_sums(sums, arrays, width)
        n = x_hat.shape[1] * width
        objective = y_term + z_sq / n + self.xstep.rho * coupled / n
        if not stop:
            return objective, None
        diff, base = stop
        tiny = float(np.finfo(np.float64).tiny)
        return objective, float(np.sqrt(diff / n)) / max(float(np.sqrt(base / n)), tiny)


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
    # two spectrum buffers: the v-step writes v over the x before last, and
    # the x-step overwrites that v with the new x
    v_hat = fixed.p_hat.copy()
    x_hat = np.empty_like(v_hat)
    trace: list[float] = []
    changes: list[float] = []
    for k in range(cfg.max_iter):
        if k > 0:
            denoise_spectrum(fixed.denoise, x_hat, fixed.p_hat, v_hat)
        # looked up on its module, so a wrapper installed there sees every x-step
        y_term = sylvester.solve_spectrum(fixed.xstep, v_hat)
        x_hat, v_hat = v_hat, x_hat
        objective, change = fixed.score(x_hat, y_term, v_hat if k > 0 else None)
        trace.append(objective)
        if change is not None:
            changes.append(change)
            if change <= cfg.rel_tol:
                break
    mix_bands(fixed.denoise.basis, x_hat)
    # free the prior's spectrum, the factors and the previous x before the
    # inverse transform allocates its output
    del fixed, v_hat
    return FusionResult(
        x_hat=HsiCube(irdft2(x_hat, width)),
        iterations=len(trace),
        objective_trace=tuple(trace),
        converged=bool(changes) and changes[-1] <= cfg.rel_tol,
        rel_changes=tuple(changes),
    )
