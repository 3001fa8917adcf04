"""Prior cubes for the regularizer's anchor term, and the naive prior's spectrum.

The fusion driver treats the prior as data: any high-resolution cube of the
right shape works. The usual prior is a cube file, e.g. the output of a
separately trained network; it is read like any other input
(``io.load_cube``, or ``fuse --prior file:<path>``, which checks its header
first) and handed to ``hqs.fuse`` as is. The one prior this package makes
itself is a naive fusion of the inputs, which ``hqs.fuse`` also takes as its
``PriorSource``.

Naive fusion upsamples the low-res cube bilinearly to u, then back-projects
the spectral residual per pixel so the result reproduces the mixed-band image
exactly: with K = R^T (R R^T)^-1, the prior u + K (z - R u) satisfies
``srf(prior) == z`` up to solver roundoff. The upsample is linear and acts on
each band alone, so it commutes with the band mix M = I - K R, and the prior
is ``Wr (M y)_b Wc^T + (K z)_b``: the bands x bands mix runs on the
low-resolution grid. One private pass builds it: a GEMM per band writes
``rows (M y)_b cols`` into the band's plane, chunks of bands being pool
items, and ``K z`` is then added over blocks of columns. ``make_prior``
runs it with the real weights Wr and Wc^T, K and z, and returns the cube.
For the half spectrum in the coordinates of a band basis U, which is what
the fusion loop reads, the mix is U^T M on y's grid and the transform of a
separable upsample is ``F(Wr) (U^T M y)_b rfft(Wc)^T`` per band; z enters
through its half spectrum, mixed by U^T K. ``naive_factors`` makes those
factors (``SpectrumFactors``), which have y's rank and need neither the
model nor a cube, and ``SpectrumFactors.spectrum`` runs the pass on them,
with no cube and no transform of one. The loop can then drop the spectrum
and rebuild any rows of it from the factors (``SpectrumFactors.rows``),
with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import HsiCube, chunks, dft2, each_block, pool_map, real_rows
from .degradation import DegradationModel
from .errors import ValidationError

__all__ = ["PriorSource", "SpectrumFactors", "make_prior", "naive_factors"]


@dataclass(frozen=True)
class PriorSource:
    """Tagged choice of the prior this package builds; ``naive_fusion`` is the one kind."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind != "naive_fusion":
            raise ValidationError(f"unknown prior source kind {self.kind!r}")

    @classmethod
    def naive_fusion(cls) -> "PriorSource":
        return cls(kind="naive_fusion")


def _naive_mixes(model: DegradationModel) -> tuple[np.ndarray, np.ndarray]:
    """K = R^T (R R^T)^-1, which maps z into bands, and the mix I - K R applied to y."""
    r = model.srf.matrix
    # R R^T is symmetric
    k = np.linalg.solve(r @ r.T, r).T
    return k, np.eye(len(k)) - k @ r


def _axis_weights(n_in: int, factor: int) -> np.ndarray:
    """The (n_in*factor, n_in) linear interpolation matrix of one axis; rows sum to 1."""
    n_out = n_in * factor
    # half-pixel-center mapping: output i sits at input coordinate (i+0.5)/s - 0.5
    coords = np.clip((np.arange(n_out) + 0.5) / factor - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(coords).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    w = coords - lo
    mat = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    mat[rows, lo] = 1.0 - w
    # a clamped output has hi == lo and w == 0
    mat[rows, hi] += w
    return mat


def _axis_spectrum(n_in: int, factor: int) -> np.ndarray:
    """The DFT of each column of ``_axis_weights(n_in, factor)``, shape (n_in*factor, n_in)."""
    # a plane one column wide: its 2-D DFT is the 1-D DFT of that column
    return dft2(_axis_weights(n_in, factor).T[:, :, None])[:, :, 0].T


def _naive_pass(
    low: np.ndarray, rows: np.ndarray, cols: np.ndarray, k: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """``rows @ low[b] @ cols`` for each band b of ``low``, plus ``k @ z``: the naive prior's one pass.

    ``low`` is y with its bands mixed on its low-resolution grid, ``rows``
    and ``cols`` upsample each band or transform its upsample, and ``k``
    mixes z, a cube or its half spectrum, into the result's grid. One pool
    item per chunk of bands (``cube.chunks``) writes each band's plane with
    two GEMMs; one pass over blocks of columns (``cube.each_block``) then
    adds z's part. So the bytes do not depend on the chunking or the pool
    size, and no temporary is larger than a plane or a block.
    """
    out = np.empty((len(low), len(rows), cols.shape[1]), dtype=np.result_type(rows, cols))

    def upsample(bands: slice) -> None:
        for b in range(len(out))[bands]:
            np.matmul(rows @ low[b], cols, out=out[b])

    def add_z(block: np.ndarray, z_block: np.ndarray) -> None:
        block += k @ z_block

    pool_map(upsample, chunks(len(out), out[0].nbytes))
    each_block(add_z, real_rows(out), real_rows(z))
    return out


def make_prior(src: PriorSource, y: HsiCube, z: HsiCube, model: DegradationModel) -> HsiCube:
    """Build the naive-fusion prior of y and z, checked against the model geometry."""
    if not isinstance(src, PriorSource):
        raise ValidationError(f"src must be a PriorSource, got {type(src).__name__}")
    model.check_data(y, z)
    k, mix = _naive_mixes(model)
    low = (mix @ y.as_matrix()).reshape(y.data.shape)
    wr = _axis_weights(y.height, model.down.factor)
    wc = _axis_weights(y.width, model.down.factor)
    return HsiCube(_naive_pass(low, wr, wc.T, k, z.data))


@dataclass(frozen=True)
class SpectrumFactors:
    """The factors of the naive prior's half spectrum, in the coordinates of a band basis U.

    Band b of the spectrum is ``wr_hat @ low[b] @ cols + (k @ z_hat)[b]``:
    ``wr_hat`` (height, y's height) is F(Wr), ``low`` (bands, y's height,
    y's width) is U^T M y as complex values, ``cols`` the stored columns
    of ``rfft(Wc)^T`` and ``k`` is U^T K. They have y's rank: at full scale
    they take 0.3 MB against the spectrum's 65.3 MB. ``spectrum`` builds
    the spectrum from them and z's half spectrum, and ``rows`` any rows of
    it, with the same bits.
    """

    wr_hat: np.ndarray
    low: np.ndarray
    cols: np.ndarray
    k: np.ndarray

    def spectrum(self, z_hat: np.ndarray) -> np.ndarray:
        """The half spectrum, from z's half spectrum ``z_hat``: the pass ``make_prior`` runs."""
        return _naive_pass(self.low, self.wr_hat, self.cols, self.k, z_hat)

    def rows(self, at: np.ndarray, z: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """Write the spectrum at the rows ``at``, every band and stored column, into ``out``.

        ``at`` is an integer array of row indices and ``z`` holds those rows
        of z's half spectrum; ``out`` and ``work``, which is overwritten,
        are shaped as z's rows with every band. All three are contiguous.
        Each band's ``wr_hat[at] @ low[b]`` is a GEMM as ``spectrum`` makes
        it but for its row count, every band in one matmul call. One GEMM
        then takes every band's rows as the rows of one matrix. Both give
        the bits of ``spectrum``'s products at any rows (numpy 2.4's
        OpenBLAS), but numpy runs a product of one row, or one with a
        one-column ``low``, as a matrix-vector product, whose bits change
        with the row count. So a single row is made twice, and for a
        one-column ``low`` every row is made. z's part is then added as
        ``spectrum`` adds it.
        """
        width = self.low.shape[2]
        if width == 1:
            left = np.matmul(self.wr_hat, self.low)[:, at]
        else:
            picked = at if len(at) > 1 else np.repeat(at, 2)
            left = np.matmul(self.wr_hat[picked], self.low)[:, : len(at)]
        np.matmul(left.reshape(-1, width), self.cols, out=out.reshape(-1, out.shape[-1]))
        np.matmul(self.k, real_rows(z), out=real_rows(work))
        out += work


def naive_factors(y: HsiCube, model: DegradationModel, basis: np.ndarray) -> SpectrumFactors:
    """The factors of the naive prior's half spectrum, its bands in ``basis``'s coordinates.

    y is the model's, as the caller has checked. The spectrum's pass
    (``SpectrumFactors.spectrum``) is ``make_prior``'s with each axis's
    upsample replaced by its transform and both band mixes led by
    ``basis.T``.
    """
    k, mix = _naive_mixes(model)
    low = ((basis.T @ mix) @ y.as_matrix()).reshape(y.data.shape).astype(np.complex128)
    rows = _axis_spectrum(y.height, model.down.factor)
    # the transform's stored columns laid out contiguous: the loop's GEMM per
    # tile (``SpectrumFactors.rows``) takes 7% less time on it than on the
    # transposed view, with the same bits
    columns = model.hr_shape[1] // 2 + 1
    cols = np.ascontiguousarray(_axis_spectrum(y.width, model.down.factor)[:columns].T)
    return SpectrumFactors(rows, low, cols, basis.T @ k)
