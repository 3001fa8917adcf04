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
``prior_spectrum`` runs it for the half spectrum in the coordinates of a
band basis U, which is what the fusion loop reads, with no cube and no
transform of one: the mix is U^T M on y's grid, the transform of a
separable upsample is ``F(Wr) (U^T M y)_b rfft(Wc)^T`` per band, and z
enters through its half spectrum, mixed by U^T K. It also returns those
factors (``SpectrumFactors``), y's rank in place of a spectrum, so that
the loop can drop the spectrum and rebuild any rows of it, with the same
bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import HsiCube, chunks, dft2, each_block, pool_map, real_rows
from .degradation import DegradationModel
from .errors import ValidationError

__all__ = ["PriorSource", "SpectrumFactors", "make_prior", "prior_spectrum"]


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
    y: HsiCube,
    mix: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    k: np.ndarray,
    z: np.ndarray,
    left: np.ndarray | None,
) -> np.ndarray:
    """``rows @ (mix y)_b @ cols`` for each band b, plus ``k @ z``: the naive prior's one pass.

    ``mix`` mixes y's bands on its low-resolution grid, ``rows`` and ``cols``
    upsample each band or transform its upsample, and ``k`` mixes z, a cube
    or its half spectrum, into the result's grid. One pool item per chunk of
    bands (``cube.chunks``) makes each band's ``rows @ (mix y)_b``, into
    ``left[b]`` when ``left`` is given, and then writes the band's plane,
    with one GEMM each; one pass over blocks of columns
    (``cube.each_block``) then adds z's part. So the bytes do not depend on
    the chunking or the pool size, and no temporary is larger than a plane
    or a block.
    """
    low = (mix @ y.as_matrix()).reshape(y.data.shape)
    out = np.empty((len(low), len(rows), cols.shape[1]), dtype=np.result_type(rows, cols))

    def upsample(bands: slice) -> None:
        for b in range(len(out))[bands]:
            band = rows @ low[b] if left is None else np.matmul(rows, low[b], out=left[b])
            np.matmul(band, cols, out=out[b])

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
    wr = _axis_weights(y.height, model.down.factor)
    wc = _axis_weights(y.width, model.down.factor)
    return HsiCube(_naive_pass(y, mix, wr, wc.T, k, z.data, None))


@dataclass(frozen=True)
class SpectrumFactors:
    """The factors ``prior_spectrum`` builds the naive prior's half spectrum from.

    Band b of the spectrum is ``left[b] @ cols + (k @ z_hat)[b]``:
    ``left`` (bands, height, y's width) holds ``F(Wr) (U^T M y)_b``,
    ``cols`` the stored columns of ``rfft(Wc)^T`` and ``k`` is U^T K. They
    have y's rank, so at full scale ``left`` is 4.1 MB against the
    spectrum's 65.3 MB, and any rows of the spectrum are rebuilt from them
    and z's half spectrum (``rows``).
    """

    left: np.ndarray
    cols: np.ndarray
    k: np.ndarray

    def rows(self, left: np.ndarray, z: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """Write the spectrum at some rows, every band and stored column, into ``out``.

        ``left`` holds those rows of ``self.left`` and ``z`` those of z's
        half spectrum; ``out`` and ``work``, which is overwritten, are
        shaped as z's rows with every band. All four are contiguous. One
        GEMM takes every band's rows as the rows of one matrix, which gives
        the bits of ``prior_spectrum``'s GEMM per band, where one GEMM per
        band of a single row would not: numpy makes that a matrix-vector
        product, whose bits differ (numpy 2.4's OpenBLAS). z's part is then
        added as ``prior_spectrum`` adds it.
        """
        np.matmul(left.reshape(-1, left.shape[-1]), self.cols, out=out.reshape(-1, out.shape[-1]))
        np.matmul(self.k, real_rows(z), out=real_rows(work))
        out += work


def prior_spectrum(
    y: HsiCube, model: DegradationModel, basis: np.ndarray, z_hat: np.ndarray
) -> tuple[np.ndarray, SpectrumFactors]:
    """The half spectrum of the naive prior ``make_prior`` builds, its bands in ``basis``'s coordinates.

    ``z_hat`` is z's half spectrum; y and z are the model's, as the caller
    has checked. It is ``make_prior``'s pass with each axis's upsample
    replaced by its transform and both band mixes led by ``basis.T``.
    Returns the spectrum and the factors it was built from.
    """
    k, mix = _naive_mixes(model)
    rows = _axis_spectrum(y.height, model.down.factor)
    # the transform's stored columns, as many as z_hat holds, laid out
    # contiguous: the loop's GEMM per tile (``SpectrumFactors.rows``) takes
    # 7% less time on it than on the transposed view, with the same bits
    cols = np.ascontiguousarray(_axis_spectrum(y.width, model.down.factor)[: z_hat.shape[-1]].T)
    k = basis.T @ k
    left = np.empty((len(basis), len(rows), y.width), dtype=np.complex128)
    spec = _naive_pass(y, basis.T @ mix, rows, cols, k, z_hat, left)
    return spec, SpectrumFactors(left, cols, k)
