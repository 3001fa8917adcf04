import tracemalloc

import numpy as np
import pytest

from helpers import rand_cube
from hsfuse.cube import HsiCube
from hsfuse.degradation import (
    BlurOperator,
    DegradationModel,
    Downsampler,
    SpectralResponse,
)
from hsfuse.errors import ValidationError
from hsfuse.priors import PriorSource, _axis_weights, make_prior, naive_factors


def make_model(bands=6, h=8, w=8, s=2):
    return DegradationModel(
        BlurOperator.uniform_block(h, w, s),
        Downsampler(s),
        SpectralResponse.default_rgb(bands),
    )


def upsample(y, factor):
    """The separable bilinear upsample that the naive prior applies to each band."""
    return _axis_weights(y.height, factor) @ y.data @ _axis_weights(y.width, factor).T


class TestBilinearUpsample:
    def test_constant_maps_to_constant(self):
        up = upsample(HsiCube(np.full((2, 3, 3), 1.25)), 4)
        assert np.allclose(up, 1.25, rtol=0, atol=1e-14)
        assert up.shape == (2, 12, 12)

    def test_factor_one_is_identity(self):
        for n in (1, 2, 5):
            assert np.array_equal(_axis_weights(n, 1), np.eye(n))

    def test_matches_explicit_weight_matrix(self, rng):
        # independent route: build the 1-D interpolation matrix by hand under
        # the half-pixel-center convention with edge clamping
        def axis_matrix(n_in, factor):
            n_out = n_in * factor
            mat = np.zeros((n_out, n_in))
            for i in range(n_out):
                c = np.clip((i + 0.5) / factor - 0.5, 0.0, n_in - 1.0)
                lo = min(int(np.floor(c)), n_in - 1)
                hi = min(lo + 1, n_in - 1)
                w = c - lo
                mat[i, lo] += 1.0 - w
                mat[i, hi] += w
            return mat

        y = rand_cube(rng, 3, 3, 4)
        factor = 3
        rows = axis_matrix(3, factor)
        cols = axis_matrix(4, factor)
        want = np.einsum("ri,bij,cj->brc", rows, y.data, cols)
        got = upsample(y, factor)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_known_small_case(self):
        y = HsiCube(np.array([[[0.0, 1.0], [2.0, 3.0]]]))
        up = upsample(y, 2)
        # row weights at factor 2: clamp, 1/4-3/4 mix, 3/4-1/4 mix, clamp
        want_first_row = np.array([0.0, 0.25, 0.75, 1.0])
        assert np.allclose(up[0, 0], want_first_row, rtol=0, atol=1e-14)
        assert np.allclose(up[0, 3], want_first_row + 2.0, rtol=0, atol=1e-14)


class TestNaiveFusion:
    def test_reproduces_mixed_band_image(self, rng):
        model = make_model()
        gt = rand_cube(rng, 6, 8, 8, lo=0.0, hi=1.0)
        y, z = model.degrade(gt)
        prior = make_prior(PriorSource.naive_fusion(), y, z, model)
        assert prior.data.shape == (6, 8, 8)
        zz = model.srf.apply_array(prior.data)
        assert np.allclose(zz, z.data, rtol=0, atol=1e-10)

    def test_closer_to_truth_than_plain_upsampling(self):
        from hsfuse.scenes import SceneSpec, generate_scene

        gt = generate_scene(SceneSpec(6, 16, 16, endmembers=3, seed=2))
        model = make_model(6, 16, 16, 4)
        y, z = model.degrade(gt)
        prior = make_prior(PriorSource.naive_fusion(), y, z, model)
        up = upsample(y, 4)
        assert np.linalg.norm(prior.data - gt.data) < np.linalg.norm(up - gt.data)


def upsample_then_back_project(y, z, model):
    """The naive prior in two steps: upsample, then correct each pixel by
    R^T (R R^T)^-1 (z - R up)."""
    up = upsample(y, model.down.factor).reshape(y.bands, -1)
    r = model.srf.matrix
    correction = r.T @ np.linalg.solve(r @ r.T, z.as_matrix() - r @ up)
    return (up + correction).reshape(r.shape[1], *z.data.shape[1:])


class TestNaivePriorOnLowResGrid:
    """``make_prior`` mixes bands on the low-resolution grid before upsampling."""

    @pytest.mark.parametrize(
        "bands,h,w,s", [(6, 8, 12, 4), (5, 12, 8, 4), (7, 9, 15, 3), (31, 12, 18, 3), (5, 7, 5, 1)]
    )
    def test_matches_upsample_then_back_projection(self, rng, bands, h, w, s):
        model = make_model(bands, h, w, s)
        y, z = model.degrade(rand_cube(rng, bands, h, w, lo=0.0, hi=1.0))
        got = make_prior(PriorSource.naive_fusion(), y, z, model).data
        want = upsample_then_back_project(y, z, model)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "bands,h,w,s", [(6, 8, 12, 4), (5, 12, 8, 4), (7, 9, 15, 3), (31, 12, 18, 3), (5, 7, 5, 1)]
    )
    def test_its_spectrum_is_the_rotated_transform_of_the_cube(self, rng, bands, h, w, s):
        # the factors build U^T rfft2(prior) with no cube: the mix on y's
        # grid, the transform of a separable upsample and z's spectrum
        model = make_model(bands, h, w, s)
        y, z = model.degrade(rand_cube(rng, bands, h, w, lo=0.0, hi=1.0))
        basis = np.linalg.qr(rng.standard_normal((bands, bands)))[0]
        src = PriorSource.naive_fusion()
        got = naive_factors(y, model, basis).spectrum(np.fft.rfft2(z.data))
        cube = np.fft.rfft2(make_prior(src, y, z, model).data)
        want = np.tensordot(basis.T, cube, axes=(1, 0))
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "bands,h,w,s",
        [
            (6, 8, 12, 4),
            (7, 9, 15, 3),
            (31, 64, 64, 4),
            (31, 96, 96, 8),
            (5, 7, 5, 1),
            # every band of a y 3 and 5 wide, and a y one column wide
            (31, 24, 12, 4),
            (31, 32, 20, 4),
            (31, 16, 4, 4),
        ],
    )
    def test_its_factors_rebuild_any_rows_bit_for_bit(self, rng, bands, h, w, s):
        # the fusion loop rebuilds p tile by tile from the factors, with the
        # bits of the spectrum they built: for a single row (where a product
        # of one row would be a matrix-vector product) as for runs and
        # strided sets of rows, and for a y one column wide (where the
        # spectrum's product per band is a matrix-vector product)
        model = make_model(bands, h, w, s)
        y, z = model.degrade(rand_cube(rng, bands, h, w, lo=0.0, hi=1.0))
        basis = np.linalg.qr(rng.standard_normal((bands, bands)))[0]
        z_hat = np.fft.rfft2(z.data)
        factors = naive_factors(y, model, basis)
        spec = factors.spectrum(z_hat)
        picks = [[r] for r in range(h)] + [list(range(1, h)), list(range(0, h, 3)), [h - 1, 0]]
        for rows in picks:
            out = np.empty((bands, len(rows), spec.shape[2]), dtype=np.complex128)
            factors.rows(np.array(rows), z_hat[:, rows], out, np.empty_like(out))
            assert out.tobytes() == spec[:, rows].tobytes()

    def test_peak_memory_stays_below_one_and_a_half_cubes(self, rng):
        model = make_model(31, 128, 128, 4)
        y, z = model.degrade(rand_cube(rng, 31, 128, 128, lo=0.0, hi=1.0))
        tracemalloc.start()
        try:
            prior = make_prior(PriorSource.naive_fusion(), y, z, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * prior.data.nbytes


class TestMakePrior:
    def test_geometry_validation(self, rng):
        model = make_model()
        gt = rand_cube(rng, 6, 8, 8, lo=0.0, hi=1.0)
        y, z = model.degrade(gt)
        src = PriorSource.naive_fusion()
        with pytest.raises(ValidationError):
            make_prior(src, rand_cube(rng, 5, 4, 4), z, model)
        with pytest.raises(ValidationError):
            make_prior(src, rand_cube(rng, 6, 3, 4), z, model)
        with pytest.raises(ValidationError):
            make_prior(src, y, rand_cube(rng, 2, 8, 8), model)
        # a prior file is read by its caller, so make_prior knows no file kind
        for kind in ("mystery", "external_file"):
            with pytest.raises(ValidationError, match="unknown prior source kind"):
                make_prior(PriorSource(kind=kind), y, z, model)

    def test_an_input_of_the_wrong_type_is_refused_by_name(self, rng):
        model = make_model()
        y, z = model.degrade(rand_cube(rng, 6, 8, 8, lo=0.0, hi=1.0))
        src = PriorSource.naive_fusion()
        for args, message in [
            ((src, y.data, z, model), "y must be an HsiCube, got ndarray"),
            ((src, y, z.data, model), "z must be an HsiCube, got ndarray"),
            (("naive", y, z, model), "src must be a PriorSource, got str"),
            ((None, y, z, model), "src must be a PriorSource, got NoneType"),
        ]:
            with pytest.raises(ValidationError, match=message):
                make_prior(*args)

    def test_source_constructors_tag_kinds(self):
        assert PriorSource.naive_fusion().kind == "naive_fusion"
