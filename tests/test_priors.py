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
from hsfuse.io import save_cube
from hsfuse.priors import PriorSource, bilinear_upsample, make_prior


def make_model(bands=6, h=8, w=8, s=2):
    return DegradationModel(
        BlurOperator.uniform_block(h, w, s),
        Downsampler(s),
        SpectralResponse.default_rgb(bands),
    )


class TestBilinearUpsample:
    def test_constant_maps_to_constant(self):
        up = bilinear_upsample(HsiCube.filled(2, 3, 3, fill=1.25), 4)
        assert np.allclose(up.data, 1.25, rtol=0, atol=1e-14)
        assert up.data.shape == (2, 12, 12)

    def test_factor_one_is_identity(self, rng):
        y = rand_cube(rng, 2, 4, 4)
        assert bilinear_upsample(y, 1) is y

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
        got = bilinear_upsample(y, factor).data
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_known_small_case(self):
        y = HsiCube(np.array([[[0.0, 1.0], [2.0, 3.0]]]))
        up = bilinear_upsample(y, 2)
        # row weights at factor 2: clamp, 1/4-3/4 mix, 3/4-1/4 mix, clamp
        want_first_row = np.array([0.0, 0.25, 0.75, 1.0])
        assert np.allclose(up.data[0, 0], want_first_row, rtol=0, atol=1e-14)
        assert np.allclose(up.data[0, 3], want_first_row + 2.0, rtol=0, atol=1e-14)

    def test_validation(self, rng):
        with pytest.raises(ValidationError):
            bilinear_upsample(rand_cube(rng, 1, 2, 2), 0)


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
        up = bilinear_upsample(y, 4)
        assert np.linalg.norm(prior.data - gt.data) < np.linalg.norm(up.data - gt.data)


class TestMakePrior:
    def test_external_file_roundtrip(self, rng, tmp_path):
        model = make_model()
        gt = rand_cube(rng, 6, 8, 8, lo=0.0, hi=1.0)
        y, z = model.degrade(gt)
        path = tmp_path / "prior.cube"
        save_cube(path, gt)
        prior = make_prior(PriorSource.external_file(path), y, z, model)
        assert np.array_equal(prior.data, gt.data)

    def test_ground_truth_source_passes_cube_through(self, rng):
        model = make_model()
        gt = rand_cube(rng, 6, 8, 8, lo=0.0, hi=1.0)
        y, z = model.degrade(gt)
        prior = make_prior(PriorSource.ground_truth(gt), y, z, model)
        assert prior is gt

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
        with pytest.raises(ValidationError):
            make_prior(PriorSource.ground_truth(rand_cube(rng, 6, 8, 7)), y, z, model)
        with pytest.raises(ValidationError):
            make_prior(PriorSource(kind="mystery"), y, z, model)
        with pytest.raises(ValidationError):
            make_prior(PriorSource(kind="external_file"), y, z, model)
        with pytest.raises(ValidationError):
            make_prior(PriorSource(kind="ground_truth"), y, z, model)

    def test_source_constructors_tag_kinds(self):
        assert PriorSource.naive_fusion().kind == "naive_fusion"
        assert PriorSource.external_file("p").path == "p"
        cube = HsiCube.filled(1, 1, 1)
        assert PriorSource.ground_truth(cube).cube is cube
