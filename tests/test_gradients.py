import numpy as np
import pytest

from helpers import adjoint_gap, rand_cube, roll_blur
from hsfuse.errors import ValidationError
from hsfuse.gradients import (
    LAPLACIAN_KERNEL,
    LaplacianOperator,
    TridiagMatrix,
    regularizer_value,
    spectral_diff_adjoint_array,
    spectral_diff_apply_array,
    spectral_gram_apply_array,
    spectral_gram_tridiag,
)


class TestLaplacian:
    def test_stencil_values(self):
        assert np.array_equal(
            LAPLACIAN_KERNEL, [[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]]
        )

    def test_matches_direct_correlation(self, rng):
        lap = LaplacianOperator.create(7, 9)
        x = rng.standard_normal((3, 7, 9))
        want = roll_blur(x, np.asarray(LAPLACIAN_KERNEL), (1, 1))
        assert np.allclose(lap.apply_array(x), want, rtol=0, atol=1e-12)

    def test_response_range_and_dc(self):
        lap = LaplacianOperator.create(8, 8)
        resp = lap.multiplier.real
        # 4 - 2cos(2 pi f_r/H) - 2cos(2 pi f_c/W): zero at DC, 8 at Nyquist
        assert resp[0, 0] == 0.0
        assert resp[4, 4] == pytest.approx(8.0, rel=1e-12)
        assert np.all(resp >= -1e-12)
        assert np.max(np.abs(lap.multiplier.imag)) < 1e-12

    def test_gram_is_apply_twice_for_symmetric_stencil(self, rng):
        lap = LaplacianOperator.create(6, 6)
        x = rng.standard_normal((2, 6, 6))
        # response_sq is the Gram multiplier the v-step uses for D^T D
        gram = np.fft.ifft2(np.fft.fft2(x, axes=(-2, -1)) * lap.response_sq, axes=(-2, -1)).real
        assert np.allclose(gram, lap.apply_array(lap.apply_array(x)), rtol=0, atol=1e-10)

    def test_self_adjoint(self, rng):
        lap = LaplacianOperator.create(6, 8)
        gap = max(
            adjoint_gap(lap.apply_array, lap.apply_array, (6, 8), (6, 8), rng)
            for _ in range(50)
        )
        assert gap <= 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            LaplacianOperator.create(2, 2)  # stencil does not fit
        with pytest.raises(ValidationError):
            LaplacianOperator.create(8, 8, kernel=np.array([1.0, 2.0]))


class TestSpectralDiff:
    def test_forward_values(self, rng):
        x = rng.standard_normal((4, 3, 3))
        assert np.array_equal(spectral_diff_apply_array(x), x[1:] - x[:-1])

    def test_adjoint_is_exact(self, rng):
        gap = max(
            adjoint_gap(
                spectral_diff_apply_array, spectral_diff_adjoint_array, (5, 4, 4), (4, 4, 4), rng
            )
            for _ in range(50)
        )
        assert gap <= 1e-14
        assert spectral_diff_adjoint_array(rng.standard_normal((3, 2, 2))).shape == (4, 2, 2)

    def test_gram_matches_dense_tridiag(self, rng):
        bands = 5
        tri = spectral_gram_tridiag(bands).to_dense()
        x = rng.standard_normal((bands, 2, 3))
        got = spectral_gram_apply_array(x)
        want = (tri @ x.reshape(bands, -1)).reshape(x.shape)
        assert np.allclose(got, want, rtol=0, atol=1e-14)

    def test_tridiag_pattern(self):
        tri = spectral_gram_tridiag(4)
        assert np.array_equal(tri.diag, [1.0, 2.0, 2.0, 1.0])
        assert np.array_equal(tri.sub, [-1.0, -1.0, -1.0])
        assert np.array_equal(tri.sup, [-1.0, -1.0, -1.0])

    def test_single_band_behaviour(self):
        assert np.array_equal(spectral_gram_apply_array(np.ones((1, 2, 2))), np.zeros((1, 2, 2)))
        with pytest.raises(ValidationError):
            spectral_diff_apply_array(np.ones((1, 2, 2)))
        with pytest.raises(ValidationError):
            spectral_gram_tridiag(1)


class TestTridiagMatrix:
    def test_to_dense(self):
        tri = TridiagMatrix(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0]), np.array([6.0, 7.0]))
        want = np.array([[1.0, 6.0, 0.0], [4.0, 2.0, 7.0], [0.0, 5.0, 3.0]])
        assert np.array_equal(tri.to_dense(), want)
        assert tri.n == 3

    def test_validation(self):
        with pytest.raises(ValidationError):
            TridiagMatrix(np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValidationError):
            TridiagMatrix(np.array([np.nan]), np.zeros(0), np.zeros(0))


class TestRegularizerValue:
    def test_matches_manual_formula(self, rng):
        x = rand_cube(rng, 4, 6, 6)
        xt = rand_cube(rng, 4, 6, 6)
        lap = LaplacianOperator.create(6, 6)
        diff = x.data - xt.data
        want = 0.3 * np.sum(lap.apply_array(diff) ** 2)
        want += 0.07 * np.sum((diff[1:] - diff[:-1]) ** 2)
        got = regularizer_value(x, xt, 0.3, 0.07, lap=lap)
        assert got == pytest.approx(want, rel=1e-12)
        # identical cubes cost nothing
        assert regularizer_value(x, x, 0.3, 0.07, lap=lap) == 0.0

    def test_single_band_drops_spectral_term(self, rng):
        x = rand_cube(rng, 1, 6, 6)
        xt = rand_cube(rng, 1, 6, 6)
        lap = LaplacianOperator.create(6, 6)
        want = 0.5 * np.sum(lap.apply_array(x.data - xt.data) ** 2)
        assert regularizer_value(x, xt, 0.5, 123.0, lap=lap) == pytest.approx(want, rel=1e-12)

    def test_validation(self, rng):
        x = rand_cube(rng, 2, 6, 6)
        with pytest.raises(ValidationError):
            regularizer_value(x, rand_cube(rng, 2, 6, 5), 0.1, 0.1)
        with pytest.raises(ValidationError):
            regularizer_value(x, x, -0.1, 0.1)
