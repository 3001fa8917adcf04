import tracemalloc

import numpy as np
import pytest

from helpers import adjoint_gap, rand_cube, roll_blur
from hsfuse.cube import HsiCube, circular_convolve, dft2_per_band
from hsfuse.degradation import (
    BlurOperator,
    DegradationModel,
    Downsampler,
    SpectralResponse,
)
from hsfuse.errors import ValidationError
from hsfuse.gradients import LaplacianOperator


class TestBlurOperator:
    def test_matches_direct_correlation_oracle(self, rng):
        for make in (
            lambda: BlurOperator.uniform_block(9, 7, 3),
            lambda: BlurOperator.gaussian(9, 7, 0.9, 5),
            lambda: BlurOperator.custom(9, 7, rng.uniform(0.1, 1.0, (3, 4)), anchor=(2, 1)),
        ):
            blur = make()
            x = rng.standard_normal((2, 9, 7))
            want = roll_blur(x, np.asarray(blur.kernel), blur.anchor)
            assert np.allclose(blur.apply_array(x), want, rtol=0, atol=1e-12)

    def test_block_blur_plus_decimation_is_block_mean(self, rng):
        k = 4
        blur = BlurOperator.uniform_block(12, 8, k)
        down = Downsampler(k)
        x = rng.standard_normal((3, 12, 8))
        got = down.apply_array(blur.apply_array(x))
        want = x.reshape(3, 12 // k, k, 8 // k, k).mean(axis=(2, 4))
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_adjoint_is_exact(self, rng):
        blur = BlurOperator.gaussian(8, 8, 1.1, support=7)
        gap = max(
            adjoint_gap(blur.apply_array, blur.adjoint_array, (8, 8), (8, 8), rng)
            for _ in range(50)
        )
        assert gap <= 1e-12

    def test_kernel_normalized_to_unit_dc(self):
        blur = BlurOperator.gaussian(16, 16, 1.5)
        assert np.asarray(blur.kernel).sum() == pytest.approx(1.0, rel=1e-12)
        assert blur.multiplier[0, 0].real == pytest.approx(1.0, rel=1e-12)
        assert abs(blur.multiplier[0, 0].imag) < 1e-15

    def test_unnormalized_kernel_keeps_values_and_caller_array(self):
        kernel = np.array([[0.0, -1.0], [2.0, 1.0]])
        blur = BlurOperator.custom(6, 6, kernel, anchor=(0, 0), normalize=False)
        assert np.array_equal(np.asarray(blur.kernel), kernel)
        assert kernel.flags.writeable  # the operator froze its own copy only
        assert blur.multiplier[0, 0].real == pytest.approx(kernel.sum(), rel=1e-12)

    def test_constant_preserved_by_normalized_blur(self):
        blur = BlurOperator.uniform_block(6, 6, 3)
        x = np.full((1, 6, 6), 2.5)
        assert np.allclose(blur.apply_array(x), 2.5, rtol=0, atol=1e-12)

    def test_circular_convolution_holds_one_complex_buffer(self, rng):
        # each plane is filtered on its own half spectrum and transformed back
        # into the real output, so a call holds less than one complex spectrum
        # of the whole input; the half spectrum of dft2_per_band is
        # transformed in its own output buffer
        for shape in ((8, 128, 128), (5, 64, 63)):
            x = rng.standard_normal(shape)
            height, width = shape[1:]
            cube = HsiCube(x.copy())
            spec = np.fft.fft2(x, axes=(-2, -1))
            half = np.fft.rfftn(x, axes=(-2, -1))
            blur = BlurOperator.gaussian(height, width, 1.5)
            lap = LaplacianOperator.create(height, width)

            def planewise(m):
                # the reference: one plane at a time, rfftn, stored columns, irfftn
                kept = m[:, : width // 2 + 1]
                return np.stack([np.fft.irfftn(np.fft.rfftn(a) * kept, s=a.shape, axes=(0, 1)) for a in x])

            got, peak = self._traced(lambda: dft2_per_band(cube).data)
            assert np.array_equal(got, half)
            assert peak < 1.5 * half.nbytes
            for run, m in (
                (lambda: blur.apply_array(x), blur.multiplier),
                (lambda: blur.adjoint_array(x), np.conj(blur.multiplier)),
                (lambda: lap.apply_array(x), lap.multiplier),
            ):
                got, peak = self._traced(run)
                assert np.array_equal(got, planewise(m))
                full = np.fft.ifft2(spec * m).real
                assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()
                assert peak < 1.0 * spec.nbytes

    def test_adjoint_conjugates_only_the_stored_columns(self, rng):
        # one 512x512 plane with ``block:32``: the adjoint peaked at 8.53 MB
        # with a copy of the whole conjugated multiplier per call, 6.31 MB
        # with its stored columns alone, against the blur's 4.33 MB
        blur = BlurOperator.uniform_block(512, 512, 32)
        x = rng.standard_normal((1, 512, 512))
        want = circular_convolve(x, np.conj(blur.multiplier))
        blur.adjoint_array(x)
        _, apply_peak = self._traced(lambda: blur.apply_array(x))
        got, peak = self._traced(lambda: blur.adjoint_array(x))
        assert got.tobytes() == want.tobytes()
        assert peak < apply_peak + 0.75 * blur.multiplier.nbytes

    @staticmethod
    def _traced(run):
        """``run()`` and the peak of the memory it traced."""
        tracemalloc.start()
        try:
            got = run()
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_validation(self):
        with pytest.raises(ValidationError):
            BlurOperator.uniform_block(4, 4, 5)  # kernel larger than grid
        with pytest.raises(ValidationError):
            BlurOperator.uniform_block(4, 4, 0)
        with pytest.raises(ValidationError):
            BlurOperator.gaussian(8, 8, -1.0)
        with pytest.raises(ValidationError):
            BlurOperator.gaussian(8, 8, 1.0, support=4)  # even support
        with pytest.raises(ValidationError):
            BlurOperator.custom(8, 8, np.ones((2, 2)), anchor=(2, 0))
        with pytest.raises(ValidationError):
            BlurOperator.custom(8, 8, np.array([[1.0, -1.0]]))  # zero-sum normalize
        with pytest.raises(ValidationError):
            BlurOperator.custom(8, 8, np.array([[np.nan, 1.0]]))
        for kernel in (np.ones(3), np.ones((1, 1, 1)), np.ones((0, 3))):
            with pytest.raises(ValidationError, match="kernel must be a non-empty 2-D array"):
                BlurOperator.custom(8, 8, kernel)

    def test_a_gaussian_too_wide_for_its_grid_is_refused_before_its_kernel_is_made(self):
        # the support, given or defaulted, is checked against the grid first:
        # sigma 1e6 asked numpy for a 6,000,001-tap square kernel, and sigma
        # 100 on a 32x32 grid traced its 601x601 kernel (2.9 MB) before custom
        # refused it
        with pytest.raises(ValidationError, match=r"kernel \(6000001, 6000001\) does not fit"):
            BlurOperator.gaussian(512, 512, 1e6)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"kernel \(601, 601\) does not fit the 32x32"):
                BlurOperator.gaussian(32, 32, 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        with pytest.raises(ValidationError, match=r"kernel \(9, 9\) does not fit the 8x16"):
            BlurOperator.gaussian(8, 16, 1.0, support=9)
        assert BlurOperator.gaussian(8, 16, 1.0, support=7).kernel.shape == (7, 7)

    def test_cube_interface_checks_grid(self, rng):
        # the operators take arrays; the model's cube entry point checks the grid
        model = DegradationModel(
            BlurOperator.uniform_block(8, 8, 2), Downsampler(2), SpectralResponse.default_rgb(4)
        )
        with pytest.raises(ValidationError):
            model.degrade(rand_cube(rng, 4, 8, 6))
        y, z = model.degrade(rand_cube(rng, 4, 8, 8))
        assert (y.data.shape, z.data.shape) == ((4, 4, 4), (3, 8, 8))


class TestDownsampler:
    def test_apply_slices_and_adjoint_scatters(self, rng):
        down = Downsampler(3, phase=(1, 2))
        x = rng.standard_normal((2, 6, 9))
        y = down.apply_array(x)
        assert y.shape == (2, 2, 3)
        assert np.array_equal(y, x[:, 1::3, 2::3])
        back = down.adjoint_array(y)
        assert back.shape == x.shape
        assert np.array_equal(back[:, 1::3, 2::3], y)
        back[:, 1::3, 2::3] = 0.0
        assert np.all(back == 0.0)

    def test_adjoint_is_exact(self, rng):
        down = Downsampler(2, phase=(1, 0))
        gap = max(
            adjoint_gap(down.apply_array, down.adjoint_array, (8, 6), (4, 3), rng)
            for _ in range(50)
        )
        assert gap <= 1e-14

    def test_apply_then_adjoint_is_mask(self, rng):
        down = Downsampler(2)
        x = rng.standard_normal((1, 4, 4))
        masked = down.adjoint_array(down.apply_array(x))
        assert np.array_equal(masked[:, ::2, ::2], x[:, ::2, ::2])
        assert np.all(masked[:, 1::2, :] == 0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            Downsampler(0)
        with pytest.raises(ValidationError):
            Downsampler(2, phase=(2, 0))
        with pytest.raises(ValidationError):
            Downsampler(3).apply_array(np.zeros((1, 7, 9)))


# a sub-pixel offset is a (row, column) pair, refused with the argument's name
# before either element is checked
_OFFSETS = {
    "phase": lambda pair: Downsampler(2, phase=pair),
    "anchor": lambda pair: BlurOperator.custom(8, 8, np.ones((3, 3)), anchor=pair),
}


@pytest.mark.parametrize(
    "name, pair",
    [("phase", 1), ("phase", None), ("phase", (0,)), ("phase", (0, 0, 0)),
     ("anchor", 1), ("anchor", (1,)), ("anchor", (1, 1, 1)), ("anchor", [[1, 1]])],
    ids=lambda value: str(value).replace(" ", ""),
)
def test_an_offset_that_is_not_a_pair_is_refused(name, pair):
    with pytest.raises(ValidationError, match=rf"{name} must be a \(row, column\) pair"):
        _OFFSETS[name](pair)


@pytest.mark.parametrize(
    "name, pair",
    [("phase", (0, (1,))), ("phase", ((1,), 0)), ("phase", (0, [1, 1])),
     ("anchor", (1, (1,))), ("anchor", ((1, 1), 1)), ("anchor", (1.0, 1))],
    ids=lambda value: str(value).replace(" ", ""),
)
def test_a_ragged_or_non_integer_offset_is_refused(name, pair):
    with pytest.raises(ValidationError, match=rf"{name} must be an integer"):
        _OFFSETS[name](pair)


def test_a_phase_is_held_as_a_tuple_of_ints():
    for phase in (np.array([1, 1]), [1, 1], (np.int64(1), np.int32(1))):
        down = Downsampler(np.int64(2), phase)
        assert down == Downsampler(2, (1, 1)) and hash(down) == hash(Downsampler(2, (1, 1)))
        assert type(down.phase) is tuple and all(type(p) is int for p in down.phase)
        assert type(down.factor) is int
    blur = BlurOperator.custom(8, 8, np.ones((3, 3)), anchor=np.array([2, 1]))
    assert blur.anchor == (2, 1) and all(type(a) is int for a in blur.anchor)


class TestSpectralResponse:
    def test_rows_are_normalized(self):
        srf = SpectralResponse(np.array([[2.0, 2.0, 0.0, 0.0], [0.0, 1.0, 1.0, 2.0]]))
        assert np.allclose(srf.matrix.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.allclose(srf.matrix[0], [0.5, 0.5, 0.0, 0.0])

    def test_apply_matches_matmul(self, rng):
        srf = SpectralResponse(rng.uniform(0.0, 1.0, (3, 8)) + 0.01)
        cube = rand_cube(rng, 8, 5, 4)
        got = srf.apply_array(cube.data)
        want = srf.matrix @ cube.as_matrix()
        assert np.allclose(got.reshape(3, -1), want, rtol=0, atol=1e-13)

    def test_adjoint_is_exact(self, rng):
        srf = SpectralResponse(rng.uniform(0.0, 1.0, (2, 6)) + 0.01)
        gap = max(
            adjoint_gap(srf.apply_array, srf.adjoint_array, (6, 3, 3), (2, 3, 3), rng)
            for _ in range(50)
        )
        assert gap <= 1e-13

    def test_default_rgb_layout(self):
        srf = SpectralResponse.default_rgb(31)
        assert srf.matrix.shape == (3, 31)
        assert np.allclose(srf.matrix.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        # rows ordered red, green, blue: peaks at 650/550/450 nm on a 400-700 grid
        grid = np.linspace(400.0, 700.0, 31)
        peaks = grid[np.argmax(srf.matrix, axis=1)]
        assert np.array_equal(peaks, [650.0, 550.0, 450.0])

    def test_validation(self):
        with pytest.raises(ValidationError):
            SpectralResponse(np.ones((3, 3)))  # must reduce bands
        with pytest.raises(ValidationError):
            SpectralResponse(np.array([[1.0, -0.1, 0.2, 0.3]]))
        with pytest.raises(ValidationError):
            SpectralResponse(np.array([[0.0, 0.0, 0.0, 0.0]]))
        with pytest.raises(ValidationError):
            SpectralResponse.default_rgb(3)
        with pytest.raises(ValidationError, match="response matrix must be 2-D"):
            SpectralResponse(np.ones(4))
        with pytest.raises(ValidationError, match="at least one output band"):
            SpectralResponse(np.ones((0, 4)))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="response entries must be finite"):
                SpectralResponse(np.array([[1.0, bad, 0.2, 0.3]]))


class TestDegradationModel:
    def _model(self, bands=6, h=8, w=8, s=2, sigma=0.0, seed=0):
        return DegradationModel(
            BlurOperator.uniform_block(h, w, s),
            Downsampler(s),
            SpectralResponse.default_rgb(bands),
            noise_sigma=sigma,
            noise_seed=seed,
        )

    def test_degrade_shapes_and_determinism(self, rng):
        model = self._model()
        x = rand_cube(rng, 6, 8, 8, lo=0.0, hi=1.0)
        y, z = model.degrade(x)
        assert y.data.shape == (6, 4, 4)
        assert z.data.shape == (3, 8, 8)
        y2, z2 = model.degrade(x)
        assert np.array_equal(y.data, y2.data)
        assert np.array_equal(z.data, z2.data)

    def test_noise_is_seeded(self, rng):
        x = rand_cube(rng, 6, 8, 8, lo=0.0, hi=1.0)
        ya, _ = self._model(sigma=0.05, seed=7).degrade(x)
        yb, _ = self._model(sigma=0.05, seed=7).degrade(x)
        yc, _ = self._model(sigma=0.05, seed=8).degrade(x)
        clean, _ = self._model().degrade(x)
        assert np.array_equal(ya.data, yb.data)
        assert not np.array_equal(ya.data, yc.data)
        assert not np.array_equal(ya.data, clean.data)

    def test_validation(self, rng):
        with pytest.raises(ValidationError):
            DegradationModel(
                BlurOperator.uniform_block(9, 9, 2),
                Downsampler(2),
                SpectralResponse.default_rgb(6),
            )
        with pytest.raises(ValidationError):
            self._model().degrade(rand_cube(rng, 5, 8, 8))
        with pytest.raises(ValidationError):
            self._model(sigma=-0.1)
        for seed in (-1, 1.5):  # checked even when there is no noise to draw
            with pytest.raises(ValidationError):
                self._model(seed=seed)

    def test_composed_spatial_adjoint(self, rng):
        model = self._model()
        fwd = lambda x: model.down.apply_array(model.blur.apply_array(x))
        adj = lambda y: model.blur.adjoint_array(model.down.adjoint_array(y))
        gap = max(adjoint_gap(fwd, adj, (8, 8), (4, 4), rng) for _ in range(50))
        assert gap <= 1e-12

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("blur", ["block", "gauss"])
    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    def test_degrade_equals_the_whole_cube_expression(self, rng, monkeypatch, threads, blur, sigma):
        # y is blurred and decimated one plane per pool item
        monkeypatch.setenv("HSFUSE_THREADS", threads)
        h, w, s = 12, 16, 4
        op = BlurOperator.uniform_block(h, w, s) if blur == "block" else BlurOperator.gaussian(h, w, 1.2)
        model = DegradationModel(
            op, Downsampler(s, (1, 3)), SpectralResponse.default_rgb(7), noise_sigma=sigma, noise_seed=5
        )
        x = rand_cube(rng, 7, h, w, lo=0.0, hi=1.0)
        y, z = model.degrade(x)
        want_y = model.down.apply_array(model.blur.apply_array(x.data))
        want_z = model.srf.apply_array(x.data)
        if sigma > 0:
            noise = np.random.default_rng(5)
            want_y = want_y + noise.normal(0.0, sigma, want_y.shape)
            want_z = want_z + noise.normal(0.0, sigma, want_z.shape)
        assert np.array_equal(y.data, want_y)
        assert np.array_equal(z.data, want_z)

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_z_blocks_give_the_bits_of_the_whole_band_mix(self, rng, monkeypatch, threads):
        # 72x72 is a full block of 4,096 pixels and a tail of 1,088
        monkeypatch.setenv("HSFUSE_THREADS", threads)
        model = DegradationModel(
            BlurOperator.uniform_block(72, 72, 4), Downsampler(4), SpectralResponse.default_rgb(31)
        )
        x = rand_cube(rng, 31, 72, 72, lo=0.0, hi=1.0)
        _, z = model.degrade(x)
        assert np.array_equal(z.data, np.tensordot(model.srf.matrix, x.data, axes=(1, 0)))

    def test_degrade_holds_no_blurred_cube(self, rng, monkeypatch):
        # traced above the input at 31x128x128, factor 4, after a warm-up
        # call: 1.17-1.20 cubes while the whole blurred cube was made before
        # decimation; 0.17, 0.26 and 0.36 at pools 1, 2 and 3 with one plane
        # per pool item, of which z is 3/31 of a cube and the rest the
        # planes in flight with their transforms
        monkeypatch.setenv("HSFUSE_THREADS", "2")
        x = rand_cube(rng, 31, 128, 128, lo=0.0, hi=1.0)
        model = DegradationModel(
            BlurOperator.uniform_block(128, 128, 4), Downsampler(4), SpectralResponse.default_rgb(31)
        )
        model.degrade(x)
        tracemalloc.start()
        try:
            model.degrade(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.4 * x.data.nbytes
