import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsfuse.cube import (
    FreqCube,
    HsiCube,
    circular_convolve,
    dft2_per_band,
    idft2_per_band,
    irdft2,
    rdft2,
    self_mirrored,
)
from hsfuse.degradation import BlurOperator
from hsfuse.errors import SymmetryViolationError, ValidationError


def test_construction_validates_shape_and_values():
    with pytest.raises(ValidationError):
        HsiCube(np.zeros((3, 4)))
    with pytest.raises(ValidationError):
        HsiCube(np.zeros((0, 4, 4)))
    bad = np.zeros((2, 3, 3))
    bad[1, 1, 1] = np.nan
    with pytest.raises(ValidationError):
        HsiCube(bad)
    bad[1, 1, 1] = np.inf
    with pytest.raises(ValidationError):
        HsiCube(bad)


def test_cube_is_immutable():
    cube = HsiCube(np.full((2, 3, 4), 1.5))
    with pytest.raises(ValueError):
        cube.data[0, 0, 0] = 2.0
    with pytest.raises(AttributeError):
        cube.data = np.zeros((2, 3, 4))


def test_construction_copies_noncontiguous_and_casts():
    src = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    cube = HsiCube(src.transpose(0, 2, 1))
    assert cube.data.dtype == np.float64
    assert cube.data.flags["C_CONTIGUOUS"]
    assert cube.data.shape == (2, 4, 3)


def test_construction_freezes_a_contiguous_array_in_place():
    # wrapping takes ownership: no copy of a cube-sized array
    real = np.zeros((2, 3, 4))
    assert HsiCube(real).data is real and not real.flags.writeable
    spec = np.zeros((2, 3, 3), dtype=np.complex128)
    assert FreqCube(spec, 4).data is spec and not spec.flags.writeable
    # an array a cube rejects is not frozen
    spec = np.zeros((2, 3, 3), dtype=np.complex128)
    with pytest.raises(ValidationError):
        FreqCube(spec, 8)
    assert spec.flags.writeable


def test_filled_and_properties():
    cube = HsiCube(np.full((3, 5, 7), -2.0))
    assert (cube.bands, cube.height, cube.width) == (3, 5, 7)
    assert cube.height * cube.width == cube.as_matrix().shape[1] == 35
    assert np.all(cube.data == -2.0)
    with pytest.raises(ValidationError):
        HsiCube(np.zeros((0, 5, 7)))
    with pytest.raises(ValidationError):
        HsiCube(np.full((3, 5, 7), np.inf))


def test_matrix_layout_is_band_major_row_major_pixels():
    data = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
    cube = HsiCube(data)
    mat = cube.as_matrix()
    assert mat.shape == (2, 12)
    # pixel p = row*width + col
    assert mat[1, 1 * 4 + 2] == data[1, 1, 2]
    back = HsiCube(mat.reshape(2, 3, 4))
    assert np.array_equal(back.data, data)


@given(
    bands=st.integers(1, 5),
    height=st.integers(1, 5),
    width=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_matrix_roundtrip_property(bands, height, width, seed):
    data = np.random.default_rng(seed).standard_normal((bands, height, width))
    cube = HsiCube(data)
    again = HsiCube(cube.as_matrix().reshape(bands, height, width))
    assert np.array_equal(again.data, cube.data)
    assert np.array_equal(cube.as_matrix().ravel(), cube.data.ravel())


def test_norm_matches_numpy(rng):
    cube = HsiCube(rng.standard_normal((3, 6, 5)))
    assert cube.norm() == pytest.approx(np.linalg.norm(cube.data), rel=0, abs=0)


def test_dft_roundtrip_and_dc(rng):
    for width in (6, 7):
        cube = HsiCube(rng.standard_normal((4, 8, width)))
        fc = dft2_per_band(cube)
        # the half spectrum: columns 0..width//2
        assert fc.data.shape == (4, 8, width // 2 + 1)
        assert fc.width == width
        # unnormalized forward: DC bin equals the band sum
        per_band_sums = cube.data.sum(axis=(1, 2))
        assert np.allclose(fc.data[:, 0, 0], per_band_sums, rtol=0, atol=1e-9)
        back = idft2_per_band(fc)
        assert np.allclose(back.data, cube.data, rtol=0, atol=1e-12)


def test_parseval(rng):
    # every stored column but 0 and (for even widths) width/2 has a mirror,
    # so it counts twice; self_mirrored slices those columns out of the
    # stored ones as a basic slice, a view, for 1-row and 2-column grids too
    cases = (
        ((8, 8), [1, 2, 2, 2, 1]),
        ((8, 7), [1, 2, 2, 2]),
        ((1, 6), [1, 2, 2, 1]),
        ((1, 2), [1, 1]),
        ((128, 128), None),
    )
    for (height, width), weights in cases:
        cube = HsiCube(rng.standard_normal((2, height, width)))
        rhs = height * width * float(np.sum(cube.data**2))
        spec = rdft2(cube.data)
        own = spec[..., self_mirrored(width)]
        if weights is not None:
            lhs = float(np.sum(np.abs(spec) ** 2 * np.array(weights, dtype=float)))
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert np.shares_memory(own, spec)
            assert own.shape[-1] == weights.count(1)
        got = 2 * float(np.sum(np.abs(spec) ** 2)) - float(np.sum(np.abs(own) ** 2))
        assert got == pytest.approx(rhs, rel=1e-12)


def test_self_mirrored_columns_weight_a_table_as_the_full_spectrum(rng):
    # a mirror-symmetric table (the power of a real image) weights the full
    # spectrum as twice its stored columns less the self-mirrored ones
    for height, width in ((8, 8), (8, 7), (1, 6), (128, 128)):
        cube = rng.standard_normal((3, height, width))
        table = np.abs(np.fft.fft2(rng.standard_normal((height, width)))) ** 2
        want = float(np.sum(table * np.abs(np.fft.fft2(cube)) ** 2))
        half = table[:, : width // 2 + 1]
        power = half * np.abs(rdft2(cube)) ** 2
        got = 2 * float(np.sum(power)) - float(np.sum(power[..., self_mirrored(width)]))
        assert got == pytest.approx(want, rel=1e-12)


def test_idft_rejects_asymmetric_spectrum():
    # columns 0 and width/2 are their own mirrors: a lone nonzero bin off row 0
    # there cannot come from a real image
    for col in (0, 2):
        spec = np.zeros((1, 4, 3), dtype=np.complex128)
        spec[0, 1, col] = 1.0
        with pytest.raises(SymmetryViolationError):
            idft2_per_band(FreqCube(spec, 4))


def test_idft_tolerance_is_relative_to_peak(rng):
    # one stray bin of 1 in a self-mirrored column leaves an imaginary
    # residue of up to 1/16: roundoff beside a 1e6 peak, a symmetry violation
    # beside a 1e3 one
    def spectrum(peak, col):
        data = rng.standard_normal((1, 4, 4))
        data[0, 0, 0] = peak
        spec = np.fft.rfft2(data, axes=(-2, -1))
        spec[0, 1, col] += 1.0
        return data, spec

    for col in (0, 2):
        data, spec = spectrum(1e6, col)
        out = idft2_per_band(FreqCube(spec, 4))
        assert np.abs(out.data - data).max() <= 1.0 / 16 + 1e-9
        with pytest.raises(SymmetryViolationError):
            idft2_per_band(FreqCube(spectrum(1e3, col)[1], 4))


def test_non_finite_spectrum_gives_a_cube_that_fails(rng):
    # irdft2 does not scan its input: a non-finite coefficient makes the real
    # result non-finite, and wrapping that result in a cube fails
    spec = np.fft.rfft2(rng.standard_normal((2, 4, 6)), axes=(-2, -1))
    for col in (0, 1, 3):
        for value in (np.nan, np.inf):
            bad = spec.copy()
            bad[1, 2, col] = value
            with np.errstate(invalid="ignore"), pytest.raises(
                (ValidationError, SymmetryViolationError)
            ):
                HsiCube(irdft2(bad, 6))


@pytest.mark.parametrize(
    "data",
    [
        np.full((1, 2, 2), 1 + 2j),  # only warned that its imaginary part was dropped
        np.array([[["1"]]]),  # parsed as the number 1.0
        np.zeros((1, 2, 2), dtype="datetime64[s]"),  # became 0.0
        np.zeros((1, 2, 2), dtype=object),
    ],
    ids=["complex", "text", "datetime", "object"],
)
def test_data_that_does_not_cast_under_same_kind_is_refused(data):
    with pytest.raises(ValidationError, match="does not cast"):
        HsiCube(data)
    if data.dtype.kind != "c":
        with pytest.raises(ValidationError, match="does not cast"):
            FreqCube(data, data.shape[2])


def test_bool_integer_and_float32_data_are_cast():
    for dtype in (bool, np.int8, np.int64, np.uint16, np.float32, np.float64):
        data = np.ones((1, 2, 2), dtype=dtype)
        cube = HsiCube(data)
        assert cube.data.dtype == np.float64 and np.array_equal(cube.data, data)
        spec = FreqCube(data, 2)
        assert spec.data.dtype == np.complex128 and np.array_equal(spec.data, data)
    assert HsiCube([[[1, 2.5]]]).data.dtype == np.float64


def test_freqcube_validates():
    with pytest.raises(ValidationError):
        FreqCube(np.zeros((3, 3), dtype=np.complex128), 4)
    bad = np.zeros((1, 2, 2), dtype=np.complex128)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        FreqCube(bad, 2)
    # two stored columns hold a width of 2 or 3, not 4
    for width in (2, 3):
        assert FreqCube(np.zeros((1, 2, 2)), width).width == width
    with pytest.raises(ValidationError):
        FreqCube(np.zeros((1, 2, 2)), 4)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize(
    "shape", [(3, 13, 11), (2, 7, 8), (4, 32, 17), (5, 64, 64), (31, 128, 128), (1, 5, 5)]
)
def test_circular_convolve_gives_the_bits_of_rfftn_and_irfftn(monkeypatch, threads, shape):
    # each plane's row and column transforms in one buffer are the calls
    # numpy's rfftn and irfftn make, so the bits must be theirs, into a new
    # array or over the input
    monkeypatch.setenv("HSFUSE_THREADS", threads)
    height, width = shape[1:]
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape)
    multiplier = BlurOperator.custom(height, width, rng.uniform(0.1, 1.0, (3, 2))).multiplier
    half = multiplier[:, : width // 2 + 1]
    want = np.fft.irfftn(np.fft.rfftn(x, axes=(-2, -1)) * half, s=(height, width), axes=(-2, -1))
    assert circular_convolve(x, multiplier).tobytes() == want.tobytes()
    assert circular_convolve(x, multiplier, x) is x
    assert x.tobytes() == want.tobytes()
