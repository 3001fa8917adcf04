import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hsfuse.cube

from helpers import NON_FINITE, SCAN_SHAPE, SCAN_SPOTS
from hsfuse.cube import (
    FreqCube,
    HsiCube,
    circular_convolve,
    dft2_per_band,
    half_spectrum,
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


@pytest.mark.parametrize("spot", SCAN_SPOTS)
@pytest.mark.parametrize("value", NON_FINITE)
def test_both_cubes_refuse_a_non_finite_value_in_any_chunk(spot, value):
    real = np.zeros(SCAN_SHAPE)
    real[spot] = value
    with pytest.raises(ValidationError, match="finite"):
        HsiCube(real)
    # the spectrum's value is non-finite in its imaginary part alone
    spec = np.zeros(SCAN_SHAPE, dtype=np.complex128)
    spec[spot] = complex(0, value)
    with pytest.raises(ValidationError, match="finite"):
        FreqCube(spec, 2 * SCAN_SHAPE[2] - 2)


def test_a_strided_array_freezes_to_its_contiguous_bytes(rng):
    data = rng.standard_normal(SCAN_SHAPE[::-1])
    strided = data.transpose(2, 1, 0)
    assert HsiCube(strided).data.tobytes() == np.ascontiguousarray(strided).tobytes()
    bad = data.copy()
    bad[-1, 0, 1] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        HsiCube(bad.transpose(2, 1, 0))


def test_wrapping_scans_a_chunk_of_booleans_at_a_time():
    import tracemalloc

    data = np.zeros((31, 256, 256))
    tracemalloc.start()
    try:
        HsiCube(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one boolean per value of the whole cube would be 2.03 MB
    assert peak < 2 * hsfuse.cube._CHUNK_BYTES


def test_no_item_is_taken_once_one_has_raised(monkeypatch):
    import time

    monkeypatch.setenv("HSFUSE_THREADS", "2")
    failure = ArithmeticError("item 0")
    ran = []

    def item(i):
        if i == 0:
            raise failure
        ran.append(i)
        time.sleep(1e-3)

    with pytest.raises(ArithmeticError) as caught:
        hsfuse.cube.pool_map(item, range(100))
    assert caught.value is failure
    # the other thread finishes the item it holds, and maybe one more it
    # claimed before the error was recorded; without the stop it runs all 99
    assert len(ran) <= 5


def test_scratch_keeps_a_view_per_shape_until_its_buffer_grows():
    scratch = hsfuse.cube.Scratch()
    first = scratch.get("w", (2, 3), np.float64)
    assert scratch.get("w", (2, 3), np.float64) is first
    assert np.shares_memory(scratch.get("w", (3, 2), np.float64), first)
    other = scratch.get("wide", (2,), np.float64)
    grown = scratch.get("w", (4, 4), np.float64)
    assert not np.shares_memory(grown, first)
    again = scratch.get("w", (2, 3), np.float64)
    assert again is not first and np.shares_memory(again, grown)
    # a key that starts with the grown one keeps its view
    assert scratch.get("wide", (2,), np.float64) is other


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


# (bands, height, width): odd and even widths, one-row and one-column grids,
# and the shapes of helpers.VARIANTS
INVERSE_SHAPES = [
    (31, 64, 64),
    (3, 1, 6),
    (2, 7, 1),
    (2, 5, 2),
    (31, 32, 32),
    (31, 32, 48),
    (5, 45, 63),
    (6, 30, 35),
    (6, 35, 30),
    (6, 30, 40),
    (5, 24, 27),
    (5, 24, 30),
]


@pytest.mark.parametrize("shape", INVERSE_SHAPES)
def test_irdft2_writes_the_bytes_of_irfftn_over_its_input(monkeypatch, rng, shape):
    # the column transforms in place, then the row transforms into the real
    # layout at the start of the same buffer, a chunk of rows per call: the
    # bytes of np.fft.irfftn, with no array of the result's size allocated,
    # also when every chunk is one plane or one row
    x = rng.standard_normal(shape)
    spec = np.fft.rfftn(x, axes=(-2, -1))
    want = np.fft.irfftn(spec, s=shape[1:], axes=(-2, -1))
    for cap in (hsfuse.cube._CHUNK_BYTES, 1):
        monkeypatch.setattr(hsfuse.cube, "_CHUNK_BYTES", cap)
        buf = spec.copy()
        got = irdft2(buf, shape[2])
        assert got.shape == shape and got.dtype == np.float64
        assert np.shares_memory(got, buf) and got.__array_interface__["data"][0] == buf.ctypes.data
        assert got.tobytes() == want.tobytes()


def test_irdft2_refuses_a_spectrum_that_is_not_of_a_real_cube():
    # a lone bin off row 0 in a self-mirrored column has no mirror
    for width, col in ((4, 0), (4, 2), (5, 0)):
        spec = np.zeros((1, 4, width // 2 + 1), dtype=np.complex128)
        spec[0, 1, col] = 1.0
        with pytest.raises(SymmetryViolationError):
            irdft2(spec, width)


def test_idft2_per_band_leaves_its_spectrum_as_it_was(rng):
    # irdft2 consumes its input, so the frozen FreqCube's array is copied first
    fc = dft2_per_band(HsiCube(rng.standard_normal((3, 8, 7))))
    before = fc.data.tobytes()
    back = idft2_per_band(fc)
    assert fc.data.tobytes() == before and not np.shares_memory(back.data, fc.data)


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
    # the stored columns alone are all it reads
    assert circular_convolve(x, half_spectrum(multiplier)).tobytes() == want.tobytes()
    # a single 2-D plane, into a new array and over itself
    plane = x[-1].copy()
    assert circular_convolve(plane, multiplier).tobytes() == want[-1].tobytes()
    assert circular_convolve(plane, half, plane) is plane
    assert plane.tobytes() == want[-1].tobytes()
    assert circular_convolve(x, multiplier, x) is x
    assert x.tobytes() == want.tobytes()


def test_circular_convolve_filters_a_stack_through_one_half_spectrum_buffer(monkeypatch):
    # the planes are filtered in turn in one buffer made per call, whatever
    # the pool size. A (5, 256, 256) stack in place, pool 3, in half-spectrum
    # planes (256 x 129 complex): 2.27-3.52 with a new buffer per plane, one
    # plane per pool item; 1.25 with one buffer, the rest numpy's own
    # temporaries of a transform call
    monkeypatch.setenv("HSFUSE_THREADS", "3")
    x = np.random.default_rng(5).standard_normal((5, 256, 256))
    multiplier = BlurOperator.gaussian(256, 256, 4.0, 25).multiplier
    circular_convolve(x[:1], multiplier)
    tracemalloc.start()
    try:
        assert circular_convolve(x, multiplier, x) is x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 256 * 129 * 16
