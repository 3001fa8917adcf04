import json
import tracemalloc

import numpy as np
import pytest

from helpers import rand_cube, ssim_direct
from hsfuse.cube import HsiCube
from hsfuse.degradation import BlurOperator
from hsfuse.errors import ValidationError
from hsfuse.io import save_cube
from hsfuse.metrics import CSV_HEADER, evaluate


def test_identical_cubes_report_is_exact(rng):
    # 16x16 leaves fewer 'valid' rows than one GEMM stack of the SSIM window
    # sums; 90x77 takes two full stacks and a tail in each pass
    for shape in ((4, 16, 16), (2, 90, 77)):
        cube = rand_cube(rng, *shape, lo=0.1, hi=1.0)
        rep = evaluate(cube, HsiCube(cube.data.copy()), factor=2)
        assert rep.rmse == 0.0
        assert rep.psnr == 99.0
        assert rep.sam == 0.0
        assert rep.ergas == 0.0
        assert rep.ssim == 1.0


def test_rmse_formula(rng):
    a = rand_cube(rng, 3, 12, 12, lo=0.1, hi=1.0)
    b = rand_cube(rng, 3, 12, 12, lo=0.1, hi=1.0)
    rep = evaluate(a, b, factor=1)
    want = 255.0 * np.sqrt(np.mean((a.data - b.data) ** 2))
    assert rep.rmse == pytest.approx(want, rel=1e-14)


def test_evaluate_peak_memory_stays_below_one_cube(rng, monkeypatch):
    # each pool item scores one band in strip buffers of its own, and SAM runs over
    # blocks of pixels; with two threads two bands' buffers are held at once,
    # never a cube-sized difference or product
    a = rand_cube(rng, 31, 64, 64, lo=0.1, hi=1.0)
    b = rand_cube(rng, 31, 64, 64, lo=0.1, hi=1.0)
    for threads in ("1", "2"):
        monkeypatch.setenv("HSFUSE_THREADS", threads)
        evaluate(a, b, factor=4)  # the pool's threads exist before tracing
        tracemalloc.start()
        try:
            evaluate(a, b, factor=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.data.nbytes, threads


def test_evaluate_of_two_files_holds_one_band_pair(rng, tmp_path, monkeypatch):
    # band k of each file is read into its one plane, then the pair is scored:
    # two band planes, three SAM planes and the strips' buffers. Traced at
    # 31x128x128, in band planes: 9.45 (pool 1) and 11.81 (pool 2) while the
    # next pair was read as one was scored, 7.45 and 9.80 one pair at a time
    for name in ("x", "gt"):
        save_cube(tmp_path / f"{name}.cube", rand_cube(rng, 31, 128, 128, lo=0.1, hi=1.0))
    files = (tmp_path / "x.cube", tmp_path / "gt.cube")
    for threads, planes in (("1", 8.5), ("2", 10.8)):
        monkeypatch.setenv("HSFUSE_THREADS", threads)
        evaluate(*files, factor=4)  # the pool's threads exist before tracing
        tracemalloc.start()
        try:
            evaluate(*files, factor=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < planes * 128 * 128 * 8, threads


def test_psnr_per_band_mean_and_cap(rng):
    ref = rand_cube(rng, 2, 16, 16, lo=0.0, hi=1.0)
    noisy = ref.data.copy()
    noisy[0] += 0.1  # band 0 mse = 0.01 -> 20 dB; band 1 identical -> capped 99
    rep = evaluate(HsiCube(noisy), ref, factor=1)
    assert rep.psnr == pytest.approx((20.0 + 99.0) / 2.0, abs=1e-9)


def test_sam_orthogonal_spectra_is_90_degrees():
    a = np.zeros((2, 12, 12))
    b = np.zeros((2, 12, 12))
    a[0] = 1.0
    b[1] = 1.0
    with pytest.warns(UserWarning, match="ERGAS"):  # reference band 0 is all zero
        rep = evaluate(HsiCube(a), HsiCube(b), factor=1)
    assert rep.sam == pytest.approx(90.0, abs=1e-10)


def test_sam_scale_invariance(rng):
    a = rand_cube(rng, 5, 12, 12, lo=0.1, hi=1.0)
    b = rand_cube(rng, 5, 12, 12, lo=0.1, hi=1.0)
    base = evaluate(a, b, factor=1).sam
    # power-of-two scaling is exact in floating point, so bitwise equal
    assert evaluate(HsiCube(2.0 * a.data), b, factor=1).sam == base
    assert evaluate(a, HsiCube(0.25 * b.data), factor=1).sam == base
    assert evaluate(HsiCube(1.7 * a.data), b, factor=1).sam == pytest.approx(base, abs=1e-12)


def test_sam_skips_zero_spectra(rng, tmp_path):
    a = rand_cube(rng, 3, 12, 12, lo=0.1, hi=1.0).data.copy()
    b = rand_cube(rng, 3, 12, 12, lo=0.1, hi=1.0).data.copy()
    a[:, 0, 0] = 0.0  # this pixel must not contribute
    b_moved = b.copy()
    b_moved[:, 0, 0] = 123.0
    zeros = np.zeros((3, 12, 12))
    for name, data in (("a", a), ("b", b), ("b_moved", b_moved), ("zeros", zeros)):
        save_cube(tmp_path / name, HsiCube(data.copy()))
    # cubes and the files they were saved to
    for given in (lambda data, name: HsiCube(data.copy()), lambda data, name: tmp_path / name):
        full = evaluate(given(a, "a"), given(b, "b"), factor=1).sam
        assert evaluate(given(a, "a"), given(b_moved, "b_moved"), factor=1).sam == full
        with pytest.warns(UserWarning, match="ERGAS"):
            zero = evaluate(given(zeros, "zeros"), given(zeros, "zeros"), factor=1)
        assert zero.sam == 0.0


def test_files_score_as_their_cubes(rng, tmp_path):
    # one loop reads a cube's bands as views and a file's into reused planes;
    # 5 bands and 40x23 pixels leave a short last strip of SSIM rows
    a = rand_cube(rng, 5, 40, 23, lo=0.1, hi=1.0)
    b = rand_cube(rng, 5, 40, 23, lo=0.1, hi=1.0)
    save_cube(tmp_path / "a.cube", a)
    save_cube(tmp_path / "b.cube", b)
    want = evaluate(a, b, factor=2).to_json()
    for x_hat, x_ref in ((tmp_path / "a.cube", str(tmp_path / "b.cube")), (a, tmp_path / "b.cube")):
        assert evaluate(x_hat, x_ref, factor=2).to_json() == want


def test_ergas_formula_and_factor_scaling(rng):
    a = rand_cube(rng, 4, 12, 12, lo=0.2, hi=1.0)
    b = rand_cube(rng, 4, 12, 12, lo=0.2, hi=1.0)
    mse = np.mean((a.data - b.data) ** 2, axis=(1, 2))
    means = np.mean(b.data, axis=(1, 2))
    want = (100.0 / 4.0) * np.sqrt(np.mean(mse / means**2))
    rep = evaluate(a, b, factor=4)
    assert rep.ergas == pytest.approx(want, rel=1e-12)
    rep1 = evaluate(a, b, factor=1)
    assert rep1.ergas == pytest.approx(4.0 * rep.ergas, rel=1e-12)


def test_ergas_excludes_near_zero_reference_bands(rng):
    a = rand_cube(rng, 3, 12, 12, lo=0.2, hi=1.0).data.copy()
    b = rand_cube(rng, 3, 12, 12, lo=0.2, hi=1.0).data.copy()
    b[2] = 0.0  # reference band mean below threshold
    a2 = HsiCube(a)
    with pytest.warns(UserWarning, match="ERGAS") as record:
        got = evaluate(a2, HsiCube(b), factor=2).ergas
    # the warning points at the caller's line, not into the package
    assert [w.filename for w in record] == [__file__]
    mse = np.mean((a[:2] - b[:2]) ** 2, axis=(1, 2))
    means = np.mean(b[:2], axis=(1, 2))
    want = 50.0 * np.sqrt(np.mean(mse / means**2))
    assert got == pytest.approx(want, rel=1e-12)


def test_ssim_on_constant_shift_matches_closed_form():
    mu = 0.5
    delta = 0.2
    a = HsiCube(np.full((1, 16, 16), mu))
    b = HsiCube(np.full((1, 16, 16), mu + delta))
    c1, c2 = 0.01**2, 0.03**2
    # zero variance: luminance term only
    want = (2.0 * mu * (mu + delta) + c1) / (mu**2 + (mu + delta) ** 2 + c1)
    got = evaluate(a, b, factor=1).ssim
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("shape", [(3, 16, 16), (2, 23, 37), (1, 11, 11), (2, 40, 12)])
def test_ssim_matches_direct_window_sums(rng, shape):
    # the direct oracle slides the window over the image; a crop of the
    # blurred stack one pixel off the 'valid' region misses it by far more
    ref = rng.uniform(0.0, 1.0, shape)
    noisy = ref + rng.normal(0.0, 0.1, shape)
    got = evaluate(HsiCube(noisy), HsiCube(ref), factor=1).ssim
    assert got == pytest.approx(ssim_direct(noisy, ref), rel=1e-10)


# Each pass of the window sums makes one GEMM per stack of 32 'valid' rows and
# one for the rows left over; these shapes leave 1, 32, 33 and 2*32 + k valid
# rows or columns, so full stacks, tails and lone tails all occur.
@pytest.mark.parametrize(
    "shape",
    [(1, 11, 42), (1, 42, 43), (1, 43, 79), (2, 75, 70), (1, 11, 64), (1, 64, 11), (1, 43, 43)],
)
def test_ssim_matches_direct_sums_where_row_stacks_split_unevenly(rng, shape):
    ref = rng.uniform(0.0, 1.0, shape)
    noisy = ref + rng.normal(0.0, 0.1, shape)
    got = evaluate(HsiCube(noisy), HsiCube(ref), factor=1).ssim
    assert got == pytest.approx(ssim_direct(noisy, ref), rel=1e-10)


def test_full_scale_band_ssim_matches_circular_blur_of_the_window_inputs(rng):
    # the other way to the same 'valid' sums: blur a, b, a*a, b*b and a*b
    # circularly by the center-anchored window and keep the pixels whose
    # window never wraps (ssim_direct would take seconds at this size)
    ref = rng.uniform(0.0, 1.0, (512, 512))
    noisy = ref + rng.normal(0.0, 0.1, ref.shape)
    window = BlurOperator.gaussian(512, 512, 1.5, 11)
    stack = np.stack((noisy, ref, noisy * noisy, ref * ref, noisy * ref))
    mu_a, mu_b, sq_a, sq_b, ab = window.apply_array(stack)[:, 5:-5, 5:-5]
    c1, c2 = 0.01**2, 0.03**2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * (ab - mu_a * mu_b) + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (sq_a - mu_a**2 + sq_b - mu_b**2 + c2)
    got = evaluate(HsiCube(noisy[None]), HsiCube(ref[None]), factor=1).ssim
    assert got == pytest.approx(float(np.mean(num / den)), rel=1e-12)


def test_ssim_penalizes_noise(rng):
    ref = rand_cube(rng, 1, 24, 24, lo=0.0, hi=1.0)
    noisy = HsiCube(ref.data + rng.normal(0.0, 0.1, ref.data.shape))
    rep = evaluate(noisy, ref, factor=1)
    assert rep.ssim < 0.95


def test_rmse_noise_calibration(rng):
    sigma = 0.02
    ref = rand_cube(rng, 8, 64, 64, lo=0.0, hi=1.0)
    noisy = HsiCube(ref.data + rng.normal(0.0, sigma, ref.data.shape))
    rep = evaluate(noisy, ref, factor=1)
    assert rep.rmse == pytest.approx(255.0 * sigma, rel=0.02)


def test_report_serialization(rng):
    rep = evaluate(
        rand_cube(rng, 2, 12, 12, lo=0.1, hi=1.0),
        rand_cube(rng, 2, 12, 12, lo=0.1, hi=1.0),
        factor=2,
    )
    d = rep.to_dict()
    assert list(d) == ["rmse", "psnr", "sam", "ergas", "ssim"]
    assert json.loads(rep.to_json()) == d
    row = rep.csv_row().split(",")
    assert CSV_HEADER == "rmse,psnr,ergas,sam,ssim"
    assert float(row[0]) == pytest.approx(rep.rmse, rel=1e-9)
    assert float(row[2]) == pytest.approx(rep.ergas, rel=1e-9)
    assert float(row[3]) == pytest.approx(rep.sam, rel=1e-9)


def test_validation(rng):
    a = rand_cube(rng, 2, 12, 12)
    with pytest.raises(ValidationError):
        evaluate(a, rand_cube(rng, 2, 12, 11), factor=1)
    with pytest.raises(ValidationError):
        evaluate(a, a, factor=0)
    small = rand_cube(rng, 2, 8, 8)
    with pytest.raises(ValidationError):
        evaluate(small, small, factor=1)
