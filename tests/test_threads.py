"""The package's thread pool: ``cube.pool_map``, its chunks of rows, and
byte-identical outputs at every pool size and chunk size.

The pool reads ``HSFUSE_THREADS`` at each map, and ``cube.chunks`` reads
``cube._CHUNK_BYTES`` at each call, so one process can run the same work at
several sizes. No cut reads the pool size.
"""

import sys
import threading
import weakref

import numpy as np
import pytest

import hsfuse.cube
from helpers import desk_problem
from hsfuse.cube import blocks, chunks, irdft2, pool_map, pool_size, rdft2
from hsfuse.degradation import BlurOperator, DegradationModel, Downsampler, SpectralResponse
from hsfuse.errors import ValidationError
from hsfuse.hqs import HqsConfig, _Spectra, fuse
from hsfuse.metrics import evaluate
from hsfuse.priors import PriorSource, make_prior
from hsfuse.scenes import SceneSpec, generate_scene
from hsfuse.sylvester import solve_spectrum


def test_default_size_is_one(monkeypatch):
    monkeypatch.delenv("HSFUSE_THREADS", raising=False)
    assert pool_size() == 1
    monkeypatch.setenv("HSFUSE_THREADS", "3")
    assert pool_size() == 3
    for bad in ("0", "many", "2.0"):
        monkeypatch.setenv("HSFUSE_THREADS", bad)
        with pytest.raises(ValidationError, match="HSFUSE_THREADS"):
            pool_size()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_map_keeps_item_order(monkeypatch, threads):
    monkeypatch.setenv("HSFUSE_THREADS", str(threads))
    assert pool_map(lambda i: i * i, range(40)) == [i * i for i in range(40)]
    assert pool_map(lambda i: i, []) == []


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_map_runs_its_items_on_the_caller_and_size_minus_one_workers(monkeypatch, threads):
    # every item waits until all of them have started, which only happens if
    # the calling thread and the pool's workers run one item each
    monkeypatch.setenv("HSFUSE_THREADS", str(threads))
    barrier = threading.Barrier(threads, timeout=10)
    idents = pool_map(lambda i: (barrier.wait(), threading.get_ident())[1], range(threads))
    assert len(set(idents)) == threads
    assert threading.get_ident() in idents


def test_map_raises_an_item_error_after_every_thread_stops(monkeypatch):
    monkeypatch.setenv("HSFUSE_THREADS", "2")
    done = []

    def item(i):
        if i == 3:
            raise ArithmeticError("item 3")
        done.append(i)

    with pytest.raises(ArithmeticError, match="item 3"):
        pool_map(item, range(8))
    assert 3 not in done


@pytest.mark.parametrize("threads", [2, 3])
def test_map_keeps_nothing_of_its_function_alive_once_it_returns(monkeypatch, threads):
    # what fn captured must be freeable once the map returns (fuse relies on
    # it to free a prior handed over to it)
    monkeypatch.setenv("HSFUSE_THREADS", str(threads))
    alive = 0
    for _ in range(50):
        data = np.ones(8)
        ref = weakref.ref(data)
        pool_map(lambda i, held=data: float(held[i]), range(threads))
        del data
        alive += ref() is not None
    assert alive == 0


def test_map_inside_a_map_does_not_wait_on_its_own_pool(monkeypatch):
    monkeypatch.setenv("HSFUSE_THREADS", "2")
    got = pool_map(lambda i: sum(pool_map(lambda j: i * j, range(5))), range(6))
    assert got == [10 * i for i in range(6)]


def test_no_thread_outlives_a_map(monkeypatch):
    # each map joins the threads it starts, also when an item raises, so
    # none is left running between maps or after a pool size change
    before = threading.active_count()
    for threads in ("2", "3"):
        monkeypatch.setenv("HSFUSE_THREADS", threads)
        assert pool_map(lambda i: i, range(8)) == list(range(8))
        assert pool_map(lambda i: sum(pool_map(lambda j: i * j, range(5))), range(6))[1] == 10
        with pytest.raises(ZeroDivisionError):
            pool_map(lambda i: 1 / (i - 2), range(8))
    assert threading.active_count() == before


def test_outputs_are_byte_identical_at_every_pool_size(monkeypatch):
    # 128x65 stored columns span three column blocks (five in the band mixes'
    # real view), and 7 bands split unevenly over 2 or 3 threads
    gt = generate_scene(SceneSpec(bands=7, height=128, width=128, endmembers=3, seed=5))
    model = DegradationModel(
        BlurOperator.gaussian(128, 128, 1.2), Downsampler(4), SpectralResponse.default_rgb(7)
    )
    runs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("HSFUSE_THREADS", threads)
        y, z = model.degrade(gt)
        prior = make_prior(PriorSource.naive_fusion(), y, z, model)
        result = fuse(y, z, model, prior, HqsConfig(max_iter=4, rel_tol=1e-300))
        report = evaluate(result.x_hat, gt, 4)
        runs.append(
            (
                y.data.tobytes(),
                z.data.tobytes(),
                prior.data.tobytes(),
                result.x_hat.data.tobytes(),
                result.objective_trace,
                result.rel_changes,
                report.to_dict(),
            )
        )
    assert runs[0] == runs[1] == runs[2]


def test_map_under_contention_runs_each_item_once(monkeypatch):
    # more threads than cores and a short switch interval: a claim taken twice
    # or lost would run an item twice or leave its result at None
    monkeypatch.setenv("HSFUSE_THREADS", "6")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [0] * 3000

        def item(i):
            runs[i] += 1
            return i

        assert pool_map(item, range(3000)) == list(range(3000))
        assert runs == [1] * 3000
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_stacks_fit_the_cap_and_feed_every_thread(monkeypatch, threads):
    monkeypatch.setenv("HSFUSE_THREADS", str(threads))
    cap = hsfuse.cube._CHUNK_BYTES
    cases = ((31, 64 * 33 * 16), (31, 512 * 257 * 16), (5, 100), (2, 100), (1, 1), (32, 8192))
    for rows, row_bytes in cases:
        # one numpy call's chunks fill the cap whatever the pool size
        got = [range(rows)[s] for s in chunks(rows, row_bytes)]
        assert [i for chunk in got for i in chunk] == list(range(rows))
        assert all(len(chunk) * row_bytes <= cap or len(chunk) == 1 for chunk in got)
        assert len(got[0]) == min(rows, max(1, cap // row_bytes))
    # a desk plane chunk holds several planes; a full-scale plane goes alone
    assert len(chunks(31, 64 * 33 * 16)) < 31
    assert len(chunks(31, 512 * 257 * 16)) == 31
    # a 4,096-column float64 row takes 8 rows per chunk
    assert [len(range(31)[s]) for s in chunks(31, 8 * 4096)] == [8, 8, 8, 7]


def test_cuts_do_not_depend_on_the_pool_size(monkeypatch):
    # the pool size decides how many threads run a map, never how a pass is
    # cut; at 3 and 8 threads a cut that read it split desk planes otherwise
    def cuts():
        return (
            [chunks(rows, row_bytes) for rows, row_bytes in ((31, 64 * 33 * 16), (3, 64 * 33 * 16),
                                                             (31, 512 * 257 * 16), (5, 100))],
            [blocks(count) for count in (4096, 64 * 33, 128 * 65 * 2)],
        )

    runs = []
    for threads in ("1", "2", "3", "8"):
        monkeypatch.setenv("HSFUSE_THREADS", threads)
        runs.append(cuts())
    assert runs[1:] == runs[:1] * 3


def test_desk_fuse_bytes_do_not_depend_on_the_pool_size(monkeypatch):
    model, y, z, prior = desk_problem(1)
    runs = []
    for threads in ("1", "3", "8"):
        monkeypatch.setenv("HSFUSE_THREADS", threads)
        result = fuse(y, z, model, prior, HqsConfig(max_iter=8, rel_tol=1e-300))
        runs.append((result.x_hat.data.tobytes(), result.objective_trace))
    assert runs[1:] == runs[:1] * 2


def test_fuse_bytes_with_a_tail_block_do_not_depend_on_the_chunks_or_the_pool(monkeypatch):
    # a 96x96 grid's half spectrum is a full block of 4,096 columns and a tail
    # of 608, whose bands the v-step and the score cut by its own complex row;
    # the prior's 9,216 pixels end in a tail block of 1,024
    gt = generate_scene(SceneSpec(bands=31, height=96, width=96, seed=0))
    model = DegradationModel(
        BlurOperator.uniform_block(96, 96, 4), Downsampler(4), SpectralResponse.default_rgb(31)
    )
    y, z = model.degrade(gt)
    assert [len(range(96 * 49)[s]) for s in blocks(96 * 49)] == [4096, 608]
    runs = []
    for cap in (hsfuse.cube._CHUNK_BYTES, 1):
        monkeypatch.setattr(hsfuse.cube, "_CHUNK_BYTES", cap)
        for threads in ("1", "3"):
            monkeypatch.setenv("HSFUSE_THREADS", threads)
            prior = make_prior(PriorSource.naive_fusion(), y, z, model)
            result = fuse(y, z, model, prior, HqsConfig(max_iter=6, rel_tol=1e-300))
            runs.append(
                (prior.data.tobytes(), result.x_hat.data.tobytes(), result.objective_trace)
            )
    assert runs[1:] == runs[:1] * 3


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("shape", [(31, 64, 64), (5, 45, 63), (7, 30, 35), (3, 16, 16)])
def test_stacked_transforms_equal_numpy_on_the_whole_array(monkeypatch, rng, threads, shape):
    monkeypatch.setenv("HSFUSE_THREADS", str(threads))
    x = rng.standard_normal(shape)
    spec = rdft2(x)
    assert spec.tobytes() == np.fft.rfftn(x, axes=(-2, -1)).tobytes()
    whole = np.fft.irfftn(spec, s=shape[1:], axes=(-2, -1))
    assert irdft2(spec, shape[2]).tobytes() == whole.tobytes()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_one_plane_stacks_give_the_same_bytes(monkeypatch, threads):
    monkeypatch.setenv("HSFUSE_THREADS", str(threads))
    model, y, z, prior = desk_problem(0)
    cfg = HqsConfig()

    def run():
        fixed = _Spectra.prepare(y, z, model, prior, cfg)
        v_hat = fixed.p_hat.copy()
        misfit = solve_spectrum(fixed.xstep, v_hat)
        return fixed.p_hat.tobytes(), v_hat.tobytes(), misfit, irdft2(v_hat, 64).tobytes()

    def fused():
        result = fuse(y, z, model, prior, cfg)
        return (
            result.x_hat.data.tobytes(),
            result.objective_trace,
            result.rel_changes,
            result.iterations,
        )

    stacked, whole = run(), fused()
    monkeypatch.setattr(hsfuse.cube, "_CHUNK_BYTES", 1)
    assert len(chunks(31, 64 * 33 * 16)) == 31
    # the v-step, the score and the Sherman-Morrison update go one band or
    # one member row at a time
    assert len(chunks(31, 8 * 4096)) == 31
    assert len(chunks(4, 64 * 33 * 16)) == 4
    assert run() == stacked
    assert fused() == whole


def test_fuse_makes_fewer_fft_calls_than_it_transforms_planes(monkeypatch):
    # one numpy call per chunk of planes: a return to one call per plane fails
    monkeypatch.setenv("HSFUSE_THREADS", "1")
    model, y, z, prior = desk_problem(0)
    calls, planes = [], []

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            calls.append(fn.__name__)
            planes.append(np.asarray(a)[..., 0, 0].size)
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    fuse(y, z, model, prior)
    # the prior's and z's half spectra, and x back to pixels
    assert sum(planes) == 31 + 3 + 31
    assert len(calls) < sum(planes)
