import hashlib
import tracemalloc

import numpy as np
import pytest

from hsfuse.errors import ValidationError
from hsfuse.scenes import SceneSpec, _standardize, generate_scene, scene_blocks


def test_seed_pins_scene_bitwise():
    spec = SceneSpec(8, 16, 12, endmembers=3, seed=42)
    a = generate_scene(spec)
    b = generate_scene(SceneSpec(8, 16, 12, endmembers=3, seed=42))
    assert np.array_equal(a.data, b.data)
    c = generate_scene(SceneSpec(8, 16, 12, endmembers=3, seed=43))
    assert not np.array_equal(a.data, c.data)


def test_range_and_positivity():
    scene = generate_scene(SceneSpec(6, 20, 20, endmembers=4, seed=1))
    assert scene.data.min() > 0.0
    assert scene.data.max() == 1.0  # scaled by the global peak


def test_rank_bounded_by_endmembers():
    p = 3
    scene = generate_scene(SceneSpec(10, 24, 24, endmembers=p, seed=5))
    sv = np.linalg.svd(scene.as_matrix(), compute_uv=False)
    assert sv[p] <= 1e-10 * sv[0]
    assert sv[p - 1] > 1e-6 * sv[0]


def test_spectra_are_smoother_than_noise():
    scene = generate_scene(SceneSpec(31, 16, 16, endmembers=5, seed=0))
    mat = scene.as_matrix()
    band_diff = np.abs(np.diff(mat, axis=0)).mean()
    spread = mat.std()
    assert band_diff < spread  # consecutive bands are correlated


def test_smoothness_parameter_changes_scene():
    a = generate_scene(SceneSpec(4, 16, 16, seed=3, endmembers=2, smoothness=1.0))
    b = generate_scene(SceneSpec(4, 16, 16, seed=3, endmembers=2, smoothness=6.0))
    assert not np.array_equal(a.data, b.data)


def test_tiny_grid_supported():
    scene = generate_scene(SceneSpec(2, 4, 4, endmembers=1, seed=0))
    assert scene.data.shape == (2, 4, 4)


def test_spec_validation():
    with pytest.raises(ValidationError):
        SceneSpec(0, 8, 8)
    with pytest.raises(ValidationError):
        SceneSpec(4, 3, 8)
    with pytest.raises(ValidationError):
        SceneSpec(4, 8, 8, endmembers=5)
    with pytest.raises(ValidationError):
        SceneSpec(4, 8, 8, endmembers=0)
    with pytest.raises(ValidationError):
        SceneSpec(4, 8, 8, smoothness=0.0)
    with pytest.raises(ValidationError):
        SceneSpec(4, 8, 8, seed=-1)


@pytest.mark.parametrize(
    "spec, digest",
    [
        (SceneSpec(31, 64, 64), "7a5058fe4afb54b62ddd2381a9aed5b58a94befd013fd8c68360a8d1673e5b5f"),
        (SceneSpec(7, 13, 11), "a69acd46aea913f0a6f1c88b297ec7248fc17864e05b60340823fd460ad8b3c2"),
    ],
)
def test_scene_bytes_are_pinned(spec, digest):
    # recorded with numpy 2.4 and its bundled OpenBLAS when the scaled scene
    # was a second cube (data / peak); scaling in place must not move a bit
    assert hashlib.sha256(generate_scene(spec).data.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_blocks_give_the_bits_of_the_whole_product(monkeypatch, threads):
    # 72x72 is a full block of 4,096 pixels and a tail of 1,088; the GEMM cut
    # at the blocks must add each pixel's endmembers as the whole product does
    from hsfuse.scenes import _abundance_maps, _smooth_spectra

    monkeypatch.setenv("HSFUSE_THREADS", threads)
    spec = SceneSpec(31, 72, 72, seed=5)
    rng = np.random.default_rng(spec.seed)
    spectra = _smooth_spectra(rng, spec.bands, spec.endmembers)
    maps = _abundance_maps(rng, spec.endmembers, spec.height, spec.width, spec.smoothness)
    whole = np.tensordot(spectra, maps, axes=(1, 0))
    whole /= whole.max()
    assert np.array_equal(generate_scene(spec).data, whole)


def test_scene_peak_stays_near_one_cube():
    # each block of the product is made and scaled in the cube itself, and the
    # maps are made in place, so the peak is the cube, the endmember maps and
    # the finiteness scan's mask. Traced at 31x128x128 after a warm-up call,
    # pools 1-3: 2.29-2.44 cubes with a second, scaled cube; 1.29-1.44 with
    # the whole product scaled in place; 1.288-1.289 block by block
    generate_scene(SceneSpec(4, 8, 8, endmembers=2))
    tracemalloc.start()
    try:
        scene = generate_scene(SceneSpec(31, 128, 128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * scene.data.nbytes


@pytest.mark.parametrize(
    "shape", [(5, 512, 512), (3, 13, 11), (5, 64, 64), (5, 256, 256), (2, 4, 4), (5, 100, 37)]
)
def test_each_map_standardizes_to_the_bits_of_the_whole_array(shape):
    maps = np.random.default_rng(sum(shape)).standard_normal(shape)
    maps[-1] = 0.25  # a flat map is only centered
    std = maps.std(axis=(1, 2), keepdims=True)
    std[std < 1e-12] = 1.0
    want = (maps - maps.mean(axis=(1, 2), keepdims=True)) / std
    assert _standardize(maps).tobytes() == want.tobytes()


def test_scene_blocks_peak_stays_near_the_maps(monkeypatch):
    # scene_blocks, the path of CLI simulate, holds the maps, one plane
    # buffer per blur item and one block of the peak's product per thread.
    # With 5 endmembers that 1 MB block hides the maps' own temporaries, so
    # this scene draws as many maps as bands. Traced at 31x128x128 with 31
    # endmembers, pool 1, after a warm-up call: 2.069 map sets with the
    # whole-array std and the transforms' own temporaries, 1.253 with each
    # map standardized alone and one buffer per plane
    monkeypatch.setenv("HSFUSE_THREADS", "1")
    scene_blocks(SceneSpec(4, 8, 8, endmembers=2))
    tracemalloc.start()
    try:
        scene_blocks(SceneSpec(31, 128, 128, endmembers=31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.35 * 31 * 128 * 128 * 8
