"""Self-tests of the benchmark harness: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(i, name, parent, t0, t1, **counters):
    return {"id": i, "name": name, "parent": parent, "t0": t0, "t1": t1, **counters}


def test_self_time_subtracts_children_only_once():
    s = [
        _span(0, "a", None, 0.0, 10.0),
        _span(1, "b", 0, 1.0, 4.0),
        _span(2, "c", 1, 2.0, 3.0),
        _span(3, "d", 0, 5.0, 9.0),
        _span(4, "e", 3, 6.0, 7.0),
        # overlaps e: the union of the children's intervals is what is covered
        _span(5, "e", 3, 6.5, 8.0),
    ]
    got = spans.self_times(s)
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 1.5})


def test_summary_counts_recursion_once_and_sums_counters():
    s = [
        _span(0, "f", None, 0.0, 4.0, mb=1.0),
        _span(1, "f", 0, 1.0, 2.0, mb=2.0),
        _span(2, "g", None, 5.0, 6.0),
    ]
    summary = spans.summarize(s)
    assert summary["f"]["s"] == pytest.approx(4.0)
    assert summary["f"]["self_s"] == pytest.approx(4.0)
    assert summary["f"]["calls"] == 2
    assert summary["f"]["mb"] == pytest.approx(3.0)
    assert summary["g"]["s"] == pytest.approx(1.0)


def test_fft_planes_count_whole_cube_transforms_per_iteration():
    s = [
        _span(0, "hqs.fuse", None, 0.0, 10.0, iterations=2, elems=100),
        _span(1, "fft", 0, 1.0, 2.0, elems=100),
        _span(2, "sylvester.solve_fast", 0, 2.0, 5.0),
        _span(3, "fft", 2, 3.0, 4.0, elems=100),
        _span(4, "fft", 0, 6.0, 7.0, elems=50),
        # outside fuse: not part of the per-iteration count
        _span(5, "fft", None, 11.0, 12.0, elems=100),
    ]
    assert spans.fft_planes_per_iter(s) == pytest.approx(1.25)
    layer = spans.layer_metrics(s)
    assert layer["fft.calls"] == 4
    assert layer["hqs.iterations"] == 2
    assert layer["hqs.fuse.self_s"] == pytest.approx(10.0 - 1.0 - 3.0 - 1.0)
    assert layer["sylvester.solve_fast.self_s"] == pytest.approx(2.0)


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(100)]
    assert run.tail(values) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _desk_problem():
    import hsfuse

    size, factor = 16, 2
    model = hsfuse.DegradationModel(
        hsfuse.BlurOperator.uniform_block(size, size, factor),
        hsfuse.Downsampler(factor),
        hsfuse.SpectralResponse.default_rgb(31),
    )
    gt = hsfuse.generate_scene(hsfuse.SceneSpec(31, size, size, seed=3))
    y, z = model.degrade(gt)
    return model, y, z


def _fuse(model, y, z):
    import hsfuse

    prior = hsfuse.make_prior(hsfuse.PriorSource.naive_fusion(), y, z, model)
    return hsfuse.fuse(y, z, model, prior, hsfuse.HqsConfig(max_iter=3))


def test_wrappers_restore_originals_and_leave_outputs_unchanged():
    import importlib

    model, y, z = _desk_problem()
    plain = _fuse(model, y, z)

    def lookup(target):
        owner, attr = spans._resolve(importlib.import_module(target[0]), target[1])
        return getattr(owner, attr)

    # every target exists on the program as it is
    originals = {t: lookup(t) for t in spans.ALL_TARGETS}
    recorder = spans.Recorder()
    with spans.installed(recorder):
        for t, original in originals.items():
            assert lookup(t) is not original, t
        traced = _fuse(model, y, z)
    for t, original in originals.items():
        assert lookup(t) is original, t

    assert traced.x_hat.data.tobytes() == plain.x_hat.data.tobytes()
    assert traced.objective_trace == plain.objective_trace
    names = {s["name"] for s in recorder.spans}
    assert {"hqs.fuse", "priors.make_prior", "fft"} <= names
    layer = spans.layer_metrics(recorder.spans)
    assert layer["hqs.iterations"] == traced.iterations
    assert layer["fft.planes_per_iter"] > 0


def test_a_missing_target_fails_the_traced_run(monkeypatch):
    import hsfuse.hqs

    fuse = hsfuse.hqs.fuse
    monkeypatch.setattr(spans, "ALL_TARGETS", (
        ("hsfuse.hqs", "fuse", "hqs.fuse", None, None),
        ("hsfuse.hqs", "no_such_function", "hqs.gone", None, None),
    ))
    with pytest.raises(LookupError, match="hsfuse.hqs:no_such_function"):
        with spans.installed(spans.Recorder()):
            pass
    assert hsfuse.hqs.fuse is fuse


def test_metric_and_workload_names_match_the_declaration():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    for name in e2e + per_layer + workloads:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + per_layer)) == len(e2e) + len(per_layer)
    assert tuple(workloads) == run.WORKLOADS

    assert set(run.end_to_end({})) == set(e2e)
    assert set(run.traced_layers([], {})) == set(per_layer)
