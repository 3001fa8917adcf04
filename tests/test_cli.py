import functools
import json
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import hsfuse
import hsfuse.io
from helpers import bad_cube_files, rand_cube
from hsfuse.cli import main
from hsfuse.cube import HsiCube, check_shape, pool_size
from hsfuse.errors import CubeFormatError, ValidationError
from hsfuse.io import load_cube, save_cube
from hsfuse.metrics import evaluate


@pytest.fixture
def pipeline(tmp_path):
    """One small end-to-end run shared by the assertions below."""
    paths = {
        "gt": str(tmp_path / "gt.cube"),
        "y": str(tmp_path / "y.cube"),
        "z": str(tmp_path / "z.cube"),
        "xhat": str(tmp_path / "xhat.cube"),
    }
    assert (
        main(
            ["simulate", "--bands", "8", "--size", "32", "--endmembers", "3",
             "--seed", "9", "--out", paths["gt"]]
        )
        == 0
    )
    assert (
        main(
            ["degrade", "--in", paths["gt"], "--blur", "block:4", "--factor", "4",
             "--out-y", paths["y"], "--out-z", paths["z"]]
        )
        == 0
    )
    assert (
        main(
            ["fuse", "--y", paths["y"], "--z", paths["z"], "--iters", "5",
             "--out", paths["xhat"]]
        )
        == 0
    )
    return tmp_path, paths


class TestPipeline:
    def test_outputs_exist_with_expected_shapes(self, pipeline):
        _, paths = pipeline
        assert load_cube(paths["gt"]).data.shape == (8, 32, 32)
        assert load_cube(paths["y"]).data.shape == (8, 8, 8)
        assert load_cube(paths["z"]).data.shape == (3, 32, 32)
        assert load_cube(paths["xhat"]).data.shape == (8, 32, 32)

    def test_manifests_written_next_to_outputs(self, pipeline):
        _, paths = pipeline
        manifest = json.loads(open(paths["xhat"] + ".manifest.json").read())
        assert manifest["command"] == "fuse"
        assert manifest["error"] is None
        assert manifest["config"]["mu"] == 0.05
        assert manifest["config"]["blur"] == "block:4"  # inferred from the grids
        assert manifest["config"]["factor"] == 4
        assert manifest["iterations"] == len(manifest["objective_trace"]) >= 1
        trace = manifest["objective_trace"]
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        changes = manifest["rel_changes"]
        assert len(changes) == manifest["iterations"] - 1
        assert all(c > 0 for c in changes)
        assert manifest["converged"] == (bool(changes) and changes[-1] <= manifest["config"]["tol"])
        assert set(manifest["timings_s"]) == {"load", "prior", "fuse", "save"}

    def test_evaluate_writes_reports(self, pipeline):
        tmp, paths = pipeline
        jpath = str(tmp / "m.json")
        cpath = str(tmp / "m.csv")
        rc = main(
            ["evaluate", "--x-hat", paths["xhat"], "--ref", paths["gt"],
             "--factor", "4", "--json", jpath, "--csv", cpath]
        )
        assert rc == 0
        metrics = json.loads(open(jpath).read())
        assert set(metrics) == {"rmse", "psnr", "sam", "ergas", "ssim"}
        lines = open(cpath).read().splitlines()
        assert lines[0] == "rmse,psnr,ergas,sam,ssim"
        assert len(lines[1].split(",")) == 5
        manifest = json.loads(open(jpath + ".manifest.json").read())
        assert manifest["metrics"]["psnr"] == metrics["psnr"]

    def test_errormap_band_and_wavelength(self, pipeline):
        tmp, paths = pipeline
        out = str(tmp / "err.pgm")
        rc = main(
            ["errormap", "--x-hat", paths["xhat"], "--ref", paths["gt"],
             "--wavelength", "540", "--out", out]
        )
        assert rc == 0
        blob = open(out, "rb").read()
        assert blob.startswith(b"P5\n32 32\n255\n")
        manifest = json.loads(open(out + ".manifest.json").read())
        # 8 bands over 400-700nm: closest center to 540nm is the 4th band
        assert manifest["band"] == 4
        rc = main(
            ["errormap", "--x-hat", paths["xhat"], "--ref", paths["gt"],
             "--band", "2", "--out", out, "--manifest", str(tmp / "em.json")]
        )
        assert rc == 0
        assert json.loads(open(tmp / "em.json").read())["band"] == 2

    def test_manifest_schema(self, pipeline):
        # the manifest format of all five commands: top-level keys in order,
        # config keys in order, input and output roles, timing sections
        tmp, paths = pipeline
        compare = ["--x-hat", paths["xhat"], "--ref", paths["gt"]]
        assert main(["evaluate", *compare, "--factor", "4", "--json", str(tmp / "m.json"),
                     "--csv", str(tmp / "m.csv")]) == 0
        assert main(["errormap", *compare, "--band", "1", "--out", str(tmp / "e.pgm")]) == 0
        first = ["schema_version", "command", "versions", "config"]
        head = first + ["inputs", "outputs", "timings_s"]
        expected = {
            paths["gt"]: (
                first + ["outputs", "timings_s", "peak_rss_mb", "error"],
                ["bands", "size", "endmembers", "smoothness", "seed", "threads"],
                None, ["cube"], {"generate", "save"},
            ),
            paths["y"]: (
                head + ["peak_rss_mb", "error"],
                ["in", "blur", "factor", "srf", "noise", "noise_seed", "threads"],
                ["cube"], ["y", "z"], {"load", "degrade", "save"},
            ),
            paths["xhat"]: (
                head + ["iterations", "converged", "objective_trace", "rel_changes", "peak_rss_mb",
                        "error"],
                ["y", "z", "prior", "mu", "nu", "rho", "iters", "tol", "blur", "srf", "threads",
                 "factor"],
                ["y", "z"], ["x_hat"], {"load", "prior", "fuse", "save"},
            ),
            str(tmp / "m.json"): (
                head + ["metrics", "peak_rss_mb", "error"],
                ["x_hat", "ref", "factor", "json", "csv", "threads"],
                ["x_hat", "ref"], ["json", "csv"], {"load", "evaluate"},
            ),
            str(tmp / "e.pgm"): (
                head + ["band", "peak_rss_mb", "error"],
                ["x_hat", "ref", "band", "wavelength", "wl_min", "wl_max", "max_error",
                 "threads"],
                ["x_hat", "ref"], ["image"], {"load", "export"},
            ),
        }
        for primary, (keys, config, inputs, outputs, timings) in expected.items():
            manifest = json.loads(open(primary + ".manifest.json").read())
            assert list(manifest) == keys, primary
            assert list(manifest["config"]) == config, primary
            if inputs is not None:
                assert list(manifest["inputs"]) == inputs, primary
            assert list(manifest["outputs"]) == outputs, primary
            assert set(manifest["timings_s"]) == timings, primary
            assert manifest["error"] is None

    def test_manifests_record_peak_rss(self, pipeline):
        # the process's peak so far, on success and on failure alike
        pytest.importorskip("resource")
        tmp, paths = pipeline
        manifest = json.loads(open(paths["xhat"] + ".manifest.json").read())
        assert manifest["peak_rss_mb"] > 0
        out = str(tmp / "o.cube")
        assert main(["fuse", "--y", paths["y"], "--z", paths["z"], "--prior",
                     "file:" + str(tmp / "missing.cube"), "--out", out]) == 3
        manifest = json.loads(open(out + ".manifest.json").read())
        assert list(manifest)[-2:] == ["peak_rss_mb", "error"]
        assert manifest["error"]["type"] == "FileNotFoundError"
        assert manifest["peak_rss_mb"] > 0

    def test_manifests_record_schema_and_versions(self, pipeline):
        # on success and on failure alike
        import platform

        tmp, paths = pipeline
        out = str(tmp / "o.cube")
        assert main(["fuse", "--y", paths["y"], "--z", paths["z"], "--prior",
                     "file:" + str(tmp / "missing.cube"), "--out", out]) == 3
        for path in (paths["xhat"], out):
            manifest = json.loads(open(path + ".manifest.json").read())
            assert manifest["schema_version"] == 1
            assert manifest["versions"] == {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "hsfuse": hsfuse.__version__,
            }

    def test_fuse_with_explicit_prior_file(self, pipeline):
        tmp, paths = pipeline
        out = str(tmp / "anchored.cube")
        rc = main(
            ["fuse", "--y", paths["y"], "--z", paths["z"], "--prior",
             "file:" + paths["gt"], "--iters", "2", "--out", out]
        )
        assert rc == 0
        # a perfect anchor with clean data reproduces the reference
        got = load_cube(out)
        ref = load_cube(paths["gt"])
        assert np.linalg.norm(got.data - ref.data) <= 1e-8 * np.linalg.norm(ref.data)


class TestErrormapBandRead:
    """``errormap`` reads every band of both files and rejects what a whole read rejects."""

    @pytest.mark.parametrize("kind", ["nan", "inf", "truncated", "trailing", "header"])
    @pytest.mark.parametrize("role", ["x_hat", "ref"])
    def test_rejected_files_exit_3(self, rng, tmp_path, kind, role):
        files, blob = bad_cube_files(tmp_path, rng)
        good = tmp_path / "other.cube"
        good.write_bytes(blob)
        with pytest.raises(CubeFormatError) as whole:
            load_cube(files[kind])
        paths = {"x_hat": str(good), "ref": str(good), role: str(files[kind])}
        out = str(tmp_path / "e.pgm")
        # band 1 is mapped, and the non-finite values sit in band 4
        rc = main(["errormap", "--x-hat", paths["x_hat"], "--ref", paths["ref"],
                   "--band", "1", "--out", out])
        assert rc == 3
        error = json.loads(open(out + ".manifest.json").read())["error"]
        assert error["type"] == type(whole.value).__name__

    def test_mismatched_shapes_exit_2_with_the_shape_rule(self, rng, tmp_path):
        from hsfuse.io import save_cube

        a, b = tmp_path / "a.cube", tmp_path / "b.cube"
        save_cube(a, rand_cube(rng, 4, 6, 6))
        save_cube(b, rand_cube(rng, 4, 6, 8))
        with pytest.raises(ValidationError) as rule:
            check_shape("x_hat", load_cube(a).data.shape, (4, 6, 8))
        out = str(tmp_path / "e.pgm")
        assert main(["errormap", "--x-hat", str(a), "--ref", str(b), "--band", "1",
                     "--out", out]) == 2
        error = json.loads(open(out + ".manifest.json").read())["error"]
        assert error == {"type": "ValidationError", "message": str(rule.value)}

    def test_f32_input_maps_the_pixels_of_its_f64_copy(self, rng, tmp_path):
        from hsfuse.io import MAGIC, save_cube

        ref, x = rand_cube(rng, 5, 6, 7, 0.0, 1.0), rand_cube(rng, 5, 6, 7, 0.0, 1.0)
        save_cube(tmp_path / "ref.cube", ref)
        head = {"bands": 5, "height": 6, "width": 7, "dtype": "f32", "layout": "band-major"}
        x32 = x.data.astype("<f4")
        (tmp_path / "x32.cube").write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + x32.tobytes())
        save_cube(tmp_path / "x64.cube", HsiCube(x32.astype(np.float64)))
        for name in ("x32", "x64"):
            assert main(["errormap", "--x-hat", str(tmp_path / f"{name}.cube"),
                         "--ref", str(tmp_path / "ref.cube"), "--band", "3", "--max-error", "0.5",
                         "--out", str(tmp_path / f"{name}.pgm")]) == 0
        assert (tmp_path / "x32.pgm").read_bytes() == (tmp_path / "x64.pgm").read_bytes()

    def test_manifest_records_the_full_input_shapes(self, pipeline):
        tmp, paths = pipeline
        out = str(tmp / "err.pgm")
        assert main(["errormap", "--x-hat", paths["xhat"], "--ref", paths["gt"],
                     "--band", "2", "--out", out]) == 0
        inputs = json.loads(open(out + ".manifest.json").read())["inputs"]
        assert inputs["x_hat"]["shape"] == inputs["ref"]["shape"] == [8, 32, 32]

    def test_errormap_holds_no_whole_cube(self, tmp_path):
        # in-process main(), 31x128x128 (a cube is 4.06 MB), after a warm-up
        # run: 2.14 cubes traced when both cubes were loaded whole, 0.17 with
        # one band of each (two kept bands, two scan buffers, the map's
        # temporaries), 0.085-0.088 reading both files through one scan plane
        # into one kept difference (three runs)
        from hsfuse.io import save_cube
        from hsfuse.scenes import SceneSpec, generate_scene

        for seed, name in ((0, "gt"), (1, "x")):
            save_cube(tmp_path / f"{name}.cube", generate_scene(SceneSpec(31, 128, 128, seed=seed)))
        args = ["errormap", "--threads", "2", "--x-hat", str(tmp_path / "x.cube"),
                "--ref", str(tmp_path / "gt.cube"), "--band", "6", "--out", str(tmp_path / "e.pgm")]
        assert main(args) == 0
        tracemalloc.start()
        try:
            rc = main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 0.1 * 31 * 128 * 128 * 8


@pytest.fixture(scope="module")
def scored_files(tmp_path_factory):
    """An x_hat and a reference file, two seeded 31-band scenes, at desk size and 256x256."""
    from hsfuse.io import save_cube
    from hsfuse.scenes import SceneSpec, generate_scene

    root = tmp_path_factory.mktemp("scored")
    files = {}
    for size in (64, 256):
        for seed, name in ((0, "gt"), (1, "xh")):
            save_cube(root / f"{name}{size}.cube", generate_scene(SceneSpec(31, size, size, seed=seed)))
        files[size] = (str(root / f"xh{size}.cube"), str(root / f"gt{size}.cube"))
    return files


class TestEvaluateBandRead:
    """``evaluate`` scores the files band by band and writes what scoring the loaded cubes writes."""

    @pytest.mark.parametrize("size", [64, 256])
    def test_report_equals_the_report_of_the_loaded_cubes(self, scored_files, tmp_path, size):
        x_hat, ref = scored_files[size]
        want = (evaluate(load_cube(x_hat), load_cube(ref), 4).to_json() + "\n").encode()
        for threads in ("1", "2", "3"):
            out = tmp_path / f"r{threads}.json"
            assert main(["evaluate", "--threads", threads, "--x-hat", x_hat, "--ref", ref,
                         "--factor", "4", "--json", str(out)]) == 0
            assert out.read_bytes() == want, threads
            inputs = json.loads(open(str(out) + ".manifest.json").read())["inputs"]
            assert inputs["x_hat"]["shape"] == inputs["ref"]["shape"] == [31, size, size]

    def test_f32_x_hat_scores_as_its_f64_upcast(self, rng, tmp_path):
        from hsfuse.io import MAGIC, save_cube

        ref, x = rand_cube(rng, 5, 16, 13, 0.0, 1.0), rand_cube(rng, 5, 16, 13, 0.0, 1.0)
        save_cube(tmp_path / "ref.cube", ref)
        head = {"bands": 5, "height": 16, "width": 13, "dtype": "f32", "layout": "band-major"}
        x32 = x.data.astype("<f4")
        (tmp_path / "x32.cube").write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + x32.tobytes())
        save_cube(tmp_path / "x64.cube", HsiCube(x32.astype(np.float64)))
        for name in ("x32", "x64"):
            assert main(["evaluate", "--x-hat", str(tmp_path / f"{name}.cube"),
                         "--ref", str(tmp_path / "ref.cube"), "--factor", "2",
                         "--json", str(tmp_path / f"{name}.json")]) == 0
        assert (tmp_path / "x32.json").read_bytes() == (tmp_path / "x64.json").read_bytes()

    def test_mismatched_shapes_exit_2_before_any_payload_read(self, rng, tmp_path, monkeypatch):
        import hsfuse.io
        from hsfuse.io import save_cube

        a, b = tmp_path / "a.cube", tmp_path / "b.cube"
        save_cube(a, rand_cube(rng, 4, 16, 16))
        save_cube(b, rand_cube(rng, 4, 16, 18))
        with pytest.raises(ValidationError) as rule:
            check_shape("x_hat", load_cube(a).data.shape, (4, 16, 18))
        reads = []
        read_into = hsfuse.io._read_into
        monkeypatch.setattr(hsfuse.io, "_read_into", lambda *args: reads.append(1) or read_into(*args))
        out = str(tmp_path / "m.json")
        assert main(["evaluate", "--x-hat", str(a), "--ref", str(b), "--factor", "2",
                     "--json", out]) == 2
        error = json.loads(open(out + ".manifest.json").read())["error"]
        assert error == {"type": "ValidationError", "message": str(rule.value)}
        assert reads == []

    @pytest.mark.parametrize("role", ["x_hat", "ref"])
    def test_nan_in_the_last_band_exits_3_without_a_report(self, rng, tmp_path, role):
        from hsfuse.io import save_cube

        good, bad = tmp_path / "good.cube", tmp_path / "bad.cube"
        save_cube(good, rand_cube(rng, 4, 16, 16))
        blob = good.read_bytes()
        bad.write_bytes(blob[:-8] + np.array([np.nan]).tobytes())
        paths = {"x_hat": str(good), "ref": str(good), role: str(bad)}
        out = tmp_path / "m.json"
        assert main(["evaluate", "--x-hat", paths["x_hat"], "--ref", paths["ref"], "--factor", "2",
                     "--json", str(out)]) == 3
        assert not out.exists()
        error = json.loads(open(str(out) + ".manifest.json").read())["error"]
        assert error["type"] == "CubeFormatError"
        assert str(bad) in error["message"]


class TestFuseReadsHeadersFirst:
    """``fuse`` records every header and checks the model against them before it reads a payload."""

    @staticmethod
    def record_reads(monkeypatch) -> list:
        reads = []
        read_into = hsfuse.io._read_into
        monkeypatch.setattr(hsfuse.io, "_read_into", lambda *args: reads.append(1) or read_into(*args))
        return reads

    def test_a_z_grid_that_does_not_fit_y_exits_2_before_any_payload_read(
        self, rng, tmp_path, monkeypatch
    ):
        y, z = tmp_path / "y.cube", tmp_path / "z.cube"
        save_cube(y, rand_cube(rng, 8, 8, 8))
        save_cube(z, rand_cube(rng, 3, 30, 32))
        reads = self.record_reads(monkeypatch)
        out = str(tmp_path / "x.cube")
        assert main(["fuse", "--y", str(y), "--z", str(z), "--out", out]) == 2
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["error"]["type"] == "ValidationError"
        assert manifest["inputs"]["z"]["shape"] == [3, 30, 32]
        assert reads == []

    def test_a_nan_in_z_exits_3_with_both_inputs_recorded(self, rng, tmp_path):
        y, z = tmp_path / "y.cube", tmp_path / "z.cube"
        save_cube(y, rand_cube(rng, 8, 8, 8))
        save_cube(z, rand_cube(rng, 3, 32, 32))
        z.write_bytes(z.read_bytes()[:-8] + np.array([np.nan]).tobytes())
        out = str(tmp_path / "x.cube")
        assert main(["fuse", "--y", str(y), "--z", str(z), "--out", out]) == 3
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["error"]["type"] == "CubeFormatError"
        assert str(z) in manifest["error"]["message"]
        assert manifest["inputs"] == {
            "y": {"path": str(y), "shape": [8, 8, 8]},
            "z": {"path": str(z), "shape": [3, 32, 32]},
        }
        assert not os.path.exists(out)

    def test_a_prior_file_that_does_not_fit_exits_2_before_any_payload_read(
        self, rng, tmp_path, monkeypatch
    ):
        y, z, prior = tmp_path / "y.cube", tmp_path / "z.cube", tmp_path / "p.cube"
        save_cube(y, rand_cube(rng, 8, 8, 8))
        save_cube(z, rand_cube(rng, 3, 32, 32))
        save_cube(prior, rand_cube(rng, 8, 32, 30))
        with pytest.raises(ValidationError) as rule:
            check_shape("prior", (8, 32, 30), (8, 32, 32))
        reads = self.record_reads(monkeypatch)
        out = str(tmp_path / "x.cube")
        assert main(["fuse", "--y", str(y), "--z", str(z), "--prior", f"file:{prior}",
                     "--out", out]) == 2
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["error"] == {"type": "ValidationError", "message": str(rule.value)}
        assert manifest["inputs"]["prior"] == {"path": str(prior), "shape": [8, 32, 30]}
        assert reads == []

    def test_a_nan_in_the_prior_exits_3_with_every_input_recorded(self, rng, tmp_path):
        y, z, prior = tmp_path / "y.cube", tmp_path / "z.cube", tmp_path / "p.cube"
        save_cube(y, rand_cube(rng, 8, 8, 8))
        save_cube(z, rand_cube(rng, 3, 32, 32))
        save_cube(prior, rand_cube(rng, 8, 32, 32))
        prior.write_bytes(prior.read_bytes()[:-8] + np.array([np.nan]).tobytes())
        out = str(tmp_path / "x.cube")
        assert main(["fuse", "--y", str(y), "--z", str(z), "--prior", f"file:{prior}",
                     "--out", out]) == 3
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["error"]["type"] == "CubeFormatError"
        assert str(prior) in manifest["error"]["message"]
        assert manifest["inputs"] == {
            "y": {"path": str(y), "shape": [8, 8, 8]},
            "z": {"path": str(z), "shape": [3, 32, 32]},
            "prior": {"path": str(prior), "shape": [8, 32, 32]},
        }
        assert not os.path.exists(out)

    @pytest.mark.parametrize("spec", ["file:", "guess"])
    def test_a_bad_prior_spec_exits_2_before_any_file_is_opened(
        self, rng, tmp_path, monkeypatch, spec
    ):
        y, z = tmp_path / "y.cube", tmp_path / "z.cube"
        save_cube(y, rand_cube(rng, 8, 8, 8))
        save_cube(z, rand_cube(rng, 3, 32, 32))
        reads = self.record_reads(monkeypatch)
        out = str(tmp_path / "x.cube")
        assert main(["fuse", "--y", str(y), "--z", str(z), "--prior", spec, "--out", out]) == 2
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["error"] == {
            "type": "ValidationError",
            "message": f"prior must be 'naive' or 'file:<path>', got {spec!r}",
        }
        assert manifest["inputs"] == {}
        assert reads == []

    def test_a_prior_file_fuses_as_the_loaded_cube(self, rng, tmp_path):
        from hsfuse.degradation import BlurOperator, DegradationModel, Downsampler, SpectralResponse
        from hsfuse.hqs import HqsConfig, fuse

        write_inputs(tmp_path, 8, 16, 2)
        # a noisy stand-in for a network's output
        prior = tmp_path / "noisy.cube"
        gt = load_cube(tmp_path / "prior.cube").data
        save_cube(prior, HsiCube(gt + 0.03 * gt.std() * rng.standard_normal(gt.shape)))
        y, z = load_cube(tmp_path / "y.cube"), load_cube(tmp_path / "z.cube")
        model = DegradationModel(
            BlurOperator.uniform_block(16, 16, 2), Downsampler(2), SpectralResponse.default_rgb(8)
        )
        want = fuse(y, z, model, load_cube(prior), HqsConfig(max_iter=3)).x_hat
        out = tmp_path / "x.cube"
        assert main(["fuse", "--y", str(tmp_path / "y.cube"), "--z", str(tmp_path / "z.cube"),
                     "--prior", f"file:{prior}", "--iters", "3", "--out", str(out)]) == 0
        save_cube(tmp_path / "want.cube", want)
        assert out.read_bytes() == (tmp_path / "want.cube").read_bytes()
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert manifest["inputs"]["prior"] == {"path": str(prior), "shape": [8, 16, 16]}
        assert list(manifest["timings_s"]) == ["load", "prior", "fuse", "save"]


    def test_the_naive_prior_fuses_as_its_saved_cube(self, tmp_path):
        from hsfuse.degradation import BlurOperator, DegradationModel, Downsampler, SpectralResponse
        from hsfuse.priors import PriorSource, make_prior

        write_inputs(tmp_path, 8, 16, 2)
        y, z = load_cube(tmp_path / "y.cube"), load_cube(tmp_path / "z.cube")
        model = DegradationModel(
            BlurOperator.uniform_block(16, 16, 2), Downsampler(2), SpectralResponse.default_rgb(8)
        )
        prior = tmp_path / "naive.cube"
        save_cube(prior, make_prior(PriorSource.naive_fusion(), y, z, model))
        runs = []
        for spec in ("naive", f"file:{prior}"):
            out = tmp_path / f"x_{len(runs)}.cube"
            assert main(["fuse", "--y", str(tmp_path / "y.cube"), "--z", str(tmp_path / "z.cube"),
                         "--prior", spec, "--iters", "4", "--out", str(out)]) == 0
            manifest = json.loads(open(str(out) + ".manifest.json").read())
            assert list(manifest["timings_s"]) == ["load", "prior", "fuse", "save"]
            runs.append((load_cube(out).data, manifest["iterations"], manifest["converged"]))
        (naive, *flags), (cube, *cube_flags) = runs
        assert flags == cube_flags
        assert np.linalg.norm(naive - cube) <= 1e-13 * np.linalg.norm(cube)


class TestStreamedStages:
    """``simulate`` and ``degrade`` work through their files and write the bytes of the loaded cubes."""

    @pytest.mark.parametrize(
        "bands, size, block_columns",
        [(31, 64, None), (7, 13, 32), (31, 512, None)],
    )
    def test_simulate_writes_the_saved_scene(self, tmp_path, monkeypatch, bands, size, block_columns):
        # 7x13x13 in blocks of 32 pixels ends on a block of 9
        import hsfuse.cube
        from hsfuse.io import save_cube
        from hsfuse.scenes import SceneSpec, generate_scene

        endmembers = min(5, bands)
        want = tmp_path / "want.cube"
        save_cube(want, generate_scene(SceneSpec(bands, size, size, endmembers, seed=3)), scale=(0, 1))
        if block_columns is not None:
            monkeypatch.setattr(hsfuse.cube, "_BLOCK_COLUMNS", block_columns)
        for threads in ("1", "2", "3"):
            out = tmp_path / f"gt{threads}.cube"
            assert main(["simulate", "--threads", threads, "--bands", str(bands), "--size", str(size),
                         "--endmembers", str(endmembers), "--seed", "3", "--out", str(out)]) == 0
            assert out.read_bytes() == want.read_bytes(), threads
            outputs = json.loads(open(str(out) + ".manifest.json").read())["outputs"]
            assert outputs["cube"]["shape"] == [bands, size, size]

    def test_scene_blocks_write_a_non_square_scene(self, tmp_path, monkeypatch):
        # the CLI's scenes are square; simulate's two calls on 7x13x11, in
        # blocks of 32 pixels with a tail of 15, write the saved scene, and the
        # scene filled from those blocks keeps its bytes
        import hsfuse.cube
        from hsfuse.io import save_blocks, save_cube
        from hsfuse.scenes import SceneSpec, generate_scene, scene_blocks

        spec = SceneSpec(7, 13, 11)
        scene = generate_scene(spec)
        save_cube(tmp_path / "want.cube", scene, scale=(0, 1))
        monkeypatch.setattr(hsfuse.cube, "_BLOCK_COLUMNS", 32)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("HSFUSE_THREADS", threads)
            out = tmp_path / f"gt{threads}.cube"
            save_blocks(out, (7, 13, 11), scene_blocks(spec), scale=(0, 1))
            assert out.read_bytes() == (tmp_path / "want.cube").read_bytes(), threads
            assert np.array_equal(generate_scene(spec).data, scene.data), threads

    @staticmethod
    def degrade(tmp_path, path, name, *flags):
        out_y, out_z = tmp_path / f"{name}.y", tmp_path / f"{name}.z"
        rc = main(["degrade", "--in", str(path), "--blur", "block:2", "--factor", "2", *flags,
                   "--out-y", str(out_y), "--out-z", str(out_z)])
        return rc, out_y, out_z

    @pytest.mark.parametrize("kind", ["nan", "inf", "truncated", "trailing", "header", "magic", "dtype"])
    def test_rejected_files_exit_3_and_write_no_output(self, rng, tmp_path, kind):
        # the non-finite values sit in band 3 of 5, read after the bands before it
        files, _ = bad_cube_files(tmp_path, rng)
        with pytest.raises(CubeFormatError) as whole:
            load_cube(files[kind])
        rc, out_y, out_z = self.degrade(tmp_path, files[kind], kind)
        assert rc == 3
        error = json.loads(open(str(out_y) + ".manifest.json").read())["error"]
        assert error["type"] == type(whole.value).__name__
        assert not out_y.exists() and not out_z.exists()

    def test_f32_input_gives_the_bytes_of_its_f64_copy(self, rng, tmp_path):
        from hsfuse.io import MAGIC, save_cube

        x = rand_cube(rng, 6, 8, 10, 0.0, 1.0)
        head = {"bands": 6, "height": 8, "width": 10, "dtype": "f32", "layout": "band-major"}
        x32 = x.data.astype("<f4")
        (tmp_path / "x32.cube").write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + x32.tobytes())
        save_cube(tmp_path / "x64.cube", HsiCube(x32.astype(np.float64)))
        runs = [self.degrade(tmp_path, tmp_path / f"{name}.cube", name) for name in ("x32", "x64")]
        assert [rc for rc, *_ in runs] == [0, 0]
        for a, b in zip(runs[0][1:], runs[1][1:]):
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_degrade_writes_the_bytes_of_the_loaded_cube(self, tmp_path, monkeypatch, threads):
        # 31x72x72 is one full block of pixels and a tail of 1,088; with noise
        # too, which is drawn after both passes
        from hsfuse.degradation import BlurOperator, DegradationModel, Downsampler, SpectralResponse
        from hsfuse.io import save_cube
        from hsfuse.scenes import SceneSpec, generate_scene

        gt = tmp_path / "gt.cube"
        save_cube(gt, generate_scene(SceneSpec(31, 72, 72, seed=2)), scale=(0, 1))
        for noise in ("0", "0.01"):
            model = DegradationModel(
                BlurOperator.uniform_block(72, 72, 4), Downsampler(4), SpectralResponse.default_rgb(31),
                noise_sigma=float(noise), noise_seed=7,
            )
            monkeypatch.setenv("HSFUSE_THREADS", "1")
            want = model.degrade(load_cube(gt))
            for cube, name in zip(want, ("y", "z")):
                save_cube(tmp_path / f"want.{name}", cube)
            rc, out_y, out_z = self.degrade(tmp_path, gt, "got", "--threads", threads, "--blur",
                                            "block:4", "--factor", "4", "--noise", noise,
                                            "--noise-seed", "7")
            assert rc == 0
            assert out_y.read_bytes() == (tmp_path / "want.y").read_bytes(), noise
            assert out_z.read_bytes() == (tmp_path / "want.z").read_bytes(), noise
            inputs = json.loads(open(str(out_y) + ".manifest.json").read())["inputs"]
            assert inputs["cube"]["shape"] == [31, 72, 72]

    def test_default_blur_follows_the_factor(self, rng, tmp_path):
        # without --blur, degrade blurs by block:<factor>, the blur fuse assumes
        from hsfuse.io import save_cube

        save_cube(tmp_path / "x.cube", rand_cube(rng, 5, 16, 16, 0.0, 1.0))
        runs = []
        for name, flags in (("default", []), ("given", ["--blur", "block:4"])):
            out_y, out_z = tmp_path / f"{name}.y", tmp_path / f"{name}.z"
            assert main(["degrade", "--in", str(tmp_path / "x.cube"), "--factor", "4", *flags,
                         "--out-y", str(out_y), "--out-z", str(out_z)]) == 0
            config = json.loads(open(str(out_y) + ".manifest.json").read())["config"]
            assert (config["blur"], config["factor"]) == ("block:4", 4), name
            runs.append((out_y.read_bytes(), out_z.read_bytes()))
        assert runs[0] == runs[1]


class TestExitCodes:
    def test_validation_errors_exit_2(self, pipeline, capsys):
        tmp, paths = pipeline
        out = str(tmp / "o.cube")
        assert main(["fuse", "--y", paths["y"], "--z", paths["gt"], "--out", out]) == 2
        assert (
            main(["fuse", "--y", paths["y"], "--z", paths["z"], "--prior", "guess",
                  "--out", out]) == 2
        )
        # each --blur form, and the message of each way to get one wrong
        int_error = "invalid literal for int() with base 10:"
        float_error = "could not convert string to float:"
        blur_errors = {
            "gauss:1.5": None,
            "gauss:1.5:7": None,
            "gauss:1.5:7:9": "too many fields in blur spec 'gauss:1.5:7:9'",
            "gauss:": f"malformed blur spec 'gauss:': {float_error} ''",
            "gauss:x": f"malformed blur spec 'gauss:x': {float_error} 'x'",
            "gauss:1.5:": f"malformed blur spec 'gauss:1.5:': {int_error} ''",
            "gauss:1.5:x:9": f"malformed blur spec 'gauss:1.5:x:9': {int_error} 'x'",
            "gauss:1.5:8": "support must be odd, got 8",
            "block:0": "block size must be at least 1, got 0",
            "block:4:2": f"malformed blur spec 'block:4:2': {int_error} '4:2'",
            "block": f"malformed blur spec 'block': {int_error} ''",
            "block:nope": f"malformed blur spec 'block:nope': {int_error} 'nope'",
            "wedge:3": "unknown blur spec 'wedge:3'; use block:<size> or gauss:<sigma>[:<support>]",
            "": "unknown blur spec ''; use block:<size> or gauss:<sigma>[:<support>]",
        }
        capsys.readouterr()
        for spec, error in blur_errors.items():
            rc = main(["degrade", "--in", paths["gt"], "--blur", spec, "--factor", "4",
                       "--out-y", str(tmp / "a"), "--out-z", str(tmp / "b")])
            want = (0, "") if error is None else (2, f"error: {error}\n")
            assert (rc, capsys.readouterr().err) == want, spec
        # an empty spec is refused, not taken for the default block:<factor>
        rc = main(["fuse", "--y", paths["y"], "--z", paths["z"], "--blur", "", "--out", out])
        assert (rc, capsys.readouterr().err) == (2, f"error: {blur_errors['']}\n")
        assert (
            main(["errormap", "--x-hat", paths["gt"], "--ref", paths["gt"],
                  "--band", "1", "--wavelength", "540", "--out", str(tmp / "e.pgm")]) == 2
        )
        assert (
            main(["errormap", "--x-hat", paths["gt"], "--ref", paths["gt"],
                  "--band", "99", "--out", str(tmp / "e.pgm")]) == 2
        )
        # a wavelength is a positive length
        for flags in (["--wavelength", "0"], ["--wavelength", "-540"],
                      ["--wavelength", "540", "--wl-min", "0"]):
            assert main(["errormap", "--x-hat", paths["gt"], "--ref", paths["gt"], *flags,
                         "--out", str(tmp / "e.pgm")]) == 2
        assert main(["simulate", "--bands", "4", "--size", "3", "--out", out]) == 2
        # the spec is checked inside the stage, so the rejection has its manifest
        bad = tmp / "bad.cube"
        assert main(["simulate", "--bands", "3", "--endmembers", "5", "--size", "16",
                     "--out", str(bad)]) == 2
        manifest = json.loads(open(str(bad) + ".manifest.json").read())
        assert manifest["error"]["type"] == "ValidationError"
        assert not bad.exists()
        ypath = str(tmp / "a")
        assert (
            main(["degrade", "--in", paths["gt"], "--blur", "block:4", "--factor", "4",
                  "--noise", "0.01", "--noise-seed", "-1", "--out-y", ypath,
                  "--out-z", str(tmp / "b")]) == 2
        )
        manifest = json.loads(open(ypath + ".manifest.json").read())
        assert manifest["error"]["type"] == "ValidationError"

    def test_inputs_that_do_not_fit_each_other_exit_2(self, pipeline, capsys):
        tmp, paths = pipeline
        capsys.readouterr()
        # an SRF table over 4 channels for the 8-band cube
        srf = tmp / "short_srf.csv"
        srf.write_text("band,r,g\n1,1,0\n2,1,0\n3,0,1\n4,0,1\n")
        rc = main(["degrade", "--in", paths["gt"], "--srf", str(srf), "--factor", "4",
                   "--out-y", str(tmp / "a"), "--out-z", str(tmp / "b")])
        assert (rc, capsys.readouterr().err) == (
            2, "error: SRF table covers 4 channels, cube has 8\n"
        )
        # a z grid of 30x32 over y's 8x8 is no whole multiple along the rows
        z = tmp / "z_off.cube"
        save_cube(z, HsiCube(np.zeros((3, 30, 32))))
        rc = main(["fuse", "--y", paths["y"], "--z", str(z), "--out", str(tmp / "o.cube")])
        assert (rc, capsys.readouterr().err) == (
            2,
            "error: z grid (30, 32) is not the same integer multiple of y grid (8, 8) "
            "along both axes\n",
        )

    def test_an_unexpected_error_propagates_once_the_manifest_records_it(
        self, pipeline, monkeypatch
    ):
        tmp, paths = pipeline

        class Unexpected(Exception):
            pass

        def load(path):
            raise Unexpected(f"cannot load {path}")

        # an error type with no exit code is a defect: main re-raises it
        monkeypatch.setattr(hsfuse.io, "load_cube", load)
        out = str(tmp / "o.cube")
        with pytest.raises(Unexpected, match="cannot load"):
            main(["fuse", "--y", paths["y"], "--z", paths["z"], "--out", out])
        error = json.loads(open(out + ".manifest.json").read())["error"]
        assert error == {"type": "Unexpected", "message": f"cannot load {paths['y']}"}

    def test_usage_errors_exit_2(self, capsys):
        assert main(["fuse"]) == 2
        assert main([]) == 2
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_io_errors_exit_3(self, pipeline):
        tmp, paths = pipeline
        missing = str(tmp / "missing.cube")
        assert main(["evaluate", "--x-hat", missing, "--ref", paths["gt"],
                     "--factor", "4"]) == 3
        junk = tmp / "junk.cube"
        junk.write_bytes(b"garbage")
        assert main(["fuse", "--y", str(junk), "--z", paths["z"],
                     "--out", str(tmp / "o.cube")]) == 3

    def test_shuffled_srf_table_exits_3(self, pipeline):
        tmp, paths = pipeline
        # rows listed 2, 1, 3, ...: loading them in file order would give
        # channel 2's weights to channel 1
        weights = ["1,0,0", "1,0,0", "1,0,0", "0,1,0", "0,1,0", "0,1,0", "0,0,1", "0,0,1"]
        order = [2, 1, 3, 4, 5, 6, 7, 8]
        srf = tmp / "shuffled_srf.csv"
        rows = ["band,r,g,b"] + [f"{i},{w}" for i, w in zip(order, weights)]
        srf.write_text("\n".join(rows) + "\n")
        out = str(tmp / "o.cube")
        assert main(["fuse", "--y", paths["y"], "--z", paths["z"], "--srf", str(srf),
                     "--out", out]) == 3
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["error"]["type"] == "CubeFormatError"

    def test_numerical_errors_exit_4_and_manifest_records(self, pipeline):
        tmp, paths = pipeline
        # two identical response rows make the back-projection gram singular
        srf = tmp / "bad_srf.csv"
        rows = ["band,a,b"] + [f"{i + 1},0.5,0.5" for i in range(8)]
        srf.write_text("\n".join(rows) + "\n")
        zpath = str(tmp / "z2.cube")
        rc = main(["degrade", "--in", paths["gt"], "--blur", "block:4", "--factor", "4",
                   "--srf", str(srf), "--out-y", str(tmp / "y2.cube"), "--out-z", zpath])
        assert rc == 0
        out = str(tmp / "o.cube")
        rc = main(["fuse", "--y", str(tmp / "y2.cube"), "--z", zpath,
                   "--srf", str(srf), "--out", out])
        assert rc == 4
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["error"]["type"] == "LinAlgError"

    def test_rho_too_small_for_c1_exits_4_and_names_rho(self, pipeline):
        tmp, paths = pipeline
        # the 3-band response leaves R^T R rank 3 over 8 bands, so at rho
        # 1e-30 the smallest eigenvalue of C1 = R^T R + rho*I rounds below zero
        out = str(tmp / "o.cube")
        rc = main(["fuse", "--y", paths["y"], "--z", paths["z"], "--rho", "1e-30",
                   "--out", out])
        assert rc == 4
        error = json.loads(open(out + ".manifest.json").read())["error"]
        assert error["type"] == "UnsupportedStructureError"
        assert "rho" in error["message"]

    @pytest.mark.parametrize("bands", [4, 8, 31])
    def test_tiny_rho_exits_4_at_every_band_count(self, tmp_path, bands):
        # C1's smallest eigenvalue at rho 1e-30 is roundoff of either sign
        # (positive at 4 bands), so the refusal must not hang on that sign
        p = {k: str(tmp_path / f"{k}.cube") for k in ("gt", "y", "z", "x")}
        assert main(["simulate", "--bands", str(bands), "--size", "16", "--endmembers", "2",
                     "--out", p["gt"]]) == 0
        assert main(["degrade", "--in", p["gt"], "--blur", "block:4", "--factor", "4",
                     "--out-y", p["y"], "--out-z", p["z"]]) == 0
        rc = main(["fuse", "--y", p["y"], "--z", p["z"], "--rho", "1e-30", "--out", p["x"]])
        assert rc == 4
        error = json.loads(open(p["x"] + ".manifest.json").read())["error"]
        assert error["type"] == "UnsupportedStructureError"
        assert "rho" in error["message"]


def test_parser_defaults_are_the_librarys():
    """Each default the parser repeats by value is the library's, so the CLI's default run is its."""
    import dataclasses
    import inspect

    from hsfuse.cli import build_parser
    from hsfuse.degradation import DegradationModel
    from hsfuse.hqs import HqsConfig
    from hsfuse.io import band_index_for_wavelength, export_error_map
    from hsfuse.scenes import SceneSpec

    def fields(cls):
        return {f.name: f.default for f in dataclasses.fields(cls)}

    def params(function):
        return {name: p.default for name, p in inspect.signature(function).parameters.items()}

    parser = build_parser()

    def parsed(*argv):
        return vars(parser.parse_args(argv))

    fuse = parsed("fuse", "--y", "y", "--z", "z", "--out", "x")
    simulate = parsed("simulate", "--out", "x")
    degrade = parsed("degrade", "--in", "x", "--out-y", "y", "--out-z", "z")
    errormap = parsed("errormap", "--x-hat", "x", "--ref", "r", "--out", "e")
    hqs, scene, model = fields(HqsConfig), fields(SceneSpec), fields(DegradationModel)
    wavelength, export = params(band_index_for_wavelength), params(export_error_map)
    pairs = {
        "--mu": (fuse["mu"], hqs["mu"]),
        "--nu": (fuse["nu"], hqs["nu"]),
        "--rho": (fuse["rho"], hqs["rho"]),
        "--iters": (fuse["iters"], hqs["max_iter"]),
        "--tol": (fuse["tol"], hqs["rel_tol"]),
        "--endmembers": (simulate["endmembers"], scene["endmembers"]),
        "--smoothness": (simulate["smoothness"], scene["smoothness"]),
        "--seed": (simulate["seed"], scene["seed"]),
        "--noise": (degrade["noise"], model["noise_sigma"]),
        "--noise-seed": (degrade["noise_seed"], model["noise_seed"]),
        "--wl-min": (errormap["wl_min"], wavelength["lo_nm"]),
        "--wl-max": (errormap["wl_max"], wavelength["hi_nm"]),
        "--max-error": (errormap["max_error"], export["max_error"]),
    }
    assert {flag: pair for flag, pair in pairs.items() if pair[0] != pair[1]} == {}
    # BLAS is pinned after parsing, so building the parser loads no numpy
    probe = "import sys, hsfuse.cli as cli; cli.build_parser(); print('numpy' in sys.modules)"
    assert run_fresh([sys.executable, "-c", probe]) == "False\n"


class TestThreads:
    BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

    def simulate(self, tmp_path, *flags):
        out = str(tmp_path / "s.cube")
        rc = main(["simulate", "--bands", "4", "--size", "8", "--endmembers", "2",
                   *flags, "--out", out])
        assert rc == 0
        return json.loads(open(out + ".manifest.json").read())

    def assert_pinned(self, threads, manifest):
        # BLAS runs on one thread; the hsfuse pool gets the resolved count
        assert all(os.environ[var] == "1" for var in self.BLAS_VARS)
        assert os.environ["HSFUSE_THREADS"] == str(threads)
        assert pool_size() == threads
        assert manifest["config"]["threads"] == threads

    def test_flag_pins_environment(self, tmp_path, monkeypatch):
        for var in self.BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("HSFUSE_THREADS", "3")  # the flag wins
        self.assert_pinned(1, self.simulate(tmp_path, "--threads", "1"))

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HSFUSE_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        self.assert_pinned(2, self.simulate(tmp_path))

    def test_default_is_the_available_cores(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HSFUSE_THREADS", raising=False)
        for var in self.BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        self.assert_pinned(len(os.sched_getaffinity(0)), self.simulate(tmp_path))

    def test_cores_fall_back_to_the_cpu_count_without_affinity(self, monkeypatch):
        from hsfuse.cli import _available_cores

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert _available_cores() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _available_cores() == 1

    def test_peak_rss_is_none_without_resource(self, monkeypatch):
        from hsfuse.cli import _peak_rss_mb

        assert _peak_rss_mb() > 0
        # a None entry makes the import raise ImportError
        monkeypatch.setitem(sys.modules, "resource", None)
        assert _peak_rss_mb() is None

    def test_fuse_bytes_do_not_depend_on_threads(self, tmp_path):
        # several column blocks (128x65 stored columns) and an odd band count
        assert main(["simulate", "--bands", "7", "--size", "128", "--endmembers", "3",
                     "--seed", "4", "--out", str(tmp_path / "gt.cube")]) == 0
        assert main(["degrade", "--in", str(tmp_path / "gt.cube"), "--blur", "block:4",
                     "--factor", "4", "--out-y", str(tmp_path / "y.cube"),
                     "--out-z", str(tmp_path / "z.cube")]) == 0
        root = os.path.dirname(os.path.dirname(os.path.abspath(hsfuse.__file__)))
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"x{threads}.cube"
            subprocess.run(
                [sys.executable, "-m", "hsfuse", "fuse", "--threads", threads,
                 "--y", str(tmp_path / "y.cube"), "--z", str(tmp_path / "z.cube"),
                 "--iters", "4", "--out", str(out)],
                env=env, capture_output=True, check=True,
            )
            manifest = json.loads(open(str(out) + ".manifest.json").read())
            assert manifest["config"]["threads"] == int(threads)
            runs.append((out.read_bytes(), manifest["objective_trace"], manifest["rel_changes"]))
        assert runs[0] == runs[1]

    # each command's flags (the pool is sized before any file is read) and its primary output
    COMMANDS = {
        "simulate": ("--out {d}/s.cube", "s.cube"),
        "degrade": ("--in {d}/x.cube --out-y {d}/y.cube --out-z {d}/z.cube", "y.cube"),
        "fuse": ("--y {d}/y.cube --z {d}/z.cube --out {d}/x.cube", "x.cube"),
        "evaluate": ("--x-hat {d}/x.cube --ref {d}/r.cube --factor 4", "x.cube.metrics"),
        "errormap": ("--x-hat {d}/x.cube --ref {d}/r.cube --band 1 --out {d}/e.pgm", "e.pgm"),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_invalid_values_exit_2(self, tmp_path, monkeypatch, command):
        # a failed run writes its manifest at its primary output, with the
        # error record, like any other
        flags, primary = self.COMMANDS[command]
        argv = [command, *flags.format(d=tmp_path).split()]
        manifest = tmp_path / f"{primary}.manifest.json"
        for extra, env, threads in ((["--threads", "0"], None, 0), ([], "many", None)):
            if env is not None:
                monkeypatch.setenv("HSFUSE_THREADS", env)
            assert main(argv + extra) == 2
            record = json.loads(manifest.read_text())
            assert record["error"]["type"] == "ValidationError"
            assert record["config"]["threads"] == threads
            manifest.unlink()


def write_inputs(tmp_path, bands, size, factor):
    """A seeded scene's y and z as cube files, and the scene's real cube bytes."""
    from hsfuse.degradation import BlurOperator, DegradationModel, Downsampler, SpectralResponse
    from hsfuse.io import save_cube
    from hsfuse.scenes import SceneSpec, generate_scene

    gt = generate_scene(SceneSpec(bands, size, size, seed=0))
    model = DegradationModel(
        BlurOperator.uniform_block(size, size, factor),
        Downsampler(factor),
        SpectralResponse.default_rgb(bands),
    )
    y, z = model.degrade(gt)
    save_cube(tmp_path / "y.cube", y)
    save_cube(tmp_path / "z.cube", z)
    save_cube(tmp_path / "prior.cube", gt)
    return gt.data.nbytes


def hr_arrays_alive(shape) -> int:
    """Float64 arrays of ``shape``, or views of one, that a gc-tracked object or a frame of the caller's stack holds."""
    import gc

    holders = gc.get_objects()
    frame = sys._getframe(1)
    while frame is not None:
        holders.append(frame.f_locals)
        frame = frame.f_back
    found = set()
    for holder in holders:
        for obj in gc.get_referents(holder):
            while isinstance(obj, np.ndarray):
                if obj.dtype == np.float64 and obj.shape == shape:
                    found.add(id(obj))
                obj = obj.base
    return len(found)


def run_fresh(cmd: list[str]) -> str:
    """The standard output of ``cmd`` run with this package importable, through a shell."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(hsfuse.__file__)))
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    # through a shell that forks it: a child spawned straight from this
    # process starts its ru_maxrss at this process's own peak
    return subprocess.run(["/bin/sh", "-c", '"$@"; exit $?', "sh", *cmd],
                          env=env, capture_output=True, check=True, text=True).stdout


def cli_peak_rss_mb(args: list[str], out, out_flag: str = "--out") -> float:
    """Peak RSS (MB) from the manifest of one CLI run in a fresh interpreter."""
    run_fresh([sys.executable, "-m", "hsfuse", *args, out_flag, str(out)])
    return json.loads(open(str(out) + ".manifest.json").read())["peak_rss_mb"]


@functools.lru_cache(maxsize=None)
def bare_peak_rss_mb() -> float:
    """Peak RSS (MB) of a fresh interpreter that imports numpy and ``hsfuse.cli`` and stops.

    Measured once per session, through ``run_fresh``'s shell like every child.
    """
    probe = "import numpy, hsfuse.cli as cli; print(cli._peak_rss_mb())"
    return float(run_fresh([sys.executable, "-c", probe]))


class TestMemory:
    def test_fuse_peak_stays_below_5_9_cubes(self, tmp_path):
        # from loading y and z to writing x: the naive prior while it is
        # built, then p_hat, x_hat and v_hat (about one real cube each as
        # half spectra), z's spectrum and the output cube; the prior cube
        # itself is freed once fuse holds its spectrum, and the v-step builds
        # its gain per block
        cube_bytes = write_inputs(tmp_path, 31, 128, 4)
        tracemalloc.start()
        try:
            rc = main(["fuse", "--threads", "1", "--y", str(tmp_path / "y.cube"),
                       "--z", str(tmp_path / "z.cube"), "--iters", "2",
                       "--out", str(tmp_path / "x.cube")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 5.9 * cube_bytes

    def test_fuse_peak_rss_grows_little_with_the_pool(self, tmp_path):
        # each pool thread's malloc arena keeps the temporaries it freed, so
        # peak RSS grows with the pool size; scoring a column block a chunk of
        # bands at a time and making the Sherman-Morrison update one stack of
        # member rows at a time keep that growth small. Measured on a 2-vCPU
        # box, 31x256x256 at factor 8, --threads 8 minus --threads 1 (MB =
        # 1e6 bytes): 31.1-39.4 over nine runs with whole-block score
        # temporaries and a channel-sized update temporary, 18.4-19.3 over
        # three runs without them
        pytest.importorskip("resource")
        assert main(["simulate", "--bands", "31", "--size", "256", "--seed", "0",
                     "--out", str(tmp_path / "gt.cube")]) == 0
        assert main(["degrade", "--in", str(tmp_path / "gt.cube"), "--blur", "block:8",
                     "--factor", "8", "--out-y", str(tmp_path / "y.cube"),
                     "--out-z", str(tmp_path / "z.cube")]) == 0
        peaks = [
            cli_peak_rss_mb(["fuse", "--threads", threads, "--y", str(tmp_path / "y.cube"),
                             "--z", str(tmp_path / "z.cube"), "--iters", "2"],
                            tmp_path / f"x{threads}.cube")
            for threads in ("1", "8")
        ]
        assert peaks[1] - peaks[0] < 25.0

    def test_evaluate_peak_rss_grows_little_with_the_pool(self, tmp_path):
        # each pool item scores one strip of SSIM rows, so a thread's buffers
        # do not grow with the image. Measured on a 2-vCPU box, 31x256x256,
        # --threads 8 minus --threads 1 (MB = 1e6 bytes): 29.0-29.4 with
        # whole-band buffers per item, 4.6-4.8 with strip buffers, 4.8-4.9
        # with the earlier one-band-at-a-time FFT SSIM; reading the files,
        # 12.4 with a band pair per thread, 5.2-6.0 with one pair at a time
        pytest.importorskip("resource")
        for seed, name in ((0, "gt"), (1, "xh")):
            assert main(["simulate", "--bands", "31", "--size", "256", "--seed", str(seed),
                         "--out", str(tmp_path / f"{name}.cube")]) == 0
        peaks = [
            cli_peak_rss_mb(["evaluate", "--threads", threads, "--x-hat", str(tmp_path / "xh.cube"),
                             "--ref", str(tmp_path / "gt.cube"), "--factor", "8"],
                            tmp_path / f"m{threads}.json", out_flag="--json")
            for threads in ("1", "8")
        ]
        assert peaks[1] - peaks[0] < 10.0

    def test_evaluate_peak_stays_below_a_bare_interpreter_plus_one_cube(self, scored_files, tmp_path):
        # evaluate holds one band of each file (the pair it scores), three
        # per-pixel SAM planes and a strip buffer per thread, never a whole
        # cube. Measured on a 2-vCPU box, 31x256x256 (a cube is 16.25 MB),
        # --threads 2 (MB = 1e6 bytes): a bare interpreter with numpy and
        # hsfuse.cli imported peaks at 29.6-29.7 MB, evaluate at 35.5-35.8 MB,
        # at 36.5-36.9 MB when it read the next band pair while scoring one,
        # and at 67.0-67.2 MB when it loaded both cubes
        pytest.importorskip("resource")
        x_hat, ref = scored_files[256]
        peak = cli_peak_rss_mb(["evaluate", "--threads", "2", "--x-hat", x_hat, "--ref", ref,
                                "--factor", "8"], tmp_path / "m.json", out_flag="--json")
        assert peak < bare_peak_rss_mb() + 31 * 256 * 256 * 8 / 1e6

    def test_simulate_peak_stays_below_a_bare_interpreter_plus_0_9_cubes(self, tmp_path):
        # simulate holds the endmember maps while it draws them, blurs them in
        # one plane buffer per thread and standardizes them one map at a
        # time, then one block of pixels per thread while it writes, never
        # the cube. Measured on a 2-vCPU box, 31x256x256 (a cube is 16.25 MB),
        # --threads 2 (MB = 1e6 bytes): a bare interpreter peaks at 29.6-29.8
        # MB, simulate at 43.3 MB (0.83 cubes above it), at 46.5-46.7 MB with
        # the whole-array std and the transforms' own temporaries, and at
        # 64.0-64.1 MB when it made and saved the cube
        pytest.importorskip("resource")
        peak = cli_peak_rss_mb(["simulate", "--threads", "2", "--bands", "31", "--size", "256",
                                "--seed", "0"], tmp_path / "gt.cube")
        assert peak < bare_peak_rss_mb() + 0.9 * 31 * 256 * 256 * 8 / 1e6

    def test_degrade_peak_stays_below_a_bare_interpreter_plus_0_75_cubes(self, scored_files, tmp_path):
        # degrade holds y, z, a band per thread for y and a block of pixels
        # per thread for z, never the input cube. Measured on a 2-vCPU box,
        # 31x256x256 (a cube is 16.25 MB), --threads 2 (MB = 1e6 bytes): a
        # bare interpreter peaks at 29.6-29.8 MB, degrade at 37.9 MB, and
        # at 54.1-54.3 MB when it loaded the cube
        pytest.importorskip("resource")
        peak = cli_peak_rss_mb(["degrade", "--threads", "2", "--in", scored_files[256][1],
                                "--blur", "block:8", "--factor", "8", "--out-z",
                                str(tmp_path / "z.cube")], tmp_path / "y.cube", out_flag="--out-y")
        assert peak < bare_peak_rss_mb() + 0.75 * 31 * 256 * 256 * 8 / 1e6

    def test_degrade_peak_rss_grows_little_with_the_pool(self, scored_files, tmp_path):
        # each pool item reads and blurs one band, or reads and mixes one
        # block of pixels. Measured on a 2-vCPU box, 31x256x256, --threads 8
        # minus --threads 1 (MB = 1e6 bytes): 11.9-12.0 with the cube loaded
        # whole, 12.0-12.2 reading it band by band and block by block, and
        # 11.6-11.7 with one half-spectrum buffer per blurred band
        pytest.importorskip("resource")
        peaks = [
            cli_peak_rss_mb(["degrade", "--threads", threads, "--in", scored_files[256][1],
                             "--blur", "block:8", "--factor", "8", "--out-z",
                             str(tmp_path / f"z{threads}.cube")],
                            tmp_path / f"y{threads}.cube", out_flag="--out-y")
            for threads in ("1", "8")
        ]
        assert peaks[1] - peaks[0] < 13.0

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info < (3, 11),
        reason="CPython 3.10 keeps call arguments on the caller's stack until the call "
        "returns, so fuse cannot free a prior handed to it",
    )
    @pytest.mark.parametrize("prior", ["naive", "file"])
    def test_fuse_frees_the_prior_before_the_first_xstep(self, tmp_path, monkeypatch, prior):
        # a prior file's cube is freed once fuse holds its spectrum; the naive
        # prior is built as its spectrum, so the CLI never makes its cube. At
        # the first x-step no float64 array of the high-resolution shape is
        # held by any object or by a frame of the call stack
        import hsfuse.priors
        import hsfuse.sylvester

        write_inputs(tmp_path, 8, 16, 2)
        prior_path = str(tmp_path / "prior.cube")
        refs, alive, held = [], [], []
        load = hsfuse.io.load_cube
        solve_spectrum = hsfuse.sylvester.solve_spectrum

        def recording_load(*args, **kwargs):
            cube = load(*args, **kwargs)
            if args[0] == prior_path:
                refs.append(weakref.ref(cube.data))
            return cube

        def no_prior_cube(*args, **kwargs):
            raise AssertionError("the CLI built a naive prior cube")

        def probed_solve(*args, **kwargs):
            if not held:
                held.append(hr_arrays_alive((8, 16, 16)))
            alive.extend(ref() is not None for ref in refs)
            return solve_spectrum(*args, **kwargs)

        monkeypatch.setattr(hsfuse.priors, "make_prior", no_prior_cube)
        monkeypatch.setattr(hsfuse.io, "load_cube", recording_load)
        monkeypatch.setattr(hsfuse.sylvester, "solve_spectrum", probed_solve)
        spec = "naive" if prior == "naive" else "file:" + prior_path
        rc = main(["fuse", "--y", str(tmp_path / "y.cube"), "--z", str(tmp_path / "z.cube"),
                   "--prior", spec, "--iters", "2", "--out", str(tmp_path / "x.cube")])
        assert rc == 0
        assert held == [0]
        if prior == "file":
            assert len(refs) == 1 and alive == [False, False]
        else:
            assert refs == []
