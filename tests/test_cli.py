import json
import os

import numpy as np
import pytest

from hsfuse.cli import main
from hsfuse.io import load_cube


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


class TestExitCodes:
    def test_validation_errors_exit_2(self, pipeline):
        tmp, paths = pipeline
        out = str(tmp / "o.cube")
        assert main(["fuse", "--y", paths["y"], "--z", paths["gt"], "--out", out]) == 2
        assert (
            main(["fuse", "--y", paths["y"], "--z", paths["z"], "--prior", "guess",
                  "--out", out]) == 2
        )
        assert (
            main(["degrade", "--in", paths["gt"], "--blur", "wedge:3", "--factor", "4",
                  "--out-y", str(tmp / "a"), "--out-z", str(tmp / "b")]) == 2
        )
        assert (
            main(["degrade", "--in", paths["gt"], "--blur", "block:nope", "--factor", "4",
                  "--out-y", str(tmp / "a"), "--out-z", str(tmp / "b")]) == 2
        )
        assert (
            main(["errormap", "--x-hat", paths["gt"], "--ref", paths["gt"],
                  "--band", "1", "--wavelength", "540", "--out", str(tmp / "e.pgm")]) == 2
        )
        assert (
            main(["errormap", "--x-hat", paths["gt"], "--ref", paths["gt"],
                  "--band", "99", "--out", str(tmp / "e.pgm")]) == 2
        )
        assert main(["simulate", "--bands", "4", "--size", "3", "--out", out]) == 2

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


class TestThreads:
    def test_flag_pins_environment(self, tmp_path, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        rc = main(["simulate", "--bands", "4", "--size", "8", "--endmembers", "2",
                   "--threads", "1", "--out", str(tmp_path / "s.cube")])
        assert rc == 0
        assert os.environ["OMP_NUM_THREADS"] == "1"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HSFUSE_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        rc = main(["simulate", "--bands", "4", "--size", "8", "--endmembers", "2",
                   "--out", str(tmp_path / "s.cube")])
        assert rc == 0
        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_invalid_values_exit_2(self, tmp_path, monkeypatch):
        rc = main(["simulate", "--bands", "4", "--size", "8", "--endmembers", "2",
                   "--threads", "0", "--out", str(tmp_path / "s.cube")])
        assert rc == 2
        monkeypatch.setenv("HSFUSE_THREADS", "many")
        rc = main(["simulate", "--bands", "4", "--size", "8", "--endmembers", "2",
                   "--out", str(tmp_path / "s.cube")])
        assert rc == 2
