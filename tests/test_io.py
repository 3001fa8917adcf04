import json

import numpy as np
import pytest

import hsfuse.io
from helpers import bad_cube_files, rand_cube
from hsfuse.cli import _write_manifest, build_parser
from hsfuse.cube import HsiCube
from hsfuse.degradation import SpectralResponse
from hsfuse.errors import (
    BadMagicError,
    CubeFormatError,
    TruncatedPayloadError,
    UnknownDtypeError,
    ValidationError,
)
from hsfuse.io import (
    MAGIC,
    band_index_for_wavelength,
    cube_shape,
    export_error_map,
    load_cube,
    load_srf_csv,
    save_cube,
)


class TestCubeContainer:
    def test_roundtrip_f64_is_bitwise(self, rng, tmp_path):
        cube = rand_cube(rng, 3, 5, 7)
        path = tmp_path / "a.cube"
        save_cube(path, cube)
        again = load_cube(path)
        assert np.array_equal(again.data, cube.data)

    def test_roundtrip_f32_quantizes(self, rng, tmp_path):
        # the package writes f64 only; f32 files come from other tools
        cube = rand_cube(rng, 2, 4, 4)
        path = tmp_path / "a.cube"
        head = {"bands": 2, "height": 4, "width": 4, "dtype": "f32", "layout": "band-major"}
        payload = cube.data.astype("<f4").tobytes()
        path.write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + payload)
        again = load_cube(path)
        assert np.array_equal(again.data, cube.data.astype(np.float32).astype(np.float64))

    def test_f64_load_keeps_one_copy_of_the_payload(self, rng, tmp_path):
        import tracemalloc

        cube = rand_cube(rng, 4, 64, 64)
        path = tmp_path / "a.cube"
        save_cube(path, cube)
        tracemalloc.start()
        try:
            again = load_cube(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(again.data, cube.data)
        # one copy of the payload plus small temporaries; a bytes blob, a
        # slice of it and an upcast copy would need 3x
        assert peak < 2 * cube.data.nbytes
        # this header leaves the payload at file offset 3 mod 8; the array
        # must not inherit that misalignment
        assert again.data.flags.aligned

    def test_save_writes_the_payload_without_a_copy(self, rng, tmp_path):
        import tracemalloc

        cube = rand_cube(rng, 31, 64, 64)
        tracemalloc.start()
        try:
            save_cube(tmp_path / "a.cube", cube)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the file gets the array's own buffer; a bytes copy of the payload
        # would alone be 1x
        assert peak < 0.1 * cube.data.nbytes

    def test_header_layout(self, rng, tmp_path):
        cube = rand_cube(rng, 2, 3, 4)
        path = tmp_path / "a.cube"
        save_cube(path, cube, scale=(0.0, 1.0))
        blob = path.read_bytes()
        assert blob[:4] == MAGIC == b"HSRC"
        header = json.loads(blob[4 : blob.index(b"\n")])
        assert header == {
            "bands": 2,
            "height": 3,
            "width": 4,
            "dtype": "f64",
            "layout": "band-major",
            "scale": [0.0, 1.0],
        }
        payload = blob[blob.index(b"\n") + 1 :]
        assert len(payload) == 2 * 3 * 4 * 8
        # payload is the little-endian band-major values verbatim
        assert np.array_equal(
            np.frombuffer(payload, dtype="<f8").reshape(2, 3, 4), cube.data
        )

    def test_writes_are_reproducible(self, rng, tmp_path):
        cube = rand_cube(rng, 2, 3, 4)
        p1, p2 = tmp_path / "a.cube", tmp_path / "b.cube"
        save_cube(p1, cube)
        save_cube(p2, cube)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "write", ["cube", "manifest", "pgm", "evaluate-json", "evaluate-csv"]
    )
    def test_failed_write_keeps_previous_file(self, rng, tmp_path, monkeypatch, write):
        cube = rand_cube(rng, 2, 12, 12, lo=0.0, hi=1.0)
        cube_path = str(tmp_path / "in.cube")
        save_cube(cube_path, cube)
        out_dir = tmp_path / "out_dir"
        out_dir.mkdir()
        path = out_dir / "out"
        path.write_bytes(b"previous contents")
        real_open = open

        def open_then_fail(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" not in mode:
                return fh  # reads pass, so evaluate can load its inputs
            # the disk fills after the first bytes land
            fh.write(b"\0" if "b" in mode else "\0")
            fh.close()
            raise OSError("no space left on device")

        def evaluate(report_flag):
            args = build_parser().parse_args(
                ["evaluate", "--x-hat", cube_path, "--ref", cube_path, "--factor", "2",
                 report_flag, str(path)]
            )
            args.func(args)

        writes = {
            "cube": lambda: save_cube(path, cube),
            "manifest": lambda: _write_manifest(str(path), {"command": "fuse"}),
            "pgm": lambda: export_error_map(cube, cube, 0, path),
            "evaluate-json": lambda: evaluate("--json"),
            "evaluate-csv": lambda: evaluate("--csv"),
        }
        monkeypatch.setattr(hsfuse.io, "open", open_then_fail, raising=False)
        with pytest.raises(OSError):
            writes[write]()
        assert path.read_bytes() == b"previous contents"
        # no temp file is left behind, nor a manifest from the failed command
        assert [p.name for p in out_dir.iterdir()] == ["out"]

    def test_failed_write_names_the_target_path(self, rng, tmp_path):
        # the temp file is an implementation detail the caller never named
        path = tmp_path / "missing" / "y.cube"
        with pytest.raises(FileNotFoundError) as info:
            save_cube(path, rand_cube(rng, 2, 4, 4))
        assert str(path) in str(info.value)
        assert ".tmp" not in str(info.value)
        assert info.value.filename == str(path)

    def test_save_validation(self, rng, tmp_path):
        cube = rand_cube(rng, 1, 2, 2)
        with pytest.raises(ValidationError):
            save_cube(tmp_path / "x", cube, scale=(1.0, 1.0))

    def _valid_blob(self, tmp_path, rng):
        cube = rand_cube(rng, 2, 3, 4)
        path = tmp_path / "good.cube"
        save_cube(path, cube)
        return path.read_bytes()

    def test_bad_magic(self, tmp_path, rng):
        path = tmp_path / "bad.cube"
        path.write_bytes(b"NOPE" + self._valid_blob(tmp_path, rng)[4:])
        with pytest.raises(BadMagicError):
            load_cube(path)
        path.write_bytes(b"HS")
        with pytest.raises(BadMagicError):
            load_cube(path)

    def test_unterminated_header(self, tmp_path):
        path = tmp_path / "bad.cube"
        path.write_bytes(MAGIC + b'{"bands":1')
        with pytest.raises(CubeFormatError):
            load_cube(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "bad.cube"
        path.write_bytes(MAGIC + b"not json\n")
        with pytest.raises(CubeFormatError):
            load_cube(path)

    def test_header_missing_key(self, tmp_path):
        path = tmp_path / "bad.cube"
        path.write_bytes(MAGIC + b'{"bands":1,"height":1,"width":1,"dtype":"f64"}\n' + b"\0" * 8)
        with pytest.raises(CubeFormatError):
            load_cube(path)

    def test_bad_layout_and_dims(self, tmp_path):
        path = tmp_path / "bad.cube"
        head = {"bands": 1, "height": 1, "width": 1, "dtype": "f64", "layout": "pixel-major"}
        path.write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + b"\0" * 8)
        with pytest.raises(CubeFormatError):
            load_cube(path)
        head["layout"] = "band-major"
        head["height"] = 0
        path.write_bytes(MAGIC + json.dumps(head).encode() + b"\n")
        with pytest.raises(CubeFormatError):
            load_cube(path)

    def test_unknown_dtype(self, tmp_path):
        path = tmp_path / "bad.cube"
        head = {"bands": 1, "height": 1, "width": 1, "dtype": "i32", "layout": "band-major"}
        path.write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + b"\0" * 4)
        with pytest.raises(UnknownDtypeError):
            load_cube(path)
        head["dtype"] = ["f64"]  # not hashable: must not escape as a TypeError
        path.write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + b"\0" * 8)
        with pytest.raises(UnknownDtypeError):
            load_cube(path)

    @pytest.mark.parametrize("key", ["bands", "height", "width"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2", True])
    def test_dimensions_must_be_json_integers(self, tmp_path, key, value):
        head = {"bands": 1, "height": 1, "width": 1, "dtype": "f64", "layout": "band-major"}
        head[key] = value
        # the payload int(value) promises, so only the type check can reject the file
        path = tmp_path / "bad.cube"
        path.write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + b"\0" * (8 * int(value)))
        with pytest.raises(CubeFormatError, match="JSON integers"):
            load_cube(path)

    def test_truncated_payload(self, tmp_path, rng):
        blob = self._valid_blob(tmp_path, rng)
        path = tmp_path / "short.cube"
        path.write_bytes(blob[:-1])
        with pytest.raises(TruncatedPayloadError):
            load_cube(path)

    def test_trailing_bytes(self, tmp_path, rng):
        blob = self._valid_blob(tmp_path, rng)
        path = tmp_path / "long.cube"
        path.write_bytes(blob + b"\0")
        with pytest.raises(CubeFormatError):
            load_cube(path)

    def test_non_finite_payload(self, tmp_path):
        head = {"bands": 1, "height": 1, "width": 1, "dtype": "f64", "layout": "band-major"}
        payload = np.array([np.nan]).tobytes()
        path = tmp_path / "nan.cube"
        path.write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + payload)
        with pytest.raises(CubeFormatError):
            load_cube(path)

    def test_load_scans_the_payload_for_non_finite_values_once(self, rng, tmp_path, monkeypatch):
        cube = rand_cube(rng, 3, 8, 8)
        path = tmp_path / "a.cube"
        save_cube(path, cube)
        scans = []
        isfinite = np.isfinite

        def counting(x, *args, **kwargs):
            if np.size(x) == cube.data.size:
                scans.append(1)
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        load_cube(path)
        assert len(scans) == 1


class TestBandRead:
    def test_band_equals_the_whole_read(self, rng, tmp_path):
        cube = rand_cube(rng, 4, 5, 3)
        path = tmp_path / "a.cube"
        save_cube(path, cube)
        for band in range(4):
            got = load_cube(path, band)
            assert np.array_equal(got.data, cube.data[band : band + 1])
        assert cube_shape(path) == (4, 5, 3)

    def test_f32_band_equals_the_whole_read(self, rng, tmp_path):
        cube = rand_cube(rng, 3, 4, 4)
        path = tmp_path / "a.cube"
        head = {"bands": 3, "height": 4, "width": 4, "dtype": "f32", "layout": "band-major"}
        path.write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + cube.data.astype("<f4").tobytes())
        assert np.array_equal(load_cube(path, 2).data, load_cube(path).data[2:])

    def test_band_is_zero_based_and_checked(self, rng, tmp_path):
        path = tmp_path / "a.cube"
        save_cube(path, rand_cube(rng, 3, 2, 2))
        for band in (3, -1, 1.0):
            with pytest.raises(ValidationError):
                load_cube(path, band)

    @pytest.mark.parametrize("kind", ["nan", "inf", "truncated", "trailing", "header", "magic"])
    def test_band_read_rejects_what_the_whole_read_rejects(self, rng, tmp_path, kind):
        path = bad_cube_files(tmp_path, rng)[0][kind]
        with pytest.raises(CubeFormatError) as whole:
            load_cube(path)
        for band in (0, 3, 4):
            with pytest.raises(type(whole.value)):
                load_cube(path, band)
        if kind not in ("nan", "inf"):  # the header and length checks alone
            with pytest.raises(type(whole.value)):
                cube_shape(path)

    def test_band_read_holds_two_bands(self, rng, tmp_path):
        import tracemalloc

        cube = rand_cube(rng, 31, 64, 64)
        path = tmp_path / "a.cube"
        save_cube(path, cube)
        load_cube(path, 0)
        tracemalloc.start()
        try:
            band = load_cube(path, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(band.data, cube.data[7:8])
        # the kept band, one reused buffer and a scan mask: about 2.2 bands
        assert peak < 3 * band.data.nbytes


class TestSrfCsv:
    def test_roundtrip(self, tmp_path):
        # the response transposed, one row per input channel, numbered from 1
        srf = SpectralResponse.default_rgb(16)
        rows = [
            f"{i + 1}," + ",".join(repr(float(v)) for v in col)
            for i, col in enumerate(srf.matrix.T)
        ]
        path = tmp_path / "srf.csv"
        path.write_text("\n".join(["band,red,green,blue", *rows]) + "\n")
        again = load_srf_csv(path)
        assert np.allclose(again.matrix, srf.matrix, rtol=0, atol=1e-12)

    def test_bad_tables(self, tmp_path):
        path = tmp_path / "srf.csv"
        path.write_text("wavelength,r\n1,0.5\n")
        with pytest.raises(CubeFormatError):
            load_srf_csv(path)
        path.write_text("band,r\n")
        with pytest.raises(CubeFormatError):
            load_srf_csv(path)
        path.write_text("band,r,g\n1,0.5\n")
        with pytest.raises(CubeFormatError):
            load_srf_csv(path)
        path.write_text("band,r,g\n1,0.5,abc\n")
        with pytest.raises(CubeFormatError):
            load_srf_csv(path)
        # a table the response constructor rejects surfaces as a format error
        path.write_text("band,r,g,h\n1,0.5,0.5,0.5\n2,0.1,0.1,0.1\n")
        with pytest.raises(CubeFormatError):
            load_srf_csv(path)
        # band indices must run 1, 2, 3, ... in row order: a shuffled table
        # would give its weights to the wrong channels
        weights = ["1,0,0", "0,1,0", "0,0,1", "1,1,1"]

        def write(indices):
            rows = [f"{i},{w}" for i, w in zip(indices, weights)]
            path.write_text("band,r,g,b\n" + "\n".join(rows) + "\n")

        write(["1", "2", "3", "4"])
        want = [[0.5, 0, 0, 0.5], [0, 0.5, 0, 0.5], [0, 0, 0.5, 0.5]]
        assert np.array_equal(load_srf_csv(path).matrix, want)
        shuffled, non_integer, empty, gapped = "3124", "123x", ["1", "2", "3", ""], "1235"
        for indices in (shuffled, non_integer, empty, gapped):
            write(indices)
            with pytest.raises(CubeFormatError, match="band index"):
                load_srf_csv(path)


class TestErrorMap:
    def test_p5_layout_and_quantization(self, tmp_path):
        a = np.zeros((2, 2, 3))
        b = np.zeros((2, 2, 3))
        b[1, 0, 0] = 0.05  # half of max_error -> 127.5 -> rounds half up to 128
        b[1, 0, 1] = 0.2  # clips at 255
        b[1, 1, 2] = 0.1  # exactly max_error -> 255
        path = tmp_path / "err.pgm"
        export_error_map(HsiCube(a), HsiCube(b), band=1, path=path, max_error=0.1)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n3 2\n255\n")
        pixels = np.frombuffer(blob[len(b"P5\n3 2\n255\n") :], dtype=np.uint8)
        assert pixels.tolist() == [128, 255, 0, 0, 0, 255]

    def test_band_is_zero_based_and_checked(self, rng, tmp_path):
        a = rand_cube(rng, 3, 4, 4)
        with pytest.raises(ValidationError):
            export_error_map(a, a, band=3, path=tmp_path / "x.pgm")
        with pytest.raises(ValidationError):
            export_error_map(a, a, band=-1, path=tmp_path / "x.pgm")
        with pytest.raises(ValidationError):
            export_error_map(a, rand_cube(rng, 3, 4, 5), band=0, path=tmp_path / "x.pgm")
        with pytest.raises(ValidationError):
            export_error_map(a, a, band=0, path=tmp_path / "x.pgm", max_error=0.0)


class TestWavelengthLookup:
    def test_known_grid(self):
        # 31 bands spanning 400-700 nm: centers every 10 nm; 540 nm is index 14
        assert band_index_for_wavelength(540.0, 31) == 14
        assert band_index_for_wavelength(400.0, 31) == 0
        assert band_index_for_wavelength(700.0, 31) == 30

    def test_out_of_range_clamps(self):
        assert band_index_for_wavelength(350.0, 31) == 0
        assert band_index_for_wavelength(900.0, 31) == 30

    def test_custom_grid(self):
        assert band_index_for_wavelength(500.0, 4, lo_nm=400.0, hi_nm=700.0) == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            band_index_for_wavelength(500.0, 0)
        with pytest.raises(ValidationError):
            band_index_for_wavelength(np.nan, 31)
        with pytest.raises(ValidationError):
            band_index_for_wavelength(500.0, 31, lo_nm=700.0, hi_nm=400.0)
