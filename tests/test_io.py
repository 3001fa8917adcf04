import json

import numpy as np
import pytest

import hsfuse.io
from helpers import rand_cube
from hsfuse.cli import _write_manifest
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
    export_error_map,
    load_cube,
    load_srf_csv,
    save_cube,
    save_srf_csv,
)


class TestCubeContainer:
    def test_roundtrip_f64_is_bitwise(self, rng, tmp_path):
        cube = rand_cube(rng, 3, 5, 7)
        path = tmp_path / "a.cube"
        save_cube(path, cube)
        again = load_cube(path)
        assert np.array_equal(again.data, cube.data)

    def test_roundtrip_f32_quantizes(self, rng, tmp_path):
        cube = rand_cube(rng, 2, 4, 4)
        path = tmp_path / "a.cube"
        save_cube(path, cube, dtype="f32")
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

    @pytest.mark.parametrize("write", ["cube", "manifest"])
    def test_failed_write_keeps_previous_file(self, rng, tmp_path, monkeypatch, write):
        path = tmp_path / "out"
        path.write_bytes(b"previous contents")
        real_open = open

        def open_then_fail(file, mode="r", *args, **kwargs):
            # the disk fills after the first bytes land
            fh = real_open(file, mode, *args, **kwargs)
            fh.write(b"\0" if "b" in mode else "\0")
            fh.close()
            raise OSError("no space left on device")

        monkeypatch.setattr(hsfuse.io, "open", open_then_fail, raising=False)
        with pytest.raises(OSError):
            if write == "cube":
                save_cube(path, rand_cube(rng, 2, 3, 4))
            else:
                _write_manifest(str(path), {"command": "fuse"})
        assert path.read_bytes() == b"previous contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_save_validation(self, rng, tmp_path):
        cube = rand_cube(rng, 1, 2, 2)
        with pytest.raises(ValidationError):
            save_cube(tmp_path / "x", cube, dtype="f16")
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


class TestSrfCsv:
    def test_roundtrip(self, tmp_path):
        srf = SpectralResponse.default_rgb(16)
        path = tmp_path / "srf.csv"
        save_srf_csv(path, srf, names=("red", "green", "blue"))
        again = load_srf_csv(path)
        assert np.allclose(again.matrix, srf.matrix, rtol=0, atol=1e-12)
        text = path.read_text().splitlines()
        assert text[0] == "band,red,green,blue"
        assert text[1].startswith("1,")  # channel numbering is 1-based on disk

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

    def test_names_validated(self, tmp_path):
        srf = SpectralResponse.default_rgb(8)
        with pytest.raises(ValidationError):
            save_srf_csv(tmp_path / "x.csv", srf, names=("only-one",))


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
