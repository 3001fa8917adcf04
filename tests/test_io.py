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
    BandReader,
    band_index_for_wavelength,
    export_error_map,
    load_cube,
    load_srf_csv,
    open_cube,
    save_blocks,
    save_cube,
)
from hsfuse.metrics import evaluate


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

    def test_f32_load_passes_through_one_band_plane(self, rng, tmp_path):
        import tracemalloc

        cube = rand_cube(rng, 31, 64, 64)
        path = tmp_path / "a.cube"
        head = {"bands": 31, "height": 64, "width": 64, "dtype": "f32", "layout": "band-major"}
        values = cube.data.astype("<f4")
        path.write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + values.tobytes())
        tracemalloc.start()
        try:
            again = load_cube(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(again.data, values.astype(np.float64))
        # the float64 cube, one f32 plane and the finiteness scan's mask (1/8
        # cube); an f32 copy of the whole payload would add half a cube
        assert peak < 1.25 * cube.data.nbytes

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

    def test_block_writer_writes_the_saved_cube(self, rng, tmp_path, monkeypatch):
        import hsfuse.cube

        cube = rand_cube(rng, 3, 7, 9)
        save_cube(tmp_path / "want.cube", cube, scale=(-1, 1))
        flat = cube.as_matrix()
        # blocks of 16 pixels, the last of 15, written in any order by 3 threads
        monkeypatch.setattr(hsfuse.cube, "_BLOCK_COLUMNS", 16)
        monkeypatch.setenv("HSFUSE_THREADS", "3")
        save_blocks(tmp_path / "got.cube", (3, 7, 9), lambda cols: flat[:, cols], scale=(-1, 1))
        assert (tmp_path / "got.cube").read_bytes() == (tmp_path / "want.cube").read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_block_writer_refuses_a_non_finite_block(self, rng, tmp_path, bad):
        # a cube load_cube would reject is never written: the previous file
        # stays, and no temp file is left
        path = tmp_path / "out.cube"
        path.write_bytes(b"previous contents")
        flat = rand_cube(rng, 2, 64, 80).as_matrix().copy()
        flat[1, 4096 + 7] = bad  # in the second of the default blocks of 4,096 pixels

        with pytest.raises(ValidationError, match="finite"):
            save_blocks(path, (2, 64, 80), lambda cols: flat[:, cols])
        assert path.read_bytes() == b"previous contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out.cube"]

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

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "bad.cube"
        path.write_bytes(MAGIC + b"[31, 64, 64]\n")
        with pytest.raises(CubeFormatError, match="header must be a JSON object"):
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
        # export_error_map reads every band of two files and maps one, byte
        # for byte as it maps the loaded cubes
        a, b = rand_cube(rng, 4, 5, 3, 0.0, 1.0), rand_cube(rng, 4, 5, 3, 0.0, 1.0)
        save_cube(tmp_path / "a.cube", a)
        save_cube(tmp_path / "b.cube", b)
        for band in range(4):
            export_error_map(a, b, band, tmp_path / "cubes.pgm", max_error=0.5)
            export_error_map(tmp_path / "a.cube", tmp_path / "b.cube", band, tmp_path / "files.pgm",
                             max_error=0.5)
            export_error_map(a, str(tmp_path / "b.cube"), band, tmp_path / "mixed.pgm", max_error=0.5)
            want = (tmp_path / "cubes.pgm").read_bytes()
            assert (tmp_path / "files.pgm").read_bytes() == want
            assert (tmp_path / "mixed.pgm").read_bytes() == want
        with open_cube(tmp_path / "a.cube") as reader:
            assert reader.shape == (4, 5, 3)

    def test_f32_band_equals_the_whole_read(self, rng, tmp_path):
        cube, ref = rand_cube(rng, 3, 4, 4, 0.0, 1.0), rand_cube(rng, 3, 4, 4, 0.0, 1.0)
        path = tmp_path / "a.cube"
        head = {"bands": 3, "height": 4, "width": 4, "dtype": "f32", "layout": "band-major"}
        path.write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + cube.data.astype("<f4").tobytes())
        save_cube(tmp_path / "ref.cube", ref)
        for x_hat, x_ref in ((path, tmp_path / "ref.cube"), (tmp_path / "ref.cube", path)):
            export_error_map(x_hat, x_ref, 2, tmp_path / "files.pgm", max_error=0.5)
            export_error_map(load_cube(x_hat), load_cube(x_ref), 2, tmp_path / "cubes.pgm",
                             max_error=0.5)
            assert (tmp_path / "files.pgm").read_bytes() == (tmp_path / "cubes.pgm").read_bytes()

    def test_band_is_zero_based_and_checked(self, rng, tmp_path):
        path = tmp_path / "a.cube"
        save_cube(path, rand_cube(rng, 3, 2, 2))
        for band in (3, -1, 1.0):
            with pytest.raises(ValidationError):
                export_error_map(path, path, band, tmp_path / "e.pgm")
        assert not (tmp_path / "e.pgm").exists()

    @pytest.mark.parametrize(
        "kind", ["nan", "inf", "truncated", "trailing", "header", "magic", "dtype"]
    )
    def test_band_read_rejects_what_the_whole_read_rejects(self, rng, tmp_path, kind):
        # the non-finite values sit in band 3 of 5, so the maps of bands 0 and
        # 4 meet them only by reading the bands they do not map
        files, blob = bad_cube_files(tmp_path, rng)
        good = tmp_path / "other.cube"
        good.write_bytes(blob)
        with pytest.raises(CubeFormatError) as whole:
            load_cube(files[kind])
        for band in (0, 3, 4):
            for x_hat, x_ref in ((files[kind], good), (good, files[kind])):
                with pytest.raises(type(whole.value)) as streamed:
                    export_error_map(x_hat, x_ref, band, tmp_path / "e.pgm")
                assert str(files[kind]) in str(streamed.value)
        assert not (tmp_path / "e.pgm").exists()
        if kind not in ("nan", "inf"):  # the header and length checks alone
            with pytest.raises(type(whole.value)), open_cube(files[kind]) as reader:
                pytest.fail(f"opened with shape {reader.shape}")

    @pytest.mark.parametrize("kind", ["nan", "inf", "truncated", "trailing", "header", "magic", "dtype"])
    @pytest.mark.parametrize("role", ["x_hat", "x_ref"])
    def test_streamed_evaluate_rejects_what_the_whole_read_rejects(self, rng, tmp_path, kind, role):
        # evaluate reads through the same BandReader as export_error_map; the
        # non-finite values sit in band 3 of 5
        files, blob = bad_cube_files(tmp_path, rng, height=12, width=12)
        good = tmp_path / "other.cube"
        good.write_bytes(blob)
        with pytest.raises(CubeFormatError) as whole:
            load_cube(files[kind])
        paths = {"x_hat": good, "x_ref": good, role: files[kind]}
        with pytest.raises(type(whole.value)) as streamed:
            evaluate(paths["x_hat"], paths["x_ref"], factor=1)
        assert str(files[kind]) in str(streamed.value)

    def test_reader_upcasts_f32_and_skips_bands(self, rng, tmp_path):
        cube = rand_cube(rng, 3, 4, 5)
        path = tmp_path / "a.cube"
        head = {"bands": 3, "height": 4, "width": 5, "dtype": "f32", "layout": "band-major"}
        path.write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + cube.data.astype("<f4").tobytes())
        plane = np.empty((4, 5))
        with open(path, "rb") as fh:
            reader = BandReader(fh, path)
            assert reader.shape == (3, 4, 5)
            assert reader.band(1, plane) is plane  # band 0 is never read
            assert np.array_equal(plane, cube.data[1].astype(np.float32))
            assert np.array_equal(reader.band(2), cube.data[2].astype(np.float32))
            with pytest.raises(TruncatedPayloadError, match=str(path)):
                reader.band(3, plane)  # past the last band

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_reads_by_index_and_by_pixels_equal_the_whole_read(self, rng, tmp_path, dtype):
        cube = rand_cube(rng, 4, 5, 7)
        path = tmp_path / "a.cube"
        head = {"bands": 4, "height": 5, "width": 7, "dtype": dtype, "layout": "band-major"}
        values = cube.data.astype({"f64": "<f8", "f32": "<f4"}[dtype])
        path.write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + values.tobytes())
        whole = load_cube(path).data
        with open_cube(path) as reader, open_cube(load_cube(path)) as views:
            for k in (3, 0, 2):
                assert np.array_equal(reader.band(k), whole[k])
                assert np.array_equal(views.band(k), whole[k])
            pixels = reader.pixels(slice(9, 30))
            assert pixels.shape == (4, 21)
            assert np.array_equal(pixels, whole.reshape(4, -1)[:, 9:30])
            assert np.array_equal(views.pixels(slice(9, 30)), pixels)
            # given ``out``, a cube's reads fill it as a file's do
            for read in (reader, views):
                plane, block = np.zeros((5, 7)), np.zeros((4, 21))
                assert read.band(1, plane) is plane
                assert np.array_equal(plane, whole[1])
                assert read.pixels(slice(9, 30), block) is block
                assert np.array_equal(block, pixels)

    def test_pool_items_share_a_reader(self, rng, tmp_path, monkeypatch):
        # more threads than cores and a short switch interval: a read that
        # lost the file position or the shared f32 buffer to another item
        # would give another band's or block's values
        import sys

        from hsfuse.cube import pool_map

        cube = rand_cube(rng, 6, 16, 16)
        path = tmp_path / "a.cube"
        head = {"bands": 6, "height": 16, "width": 16, "dtype": "f32", "layout": "band-major"}
        path.write_bytes(MAGIC + json.dumps(head).encode() + b"\n" + cube.data.astype("<f4").tobytes())
        whole = load_cube(path).data
        flat = whole.reshape(6, -1)
        monkeypatch.setenv("HSFUSE_THREADS", "8")
        jobs = [(k % 6, slice(k % 200, k % 200 + 56)) for k in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with open_cube(path) as reader:
                got = pool_map(lambda job: (reader.band(job[0]), reader.pixels(job[1])), jobs)
        finally:
            sys.setswitchinterval(interval)
        for (k, cols), (band, pixels) in zip(jobs, got):
            assert np.array_equal(band, whole[k])
            assert np.array_equal(pixels, flat[:, cols])

    def test_band_read_holds_two_bands(self, rng, tmp_path):
        import tracemalloc

        for name in ("a", "b"):
            save_cube(tmp_path / f"{name}.cube", rand_cube(rng, 31, 128, 128))
        args = (tmp_path / "a.cube", tmp_path / "b.cube", 7, tmp_path / "e.pgm")
        export_error_map(*args)
        tracemalloc.start()
        try:
            export_error_map(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the kept difference, one scan plane and a scan mask: 2.32 bands (5.03
        # when one band of each file was loaded whole and then mapped)
        assert peak < 2.6 * 128 * 128 * 8


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
