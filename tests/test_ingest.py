import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrvision.ingest import (
    RELEASE_BYTES,
    VideoMeta,
    load_manifest,
    open_source,
    _frame_index,
    read_pnm,
    side_file,
    to_grayscale,
    write_manifest,
    write_pnm,
)

from conftest import make_recording


def _write_manifest(d, directory, **kw):
    payload = {
        "width": 32,
        "height": 24,
        "fps": 30.0,
        "frame_count": 3,
        "pixel_format": "RGB24",
    }
    payload.update(kw)
    with open(directory / "meta.json", "w") as fh:
        json.dump(payload, fh)
    return payload


class TestManifest:
    def test_round_trip(self, tmp_path):
        meta = VideoMeta(64, 48, 25.0, 10, "GRAY8")
        write_manifest(tmp_path / "meta.json", meta)
        assert load_manifest(tmp_path / "meta.json") == meta

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing manifest"):
            load_manifest(tmp_path / "meta.json")

    def test_extra_key_rejected(self, tmp_path):
        _write_manifest(None, tmp_path, codec="h264")
        with pytest.raises(ValueError, match="exactly"):
            load_manifest(tmp_path / "meta.json")

    def test_missing_key_rejected(self, tmp_path):
        payload = _write_manifest(None, tmp_path)
        del payload["fps"]
        (tmp_path / "meta.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="exactly"):
            load_manifest(tmp_path / "meta.json")

    @pytest.mark.parametrize("payload", ["5", "[]", '["width"]'])
    def test_non_object_rejected(self, tmp_path, payload):
        (tmp_path / "meta.json").write_text(payload)
        with pytest.raises(ValueError, match="must be an object"):
            load_manifest(tmp_path / "meta.json")

    @pytest.mark.parametrize("bad", [dict(width=8), dict(fps=0), dict(frame_count=-1),
                                     dict(pixel_format="YUV")])
    def test_invariants(self, tmp_path, bad):
        _write_manifest(None, tmp_path, **bad)
        with pytest.raises(ValueError):
            load_manifest(tmp_path / "meta.json")

    @pytest.mark.parametrize("bad", [dict(fps=float("inf")), dict(fps=float("nan")),
                                     dict(fps="30"), dict(width=32.9), dict(height=24.5),
                                     dict(frame_count=3.5), dict(frame_count=True)])
    def test_non_finite_fps_or_fractional_sizes_rejected(self, tmp_path, bad):
        _write_manifest(None, tmp_path, **bad)
        with pytest.raises(ValueError, match="finite number|must be integers"):
            load_manifest(tmp_path / "meta.json")


class TestPnm:
    @pytest.mark.parametrize("shape", [(24, 32, 3), (24, 32)])
    def test_round_trip_bit_exact(self, tmp_path, shape):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=shape, dtype=np.uint8)
        path = tmp_path / ("f.ppm" if len(shape) == 3 else "f.pgm")
        write_pnm(path, data)
        assert np.array_equal(read_pnm(path), data)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "f.pgm"
        payload = bytes(range(16))
        path.write_bytes(b"P5\n# a comment\n4 4\n255\n" + payload)
        assert read_pnm(path).tobytes() == payload

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\0" * 15)
        with pytest.raises(ValueError, match="size mismatch"):
            read_pnm(path)

    @pytest.mark.parametrize("header, channels", [
        (b"P5#magic\n4\n# width\n4\n#height\n255\n", 1),
        (b"P5\t4\t4\t255\t", 1),
        (b"P5\r4\r4\r255\n", 1),
        (b"P5\r\n4\r\n4\r\n255\n", 1),
        (b"P5\n# Created by GIMP version 2.10.34 PNM plug-in\n4 4\n255\n", 1),
        (b"P5 4 4 255\r", 1),
        (b"P6\n4 4\n255\n", 3),
    ], ids=["comments_before_each_token", "tabs", "cr", "crlf", "gimp", "cr_before_raster", "p6"])
    def test_header_grammar_decodes_bit_exactly(self, tmp_path, header, channels):
        path = tmp_path / "f.pnm"
        payload = bytes(range(16 * channels))
        path.write_bytes(header + payload)
        data = read_pnm(path)
        assert data.shape == ((4, 4, 3) if channels == 3 else (4, 4))
        assert data.tobytes() == payload

    @pytest.mark.parametrize("content, message", [
        (b"P5\n160", "malformed PNM header"),
        (b"P5\nfour 4\n255\n" + bytes(16), "malformed PNM header"),
        (b"P7\n4 4\n255\n" + bytes(16), "malformed PNM header"),
        (b"P5\n4 4\n65535\n" + bytes(32), "only maxval 255 is supported, got 65535"),
        (b"P5\n4#glued\n4\n255\n" + bytes(16), "malformed PNM header"),
    ], ids=["truncated", "non_numeric", "magic_p7", "maxval_65535", "comment_glued_to_digit"])
    def test_malformed_header_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "frame_000002.pgm"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=rf"^{message} in frame_000002\.pgm$"):
            read_pnm(path)


class TestOpenSource:
    def _make_dir_source(self, tmp_path, n=3, w=32, h=24):
        rng = np.random.default_rng(1)
        frames = [rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8) for _ in range(n)]
        for i, f in enumerate(frames):
            write_pnm(tmp_path / f"frame_{i:06d}.ppm", f)
        _write_manifest(None, tmp_path, width=w, height=h, frame_count=n)
        return frames

    def test_image_dir(self, tmp_path):
        frames = self._make_dir_source(tmp_path)
        meta, stream = open_source(tmp_path)
        decoded = list(stream)
        assert meta.fps == 30.0
        assert [f.index for f in decoded] == [0, 1, 2]
        for got, want in zip(decoded, frames):
            assert np.array_equal(got.data, want)

    @pytest.mark.parametrize("index", [0, 999_999, 1_000_000, 12_345_678])
    def test_frame_name_rule_takes_every_index_frame_name_writes(self, index):
        meta = VideoMeta(32, 24, 30.0, index + 1, "GRAY8")
        assert _frame_index(meta.frame_name(index), meta) == index

    @pytest.mark.parametrize("name", ["frame_0000001.pgm", "frame_000001.ppm", "frame_00001.pgm"])
    def test_frame_name_rule_ignores_other_names(self, name):
        assert _frame_index(name, VideoMeta(32, 24, 30.0, 2, "GRAY8")) is None

    def test_corrupt_frame_header_names_the_file(self, tmp_path):
        self._make_dir_source(tmp_path)
        (tmp_path / "frame_000001.ppm").write_bytes(b"P6\n160")
        _, stream = open_source(tmp_path)
        with pytest.raises(ValueError, match=r"^malformed PNM header in frame_000001\.ppm$"):
            list(stream)

    def test_non_contiguous_indices(self, tmp_path):
        self._make_dir_source(tmp_path)
        (tmp_path / "frame_000001.ppm").rename(tmp_path / "frame_000005.ppm")
        with pytest.raises(ValueError, match="non-contiguous"):
            open_source(tmp_path)

    def test_frame_size_mismatch(self, tmp_path):
        self._make_dir_source(tmp_path)
        write_pnm(tmp_path / "frame_000001.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        meta, stream = open_source(tmp_path)
        with pytest.raises(ValueError, match="size mismatch"):
            list(stream)

    @pytest.mark.parametrize("fmt, ext, channels", [("GRAY8", "pgm", 3), ("RGB24", "ppm", 1)])
    def test_frame_of_the_other_pixel_format_is_rejected(self, tmp_path, fmt, ext, channels):
        # as wide and high as the manifest says, but P6 among .pgm frames or P5 among .ppm
        _write_manifest(None, tmp_path, pixel_format=fmt, frame_count=3)
        meta = load_manifest(tmp_path / "meta.json")
        odd = (24, 32, 3) if channels == 3 else (24, 32)
        for i in range(3):
            write_pnm(tmp_path / f"frame_{i:06d}.{ext}",
                      np.zeros(odd if i == 1 else meta.frame_shape, dtype=np.uint8))
        _, stream = open_source(tmp_path)
        assert next(stream).data.shape == meta.frame_shape
        with pytest.raises(ValueError, match="size mismatch at frame 1"):
            next(stream)

    def test_raw_size_mismatch(self, tmp_path):
        _write_manifest(None, tmp_path, pixel_format="RGB24", frame_count=3)
        (tmp_path / "v.rgb24").write_bytes(b"\0" * (32 * 24 * 3 * 3 - 1))
        with pytest.raises(ValueError, match="size mismatch"):
            open_source(tmp_path / "v.rgb24")

    def test_raw_truncated_after_open(self, tmp_path):
        _write_manifest(None, tmp_path, pixel_format="GRAY8", frame_count=3)
        path = tmp_path / "v.gray8"
        path.write_bytes(b"\0" * (32 * 24 * 3))
        meta, stream = open_source(path)
        path.write_bytes(b"\0" * (32 * 24 * 2 + 5))  # shrinks while the stream is open
        assert next(stream).index == 0
        assert next(stream).index == 1
        with pytest.raises(ValueError, match="size mismatch reading frame 2"):
            next(stream)

    def test_raw_frames_are_read_only(self, tmp_path):
        _write_manifest(None, tmp_path, pixel_format="RGB24", frame_count=1)
        (tmp_path / "v.rgb24").write_bytes(b"\0" * (32 * 24 * 3))
        meta, stream = open_source(tmp_path / "v.rgb24")
        assert not next(stream).data.flags.writeable

    def test_raw_format_mismatch(self, tmp_path):
        _write_manifest(None, tmp_path, pixel_format="RGB24", frame_count=1)
        (tmp_path / "v.gray8").write_bytes(b"\0" * (32 * 24))
        with pytest.raises(ValueError, match="does not match"):
            open_source(tmp_path / "v.gray8")

    def test_raw_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = rng.integers(0, 256, size=(4, 24, 32), dtype=np.uint8)
        _write_manifest(None, tmp_path, pixel_format="GRAY8", frame_count=4)
        (tmp_path / "v.gray8").write_bytes(frames.tobytes())
        meta, stream = open_source(tmp_path / "v.gray8")
        for i, f in enumerate(stream):
            assert f.index == i
            assert np.array_equal(f.data, frames[i])

    def test_raw_frames_survive_page_release(self, tmp_path):
        # 5,000-byte frames straddle pages, and 1.2 MB spans several release batches
        w, h, n = 100, 50, 240
        assert n * w * h >= 4 * RELEASE_BYTES
        rng = np.random.default_rng(4)
        frames = rng.integers(0, 256, size=(n, h, w), dtype=np.uint8)
        _write_manifest(None, tmp_path, width=w, height=h, pixel_format="GRAY8", frame_count=n)
        (tmp_path / "v.gray8").write_bytes(frames.tobytes())
        meta, stream = open_source(tmp_path / "v.gray8")
        decoded = list(stream)  # every frame compared after the reader released it
        assert [f.index for f in decoded] == list(range(n))
        for f in decoded:
            assert np.array_equal(f.data, frames[f.index])

    def test_raw_zero_frames_yields_nothing(self, tmp_path):
        _write_manifest(None, tmp_path, pixel_format="GRAY8", frame_count=0)
        (tmp_path / "v.gray8").write_bytes(b"")
        meta, stream = open_source(tmp_path / "v.gray8")
        assert meta.frame_count == 0
        assert list(stream) == []

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    def test_raw_stream_memory_stays_flat(self, tmp_path):
        # 49 MB of VGA GRAY8: the mapped file pages must not pile up in the process
        w, h, n = 640, 480, 160
        pattern = np.arange(w * h, dtype=np.uint32).astype(np.uint8).tobytes()
        _write_manifest(None, tmp_path, width=w, height=h, pixel_format="GRAY8", frame_count=n)
        with open(tmp_path / "v.gray8", "wb") as fh:
            for _ in range(n):
                fh.write(pattern)
        meta, stream = open_source(tmp_path / "v.gray8")
        rss = [_vm_rss_bytes()]
        for frame in stream:
            assert frame.data.max() == 255  # touches every page of the frame
            if frame.index % 8 == 7:
                rss.append(_vm_rss_bytes())
        assert max(rss) - rss[0] < 8 * 2**20, [r // 2**20 for r in rss]

    def test_sixty_seconds_at_thirty_fps_is_1800_frames(self, tmp_path):
        w, h, n = 16, 16, 1800
        _write_manifest(None, tmp_path, width=w, height=h, pixel_format="GRAY8", frame_count=n)
        (tmp_path / "v.gray8").write_bytes(b"\x7f" * (w * h * n))
        meta, stream = open_source(tmp_path / "v.gray8")
        assert meta.frame_count == 1800
        assert sum(1 for _ in stream) == 1800


class TestSideFile:
    def test_in_the_sequence_directory_or_beside_the_raw_file(self, tmp_path):
        (tmp_path / "seq").mkdir()
        assert side_file(tmp_path / "seq", "landmarks.csv") == tmp_path / "seq/landmarks.csv"
        assert side_file(tmp_path / "v.gray8", "meta.json") == tmp_path / "meta.json"

    @pytest.mark.parametrize("container", ["raw", "images"])
    def test_synth_writes_its_side_files_there(self, tmp_path, container):
        ds = make_recording(tmp_path / "rec", duration_s=0.2, container=container)
        assert side_file(ds.video_path, "landmarks.csv") == ds.landmarks_path
        assert side_file(ds.video_path, "ground_truth.csv") == ds.ground_truth_path


def _vm_rss_bytes() -> int:
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("VmRSS:"))
    return int(line.split()[1]) * 1024  # reported in kB


class TestSynthRoundTrip:
    """Writing a synthetic stream and reading it back is bit-identical."""

    @pytest.mark.parametrize("container", ["raw", "images"])
    def test_round_trip(self, tmp_path, container):
        from rrvision.synth import SynthConfig, _Scene

        ds = make_recording(
            tmp_path / "rec", duration_s=1.0, container=container, texture_seed=5
        )
        scene = _Scene(
            SynthConfig(
                width=160, height=120, fps=30.0, duration_s=1.0,
                rr_segments=[(0.0, 15.0)], noise_sigma=2.0, pixel_format="GRAY8",
                container=container, texture_seed=5,
            )
        )
        _, stream = open_source(ds.video_path)
        for frame in stream:
            assert np.array_equal(frame.data, scene.render_quantized(frame.index))


class TestGrayscale:
    def test_channel_mean(self):
        data = np.zeros((16, 16, 3), dtype=np.uint8)
        data[0, 0] = (30, 60, 90)
        assert to_grayscale(data)[0, 0] == 60.0

    def test_rgb_must_be_uint8(self):
        # wider samples could wrap the 16-bit channel sum; floats have no exact one
        for dtype in (np.uint16, np.float64):
            with pytest.raises(ValueError, match="uint8"):
                to_grayscale(np.full((4, 4, 3), 300, dtype=dtype))

    def test_gray_identity(self):
        data = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert np.array_equal(to_grayscale(data), data.astype(np.float64))

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        got = to_grayscale(data[2:13, 3:11])  # a crop, as the pipeline passes it
        # brute-force per-pixel mean; the channel sum is exact, so equality is exact
        for y in range(11):
            for x in range(8):
                want = (int(data[y + 2, x + 3, 0]) + int(data[y + 2, x + 3, 1])
                        + int(data[y + 2, x + 3, 2])) / 3.0
                assert got[y, x] == want
        assert np.array_equal(got, data.astype(np.float64).mean(axis=2)[2:13, 3:11])
        # saturated and black pixels on a strided crop, then an odd width: bit for
        # bit the float64 channel sum divided by 3, which an 8-bit or rounded sum breaks
        data[3, ::3] = 255
        data[5, 3::3] = 0
        data[7, 0] = 255
        for crop in (data[1:15:2, ::3], data[3:12, 2:9]):
            want = (crop[..., 0].astype(np.float64) + crop[..., 1] + crop[..., 2]) / 3.0
            got = to_grayscale(crop)
            assert got.dtype == np.float64 and got.shape == crop.shape[:2]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert to_grayscale(data[1:15:2, ::3])[1].tolist() == [255.0] * 6

    @settings(max_examples=25)
    @given(st.integers(0, 2**31 - 1))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        once = to_grayscale(data)
        twice = to_grayscale(once)
        assert np.array_equal(once, twice)
