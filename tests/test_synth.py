import csv
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rrvision.config import RunConfig
from rrvision.evaluate import load_ground_truth
from rrvision import synth
from rrvision.ingest import GROUND_TRUTH_HEADER, open_source, write_step_hold
from rrvision.pipeline import run_recording
from rrvision.roi import LandmarkSet, load_landmark_track, roi_from_landmarks
from rrvision.synth import SynthConfig, _Scene, generate, scene_geometry

from conftest import make_recording, traced_peak


def small_cfg(**overrides):
    params = dict(
        width=160, height=120, fps=30.0, duration_s=2.0,
        rr_segments=[(0.0, 15.0)], noise_sigma=2.0,
        pixel_format="GRAY8", texture_seed=1,
    )
    params.update(overrides)
    return SynthConfig(**params)


class TestConfigValidation:
    def test_rr_out_of_band_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            small_cfg(rr_segments=[(0.0, 60.0)]).validate()
        with pytest.raises(ValueError, match="outside"):
            small_cfg(rr_segments=[(0.0, 5.0)]).validate()

    def test_segments_must_start_at_zero_and_increase(self):
        with pytest.raises(ValueError):
            small_cfg(rr_segments=[(5.0, 15.0)]).validate()
        with pytest.raises(ValueError):
            small_cfg(rr_segments=[(0.0, 15.0), (0.0, 20.0)]).validate()

    @pytest.mark.parametrize(
        "bad", [{"width": 8}, {"height": 15}, {"fps": 0.0}, {"pixel_format": "YUV"}]
    )
    def test_frame_settings_rejected_before_disk(self, tmp_path, bad):
        with pytest.raises(ValueError):
            generate(small_cfg(**bad), tmp_path / "rec")
        assert not (tmp_path / "rec").exists()

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="amplitude"):
            small_cfg(amplitude_px=-1.0).validate()

    @pytest.mark.parametrize("bad, message", [
        ({"noise_sigma": -0.5}, "noise_sigma must be >= 0"),
        ({"walk_row_frac": -0.1}, r"walk_row_frac must be in \[0, 1\]"),
        ({"walk_row_frac": 1.5}, r"walk_row_frac must be in \[0, 1\]"),
        ({"walk_amplitude": -1.0}, "walk_amplitude must be >= 0"),
        ({"texture_seed": -1}, "texture_seed must be >= 0"),
        ({"duration_s": 0.0}, "duration_s must be positive"),
        ({"rr_segments": []}, "need at least one rr segment"),
        ({"container": "zip"}, "unknown container 'zip'"),
        ({"chest_width_frac": 0.0}, r"chest_width_frac must be in \(0, 1\]"),
        # 0.3 frames at 30 fps round to none: a recording that `run` would refuse
        ({"duration_s": 0.01}, r"duration_s of 0\.01 s at 30\.0 fps gives no frame"),
    ])
    def test_bad_scene_values_named_before_disk(self, tmp_path, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate(small_cfg(**bad), tmp_path / "rec")
        assert not (tmp_path / "rec").exists()

    def test_more_walk_rows_than_the_roi_holds_named_before_disk(self, tmp_path):
        with pytest.raises(ValueError, match="^walk_row_frac 0.8 needs .* rows, but only "):
            generate(small_cfg(walk_row_frac=0.8, walk_amplitude=10.0), tmp_path / "rec")
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("edge", [{"noise_sigma": 0.0}, {"walk_row_frac": 0.0},
                                      {"walk_row_frac": 1.0}, {"walk_amplitude": 0.0},
                                      {"texture_seed": 0}])
    def test_scene_values_at_their_bounds_accepted(self, edge):
        small_cfg(**edge).validate()

    def test_phase_is_continuous_across_segments(self):
        cfg = small_cfg(rr_segments=[(0.0, 15.0), (30.0, 20.0)])
        eps = 1e-6
        assert cfg.phase_at(30.0 + eps) - cfg.phase_at(30.0 - eps) < 1e-3


class TestGenerate:
    def test_frame_count_and_ground_truth(self, tmp_path):
        ds = make_recording(tmp_path / "rec", duration_s=60.0)
        assert ds.meta.frame_count == 1800
        with open(ds.ground_truth_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "rr_bpm"]
        assert [r[1] for r in rows[1:]] == ["15.0"]

    def test_segment_switch_written(self, tmp_path):
        ds = make_recording(
            tmp_path / "rec", duration_s=2.0, rr_segments=[(0.0, 15.0), (30.0, 20.0)]
        )
        with open(ds.ground_truth_path) as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [["0.0", "15.0"], ["30.0", "20.0"]]

    def test_ground_truth_is_written_by_the_shared_writer(self, tmp_path):
        segments = [(0.0, 12.0), (1.0, 20.5), (1.5, 18)]
        ds = make_recording(tmp_path / "rec", duration_s=2.0, rr_segments=segments)
        want = tmp_path / "want.csv"
        write_step_hold(want, GROUND_TRUTH_HEADER, segments)
        assert ds.ground_truth_path.read_bytes() == want.read_bytes()
        assert load_ground_truth(ds.ground_truth_path) == [(0.0, 12.0), (1.0, 20.5), (1.5, 18.0)]

    def test_determinism_bit_identical(self, tmp_path):
        a = make_recording(tmp_path / "a", duration_s=1.0, texture_seed=3)
        b = make_recording(tmp_path / "b", duration_s=1.0, texture_seed=3)
        assert a.video_path.read_bytes() == b.video_path.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = make_recording(tmp_path / "a", duration_s=1.0, texture_seed=3)
        b = make_recording(tmp_path / "b", duration_s=1.0, texture_seed=4)
        assert a.video_path.read_bytes() != b.video_path.read_bytes()

    def test_refuses_non_empty_output(self, tmp_path):
        out = tmp_path / "rec"
        out.mkdir()
        (out / "junk").write_text("x")
        with pytest.raises(ValueError, match="not empty"):
            generate(small_cfg(), out)

    def test_rgb_frames_have_equal_channels(self, tmp_path):
        ds = make_recording(tmp_path / "rec", duration_s=0.5, pixel_format="RGB24")
        _, frames = open_source(ds.video_path)
        f = next(iter(frames))
        assert np.array_equal(f[:, :, 0], f[:, :, 1])
        assert np.array_equal(f[:, :, 0], f[:, :, 2])


class TestSceneGeometry:
    def test_landmarks_reproduce_scene_roi(self, tmp_path):
        ds = make_recording(tmp_path / "rec", duration_s=0.5)
        landmarks_at = load_landmark_track(ds.landmarks_path)
        rect = roi_from_landmarks(landmarks_at(0), ds.meta)
        assert rect == ds.geometry.roi

    def test_roi_contains_boundary_travel(self):
        cfg = small_cfg(amplitude_px=2.0)
        g = scene_geometry(cfg)
        assert g.roi.y + 4 < g.boundary_y - 2
        assert g.boundary_y + 2 < g.roi.y + g.roi.h - 4
        assert g.roi.x <= g.chest_x0 < g.chest_x1 <= g.roi.x + g.roi.w

    @pytest.mark.parametrize("jump_s, rows", [
        (1.0, [(0, 0.0), (30, 6.0)]),
        # at or before frame 0 the whole recording is shifted, landmarks included
        (0.0, [(0, 6.0)]), (0.01, [(0, 6.0)]), (-1.0, [(0, 6.0)]),
        # at or past the end (frame 60) no frame is shifted
        (2.0, [(0, 0.0)]), (5.0, [(0, 0.0)]),
    ], ids=["1.0", "0.0", "0.01", "-1.0", "2.0", "5.0"])
    def test_jump_writes_second_landmark_record(self, tmp_path, jump_s, rows):
        ds = make_recording(tmp_path / "rec", duration_s=2.0, roi_jump_at_s=jump_s)
        lines = ds.landmarks_path.read_text().splitlines()[1:]
        assert [int(line.split(",")[0]) for line in lines] == [frame for frame, _ in rows]
        landmarks_at = load_landmark_track(ds.landmarks_path)
        lm0 = ds.geometry.landmarks  # where the scene puts the face before any jump
        points = (lm0.chin, lm0.left_ear, lm0.right_ear)
        for frame, dy in rows:
            assert landmarks_at(frame) == LandmarkSet(*((x, y + dy) for x, y in points))
        assert landmarks_at(59) == landmarks_at(rows[-1][0])


class TestRenderedMotionOracle:
    def test_boundary_tracks_sine_within_fifth_of_pixel(self):
        # brute-force oracle: centroid of the vertical gradient magnitude
        # around the boundary, computed per frame on a noiseless render
        cfg = small_cfg(noise_sigma=0.0, duration_s=4.0)
        scene = _Scene(cfg)
        g = scene.geom
        mid = (g.chest_x0 + g.chest_x1) // 2
        lo = int(np.floor(g.boundary_y - cfg.amplitude_px - 1))
        hi = int(np.ceil(g.boundary_y + cfg.amplitude_px + 1))
        for i in range(cfg.frame_count):
            col = scene._render_into(i, scene._fresh_planes(1)[0])[0][:, mid]
            grad = np.abs(np.diff(col))[lo:hi]
            pos = np.arange(lo, hi) + 0.5
            centroid = (grad * pos).sum() / grad.sum()
            assert abs(centroid - scene.boundary_at(i)) <= 0.2

    def test_illumination_drift_shifts_levels_linearly(self):
        cfg = small_cfg(noise_sigma=0.0, illum_drift=10.0, duration_s=1.0, amplitude_px=0.0)
        scene = _Scene(cfg)
        a = scene._render_into(0, scene._fresh_planes(1)[0])
        b = scene._render_into(15, scene._fresh_planes(1)[0])  # 0.5 s later -> +5 intensity
        assert b - a == pytest.approx(np.full_like(a, 5.0), abs=1e-9)


class TestKeptPlanes:
    def test_renders_own_their_planes(self):
        scene = _Scene(small_cfg(pixel_format="RGB24"))
        planes = [p for _ in range(3) for p in scene._fresh_planes(scene.run_frames)]
        assert not any(np.shares_memory(p, q) for i, p in enumerate(planes) for q in planes[:i])

    @pytest.mark.parametrize("pixel_format", ["RGB24", "GRAY8"])
    def test_warm_vga_frames_trace_under_a_plane(self, pixel_format):
        """Bytes traced by warm 640x480 frames rendered and written as generate does.

        One uint8 (h, w) plane allocated per frame would reach the bound; the
        buffers numpy's iterator takes to add the row values stay below it.
        """
        scene = _Scene(SynthConfig(width=640, height=480, duration_s=1.0, noise_sigma=2.0,
                                   pixel_format=pixel_format, walk_row_frac=0.05,
                                   walk_amplitude=10.0, illum_drift=1.0))
        slots = scene._fresh_planes(1), scene._fresh_planes(1)
        with open(os.devnull, "wb") as fh:
            peaks = [traced_peak(lambda: fh.write(scene._quantize_into(i, *slots[i % 2])))[1]
                     for i in range(5)][2:]
        assert max(peaks) < 480 * 640, peaks

    @pytest.mark.parametrize("overrides", [
        # 60 frames; the jump at frame 30 falls inside a run of 7, of 16 and of all
        dict(pixel_format="RGB24", walk_row_frac=0.2, walk_amplitude=10.0, illum_drift=3.0,
             roi_jump_at_s=1.0),
        dict(pixel_format="GRAY8", noise_sigma=0.0),
        # 25 frames: a short last run at every length but 1 and the whole recording
        dict(pixel_format="GRAY8", fps=12.5, illum_drift=-2.0),
    ], ids=["RGB24-walk-drift-jump", "GRAY8-noise0", "12.5fps"])
    def test_frame_bytes_do_not_depend_on_the_run(self, overrides):
        """Frames rendered in runs of any length through one slot equal frames rendered alone."""
        scene = _Scene(small_cfg(**overrides))
        n = scene.cfg.frame_count
        alone = [scene._quantize_into(i, *scene._fresh_planes(1))[0] for i in range(n)]
        for run in (1, 2, 7, scene.run_frames, n):
            plane, out = scene._fresh_planes(run)
            for start in range(0, n, run):
                frames = scene._quantize_into(start, plane[: n - start], out[: n - start])
                for k, frame in enumerate(frames):
                    assert np.array_equal(frame, alone[start + k]), (run, start + k)

    def test_vga_generate_traces_under_three_float_planes(self, tmp_path):
        """Bytes traced by a whole 1 s 640x480 RGB24 generate, the worker thread's included.

        Its two slots hold 6.8 MB; a second float64 plane in each would reach the bound.
        A small recording first imports what a first call imports (numpy.random).
        """
        generate(SynthConfig(duration_s=0.1, pixel_format="RGB24"), tmp_path / "warm")
        cfg = SynthConfig(width=640, height=480, duration_s=1.0, pixel_format="RGB24")
        _, peak = traced_peak(lambda: generate(cfg, tmp_path / "rec"))
        assert peak < 3 * 480 * 640 * 8, peak

    def test_corpus_generate_traces_under_three_vga_float_planes(self, tmp_path):
        """Bytes traced by a whole 30 s 160x120 GRAY8 generate, as the benchmark corpus renders.

        Its two 16-frame slots hold 5.5 MB; runs of 20 frames would reach the VGA bound.
        """
        generate(small_cfg(duration_s=0.1), tmp_path / "warm")
        cfg = small_cfg(duration_s=30.0)
        _, peak = traced_peak(lambda: generate(cfg, tmp_path / "rec"))
        assert peak < 3 * 480 * 640 * 8, peak

    def test_tracemalloc_sees_a_worker_threads_numpy_buffers(self):
        with ThreadPoolExecutor(max_workers=1) as pool:
            _, peak = traced_peak(lambda: pool.submit(np.ones, 10**6).result(timeout=60))
        assert peak >= 8 * 10**6, peak

    # frame 20 is in a run the worker renders
    @pytest.mark.parametrize("fail_at", [None, 0, 3, 20])
    def test_generate_leaves_no_thread_running(self, tmp_path, monkeypatch, fail_at):
        real_write_pnm = synth.write_pnm

        def write_pnm(path, frame):
            if int(path.stem.split("_")[-1]) == fail_at:
                raise OSError("disk full")
            real_write_pnm(path, frame)

        monkeypatch.setattr(synth, "write_pnm", write_pnm)
        before = set(threading.enumerate())
        cfg = small_cfg(duration_s=2.0, container="images")
        assert (cfg.frame_count, _Scene(cfg).run_frames) == (60, 16)  # the worker's: 16-31, 48-59
        if fail_at is None:
            generate(cfg, tmp_path / "rec")
        else:
            with pytest.raises(OSError, match="disk full"):
                generate(cfg, tmp_path / "rec")
        assert set(threading.enumerate()) == before

class TestDegenerateMotionless:
    def test_zero_amplitude_video_yields_no_valid_predictions(self, tmp_path):
        ds = make_recording(
            tmp_path / "rec", duration_s=25.0, amplitude_px=0.0, noise_sigma=0.0
        )
        preds = run_recording(ds.video_path, RunConfig(), landmarks_path=ds.landmarks_path)
        assert len(preds) == 6
        assert all(not p.valid for p in preds)
