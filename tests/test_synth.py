import csv

import numpy as np
import pytest

from rrvision.config import RunConfig
from rrvision.evaluate import load_ground_truth
from rrvision.ingest import GROUND_TRUTH_HEADER, open_source, write_step_hold
from rrvision.pipeline import run_recording
from rrvision.roi import load_landmark_track, roi_from_landmarks
from rrvision.synth import SynthConfig, _Scene, generate, scene_geometry

from conftest import make_recording


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
        assert np.array_equal(f.data[:, :, 0], f.data[:, :, 1])
        assert np.array_equal(f.data[:, :, 0], f.data[:, :, 2])


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

    def test_jump_writes_second_landmark_record(self, tmp_path):
        ds = make_recording(tmp_path / "rec", duration_s=2.0, roi_jump_at_s=1.0)
        landmarks_at = load_landmark_track(ds.landmarks_path)
        first, second = landmarks_at(0), landmarks_at(60)
        assert second.frame_index == 30
        assert second.chin[1] - first.chin[1] == 6.0


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
            col = scene.render(i)[:, mid]
            grad = np.abs(np.diff(col))[lo:hi]
            pos = np.arange(lo, hi) + 0.5
            centroid = (grad * pos).sum() / grad.sum()
            assert abs(centroid - scene.boundary_at(i)) <= 0.2

    def test_illumination_drift_shifts_levels_linearly(self):
        cfg = small_cfg(noise_sigma=0.0, illum_drift=10.0, duration_s=1.0, amplitude_px=0.0)
        scene = _Scene(cfg)
        a = scene.render(0)
        b = scene.render(15)  # 0.5 s later -> +5 intensity
        assert b - a == pytest.approx(np.full_like(a, 5.0), abs=1e-9)


class TestDegenerateMotionless:
    def test_zero_amplitude_video_yields_no_valid_predictions(self, tmp_path):
        ds = make_recording(
            tmp_path / "rec", duration_s=25.0, amplitude_px=0.0, noise_sigma=0.0
        )
        preds = run_recording(ds.video_path, RunConfig(), landmarks_path=ds.landmarks_path)
        assert len(preds) == 6
        assert all(not p.valid for p in preds)
