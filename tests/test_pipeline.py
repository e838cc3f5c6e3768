import time

import numpy as np
import pytest

from rrvision import pipeline
from rrvision.config import RunConfig
from rrvision.ingest import read_pnm, write_pnm
from rrvision.pipeline import StageTimings, run_recording, run_stream

from conftest import make_recording


class TestRunStream:
    def test_cadence_sixty_seconds(self, cadence_recording):
        preds = run_recording(
            cadence_recording.video_path, RunConfig(),
            landmarks_path=cadence_recording.landmarks_path,
        )
        assert len(preds) == 41
        assert preds[0].t == pytest.approx(20.0)
        assert preds[-1].t == pytest.approx(60.0)
        assert [p.t for p in preds] == pytest.approx(list(np.arange(20.0, 61.0)))

    def test_deterministic_across_runs(self, cadence_recording):
        a = run_recording(cadence_recording.video_path, RunConfig(),
                          landmarks_path=cadence_recording.landmarks_path)
        b = run_recording(cadence_recording.video_path, RunConfig(),
                          landmarks_path=cadence_recording.landmarks_path)
        assert a == b

    def test_fixed_roi_bypasses_landmarks(self, cadence_recording):
        # the scene's actual chest box, an input of the recording beside its landmarks
        preds = run_recording(cadence_recording.video_path, RunConfig(),
                              fixed_roi=(40, 50, 80, 60))
        valid = [p for p in preds if p.valid]
        assert len(valid) >= 37
        assert np.mean([abs(p.rr_bpm - 15.0) for p in valid]) < 1.0

    def test_full_roi_mode(self, cadence_recording):
        cfg = RunConfig()
        cfg.profile_mode = "full_roi"
        preds = run_recording(cadence_recording.video_path, cfg,
                              landmarks_path=cadence_recording.landmarks_path)
        valid = [p for p in preds if p.valid]
        assert len(valid) >= 37
        assert np.mean([abs(p.rr_bpm - 15.0) for p in valid]) < 1.0

    def test_missing_roi_source_rejected(self, cadence_recording):
        with pytest.raises(ValueError, match="fixed_roi or a landmark"):
            run_recording(cadence_recording.video_path, RunConfig())

    def test_missing_roi_source_says_neither(self, cadence_recording):
        with pytest.raises(ValueError, match="^need fixed_roi or a landmark file$"):
            run_recording(cadence_recording.video_path, RunConfig())

    def test_frame_of_another_pixel_format_fails_at_the_reader(self, tmp_path, monkeypatch):
        # a P6 file named .pgm, as wide and high as its GRAY8 sequence
        ds = make_recording(tmp_path / "seq", duration_s=1.0, container="images")
        frame = ds.video_path / "frame_000005.pgm"
        write_pnm(frame, np.repeat(read_pnm(frame)[:, :, None], 3, axis=2))
        shapes, extract = [], pipeline.extract_profile

        def recording_extract(pixels, plan):
            shapes.append(pixels.shape)
            return extract(pixels, plan)

        monkeypatch.setattr(pipeline, "extract_profile", recording_extract)
        with pytest.raises(ValueError, match="size mismatch at frame 5"):
            run_recording(ds.video_path, RunConfig(), landmarks_path=ds.landmarks_path)
        assert len(shapes) == 5 and all(len(s) == 2 for s in shapes)

    def test_two_roi_sources_rejected(self, cadence_recording):
        # neither source is dropped in silence, not even a landmark file that exists
        with pytest.raises(ValueError, match="not both"):
            run_recording(cadence_recording.video_path, RunConfig(), fixed_roi=(40, 50, 80, 60),
                          landmarks_path=cadence_recording.landmarks_path)

    def test_short_video_yields_nothing(self, tmp_path):
        ds = make_recording(tmp_path / "short", duration_s=10.0)
        assert run_recording(ds.video_path, RunConfig(), landmarks_path=ds.landmarks_path) == []

    def test_timing_collects_per_frame_and_per_window(self, tmp_path):
        ds = make_recording(tmp_path / "t", duration_s=21.0)
        timings = StageTimings()
        preds = []
        for p in run_stream(ds.video_path, RunConfig(), landmarks_path=ds.landmarks_path,
                            timings=timings):
            preds.append(p)
            time.sleep(0.1)  # the consumer's time is no frame's time
        assert max(timings.frame_total) < 0.1
        assert len(timings.frame_total) == 630
        assert len(timings.analysis) == len(preds) == 2
        s = timings.summary()
        assert s["frame_total"]["p99_ms"] > 0
        assert s["window_analysis"]["p50_ms"] > 0

    def test_timings_take_eight_bytes_per_entry(self, tmp_path):
        ds = make_recording(tmp_path / "t", duration_s=21.0)
        t = StageTimings()
        list(run_stream(ds.video_path, RunConfig(), landmarks_path=ds.landmarks_path, timings=t))
        assert len(t.frame_total) == 630 and len(t.analysis) == 2
        assert memoryview(t.frame_total).nbytes == 8 * len(t.frame_total)
        assert memoryview(t.analysis).nbytes == 8 * len(t.analysis)
        # the summary sees the same float64 values a list of floats would give it
        as_lists = StageTimings(analysis=list(t.analysis), frame_total=list(t.frame_total))
        assert as_lists.summary() == t.summary()

    def test_clock_is_read_only_when_timing(self, tmp_path, monkeypatch):
        ds = make_recording(tmp_path / "clip", duration_s=1.0)
        calls = []

        class CountingClock:
            @staticmethod
            def perf_counter():
                calls.append(None)
                return time.perf_counter()

        monkeypatch.setattr(pipeline, "time", CountingClock)
        assert run_recording(ds.video_path, RunConfig(), landmarks_path=ds.landmarks_path) == []
        assert len(calls) == 0
        timings = StageTimings()
        list(run_stream(ds.video_path, RunConfig(), landmarks_path=ds.landmarks_path,
                        timings=timings))
        assert len(timings.frame_total) == 30
        # two per frame, and one more before the request that ends the stream
        assert len(calls) == 2 * 30 + 1

    def test_frame_total_includes_the_read(self, tmp_path, monkeypatch):
        ds = make_recording(tmp_path / "clip", duration_s=1.0)
        open_source = pipeline.open_source

        def slow_open_source(path):
            meta, frames = open_source(path)

            def slow_frames():
                for frame in frames:
                    time.sleep(0.002)
                    yield frame

            return meta, slow_frames()

        monkeypatch.setattr(pipeline, "open_source", slow_open_source)
        timings = StageTimings()
        list(run_stream(ds.video_path, RunConfig(), landmarks_path=ds.landmarks_path,
                        timings=timings))
        assert len(timings.frame_total) == 30
        assert min(timings.frame_total) >= 0.002

    def test_landmarks_starting_late_fail_at_warmup(self, tmp_path):
        ds = make_recording(tmp_path / "late", duration_s=2.0)
        lines = ds.landmarks_path.read_text().splitlines()
        header, first = lines[0], lines[1]
        ds.landmarks_path.write_text(header + "\n" + first.replace("0,", "10,", 1) + "\n")
        with pytest.raises(ValueError, match="^no landmarks at or before 0$"):
            run_recording(ds.video_path, RunConfig(), landmarks_path=ds.landmarks_path)


@pytest.fixture(scope="module")
def reest_recording(tmp_path_factory):
    """40 s at 30 FPS, run with re-estimation every 5 s (epochs of 150 frames)."""
    return make_recording(tmp_path_factory.mktemp("reest") / "rec", duration_s=40.0,
                          texture_seed=9)


def reest_every_5s() -> RunConfig:
    cfg = RunConfig()
    cfg.schedule.reest_s = 5.0
    return cfg


class TestGrayscaleOnlyForCanny:
    @pytest.mark.parametrize("mode,want", [("edges", 8), ("full_roi", 0)])
    def test_one_conversion_per_edges_epoch(self, reest_recording, monkeypatch, mode, want):
        calls = []
        real = pipeline.to_grayscale

        def counted(pixels):
            calls.append(pixels.shape)
            return real(pixels)

        monkeypatch.setattr(pipeline, "to_grayscale", counted)
        cfg = reest_every_5s()
        cfg.profile_mode = mode
        ds = reest_recording
        run_recording(ds.video_path, cfg, landmarks_path=ds.landmarks_path)
        assert len(calls) == want  # edges: frames 0, 150, ..., 1050


class TestEpochStitching:
    def test_predictions_stay_continuous_across_reestimation(self, reest_recording):
        # re-estimate every 5 s: plenty of epoch boundaries inside each window
        ds = reest_recording
        preds = run_recording(ds.video_path, reest_every_5s(), landmarks_path=ds.landmarks_path)
        valid = [p for p in preds if p.valid]
        assert len(valid) == len(preds)
        assert max(abs(p.rr_bpm - 15.0) for p in valid) < 1.0

    def test_roi_estimated_once_per_epoch_start(self, reest_recording, monkeypatch):
        calls = []
        real = pipeline.roi_from_landmarks

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "roi_from_landmarks", counted)
        ds = reest_recording
        run_recording(ds.video_path, reest_every_5s(), landmarks_path=ds.landmarks_path)
        assert ds.meta.frame_count == 1200
        assert len(calls) == 8  # frames 0, 150, ..., 1050
