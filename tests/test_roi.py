import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrvision.config import RoiGeometryConfig
from rrvision.ingest import VideoMeta
from rrvision.roi import (
    LandmarkSet,
    RoiRect,
    load_landmark_track,
    roi_from_landmarks,
    roi_span,
    write_landmark_track,
)


def lm(chin=(100.0, 100.0), lear=(80.0, 90.0), rear=(120.0, 90.0), frame=0):
    return LandmarkSet(frame_index=frame, chin=chin, left_ear=lear, right_ear=rear)


def meta(w=320, h=240):
    return VideoMeta(w, h, 30.0, 1, "GRAY8")


class TestRoiFromLandmarks:
    def test_reference_geometry(self):
        # face width 40 -> box spans mid +- 40, top chin + 20, height 60
        assert roi_from_landmarks(lm(), meta()) == RoiRect(60, 120, 80, 60)

    def test_clamped_at_bottom(self):
        rect = roi_from_landmarks(lm(chin=(100.0, 170.0)), meta())
        assert rect.y + rect.h == 240
        assert rect.h == 50

    def test_too_small_after_clamp(self):
        with pytest.raises(ValueError, match="smaller than"):
            roi_from_landmarks(lm(chin=(100.0, 215.0)), meta())

    def test_degenerate_landmarks(self):
        with pytest.raises(ValueError, match="degenerate landmarks"):
            roi_from_landmarks(lm(lear=(100.0, 90.0), rear=(100.0, 90.0)), meta())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            lm(chin=(float("nan"), 10.0))

    @settings(max_examples=60)
    @given(dx=st.integers(-30, 30), dy=st.integers(-30, 30))
    def test_translation_equivariance(self, dx, dy):
        base = lm(chin=(300.0, 200.0), lear=(280.0, 190.0), rear=(320.0, 190.0))
        moved = lm(
            chin=(300.0 + dx, 200.0 + dy),
            lear=(280.0 + dx, 190.0 + dy),
            rear=(320.0 + dx, 190.0 + dy),
        )
        big = meta(2000, 2000)
        a = roi_from_landmarks(base, big)
        b = roi_from_landmarks(moved, big)
        assert (b.x - a.x, b.y - a.y, b.w, b.h) == (dx, dy, a.w, a.h)

    @settings(max_examples=60)
    @given(s=st.floats(0.2, 5.0, allow_nan=False))
    def test_scale_covariance(self, s):
        base = lm()
        scaled = lm(
            chin=(base.chin[0] * s, base.chin[1] * s),
            lear=(base.left_ear[0] * s, base.left_ear[1] * s),
            rear=(base.right_ear[0] * s, base.right_ear[1] * s),
        )
        g = RoiGeometryConfig()
        x0, y0, x1, y1 = roi_span(base, g)
        sx0, sy0, sx1, sy1 = roi_span(scaled, g)
        assert (sx1 - sx0) == pytest.approx(s * (x1 - x0), rel=1e-12)
        assert (sy1 - sy0) == pytest.approx(s * (y1 - y0), rel=1e-12)


def _write_csv(path, rows):
    lines = ["frame,chin_x,chin_y,lear_x,lear_y,rear_x,rear_y"]
    lines += [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


class TestLandmarkTrack:
    def test_step_hold_lookup(self, tmp_path):
        p = tmp_path / "lm.csv"
        _write_csv(p, [(0, 100, 100, 80, 90, 120, 90), (600, 110, 100, 90, 90, 130, 90)])
        landmarks_at = load_landmark_track(p)
        assert landmarks_at(599).frame_index == 0
        assert landmarks_at(600).frame_index == 600
        assert landmarks_at(10_000).frame_index == 600

    def test_lookup_before_first(self, tmp_path):
        p = tmp_path / "lm.csv"
        _write_csv(p, [(10, 100, 100, 80, 90, 120, 90)])
        with pytest.raises(ValueError, match="^no landmarks at or before 9$"):
            load_landmark_track(p)(9)

    def test_single_record_serves_everything(self, tmp_path):
        p = tmp_path / "lm.csv"
        _write_csv(p, [(0, 100, 100, 80, 90, 120, 90)])
        landmarks_at = load_landmark_track(p)
        for idx in (0, 1, 599, 10**6):
            assert landmarks_at(idx).frame_index == 0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "lm.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="^empty landmark file "):
            load_landmark_track(p)

    def test_unsorted_frames(self, tmp_path):
        p = tmp_path / "lm.csv"
        _write_csv(p, [(10, 1, 1, 0, 0, 5, 0), (5, 1, 1, 0, 0, 5, 0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            load_landmark_track(p)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "lm.csv"
        p.write_text("frame,chin_x,chin_y,lear_x,lear_y,rear_x,rear_y\n1,2,3\n")
        with pytest.raises(ValueError, match="malformed"):
            load_landmark_track(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_reports_its_line(self, tmp_path, value):
        p = tmp_path / "lm.csv"
        _write_csv(p, [(0, 100, 100, 80, 90, 120, 90), (9, 100, value, 80, 90, 120, 90)])
        with pytest.raises(ValueError, match=r"^malformed landmark row at .*lm\.csv:3$"):
            load_landmark_track(p)

    def test_blank_rows_count_as_lines(self, tmp_path):
        p = tmp_path / "lm.csv"
        p.write_text("frame,chin_x,chin_y,lear_x,lear_y,rear_x,rear_y\n0,1,1,0,0,5,0\n\nx,1,1,0,0,5,0\n")
        with pytest.raises(ValueError, match=r"^malformed landmark row at .*lm\.csv:4$"):
            load_landmark_track(p)

    def test_write_read_round_trip(self, tmp_path):
        records = [lm(frame=0), lm(frame=600, chin=(101.5, 102.25))]
        p = tmp_path / "lm.csv"
        write_landmark_track(p, records)
        landmarks_at = load_landmark_track(p)
        assert landmarks_at(0) == records[0]
        assert landmarks_at(600) == records[1]
