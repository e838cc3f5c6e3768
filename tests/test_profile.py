import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rrvision.profile import extract_profile, plan_rows


def row_means(roi, mask=None):
    """Raw per-row profile: resampling to the ROI height is the identity."""
    mask = np.ones(roi.shape, dtype=bool) if mask is None else mask
    return extract_profile(roi.copy(), plan_rows(mask, roi.shape[0]))  # it overwrites roi


def resample(raw, length):
    """A raw profile resampled: one-pixel rows have their value as mean."""
    raw = np.array(raw, dtype=np.float64)  # a copy: extract_profile overwrites it
    return extract_profile(raw[:, None], plan_rows(np.ones((len(raw), 1), bool), length))


class TestFullRoiProfile:
    def test_constant_roi(self):
        assert np.array_equal(row_means(np.full((2, 2), 60.0)), [60.0, 60.0])

    def test_two_extreme_rows(self):
        roi = np.vstack([np.zeros((1, 10)), np.full((1, 10), 255.0)])
        assert np.array_equal(row_means(roi), [0.0, 255.0])

    def test_matches_row_mean_oracle_1000_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            h, w = rng.integers(2, 9), rng.integers(1, 9)
            roi = rng.uniform(0, 255, size=(h, w))
            got = row_means(roi)
            for i in range(h):
                want = sum(float(v) for v in roi[i]) / w
                assert got[i] == pytest.approx(want, rel=1e-12)

    @settings(max_examples=50)
    @given(seed=st.integers(0, 10**6))
    def test_invariant_to_permuting_pixels_within_rows(self, seed):
        rng = np.random.default_rng(seed)
        roi = rng.uniform(0, 255, size=(5, 7))
        shuffled = roi.copy()
        for row in shuffled:
            rng.shuffle(row)
        assert row_means(shuffled) == pytest.approx(row_means(roi), rel=1e-12)

    def test_vertical_shift_moves_profile_by_one_row(self):
        # horizontal stripes: shifting content down by one row shifts the profile
        stripes = np.repeat(np.arange(8, dtype=np.float64) * 30, 2)[:, None].repeat(6, axis=1)
        shifted = np.roll(stripes, 1, axis=0)
        assert np.array_equal(row_means(shifted)[1:], row_means(stripes)[:-1])


class TestEdgesProfile:
    def test_full_mask_equals_full_roi_exactly(self):
        rng = np.random.default_rng(1)
        roi = rng.uniform(0, 255, size=(12, 9))
        assert np.array_equal(row_means(roi), roi.sum(axis=1) / roi.shape[1])
        plan = plan_rows(np.ones_like(roi, dtype=bool), 12)
        assert np.array_equal(plan.valid_rows, np.arange(12))

    def test_invalid_row_linear_fill(self):
        roi = np.array([[10.0, 99.0], [55.0, 77.0], [30.0, 99.0]])
        mask = np.array([[True, False], [False, False], [True, False]])
        assert np.array_equal(row_means(roi, mask), [10.0, 20.0, 30.0])
        assert list(plan_rows(mask, 3).valid_rows) == [0, 2]

    def test_constant_extension_at_ends(self):
        roi = np.arange(12, dtype=np.float64).reshape(4, 3)
        mask = np.zeros_like(roi, dtype=bool)
        mask[1, 1] = True
        mask[2, 0] = True
        assert np.array_equal(row_means(roi, mask), [4.0, 4.0, 6.0, 6.0])

    def test_single_pixel_per_row(self):
        rng = np.random.default_rng(2)
        roi = rng.uniform(0, 255, size=(6, 5))
        mask = np.zeros_like(roi, dtype=bool)
        picks = rng.integers(0, 5, size=6)
        mask[np.arange(6), picks] = True
        assert np.array_equal(row_means(roi, mask), roi[np.arange(6), picks])

    def test_plan_is_reused_across_frames(self):
        rng = np.random.default_rng(4)
        mask = rng.random((7, 5)) < 0.5
        mask[0, 0] = True
        plan = plan_rows(mask, 7)
        for _ in range(3):
            roi = rng.uniform(0, 255, size=(7, 5))
            p = extract_profile(roi.copy(), plan)
            assert p.dtype == np.float64 and p.shape == (7,)
            assert np.array_equal(p, row_means(roi, mask))

    def test_overwrites_input_with_its_masked_pixels(self):
        rng = np.random.default_rng(5)
        roi = rng.uniform(1, 255, size=(6, 8))  # no zeros of its own
        full = roi.copy()
        extract_profile(full, plan_rows(np.ones(roi.shape, dtype=bool), 10))
        assert np.array_equal(full, roi)
        mask = rng.random(roi.shape) < 0.4
        mask[0, 0] = True
        edges = roi.copy()
        extract_profile(edges, plan_rows(mask, 10))
        assert np.array_equal(edges, np.where(mask, roi, 0.0))

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no edge pixels"):
            plan_rows(np.zeros((4, 4), dtype=bool), 4)

    def test_shape_mismatch_rejected(self):
        plan = plan_rows(np.ones((3, 4), dtype=bool), 5)
        with pytest.raises(ValueError):
            extract_profile(np.ones((4, 4)), plan)


class TestResample:
    def test_identity_when_lengths_match(self):
        raw = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.array_equal(resample(raw, 5), raw)

    def test_two_to_three(self):
        assert np.array_equal(resample([0.0, 1.0], 3), [0.0, 0.5, 1.0])

    def test_matches_interpolation_oracle_1000_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            h = int(rng.integers(2, 12))
            length = int(rng.integers(2, 12))
            raw = rng.uniform(-50, 300, size=h)
            got = resample(raw, length)
            for i in range(length):
                pos = i * (h - 1) / (length - 1)
                lo = int(np.floor(pos))
                hi = min(lo + 1, h - 1)
                frac = pos - lo
                want = raw[lo] * (1 - frac) + raw[hi] * frac
                assert got[i] == pytest.approx(want, rel=1e-9, abs=1e-9)

    @settings(max_examples=60)
    @given(
        raw=hnp.arrays(
            np.float64,
            st.integers(2, 30),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        ),
        length=st.integers(2, 40),
    )
    def test_preserves_bounds(self, raw, length):
        out = resample(raw, length)
        assert out.min() >= raw.min() - 1e-9
        assert out.max() <= raw.max() + 1e-9

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            plan_rows(np.ones((1, 3), dtype=bool), 5)
        with pytest.raises(ValueError):
            plan_rows(np.ones((2, 3), dtype=bool), 1)
