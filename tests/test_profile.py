from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rrvision.profile import extract_profile, fill_and_resample, plan_rows


def row_means(pixels, mask=None):
    """Raw per-row profile of a uint8 crop: resampling to the ROI height is the identity."""
    mask = np.ones(pixels.shape[:2], dtype=bool) if mask is None else mask
    channels = 1 if pixels.ndim == 2 else pixels.shape[2]
    return extract_profile(pixels, plan_rows(mask, pixels.shape[0], channels))


def exact_row_mean(row, row_mask):
    """The mean of a row's masked samples, all channels, as a Fraction."""
    samples = [int(v) for v in row[row_mask].ravel()]
    return Fraction(sum(samples), len(samples))


def random_crop(rng, h, w, rgb):
    return rng.integers(0, 256, size=(h, w, 3) if rgb else (h, w), dtype=np.uint8)


def resample(raw, length):
    """A raw profile resampled: with every row valid, the means are the profile."""
    raw = np.asarray(raw, dtype=np.float64)
    return fill_and_resample(raw, plan_rows(np.ones((len(raw), 1), bool), length))


class TestFullRoiProfile:
    def test_constant_roi(self):
        assert np.array_equal(row_means(np.full((2, 2), 60, np.uint8)), [60.0, 60.0])

    def test_two_extreme_rows(self):
        for shape in [(1, 10), (1, 640, 3)]:  # a saturated VGA RGB row sums past 2**16
            roi = np.vstack([np.zeros(shape, np.uint8), np.full(shape, 255, np.uint8)])
            assert np.array_equal(row_means(roi), [0.0, 255.0])

    def test_matches_row_mean_oracle_1000_instances(self):
        rng = np.random.default_rng(0)
        for rgb in (False, True):
            for _ in range(1000):
                h, w = int(rng.integers(2, 9)), int(rng.integers(1, 9))
                roi = random_crop(rng, h, w, rgb)
                mask = rng.random((h, w)) < 0.5
                mask[np.arange(h), rng.integers(0, w, size=h)] = True  # no empty row
                got = row_means(roi, mask)
                for i in range(h):
                    assert got[i] == float(exact_row_mean(roi[i], mask[i]))

    @settings(max_examples=50)
    @given(seed=st.integers(0, 10**6), rgb=st.booleans())
    def test_invariant_to_permuting_pixels_within_rows(self, seed, rgb):
        rng = np.random.default_rng(seed)
        roi = random_crop(rng, 5, 7, rgb)
        shuffled = roi.copy()
        for row in shuffled:
            rng.shuffle(row)  # whole pixels: an RGB triple moves as one
        assert np.array_equal(row_means(shuffled), row_means(roi))

    def test_vertical_shift_moves_profile_by_one_row(self):
        # horizontal stripes: shifting content down by one row shifts the profile
        stripes = np.repeat(np.arange(8, dtype=np.uint8) * 30, 2)[:, None].repeat(6, axis=1)
        shifted = np.roll(stripes, 1, axis=0)
        assert np.array_equal(row_means(shifted)[1:], row_means(stripes)[:-1])


class TestEdgesProfile:
    def test_full_mask_equals_full_roi_exactly(self):
        rng = np.random.default_rng(1)
        roi = random_crop(rng, 12, 9, rgb=False)
        assert np.array_equal(row_means(roi), roi.sum(axis=1) / roi.shape[1])
        plan = plan_rows(np.ones(roi.shape, dtype=bool), 12)
        assert np.array_equal(plan.valid_rows, np.arange(12))

    def test_invalid_row_linear_fill(self):
        roi = np.array([[10, 99], [55, 77], [30, 99]], np.uint8)
        mask = np.array([[True, False], [False, False], [True, False]])
        assert np.array_equal(row_means(roi, mask), [10.0, 20.0, 30.0])
        assert list(plan_rows(mask, 3).valid_rows) == [0, 2]

    def test_constant_extension_at_ends(self):
        roi = np.arange(12, dtype=np.uint8).reshape(4, 3)
        mask = np.zeros(roi.shape, dtype=bool)
        mask[1, 1] = True
        mask[2, 0] = True
        assert np.array_equal(row_means(roi, mask), [4.0, 4.0, 6.0, 6.0])

    def test_single_pixel_per_row(self):
        rng = np.random.default_rng(2)
        roi = random_crop(rng, 6, 5, rgb=False)
        mask = np.zeros(roi.shape, dtype=bool)
        picks = rng.integers(0, 5, size=6)
        mask[np.arange(6), picks] = True
        assert np.array_equal(row_means(roi, mask), roi[np.arange(6), picks])

    def test_plan_is_reused_across_frames(self):
        rng = np.random.default_rng(4)
        mask = rng.random((7, 5)) < 0.5
        mask[0, 0] = True
        plan = plan_rows(mask, 7, 3)
        for _ in range(3):
            roi = random_crop(rng, 7, 5, rgb=True)
            p = extract_profile(roi, plan)
            assert p.dtype == np.float64 and p.shape == (7,)
            assert np.array_equal(p, row_means(roi, mask))

    def test_leaves_input_unchanged(self):
        rng = np.random.default_rng(5)
        for rgb in (False, True):
            frame = random_crop(rng, 10, 12, rgb)
            frame.setflags(write=False)  # as the raw reader's frames are
            roi = frame[2:8, 3:11]  # a strided crop, as the pipeline passes it
            mask = rng.random(roi.shape[:2]) < 0.4
            mask[0, 0] = True
            before = roi.copy()
            assert np.array_equal(row_means(roi, mask), row_means(before, mask))
            assert np.array_equal(roi, before)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_plan_mask_is_the_repeated_mask_as_uint8(self, channels):
        mask = np.random.default_rng(6).random((9, 7)) < 0.4
        for m in (mask, mask.T, mask[::2, 1:]):  # contiguous and strided
            plan_mask = plan_rows(m, 5, channels).mask
            want = np.repeat(m, channels, axis=1).astype(np.uint8)
            assert plan_mask.dtype == np.uint8 and plan_mask.flags.c_contiguous
            assert plan_mask.tobytes() == want.tobytes()
            assert not np.shares_memory(plan_mask, m)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no edge pixels"):
            plan_rows(np.zeros((4, 4), dtype=bool), 4)

    def test_shape_mismatch_rejected(self):
        gray8 = plan_rows(np.ones((3, 4), dtype=bool), 5)
        rgb24 = plan_rows(np.ones((3, 4), dtype=bool), 5, 3)
        for plan, shape in [(gray8, (4, 4)), (gray8, (3, 5)), (gray8, (3, 4, 3)), (rgb24, (3, 4))]:
            with pytest.raises(ValueError, match="do not fit a plan"):
                extract_profile(np.ones(shape, np.uint8), plan)

    @pytest.mark.parametrize("dtype", [np.uint16, np.int8, np.float64])
    def test_non_uint8_rejected(self, dtype):
        plan = plan_rows(np.ones((3, 4), dtype=bool), 5)
        with pytest.raises(ValueError, match="must be uint8"):
            extract_profile(np.ones((3, 4), dtype), plan)


def masked_path(pixels, plan):
    """The profile by the general rule: masked sums, the fill over every row, then resampling."""
    sums = np.multiply(pixels.reshape(plan.mask.shape), plan.mask).sum(axis=1, dtype=np.uint32)
    raw = np.interp(plan.rows, plan.valid_rows, sums[plan.valid_rows] / plan.divisors)
    return np.interp(plan.positions, plan.rows, raw)


class TestFullMask:
    """A full mask skips the multiply and every row valid skips the fill; the bytes are the same."""

    @pytest.mark.parametrize("channels", [1, 3])
    def test_full_mask_profile_equals_the_masked_path(self, channels):
        rng = np.random.default_rng(9)
        for h, w, length in [(60, 80, 100), (120, 160, 100), (7, 5, 3), (2, 1, 9)]:
            plan = plan_rows(np.ones((h, w), dtype=bool), length, channels)
            assert plan.full
            for _ in range(5):
                frame = random_crop(rng, h + 4, w + 6, channels == 3)
                crop = frame[2 : 2 + h, 3 : 3 + w]  # a strided crop, as the pipeline passes it
                assert extract_profile(crop, plan).tobytes() == masked_path(crop, plan).tobytes()

    @pytest.mark.parametrize("channels", [1, 3])
    def test_partial_masks_equal_the_masked_path(self, channels):
        rng = np.random.default_rng(10)
        for k in range(200):
            h, w = int(rng.integers(2, 30)), int(rng.integers(1, 30))
            mask = rng.random((h, w)) < rng.uniform(0.1, 0.9)
            mask[0, 0] = True
            if k % 2:  # every row valid, so the fill is skipped, though the mask need not be full
                mask[np.arange(h), rng.integers(0, w, size=h)] = True
            plan = plan_rows(mask, int(rng.integers(2, 40)), channels)
            assert plan.full == bool(mask.all())
            crop = random_crop(rng, h, w, channels == 3)
            assert extract_profile(crop, plan).tobytes() == masked_path(crop, plan).tobytes()


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
