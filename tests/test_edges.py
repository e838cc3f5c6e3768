"""Edge-detector tests against a plain-loop reference implementation.

The oracle below re-implements every stage with explicit Python loops and
shares nothing with the library code except the documented semantics:
mirror padding, 4-bin orientation quantization with boundary ties to the
lower bin, NMS strict against the up/left neighbor, 8-connected hysteresis,
and a dead border of one blur radius.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rrvision.config import MIN_ROI_SIDE, CannyConfig
from rrvision.edges import (
    _blur,
    _fold_and_bin,
    _gray_into,
    _grid,
    _reflect_border,
    _sobel,
    _suppress,
    canny,
    dilate,
    gaussian_kernel,
    hysteresis,
)
from rrvision.window import Scratch

from conftest import traced_peak

# --- canny's stages one by one, over its private cores -----------------------


def gaussian_blur(img, sigma):
    k = gaussian_kernel(sigma)
    (h, w), r = img.shape[:2], len(k) // 2
    planes = Scratch().request(3, (h + 2 * r) * (w + 2 * r))
    _blur(img, k, planes, planes[0])
    return _grid(planes[0], h, w + 2 * r)[:, :w]


def sobel_gradients(img):
    h, w = img.shape
    s, gx, gy = np.empty((h + 2) * (w + 2)), np.empty((h, w + 2)), np.empty((h, w + 2))
    _grid(s, h + 2, w + 2)[1:-1, 1:-1] = img
    _sobel(s, h, w, w + 2, np.empty(h * (w + 2)), gx.ravel(), gy.ravel())
    return gx[:, :w], gy[:, :w]


def quantize_orientation(gx, gy):
    ang = np.degrees(np.arctan2(gy, gx))
    return _fold_and_bin(ang, np.empty(ang.shape, np.uint8), np.empty(ang.shape, bool))


def non_maximum_suppression(mag, bins):
    h, w = mag.shape
    q, flat_bins = np.empty((h + 2) * (w + 2)), np.zeros((h, w + 2), np.uint8)
    _grid(q, h + 2, w + 2)[1:-1, 1:-1] = mag
    flat_bins[:, :w] = bins
    return _suppress(q, h, w, w + 2, flat_bins.ravel(), np.empty(q.size * 3, bool))


# --- brute-force oracle ------------------------------------------------------


def _mirror(i, n):
    if i < 0:
        return -i
    if i >= n:
        return 2 * n - 2 - i
    return i


def oracle_kernel(sigma):
    r = math.ceil(3 * sigma)
    k = [math.exp(-(j * j) / (2 * sigma * sigma)) for j in range(-r, r + 1)]
    s = sum(k)
    return [v / s for v in k]


def oracle_blur(img, sigma):
    r = math.ceil(3 * sigma)
    k = oracle_kernel(sigma)
    h, w = img.shape
    tmp = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            tmp[y, x] = sum(k[j + r] * img[_mirror(y + j, h), x] for j in range(-r, r + 1))
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            out[y, x] = sum(k[j + r] * tmp[y, _mirror(x + j, w)] for j in range(-r, r + 1))
    return out


def _corr1d_loop(img, kernel, axis):
    """Per-pixel 1D correlation with mirror indexing, taps in ascending order."""
    h, w = img.shape
    r = len(kernel) // 2
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for j, kj in enumerate(kernel):
                if axis == 0:
                    acc += kj * img[_mirror(y + j - r, h), x]
                else:
                    acc += kj * img[y, _mirror(x + j - r, w)]
            out[y, x] = acc
    return out


def oracle_sobel(img):
    # separable evaluation, same decomposition the detector documents:
    # gx smooths along y then differentiates along x; gy the other way round
    smooth = [1.0, 2.0, 1.0]
    diff = [-1.0, 0.0, 1.0]
    gx = _corr1d_loop(_corr1d_loop(img, smooth, 0), diff, 1)
    gy = _corr1d_loop(_corr1d_loop(img, diff, 0), smooth, 1)
    return gx, gy


def oracle_bin(gx, gy):
    return oracle_bin_of_angle(math.degrees(math.atan2(gy, gx)))


def oracle_bin_of_angle(degrees):
    """Fold an angle in degrees to [0, 180), then bin it; boundaries go to the lower bin."""
    a = degrees % 180.0
    if a <= 22.5 or a > 157.5:
        return 0
    if a <= 67.5:
        return 1
    if a <= 112.5:
        return 2
    return 3


_ORACLE_NEIGHBORS = {0: ((0, -1), (0, 1)), 1: ((-1, -1), (1, 1)),
                     2: ((-1, 0), (1, 0)), 3: ((-1, 1), (1, -1))}


def oracle_nms(mag, gx, gy):
    h, w = mag.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            if mag[y, x] <= 0:
                continue
            (fy, fx), (sy, sx) = _ORACLE_NEIGHBORS[oracle_bin(gx[y, x], gy[y, x])]
            first = mag[y + fy, x + fx] if 0 <= y + fy < h and 0 <= x + fx < w else -np.inf
            second = mag[y + sy, x + sx] if 0 <= y + sy < h and 0 <= x + sx < w else -np.inf
            if mag[y, x] > first and mag[y, x] >= second:
                out[y, x] = mag[y, x]
    return out


def oracle_hysteresis(mag, low, high):
    h, w = mag.shape
    out = mag >= high
    changed = True
    while changed:
        changed = False
        for y in range(h):
            for x in range(w):
                if out[y, x] or mag[y, x] < low:
                    continue
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and out[ny, nx]:
                            out[y, x] = True
                            changed = True
                            break
                    if out[y, x]:
                        break
    return out


def serpentine(h, w, weak=60.0):
    """One 8-connected weak path: full rows joined at alternating ends."""
    mag = np.zeros((h, w))
    for y in range(1, h - 1, 2):
        mag[y, 1 : w - 1] = weak
        if y + 2 < h - 1:
            mag[y + 1, w - 2 if (y // 2) % 2 == 0 else 1] = weak
    return mag


def oracle_canny(img, cfg):
    blurred = oracle_blur(np.asarray(img, dtype=np.float64), cfg.sigma)
    gx, gy = oracle_sobel(blurred)
    mag = np.sqrt(gx * gx + gy * gy)
    nms = oracle_nms(mag, gx, gy)
    r = math.ceil(3 * cfg.sigma)
    nms[:r, :] = 0
    nms[-r:, :] = 0
    nms[:, :r] = 0
    nms[:, -r:] = 0
    return oracle_hysteresis(nms, cfg.low, cfg.high)


def blocks(h, w, seed):
    """Noisy 10-pixel blocks of random levels: short edges all over the image."""
    rng = np.random.default_rng(seed)
    levels = rng.uniform(0.0, 255.0, size=(h // 10 + 1, w // 10 + 1))
    return levels.repeat(10, axis=0).repeat(10, axis=1)[:h, :w] + rng.normal(0.0, 2.0, (h, w))


def vstep(h, w, col, contrast=255.0):
    img = np.zeros((h, w))
    img[:, col:] = contrast
    return img


# the step images of TestCannyAgainstOracle, which acceptance criterion 5 also runs
STEP_COLS, STEP_CONTRASTS, STEP_ROWS = range(8, 17), (80.0, 255.0), (9, 12, 15)


# --- tests -------------------------------------------------------------------


def _ulps(v, k):
    """v moved k ulps, toward +inf for k > 0."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


def adversarial_gradients():
    """(gx, gy) on and next to every point where the quantizer decides a bin."""
    pairs = []
    for zero in (0.0, -0.0):  # a signed zero in either component, angles of 0, +-90 and +-180
        for v in (0.0, -0.0, 1.0, -1.0, 42.0, -42.0):
            pairs += [(zero, v), (v, zero)]
    for m in (1.0, 7.0, 255.0):  # exact diagonals: |gx| == |gy|
        pairs += [(m, m), (m, -m), (-m, m), (-m, -m)]
    for deg in (22.5, 67.5, 112.5, 157.5):  # ratios up to 3 ulps either side of each boundary
        t = math.radians(deg)
        for m in (1.0, 3.0, -1.0, -255.0):
            gx, gy = m * math.cos(t), m * math.sin(t)
            for k in range(-3, 4):
                pairs += [(gx, _ulps(gy, k)), (_ulps(gx, k), gy)]
    return np.array(pairs).T


class TestStagesAgainstOracle:
    @pytest.mark.parametrize("sigma", [1.0, 1.4])
    def test_blur_matches_oracle(self, sigma):
        # numpy's exp need not round like math.exp; at these sigmas the taps agree
        assert np.array_equal(gaussian_kernel(sigma), oracle_kernel(sigma))
        rng = np.random.default_rng(int(sigma * 10))
        for img in (
            rng.integers(0, 256, size=(19, 23)).astype(np.float64),
            rng.normal(0.0, 80.0, size=(21, 17)),
        ):
            assert np.array_equal(gaussian_blur(img, sigma), oracle_blur(img, sigma))

    def test_sobel_matches_oracle(self):
        rng = np.random.default_rng(3)
        for img in (
            rng.integers(0, 256, size=(9, 12), dtype=np.uint8),
            rng.uniform(0.0, 255.0, size=(12, 9)),
            rng.normal(0.0, 50.0, size=(11, 8)),
        ):
            got, want = sobel_gradients(img), oracle_sobel(img)
            assert all(np.array_equal(g, o) for g, o in zip(got, want))

    def test_quantizer_matches_oracle_on_adversarial_gradients(self):
        gx, gy = adversarial_gradients()
        bins = quantize_orientation(gx, gy)
        # The rule under test is the fold and the binning of numpy's angle: on a
        # SIMD build numpy's arctan2 may differ from libm's atan2 in the last ulp.
        angles = np.degrees(np.arctan2(gy, gx))
        assert bins.tolist() == [oracle_bin_of_angle(a) for a in angles.tolist()]
        folded = set((angles % 180.0).tolist())
        assert {0.0, 45.0, 90.0, 135.0, 22.5, 67.5, 112.5, 157.5} <= folded
        assert {180.0, -180.0} <= set(angles.tolist())
        libm = [math.degrees(math.atan2(y, x)) for x, y in zip(gx.tolist(), gy.tolist())]
        agree = [i for i, a in enumerate(angles.tolist()) if a == libm[i]]
        assert len(agree) > 0.8 * len(libm)
        assert all(bins[i] == oracle_bin(gx[i], gy[i]) for i in agree)

    def test_nms_matches_oracle_with_two_pixel_plateaus(self):
        rng = np.random.default_rng(5)
        h, w = 12, 14
        for _ in range(10):
            gx = rng.integers(-2, 3, size=(h, w)).astype(np.float64)
            gy = rng.integers(-2, 3, size=(h, w)).astype(np.float64)
            # few levels, so many ties; only a level below 0 shows the mag > 0 rule, on the border
            mag = rng.integers(-1, 4, size=(h, w)).astype(np.float64)
            for _ in range(8):  # a plateau of two pixels along the first pixel's gradient
                y, x = int(rng.integers(1, h - 1)), int(rng.integers(1, w - 1))
                dy, dx = _ORACLE_NEIGHBORS[oracle_bin(gx[y, x], gy[y, x])][int(rng.integers(2))]
                mag[y, x] = mag[y + dy, x + dx] = 9.0
            got = non_maximum_suppression(mag, quantize_orientation(gx, gy))
            assert np.array_equal(got, oracle_nms(mag, gx, gy))


class TestCannyAgainstOracle:
    def test_uniform_image_has_no_edges(self):
        assert not canny(np.full((24, 24), 137.0), CannyConfig()).any()

    @pytest.mark.parametrize("col", STEP_COLS)
    @pytest.mark.parametrize("contrast", STEP_CONTRASTS)
    def test_vertical_steps_match_oracle_exactly(self, col, contrast):
        cfg = CannyConfig()
        img = vstep(24, 24, col, contrast)
        assert np.array_equal(canny(img, cfg), oracle_canny(img, cfg))

    @pytest.mark.parametrize("row", STEP_ROWS)
    def test_horizontal_steps_match_oracle_exactly(self, row):
        cfg = CannyConfig()
        img = vstep(24, 24, row).T
        assert np.array_equal(canny(img, cfg), oracle_canny(img, cfg))

    def test_two_texture_images_match_oracle(self):
        cfg = CannyConfig()
        rng = np.random.default_rng(9)
        for _ in range(2):
            levels = rng.uniform(0, 255, size=6)
            img = np.repeat(levels, 4)[None, :].repeat(24, axis=0)  # vertical bands
            img = img + rng.normal(0, 2.0, size=img.shape)
            assert np.array_equal(canny(img, cfg), oracle_canny(img, cfg))

    def test_high_threshold_on_the_largest_magnitude(self):
        """One ulp of the largest magnitude NMS keeps decides whether any pixel is strong.

        So the mask pins the magnitude's rounding as sqrt(gx*gx + gy*gy). On
        x86_64 with numpy 2.4, np.hypot gives that pixel one ulp less.
        """
        img, sigma = blocks(24, 24, 9), CannyConfig().sigma
        r = math.ceil(3 * sigma)
        gx, gy = oracle_sobel(oracle_blur(img, sigma))
        top = oracle_nms(np.sqrt(gx * gx + gy * gy), gx, gy)[r:-r, r:-r].max()
        cfg = CannyConfig(low=top / 2, high=top)
        mask = canny(img, cfg)
        assert mask.any()
        assert np.array_equal(mask, oracle_canny(img, cfg))

    def test_vertical_step_is_single_thin_line(self):
        mask = canny(vstep(32, 32, 16), CannyConfig())
        cols = set(np.nonzero(mask)[1])
        assert len(cols) == 1
        # NMS thinness: at most one edge pixel per row
        assert mask.sum(axis=1).max() == 1
        assert mask.any()

    def test_horizontal_step_is_single_thin_line(self):
        mask = canny(vstep(32, 32, 16).T, CannyConfig())
        rows = set(np.nonzero(mask)[0])
        assert len(rows) == 1
        assert mask.sum(axis=0).max() == 1

    @pytest.mark.parametrize("col", [10, 13, 19])
    def test_transpose_duality_on_steps(self, col):
        cfg = CannyConfig()
        img = vstep(28, 40, col)
        assert np.array_equal(canny(img, cfg), canny(img.T, cfg).T)

    def test_border_never_edges(self):
        cfg = CannyConfig()
        r = math.ceil(3 * cfg.sigma)
        mask = canny(vstep(32, 32, 16), cfg)
        assert not mask[:r, :].any() and not mask[-r:, :].any()
        assert not mask[:, :r].any() and not mask[:, -r:].any()

    def test_roi_smaller_than_kernel_support(self):
        with pytest.raises(ValueError, match="kernel support"):
            canny(np.zeros((10, 10)), CannyConfig(sigma=1.4))  # support 11
        # a support of 6e300 + 1 px is named by its sigma, not written out in 301 digits
        with pytest.raises(ValueError, match="kernel support") as info:
            canny(np.zeros((60, 80)), CannyConfig(sigma=1e300))
        assert "ROI 80x60" in str(info.value) and "sigma 1e+300" in str(info.value)
        assert len(str(info.value)) < 200

    def test_roi_smaller_than_minimum(self):
        with pytest.raises(ValueError, match="smaller than 8x8"):
            canny(np.zeros((6, 20)), CannyConfig(sigma=0.5))

    def test_blur_preserves_mean_of_constant(self):
        img = np.full((16, 16), 42.0)
        assert gaussian_blur(img, 1.4) == pytest.approx(img)


class TestOneCore:
    @pytest.mark.parametrize("sigma", [0.5, 1.4, 2.0])
    def test_public_stages_compose_to_canny(self, sigma):
        """The stages, called one by one, give canny's mask bit for bit."""
        cfg = CannyConfig(sigma=sigma, low=15.0, high=45.0)
        r = math.ceil(3 * sigma)
        rng = np.random.default_rng(int(10 * sigma))
        rgb = rng.integers(0, 256, size=(7, 9, 3), dtype=np.uint8).repeat(6, axis=0).repeat(6, axis=1)
        for img in (rng.uniform(0.0, 255.0, (33, 47)), blocks(40, 53, r), rgb[1:40, 2:51]):
            gx, gy = sobel_gradients(gaussian_blur(img, sigma))
            nms = non_maximum_suppression(np.sqrt(gx * gx + gy * gy), quantize_orientation(gx, gy))
            nms[:r] = nms[-r:] = 0.0
            nms[:, :r] = nms[:, -r:] = 0.0
            mask = hysteresis(nms, cfg.low, cfg.high)
            assert mask.any()
            assert np.array_equal(mask, canny(img, cfg))


class TestCannyScratch:
    def test_reused_across_roi_shapes(self):
        cfg = CannyConfig()
        shapes = [(240, 320), (90, 120), (250, 330), (240, 320)]  # shrink, grow past, shrink
        images = {shape: blocks(*shape, seed) for seed, shape in enumerate(dict.fromkeys(shapes))}
        oracles = {shape: oracle_canny(img, cfg) for shape, img in images.items()}
        scratch = Scratch()
        masks = [canny(images[shape], cfg, scratch) for shape in shapes]
        for shape, mask in zip(shapes, masks):  # later calls did not write into earlier masks
            assert mask.any()
            assert np.array_equal(mask, canny(images[shape], cfg))
            assert np.array_equal(mask, oracles[shape])

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 1.4, 2.0, 2.5])  # blur radius 1, 3, 5, 6 and 8
    def test_dirty_scratch_at_the_smallest_sides(self, sigma):
        """A scratch full of NaN and infinities, or left by a larger ROI, changes no mask bit.

        The sides run from the smallest that canny accepts, odd widths included, so
        the flat ranges end right at the planes' last rows and margin columns.
        """
        cfg = CannyConfig(sigma=sigma, low=20.0, high=40.0)
        r = math.ceil(3 * sigma)
        side = max(2 * r + 1, MIN_ROI_SIDE)
        rng = np.random.default_rng(r)
        shapes = [(side, side), (side, side + 3), (side + 5, side), (side + 2, 2 * side + 1)]
        noise = Scratch()
        for plane in noise.request(3, 3 * (side + 2 * r + 5) * (2 * side + 2 * r + 1)):
            plane[0::3], plane[1::3], plane[2::3] = np.nan, np.inf, -np.inf
        larger = Scratch()
        canny(blocks(3 * side, 4 * side + 1, r), cfg, larger)
        for h, w in shapes:
            levels = rng.integers(0, 256, size=(h // 3 + 1, w // 3 + 1, 3), dtype=np.uint8)
            rgb = np.ascontiguousarray(levels.repeat(3, axis=0).repeat(3, axis=1)[:h, :w])
            gray = (rgb[..., 0].astype(np.float64) + rgb[..., 1] + rgb[..., 2]) / 3.0
            for roi, plane in ((rgb[..., 1], rgb[..., 1]), (rgb, gray),
                               (gray + rng.normal(0.0, 2.0, gray.shape),) * 2):
                want = oracle_canny(plane, cfg)
                assert np.array_equal(canny(roi, cfg, Scratch()), want)
                with warnings.catch_warnings(), np.errstate(divide="raise", over="raise",
                                                            invalid="raise"):
                    warnings.simplefilter("error")
                    assert np.array_equal(canny(roi, cfg, noise), want)
                    assert np.array_equal(canny(roi, cfg, larger), want)
        assert want.any()

    @pytest.mark.parametrize("r", [1, 3, 5, 6])
    def test_reflect_border_equals_np_pad(self, r):
        rng = np.random.default_rng(r)
        side = 2 * r + 1  # the smallest ROI side canny accepts at this radius
        for h, w in [(side, side), (side, side + 5), (side + 8, side)]:
            img = rng.normal(0.0, 50.0, size=(h, w))
            p = np.full((h + 2 * r, w + 2 * r), np.nan)
            p[r : r + h, r : r + w] = img
            assert np.array_equal(_reflect_border(p, r), np.pad(img, r, mode="reflect"))

    @staticmethod
    def warm_call_peaks(pixels):
        """Bytes traced by warm 240x320 calls on one scratch, on a plane or an RGB24 crop.

        The crop is a view into a 480x640 frame, as the VGA stream passes it.
        """
        levels = np.random.default_rng(0).uniform(0.0, 255.0, (48, 64, 3))
        frame = levels.repeat(10, axis=0).repeat(10, axis=1)
        roi = {"float64": frame[..., 0], "rgb24": frame.astype(np.uint8)}[pixels][120:360, 160:480]
        scratch = Scratch()
        return [traced_peak(lambda: canny(roi, scratch=scratch))[1] for _ in range(5)][2:]

    @pytest.mark.parametrize("pixels", ["float64", "rgb24"])
    def test_warm_call_traces_under_a_plane(self, pixels):
        """One float64 plane of the ROI allocated per call would reach the bound."""
        peaks = self.warm_call_peaks(pixels)
        assert max(peaks) < 240 * 320 * 8, peaks

    @pytest.mark.parametrize("pixels", ["float64", "rgb24"])
    def test_warm_call_traces_under_five_boolean_planes(self, pixels):
        """Hysteresis holds four boolean planes of the ROI: weak, the set, the grown set and
        dilation's source. A fifth, such as a second copy in dilate, would reach the bound."""
        peaks = self.warm_call_peaks(pixels)
        assert max(peaks) < 5 * 240 * 320, peaks


def gray_plane(img):
    """Canny's first stage on its own: img as the float64 plane the blur pads."""
    return _gray_into(img, np.empty(img.shape[:2]))


class TestGrayscale:
    def test_channel_mean(self):
        data = np.zeros((16, 16, 3), dtype=np.uint8)
        data[0, 0] = (30, 60, 90)
        assert gray_plane(data)[0, 0] == 60.0

    def test_rgb_must_be_uint8(self):
        # wider samples could wrap the 16-bit channel sum; floats have no exact one
        for dtype in (np.uint16, np.float64):
            for convert in (gray_plane, lambda img: gaussian_blur(img, 1.0), canny):
                with pytest.raises(ValueError, match="uint8"):
                    convert(np.full((16, 16, 3), 300, dtype=dtype))

    def test_gray_identity(self):
        data = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert np.array_equal(gray_plane(data), data.astype(np.float64))
        for sigma in (1.0, 2.0):
            blurred = gaussian_blur(data, sigma)
            assert np.array_equal(blurred.view(np.uint64),
                                  gaussian_blur(data.astype(np.float64), sigma).view(np.uint64))

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        got = gray_plane(data[2:13, 3:11])  # a crop, as the pipeline passes it
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
            got = gray_plane(crop)
            assert got.shape == crop.shape[:2]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert gray_plane(data[1:15:2, ::3])[1].tolist() == [255.0] * 6

    @settings(max_examples=25)
    @given(st.integers(0, 2**31 - 1))
    def test_canny_reads_rgb_as_its_gray_plane(self, seed):
        rng = np.random.default_rng(seed)
        levels = rng.integers(0, 256, size=(8, 9, 3), dtype=np.uint8)
        data = levels.repeat(8, axis=0).repeat(8, axis=1)  # blocks: edges between them
        data[rng.random(data.shape) < 0.05] = 255
        crop = data[3:61, 5:70]  # a strided crop with an odd width, as the pipeline passes it
        gray = (crop[..., 0].astype(np.float64) + crop[..., 1] + crop[..., 2]) / 3.0
        mask = canny(crop, scratch=Scratch())
        assert mask.any()
        assert np.array_equal(mask, canny(gray))


class TestHysteresis:
    @settings(max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_idempotent_on_own_output(self, seed):
        rng = np.random.default_rng(seed)
        mag = rng.uniform(0, 150, size=(12, 12))
        mask = hysteresis(mag, 50.0, 100.0)
        again = hysteresis(np.where(mask, mag, 0.0), 50.0, 100.0)
        assert np.array_equal(mask, again)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mag = rng.uniform(0, 150, size=(10, 10))
        assert np.array_equal(hysteresis(mag, 50.0, 100.0), oracle_hysteresis(mag, 50.0, 100.0))

    def test_serpentine_weak_path_fed_by_one_strong_pixel(self):
        mag = serpentine(21, 21)
        mag[1, 1] = 120.0
        mask = hysteresis(mag, 50.0, 100.0)
        assert np.array_equal(mask, oracle_hysteresis(mag, 50.0, 100.0))
        assert np.array_equal(mask, mag > 0)  # all 199 path pixels, in 181 growth passes

    def test_disconnected_weak_stroke_stays_off(self):
        mag = np.pad(serpentine(21, 21), ((0, 0), (0, 4)))
        mag[1, 1] = 120.0
        mag[1:-1, -2] = 60.0  # three zero columns away from the serpentine
        mask = hysteresis(mag, 50.0, 100.0)
        assert np.array_equal(mask, oracle_hysteresis(mag, 50.0, 100.0))
        assert not mask[:, -2].any()
        assert mask[:, :21].sum() == np.count_nonzero(mag[:, :21])

    def test_low_above_high(self):
        mag = serpentine(21, 21)
        mag[1, 1] = 120.0
        mag[5, 3] = 80.0
        mask = hysteresis(mag, 100.0, 50.0)
        assert np.array_equal(mask, oracle_hysteresis(mag, 100.0, 50.0))
        assert np.array_equal(mask, mag >= 50.0)


def _oracle_dilate(mask, radius):
    h, w = mask.shape
    out = np.zeros_like(mask)
    for y in range(h):
        for x in range(w):
            if mask[y, x]:
                for dy in range(-radius, radius + 1):
                    for dx in range(-radius, radius + 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w:
                            out[ny, nx] = True
    return out


class TestDilate:
    def test_empty_stays_empty(self):
        assert not dilate(np.zeros((8, 8), dtype=bool), 2).any()

    def test_interior_pixel_becomes_block(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        out = dilate(mask, 1)
        assert out.sum() == 9
        assert out[3:6, 3:6].all()

    def test_corner_pixel_is_clipped(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, 0] = True
        out = dilate(mask, 1)
        assert out.sum() == 4
        assert out[:2, :2].all()

    def test_radius_past_the_mask_stops_at_its_extent(self):
        # a run as long as the mask already covers it, so a larger radius costs nothing more
        rng = np.random.default_rng(5)
        mask = rng.random((40, 60)) < 0.01
        assert np.array_equal(dilate(mask, 10**9), dilate(mask, max(mask.shape)))

    def test_radius_zero_is_identity(self):
        rng = np.random.default_rng(4)
        mask = rng.random((10, 10)) < 0.3
        assert np.array_equal(dilate(mask, 0), mask)

    @settings(max_examples=40)
    @given(
        mask=hnp.arrays(bool, (9, 11), elements=st.booleans()),
        radius=st.integers(0, 3),
    )
    def test_monotone_and_matches_oracle(self, mask, radius):
        out = dilate(mask, radius)
        assert (out | mask).sum() == out.sum()  # never clears a set bit
        assert np.array_equal(out, _oracle_dilate(mask, radius))
