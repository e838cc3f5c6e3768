"""Canny edge detection and mask dilation for edge-based profiles.

The detector is the standard pipeline: Gaussian blur, Sobel 3x3 gradients,
orientation quantized to four directions, non-maximum suppression, then
double-threshold hysteresis with 8-connectivity. Everything is deterministic:

* blur kernel radius is ceil(3*sigma), normalized to sum 1 over its finite
  support; blur and Sobel both pad by mirroring about the border pixel;
* a blur pass starts from tap 0's product and adds the later taps' in
  ascending order, and Sobel differs from its tap sums only in the sign of
  a zero, so every pixel rounds exactly as its per-pixel definition;
* orientation bins are {0, 45, 90, 135} degrees with boundary angles
  assigned to the lower bin; negative angles fold to [0, 180) by adding
  180, which is exactly what ``% 180.0`` returns for them;
* NMS compares against the two 8-neighbors along the quantized gradient
  direction, strictly against the up/left neighbor and non-strictly against
  the down/right one, so a two-pixel magnitude plateau keeps exactly its
  top/left pixel;
* thresholds apply to the raw Sobel magnitude (0..255*4*sqrt(2) scale);
* pixels within the blur radius of the border are never edges.

Masks are plain boolean arrays, True where a pixel participates in profile
averaging.
"""

from __future__ import annotations

import math

import numpy as np

from .config import MIN_ROI_SIDE, CannyConfig


def gaussian_kernel(sigma: float) -> np.ndarray:
    radius = math.ceil(3 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs**2) / (2 * sigma * sigma))
    return k / k.sum()


def _correlate1d(padded: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Correlation along axis wherever every tap falls inside padded; one scratch array."""
    n = padded.shape[axis] - len(kernel) + 1
    taps = [padded[j : j + n] if axis == 0 else padded[:, j : j + n] for j in range(len(kernel))]
    out = kernel[0] * taps[0]
    scratch = np.empty_like(out)
    for kj, tap in zip(kernel[1:], taps[1:]):
        out += np.multiply(kj, tap, out=scratch)
    return out


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    k = gaussian_kernel(sigma)
    # mirror padding commutes with the column pass, so one pad serves both passes
    cols = _correlate1d(np.pad(img, len(k) // 2, mode="reflect"), k, axis=0)
    return _correlate1d(cols, k, axis=1)


def sobel_gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel gx (positive rightward) and gy (positive downward).

    Evaluated separably ([1,2,1] smoothing then [-1,0,1] difference); kept
    that way on purpose: mirror-symmetric inputs then give exactly tied
    magnitudes, which the NMS tie rule resolves deterministically. On shifted
    views a, b, c of one padded copy, [1,2,1] is (a + 2b) + c and [-1,0,1] is
    c - a: the tap sums up to the sign of a zero, which hypot and bins ignore.
    """
    p = np.pad(np.asarray(img, dtype=np.float64), 1, mode="reflect")
    above, below = p[:-2], p[2:]
    rows = 2.0 * p[1:-1]  # [1,2,1] down every column, the pad columns included
    rows += above
    rows += below
    gx = rows[:, 2:] - rows[:, :-2]
    rows = np.subtract(below, above, out=rows)  # [-1,0,1] down every column
    gy = 2.0 * rows[:, 1:-1]
    gy += rows[:, :-2]
    gy += rows[:, 2:]
    return gx, gy


def quantize_orientation(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Gradient angle folded to [0, 180) and binned to 0/45/90/135 degrees."""
    ang = np.degrees(np.arctan2(gy, gx))
    np.add(ang, 180.0, out=ang, where=ang < 0)
    bins = (ang > 22.5).view(np.uint8)  # angle / 45: boundaries below it, & 3 (180 -> 0)
    for bound in (67.5, 112.5, 157.5):
        bins += ang > bound
    bins &= 3
    return bins


# Per bin: (first, second) neighbor offsets along the gradient direction.
# NMS keeps a pixel only if mag > mag[first] and mag >= mag[second].
_NMS_NEIGHBORS = {
    0: ((0, -1), (0, 1)),
    1: ((-1, -1), (1, 1)),
    2: ((-1, 0), (1, 0)),
    3: ((-1, 1), (1, -1)),
}


def non_maximum_suppression(mag: np.ndarray, bins: np.ndarray) -> np.ndarray:
    h, w = mag.shape
    padded = np.pad(mag, 1, mode="constant", constant_values=-np.inf)

    def neighbor(dy: int, dx: int) -> np.ndarray:
        return padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]

    keep = np.zeros(mag.shape, dtype=bool)
    for b, (first, second) in _NMS_NEIGHBORS.items():
        keep |= (bins == b) & (mag > neighbor(*first)) & (mag >= neighbor(*second))
    keep &= mag > 0
    return np.where(keep, mag, 0.0)


def hysteresis(mag: np.ndarray, low: float, high: float) -> np.ndarray:
    """8-connected growth from pixels >= high through pixels >= low.

    Each pass adds the weak pixels touching the set, so it takes one pass per
    step from a strong pixel to the farthest weak pixel reached, plus one.
    """
    weak = mag >= low
    out, prev = mag >= high, None
    while not np.array_equal(out, prev):
        out, prev = out | (dilate(out, 1) & weak), out
    return out


def canny(gray_roi: np.ndarray, cfg: CannyConfig | None = None) -> np.ndarray:
    """Boolean edge map of a real-valued grayscale ROI."""
    cfg = cfg or CannyConfig()
    cfg.validate()
    h, w = gray_roi.shape
    if h < MIN_ROI_SIDE or w < MIN_ROI_SIDE:
        raise ValueError(f"ROI {w}x{h} is smaller than {MIN_ROI_SIDE}x{MIN_ROI_SIDE}")
    radius = math.ceil(3 * cfg.sigma)
    if min(h, w) < 2 * radius + 1:
        raise ValueError(f"ROI {w}x{h} is smaller than the kernel support {2 * radius + 1}")

    gx, gy = sobel_gradients(gaussian_blur(np.asarray(gray_roi, dtype=np.float64), cfg.sigma))
    mag = np.hypot(gx, gy)
    nms = non_maximum_suppression(mag, quantize_orientation(gx, gy))

    # pixels within the blur radius of the border never become edges
    nms[:radius, :] = 0.0
    nms[-radius:, :] = 0.0
    nms[:, :radius] = 0.0
    nms[:, -radius:] = 0.0

    return hysteresis(nms, cfg.low, cfg.high)


def dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Morphological dilation with a (2r+1)x(2r+1) square, clipped at borders."""
    if radius < 0:
        raise ValueError("dilation radius must be >= 0")
    if radius == 0:
        return mask.copy()
    out = mask.copy()
    for axis in (0, 1):  # square SE is separable into two 1D runs
        acc = out.copy()
        for r in range(1, radius + 1):
            sl_dst = [slice(None), slice(None)]
            sl_src = [slice(None), slice(None)]
            sl_dst[axis], sl_src[axis] = slice(r, None), slice(None, -r)
            acc[tuple(sl_dst)] |= out[tuple(sl_src)]
            sl_dst[axis], sl_src[axis] = slice(None, -r), slice(r, None)
            acc[tuple(sl_dst)] |= out[tuple(sl_src)]
        out = acc
    return out
