"""Canny edge detection and mask dilation for edge-based profiles.

The detector is the standard pipeline: Gaussian blur, Sobel 3x3 gradients,
orientation quantized to four directions, non-maximum suppression, then
double-threshold hysteresis with 8-connectivity. Everything is deterministic:

* blur kernel radius is ceil(3*sigma), normalized to sum 1 over its finite
  support; blur and Sobel both pad by mirroring about the border pixel;
* orientation bins are {0, 45, 90, 135} degrees with boundary angles
  assigned to the lower bin;
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


def _correlate1d(img: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """1D correlation along axis with mirror padding (border pixel not repeated)."""
    radius = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    padded = np.pad(img, pad, mode="reflect")
    out = np.zeros_like(img, dtype=np.float64)
    n = img.shape[axis]
    for j, kj in enumerate(kernel):
        sl = [slice(None), slice(None)]
        sl[axis] = slice(j, j + n)
        out += kj * padded[tuple(sl)]
    return out


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    k = gaussian_kernel(sigma)
    return _correlate1d(_correlate1d(img, k, axis=0), k, axis=1)


def sobel_gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel gx (positive rightward) and gy (positive downward).

    Evaluated separably ([1,2,1] smoothing then [-1,0,1] difference); kept
    that way on purpose: mirror-symmetric inputs then give exactly tied
    magnitudes, which the NMS tie rule resolves deterministically.
    """
    smooth = np.array([1.0, 2.0, 1.0])
    diff = np.array([-1.0, 0.0, 1.0])
    gx = _correlate1d(_correlate1d(img, smooth, axis=0), diff, axis=1)
    gy = _correlate1d(_correlate1d(img, diff, axis=0), smooth, axis=1)
    return gx, gy


def quantize_orientation(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Gradient angle folded to [0, 180) and binned to 0/45/90/135 degrees."""
    ang = np.degrees(np.arctan2(gy, gx)) % 180.0
    bins = np.zeros(ang.shape, dtype=np.uint8)  # bin value = angle / 45
    bins[(ang > 22.5) & (ang <= 67.5)] = 1
    bins[(ang > 67.5) & (ang <= 112.5)] = 2
    bins[(ang > 112.5) & (ang <= 157.5)] = 3
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
        sel = (bins == b) & (mag > 0)
        keep |= sel & (mag > neighbor(*first)) & (mag >= neighbor(*second))
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

    blurred = gaussian_blur(np.asarray(gray_roi, dtype=np.float64), cfg.sigma)
    gx, gy = sobel_gradients(blurred)
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
