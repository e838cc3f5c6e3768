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
* the gradient magnitude is ``sqrt(gx*gx + gy*gy)`` in IEEE operations (two
  products, a sum and a square root, each correctly rounded), so no math
  library's kernel decides its bits;
* thresholds apply to the raw Sobel magnitude (0..255*4*sqrt(2) scale);
* pixels within the blur radius of the border are never edges.

The input is the crop as the reader gives it: the first float64 plane takes an
RGB24 crop's exact channel mean, or a GRAY8 plane as it is. Masks are plain
boolean arrays, True where a pixel participates in profile averaging. The planes
in between are views of a CannyScratch, kept from one epoch start to the next.
"""

from __future__ import annotations

import math

import numpy as np

from .config import MIN_ROI_SIDE, CannyConfig


class CannyScratch:
    """The float64 working planes of `canny`, kept from one call to the next.

    Each call asks for three planes of one size, laid end to end in one flat
    buffer. The buffer grows to the largest request it has seen, and a
    smaller ROI works in its first part, so a stream whose ROI changes size
    between epochs keeps one buffer and does not fault in fresh heap pages at
    every epoch start. A scratch serves one call at a time.
    """

    def __init__(self) -> None:
        self._flat = np.empty(0)

    def planes(self, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._flat.size < 3 * size:
            self._flat = np.empty(3 * size)
        return self._flat[:size], self._flat[size : 2 * size], self._flat[2 * size : 3 * size]


def _shaped(plane: np.ndarray, h: int, w: int) -> np.ndarray:
    """The first h*w values of a flat plane as an (h, w) array."""
    return plane[: h * w].reshape(h, w)


def _reflect_border(p: np.ndarray, r: int) -> np.ndarray:
    """Fill p's r-wide border from its interior, as np.pad(interior, r, mode="reflect").

    Mirrors about the border pixel, so the interior must be more than r
    pixels long on both axes. The rows go first, over the full width; the
    column pass then overwrites their corners from filled rows.
    """
    for q in (p, p.T):
        n = len(q)
        q[:r] = q[2 * r : r : -1]
        q[n - r :] = q[n - r - 2 : n - 2 * r - 2 : -1]
    return p


def gaussian_kernel(sigma: float) -> np.ndarray:
    radius = math.ceil(3 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs**2) / (2 * sigma * sigma))
    return k / k.sum()


def _correlate1d(src: np.ndarray, kernel: np.ndarray, axis: int, out: np.ndarray,
                 tmp: np.ndarray) -> np.ndarray:
    """Correlation along axis wherever every tap falls inside src, into out; tmp is out's size."""
    n = out.shape[axis]
    taps = [src[j : j + n] if axis == 0 else src[:, j : j + n] for j in range(len(kernel))]
    np.multiply(kernel[0], taps[0], out=out)
    for kj, tap in zip(kernel[1:], taps[1:]):
        out += np.multiply(kj, tap, out=tmp)
    return out


def _gray_into(img: np.ndarray, out: np.ndarray) -> np.ndarray:
    """img into the float plane out: a plane as it is, a uint8 RGB crop as its channel mean."""
    if img.ndim == 2:
        out[...] = img
    elif img.dtype != np.uint8:
        raise ValueError(f"RGB samples must be uint8, not {img.dtype}")
    else:  # at most 765, the sum is exact in uint16; one division gives the float mean's bits
        total = np.add(img[..., 0], img[..., 1], dtype=np.uint16)
        total += img[..., 2]
        np.divide(total, 3.0, out=out)
    return out


def _blur(img: np.ndarray, kernel: np.ndarray, out: np.ndarray, planes) -> np.ndarray:
    """img blurred into out, working in the three flat planes; out may lie in the first."""
    h, w = img.shape[:2]
    r = len(kernel) // 2
    p0, p1, p2 = planes
    padded = _shaped(p0, h + 2 * r, w + 2 * r)
    _gray_into(img, padded[r : r + h, r : r + w])
    # mirror padding commutes with the column pass, so one pad serves both passes
    cols = _correlate1d(_reflect_border(padded, r), kernel, 0,
                        _shaped(p1, h, w + 2 * r), _shaped(p2, h, w + 2 * r))
    return _correlate1d(cols, kernel, 1, out, _shaped(p2, h, w))


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    k = gaussian_kernel(sigma)
    h, w = img.shape[:2]
    r = len(k) // 2
    return _blur(img, k, np.empty((h, w)), CannyScratch().planes((h + 2 * r) * (w + 2 * r)))


def _sobel(p: np.ndarray, rows: np.ndarray, gx: np.ndarray, gy: np.ndarray):
    """Sobel of p's interior, p padded by one pixel; rows is one pixel wider than gx.

    gy may share memory with p: p is last read before gy is first written.
    """
    above, below = p[:-2], p[2:]
    np.multiply(2.0, p[1:-1], out=rows)  # [1,2,1] down every column, the pad columns included
    rows += above
    rows += below
    np.subtract(rows[:, 2:], rows[:, :-2], out=gx)
    np.subtract(below, above, out=rows)  # [-1,0,1] down every column
    np.multiply(2.0, rows[:, 1:-1], out=gy)
    gy += rows[:, :-2]
    gy += rows[:, 2:]
    return gx, gy


def sobel_gradients(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel gx (positive rightward) and gy (positive downward).

    Evaluated separably ([1,2,1] smoothing then [-1,0,1] difference); kept
    that way on purpose: mirror-symmetric inputs then give exactly tied
    magnitudes, which the NMS tie rule resolves deterministically. On shifted
    views a, b, c of one padded copy, [1,2,1] is (a + 2b) + c and [-1,0,1] is
    c - a: the tap sums up to the sign of a zero, which the magnitude's
    squares and the bins ignore.
    """
    h, w = img.shape
    p = np.empty((h + 2, w + 2))
    p[1:-1, 1:-1] = img
    return _sobel(_reflect_border(p, 1), np.empty((h, w + 2)), np.empty((h, w)), np.empty((h, w)))


def quantize_orientation(gx: np.ndarray, gy: np.ndarray, ang: np.ndarray | None = None) -> np.ndarray:
    """Gradient angle folded to [0, 180) and binned to 0/45/90/135 degrees.

    The angle is worked out in `ang` when given, else in a new array.
    """
    ang = np.degrees(np.arctan2(gy, gx, out=ang), out=ang)
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


def _suppress(padded: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """NMS in place on padded's interior, after setting its one-pixel border to -inf."""
    h, w = bins.shape
    padded[0] = padded[-1] = -np.inf
    padded[:, 0] = padded[:, -1] = -np.inf
    mag = padded[1:-1, 1:-1]

    def neighbor(dy: int, dx: int) -> np.ndarray:
        return padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]

    keep = np.zeros(mag.shape, dtype=bool)
    for b, (first, second) in _NMS_NEIGHBORS.items():
        keep |= (bins == b) & (mag > neighbor(*first)) & (mag >= neighbor(*second))
    keep &= mag > 0
    np.copyto(mag, 0.0, where=~keep)
    return mag


def non_maximum_suppression(mag: np.ndarray, bins: np.ndarray) -> np.ndarray:
    padded = np.empty((mag.shape[0] + 2, mag.shape[1] + 2))
    padded[1:-1, 1:-1] = mag
    return _suppress(padded, bins)


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


def canny(roi: np.ndarray, cfg: CannyConfig | None = None,
          scratch: CannyScratch | None = None) -> np.ndarray:
    """Edge mask of roi: a GRAY8 (h, w) or uint8 RGB24 (h, w, 3) crop, or a real (h, w) plane.

    The float64 planes, roi's gray plane first, are views of `scratch`, or of a
    throwaway one when none is given; the mask returned shares no memory with them.
    """
    cfg = cfg or CannyConfig()
    cfg.validate()
    h, w = roi.shape[:2]
    if h < MIN_ROI_SIDE or w < MIN_ROI_SIDE:
        raise ValueError(f"ROI {w}x{h} is smaller than {MIN_ROI_SIDE}x{MIN_ROI_SIDE}")
    radius = math.ceil(3 * cfg.sigma)
    if min(h, w) < 2 * radius + 1:
        raise ValueError(f"ROI {w}x{h} is smaller than the kernel support {2 * radius + 1}")

    # What the planes p0 | p1 | p2 hold, stage by stage:
    #   blur       padded gray ROI | column pass | pass scratch; the row pass
    #              writes into the interior of the Sobel input, in p0
    #   Sobel      Sobel input, then gy | Sobel rows | gx
    #   angle      gy | angle | gx
    #   magnitude  gy*gy | magnitude inside NMS's -inf border | gx
    planes = (scratch or CannyScratch()).planes((h + 2 * radius) * (w + 2 * radius))
    p0, p1, p2 = planes
    sob = _shaped(p0, h + 2, w + 2)
    _blur(roi, gaussian_kernel(cfg.sigma), sob[1:-1, 1:-1], planes)
    gx, gy = _sobel(_reflect_border(sob, 1), _shaped(p1, h, w + 2), _shaped(p2, h, w),
                    _shaped(p0, h, w))
    bins = quantize_orientation(gx, gy, _shaped(p1, h, w))
    padded = _shaped(p1, h + 2, w + 2)
    mag = padded[1:-1, 1:-1]
    np.multiply(gx, gx, out=mag)
    mag += np.multiply(gy, gy, out=gy)
    np.sqrt(mag, out=mag)
    nms = _suppress(padded, bins)

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
