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
in between are one request to a Scratch, which a stream's window analysis shares,
so a warm call allocates less than one float64 plane of the ROI, as tracemalloc
traces it. Its peak is hysteresis's: four boolean planes of the ROI live during a
pass's dilation (weak, the set, the grown set and the source of dilation's runs),
335 KB at 240x320.

Every plane of a w-wide ROI has one row pitch, P = w + 2r for blur radius r, and
each stage is ufunc calls on 1-D contiguous slices of the flat planes: a shift by
(dy, dx) is the flat offset dy*P + dx. The P - w margin columns after each row hold
finite values that no kept pixel reads (NMS's -inf border takes them in), and each
range ends at the last value a pixel needs: no slice runs past (h + 2r)*P values.
"""

from __future__ import annotations

import math

import numpy as np

from .config import MIN_ROI_SIDE, CannyConfig
from .window import Scratch


def _grid(flat: np.ndarray, rows: int, pitch: int) -> np.ndarray:
    """The first rows*pitch values of a flat plane as a (rows, pitch) array."""
    return flat[: rows * pitch].reshape(rows, pitch)


def _reflect_border(p: np.ndarray, r: int) -> np.ndarray:
    """Fill p's r-wide border from its interior, as np.pad(interior, r, mode="reflect").

    Mirrors about the border pixel, so the interior must be more than r pixels long on
    both axes. The rows go first, over the full width; the columns' corners copy them.
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


def _taps(src: np.ndarray, kernel: np.ndarray, step: int, out: np.ndarray,
          tmp: np.ndarray) -> np.ndarray:
    """out[i] = sum of kernel[j] * src[i + j*step] over j, tap 0's first; tmp >= out's length."""
    n = len(out)
    np.multiply(kernel[0], src[:n], out=out)
    for j in range(1, len(kernel)):
        out += np.multiply(kernel[j], src[j * step : j * step + n], out=tmp[:n])
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


def _blur(img: np.ndarray, kernel: np.ndarray, planes, out: np.ndarray) -> np.ndarray:
    """img blurred into the flat out at pitch P = w + 2r, pixel (y, x) at y*P + x.

    planes take the padded gray plane, the column pass and the products; out may lie in the first.
    """
    h, w = img.shape[:2]
    r = len(kernel) // 2
    pitch = w + 2 * r
    padded = _grid(planes[0], h + 2 * r, pitch)
    _gray_into(img, padded[r : r + h, r : r + w])
    # mirror padding commutes with the column pass, so one pad serves both passes
    _reflect_border(padded, r)
    cols = _taps(planes[0], kernel, pitch, planes[1][: h * pitch], planes[2])  # down the columns
    return _taps(cols, kernel, 1, out[: h * pitch - 2 * r], planes[2])  # along the rows


def _sobel(s: np.ndarray, h: int, w: int, pitch: int, rows: np.ndarray, gx: np.ndarray,
           gy: np.ndarray):
    """Sobel of an (h, w) plane at (y+1)*pitch + x+1 in the flat s, after filling its border.

    gx is positive rightward and gy downward. rows takes h*pitch values, gx and
    gy two fewer, pixel (y, x) at y*pitch + x. gy may share memory with s: s is
    last read before gy is first written.

    Evaluated separably ([1,2,1] smoothing then [-1,0,1] difference); kept
    that way on purpose: mirror-symmetric inputs then give exactly tied
    magnitudes, which the NMS tie rule resolves deterministically. On shifted
    views a, b, c of the padded plane, [1,2,1] is (a + 2b) + c and [-1,0,1] is
    c - a: the tap sums up to the sign of a zero, which the magnitude's
    squares and the bins ignore.
    """
    _reflect_border(_grid(s, h + 2, pitch)[:, : w + 2], 1)
    n = h * pitch
    above, mid, below = s[:n], s[pitch : pitch + n], s[2 * pitch : 2 * pitch + n]
    rows, gx, gy = rows[:n], gx[: n - 2], gy[: n - 2]
    np.multiply(2.0, mid, out=rows)  # [1,2,1] down every column, the pad columns included
    rows += above
    rows += below
    np.subtract(rows[2:], rows[:-2], out=gx)
    np.subtract(below, above, out=rows)  # [-1,0,1] down every column
    np.multiply(2.0, rows[1:-1], out=gy)
    gy += rows[:-2]
    gy += rows[2:]
    return gx, gy


def _fold_and_bin(ang: np.ndarray, bins: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Degrees ang folded in place to [0, 180), binned into uint8 bins; tmp: bools of ang's size."""
    np.add(ang, 180.0, out=ang, where=np.less(ang, 0.0, out=tmp))
    np.greater(ang, 22.5, out=bins.view(bool))  # angle / 45: boundaries below it, & 3 (180 -> 0)
    for bound in (67.5, 112.5, 157.5):
        bins += np.greater(ang, bound, out=tmp)
    bins &= 3
    return bins


# Per bin: (first, second) neighbor offsets (dy, dx) along the gradient direction.
# NMS keeps a pixel only if mag > mag[first] and mag >= mag[second].
_NMS_NEIGHBORS = (((0, -1), (0, 1)), ((-1, -1), (1, 1)), ((-1, 0), (1, 0)), ((-1, 1), (1, -1)))


def _suppress(q: np.ndarray, h: int, w: int, pitch: int, bins: np.ndarray,
              work: np.ndarray) -> np.ndarray:
    """NMS in place on the flat q, after setting its border and margin to -inf; its (h, w) view.

    Pixel (y, x) has its magnitude at (y+1)*pitch + x+1 and its bin at
    y*pitch + x. work is a bool array of at least three times bins' length.
    """
    padded = _grid(q, h + 2, pitch)
    padded[[0, h + 1]] = padded[:, [0]] = padded[:, w + 1 :] = -np.inf
    n = (h - 1) * pitch + w  # pixel (0, 0) to pixel (h-1, w-1)
    mag = q[pitch + 1 : pitch + 1 + n]
    keep, sel, cmp = work[:n], work[n : 2 * n], work[2 * n : 3 * n]
    keep.fill(False)
    for b, ((fy, fx), (sy, sx)) in enumerate(_NMS_NEIGHBORS):
        np.equal(bins[:n], b, out=sel)
        sel &= np.greater(mag, q[(1 + fy) * pitch + 1 + fx :][:n], out=cmp)
        sel &= np.greater_equal(mag, q[(1 + sy) * pitch + 1 + sx :][:n], out=cmp)
        keep |= sel
    keep &= np.greater(mag, 0.0, out=cmp)
    np.copyto(mag, 0.0, where=np.logical_not(keep, out=keep))
    return padded[1 : h + 1, 1 : w + 1]


def hysteresis(mag: np.ndarray, low: float, high: float) -> np.ndarray:
    """8-connected growth from pixels >= high through pixels >= low.

    Each pass adds the weak pixels touching the set, so it takes one pass per
    step from a strong pixel to the farthest weak pixel reached, plus one.
    """
    weak = mag >= low
    out = mag >= high
    while True:  # the set only grows, so an unchanged count is an unchanged set
        grown = dilate(out, 1)
        grown &= weak
        grown |= out  # strong pixels stay when low > high
        if np.count_nonzero(grown) == np.count_nonzero(out):
            return out
        out = grown


def canny(roi: np.ndarray, cfg: CannyConfig | None = None,
          scratch: Scratch | None = None) -> np.ndarray:
    """Edge mask of roi: a GRAY8 (h, w) or uint8 RGB24 (h, w, 3) crop, or a real (h, w) plane.

    The three float64 planes, roi's gray plane first, are one request to `scratch`,
    or to a throwaway one when none is given; the mask returned shares no memory with them.
    """
    cfg = cfg or CannyConfig()
    cfg.validate()
    h, w = roi.shape[:2]
    if h < MIN_ROI_SIDE or w < MIN_ROI_SIDE:
        raise ValueError(f"ROI {w}x{h} is smaller than {MIN_ROI_SIDE}x{MIN_ROI_SIDE}")
    radius = math.ceil(3 * cfg.sigma)
    if min(h, w) < 2 * radius + 1:  # the support can have 300 digits: name sigma instead
        raise ValueError(f"ROI {w}x{h} is smaller than the kernel support "
                         f"2*ceil(3*sigma)+1 at sigma {cfg.sigma}")

    # What the planes p0 | p1 | p2 hold at row pitch P, stage by stage:
    #   blur       padded gray ROI | column pass | products; the row pass writes the
    #              Sobel input's interior, at offset P + 1 in p0
    #   Sobel      Sobel input, then gy | Sobel rows | gx
    #   magnitude  gy, then gy*gy | gx*gx, then the magnitude, at offset P + 1 | gx's angle
    #   NMS        bytes: the bins, then NMS's masks | magnitude in a -inf border | angle
    pitch = w + 2 * radius
    planes = (scratch or Scratch()).request(3, (h + 2 * radius) * pitch)
    p0, p1, p2 = planes
    _blur(roi, gaussian_kernel(cfg.sigma), planes, p0[pitch + 1 :])
    n = (h - 1) * pitch + w  # pixel (0, 0) to pixel (h-1, w-1)
    gx, gy = (g[:n] for g in _sobel(p0, h, w, pitch, p1, p2, p0))
    mag = p1[pitch + 1 : pitch + 1 + n]
    np.multiply(gx, gx, out=mag)
    ang = np.degrees(np.arctan2(gy, gx, out=gx), out=gx)  # gx is dead once squared
    mag += np.multiply(gy, gy, out=gy)
    np.sqrt(mag, out=mag)
    work = p0.view(bool)  # gy is dead too
    bins = _fold_and_bin(ang, work[:n].view(np.uint8), work[n : 2 * n])
    nms = _suppress(p1, h, w, pitch, bins, work[n:])

    # pixels within the blur radius of the border never become edges
    nms[:radius] = nms[-radius:] = 0.0
    nms[:, :radius] = nms[:, -radius:] = 0.0

    return hysteresis(nms, cfg.low, cfg.high)


def dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Morphological dilation with a (2r+1)x(2r+1) square, clipped at borders."""
    if radius < 0:
        raise ValueError("dilation radius must be >= 0")
    out = mask.copy()
    src = np.empty_like(out)
    for q, s in ((out, src), (out.T, src.T)):  # square SE is separable into two 1D runs
        np.copyto(s, q)
        for r in range(1, min(radius, len(q)) + 1):  # a run of len(q) covers q
            q[r:] |= s[:-r]
            q[:-r] |= s[r:]
    return out
