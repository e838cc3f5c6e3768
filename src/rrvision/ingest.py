"""Frame sources: image-sequence and raw-file readers with a JSON manifest.

Two on-disk layouts are supported, both bit-exact and codec-free:

* a directory of binary PPM (RGB24) or PGM (GRAY8) files named
  ``frame_%06d.ppm`` / ``frame_%06d.pgm`` together with a ``meta.json``
  manifest, or
* a single headerless raw file (``.rgb24`` / ``.gray8``, frame-major,
  row-major, channel-interleaved) with a sibling ``meta.json``. Its frames
  are read-only views of the file mapped into memory, not copies.

The manifest is a UTF-8 JSON object with keys exactly
``{"width", "height", "fps", "frame_count", "pixel_format"}``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import mmap
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

RGB24 = "RGB24"
GRAY8 = "GRAY8"
PIXEL_FORMATS = (RGB24, GRAY8)

MANIFEST_NAME = "meta.json"
_FRAME_RE = re.compile(r"^frame_(\d{6})\.(ppm|pgm)$")

# A raw reader releases its consumed pages in batches of at least this many
# bytes: a madvise per small frame, and the fresh page faults that follow it,
# cost more time than they save memory; a larger batch holds more pages.
RELEASE_BYTES = 256 * 1024
_MADV_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)  # None where madvise is missing


@dataclass(frozen=True)
class VideoMeta:
    width: int
    height: int
    fps: float
    frame_count: int
    pixel_format: str

    def __post_init__(self):
        sizes = (self.width, self.height, self.frame_count)
        if not all(type(v) is int for v in sizes):
            raise ValueError(f"width, height and frame_count must be integers, not {sizes}")
        if type(self.fps) not in (int, float) or not math.isfinite(self.fps):
            raise ValueError(f"fps must be a finite number, not {self.fps!r}")
        if self.width < 16 or self.height < 16:
            raise ValueError("frame dimensions must be at least 16x16")
        if not self.fps > 0:
            raise ValueError("fps must be positive")
        if self.frame_count < 0:
            raise ValueError("frame_count must be >= 0")
        if self.pixel_format not in PIXEL_FORMATS:
            raise ValueError(f"unknown pixel_format {self.pixel_format!r}")

    @property
    def channels(self) -> int:
        return 3 if self.pixel_format == RGB24 else 1

    @property
    def frame_bytes(self) -> int:
        return self.width * self.height * self.channels


@dataclass
class FrameBuffer:
    """One decoded frame; data is row-major uint8, shape (h, w, 3) or (h, w).

    data is read-only. From a raw file it is a view of the mapped file, valid
    for as long as it is held; a file rewritten in place changes it.
    """

    index: int
    data: np.ndarray


_MANIFEST_KEYS = {f.name for f in dataclasses.fields(VideoMeta)}


def load_manifest(path: Path) -> VideoMeta:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing manifest {path}")
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    if not isinstance(d, dict) or set(d) != _MANIFEST_KEYS:
        raise ValueError(f"manifest must be an object with keys exactly {sorted(_MANIFEST_KEYS)}, "
                         f"got {sorted(d) if isinstance(d, dict) else d!r}")
    return VideoMeta(**d)


def write_manifest(path: Path, meta: VideoMeta) -> None:
    d = dataclasses.asdict(meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- PPM / PGM (binary, maxval 255) ---------------------------------------


def _read_pnm_header(fh) -> tuple[str, int, int]:
    """Parse magic / width / height / maxval, tolerating comments."""
    magic = fh.read(2)
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"not a binary PGM/PPM file (magic {magic!r})")

    def next_token() -> bytes:
        tok = b""
        while True:
            c = fh.read(1)
            if c == b"":
                raise ValueError("truncated PNM header")
            if c == b"#":  # comment runs to end of line
                while c not in (b"\n", b""):
                    c = fh.read(1)
                continue
            if c.isspace():
                if tok:
                    return tok
                continue
            tok += c

    width = int(next_token())
    height = int(next_token())
    maxval = int(next_token())
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval}")
    return magic.decode(), width, height


def read_pnm(path: Path) -> np.ndarray:
    """Read a binary PPM (P6) or PGM (P5); returns uint8 (h,w,3) or (h,w)."""
    with open(path, "rb") as fh:
        magic, width, height = _read_pnm_header(fh)
        channels = 3 if magic == "P6" else 1
        payload = fh.read(width * height * channels + 1)
    if len(payload) != width * height * channels:
        raise ValueError(f"size mismatch in {path.name}")
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 3:
        return arr.reshape(height, width, 3)
    return arr.reshape(height, width)


def write_pnm(path: Path, data: np.ndarray) -> None:
    """Write uint8 (h,w,3) as PPM or (h,w) as PGM."""
    if data.dtype != np.uint8:
        raise ValueError("PNM writer expects uint8 samples")
    if data.ndim == 3 and data.shape[2] == 3:
        magic = b"P6"
        h, w = data.shape[:2]
    elif data.ndim == 2:
        magic = b"P5"
        h, w = data.shape
    else:
        raise ValueError(f"unsupported sample shape {data.shape}")
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(data.tobytes())


# --- sources ----------------------------------------------------------------


def open_source(path) -> tuple[VideoMeta, Iterator[FrameBuffer]]:
    """Open a frame source, returning its metadata and a frame iterator.

    ``path`` may be a directory of PPM/PGM frames plus a manifest, or a raw
    ``.rgb24`` / ``.gray8`` file with a sibling manifest. Frames are yielded
    in ascending index order and the stream ends exactly at ``frame_count``.
    The iterator is single-consumer and lazy: it opens no frame data before
    its first ``next()``, so closing it before then opens nothing.

    A raw file is mapped read-only at the first ``next()``. Each frame's size
    is checked against the file before its view is handed out, so a file that
    shrank raises ``ValueError``. Pages of consumed frames are dropped from the
    process behind the reader, in batches of ``RELEASE_BYTES``; a frame still
    held re-reads them from the page cache when touched.
    """
    path = Path(path)
    if path.is_dir():
        return _open_image_dir(path)
    if path.suffix in (".rgb24", ".gray8"):
        return _open_raw(path)
    raise ValueError(f"unsupported source {path} (expected directory or .rgb24/.gray8)")


def _open_image_dir(dirpath: Path) -> tuple[VideoMeta, Iterator[FrameBuffer]]:
    meta = load_manifest(dirpath / MANIFEST_NAME)
    ext = "ppm" if meta.pixel_format == RGB24 else "pgm"
    indices = sorted(
        int(m.group(1))
        for p in dirpath.iterdir()
        if (m := _FRAME_RE.match(p.name)) and m.group(2) == ext
    )
    if indices != list(range(meta.frame_count)):
        raise ValueError(
            f"non-contiguous frame indices in {dirpath}: "
            f"found {len(indices)} frames, manifest says {meta.frame_count}"
        )

    def frames() -> Iterator[FrameBuffer]:
        for i in range(meta.frame_count):
            data = read_pnm(dirpath / f"frame_{i:06d}.{ext}")
            if data.shape[0] != meta.height or data.shape[1] != meta.width:
                raise ValueError(f"manifest/frame size mismatch at frame {i}")
            yield FrameBuffer(index=i, data=data)

    return meta, frames()


def _open_raw(filepath: Path) -> tuple[VideoMeta, Iterator[FrameBuffer]]:
    meta = load_manifest(filepath.parent / MANIFEST_NAME)
    expected_fmt = RGB24 if filepath.suffix == ".rgb24" else GRAY8
    if meta.pixel_format != expected_fmt:
        raise ValueError(
            f"manifest pixel_format {meta.pixel_format} does not match {filepath.suffix}"
        )
    actual = filepath.stat().st_size
    expected = meta.frame_bytes * meta.frame_count
    if actual != expected:
        raise ValueError(f"size mismatch: {filepath.name} has {actual} bytes, expected {expected}")

    def frames() -> Iterator[FrameBuffer]:
        n = meta.frame_bytes
        shape = (
            (meta.height, meta.width, 3)
            if meta.pixel_format == RGB24
            else (meta.height, meta.width)
        )
        with open(filepath, "rb") as fh:
            fd, mm, released = fh.fileno(), None, 0
            for i in range(meta.frame_count):
                if os.fstat(fd).st_size < (i + 1) * n:
                    raise ValueError(f"size mismatch reading frame {i}")
                if mm is None:  # mapped once frame 0 fits: mmap refuses an empty file
                    mm = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
                data = np.frombuffer(mm, np.uint8, n, i * n).reshape(shape)
                yield FrameBuffer(index=i, data=data)
                # frames 0..i are consumed: release their whole pages, never closing
                # the map under live views (reference counting frees it)
                done = (i + 1) * n // mmap.PAGESIZE * mmap.PAGESIZE
                if _MADV_DONTNEED is not None and done - released >= RELEASE_BYTES:
                    mm.madvise(_MADV_DONTNEED, released, done - released)
                    released = done

    return meta, frames()


def to_grayscale(pixels: np.ndarray) -> np.ndarray:
    """Canny's input: the RGB channels averaged into one float plane; GRAY8 only becomes float.

    Equal channel weights. RGB samples must be uint8, as the readers give
    them: their sum, at most 765, is exact in uint16, and one division by
    3.0 then equals the float mean of the channels bit for bit. No rounding
    happens here, so the edge detector sees full precision. Profiles do not
    go through this plane: they average the uint8 samples themselves.
    """
    if pixels.ndim == 3:
        if pixels.dtype != np.uint8:
            raise ValueError(f"RGB samples must be uint8, not {pixels.dtype}")
        total = np.add(pixels[..., 0], pixels[..., 1], dtype=np.uint16)
        total += pixels[..., 2]
        return total / 3.0
    return pixels.astype(np.float64)
