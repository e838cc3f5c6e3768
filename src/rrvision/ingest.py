"""A recording's files: frame sources, the JSON manifest and the step-hold side files.

Two frame layouts are supported, both bit-exact and codec-free:

* a directory of binary PPM (RGB24) or PGM (GRAY8) files named
  ``frame_%06d.ppm`` / ``frame_%06d.pgm`` together with a ``meta.json``
  manifest, or
* a single headerless raw file (``.rgb24`` / ``.gray8``, frame-major,
  row-major, channel-interleaved) with a sibling ``meta.json``. Its frames
  are read-only views of the file mapped into memory, not copies.

The manifest is a UTF-8 JSON object with keys exactly
``{"width", "height", "fps", "frame_count", "pixel_format"}``.

A PNM header is ``P5`` or ``P6``, then width, height and maxval, each after
at least one whitespace byte or ``#`` comment (to the end of the line), then
one whitespace byte. A comment glued to a digit, or a width glued to the magic
number, is rejected; every header error names the file.

Side files sit in the sequence directory or beside the raw file (``side_file``).
``landmarks.csv`` and ``ground_truth.csv`` are step-hold CSVs with one reader,
one writer and one lookup (``step_hold``); each format adds only its header
and row parser.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import mmap
import os
import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

RGB24 = "RGB24"
GRAY8 = "GRAY8"
# each pixel format's channels, raw-file suffix and image-sequence frame extension
_LAYOUTS = {RGB24: (3, ".rgb24", "ppm"), GRAY8: (1, ".gray8", "pgm")}
PIXEL_FORMATS = tuple(_LAYOUTS)
_RAW_SUFFIXES = {suffix for _, suffix, _ in _LAYOUTS.values()}

MANIFEST_NAME = "meta.json"
LANDMARKS_NAME = "landmarks.csv"
GROUND_TRUTH_NAME = "ground_truth.csv"
GROUND_TRUTH_HEADER = ("t", "rr_bpm")
_FRAME_RE = re.compile(r"frame_(\d{6,})\.\w+")  # a frame's name is VideoMeta.frame_name

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
        return _LAYOUTS[self.pixel_format][0]

    @property
    def frame_shape(self) -> tuple[int, ...]:
        """A decoded frame's shape: (h, w, 3) for RGB24, (h, w) for GRAY8."""
        return (self.height, self.width, 3) if self.channels == 3 else (self.height, self.width)

    @property
    def frame_bytes(self) -> int:
        return self.width * self.height * self.channels

    @property
    def raw_suffix(self) -> str:
        return _LAYOUTS[self.pixel_format][1]

    def frame_name(self, index: int) -> str:
        """File name of one frame of an image sequence."""
        return f"frame_{index:06d}.{_LAYOUTS[self.pixel_format][2]}"


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

_PNM_HEADER_RE = re.compile(
    rb"(P[56])(?:\s|#[^\n]*\n)+(\d+)" + rb"\s(?:\s|#[^\n]*\n)*(\d+)" * 2 + rb"\s")


def read_pnm(path: Path) -> np.ndarray:
    """Read a binary PPM (P6) or PGM (P5); returns uint8 (h,w,3) or (h,w)."""
    raw = path.read_bytes()
    header = _PNM_HEADER_RE.match(raw)
    if header is None:
        raise ValueError(f"malformed PNM header in {path.name}")
    width, height, maxval = map(int, header.groups()[1:])
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval} in {path.name}")
    shape = (height, width, 3) if header[1] == b"P6" else (height, width)
    if len(raw) - header.end() != math.prod(shape):
        raise ValueError(f"size mismatch in {path.name}")
    return np.frombuffer(raw, np.uint8, offset=header.end()).reshape(shape)


def write_pnm(path: Path, data: np.ndarray) -> None:
    """Write uint8 (h,w,3) as PPM or (h,w) as PGM."""
    if data.dtype != np.uint8:
        raise ValueError("PNM writer expects uint8 samples")
    if data.ndim < 2 or data.shape[2:] not in ((), (3,)):
        raise ValueError(f"unsupported sample shape {data.shape}")
    magic = b"P6" if data.ndim == 3 else b"P5"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (data.shape[1], data.shape[0]))
        fh.write(np.ascontiguousarray(data))  # the samples themselves, not a bytes copy


# --- sources ----------------------------------------------------------------


def side_file(video_path, name: str) -> Path:
    """A recording's side file: in the sequence directory, or beside the raw file."""
    path = Path(video_path)
    return (path if path.is_dir() else path.parent) / name


def open_source(path) -> tuple[VideoMeta, Iterator[np.ndarray]]:
    """Open a frame source, returning its metadata and a frame iterator.

    ``path`` may be a directory of PPM/PGM frames plus a manifest, or a raw
    ``.rgb24`` / ``.gray8`` file with a sibling manifest. Frames are yielded
    in ascending index order, so the i-th array yielded is frame i, and the
    stream ends exactly at ``frame_count``. A frame is a read-only, row-major
    uint8 array of the manifest's ``frame_shape``: (h, w, 3) or (h, w). From a
    raw file it is a view of the mapped file, valid for as long as it is held;
    a file rewritten in place changes it.
    The iterator is single-consumer and lazy: it opens no frame data before
    its first ``next()``, so closing it before then opens nothing.

    A raw file is mapped read-only at the first ``next()``. Each frame's size
    is checked against the file before its view is handed out, so a file that
    shrank raises ``ValueError``. Pages of consumed frames are dropped from the
    process behind the reader, in batches of ``RELEASE_BYTES``; a frame still
    held re-reads them from the page cache when touched.
    """
    path = Path(path)
    if not (path.is_dir() or path.suffix in _RAW_SUFFIXES):
        raise ValueError(f"unsupported source {path} (expected directory or .rgb24/.gray8)")
    meta = load_manifest(side_file(path, MANIFEST_NAME))
    return meta, (_open_image_dir if path.is_dir() else _open_raw)(path, meta)


def _frame_index(name: str, meta: VideoMeta) -> Optional[int]:
    """The index of the frame a file of meta's sequence holds, or None for any other file."""
    m = _FRAME_RE.fullmatch(name)
    return int(m[1]) if m and name == meta.frame_name(int(m[1])) else None


def _open_image_dir(dirpath: Path, meta: VideoMeta) -> Iterator[np.ndarray]:
    indices = sorted(i for p in dirpath.iterdir() if (i := _frame_index(p.name, meta)) is not None)
    if indices != list(range(meta.frame_count)):
        raise ValueError(
            f"non-contiguous frame indices in {dirpath}: "
            f"found {len(indices)} frames, manifest says {meta.frame_count}"
        )

    def frames() -> Iterator[np.ndarray]:
        for i in range(meta.frame_count):
            data = read_pnm(dirpath / meta.frame_name(i))
            if data.shape != meta.frame_shape:
                raise ValueError(f"manifest/frame size mismatch at frame {i}: {data.shape}")
            yield data

    return frames()


def _open_raw(filepath: Path, meta: VideoMeta) -> Iterator[np.ndarray]:
    if meta.raw_suffix != filepath.suffix:
        raise ValueError(f"manifest pixel_format {meta.pixel_format} "
                         f"does not match {filepath.suffix}")
    actual = filepath.stat().st_size
    expected = meta.frame_bytes * meta.frame_count
    if actual != expected:
        raise ValueError(f"size mismatch: {filepath.name} has {actual} bytes, expected {expected}")

    def frames() -> Iterator[np.ndarray]:
        n, shape = meta.frame_bytes, meta.frame_shape
        with open(filepath, "rb") as fh:
            fd, mm, released = fh.fileno(), None, 0
            for i in range(meta.frame_count):
                if os.fstat(fd).st_size < (i + 1) * n:
                    raise ValueError(f"size mismatch reading frame {i}")
                if mm is None:  # mapped once frame 0 fits: mmap refuses an empty file
                    mm = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
                yield np.frombuffer(mm, np.uint8, n, i * n).reshape(shape)
                # frames 0..i are consumed: release their whole pages, never closing
                # the map under live views (reference counting frees it)
                done = (i + 1) * n // mmap.PAGESIZE * mmap.PAGESIZE
                if _MADV_DONTNEED is not None and done - released >= RELEASE_BYTES:
                    mm.madvise(_MADV_DONTNEED, released, done - released)
                    released = done

    return frames()


# --- step-hold side files (landmarks, ground truth) --------------------------


def read_step_hold(path, what: str, header: Sequence[str], parse_row: Callable) -> list:
    """A step-hold CSV's (time, value) rows, checked; blank rows are skipped.

    parse_row(fields) raises ValueError on a bad row, a non-finite value included.
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)  # a file without even a header is just empty
        if first is not None and [h.strip() for h in first] != list(header):
            raise ValueError(f"bad {what} header {first} in {path}")
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            try:
                rows.append(parse_row(fields))
            except ValueError as exc:
                raise ValueError(f"malformed {what} row at {path}:{lineno}") from exc
    if not rows:
        raise ValueError(f"empty {what} file {path}")
    if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
        raise ValueError(f"{what} {header[0]} must be strictly increasing in {path}")
    return rows


def step_hold(rows: Sequence[tuple], what: str) -> Callable:
    """read_step_hold's rows as a lookup: a key's value is that of the last row at or before it."""
    keys = [row[0] for row in rows]

    def at(key):
        i = bisect_right(keys, key)
        if i == 0:
            raise ValueError(f"no {what} at or before {key}")
        return rows[i - 1][1]

    return at


def write_step_hold(path, header: Sequence[str], rows) -> None:
    """Write a CSV that read_step_hold reads back: the header, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
