#!/usr/bin/env python3
"""Generate a synthetic evaluation corpus plus a dataset manifest.

Renders one recording per (rate, fps, noise) combination and writes a
manifest.json next to them, ready for `rrvision eval`.

Example:
    python3 scripts/make_corpus.py out/corpus --rates 12,15,20,30 \
        --fps 20,30 --noise 2,6 --duration-s 60
"""

import argparse
import json
from pathlib import Path

from rrvision.ingest import GRAY8, PIXEL_FORMATS
from rrvision.synth import SynthConfig, generate


def parse_floats(text):
    return [float(v) for v in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--rates", type=parse_floats, default=[12.0, 15.0, 20.0, 30.0])
    ap.add_argument("--fps", type=parse_floats, default=[20.0, 30.0])
    ap.add_argument("--noise", type=parse_floats, default=[2.0, 6.0])
    ap.add_argument("--duration-s", type=float, default=60.0)
    ap.add_argument("--width", type=int, default=160)
    ap.add_argument("--height", type=int, default=120)
    ap.add_argument("--pixel-format", choices=PIXEL_FORMATS, default=GRAY8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    k = 0
    for rr in args.rates:
        for fps in args.fps:
            for sigma in args.noise:
                name = f"rr{rr:g}_fps{fps:g}_noise{sigma:g}"
                cfg = SynthConfig(
                    width=args.width,
                    height=args.height,
                    fps=fps,
                    duration_s=args.duration_s,
                    rr_segments=[(0.0, rr)],
                    noise_sigma=sigma,
                    pixel_format=args.pixel_format,
                    texture_seed=args.seed + k,
                )
                ds = generate(cfg, args.out_dir / name)
                entries.append(
                    {
                        "video_path": str(ds.video_path.relative_to(args.out_dir)),
                        "ground_truth_path": str(ds.ground_truth_path.relative_to(args.out_dir)),
                        "landmarks_path": str(ds.landmarks_path.relative_to(args.out_dir)),
                    }
                )
                print(f"wrote {name} ({ds.meta.frame_count} frames)")
                k += 1

    manifest = args.out_dir / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2) + "\n")
    print(f"manifest: {manifest} ({len(entries)} recordings)")


if __name__ == "__main__":
    main()
