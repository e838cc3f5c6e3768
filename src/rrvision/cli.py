"""Command-line entry point: run / synth / eval subcommands.

Exit codes: 0 success, 1 unusable input or configuration, 2 partial
evaluation failure (some ablation cells failed but the run completed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import config as cfgmod
from . import evaluate, synth
from .pipeline import StageTimings, run_stream

PREDICTION_HEADER = "t_seconds,rr_bpm,group_index,n_peaks,valid"


def _add_run_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON config file (flags override it)")
    p.add_argument("--profile-mode", choices=["edges", "full_roi"], dest="profile_mode")
    p.add_argument("--canonical-len", type=int, dest="canonical_len")
    g = p.add_argument_group("schedule")
    g.add_argument("--window-s", type=float, dest="schedule.window_s")
    g.add_argument("--step-s", type=float, dest="schedule.step_s")
    g.add_argument("--reest-s", type=float, dest="schedule.reest_s")
    g = p.add_argument_group("canny")
    g.add_argument("--sigma", type=float, dest="canny.sigma")
    g.add_argument("--low", type=float, dest="canny.low")
    g.add_argument("--high", type=float, dest="canny.high")
    g.add_argument("--dilation-radius", type=int, dest="canny.dilation_radius")
    g = p.add_argument_group("roi geometry")
    g.add_argument("--k-w", type=float, dest="geometry.k_w")
    g.add_argument("--k-top", type=float, dest="geometry.k_top")
    g.add_argument("--k-h", type=float, dest="geometry.k_h")
    g = p.add_argument_group("breathing")
    g.add_argument("--top-frac", type=float, dest="breathing.top_frac")
    g.add_argument("--group-frac", type=float, dest="breathing.group_frac")
    g.add_argument("--smooth-s", type=float, dest="breathing.smooth_s")
    g.add_argument("--rr-min", type=float, dest="breathing.rr_min")
    g.add_argument("--rr-max", type=float, dest="breathing.rr_max")
    g.add_argument("--prominence-factor", type=float, dest="breathing.prominence_factor")
    g.add_argument("--min-peaks", type=int, dest="breathing.min_peaks")
    g.add_argument("--cycles-per-peak", type=float, dest="breathing.cycles_per_peak")


def _build_run_config(args: argparse.Namespace) -> cfgmod.RunConfig:
    cfg = cfgmod.load_config(args.config) if args.config else cfgmod.RunConfig()
    overrides: dict = {}
    for key, value in vars(args).items():
        if value is None:
            continue
        if "." in key:  # section flags use dotted dests, e.g. "canny.sigma"
            section, name = key.split(".", 1)
            overrides.setdefault(section, {})[name] = value
        elif key in ("profile_mode", "canonical_len"):
            overrides[key] = value
    cfgmod.apply_overrides(cfg, overrides)
    if getattr(args, "fixed_roi", None):
        cfg.fixed_roi = tuple(int(v) for v in args.fixed_roi.split(","))
    cfg.validate()
    return cfg


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    if args.dump_config:
        sys.stdout.write(cfgmod.dump_config(cfg))
        return 0
    if cfg.fixed_roi is None and args.landmarks is None:
        # default to the landmark sidecar synth writes next to the video
        candidate = Path(args.video).parent / "landmarks.csv"
        if candidate.is_file():
            args.landmarks = candidate
        else:
            print("error: need --landmarks or --fixed-roi", file=sys.stderr)
            return 1

    # the header goes out with the first row, so a run rejected before it leaves no file
    out = None
    timings = StageTimings()
    try:
        for p in run_stream(args.video, cfg, landmarks_path=args.landmarks, timings=timings):
            out = out or _open_predictions(args.out)
            rr = f"{p.rr_bpm:.4f}" if p.valid else ""
            group = str(p.group_index) if p.valid else ""
            out.write(f"{p.t:.3f},{rr},{group},{p.n_peaks},{int(p.valid)}\n")
            out.flush()
        if out is None:
            print("warning: input shorter than the analysis window; no predictions",
                  file=sys.stderr)
            out = _open_predictions(args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.out and out is not None:
            out.close()

    summary = timings.summary()
    pp, an = summary["frame_profile_push"], summary["window_analysis"]
    print(
        f"# frames={pp['n']} profile_push_ms p50={_fmt(pp['p50_ms'])} p99={_fmt(pp['p99_ms'])}"
        f" | windows={an['n']} analysis_ms p50={_fmt(an['p50_ms'])} p99={_fmt(an['p99_ms'])}",
        file=sys.stderr,
    )
    if args.timing_json:
        with open(args.timing_json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


def _open_predictions(path):
    out = open(path, "w", encoding="utf-8") if path else sys.stdout
    out.write(PREDICTION_HEADER + "\n")
    return out


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.3f}"


def cmd_synth(args: argparse.Namespace) -> int:
    d: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    scfg = synth.SynthConfig()
    for key, value in d.items():
        if not hasattr(scfg, key):
            print(f"error: unknown synth config key {key}", file=sys.stderr)
            return 1
        setattr(scfg, key, value)
    if args.rr_segments:
        scfg.rr_segments = _parse_segments(args.rr_segments)
    for name in ("width", "height", "fps", "duration_s", "noise_sigma", "texture_seed",
                 "amplitude_px", "pixel_format", "container", "roi_jump_at_s"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(scfg, name, value)
    scfg.rr_segments = [tuple(seg) for seg in scfg.rr_segments]
    try:
        scfg.validate()
        ds = synth.generate(scfg, args.out_dir)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {ds.meta.frame_count} frames to {ds.video_path}")
    return 0


def _parse_segments(text: str) -> list[tuple[float, float]]:
    """Parse "0:15,30:20" into [(0.0, 15.0), (30.0, 20.0)]."""
    segments = []
    for part in text.split(","):
        start, _, rr = part.partition(":")
        try:
            segments.append((float(start), float(rr)))
        except ValueError:
            raise ValueError("--rr-segments must be START:BPM pairs") from None
    return segments


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    try:
        recordings = evaluate.load_dataset_manifest(args.manifest)
        if args.single_cell:
            mode, _, frac = args.single_cell.partition(",")
            try:
                fraction = float(frac)
            except ValueError:
                raise ValueError("--single-cell must be MODE,FRACTION") from None
            cells = [evaluate.run_cell(recordings, cfg, mode, fraction)]
        else:
            cells = evaluate.ablation(recordings, cfg)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    table = evaluate.format_table(cells)
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
    sys.stdout.write(table)
    print("# success rate counts |error| <= 2.0 BPM (inclusive)", file=sys.stderr)
    for c in cells:
        print(f"# {evaluate.describe_cell(c)}", file=sys.stderr)
    return 2 if any(c.error is not None for c in cells) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrvision",
        description="Respiratory rate from video via chest pixel-intensity changes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="stream per-second RR predictions from a recording")
    p_run.add_argument("video", help="raw .rgb24/.gray8 file or PPM/PGM directory")
    p_run.add_argument("--landmarks", type=Path, help="landmark CSV (default: sibling landmarks.csv)")
    p_run.add_argument("--fixed-roi", help="x,y,w,h chest rectangle, bypasses landmarks")
    p_run.add_argument("--out", type=Path, help="write predictions CSV here instead of stdout")
    p_run.add_argument("--timing-json", type=Path, help="write stage timing summary JSON")
    p_run.add_argument("--dump-config", action="store_true", help="print merged config and exit")
    _add_run_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic breathing recording")
    p_synth.add_argument("out_dir", type=Path)
    p_synth.add_argument("--config", type=Path, help="JSON file of SynthConfig fields")
    p_synth.add_argument("--width", type=int)
    p_synth.add_argument("--height", type=int)
    p_synth.add_argument("--fps", type=float)
    p_synth.add_argument("--duration-s", type=float, dest="duration_s")
    p_synth.add_argument("--rr-segments", help='e.g. "0:15,30:20" (start_s:rr_bpm pairs)')
    p_synth.add_argument("--noise-sigma", type=float, dest="noise_sigma")
    p_synth.add_argument("--amplitude-px", type=float, dest="amplitude_px")
    p_synth.add_argument("--texture-seed", type=int, dest="texture_seed")
    p_synth.add_argument("--pixel-format", choices=["RGB24", "GRAY8"], dest="pixel_format")
    p_synth.add_argument("--container", choices=["raw", "images"])
    p_synth.add_argument("--roi-jump-at-s", type=float, dest="roi_jump_at_s")
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="score recordings and emit the ablation table")
    p_eval.add_argument("manifest", type=Path, help="JSON dataset manifest")
    p_eval.add_argument("--single-cell", help="run one cell only, e.g. edges,0.30")
    p_eval.add_argument("--out", type=Path, help="also write the CSV table here")
    _add_run_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
