"""Command-line entry point: run / synth / eval subcommands.

Exit codes: 0 success, 1 unusable input, configuration or usage, 2 partial
evaluation failure (some ablation cells failed but the run completed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import config as cfgmod
from . import evaluate, synth
from .ingest import LANDMARKS_NAME, side_file
from .pipeline import StageTimings, run_stream

PREDICTION_HEADER = "t_seconds,rr_bpm,group_index,n_peaks,valid"


# synth flags, each named after its SynthConfig field; --config sets any field
SYNTH_FLAGS = ("width", "height", "fps", "duration_s", "rr_segments", "noise_sigma",
               "amplitude_px", "texture_seed", "pixel_format", "container", "roi_jump_at_s")


def _add_config_flags(p, obj, names=None, section: str = "") -> None:
    """Add --<field> for each named field of obj (default: all), a group per section.

    The top level also adds --config. Dests are "<section>.<field>", or ".<field>" at
    the top, so _flag_overrides finds them. A field's "choices" metadata limits its
    flag; a list field takes text.
    """
    if not section:
        p.add_argument("--config", type=Path, help="JSON config file (flags override it)")
    fields = {f.name: f for f in dataclasses.fields(obj)}
    for name in names or fields:
        default, choices = getattr(obj, name), fields[name].metadata.get("choices")
        if dataclasses.is_dataclass(default):
            _add_config_flags(p.add_argument_group(name, type(default).__doc__), default,
                              section=name)
        else:
            kind = {list: str, type(None): float}.get(type(default), type(default))
            p.add_argument("--" + name.replace("_", "-"), type=kind, dest=f"{section}.{name}",
                           choices=choices, metavar=None if choices else name.upper(),
                           help=f"default: {default}")


def _flag_overrides(args: argparse.Namespace) -> dict:
    """The config flags given on the command line, as a nested dict."""
    overrides: dict = {}
    for key, value in vars(args).items():
        section, dot, name = key.rpartition(".")
        if dot and value is not None:
            (overrides.setdefault(section, {}) if section else overrides)[name] = value
    return overrides


def _build_config(cls, args: argparse.Namespace):
    """The defaults of cls, then --config, then the flags; validated once, after the flags.

    So a flag may fix a value of the file. A list field's flag is text, parsed here.
    """
    cfg = cls()
    if args.config:
        cfgmod.apply_overrides(cfg, _read_json(args.config), "config")
    flags = {k: _parse_segments(v) if isinstance(getattr(cfg, k), list) else v
             for k, v in _flag_overrides(args).items()}
    cfgmod.apply_overrides(cfg, flags, "flags")
    cfg.validate()
    return cfg


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_roi(text: str) -> tuple[int, int, int, int]:
    """Parse "x,y,w,h" into four integers."""
    try:
        x, y, w, h = (int(v) for v in text.split(","))
    except ValueError:
        raise ValueError("fixed_roi must be four integers x,y,w,h") from None
    return x, y, w, h


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_config(cfgmod.RunConfig, args)
    fixed_roi = _parse_roi(args.fixed_roi) if args.fixed_roi else None
    if args.dump_config:
        sys.stdout.write(cfgmod.dump_config(cfg))
        return 0
    # without a rectangle, default to the landmark side file synth writes with the recording
    sidecar = side_file(args.video, LANDMARKS_NAME)
    landmarks = args.landmarks or (sidecar if fixed_roi is None and sidecar.is_file() else None)

    # the header goes out with the first row, so a run rejected before it leaves no file
    out = None
    timings = StageTimings()
    try:
        for p in run_stream(args.video, cfg, landmarks_path=landmarks, fixed_roi=fixed_roi,
                            timings=timings):
            out = out or _open_predictions(args.out)
            rr = f"{p.rr_bpm:.4f}" if p.valid else ""
            group = str(p.group_index) if p.valid else ""
            out.write(f"{p.t:.3f},{rr},{group},{p.n_peaks},{int(p.valid)}\n")
            out.flush()
        if out is None:
            print("warning: input shorter than the analysis window; no predictions",
                  file=sys.stderr)
            out = _open_predictions(args.out)
    finally:
        if args.out and out is not None:
            out.close()

    summary = timings.summary()
    fr, an = summary["frame_total"], summary["window_analysis"]
    print(
        f"# frames={fr['n']} frame_ms p50={_fmt(fr['p50_ms'])} p99={_fmt(fr['p99_ms'])}"
        f" max={_fmt(fr['max_ms'])}"
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
    ds = synth.generate(_build_config(synth.SynthConfig, args), args.out_dir)
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
    cfg = _build_config(cfgmod.RunConfig, args)
    recordings = evaluate.load_dataset_manifest(args.manifest)
    if args.single_cell:
        mode, _, frac = args.single_cell.partition(",")
        try:
            fraction = float(frac)
        except ValueError:
            raise ValueError("--single-cell must be MODE,FRACTION") from None
        cells = evaluate.run_cell(recordings, cfg, mode, [fraction])
    else:
        cells = evaluate.ablation(recordings, cfg)
    table = evaluate.format_table(cells)
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
    sys.stdout.write(table)
    print(f"# success rate counts |error| <= {evaluate.SR_BOUND_BPM} BPM (inclusive)",
          file=sys.stderr)
    for c in cells:
        print(f"# {evaluate.describe_cell(c)}", file=sys.stderr)
    return 2 if any(c.error is not None for c in cells) else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is unusable input: main exits 1 on it
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rrvision",
        description="Respiratory rate from video via chest pixel-intensity changes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="stream per-second RR predictions from a recording")
    p_run.add_argument("video", help="raw .rgb24/.gray8 file or PPM/PGM directory")
    p_run.add_argument("--landmarks", type=Path, help="landmark CSV (default: landmarks.csv in "
                       "the image-sequence directory, or beside the raw file, if it exists)")
    p_run.add_argument("--fixed-roi", help="x,y,w,h chest rectangle, instead of landmarks")
    p_run.add_argument("--out", type=Path, help="write predictions CSV here instead of stdout")
    p_run.add_argument("--timing-json", type=Path, help="write stage timing summary JSON")
    p_run.add_argument("--dump-config", action="store_true", help="print merged config and exit")
    _add_config_flags(p_run, cfgmod.RunConfig())
    p_run.set_defaults(func=cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic breathing recording")
    p_synth.add_argument("out_dir", type=Path)
    _add_config_flags(p_synth, synth.SynthConfig(), SYNTH_FLAGS)
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="score recordings and emit the ablation table")
    p_eval.add_argument("manifest", type=Path, help="JSON dataset manifest")
    p_eval.add_argument("--single-cell", help="run one cell only, e.g. edges,0.30")
    p_eval.add_argument("--out", type=Path, help="also write the CSV table here")
    _add_config_flags(p_eval, cfgmod.RunConfig())
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
