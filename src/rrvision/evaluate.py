"""Scoring against ground truth and the profile-mode x fraction ablation.

Metrics are MAE and Success Rate at 2 BPM (share of valid predictions whose
absolute error is at most 2.0; the bound is inclusive). The ground-truth
series is step-hold: the reference for a prediction at time t is the value
at the greatest ground-truth time <= t.

The ablation runs each recording once per (profile mode, group fraction),
not once per cell. A cell's fraction sets how many groups of the same size
it forms, and those are the first groups of any larger fraction's window,
in the same rank order. So one pass at the largest fraction of a mode
decides every cell at or above the group fraction, each from the first k
RR series of every window; a fraction below it forms smaller groups and
gets a pass of its own.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .breathing import RRPrediction, group_layout, predict
from .config import RunConfig, apply_overrides
from .ingest import GROUND_TRUTH_HEADER, read_step_hold, step_hold
from .pipeline import run_recording

SR_BOUND_BPM = 2.0


@dataclass
class EvalMetrics:
    mae: Optional[float]
    sr2: Optional[float]  # percent
    n: int  # valid predictions scored
    invalid_count: int


@dataclass
class RecordingSpec:
    video_path: Path
    ground_truth_path: Path
    landmarks_path: Optional[Path] = None
    fixed_roi: Optional[tuple[int, int, int, int]] = None


@dataclass
class AblationCell:
    profile_mode: str
    fraction: float
    metrics: Optional[EvalMetrics]
    best_group_ge2_share: Optional[float]
    error: Optional[str] = None


def _ground_truth_row(fields: list[str]) -> tuple[float, float]:
    t, rr = (float(v) for v in fields)  # a wrong column count or a non-number raises
    if not (math.isfinite(t) and math.isfinite(rr)):
        raise ValueError(f"non-finite value in {fields}")
    return t, rr


def load_ground_truth(path) -> list[tuple[float, float]]:
    """Read a t,rr_bpm CSV into a sorted step-hold series."""
    return read_step_hold(path, "ground-truth", GROUND_TRUTH_HEADER, _ground_truth_row)


def prediction_errors(
    predictions: Sequence[RRPrediction], ground_truth: Sequence[tuple[float, float]]
) -> tuple[list[float], int]:
    """Absolute errors of the valid predictions, plus the invalid count."""
    reference = step_hold(ground_truth, "ground truth")
    errors = [abs(p.rr_bpm - reference(p.t)) for p in predictions if p.valid]
    return errors, len(predictions) - len(errors)


def metrics_from_errors(errors: Sequence[float], invalid_count: int) -> EvalMetrics:
    if not errors:
        return EvalMetrics(mae=None, sr2=None, n=0, invalid_count=invalid_count)
    arr = np.asarray(errors, dtype=np.float64)
    return EvalMetrics(
        mae=float(arr.mean()),
        sr2=float(100.0 * np.mean(arr <= SR_BOUND_BPM)),
        n=len(errors),
        invalid_count=invalid_count,
    )


def score(
    predictions: Sequence[RRPrediction], ground_truth: Sequence[tuple[float, float]]
) -> EvalMetrics:
    """MAE / SR2 of one prediction stream against one ground-truth series."""
    errors, invalid = prediction_errors(predictions, ground_truth)
    return metrics_from_errors(errors, invalid)


def group_rank_stats(group_indices: Sequence[int]) -> float:
    """Share of windows whose winning group sits below the top one (index >= 2)."""
    if not group_indices:
        raise ValueError("no valid windows")
    return sum(1 for g in group_indices if g >= 2) / len(group_indices)


def fixed_roi_from_json(value, where: str) -> Optional[tuple[int, int, int, int]]:
    """A manifest entry's fixed_roi: null, or a list of four integers x, y, w, h."""
    if value is None:
        return None
    if not (isinstance(value, list) and len(value) == 4 and all(type(v) is int for v in value)):
        raise ValueError(f"{where}: fixed_roi must be a list of four integers, not {value!r}")
    return tuple(value)


def load_dataset_manifest(path) -> list[RecordingSpec]:
    """JSON list of recordings; relative paths resolve against the manifest."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"dataset manifest {path} must be a non-empty JSON list")
    base = path.parent
    specs = []
    for e in entries:
        # an empty path would resolve to the manifest's own directory
        if not isinstance(e, dict) or not all(
            isinstance(e.get(k), str) and e[k] != ""
            for k in ("video_path", "ground_truth_path", "landmarks_path")
            if k != "landmarks_path" or e.get(k) is not None
        ):
            raise ValueError(
                f"recording {e!r} in {path} must be an object with string video_path and "
                "ground_truth_path, and a string landmarks_path if any, none of them empty"
            )
        video = base / e["video_path"]
        gt = base / e["ground_truth_path"]
        lm = base / e["landmarks_path"] if e.get("landmarks_path") else None
        roi = fixed_roi_from_json(e.get("fixed_roi"), f"recording {e!r} in {path}")
        if (lm is None) == (roi is None):
            both = ", not both" if lm is not None else ""
            raise ValueError(f"recording {e} needs landmarks_path or fixed_roi{both}")
        specs.append(RecordingSpec(video, gt, lm, roi))
    return specs


def _cell_config(base: RunConfig, mode: str, fraction: float) -> RunConfig:
    cfg = copy.deepcopy(base)
    group_frac = min(cfg.breathing.group_frac, fraction)
    cell = {"profile_mode": mode, "breathing": {"top_frac": fraction, "group_frac": group_frac}}
    apply_overrides(cfg, cell, "ablation cell")
    cfg.validate()
    return cfg


def run_cell(
    recordings: Sequence[RecordingSpec], base_cfg: RunConfig, mode: str, fractions: Sequence[float]
) -> list[AblationCell]:
    """The cells of one profile mode, one per fraction, each pooling every recording's errors.

    Cells that share a group fraction share one pass per recording, at the
    largest of their fractions; a failed pass fails each of its cells.
    """
    # a bad cell is a configuration error, raised before any pass
    cfgs = [_cell_config(base_cfg, mode, f) for f in fractions]
    passes: dict[float, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        passes.setdefault(cfg.breathing.group_frac, []).append(i)
    cells: list[Optional[AblationCell]] = [None] * len(fractions)
    for members in passes.values():
        pass_cfg = max((cfgs[i] for i in members), key=lambda c: c.breathing.top_frac)
        preds: dict[int, list[RRPrediction]] = {i: [] for i in members}
        errors: dict[int, list[float]] = {i: [] for i in members}
        try:
            for rec in recordings:
                windows = run_recording(rec.video_path, pass_cfg, rec.landmarks_path, rec.fixed_roi)
                gt = load_ground_truth(rec.ground_truth_path)
                for i in members:
                    cell_preds = [_as_cell(w, cfgs[i]) for w in windows]
                    preds[i] += cell_preds
                    errors[i] += prediction_errors(cell_preds, gt)[0]
        except (OSError, ValueError) as exc:
            for i in members:
                cells[i] = AblationCell(mode, fractions[i], None, None, error=str(exc))
            continue
        for i in members:
            winners = [p.group_index for p in preds[i] if p.valid]
            metrics = metrics_from_errors(errors[i], len(preds[i]) - len(winners))
            share = group_rank_stats(winners) if winners else None
            cells[i] = AblationCell(mode, fractions[i], metrics, share)
    return cells


def _as_cell(window: RRPrediction, cfg: RunConfig) -> RRPrediction:
    """The prediction cfg makes of a window the pass analysed: its first groups decide."""
    n_groups = group_layout(cfg.canonical_len, cfg.breathing)[1]
    return predict(window.series[:n_groups], window.t, cfg.breathing)


def ablation(
    recordings: Sequence[RecordingSpec],
    base_cfg: RunConfig,
    modes: Sequence[str] = ("full_roi", "edges"),
    fractions: Sequence[float] = (0.05, 0.30),
) -> list[AblationCell]:
    """Full profile-mode x signal-fraction table (4 cells by default), mode by mode."""
    if not recordings:
        raise ValueError("empty dataset manifest")
    return [c for m in modes for c in run_cell(recordings, base_cfg, m, fractions)]


def format_table(cells: Sequence[AblationCell]) -> str:
    """Ablation cells as CSV, one row per cell."""
    lines = ["profile,fraction,mae,sr2,n_valid,n_invalid,best_group_ge2_share,status"]
    for c in cells:
        if c.error is not None:
            lines.append(f"{c.profile_mode},{c.fraction:.2f},,,,,,failed: {c.error}")
            continue
        m = c.metrics
        mae = f"{m.mae:.3f}" if m.mae is not None else ""
        sr2 = f"{m.sr2:.1f}" if m.sr2 is not None else ""
        share = f"{c.best_group_ge2_share:.3f}" if c.best_group_ge2_share is not None else ""
        lines.append(
            f"{c.profile_mode},{c.fraction:.2f},{mae},{sr2},{m.n},{m.invalid_count},{share},ok"
        )
    return "\n".join(lines) + "\n"


def describe_cell(c: AblationCell) -> str:
    """One human-readable line per ablation cell."""
    label = f"{c.profile_mode}/{c.fraction:.2f}"
    if c.error is not None:
        return f"{label}: failed ({c.error})"
    m = c.metrics
    if m.n == 0:
        return f"{label}: no valid predictions ({m.invalid_count} invalid)"
    share = (
        f", best group below the first in {100 * c.best_group_ge2_share:.0f}% of windows"
        if c.best_group_ge2_share is not None
        else ""
    )
    return (
        f"{label}: MAE {m.mae:.3f} BPM, SR2 {m.sr2:.1f}% "
        f"over {m.n} windows ({m.invalid_count} invalid){share}"
    )
