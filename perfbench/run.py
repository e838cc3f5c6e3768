#!/usr/bin/env python3
"""rrvision benchmark: render a seeded workload, time it, check every output.

    python3 perfbench/run.py --workload vga_rgb24_stream --seed 1 --seconds 10 --trace 0

Set-up renders the workload's recordings with ``rrvision.synth.generate``
from the seed and opens them, a few times; setup_s is their median. A child
process (phase.py) then runs them through the public API for --seconds (at
least one whole unit) with one consumer, so the load is a closed loop; an
open-loop latency at the native frame rate is replayed from the measured
per-frame service times.

Prints one ``name value unit`` line per metric and, as the last line, one
JSON object with keys correct / attempted / failed / metrics. --trace 0
reports the end-to-end metrics named in BENCHMARK.json, --trace 1 the
per-layer ones from a traced run. Results and spans are also written under
perfbench/results/. Exits 1 when an output check fails or the run cannot
finish (an error is printed to stderr), and 2 when the program's sources are
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 175.0  # every run must end within 180 s


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources, for checkouts without git."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_sha(root: Path) -> str | None:
    """HEAD commit read from root/.git, without looking outside root."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def set_up(workload: Workload, seed: int, work: Path) -> tuple[list[dict], list[float]]:
    """Render every recording and open it, workload.setup_repeats times.

    Returns the recording specs of the last set-up and the seconds of each,
    scaled to the reference host; the files of the earlier set-ups are
    deleted outside the timing.
    """
    import rrvision.synth as synth
    from instrument import host_scale, probe_seconds
    from rrvision.ingest import open_source

    times = []
    probe_before = probe_seconds()
    for r in range(workload.setup_repeats):
        if r:
            shutil.rmtree(work / f"setup{r - 1}")
        t0 = perf_counter()
        recordings = []
        for k, fields in enumerate(workload.synth_fields(seed)):
            ds = synth.generate(synth.SynthConfig(**fields), work / f"setup{r}" / f"rec{k}")
            meta, frames = open_source(ds.video_path)
            frames.close()
            recordings.append(
                {
                    "video": str(ds.video_path),
                    "ground_truth": str(ds.ground_truth_path),
                    "landmarks": str(ds.landmarks_path),
                    "frame_count": meta.frame_count,
                    "fps": meta.fps,
                }
            )
        wall_s = perf_counter() - t0
        probe_after = probe_seconds()
        times.append(wall_s * host_scale(probe_before, probe_after))
        probe_before = probe_after
    return recordings, times


def run_phase(spec: dict, spec_path: Path, timeout_s: float) -> dict:
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "phase.py"), str(spec_path)],
        capture_output=True,
        text=True,
        timeout=timeout_s,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": spec["src"]},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"timed phase exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_benchmark(
    workload: Workload, seed: int, seconds: float, trace: bool, src: Path, out_dir: Path
) -> dict:
    """Set up, run the timed phase and collect the report of one run."""
    from instrument import SETUP_SPAN, Tracer
    from measure import span_layer, span_stats

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    started = perf_counter()
    work = out_dir / "_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans_path = out_dir / f"spans_{workload.name}.jsonl"
    spans_path.unlink(missing_ok=True)
    try:
        tracer = Tracer()
        if trace:
            with tracer.installed([SETUP_SPAN]):
                recordings, setup_times = set_up(workload, seed, work)
            tracer.write_jsonl(spans_path, "setup")
        else:
            recordings, setup_times = set_up(workload, seed, work)
        setup_s = statistics.median(setup_times)
        spec = {
            "src": str(src),
            "kind": workload.kind,
            "schedule": workload.schedule,
            "recordings": recordings,
            "seconds": seconds,
            "trace": trace,
            "spans_path": str(spans_path),
        }
        timeout = RUN_LIMIT_S - (perf_counter() - started)
        phase = run_phase(spec, work / "spec.json", timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        values = dict(phase["layers"])
        values.update(
            span_layer(SETUP_SPAN, span_stats(tracer.spans).get(SETUP_SPAN), sum(setup_times))
        )
        values.update({f"evaluate.{k}": phase["accuracy"].get(k) for k in
                       ("mae_bpm", "sr2_pct", "invalid_share")})
        kind = "per_layer"
    else:
        values = dict(phase["metrics"], setup_s=setup_s, peak_rss_mb=phase["peak_rss_mb"])
        kind = "end_to_end"

    problems = list(phase["problems"])
    metrics = {}
    for m in declared[kind]:
        v = values.get(m["name"])
        if v is None:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "meta": {
            "git_sha": git_sha(ROOT),
            "src_sha256": source_digest(src),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "counts": dict(phase["counts"], recordings=len(recordings), setups=len(setup_times)),
        "accuracy": phase["accuracy"],
        "predictions_sha256": phase["predictions_sha256"],
        "absent_spans": phase.get("absent", []),
        "problems": problems,
        "correct": not problems and phase["failed"] == 0,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": metrics,
    }
    suffix = "_trace" if trace else ""
    (out_dir / f"BENCH_{workload.name}{suffix}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    return report


def print_report(report: dict) -> None:
    print(f"# workload {report['workload']} seed {report['seed']} trace {int(report['trace'])}")
    print("# " + " ".join(f"{k}={v}" for k, v in report["meta"].items()))
    print("# counts " + " ".join(f"{k}={v}" for k, v in report["counts"].items()))
    acc = report["accuracy"]
    for key, unit in (("mae_bpm", "BPM"), ("sr2_pct", "%"), ("invalid_share", "ratio")):
        print(f"{key} {acc.get(key)} {unit}")
    print(f"predictions_sha256 {report['predictions_sha256']}")
    for name, m in report["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    if report["absent_spans"]:
        print("# absent spans (target no longer exists): " + " ".join(report["absent_spans"]))
    for p in report["problems"]:
        print(f"# CHECK FAILED: {p}")
    print(
        f"# recordings failed {report['failed']} of {report['attempted']} attempted "
        f"({report['failed'] / max(report['attempted'], 1):.3f})"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")

    src = ROOT / "src"
    if not (src / "rrvision" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no rrvision sources under {src} or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    try:
        report = run_benchmark(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), src,
            HERE / "results",
        )
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
