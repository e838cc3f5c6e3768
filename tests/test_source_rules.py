"""Rules over the source text that no output check can see.

No BLAS kernel may decide an output bit, since the kernel it picks follows
the CPU. scipy is not a dependency. Neither the program nor a test sets an
allocator option, since memory claims are traced bytes. Only the synthetic
renderer starts a thread or a process: the benchmark's open-loop latency
replays per-frame service times, which is exact only for a single-threaded
pull pipeline. Each rule is a regular expression matched line by line, as
``grep -E`` would; this file is skipped, so its own patterns do not match.

The benchmark (``perfbench/instrument.py``) times the program by wrapping its
functions by name, so a renamed one would drop out of the trace unseen.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EVERY_FILE = ("src/**/*", "tests/**/*")
# rule -> (pattern, the globs under the repository root it holds in)
RULES = {
    "blas": (r"vecdot| @ |np\.dot|matmul|einsum", ("src/rrvision/*.py",)),
    "scipy": (r"^\s*(import|from) scipy", EVERY_FILE),
    "allocator": (r"mallopt|GLIBC_TUNABLES", EVERY_FILE),
    "threads": (r"^\s*(import|from) (threading|concurrent|multiprocessing)\b",
                ("src/rrvision/*.py",)),
}
# rule -> the files under the repository root that it does not hold in
EXEMPT = {"threads": ("src/rrvision/synth.py",)}


@pytest.mark.parametrize("rule", RULES)
def test_no_line_breaks_the_rule(rule):
    pattern, globs = RULES[rule]
    rx = re.compile(pattern)
    skip = {Path(__file__).resolve(), *(ROOT / f for f in EXEMPT.get(rule, ()))}
    files = [p for g in globs for p in sorted(ROOT.glob(g))
             if p.is_file() and "__pycache__" not in p.parts and p not in skip]
    hits = [f"{path.relative_to(ROOT)}:{n}: {line}" for path in files
            for n, line in enumerate(path.read_text("utf-8", "replace").splitlines(), 1)
            if rx.search(line)]
    assert hits == []


def test_every_benchmark_span_resolves_but_to_grayscale(monkeypatch):
    # Canny converts its crop itself, so the pipeline calls no to_grayscale
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    instrument = importlib.import_module("instrument")
    absent = [name for name, target in instrument.SPAN_TARGETS.items()
              if instrument._resolve(*target) is None]
    assert absent == ["ingest.to_grayscale"]
