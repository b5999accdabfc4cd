#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs; takes about a minute.

    python3 perfbench/selftest.py

Runs ``run.py --workload all --tiny`` with tracing off and on, and checks
that every workload passes its correctness gate and prints every metric that
BENCHMARK.json names: the end-to-end metrics (all non-zero) untraced, the
per-layer metrics traced.  A per-layer metric must be non-zero on the
workloads that README.md's layer-to-metric table names for it, so a layer
function that is no longer wrapped shows.  Then checks that ``run.py``
fails, printing no result, in a directory that holds only the benchmark's
files.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# per-layer metrics (by name prefix) that must be non-zero on each workload:
# README.md's layer-to-metric table
NONZERO = {
    "compare": ("baselines.", "causal_tree.fit_s", "causal_tree.forest_fit_s", "causal_tree.fit_calls",
                "causal_tree.leaves", "evaluation.", "synth."),
    "clinic": ("causal_tree.", "mapgen.difficulty_map_self_s", "mapgen.build_grid_s", "mapgen.cells",
               "model_io.", "cli.self_s"),
    "cohort": ("causal_tree.fit_s", "causal_tree.fit_calls", "causal_tree.leaves",
               "mapgen.svg_s", "mapgen.svg_bytes", "mapgen.csv_s", "domain.", "synth."),
}


def run(argv, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(spec: dict, trace: int) -> list[str]:
    p = run(["perfbench/run.py", "--workload", "all", "--tiny", "--seed", "7",
             "--seconds", "1", "--trace", str(trace)], ROOT)
    if p.returncode != 0:
        return [f"trace {trace}: exit {p.returncode}: {p.stderr.strip()[-2000:]}"]
    result = json.loads(p.stdout.splitlines()[-1])
    problems = [] if result["correct"] else [f"trace {trace}: correctness gate failed"]
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    for w in WORKLOADS:
        for m in expected:
            got = result["metrics"].get(f"{w}.{m['name']}")
            nonzero = not trace or m["name"].startswith(NONZERO[w])
            if got is None:
                problems.append(f"{w}: {m['name']} missing")
            elif not math.isfinite(got["value"]):
                problems.append(f"{w}: {m['name']} = {got}")
            elif nonzero and got["value"] == 0:
                problems.append(f"{w}: {m['name']} is 0")
    names = {m["name"] for m in expected}
    extra = {k.split(".", 1)[1] for k in result["metrics"]} - names
    problems += [f"unlisted metric {name}" for name in sorted(extra)]
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        p = run(spec["command"][1:] + ["--workload", WORKLOADS[0], "--seed", "1",
                                       "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    if p.returncode == 0 or '"correct"' in p.stdout:
        return [f"without sources: exit {p.returncode}, stdout {p.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_refuses_without_sources(spec)
    for trace in (0, 1):
        problems += check_metrics(spec, trace)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
