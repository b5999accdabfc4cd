#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the reachmap CLI.

    python3 perfbench/run.py --workload {compare,clinic,cohort,all} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a reachmap checkout; the benchmark imports the
package from the checkout's ``src`` and fails when it is missing.  Each
workload (see ``workloads.py``) drives the real CLI in-process through
``reachmap.cli.main(argv)`` as one closed-loop client: a command starts only
after the previous one returned.  Sessions repeat, with the same inputs,
until the next one would end after ``--seconds`` (at least two run, so that
every output is written twice and must repeat byte for byte).  All files go
to a temporary directory under ``.perfbench/`` in the checkout, removed at
the end.

``--trace 0`` prints the end-to-end metrics; ``setup_s`` times fresh
interpreters running ``python -m reachmap --version``.  ``--trace 1``
alternates untraced and traced sessions and prints the per-layer metrics of
the traced ones (medians), plus the tracing overhead.  The last line of
stdout is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 3
COMMAND_KINDS = {"gen": "gen", "fit": "fit", "predict": "query", "map": "map", "bench": "bench"}
MIN_SESSIONS = 2


def import_cli():
    """Import reachmap.cli from this checkout's ``src``; exit 1 when it is not there."""
    if not (SRC / "reachmap" / "cli.py").is_file():
        sys.exit(f"error: no reachmap sources at {SRC}; run inside a reachmap checkout")
    sys.path.insert(0, str(SRC))
    import reachmap.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "reachmap":
        sys.exit(f"error: imported reachmap from {cli.__file__}, not from {SRC}")
    return cli


def units() -> dict[str, str]:
    """Every metric's unit, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# --- running commands -----------------------------------------------------------


class Session:
    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.records = []  # (op, exit code, stdout, stderr, seconds)
        self.wall = 0.0
        self.tracer = None


def call(cli, argv) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as e:  # argparse usage errors
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # a traceback is a failed command, not a crashed benchmark
        rc = -1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def run_session(cli, plan, run_dir: Path, index: int, traced: bool) -> Session:
    from tracer import Tracer

    s = Session(index, traced)
    d = run_dir / f"session{index}"
    d.mkdir()
    ops = plan.ops(d)
    s.tracer = Tracer() if traced else None
    with s.tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        for op in ops:
            rc, out, err, dt = call(cli, op.argv)
            s.records.append((op, rc, out, err, dt))
            if rc != 0:
                break
        s.wall = time.perf_counter() - t0
    return s


def time_setup(run_dir: Path) -> list[float]:
    """Wall seconds of fresh interpreters printing the version."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        p = subprocess.run(
            [sys.executable, "-m", "reachmap", "--version"],
            env=env, cwd=run_dir, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if p.returncode != 0 or not p.stdout.startswith("reachmap "):
            raise RuntimeError(f"reachmap --version exited {p.returncode}: {p.stderr.strip()}")
    return times


# --- checks ---------------------------------------------------------------------


def check_sessions(sessions, sizes) -> dict:
    """Check every command's outputs; return failures, digests and facts.

    The first session's outputs get the format checks; later sessions must
    reproduce its bytes.  The digests are recorded, not gated: an honest
    estimator change may change them.
    """
    from workloads import FULL, R2_FLOOR, CheckFailed, check_op, map_r2, outputs

    failures, digests, cells, r2 = [], {}, [], {}
    for s in sessions:
        for op, rc, out, err, _ in s.records:
            where = f"session {s.index} {op.label}"
            if rc != 0:
                failures.append(f"{where}: exit {rc}: {err.strip()[-500:]}")
                continue
            try:
                produced = outputs(op, out)
                hashes = {name: hashlib.sha256(data).hexdigest() for name, data in produced.items()}
                for name, h in hashes.items():
                    if digests.setdefault(name, h) != h:
                        raise CheckFailed(f"{name} differs from session 0's bytes")
                if s.index > 0:
                    continue
                facts = check_op(op, out, produced)
                if "cells" in facts:
                    cells.append(facts["cells"])
                if "r2" in facts:
                    r2 = facts["r2"]
                    if sizes == FULL and r2["causal_tree"] < R2_FLOOR:
                        raise CheckFailed(f"r2.causal_tree {r2['causal_tree']:.4f} < {R2_FLOOR}")
            except (CheckFailed, OSError, ValueError, IndexError, KeyError) as e:
                failures.append(f"{where}: {type(e).__name__}: {e}")
    if r2:
        holdout = r2["causal_tree"]
    elif cells:
        holdout = map_r2(np.concatenate(cells))
    else:
        holdout = None
    return {"failures": failures, "digests": digests, "r2": r2, "r2_holdout": holdout}


def tree_state() -> dict:
    """(size, mtime) of every checkout file outside the benchmark's scratch and caches."""
    state = {}
    for p in ROOT.rglob("*"):
        rel = p.relative_to(ROOT).parts
        if rel[0] in (".git", ".perfbench") or "__pycache__" in rel:
            continue
        if p.is_file():
            st = p.stat()
            state["/".join(rel)] = (st.st_size, st.st_mtime_ns)
    return state


# --- results --------------------------------------------------------------------


def latency(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"n": n, "p50": statistics.median(samples) if samples else None}
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        out[f"p{q}"] = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return out


def environment() -> dict:
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
            commit = p.stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted((SRC / "reachmap").rglob("*.py")):
        src.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def end_to_end(sessions, setup, peak_rss_kb, checks, failed, attempted) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(s.wall for s in sessions),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "ops_ok_ratio": (attempted - failed) / attempted,
        "r2_holdout": checks["r2_holdout"],
    }


def per_layer(traced, untraced, checks) -> dict:
    from tracer import METRIC_NAMES
    from workloads import MODEL_KINDS

    per_session = [s.tracer.layer_metrics() for s in traced]
    out = {name: statistics.median(m[name] for m in per_session) for name in METRIC_NAMES}
    for kind in MODEL_KINDS:  # 0 where the workload runs no bench
        out[f"evaluation.r2.{kind}"] = checks["r2"].get(kind, 0.0)
    out["trace.overhead_s"] = statistics.median(s.wall for s in traced) - statistics.median(
        s.wall for s in untraced
    )
    return out


def run_workload(args) -> int:
    cli = import_cli()
    from workloads import FULL, TINY, Plan

    sizes = TINY if args.tiny else FULL
    before = tree_state()
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = str(run_dir)
    try:
        setup = [] if args.trace else time_setup(run_dir)
        plan = Plan(args.workload, args.seed, run_dir, sizes)
        sessions = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(sessions) % 2 == 1
            s = run_session(cli, plan, run_dir, len(sessions), traced)
            sessions.append(s)
            if s.records[-1][1] != 0:
                break  # a command failed; the checks report it
            n = len(sessions)
            typical = statistics.median(x.wall for x in sessions)
            pair_open = args.trace and n % 2 == 1
            if n >= MIN_SESSIONS and not pair_open and time.perf_counter() - start + typical > args.seconds:
                break
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the checks parse outputs
        checks = check_sessions(sessions, sizes)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    failures = checks["failures"]
    attempted = sum(len(s.records) for s in sessions)
    failed = len(failures)  # one entry per failed command
    if tree_state() != before:
        failures.append("the checkout's files changed during the run")
    correct = not failures and len(sessions) >= MIN_SESSIONS
    untraced = [s for s in sessions if not s.traced]
    traced = [s for s in sessions if s.traced]
    if args.trace:
        metrics = per_layer(traced, untraced, checks) if traced else {}
    else:
        metrics = end_to_end(untraced, setup, peak_rss_kb, checks, failed, attempted)
    metrics = {name: value for name, value in metrics.items() if value is not None}
    latencies = {
        kind: latency([dt for s in untraced for op, _, _, _, dt in s.records if op.kind == kind])
        for kind in COMMAND_KINDS
    }

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seeds": plan.seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": dataclasses.asdict(sizes),
        "environment": environment(),
        "sessions": len(sessions),
        "session_wall_s": [s.wall for s in sessions],
        "setup_s": setup,
        "latency_s": latencies,
        "bench_r2": checks["r2"],
        "digests": checks["digests"],
        "failures": failures,
    }
    if traced:
        details["functions"] = traced[-1].tracer.functions()
    print("details " + json.dumps(details, sort_keys=True))
    unit = units()
    for name, value in metrics.items():
        print(f"{name:<32} {value:>16.6f} {unit[name]}")
    for kind, lat in latencies.items():  # reported, not bounded: see README.md
        if lat["n"]:
            print(f"{COMMAND_KINDS[kind] + '_p50_s':<32} {lat['p50']:>16.6f} s  n={lat['n']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and print all their metrics."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        p = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = p.stdout.splitlines()
        if p.returncode not in (0, 1) or not lines:
            sys.exit(f"error: workload {w} exited {p.returncode}: {p.stderr.strip()[-2000:]}")
        result = json.loads(lines[-1])
        print(f"== {w}")
        print("\n".join(lines[:-1]))
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{w}.{name}": m for name, m in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs for the self-test; skips the r2 floor")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
