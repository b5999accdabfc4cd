"""The benchmark's three workloads and the checks on their outputs.

Each workload is a session: a fixed list of reachmap CLI commands.  All of a
run's sessions use the same inputs, drawn from the run's seed, so every
session must write the same bytes.

- ``compare``: the researcher's estimator comparison, ``bench`` of all five
  model kinds at their defaults on 2000 samples per group.  Fit-bound,
  dominated by the t_forest fits inside ``bench``; the tree layers run as
  many small fits.
- ``clinic``: the clinician's session for one individual: one causal-forest
  fit, a stack of fine map slices and single-point queries that each reload
  the 1 MB model document.  Predict-bound; ``baselines`` never runs, so a
  change to fitting alone should leave it unchanged.
- ``cohort``: 40k control samples against one individual's 2k: gen, one
  causal-tree fit, one fine map slice and a few queries.  Bound by CSV I/O
  and a few large tree nodes; the cheap tree predict leaves map rendering a
  large share.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODEL_KINDS = ("causal_tree", "causal_forest", "t_cart", "t_forest", "t_knn")
DATASET_HEADER = "x_m,y_m,z_m,dist_m,group,time_s"
MAP_HEADER = "x_m,y_m,z_m,dist_m,tau_hat_s,leaf_id"
BENCH_HEADER = "model,mean_r2,stderr_r2,p_vs_reference"
DGP_CONFIG = "effect_preset = regional\nnoise_sigma = 0.15\n"
RADIUS, HEIGHT = 0.30, 0.40  # the standard workspace every map is drawn on
R2_FLOOR = 0.80  # acceptance criterion 5: causal-tree mean r2 on the regional bench

_PREDICT_LINE = re.compile(r"tau_hat_s=(\S+) leaf_id=(\d+|none)\n")


@dataclass(frozen=True)
class Sizes:
    n: int = 2000  # samples per group (compare, clinic) and individual samples (cohort)
    cohort_controls: int = 40000
    holdout_points: int = 500
    clinic_res: float = 0.005
    cohort_res: float = 0.0025


FULL = Sizes()
# runs every command and check in seconds; too small for the r2 floor
TINY = Sizes(n=150, cohort_controls=1500, holdout_points=50, clinic_res=0.05, cohort_res=0.05)
QUERIES = {"compare": 0, "clinic": 20, "cohort": 10}  # single-point predicts per session


@dataclass(frozen=True)
class Op:
    """One CLI command; ``expect`` holds what its outputs are checked against."""

    label: str
    kind: str  # gen | fit | predict | map | bench
    argv: tuple[str, ...]
    expect: dict


class Plan:
    """A workload's inputs for one seed, and its session's commands."""

    def __init__(self, workload: str, seed: int, run_dir: Path, sizes: Sizes):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.sizes = sizes
        gen_seed, fit_seed, bench_seed, query_seed = (
            int(v) for v in np.random.SeedSequence(seed).generate_state(4)
        )
        self.seeds = {"gen": gen_seed, "fit": fit_seed, "bench_master": bench_seed, "query": query_seed}
        self.dgp = run_dir / "regional.cfg"
        self.dgp.write_text(DGP_CONFIG, encoding="utf-8")
        self.bench_config = run_dir / "bench.json"
        self.bench_config.write_text(
            json.dumps(
                {
                    "dgp": {"effect_preset": "regional", "noise_sigma": 0.15},
                    "models": [{"kind": k} for k in MODEL_KINDS],
                    "n_control": sizes.n,
                    "n_individual": sizes.n,
                    "runs": 2,
                    "holdout_points": sizes.holdout_points,
                    "master_seed": bench_seed,
                }
            ),
            encoding="utf-8",
        )
        rng = np.random.default_rng(query_seed)
        self.queries = [_workspace_point(rng) for _ in range(QUERIES[workload])]

    def ops(self, d: Path) -> list[Op]:
        s, q = self.sizes, self.queries
        if self.workload == "compare":
            out = d / "bench.csv"
            return [Op("bench", "bench", ("bench", "--config", str(self.bench_config), "--out", str(out)),
                       {"csv": out})]
        if self.workload == "clinic":
            ops = [self._gen(d, s.n, s.n), self._fit(d, "causal_forest", "forest.json")]
            ops += [self._map(d, "forest.json", i, z, s.clinic_res) for i, z in enumerate((0.12, 0.24, 0.36))]
            ops += [self._predict(d, "forest.json", i, p) for i, p in enumerate(q)]
            return ops
        ops = [self._gen(d, s.cohort_controls, s.n), self._fit(d, "causal_tree", "tree.json")]
        ops.append(self._map(d, "tree.json", 0, 0.24, s.cohort_res))
        ops += [self._predict(d, "tree.json", i, p) for i, p in enumerate(q)]
        return ops

    def _gen(self, d, n0, n1) -> Op:
        out = d / "data.csv"
        argv = ("gen", "--dgp", str(self.dgp), "--n0", str(n0), "--n1", str(n1),
                "--seed", str(self.seeds["gen"]), "--out", str(out))
        return Op("gen", "gen", argv, {"csv": out, "n0": n0, "n1": n1})

    def _fit(self, d, kind, name) -> Op:
        out = d / name
        argv = ("fit", "--data", str(d / "data.csv"), "--model", kind,
                "--seed", str(self.seeds["fit"]), "--out", str(out))
        return Op("fit", "fit", argv, {"json": out, "kind": kind})

    def _predict(self, d, model, i, p) -> Op:
        x, y, z = (f"{v:.6f}" for v in p)
        argv = ("predict", "--model", str(d / model), "--x", x, "--y", y, "--z", z)
        return Op(f"query.{i}", "predict", argv, {"leaf": model.startswith("tree")})

    def _map(self, d, model, i, z, res) -> Op:
        svg, csv = d / f"map{i}_z{z}.svg", d / f"map{i}_z{z}.csv"
        argv = ("map", "--model", str(d / model), "--z-slice", str(z), "--resolution", str(res),
                "--out-svg", str(svg), "--out-csv", str(csv))
        return Op(f"map.{i}", "map", argv, {"svg": svg, "csv": csv, "z": z, "cells": slice_cells(res),
                                             "leaf": model.startswith("tree")})


WORKLOADS = ("compare", "clinic", "cohort")


def _workspace_point(rng: np.random.Generator) -> tuple[float, float, float]:
    while True:
        x, y = rng.uniform(-RADIUS, RADIUS), rng.uniform(0.0, RADIUS)
        if x * x + y * y <= RADIUS * RADIUS:
            return x, y, rng.uniform(0.0, HEIGHT)


def slice_cells(res: float) -> int:
    """Cells in one z slice, by the grid layout the README and ``build_grid`` document:
    centers at -r + res/2 + i*res laterally and res/2 + j*res forward, kept when
    x^2 + y^2 <= r^2."""
    xs, i = [], 0
    while (x := -RADIUS + res / 2 + i * res) < RADIUS:
        xs.append(x)
        i += 1
    ys, j = [], 0
    while (y := res / 2 + j * res) < RADIUS:
        ys.append(y)
        j += 1
    return sum(1 for y in ys for x in xs if x * x + y * y <= RADIUS * RADIUS)


# --- output checks -------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def outputs(op: Op, stdout: str) -> dict[str, bytes]:
    """Every byte a command produced, by output name: its files and, for queries, stdout."""
    e = op.expect
    if op.kind == "gen":
        return {"data.csv": e["csv"].read_bytes(),
                "data.truth.cfg": e["csv"].with_suffix(".truth.cfg").read_bytes()}
    if op.kind == "fit":
        return {e["json"].name: e["json"].read_bytes()}
    if op.kind == "predict":
        return {op.label: stdout.encode("utf-8")}
    if op.kind == "map":
        return {e["csv"].name: e["csv"].read_bytes(), e["svg"].name: e["svg"].read_bytes()}
    return {"bench.csv": e["csv"].read_bytes()}


def check_op(op: Op, stdout: str, out: dict[str, bytes]) -> dict:
    """Check one command's stdout and outputs against the documented formats.

    Returns facts the metrics need: mapped cells as rows of
    (x, y, z, dist, tau_hat_s), or the bench's mean r2 per model kind.
    Raises CheckFailed on the first mismatch.
    """
    e = op.expect
    if op.kind == "gen":
        n = e["n0"] + e["n1"]
        _require(stdout == f"wrote {n} samples to {e['csv']}\n", f"gen stdout {stdout!r}")
        lines = out["data.csv"].decode("utf-8").splitlines()
        _require(lines[0] == DATASET_HEADER, f"dataset header {lines[0]!r}")
        _require(len(lines) == n + 1, f"dataset has {len(lines) - 1} rows, expected {n}")
        n1 = sum(1 for line in lines[1:] if line.split(",")[4] == "1")
        _require(n1 == e["n1"], f"dataset has {n1} individual rows, expected {e['n1']}")
        return {}
    if op.kind == "fit":
        _require(stdout == f"wrote {e['kind']} model to {e['json']}\n", f"fit stdout {stdout!r}")
        doc = json.loads(out[e["json"].name])
        _require(doc.get("format_version") == 1 and doc.get("kind") == e["kind"],
                 f"model document kind/version {doc.get('kind')!r}/{doc.get('format_version')!r}")
        return {}
    if op.kind == "predict":
        m = _PREDICT_LINE.fullmatch(stdout)
        _require(m is not None, f"predict stdout {stdout!r}")
        _require(math.isfinite(float(m.group(1))), f"predict tau {m.group(1)}")
        _require((m.group(2) != "none") == e["leaf"], f"predict leaf_id {m.group(2)}")
        return {}
    if op.kind == "map":
        _require(stdout == f"mapped {e['cells']} cells at z={e['z']}\n", f"map stdout {stdout!r}")
        lines = out[e["csv"].name].decode("utf-8").splitlines()
        _require(lines[0] == MAP_HEADER, f"map header {lines[0]!r}")
        _require(len(lines) == e["cells"] + 1, f"map has {len(lines) - 1} rows, expected {e['cells']}")
        cells = [line.split(",") for line in lines[1:]]
        _require(all((c[5] != "") == e["leaf"] for c in cells), "map leaf_id column")
        rows = np.array([c[:5] for c in cells], dtype=np.float64)
        _require(bool(np.all(np.isfinite(rows[:, 4]))), "map has a non-finite tau_hat_s")
        _require(bool(np.all(rows[:, 2] == e["z"])), "map z_m differs from the slice")
        root = ET.fromstring(out[e["svg"].name])
        rects = sum(1 for el in root.iter() if el.tag.endswith("rect"))
        # one rect per cell, plus the background and three legend swatches
        _require(root.tag.endswith("svg") and rects == e["cells"] + 4, f"svg has {rects} rects")
        return {"cells": rows}
    _require(stdout.startswith("Model "), "bench table missing")
    lines = out["bench.csv"].decode("utf-8").splitlines()
    _require(lines[0] == BENCH_HEADER, f"bench header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    _require([r[0] for r in rows] == list(MODEL_KINDS), "bench model rows")
    _require(rows[0][3] == "" and all(r[3] != "" for r in rows[1:]), "bench p-value cells")
    r2 = {r[0]: float(r[1]) for r in rows}
    _require(all(math.isfinite(v) for v in r2.values()), "bench r2 not finite")
    return {"r2": r2}


def map_r2(cells: np.ndarray) -> float:
    """r2 of mapped tau_hat_s against the regional generator's effect at the same cells.

    The effect is restated here from the generator's documentation (1 s where
    x >= 0 and z >= 0.2 m, 0.5 s where x < 0 and dist >= 0.2 m, else 0), so the
    check does not rely on the code it checks.
    """
    x, z, dist, pred = cells[:, 0], cells[:, 2], cells[:, 3], cells[:, 4]
    truth = np.where((x >= 0) & (z >= 0.2), 1.0, np.where((x < 0) & (dist >= 0.2), 0.5, 0.0))
    sst = float(np.sum((truth - truth.mean()) ** 2))
    return 1.0 - float(np.sum((truth - pred) ** 2)) / sst
