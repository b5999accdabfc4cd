"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each criterion states its tolerance and runtime budget inline; budgets are
asserted, not advisory.
"""

import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import reachmap as rm
from conftest import (
    oracle_best_split,
    oracle_route,
    random_dataset,
    tree_leaf_values,
    tree_skeleton,
)
from test_evaluation import oracle_paired_p


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\ncriterion {number} ({name}): {verdict}{suffix}")


def test_criterion_1_leaf_effect_oracle():
    """Every leaf effect of 200 random fitted trees matches a fresh two-mean
    recomputation over the routed estimation samples, within 1e-12.  < 10 s."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    trees = leaves = 0
    worst = 0.0
    while trees < 200:
        n0 = int(rng.integers(8, 101))
        n1 = int(rng.integers(8, 100 - max(0, n0 - 100) + 1)) if n0 <= 192 else 8
        if n0 + n1 > 200:
            continue
        d = random_dataset(rng, n0, n1, effect=float(rng.uniform(-1, 1)))
        params = rm.CausalTreeParams(
            max_depth=int(rng.integers(0, 6)),
            min_group_leaf=int(rng.integers(1, 5)),
            seed=int(rng.integers(0, 10_000)),
        )
        tree = rm.fit_causal_tree(d, params)
        _, est = rm.stratified_honest_split(d, params.honest_fraction, params.seed)
        routed = {}
        for row, group, outcome in zip(est.features.tolist(), est.groups.tolist(), est.outcomes.tolist()):
            routed.setdefault(oracle_route(tree, rm.TaskFeatures(*row)).leaf_id, []).append((group, outcome))
        for leaf in tree.leaves():
            samples = routed[leaf.leaf_id]
            ind = [t for g, t in samples if g == 1]
            ctl = [t for g, t in samples if g == 0]
            assert len(ind) == leaf.n_individual and len(ctl) == leaf.n_control
            err = abs(leaf.tau_hat - (statistics.fmean(ind) - statistics.fmean(ctl)))
            worst = max(worst, err)
            assert err <= 1e-12, f"leaf {leaf.leaf_id}: error {err}"
            leaves += 1
        trees += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(1, "leaf effect oracle", ok,
           f"{trees} trees, {leaves} leaves, worst error {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_2_split_oracle():
    """best_split agrees with exact exhaustive enumeration on 500 random
    datasets of at most 16 samples, including none-cases.  < 10 s."""
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    none_cases = 0
    for trial in range(500):
        m = int(rng.integers(1, 3))
        d_split = random_dataset(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        d_est = random_dataset(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        assert len(d_split) <= 16 and len(d_est) <= 16
        got = rm.best_split(d_split, d_est, rm.CausalTreeParams(min_group_leaf=m, seed=0))
        want = oracle_best_split(d_split, d_est, m)
        if want is None:
            assert got is None, f"trial {trial}: expected none, got {got}"
            none_cases += 1
        else:
            assert got is not None, f"trial {trial}: expected {want}, got none"
            assert got.feature_index == want[0], f"trial {trial}: {got} vs {want}"
            assert got.threshold == want[1], f"trial {trial}: {got} vs {want}"
            assert abs(got.gain - want[2]) <= 1e-12, f"trial {trial}: {got} vs {want}"
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0 and none_cases > 0
    report(2, "split search oracle", ok,
           f"500 datasets, {none_cases} none-cases, {elapsed:.1f}s")
    assert none_cases > 0
    assert elapsed < 10.0


def test_criterion_3_equivariance_and_honesty():
    """50 random datasets: +c on individual outcomes and x2 on all outcomes
    preserve structure exactly and move leaf values by c / x2 within 1e-12;
    estimation-half outcomes never steer structure."""
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    for trial in range(50):
        d = random_dataset(
            rng, int(rng.integers(12, 40)), int(rng.integers(12, 40)),
            effect=float(rng.uniform(-1, 1)),
        )
        params = rm.CausalTreeParams(
            max_depth=int(rng.integers(1, 4)), min_group_leaf=2, seed=trial
        )
        base = rm.fit_causal_tree(d, params)

        c = float(rng.uniform(0.25, 1.5))
        shifted = rm.Dataset(
            d.features, d.groups, np.where(d.groups == 1, d.outcomes + c, d.outcomes)
        )
        t_shift = rm.fit_causal_tree(shifted, params)
        assert tree_skeleton(t_shift) == tree_skeleton(base), f"trial {trial}: shift changed structure"
        for a, b in zip(tree_leaf_values(t_shift), tree_leaf_values(base)):
            assert abs(a - (b + c)) <= 1e-12

        s = 2.0
        t_scale = rm.fit_causal_tree(rm.Dataset(d.features, d.groups, d.outcomes * s), params)
        assert tree_skeleton(t_scale) == tree_skeleton(base), f"trial {trial}: scale changed structure"
        for a, b in zip(tree_leaf_values(t_scale), tree_leaf_values(base)):
            assert abs(a - b * s) <= 1e-12

        split_half, est_half = rm.stratified_honest_split(d, 0.5, seed=trial)
        grown = rm.grow_causal_tree(split_half, est_half, params)
        perturbed = rm.Dataset(
            est_half.features,
            est_half.groups,
            est_half.outcomes + rng.uniform(0.1, 2.0, len(est_half)),
        )
        regrown = rm.grow_causal_tree(split_half, perturbed, params)
        assert tree_skeleton(regrown) == tree_skeleton(grown), f"trial {trial}: honesty violated"
    elapsed = time.perf_counter() - start
    report(3, "equivariance and honesty", True, f"50 datasets, {elapsed:.1f}s")


def test_criterion_4_null_recovery():
    """Null effect, sigma 0.1 s, 1000 samples per group, default tree: the
    mean |tau| over the 0.05 m grid at z = 0.1 stays at or below 0.05 s in at
    least 9 of 10 seeds.  < 1 min."""
    dgp = rm.DgpSpec(effect_preset=rm.EffectPreset.NULL, noise_sigma=0.1)
    grid = rm.build_grid(rm.Workspace(), 0.05, z_slice=0.1)
    start = time.perf_counter()
    means = []
    for seed in range(10):
        data, _ = rm.generate_dataset(dgp, 1000, 1000, seed=seed)
        tree = rm.fit_causal_tree(data, rm.CausalTreeParams(seed=seed))
        means.append(float(np.mean(np.abs(tree.predict(grid.features).tau_hat))))
    elapsed = time.perf_counter() - start
    passing = sum(m <= 0.05 for m in means)
    ok = passing >= 9 and elapsed < 60.0
    report(4, "null recovery", ok,
           f"{passing}/10 seeds with mean|tau| <= 0.05 (max {max(means):.4f}), {elapsed:.1f}s")
    assert passing >= 9, f"only {passing}/10 seeds passed: {means}"
    assert elapsed < 60.0


REGIONAL_BENCH_SEED = 1


def regional_bench(models):
    return rm.BenchConfig(
        dgp=rm.DgpSpec(effect_preset=rm.EffectPreset.REGIONAL, noise_sigma=0.15),
        models=tuple(models),
        n_control=2000,
        n_individual=2000,
        runs=10,
        holdout_points=500,
        master_seed=REGIONAL_BENCH_SEED,
    )


def test_criterion_5_regional_recovery():
    """Regional effect, sigma 0.15 s, 2000 samples per group, 500 fresh
    holdout points: causal-tree mean r-squared over 10 runs >= 0.80.  < 2 min."""
    start = time.perf_counter()
    [row] = rm.run_benchmark(regional_bench([rm.model_entry("causal_tree")]))
    elapsed = time.perf_counter() - start
    ok = row.mean_r2 >= 0.80 and elapsed < 120.0
    report(5, "regional recovery", ok,
           f"mean r2 {row.mean_r2:.3f} (stderr {row.stderr_r2:.3f}), {elapsed:.1f}s")
    assert row.mean_r2 >= 0.80
    assert elapsed < 120.0


def test_criterion_6_directional_comparison():
    """On the criterion-5 bench, the causal tree's mean r-squared must be at
    least every baseline's, strictly above t_cart and t_knn, with paired
    p-values reported and the published table shape (reference row "--").
    < 5 min.

    Known red: with every estimator at its documented defaults, the bagged
    forest T-learner consistently edges the single honest tree on this
    synthetic bench (across master seeds and sample sizes), so the
    "tree >= t_forest" clause fails.  The assertion is kept as stated rather
    than weakened; see README "Acceptance status".
    """
    models = [
        rm.model_entry("causal_tree"),
        rm.model_entry("t_cart"),
        rm.model_entry("t_forest"),
        rm.model_entry("t_knn"),
    ]
    start = time.perf_counter()
    rows = rm.run_benchmark(regional_bench(models))
    elapsed = time.perf_counter() - start

    table = rm.format_bench_table(rows, [m.describe for m in models])
    csv_text = rm.bench_rows_to_csv(rows)
    print()
    print(table)

    by_name = {r.model_name: r for r in rows}
    tree = by_name["causal_tree"]
    clauses = {
        "tree >= t_cart": tree.mean_r2 >= by_name["t_cart"].mean_r2,
        "tree >= t_forest": tree.mean_r2 >= by_name["t_forest"].mean_r2,
        "tree >= t_knn": tree.mean_r2 >= by_name["t_knn"].mean_r2,
        "tree > t_cart strictly": tree.mean_r2 > by_name["t_cart"].mean_r2,
        "tree > t_knn strictly": tree.mean_r2 > by_name["t_knn"].mean_r2,
        "p-values reported": all(
            0.0 <= r.p_vs_reference <= 1.0 for r in rows[1:]
        ),
        "reference row --": tree.p_vs_reference is None
        and "--" in table.splitlines()[2],
        "csv column structure": csv_text.splitlines()[0]
        == "model,mean_r2,stderr_r2,p_vs_reference",
        "table column order": table.splitlines()[0].split()
        == ["Model", "avg", "r2", "std", "err", "r2", "p-value"],
        "runtime < 5 min": elapsed < 300.0,
    }
    failed = [name for name, ok in clauses.items() if not ok]
    report(6, "directional comparison", not failed,
           f"{elapsed:.1f}s" + (f"; failing: {', '.join(failed)}" if failed else ""))
    assert not failed, (
        f"failing clauses: {failed}\n"
        + "\n".join(f"{r.model_name}: mean r2 {r.mean_r2:.4f}" for r in rows)
    )


def test_criterion_7_metric_unit_checks():
    """Metric examples hold and the paired t-test matches an independent
    t-distribution oracle (regularized incomplete beta) within 1e-6 on 100
    random inputs."""
    assert rm.r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    truth = [1.0, 2.0, 3.0, 6.0]
    assert rm.r_squared(truth, [3.0] * 4) == 0.0
    assert rm.r_squared([1, 2, 3], [1.1, 1.9, 3.2]) == pytest.approx(0.97, abs=1e-12)

    assert rm.std_error([1.0, 1.0, 1.0]) == 0.0
    assert rm.std_error([0.0, 2.0]) == 1.0
    assert rm.std_error([7.0] * 5) == 0.0

    assert rm.paired_t_test([1.0, 2.0], [1.0, 2.0]) == 1.0
    assert rm.paired_t_test([1.5, 2.5, 3.5], [1.0, 2.0, 3.0]) == 0.0
    d = [0.02, 0.03, 0.01, 0.04, 0.02, 0.03, 0.02, 0.01, 0.03, 0.02]
    zeros = [0.0] * len(d)
    assert rm.paired_t_test(d, zeros) == pytest.approx(oracle_paired_p(d, zeros), abs=1e-6)

    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 30))
        a = list(rng.normal(loc=rng.uniform(-1, 1), size=n))
        b = list(rng.normal(size=n))
        err = abs(rm.paired_t_test(a, b) - oracle_paired_p(a, b))
        worst = max(worst, err)
        assert err <= 1e-6
    report(7, "metric unit checks", True, f"paired-t worst oracle gap {worst:.2e}")


def test_criterion_8_map_pipeline():
    """Grid example exact (56 cells), SVG byte-determinism, region partition
    property over 100 random trees, and detection of a disconnected
    equal-difficulty region.  < 10 s."""
    start = time.perf_counter()
    grid = rm.build_grid(rm.Workspace(), 0.05, z_slice=0.1)
    assert len(grid) == 56

    rng = np.random.default_rng(808)
    for trial in range(100):
        d = random_dataset(rng, 25, 25, effect=float(rng.uniform(-1, 1)))
        tree = rm.fit_causal_tree(
            d, rm.CausalTreeParams(max_depth=3, min_group_leaf=2, seed=trial)
        )
        m = rm.difficulty_map(tree, grid)
        regions = rm.extract_regions(m)
        cells = sorted(i for r in regions for i in r.cells)
        assert cells == list(range(len(m)))

    svg_map = rm.difficulty_map(tree, grid)
    assert rm.render_svg_slice(svg_map) == rm.render_svg_slice(svg_map)

    from reachmap.causal_tree import Internal, Leaf, Split

    pocket_tree = rm.CausalTree(
        root=Internal(
            Split(1, 0.1, 1.0),
            Internal(
                Split(3, 0.28, 1.0),
                Leaf(0, 0.0, 5, 5, 1.0, 1.0),
                Leaf(1, 2.0, 5, 5, 3.0, 1.0),
            ),
            Leaf(2, 0.5, 5, 5, 1.5, 1.0),
        ),
        params=rm.CausalTreeParams(seed=0),
    )
    pocket_map = rm.difficulty_map(pocket_tree, grid)
    pocket = {r.leaf_id: r for r in rm.extract_regions(pocket_map)}[1]
    assert pocket.connected is False
    elapsed = time.perf_counter() - start
    report(8, "map pipeline", elapsed < 10.0,
           f"56-cell grid, 100 partitions, disconnected pocket found, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_9_end_to_end_determinism(tmp_path):
    """A scripted gen -> fit -> bench -> map pipeline with fixed seeds writes
    byte-identical artifacts on two independent invocations."""

    bench_doc = {
        "dgp": {"effect_preset": "regional", "noise_sigma": 0.1},
        "models": [
            {"kind": "causal_tree", "max_depth": 3, "min_group_leaf": 3},
            {"kind": "t_knn"},
        ],
        "n_control": 120,
        "n_individual": 120,
        "runs": 3,
        "holdout_points": 80,
        "master_seed": 17,
    }

    def pipeline(workdir):
        workdir.mkdir()
        cfg = workdir / "dgp.cfg"
        cfg.write_text("effect_preset = regional\nnoise_sigma = 0.1\n")
        bench_cfg = workdir / "bench.json"
        bench_cfg.write_text(json.dumps(bench_doc))

        def cli(*args):
            result = subprocess.run(
                [sys.executable, "-m", "reachmap", *map(str, args)],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            return result.stdout

        cli("gen", "--dgp", cfg, "--n0", 400, "--n1", 400, "--seed", 3,
            "--out", workdir / "d.csv")
        cli("fit", "--data", workdir / "d.csv", "--model", "causal_tree",
            "--max-depth", 4, "--seed", 7, "--out", workdir / "m.json")
        bench_stdout = cli("bench", "--config", bench_cfg, "--out", workdir / "bench.csv")
        cli("map", "--model", workdir / "m.json", "--z-slice", 0.1,
            "--resolution", 0.05, "--out-svg", workdir / "m.svg",
            "--out-csv", workdir / "map.csv")
        artifacts = {
            name: (workdir / name).read_bytes()
            for name in ("d.csv", "d.truth.cfg", "m.json", "bench.csv", "m.svg", "map.csv")
        }
        artifacts["bench.stdout"] = bench_stdout.encode()
        return artifacts

    first = pipeline(tmp_path / "run_a")
    second = pipeline(tmp_path / "run_b")
    mismatched = [k for k in first if first[k] != second[k]]
    report(9, "end-to-end determinism", not mismatched,
           "all artifacts byte-identical" if not mismatched else f"differs: {mismatched}")
    assert not mismatched
