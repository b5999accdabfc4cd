import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reachmap.cli
from reachmap import (
    BenchConfig,
    DgpSpec,
    EffectPreset,
    bench_config_from_json,
    bench_rows_to_csv,
    format_bench_table,
    model_entry,
    paired_t_test,
    r_squared,
    run_benchmark,
    std_error,
)
from reachmap.causal_tree import DifficultyEstimate
from reachmap.errors import (
    BenchmarkError,
    InsufficientSamples,
    LengthMismatch,
    MalformedConfig,
    MissingGroup,
    ZeroVariance,
)
from reachmap.evaluation import ModelEntry


def oracle_paired_p(a, b) -> float:
    """Two-sided paired t-test p-value via the regularized incomplete beta.

    P(|T| > t) = I_{nu/(nu+t^2)}(nu/2, 1/2) for Student's t with nu dof,
    evaluated with mpmath; summary statistics use the stdlib statistics module.
    """
    d = [x - y for x, y in zip(a, b)]
    n = len(d)
    mean = statistics.fmean(d)
    sd = statistics.stdev(d)
    t = mean / (sd / n**0.5)
    nu = n - 1
    x = nu / (nu + t * t)
    return float(mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))


class TestRSquared:
    def test_perfect(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_predictor_is_zero(self):
        truth = [1.0, 2.0, 3.0, 6.0]
        mean = sum(truth) / len(truth)
        assert r_squared(truth, [mean] * 4) == 0.0

    def test_formula_arithmetic(self):
        assert r_squared([1, 2, 3], [1.1, 1.9, 3.2]) == pytest.approx(0.97, abs=1e-12)

    def test_can_be_negative(self):
        assert r_squared([1.0, 2.0], [5.0, -5.0]) < 0

    def test_never_above_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            truth = rng.normal(size=6)
            pred = rng.normal(size=6)
            assert r_squared(truth, pred) <= 1.0

    def test_one_iff_elementwise_equal(self):
        truth = [1.0, 2.0, 3.0]
        assert r_squared(truth, [1.0, 2.0, 3.0 + 1e-6]) < 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        truth = list(rng.normal(size=8))
        pred = list(rng.normal(size=8))
        base = r_squared(truth, pred)
        for _ in range(5):
            perm = rng.permutation(8)
            assert r_squared(
                [truth[i] for i in perm], [pred[i] for i in perm]
            ) == pytest.approx(base, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            r_squared([1.0, 2.0], [1.0])

    def test_constant_truth(self):
        with pytest.raises(ZeroVariance):
            r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ZeroVariance):
            r_squared([2.0], [1.0])


class TestStdError:
    def test_constant(self):
        assert std_error([1.0, 1.0, 1.0]) == 0.0
        assert std_error([5.0] * 7) == 0.0

    def test_two_points(self):
        assert std_error([0.0, 2.0]) == 1.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        vals = list(rng.normal(size=9))
        want = statistics.stdev(vals) / 3.0
        assert std_error(vals) == pytest.approx(want, rel=1e-12)

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            std_error([1.0])


class TestPairedTTest:
    def test_identical_series(self):
        assert paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_constant_nonzero_difference(self):
        a = [1.5, 2.5, 3.5]
        b = [1.0, 2.0, 3.0]
        assert paired_t_test(a, b) == 0.0

    def test_reference_vector_matches_oracle(self):
        d = [0.02, 0.03, 0.01, 0.04, 0.02, 0.03, 0.02, 0.01, 0.03, 0.02]
        b = [0.0] * len(d)
        assert paired_t_test(d, b) == pytest.approx(oracle_paired_p(d, b), abs=1e-6)

    @pytest.mark.parametrize("trial", range(30))
    def test_random_inputs_match_oracle(self, trial):
        rng = np.random.default_rng(3000 + trial)
        n = int(rng.integers(2, 25))
        a = list(rng.normal(size=n))
        b = list(rng.normal(size=n))
        assert paired_t_test(a, b) == pytest.approx(oracle_paired_p(a, b), abs=1e-6)

    def test_two_sided_symmetry(self):
        rng = np.random.default_rng(4)
        a = list(rng.normal(size=10))
        b = list(rng.normal(size=10))
        assert paired_t_test(a, b) == paired_t_test(b, a)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            paired_t_test([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(InsufficientSamples):
            paired_t_test([1.0], [2.0])

    @given(
        n=st.integers(2, 1000),
        t_target=st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(2.0, 1e3),
                           st.floats(1e3, 1e12)),
        sign=st.sampled_from([1.0, -1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bits_match_scipy_stats(self, n, t_target, sign, seed):
        """The p-value equals scipy.stats' Student t survival function bit for bit."""
        rng = np.random.default_rng(seed)
        if t_target == 0.0:  # integer differences summing to exactly zero: t == 0
            d = rng.integers(1, 6, size=n) * rng.choice([-1.0, 1.0], size=n)
            d[-1] = -d[:-1].sum()
        else:  # mean shifted so that t is near sign * t_target
            e = rng.normal(size=n)
            e -= e.mean()
            d = e + sign * t_target * e.std(ddof=1) / math.sqrt(n)
        b = rng.integers(-5, 6, size=n).astype(np.float64)  # a - b is d exactly at t == 0
        a = b + d
        x = a - b
        assume(not np.all(x == x[0]))  # the degenerate rule is tested above
        t = float(np.mean(x) / (np.std(x, ddof=1) / math.sqrt(n)))
        assert (t == 0.0) == (t_target == 0.0)
        want = float(2.0 * scipy.stats.t.sf(abs(t), n - 1))
        assert np.float64(paired_t_test(a, b)).tobytes() == np.float64(want).tobytes()


#: Run in a fresh interpreter by ``test_only_bench_loads_scipy`` with the
#: work directory as its argument: prints the loaded ``scipy`` modules after
#: the imports, then after gen, fit, predict and map through ``cli.main``, and
#: whether ``scipy.special`` is loaded after a bench.
ONLY_BENCH_LOADS_SCIPY = """
import contextlib, io, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import reachmap
import reachmap.cli
print("loaded:", scipy_modules())
d = sys.argv[1] + "/"
kinds = ("causal_tree", "causal_forest", "t_knn")
commands = [
    ["gen", "--dgp", d + "regional.cfg", "--n0", "60", "--n1", "60", "--seed", "1",
     "--out", d + "d.csv"],
    *(["fit", "--data", d + "d.csv", "--model", k, "--seed", "2", "--out", d + k + ".json"]
      for k in kinds),
    *(["predict", "--model", d + k + ".json", "--x", "0.1", "--y", "0.1", "--z", "0.2"]
      for k in kinds),
    ["map", "--model", d + "causal_forest.json", "--z-slice", "0.1", "--out-svg", d + "m.svg",
     "--out-csv", d + "m.csv"],
]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        assert reachmap.cli.main(argv) == 0, argv
print("loaded:", scipy_modules())
with contextlib.redirect_stdout(io.StringIO()):
    bench = ["bench", "--config", d + "bench.json", "--out", d + "fresh.csv"]
    assert reachmap.cli.main(bench) == 0
print("loaded:", "scipy.special" in sys.modules)
"""


def test_only_bench_loads_scipy(tmp_path):
    """Importing the CLI and running gen, fit, predict and map load no scipy
    module; bench loads ``scipy.special`` at its first p-value and writes the
    same CSV as a bench in a process where scipy is already loaded."""
    (tmp_path / "regional.cfg").write_text("effect_preset = regional\n")
    (tmp_path / "bench.json").write_text(json.dumps({
        "dgp": {"effect_preset": "regional", "noise_sigma": 0.1},
        "models": [{"kind": "causal_tree", "max_depth": 2}, {"kind": "t_knn"}],
        "n_control": 60, "n_individual": 60,
        "runs": 3, "holdout_points": 40, "master_seed": 5,
    }))
    src = str(Path(reachmap.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", ONLY_BENCH_LOADS_SCIPY, str(tmp_path)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines() == ["loaded: []", "loaded: []", "loaded: True"]

    assert "scipy.special" in sys.modules  # this module imports scipy.stats
    assert reachmap.cli.main(["bench", "--config", str(tmp_path / "bench.json"),
                              "--out", str(tmp_path / "in_process.csv")]) == 0
    fresh = (tmp_path / "fresh.csv").read_bytes()
    assert fresh == (tmp_path / "in_process.csv").read_bytes()
    assert fresh.count(b"\n") == 3


#: Run in a fresh interpreter by ``test_cli_import_loads_only_numpy``:
#: prints the top-level names of the modules that importing the CLI loads
#: from an installed-package directory (site-packages), so that a package
#: counts as third-party by where its files are, not by a list of names.
THIRD_PARTY_AT_IMPORT = """
import os, site, sys, sysconfig

before = set(sys.modules)
import reachmap.cli
dirs = {sysconfig.get_paths()[key] for key in ("purelib", "platlib")}
dirs = {os.path.realpath(d) + os.sep for d in dirs | {site.getusersitepackages()}}
loaded = set()
for name in set(sys.modules) - before:
    path = getattr(sys.modules[name], "__file__", None)
    if path and os.path.realpath(path).startswith(tuple(dirs)):
        loaded.add(name.partition(".")[0])
print(sorted(loaded - {"reachmap"}))
"""


def test_cli_import_loads_only_numpy():
    """A cold start of the CLI imports no third-party package but numpy:
    import-time work is what ``python -m reachmap --version`` pays."""
    src = str(Path(reachmap.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", THIRD_PARTY_AT_IMPORT],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines() == ["['numpy']"]


def small_bench(models, runs=3, master_seed=99, preset=EffectPreset.REGIONAL):
    return BenchConfig(
        dgp=DgpSpec(effect_preset=preset, noise_sigma=0.1),
        models=tuple(models),
        n_control=80,
        n_individual=80,
        runs=runs,
        holdout_points=60,
        master_seed=master_seed,
    )


class RecordingModel:
    """Benchmark probe: digests its training data and logs holdout queries."""

    def __init__(self):
        self.train_digests = []
        self.seeds = []
        self.queries = []

    def fit(self, dataset, seed):
        digest = hashlib.sha256(
            dataset.features.tobytes()
            + dataset.groups.tobytes()
            + dataset.outcomes.tobytes()
        ).hexdigest()
        self.train_digests.append(digest)
        self.seeds.append(seed)
        run_queries = []
        self.queries.append(run_queries)
        probe = self

        class _Predictor:
            def predict(self, X):
                run_queries.extend(map(tuple, X[:, :3].tolist()))
                # vary with position so r^2 is well defined but data-free
                return DifficultyEstimate(X[:, 0] + probe_salt, None)

        probe_salt = 0.0
        return _Predictor()


class TestRunBenchmark:
    def test_row_shape_and_reference(self):
        rows = run_benchmark(
            small_bench(
                [
                    model_entry("causal_tree", max_depth=2, min_group_leaf=2),
                    model_entry("t_knn"),
                ]
            )
        )
        assert [r.model_name for r in rows] == ["causal_tree", "t_knn"]
        assert rows[0].p_vs_reference is None
        assert 0.0 <= rows[1].p_vs_reference <= 1.0
        assert all(r.stderr_r2 >= 0 for r in rows)

    def test_deterministic(self):
        models = [
            model_entry("causal_tree", max_depth=2, min_group_leaf=2),
            model_entry("t_cart", min_leaf=2),
        ]
        a = run_benchmark(small_bench(models))
        b = run_benchmark(small_bench(models))
        assert a == b

    def test_duplicate_model_identical_rows(self):
        rows = run_benchmark(
            small_bench(
                [
                    model_entry("causal_tree", "first", max_depth=2, min_group_leaf=2),
                    model_entry("causal_tree", "again", max_depth=2, min_group_leaf=2),
                ]
            )
        )
        assert rows[0].mean_r2 == rows[1].mean_r2
        assert rows[0].stderr_r2 == rows[1].stderr_r2
        assert rows[1].p_vs_reference == 1.0  # identical per-run series

    def test_paired_design_all_models_see_same_data(self):
        ref = model_entry("causal_tree", max_depth=2, min_group_leaf=2)
        probe_a, probe_b = RecordingModel(), RecordingModel()
        run_benchmark(
            small_bench(
                [
                    ref,
                    ModelEntry("probe_a", probe_a.fit),
                    ModelEntry("probe_b", probe_b.fit),
                ]
            )
        )
        assert probe_a.train_digests == probe_b.train_digests
        assert len(set(probe_a.train_digests)) == 3  # fresh data each run
        assert probe_a.queries == probe_b.queries
        assert probe_a.seeds == probe_b.seeds

    def test_errors_annotated_with_run_index(self):
        def bad_fit(dataset, seed):
            raise MissingGroup("synthetic failure")

        cfg = small_bench(
            [model_entry("causal_tree", max_depth=2, min_group_leaf=2),
             ModelEntry("broken", bad_fit)]
        )
        with pytest.raises(BenchmarkError, match=r"run 0, model 'broken'"):
            run_benchmark(cfg)

    def test_null_preset_has_undefined_r2(self):
        cfg = small_bench(
            [model_entry("causal_tree", max_depth=2, min_group_leaf=2)],
            preset=EffectPreset.NULL,
        )
        with pytest.raises(BenchmarkError, match="ZeroVariance"):
            run_benchmark(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_bench([model_entry("causal_tree")], runs=1)
        with pytest.raises(ValueError):
            small_bench([])


class TestModelEntryRegistry:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            model_entry("svm")

    def test_wrong_hyperparameter(self):
        with pytest.raises(ValueError, match="does not accept"):
            model_entry("t_knn", max_depth=3)

    def test_description_lists_resolved_hyperparameters(self):
        e = model_entry("t_forest")
        assert "n_trees=100" in e.describe
        assert "features_per_split=2" in e.describe


class TestBenchConfigJson:
    GOOD = {
        "dgp": {"effect_preset": "regional", "noise_sigma": 0.15},
        "models": [
            {"kind": "causal_tree"},
            {"kind": "t_knn", "name": "knn5", "k": 5},
        ],
        "n_control": 100,
        "n_individual": 100,
        "runs": 4,
        "holdout_points": 50,
        "master_seed": 11,
    }

    def test_valid(self):
        cfg = bench_config_from_json(json.dumps(self.GOOD))
        assert cfg.runs == 4
        assert cfg.models[1].name == "knn5"
        assert cfg.dgp.noise_sigma == 0.15

    def test_defaults(self):
        doc = {k: v for k, v in self.GOOD.items() if k not in ("runs", "holdout_points")}
        cfg = bench_config_from_json(json.dumps(doc))
        assert cfg.runs == 10 and cfg.holdout_points == 500

    @pytest.mark.parametrize("missing", ["dgp", "models", "n_control", "master_seed"])
    def test_missing_required_key(self, missing):
        doc = {k: v for k, v in self.GOOD.items() if k != missing}
        with pytest.raises(MalformedConfig, match=missing):
            bench_config_from_json(json.dumps(doc))

    def test_unknown_key(self):
        doc = dict(self.GOOD, extra=1)
        with pytest.raises(MalformedConfig, match="unknown keys"):
            bench_config_from_json(json.dumps(doc))

    def test_bad_model_kind(self):
        doc = dict(self.GOOD, models=[{"kind": "svm"}])
        with pytest.raises(MalformedConfig, match="models\\[0\\]"):
            bench_config_from_json(json.dumps(doc))

    def test_bad_json(self):
        with pytest.raises(MalformedConfig, match="invalid JSON"):
            bench_config_from_json("{nope")

    def test_seed_in_model_rejected(self):
        doc = dict(self.GOOD, models=[{"kind": "causal_tree", "seed": 3}])
        with pytest.raises(MalformedConfig, match="seed"):
            bench_config_from_json(json.dumps(doc))


    def test_absent_hyperparameters_keep_their_defaults(self):
        doc = dict(self.GOOD, models=[{"kind": "t_forest", "n_trees": 3}])
        cfg = bench_config_from_json(json.dumps(doc))
        assert cfg.models[0].describe == (
            "t_forest(features_per_split=2, max_depth=8, min_leaf=5, n_trees=3)"
        )

    @pytest.mark.parametrize("kind, hyper", [
        ("causal_tree", dict(max_depth=3, min_group_leaf=4, honest_fraction=0.4)),
        ("causal_forest", dict(max_depth=2, n_trees=7, subsample_ratio=0.9)),
        ("t_cart", dict(max_depth=5, min_leaf=3)),
        ("t_forest", dict(n_trees=9, features_per_split=3)),
        ("t_knn", dict(k=7, standardize=True)),
    ])
    def test_entries_match_model_entry(self, kind, hyper):
        doc = dict(self.GOOD, models=[{"kind": kind, **hyper}])
        entry = bench_config_from_json(json.dumps(doc)).models[0]
        assert entry.describe == model_entry(kind, **hyper).describe

    def test_name_must_be_a_string(self):
        doc = dict(self.GOOD, models=[{"kind": "t_knn", "name": 3}])
        with pytest.raises(MalformedConfig, match=r"\$\.models\[0\]\.name"):
            bench_config_from_json(json.dumps(doc))

    def test_models_must_be_a_list(self):
        doc = dict(self.GOOD, models={"kind": "t_knn"})
        with pytest.raises(MalformedConfig, match=r"\$\.models: expected a list"):
            bench_config_from_json(json.dumps(doc))


class TestOutputFormats:
    def rows(self):
        return run_benchmark(
            small_bench(
                [
                    model_entry("causal_tree", max_depth=2, min_group_leaf=2),
                    model_entry("t_knn"),
                ]
            )
        )

    def test_csv_shape(self):
        rows = self.rows()
        lines = bench_rows_to_csv(rows).splitlines()
        assert lines[0] == "model,mean_r2,stderr_r2,p_vs_reference"
        assert len(lines) == 3
        assert lines[1].endswith(",")  # reference row has empty p field
        first = lines[1].split(",")
        assert float(first[1]) == rows[0].mean_r2  # full-precision round trip

    def test_table_columns_and_reference_marker(self):
        rows = self.rows()
        table = format_bench_table(rows, ["causal_tree(...)", "t_knn(...)"])
        lines = table.splitlines()
        assert lines[0].split() == ["Model", "avg", "r2", "std", "err", "r2", "p-value"]
        ref_line = next(l for l in lines if l.startswith("causal_tree"))
        assert ref_line.rstrip().endswith("--")
        assert "causal_tree: causal_tree(...)" in table

    def test_small_p_rendered_as_less_than(self):
        from reachmap.evaluation import BenchRow, _format_p

        assert _format_p(0.0001) == "<.001"
        assert _format_p(0.036) == "0.036"
        assert _format_p(None) == "--"
        row = BenchRow("m", 0.5, 0.01, 0.0000001)
        assert "<.001" in format_bench_table([row])
