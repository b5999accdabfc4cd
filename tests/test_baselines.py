import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, predict_one, random_dataset, tied_dataset
from reachmap import (
    CartSpec,
    ForestSpec,
    KnnSpec,
    features_from_xyz,
    fit_base_regressor,
    fit_t_learner,
)
from reachmap.baselines import RegLeaf
from reachmap.causal_tree import Split
from reachmap.domain import Dataset
from reachmap.errors import EmptyDataset, InsufficientSamples, MissingGroup


def single_group(outcomes, xs=None, group=0):
    n = len(outcomes)
    xs = xs if xs is not None else [0.02 * i for i in range(n)]
    feats = [[x, 0.0, 0.0, abs(x)] for x in xs]
    return make_dataset(feats, [group] * n, outcomes)


def oracle_cart_split(X, y, min_leaf):
    """Exhaustive variance-reduction enumeration in exact rational arithmetic."""

    def sse(values):
        vals = [Fraction(float(v)) for v in values]
        mean = sum(vals) / len(vals)
        return sum((v - mean) ** 2 for v in vals)

    best = None
    best_gain = Fraction(0)
    for f in range(4):
        values = sorted(set(float(v) for v in X[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = X[:, f] < thr
            n_l, n_r = int(left.sum()), int((~left).sum())
            if n_l < min_leaf or n_r < min_leaf:
                continue
            gain = sse(y) - sse(y[left]) - sse(y[~left])
            if gain > best_gain:
                best_gain = gain
                best = (f, thr, float(gain))
    return best


def oracle_knn(feats, outcomes, query, k):
    """Brute-force scan: squared distance, canonical index breaks ties."""
    q = np.asarray(query)
    scored = sorted(
        (float(((feats[i] - q) ** 2).sum()), i) for i in range(len(outcomes))
    )
    chosen = [outcomes[i] for _, i in scored[: min(k, len(outcomes))]]
    return statistics.fmean(chosen)


class TestCart:
    def test_constant_outcome_single_leaf(self):
        r = fit_base_regressor(CartSpec(min_leaf=1, seed=0), single_group([2.5] * 6))
        [root] = r.nodes
        assert isinstance(root, RegLeaf)
        assert predict_one(r, features_from_xyz(0.1, 0.1, 0.1)[0]) == 2.5

    def test_depth_zero_is_mean(self):
        r = fit_base_regressor(
            CartSpec(max_depth=0, min_leaf=1, seed=0), single_group([1.0, 2.0, 3.0])
        )
        assert predict_one(r, features_from_xyz(0.2, 0, 0)[0]) == 2.0

    def test_leaf_values_are_routed_means(self):
        rng = np.random.default_rng(50)
        d = random_dataset(rng, 0, 30, effect=0.0)
        spec = CartSpec(max_depth=3, min_leaf=2, seed=0)
        r = fit_base_regressor(spec, d)

        nodes = iter(r.nodes)

        def collect(idx):  # the subtree whose pre-order nodes come next
            node = next(nodes)
            if isinstance(node, RegLeaf):
                routed = [float(d.outcomes[i]) for i in idx]
                assert len(routed) == node.n
                assert abs(node.value - statistics.fmean(routed)) < 1e-12
                return
            f, thr = node.feature_index, node.threshold
            collect([i for i in idx if d.features[i, f] < thr])
            collect([i for i in idx if d.features[i, f] >= thr])

        collect(list(range(len(d))))

    @pytest.mark.parametrize("trial", range(40))
    def test_split_matches_exhaustive_enumeration(self, trial):
        rng = np.random.default_rng(7000 + trial)
        n = int(rng.integers(4, 17))
        d = random_dataset(rng, 0, n)
        min_leaf = int(rng.integers(1, 3))
        r = fit_base_regressor(CartSpec(max_depth=1, min_leaf=min_leaf, seed=0), d)
        want = oracle_cart_split(d.features, d.outcomes, min_leaf)
        root = r.nodes[0]
        if want is None:
            assert isinstance(root, RegLeaf)
        else:
            assert isinstance(root, Split)
            assert (root.feature_index, root.threshold) == (
                want[0],
                want[1],
            )
            assert root.gain == pytest.approx(want[2], abs=1e-12)

    @given(tied_dataset(st.integers(4, 16), st.just(0)), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_tied_inputs_match_exhaustive_enumeration(self, d, min_leaf):
        r = fit_base_regressor(CartSpec(max_depth=1, min_leaf=min_leaf, seed=0), d)
        want = oracle_cart_split(d.features, d.outcomes, min_leaf)
        root = r.nodes[0]
        if want is None:
            assert isinstance(root, RegLeaf)
        else:
            assert isinstance(root, Split)
            assert (root.feature_index, root.threshold) == (
                want[0],
                want[1],
            )
            assert root.gain == pytest.approx(want[2], abs=1e-12)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            fit_base_regressor(CartSpec(min_leaf=5, seed=0), single_group([1.0, 2.0]))

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            fit_base_regressor(CartSpec(seed=0), single_group([]))


class TestForest:
    def test_prediction_within_outcome_range(self):
        rng = np.random.default_rng(60)
        d = random_dataset(rng, 0, 40)
        r = fit_base_regressor(ForestSpec(n_trees=10, seed=1), d)
        lo, hi = float(d.outcomes.min()), float(d.outcomes.max())
        for _ in range(25):
            p = features_from_xyz(*rng.uniform(-0.3, 0.3, 3))[0]
            assert lo <= predict_one(r, p) <= hi

    def test_same_seed_same_predictions(self):
        d = random_dataset(np.random.default_rng(61), 0, 30)
        a = fit_base_regressor(ForestSpec(n_trees=5, seed=3), d)
        b = fit_base_regressor(ForestSpec(n_trees=5, seed=3), d)
        p = features_from_xyz(0.1, 0.1, 0.1)[0]
        assert predict_one(a, p) == predict_one(b, p)

    def test_different_seeds_can_differ(self):
        d = random_dataset(np.random.default_rng(62), 0, 30)
        a = fit_base_regressor(ForestSpec(n_trees=5, seed=3), d)
        b = fit_base_regressor(ForestSpec(n_trees=5, seed=4), d)
        rng = np.random.default_rng(63)
        points = [features_from_xyz(*rng.uniform(-0.3, 0.3, 3))[0] for _ in range(20)]
        assert any(predict_one(a, p) != predict_one(b, p) for p in points)

    def test_prediction_is_tree_mean(self):
        d = random_dataset(np.random.default_rng(64), 0, 25)
        r = fit_base_regressor(ForestSpec(n_trees=7, max_depth=3, seed=5), d)
        from reference_predictors import route
        from reference_writer import regressor_to_dict

        p = features_from_xyz(0.05, 0.1, 0.2)[0]
        roots = regressor_to_dict(r)["roots"]
        want = statistics.fmean(route(root, p)["value"] for root in roots)
        assert predict_one(r, p) == pytest.approx(want, abs=1e-15)


class TestKnn:
    def test_exact_recall_k1(self):
        d = single_group([1.0, 2.0, 3.0], xs=[0.0, 0.1, 0.2])
        r = fit_base_regressor(KnnSpec(k=1, seed=0), d)
        assert predict_one(r, features_from_xyz(0.1, 0, 0)[0]) == 2.0

    def test_k_equals_n_is_global_mean(self):
        d = single_group([1.0, 2.0, 3.0, 4.0, 5.0])
        r = fit_base_regressor(KnnSpec(k=5, seed=0), d)
        for xyz in [(0, 0, 0), (0.3, 0.1, 0.4), (-0.2, 0.0, 0.1)]:
            assert predict_one(r, features_from_xyz(*xyz)[0]) == 3.0

    def test_two_points_k2(self):
        d = single_group([1.0, 2.0], xs=[0.1, 0.3])
        r = fit_base_regressor(KnnSpec(k=2, seed=0), d)
        assert predict_one(r, features_from_xyz(0.05, 0.2, 0.0)[0]) == 1.5

    def test_k_exceeding_n_uses_all(self):
        d = single_group([2.0, 4.0])
        r = fit_base_regressor(KnnSpec(k=9, seed=0), d)
        assert predict_one(r, features_from_xyz(0, 0, 0)[0]) == 3.0

    def test_exact_tie_uses_canonical_order(self):
        # two training points equidistant from the query; the canonically
        # earlier one (smaller x) must be chosen
        d = single_group([10.0, 20.0], xs=[-0.1, 0.1])
        r = fit_base_regressor(KnnSpec(k=1, seed=0), d)
        assert predict_one(r, features_from_xyz(0.0, 0.0, 0.0)[0]) == 10.0

    @pytest.mark.parametrize("trial", range(25))
    def test_matches_brute_force(self, trial):
        rng = np.random.default_rng(8000 + trial)
        n = int(rng.integers(1, 51))
        d = random_dataset(rng, 0, n)
        k = int(rng.integers(1, 8))
        r = fit_base_regressor(KnnSpec(k=k, seed=0), d)
        order = np.lexsort(
            (d.outcomes, d.features[:, 2], d.features[:, 1], d.features[:, 0], d.groups)
        )
        feats = d.features[order]
        outs = [float(d.outcomes[i]) for i in order]
        for _ in range(5):
            p = features_from_xyz(*rng.uniform(-0.3, 0.3, 3))[0]
            assert predict_one(r, p) == pytest.approx(
                oracle_knn(feats, outs, p, k), abs=1e-12
            )

    def test_standardize_changes_neighbourhoods(self):
        # dist dominates raw distances; z-scoring rebalances the features
        xs = [0.0, 0.001, 1.0]
        d = single_group([1.0, 2.0, 3.0], xs=xs)
        raw = fit_base_regressor(KnnSpec(k=1, seed=0), d)
        std = fit_base_regressor(KnnSpec(k=1, standardize=True, seed=0), d)
        p = features_from_xyz(0.0005, 0, 0)[0]
        assert predict_one(raw, p) in (1.0, 2.0)
        assert predict_one(std, p) in (1.0, 2.0)


def mirrored(ind_outcomes, ctl_outcomes):
    n = len(ind_outcomes)
    assert len(ctl_outcomes) == n
    feats = [[0.05 * i, 0.0, 0.0, 0.05 * i] for i in range(n)] * 2
    groups = [1] * n + [0] * n
    return make_dataset(feats, groups, list(ind_outcomes) + list(ctl_outcomes))


class TestTLearner:
    @pytest.mark.parametrize(
        "spec", [CartSpec(min_leaf=1, seed=0), KnnSpec(seed=0)]
    )
    def test_identical_groups_zero_everywhere(self, spec):
        d = mirrored([1.0, 2.0, 1.5, 2.5], [1.0, 2.0, 1.5, 2.5])
        t = fit_t_learner(d, spec)
        rng = np.random.default_rng(70)
        for _ in range(10):
            p = features_from_xyz(*rng.uniform(-0.3, 0.3, 3))[0]
            assert predict_one(t, p).tau_hat == 0.0

    def test_constant_groups_cart(self):
        d = mirrored([2.0] * 5, [1.5] * 5)
        t = fit_t_learner(d, CartSpec(min_leaf=1, seed=0))
        est = predict_one(t, features_from_xyz(0.1, 0.1, 0.1)[0])
        assert est.tau_hat == 0.5
        assert est.leaf_id is None

    def test_knn_single_point_sides(self):
        d = make_dataset(
            [[0.1, 0, 0, 0.1], [0.1, 0, 0, 0.1]], [1, 0], [1.9, 1.2]
        )
        t = fit_t_learner(d, KnnSpec(k=1, seed=0))
        assert predict_one(t, features_from_xyz(0, 0.2, 0)[0]).tau_hat == pytest.approx(
            0.7, abs=1e-12
        )

    @pytest.mark.parametrize("spec_cls", [CartSpec, KnnSpec])
    def test_shift_equivariance(self, spec_cls):
        rng = np.random.default_rng(71)
        d = random_dataset(rng, 20, 20, effect=0.3)
        base = fit_t_learner(d, spec_cls(seed=1))
        c = 0.8
        shifted_outcomes = np.where(d.groups == 1, d.outcomes + c, d.outcomes)
        moved = fit_t_learner(
            Dataset(d.features, d.groups, shifted_outcomes), spec_cls(seed=1)
        )
        for _ in range(15):
            p = features_from_xyz(*rng.uniform(-0.3, 0.3, 3))[0]
            delta = predict_one(moved, p).tau_hat - predict_one(base, p).tau_hat
            assert abs(delta - c) < 1e-12

    def test_sides_fit_on_own_group_only(self):
        # individual side must ignore control outcomes entirely
        d = mirrored([1.0, 1.0, 1.0, 1.0], [5.0, 6.0, 7.0, 8.0])
        t = fit_t_learner(d, CartSpec(min_leaf=1, seed=0))
        p = features_from_xyz(0.05, 0, 0)[0]
        assert predict_one(t.model_individual, p) == 1.0

    def test_missing_group(self):
        d = single_group([1.0, 2.0], group=0)
        with pytest.raises(MissingGroup):
            fit_t_learner(d, CartSpec(min_leaf=1, seed=0))

    def test_deterministic_forest_sides(self):
        d = random_dataset(np.random.default_rng(72), 25, 25, effect=0.4)
        a = fit_t_learner(d, ForestSpec(n_trees=5, seed=2))
        b = fit_t_learner(d, ForestSpec(n_trees=5, seed=2))
        p = features_from_xyz(0.1, 0.05, 0.2)[0]
        assert predict_one(a, p).tau_hat == predict_one(b, p).tau_hat


class TestSpecValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            CartSpec(min_leaf=0, seed=0)
        with pytest.raises(ValueError):
            ForestSpec(features_per_split=5, seed=0)
        with pytest.raises(ValueError):
            ForestSpec(n_trees=0, seed=0)
        with pytest.raises(ValueError):
            KnnSpec(k=0, seed=0)
