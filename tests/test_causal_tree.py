import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_dataset,
    oracle_best_split,
    oracle_route,
    predict_one,
    random_dataset,
    tied_dataset,
    tree_leaf_values,
    tree_root,
    tree_skeleton,
)
from reachmap import (
    CausalTreeParams,
    Dataset,
    best_split,
    features_from_xyz,
    fit_causal_forest,
    fit_causal_tree,
    grow_causal_tree,
    leaf_estimate,
    stratified_honest_split,
)
from reachmap.causal_tree import Leaf, Split
from reachmap.errors import DegenerateSplit, MissingGroup


def two_group(ind_outcomes, ctl_outcomes):
    """Dataset with the given outcomes and arbitrary distinct features."""
    n = len(ind_outcomes) + len(ctl_outcomes)
    feats = [[0.01 * i, 0.0, 0.0, 0.01 * i] for i in range(n)]
    groups = [1] * len(ind_outcomes) + [0] * len(ctl_outcomes)
    return make_dataset(feats, groups, list(ind_outcomes) + list(ctl_outcomes))


def traced_dataset(repeat=1):
    """Two point clusters at reach distances 0.1 and 0.3.

    At 0.1 both groups take 1.0 s; at 0.3 the individual takes 2.0 s and the
    control 1.0 s.  Each cluster holds two distinct points placed so that x
    and y candidates split the clusters worse than dist does.
    """
    rows = []
    for _ in range(repeat):
        rows += [((0.1, 0.0, 0.0), 1, 1.0), ((0.0, 0.1, 0.0), 1, 1.0),
                 ((0.1, 0.0, 0.0), 0, 1.0), ((0.0, 0.1, 0.0), 0, 1.0),
                 ((0.3, 0.0, 0.0), 1, 2.0), ((0.0, 0.3, 0.0), 1, 2.0),
                 ((0.3, 0.0, 0.0), 0, 1.0), ((0.0, 0.3, 0.0), 0, 1.0)]
    feats = features_from_xyz(*np.array([xyz for xyz, _, _ in rows]).T)
    return Dataset(
        feats,
        np.array([g for _, g, _ in rows], dtype=np.int8),
        np.array([y for *_, y in rows]),
    )


def assert_oracle_split(split_d, est_d, m):
    """``best_split`` agrees with the exhaustive exact-arithmetic oracle;
    returns the oracle's pick."""
    got = best_split(split_d, est_d, CausalTreeParams(min_group_leaf=m, seed=0))
    want = oracle_best_split(split_d, est_d, m)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got.feature_index, got.threshold) == (want[0], want[1])
        assert got.gain == pytest.approx(want[2], abs=1e-12)
    return want


class TestLeafEstimate:
    def test_two_mean_arithmetic(self):
        d = two_group([1.2, 1.4], [1.0, 1.1, 0.9])
        stats = leaf_estimate(d)
        assert stats.tau_hat == pytest.approx(0.3, abs=1e-12)
        assert (stats.n_individual, stats.n_control) == (2, 3)
        assert stats.mean_individual == pytest.approx(1.3, abs=1e-12)
        assert stats.mean_control == pytest.approx(1.0, abs=1e-12)

    def test_identical_outcome_multisets(self):
        d = two_group([1.7, 2.2, 0.4], [1.7, 2.2, 0.4])
        assert leaf_estimate(d).tau_hat == 0.0

    def test_single_pair(self):
        stats = leaf_estimate(two_group([2.0], [2.0]))
        assert stats.tau_hat == 0.0
        assert (stats.n_individual, stats.n_control) == (1, 1)

    def test_missing_group(self):
        with pytest.raises(MissingGroup):
            leaf_estimate(two_group([1.0, 2.0], []))


class TestBestSplit:
    def test_traced_example(self):
        d = traced_dataset()
        s = best_split(d, d, CausalTreeParams(min_group_leaf=1, seed=0))
        assert s is not None
        assert s.feature_index == 3  # dist
        assert s.threshold == pytest.approx(0.2, abs=1e-12)
        assert s.gain == 0.25  # (4*4/64) * (1.0 - 0.0)^2

    def test_constant_outcomes_yield_none(self):
        d = two_group([1.0] * 4, [1.0] * 4)
        assert best_split(d, d, CausalTreeParams(min_group_leaf=1, seed=0)) is None

    def test_estimation_half_vetoes_candidates(self):
        # split half separable at x = 0.5; every estimation sample sits exactly
        # at the threshold and routes right, starving the left child
        split_d = make_dataset(
            [[0.0, 0, 0, 0.0], [0.0, 0, 0, 0.0], [1.0, 0, 0, 1.0], [1.0, 0, 0, 1.0]],
            [1, 0, 1, 0],
            [1.0, 1.0, 2.0, 1.0],
        )
        est_d = make_dataset(
            [[0.5, 0, 0, 0.5]] * 4, [1, 0, 1, 0], [1.0, 1.0, 2.0, 1.0]
        )
        assert best_split(split_d, est_d, CausalTreeParams(min_group_leaf=1, seed=0)) is None

    def test_threshold_ties_prefer_lowest_feature(self):
        # x and dist columns identical (y = z = 0): equal gains; x must win
        d = make_dataset(
            [[0.1, 0, 0, 0.1]] * 2 + [[0.3, 0, 0, 0.3]] * 2
            + [[0.1, 0, 0, 0.1]] * 2 + [[0.3, 0, 0, 0.3]] * 2,
            [1, 1, 1, 1, 0, 0, 0, 0],
            [1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0],
        )
        s = best_split(d, d, CausalTreeParams(min_group_leaf=1, seed=0))
        assert s is not None and s.feature_index == 0
        assert s.threshold == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("trial", range(60))
    def test_matches_exhaustive_enumeration(self, trial):
        rng = np.random.default_rng(9000 + trial)
        m = int(rng.integers(1, 3))
        split_d = random_dataset(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        est_d = random_dataset(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        assert_oracle_split(split_d, est_d, m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("group", [0, 1])
    @pytest.mark.parametrize("position", ["mth_smallest", "mth_largest"])
    def test_estimation_values_on_the_threshold(self, position, group, m):
        # split half: candidates at x = 0.25, 0.5 and 0.75, and the cut at
        # 0.5 has the best gain; estimation values sit exactly on them
        x = [0.125, 0.375, 0.625, 0.875] * (2 * m)
        g = [1] * (4 * m) + [0] * (4 * m)
        split_d = make_dataset(
            [[v, 0, 0, v] for v in x], g, [1.0, 1.0, 2.0, 2.0] * m + [1.0] * (4 * m)
        )
        if position == "mth_smallest":
            # m - 1 values below 0.5 and the m-th smallest, tied, on it: the
            # cut leaves m - 1 on the left, and so does the one at 0.25
            own = [0.0] * (m - 1) + [0.5, 0.5] + [1.0] * m
            expected = 0.75
        else:
            # the m-th largest on 0.5, tied above it when m > 1: the cut
            # leaves exactly m at or above it
            own = [0.0] * m + [0.5] * min(m, 2) + [1.0] * max(m - 2, 0)
            expected = 0.5
        other = [0.0] * m + [1.0] * m
        ind, ctl = (own, other) if group == 1 else (other, own)
        groups = [1] * len(ind) + [0] * len(ctl)
        est_d = make_dataset([[v, 0, 0, v] for v in ind + ctl], groups, [1.0] * len(groups))
        assert assert_oracle_split(split_d, est_d, m)[:2] == (0, expected)

    @given(
        tied_dataset(st.integers(2, 8), st.integers(2, 8)),
        tied_dataset(st.integers(2, 8), st.integers(2, 8)),
        st.integers(1, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_tied_inputs_match_exhaustive_enumeration(self, split_d, est_d, m):
        assert_oracle_split(split_d, est_d, m)


class TestFitCausalTree:
    def test_depth1_end_to_end_trace(self):
        d = traced_dataset(repeat=2)
        params = CausalTreeParams(max_depth=1, min_group_leaf=1, seed=0)
        tree = fit_causal_tree(d, params)
        split, left, right = tree.nodes
        assert isinstance(split, Split)
        assert split.feature_index == 3
        assert split.threshold == pytest.approx(0.2, abs=1e-12)
        assert isinstance(left, Leaf) and isinstance(right, Leaf)
        assert left.tau_hat == 0.0
        assert right.tau_hat == 1.0
        assert tree.leaves() == (left, right)

    def test_constant_outcomes_single_leaf(self):
        d = two_group([1.7] * 8, [1.7] * 8)
        tree = fit_causal_tree(d, CausalTreeParams(min_group_leaf=1, seed=4))
        [root] = tree.nodes
        assert isinstance(root, Leaf)
        assert root.tau_hat == 0.0

    def test_depth_zero_equals_estimation_leaf(self):
        d = random_dataset(np.random.default_rng(0), 12, 12, effect=0.5)
        params = CausalTreeParams(max_depth=0, min_group_leaf=1, seed=5)
        tree = fit_causal_tree(d, params)
        [root] = tree.nodes
        assert isinstance(root, Leaf)
        _, est = stratified_honest_split(d, params.honest_fraction, params.seed)
        assert root.tau_hat == leaf_estimate(est).tau_hat

    def test_root_degenerate_split(self):
        d = two_group([1.0, 2.0, 1.5, 1.2], [1.0, 1.1, 0.9, 1.3])
        with pytest.raises(DegenerateSplit):
            fit_causal_tree(d, CausalTreeParams(min_group_leaf=5, seed=0))

    @pytest.mark.parametrize("trial", range(20))
    def test_depth_bound_and_leaf_counts(self, trial):
        rng = np.random.default_rng(400 + trial)
        params = CausalTreeParams(
            max_depth=int(rng.integers(0, 5)),
            min_group_leaf=int(rng.integers(1, 4)),
            seed=trial,
        )
        d = random_dataset(rng, int(rng.integers(10, 60)), int(rng.integers(10, 60)))
        tree = fit_causal_tree(d, params)
        assert tree.depth() <= params.max_depth
        for leaf in tree.leaves():
            assert leaf.n_individual >= params.min_group_leaf
            assert leaf.n_control >= params.min_group_leaf
            assert leaf.tau_hat == leaf.mean_individual - leaf.mean_control

    def test_leaf_ids_left_to_right(self):
        d = random_dataset(np.random.default_rng(11), 40, 40, effect=1.0)
        tree = fit_causal_tree(d, CausalTreeParams(max_depth=3, min_group_leaf=2, seed=1))

        def left_to_right(node):
            if node["kind"] == "leaf":
                return [node["leaf_id"]]
            return left_to_right(node["left"]) + left_to_right(node["right"])

        ids = left_to_right(tree_root(tree))
        assert ids == list(range(len(ids)))

    def test_leaf_values_match_independent_recomputation(self):
        rng = np.random.default_rng(77)
        d = random_dataset(rng, 60, 60, effect=0.8)
        params = CausalTreeParams(max_depth=3, min_group_leaf=3, seed=9)
        tree = fit_causal_tree(d, params)
        _, est = stratified_honest_split(d, params.honest_fraction, params.seed)
        routed = {}
        for row, group, outcome in zip(est.features.tolist(), est.groups.tolist(), est.outcomes.tolist()):
            routed.setdefault(oracle_route(tree, row)["leaf_id"], []).append((group, outcome))
        for leaf_id, leaf in enumerate(tree.leaves()):
            samples = routed[leaf_id]
            ind = [t for g, t in samples if g == 1]
            ctl = [t for g, t in samples if g == 0]
            assert abs(leaf.tau_hat - (statistics.fmean(ind) - statistics.fmean(ctl))) < 1e-12

    def test_shift_equivariance(self):
        rng = np.random.default_rng(21)
        d = random_dataset(rng, 30, 30, effect=0.4)
        params = CausalTreeParams(max_depth=3, min_group_leaf=2, seed=2)
        base = fit_causal_tree(d, params)
        c = 0.7
        shifted = Dataset(
            d.features, d.groups, np.where(d.groups == 1, d.outcomes + c, d.outcomes)
        )
        moved = fit_causal_tree(shifted, params)
        assert tree_skeleton(moved) == tree_skeleton(base)
        for a, b in zip(tree_leaf_values(moved), tree_leaf_values(base)):
            assert abs(a - (b + c)) < 1e-12

    def test_scale_equivariance(self):
        rng = np.random.default_rng(22)
        d = random_dataset(rng, 30, 30, effect=0.4)
        params = CausalTreeParams(max_depth=3, min_group_leaf=2, seed=3)
        base = fit_causal_tree(d, params)
        s = 2.0
        scaled = fit_causal_tree(Dataset(d.features, d.groups, d.outcomes * s), params)
        assert tree_skeleton(scaled) == tree_skeleton(base)
        for a, b in zip(tree_leaf_values(scaled), tree_leaf_values(base)):
            assert abs(a - b * s) < 1e-12

    def test_honesty_estimation_outcomes_cannot_steer_structure(self):
        rng = np.random.default_rng(23)
        d = random_dataset(rng, 30, 30, effect=0.4)
        params = CausalTreeParams(max_depth=3, min_group_leaf=2, seed=6)
        split_half, est_half = stratified_honest_split(d, 0.5, seed=6)
        base = grow_causal_tree(split_half, est_half, params)
        perturbed = Dataset(
            est_half.features,
            est_half.groups,
            est_half.outcomes + rng.uniform(0.5, 1.5, len(est_half)),
        )
        other = grow_causal_tree(split_half, perturbed, params)
        assert tree_skeleton(other) == tree_skeleton(base)

    def test_deterministic_and_order_invariant(self):
        from reachmap import serialize_model

        rng = np.random.default_rng(24)
        d = random_dataset(rng, 25, 25, effect=0.6)
        params = CausalTreeParams(max_depth=3, min_group_leaf=2, seed=8)
        doc = serialize_model(fit_causal_tree(d, params))
        assert serialize_model(fit_causal_tree(d, params)) == doc
        perm = rng.permutation(len(d))
        assert serialize_model(fit_causal_tree(d.subset(perm), params)) == doc


class TestPredict:
    def test_single_leaf_everywhere(self):
        d = two_group([2.4, 2.4], [2.0, 2.0])
        tree = fit_causal_tree(d, CausalTreeParams(max_depth=0, min_group_leaf=1, seed=0))
        for xyz in [(0, 0, 0), (0.2, 0.1, 0.3), (-0.25, 0.01, 0.39)]:
            est = predict_one(tree, features_from_xyz(*xyz)[0])
            assert est.tau_hat == tree.nodes[0].tau_hat
            assert est.leaf_id == 0

    def test_depth1_routing(self):
        tree = fit_causal_tree(
            traced_dataset(repeat=2), CausalTreeParams(max_depth=1, min_group_leaf=1, seed=0)
        )
        near = predict_one(tree, features_from_xyz(0.05, 0, 0)[0])
        far = predict_one(tree, features_from_xyz(0.35, 0, 0)[0])
        assert near.tau_hat == 0.0 and near.leaf_id == 0
        assert far.tau_hat == 1.0 and far.leaf_id == 1

    def test_point_exactly_at_threshold_routes_right(self):
        tree = fit_causal_tree(
            traced_dataset(repeat=2), CausalTreeParams(max_depth=1, min_group_leaf=1, seed=0)
        )
        thr = tree.nodes[0].threshold
        at = predict_one(tree, features_from_xyz(thr, 0, 0)[0])  # dist == threshold
        assert at.leaf_id == 1

    def test_piecewise_constant(self):
        d = random_dataset(np.random.default_rng(31), 30, 30, effect=0.5)
        tree = fit_causal_tree(d, CausalTreeParams(max_depth=2, min_group_leaf=2, seed=1))
        values = {leaf_id: leaf.tau_hat for leaf_id, leaf in enumerate(tree.leaves())}
        rng = np.random.default_rng(32)
        for _ in range(50):
            p = features_from_xyz(*rng.uniform(-0.3, 0.3, 3))[0]
            est = predict_one(tree, p)
            assert est.tau_hat == values[est.leaf_id]
            assert oracle_route(tree, p)["leaf_id"] == est.leaf_id


class TestCausalForest:
    def test_single_member_identity(self):
        d = random_dataset(np.random.default_rng(41), 20, 20, effect=0.5)
        forest = fit_causal_forest(d, CausalTreeParams(max_depth=2, min_group_leaf=2, seed=5), 1, 1.0)
        assert len(forest.trees) == 1
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = features_from_xyz(*rng.uniform(-0.3, 0.3, 3))[0]
            assert predict_one(forest, p).tau_hat == predict_one(forest.trees[0], p).tau_hat
            assert predict_one(forest, p).leaf_id is None

    def test_prediction_is_member_mean(self):
        d = random_dataset(np.random.default_rng(43), 30, 30, effect=0.5)
        forest = fit_causal_forest(d, CausalTreeParams(max_depth=2, min_group_leaf=2, seed=6), 5, 0.8)
        rng = np.random.default_rng(44)
        for _ in range(20):
            p = features_from_xyz(*rng.uniform(-0.3, 0.3, 3))[0]
            member_mean = sum(predict_one(t, p).tau_hat for t in forest.trees) / 5
            assert predict_one(forest, p).tau_hat == pytest.approx(member_mean, abs=1e-15)

    def test_constant_outcomes_zero_everywhere(self):
        d = two_group([1.5] * 10, [1.5] * 10)
        forest = fit_causal_forest(d, CausalTreeParams(min_group_leaf=1, seed=7), 3, 1.0)
        assert predict_one(forest, features_from_xyz(0.1, 0.1, 0.1)[0]).tau_hat == 0.0

    def test_degenerate_subsample(self):
        d = random_dataset(np.random.default_rng(45), 2, 2)
        with pytest.raises(DegenerateSplit):
            fit_causal_forest(d, CausalTreeParams(min_group_leaf=1, seed=8), 2, 0.4)

    def test_deterministic(self):
        d = random_dataset(np.random.default_rng(46), 25, 25, effect=0.3)
        params = CausalTreeParams(max_depth=2, min_group_leaf=2, seed=9)
        f1 = fit_causal_forest(d, params, 4, 0.8)
        f2 = fit_causal_forest(d, params, 4, 0.8)
        p = features_from_xyz(0.1, 0.05, 0.2)[0]
        assert predict_one(f1, p).tau_hat == predict_one(f2, p).tau_hat


class TestParamsValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            CausalTreeParams(max_depth=-1, seed=0)
        with pytest.raises(ValueError):
            CausalTreeParams(min_group_leaf=0, seed=0)
        with pytest.raises(ValueError):
            CausalTreeParams(honest_fraction=1.0, seed=0)

    def test_seed_is_required(self):
        with pytest.raises(TypeError):
            CausalTreeParams()  # noqa
