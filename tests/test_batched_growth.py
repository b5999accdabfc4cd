"""Batched growth grows the same trees as one-node-at-a-time growth.

The reference growers in ``reference_growers`` search one node at a time,
depth-first, with a ``Fraction`` per element in the exact re-check.  The
library scores many nodes per numpy pass: causal trees and CARTs
breadth-first, t_forest members in lockstep.  Every model must serialize to
the same text, and the integer exact gains must equal the ``Fraction`` ones.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_growers as ref
from conftest import random_dataset, tied_dataset
from reachmap import (
    CartSpec,
    Dataset,
    CausalTreeParams,
    ForestSpec,
    fit_causal_forest,
    fit_causal_tree,
    fit_t_learner,
    serialize_model,
)
from reachmap import causal_tree
from reachmap.baselines import _LOCKSTEP, _exact_sse_gain
from reachmap.causal_tree import _BLOCK_CAP, Leaf, _EffectSearch, _exact_effect_gain, _Ranked
from reachmap.domain import MAX_OUTCOME_S
from reachmap.errors import DegenerateSplit, ReachmapError

KINDS = ("causal_tree", "causal_forest", "t_cart", "t_forest")


def assert_same_model(kind, d, seed, max_depth, min_leaf, n_trees=3, mtry=2, honest_fraction=0.5):
    if kind in ("causal_tree", "causal_forest"):
        p = CausalTreeParams(max_depth=max_depth, min_group_leaf=min_leaf,
                             honest_fraction=honest_fraction, seed=seed)
        if kind == "causal_tree":
            new, old = fit_causal_tree(d, p), ref.fit_causal_tree(d, p)
        else:
            new = fit_causal_forest(d, p, n_trees, 0.7)
            old = ref.fit_causal_forest(d, p, n_trees, 0.7)
    else:
        if kind == "t_cart":
            spec = CartSpec(max_depth=max_depth, min_leaf=min_leaf, seed=seed)
        else:
            spec = ForestSpec(
                n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf,
                features_per_split=mtry, seed=seed,
            )
        new, old = fit_t_learner(d, spec), ref.fit_t_learner(d, spec)
    assert serialize_model(new) == serialize_model(old)


def spy_constant_causal_nodes(monkeypatch) -> list:
    """What the causal search opens from each node that ``causal_tree._spread``
    finds constant while it has depth to spare and 2m rows of each group in
    both halves, so that only the constant-outcome rule keeps it from a search.

    The list fills in while the library fits; the reference growers never
    call the causal search.
    """
    found, varies = [], []
    real_open, real_spread = _EffectSearch.open, causal_tree._spread

    def spread(y, b):
        out = real_spread(y, b)
        varies.append(out[0])
        return out

    def open_(search, room, nodes):
        opened = real_open(search, room, nodes)
        for node, spare, vary, out in zip(nodes, room, varies.pop(), opened):
            g = search.g.take(node[0])
            n1 = int(np.count_nonzero(g))
            fewest = min(n1, g.size - n1, node[1].size, node[2].size)
            if spare and not vary and fewest >= 2 * search.m:
                found.append(out)
        return opened

    monkeypatch.setattr(causal_tree, "_spread", spread)
    monkeypatch.setattr(_EffectSearch, "open", open_)
    return found


class TestSameModels:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", KINDS)
    def test_random_dataset(self, kind, seed):
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, int(rng.integers(40, 160)), int(rng.integers(40, 160)), effect=0.4)
        assert_same_model(
            kind, d, seed, max_depth=3 + seed, min_leaf=1 + seed,
            n_trees=3 + seed, mtry=1 + seed,
        )

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("shape", ["near_max_outcome", "rounded", "constant_region"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_outcome_shapes(self, kind, shape, seed, monkeypatch):
        # outcomes offset near the bound, which only centring keeps well
        # conditioned; on a 0.1 s grid, where outcomes tie and small nodes
        # are constant; or three values, one of them on all of x < 0 and an
        # effect on x >= 0, where causal nodes large enough to search are
        # constant
        rng = np.random.default_rng(20 + seed)
        d = random_dataset(rng, int(rng.integers(40, 160)), int(rng.integers(40, 160)), effect=0.4)
        if shape == "near_max_outcome":
            y = MAX_OUTCOME_S - 10 + 1e-3 * d.outcomes
        elif shape == "rounded":
            y = np.round(d.outcomes, 1)
        else:
            y = np.where(d.features[:, 0] < 0, 2.0, np.where(d.groups == 1, 3.0, 2.5))
        d = Dataset(d.features, d.groups, y)
        constant = spy_constant_causal_nodes(monkeypatch)
        assert_same_model(kind, d, seed, max_depth=4 + seed, min_leaf=1 + seed, n_trees=3, mtry=2)
        if shape == "constant_region" and kind.startswith("causal"):
            assert constant and all(isinstance(node, Leaf) for node in constant)

    @settings(max_examples=25, deadline=None)
    @given(
        d=tied_dataset(st.integers(20, 50), st.integers(20, 50)),
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**31),
        max_depth=st.integers(3, 6),
        min_leaf=st.integers(1, 3),
        n_trees=st.integers(3, 7),
        mtry=st.integers(1, 4),
    )
    def test_tied_dataset(self, d, kind, seed, max_depth, min_leaf, n_trees, mtry):
        assert_same_model(kind, d, seed, max_depth, min_leaf, n_trees, mtry)

    @pytest.mark.parametrize("kind", ["causal_tree", "t_cart"])
    def test_nodes_too_large_for_one_block(self, kind):
        # the root's rows together exceed the block budget and are scored one by one
        n = _BLOCK_CAP // 2
        d = random_dataset(np.random.default_rng(5), n, n, effect=0.3)
        assert_same_model(kind, d, 5, max_depth=4, min_leaf=5)

    def test_forest_over_several_lockstep_groups(self):
        d = random_dataset(np.random.default_rng(6), 60, 60, effect=0.3)
        assert_same_model("t_forest", d, 6, max_depth=4, min_leaf=2, n_trees=_LOCKSTEP + 3)

    @pytest.mark.parametrize("mtry", [1, 2, 3, 4])
    def test_forest_bootstrap_ties_and_a_part_lockstep_group(self, mtry):
        # 30 rows per group: each bootstrap repeats rows, and the coarse grid
        # ties distinct rows too; the last lockstep group holds 3 members
        rng = np.random.default_rng(10 + mtry)
        d = random_dataset(rng, 30, 30, effect=0.3)
        coarse = np.round(d.features * 10) / 10
        d = Dataset(coarse, d.groups, np.round(d.outcomes * 4) / 4)
        assert_same_model("t_forest", d, mtry, max_depth=5, min_leaf=1,
                          n_trees=_LOCKSTEP + 3, mtry=mtry)

    @pytest.mark.parametrize("min_leaf", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["causal_tree", "causal_forest"])
    def test_estimation_ties_at_the_cut(self, kind, min_leaf):
        # three values per feature: each group's m-th smallest and m-th
        # largest estimation value sit inside long runs of ties
        rng = np.random.default_rng(50 + min_leaf)
        d = random_dataset(rng, 90, 70, effect=0.4)
        coarse = np.round(d.features * 5) / 5
        d = Dataset(coarse, d.groups, d.outcomes)
        assert_same_model(kind, d, min_leaf, max_depth=5, min_leaf=min_leaf, n_trees=7)

    def test_causal_node_larger_than_a_block(self):
        # the root's split and estimation rows alone exceed the block budget
        n = _BLOCK_CAP
        d = random_dataset(np.random.default_rng(9), n, n, effect=0.3)
        assert_same_model("causal_tree", d, 9, max_depth=2, min_leaf=5)


@st.composite
def rank_block(draw):
    """A ranked matrix with heavy ties, m, and the (node, features) block
    rows of nodes with two sets of at least m rows each, some exactly m
    or 2m."""
    n = draw(st.integers(1, 40))
    levels = draw(st.integers(1, 5))
    X = np.array(draw(st.lists(st.lists(st.integers(0, levels - 1), min_size=4, max_size=4),
                               min_size=n, max_size=n)), dtype=np.float64)
    m = draw(st.integers(1, max(1, n // 2)))

    def row_set():
        size = draw(st.sampled_from([m, min(2 * m, n), draw(st.integers(m, n))]))
        return np.sort(np.array(draw(st.permutations(range(n)))[:size], dtype=np.int32))

    rows = []
    for _ in range(draw(st.integers(1, 6))):
        features = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
        rows.append((SimpleNamespace(rows=(row_set(), row_set())), sorted(features)))
    return _Ranked.of(X), m, rows


class TestOrderStats:
    """The estimation veto's selection equals reading a full sort."""

    @settings(max_examples=200, deadline=None)
    @given(block=rank_block(), js=st.sampled_from([(0,), (1,), (0, 1)]))
    def test_same_as_sorting(self, block, js):
        matrix, m, rows = block
        want = []
        for j in js:
            for node, features in rows:
                for f in features:
                    ranks = np.sort(matrix.ranks[f, node.rows[j]])
                    want.append([ranks[m - 1], ranks[-m]])
        assert matrix.order_stats(rows, js, m).tolist() == want

    def test_one_row_block(self):
        matrix = _Ranked.of(np.array([[3.0, 1, 1, 1], [1, 1, 1, 1], [2, 1, 1, 1], [1, 1, 1, 1]]))
        node = SimpleNamespace(rows=(np.arange(4, dtype=np.int32),))
        # ranks 2, 0, 1, 0 in column 0: 2nd smallest 0, 2nd largest 1
        assert matrix.order_stats([(node, [0])], (0,), 2).tolist() == [[0, 1]]
        assert matrix.order_stats([(node, [0])], (0,), 1).tolist() == [[0, 2]]


def fit_result(fit):
    """The serialized model ``fit()`` returns, or the type and message of what it raises."""
    try:
        return serialize_model(fit())
    except ReachmapError as e:
        return type(e), str(e)


def assert_same_forest(d, p, n_trees):
    """The causal forest is the reference growers' forest, or raises what
    the reference raises; returns that."""
    new = fit_result(lambda: fit_causal_forest(d, p, n_trees, 0.7))
    assert new == fit_result(lambda: ref.fit_causal_forest(d, p, n_trees, 0.7))
    return new


class TestForestMembers:
    """Each member of a causal forest is the tree a fit of its subsample
    alone grows, and a member that cannot host a root leaf raises what that
    fit raises."""

    @pytest.mark.parametrize("n_trees", [1, 2, 9, 23])
    def test_member_counts(self, n_trees):
        d = random_dataset(np.random.default_rng(30 + n_trees), 50, 70, effect=0.4)
        assert_same_model("causal_forest", d, n_trees, max_depth=4, min_leaf=2, n_trees=n_trees)

    @pytest.mark.parametrize("max_depth", [0, 1, 5])
    @pytest.mark.parametrize("honest_fraction", [0.5, 0.3, 0.8])
    def test_depths_and_honest_fractions(self, max_depth, honest_fraction):
        d = random_dataset(np.random.default_rng(40 + max_depth), 60, 45, effect=0.4)
        assert_same_model("causal_forest", d, max_depth, max_depth=max_depth, min_leaf=2,
                          n_trees=12, honest_fraction=honest_fraction)

    @settings(max_examples=15, deadline=None)
    @given(
        d=tied_dataset(st.integers(12, 40), st.integers(12, 40)),
        seed=st.integers(0, 2**31),
        max_depth=st.integers(0, 5),
        min_leaf=st.integers(1, 3),
        n_trees=st.integers(1, 23),
        honest_fraction=st.sampled_from([0.5, 0.35, 0.75]),
    )
    def test_tied_dataset(self, d, seed, max_depth, min_leaf, n_trees, honest_fraction):
        p = CausalTreeParams(max_depth=max_depth, min_group_leaf=min_leaf,
                             honest_fraction=honest_fraction, seed=seed)
        assert_same_forest(d, p, n_trees)

    @pytest.mark.parametrize("n_individual,min_leaf,honest_fraction,message", [
        # a subsample of 1 individual: its split half gets none
        (2, 1, 0.5, "split half would have no INDIVIDUAL samples"),
        # 8 individuals, 4 in the split half, under min leaf 5
        (12, 5, 0.5, "split half has 14 control / 4 individual samples; "
                     "root needs at least 5 of each"),
        # 8 individuals, 2 in the estimation half, under min leaf 3
        (12, 3, 0.8, "estimation half has 6 control / 2 individual samples; "
                     "root needs at least 3 of each"),
        # 4 individuals in each half, exactly min leaf 4: a forest
        (12, 4, 0.5, None),
    ])
    def test_degenerate_member(self, n_individual, min_leaf, honest_fraction, message):
        # the subsample sizes, and so whether a member can host a root
        # leaf, are the same for every member
        d = random_dataset(np.random.default_rng(n_individual), 40, n_individual, effect=0.4)
        p = CausalTreeParams(max_depth=3, min_group_leaf=min_leaf,
                             honest_fraction=honest_fraction, seed=min_leaf)
        n_trees = 23
        got = assert_same_forest(d, p, n_trees)
        if message is None:
            assert isinstance(got, str)
            return
        assert got == (DegenerateSplit, message)


# Outcomes whose exact sums need many bits: large offsets with small
# differences, magnitudes far apart, and values near the bottom of the range.
outcome = st.one_of(
    st.floats(0.5, 4.0),
    st.floats(1e6, 1e6 + 1.0),
    st.floats(1e-12, 1e-9),
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300]),
)


@st.composite
def cut_sample(draw):
    """Values, groups, outcomes and threshold 1.5; each (side, group) cell is occupied."""
    extra = draw(st.integers(0, 40))
    v = np.array([0.0, 0.0, 3.0, 3.0] + draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=extra, max_size=extra)))
    g = np.array([True, False, True, False] + draw(st.lists(st.booleans(), min_size=extra, max_size=extra)))
    y = np.array(draw(st.lists(outcome, min_size=v.size, max_size=v.size)))
    return v, g, y


class TestExactGains:
    @settings(max_examples=200, deadline=None)
    @given(sample=cut_sample())
    def test_integer_sums_equal_fraction_reference(self, sample):
        v, g, y = sample
        assert _exact_sse_gain(v, y, 1.5) == ref.exact_sse_gain(v, y, 1.5)
        assert _exact_effect_gain(v, g, y, 1.5) == ref.exact_effect_gain(v, g, y, 1.5)
