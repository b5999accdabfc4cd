"""Array prediction against the per-point reference, for every model kind.

``predict(X)`` must give, row for row and bit for bit, what the per-point
reference in ``reference_predictors`` gives from the model's v1 document,
including at points exactly on a split threshold or on a training point,
and for duplicated rows.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import node_tuples, random_dataset
from reachmap import CausalTree, CausalTreeParams, TLearner, model_entry
from reachmap.causal_tree import Leaf, Split
from reference_predictors import document, predict_point, predict_regressor

#: small hyperparameters of each kind, so that every kind fits in well under a second
SMALL = {
    "causal_tree": {"max_depth": 4, "min_group_leaf": 2},
    "causal_forest": {"n_trees": 5, "max_depth": 3, "min_group_leaf": 2},
    "t_cart": {"min_leaf": 2},
    "t_forest": {"n_trees": 6, "min_leaf": 2},
    "t_knn": {"k": 3, "standardize": True},
}


@functools.cache
def fitted(kind: str):
    d = random_dataset(np.random.default_rng(90), 40, 40, effect=0.5)
    return model_entry(kind, **SMALL[kind]).fit(d, 3), d


@functools.cache
def fitted_document(kind: str) -> dict:
    return document(fitted(kind)[0])


@functools.cache
def special_values(kind: str) -> list[list[float]]:
    """Per feature: the model's split thresholds and the training values."""
    model, d = fitted(kind)
    values = [sorted(set(d.features[:, f].tolist())) for f in range(4)]
    for nodes in node_tuples(model):
        for node in nodes:
            if isinstance(node, Split):
                values[node.feature_index].append(node.threshold)
    return values


@st.composite
def queries(draw, kind: str) -> np.ndarray:
    """1-30 query rows mixing random values, thresholds and training values, then duplicates."""
    cells = [
        st.one_of(st.floats(-0.4, 0.4, allow_nan=False), st.sampled_from(values))
        for values in special_values(kind)
    ]
    rows = draw(st.lists(st.tuples(*cells), min_size=1, max_size=30))
    rows += draw(st.lists(st.sampled_from(rows), max_size=5))
    return np.array(rows, dtype=np.float64)


def assert_same_bits(got: np.ndarray, want: list) -> None:
    assert got.dtype == np.float64 and got.shape == (len(want),)
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


KINDS = tuple(SMALL)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_predict_matches_per_row_reference(kind, data):
    model, _ = fitted(kind)
    X = data.draw(queries(kind))
    est = model.predict(X)
    doc = fitted_document(kind)
    ref = [predict_point(doc, row) for row in X]
    assert_same_bits(est.tau_hat, [tau for tau, _ in ref])
    if kind == "causal_tree":
        assert est.leaf_id.tolist() == [leaf_id for _, leaf_id in ref]
    else:
        assert est.leaf_id is None
    if isinstance(model, TLearner):
        for side in ("model_individual", "model_control"):
            r = getattr(model, side)
            assert_same_bits(r.predict(X), [predict_regressor(doc[side], row) for row in X])


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_permuting_rows_permutes_predictions(kind, data):
    model, _ = fitted(kind)
    X = data.draw(queries(kind))
    perm = np.array(data.draw(st.permutations(range(len(X)))))
    est, moved = model.predict(X), model.predict(X[perm])
    assert moved.tau_hat.tobytes() == est.tau_hat[perm].tobytes()
    if est.leaf_id is not None:
        assert moved.leaf_id.tolist() == est.leaf_id[perm].tolist()


@pytest.mark.parametrize("kind", KINDS)
def test_no_rows_and_wrong_shapes(kind):
    model, _ = fitted(kind)
    assert model.predict(np.empty((0, 4))).tau_hat.shape == (0,)
    for bad in (np.zeros(4), np.zeros((2, 3))):
        with pytest.raises(ValueError, match="feature array"):
            model.predict(bad)


@pytest.mark.parametrize(
    "nodes", [(Split(0, 0.0, 1.0), Leaf(1.0, 5, 5, 2.0, 1.0)), (Leaf(1.0, 5, 5, 2.0, 1.0),) * 2],
    ids=["too-short", "too-long"],
)
def test_nodes_that_are_not_one_tree(nodes):
    tree = CausalTree(nodes, CausalTreeParams(seed=0))
    with pytest.raises(ValueError, match="tree"):
        tree.predict(np.zeros((3, 4)))


def test_deep_tree_routes_without_recursion():
    # a chain of 3000 splits on x, deeper than Python's recursion limit: at
    # depth k, x < k/1000 goes left into leaf k, and x = 0 continues right.
    # The v1 writer and ``json`` recurse, so the chain's document is built
    # here, bottom up, beside its nodes.
    depth = 3000
    nodes = []
    root = {"kind": "leaf", "leaf_id": depth, "tau_hat": float(depth)}
    for k in reversed(range(depth)):
        left = {"kind": "leaf", "leaf_id": k, "tau_hat": float(k)}
        root = {"kind": "internal", "feature_index": 0, "threshold": k / 1000,
                "left": left, "right": root}
    for k in range(depth):
        nodes += [Split(0, k / 1000, 1.0), Leaf(float(k), 5, 5, 1.0, 1.0)]
    nodes.append(Leaf(float(depth), 5, 5, 1.0, 1.0))
    tree = CausalTree(tuple(nodes), CausalTreeParams(seed=0))
    doc = {"kind": "causal_tree", "root": root}
    X = np.array([[5.0, 0, 0, 0], [2.9985, 0, 0, 0], [0.0, 0, 0, 0], [-1.0, 0, 0, 0]])
    est = tree.predict(X)
    assert est.leaf_id.tolist() == [depth, depth - 1, 1, 0]
    assert_same_bits(est.tau_hat, [predict_point(doc, row)[0] for row in X])
