"""Reference predictors: one task point at a time, one tree walk per member.

This is the prediction the library used before ``predict`` took an (m, 4)
array.  Each point is a feature vector ``v`` in FEATURE_NAMES order; a tree
is walked node by node and ensembles add their members' values in member
order to a Python float.  The array predictors must give the same values bit
for bit, so tests compare them row by row.
"""

from __future__ import annotations

import numpy as np

from reachmap.baselines import CartRegressor, ForestRegressor, KnnRegressor, TLearner
from reachmap.causal_tree import CausalForest, CausalTree, Internal


def route(root, v: np.ndarray):
    """The leaf that feature vector ``v`` reaches: value < threshold goes left."""
    node = root
    while isinstance(node, Internal):
        if v[node.split.feature_index] < node.split.threshold:
            node = node.left
        else:
            node = node.right
    return node


def predict_regressor(r, v: np.ndarray) -> float:
    if isinstance(r, CartRegressor):
        return route(r.root, v).value
    if isinstance(r, ForestRegressor):
        return sum(route(root, v).value for root in r.roots) / len(r.roots)
    assert isinstance(r, KnnRegressor)
    q = (v - r.shift) / r.scale
    diff = r.features - q
    d2 = np.einsum("ij,ij->i", diff, diff)
    k = min(r.spec.k, r.outcomes.size)
    order = np.lexsort((np.arange(d2.size), d2))[:k]
    return float(np.mean(r.outcomes[order]))


def predict_point(model, v: np.ndarray) -> tuple[float, int | None]:
    """(tau_hat, leaf_id) of a causal tree, causal forest or T-learner at ``v``."""
    if isinstance(model, CausalTree):
        leaf = route(model.root, v)
        return leaf.tau_hat, leaf.leaf_id
    if isinstance(model, CausalForest):
        total = 0.0
        for t in model.trees:
            total += route(t.root, v).tau_hat
        return total / len(model.trees), None
    assert isinstance(model, TLearner)
    tau = predict_regressor(model.model_individual, v) - predict_regressor(model.model_control, v)
    return tau, None
