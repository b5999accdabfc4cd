"""Reference predictors: one task point at a time, one tree walk per member.

This is the prediction the library used before ``predict`` took an (m, 4)
array.  It reads a model through its v1 document (:func:`document`), whose
trees are nested nodes, so it shares no code with the library's pre-order
router.  Each point is a feature vector ``v`` in FEATURE_NAMES order; a tree
is walked node by node and ensembles add their members' values in member
order to a Python float.  The array predictors must give the same values bit
for bit, so tests compare them row by row.
"""

from __future__ import annotations

import json

import numpy as np

from reachmap import serialize_model


def document(model) -> dict:
    """The model's v1 document, as ``json.loads`` gives it."""
    return json.loads(serialize_model(model))


def route(node: dict, v: np.ndarray) -> dict:
    """The leaf node that feature vector ``v`` reaches: value < threshold goes left."""
    while node["kind"] == "internal":
        if v[node["feature_index"]] < node["threshold"]:
            node = node["left"]
        else:
            node = node["right"]
    return node


def predict_regressor(r: dict, v: np.ndarray) -> float:
    """The prediction of the regressor document ``r`` at ``v``."""
    if r["kind"] == "cart":
        return route(r["root"], v)["value"]
    if r["kind"] == "forest":
        return sum(route(root, v)["value"] for root in r["roots"]) / len(r["roots"])
    assert r["kind"] == "knn"
    features = np.array(r["features"])
    outcomes = np.array(r["outcomes"])
    q = (v - np.array(r["shift"])) / np.array(r["scale"])
    diff = features - q
    d2 = np.einsum("ij,ij->i", diff, diff)
    k = min(r["spec"]["k"], outcomes.size)
    order = np.lexsort((np.arange(d2.size), d2))[:k]
    return float(np.mean(outcomes[order]))


def predict_point(doc: dict, v: np.ndarray) -> tuple[float, int | None]:
    """(tau_hat, leaf_id) at ``v`` of a causal tree, causal forest or T-learner document."""
    if doc["kind"] == "causal_tree":
        leaf = route(doc["root"], v)
        return leaf["tau_hat"], leaf["leaf_id"]
    if doc["kind"] == "causal_forest":
        total = 0.0
        for t in doc["trees"]:
            total += route(t["root"], v)["tau_hat"]
        return total / len(doc["trees"]), None
    tau = predict_regressor(doc["model_individual"], v) - predict_regressor(doc["model_control"], v)
    return tau, None
