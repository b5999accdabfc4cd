"""Reference model writer: the v1 document built as nested dicts.

This is how ``serialize_model`` wrote documents before it wrote tree nodes
as text: every node becomes a dict, recursively, and the whole document goes
through ``json.dumps(doc, indent=2, sort_keys=True)``.  The library's writer
must give the same text byte for byte, so tests compare the two.
"""

from __future__ import annotations

import json
from dataclasses import fields
from itertools import count
from typing import Any, Iterator

from reachmap.baselines import CartRegressor, ForestRegressor, KnnRegressor, TLearner
from reachmap.causal_tree import CausalForest, CausalTree, Leaf, Split
from reachmap.domain import FEATURE_NAMES
from reachmap.model_io import FORMAT_VERSION, model_kind


def _to_dict(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _node_to_dict(nodes: Iterator, ranks: Iterator) -> dict:
    """The subtree whose pre-order nodes come next in ``nodes``, nested;
    a causal leaf's ``leaf_id`` is the next of ``ranks``."""
    node = next(nodes)
    if isinstance(node, Split):
        left = _node_to_dict(nodes, ranks)
        return {"kind": "internal", **node._asdict(), "left": left,
                "right": _node_to_dict(nodes, ranks)}
    if isinstance(node, Leaf):
        return {"kind": "leaf", "leaf_id": next(ranks), **node._asdict()}
    return {"kind": "leaf", **node._asdict()}


def root_to_dict(nodes: tuple) -> dict:
    return _node_to_dict(iter(nodes), count())


def _tree_to_dict(tree: CausalTree) -> dict:
    return {
        "feature_names": list(FEATURE_NAMES),
        "params": _to_dict(tree.params),
        "root": root_to_dict(tree.nodes),
    }


def regressor_to_dict(r) -> dict:
    doc: dict[str, Any] = {"spec": _to_dict(r.spec)}
    if isinstance(r, CartRegressor):
        doc.update(kind="cart", root=root_to_dict(r.nodes))
    elif isinstance(r, ForestRegressor):
        doc.update(kind="forest", roots=[root_to_dict(nodes) for nodes in r.trees])
    else:
        assert isinstance(r, KnnRegressor)
        doc.update(kind="knn", features=r.features.tolist(), outcomes=r.outcomes.tolist(),
                   shift=r.shift.tolist(), scale=r.scale.tolist())
    return doc


def model_to_dict(model) -> dict:
    doc: dict[str, Any] = {"format_version": FORMAT_VERSION, "kind": model_kind(model)}
    if isinstance(model, CausalTree):
        doc.update(_tree_to_dict(model))
    elif isinstance(model, CausalForest):
        doc.update(params=_to_dict(model.params), n_trees=model.n_trees,
                   subsample_ratio=model.subsample_ratio,
                   trees=[_tree_to_dict(t) for t in model.trees])
    else:
        assert isinstance(model, TLearner)
        doc.update(spec=_to_dict(model.spec),
                   model_individual=regressor_to_dict(model.model_individual),
                   model_control=regressor_to_dict(model.model_control))
    return doc


def reference_serialize(model) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"
