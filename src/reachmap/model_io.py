"""Versioned model documents: serialize and parse fitted models.

One JSON format (``format_version: 1``) covers every model the CLI can fit,
selected by a ``kind`` tag: ``causal_tree``, ``causal_forest``, ``t_cart``,
``t_forest``, ``t_knn``.  Tree nodes are stored with their exact field values,
so a parsed model is structurally equal to the original and predicts
bit-for-bit identically (JSON's shortest-round-trip float encoding is exact
for float64).  Causal trees and the baselines' CARTs share one node codec,
which nests their pre-order nodes; a causal leaf's ``leaf_id`` is its rank.
Leaves, params and specs are written and read field by field.

Parse failures raise :class:`MalformedModel` with a ``$.dotted.path`` locating
the offending element.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from itertools import count
from typing import Any, Iterator, Union

import numpy as np

from .baselines import (
    CartRegressor,
    CartSpec,
    ForestRegressor,
    ForestSpec,
    KnnRegressor,
    KnnSpec,
    RegLeaf,
    Regressor,
    RegressorSpec,
    TLearner,
)
from .causal_tree import (
    CausalForest,
    CausalForestSettings,
    CausalTree,
    CausalTreeParams,
    Leaf,
    Split,
)
from .domain import FEATURE_NAMES, derived_seeds
from .errors import MalformedModel
from .fileio import decode_json, expect_dict, from_fields, get, write_text_atomic

FORMAT_VERSION = 1

Model = Union[CausalTree, CausalForest, TLearner]

#: document kind of each T-learner: the kind and spec type of its base regressors
_T_KINDS = {
    "t_cart": ("cart", CartSpec),
    "t_forest": ("forest", ForestSpec),
    "t_knn": ("knn", KnnSpec),
}


# --- encoding ----------------------------------------------------------------


def _to_dict(obj) -> dict:
    """Field name -> value of a model dataclass; every field holds a plain value.

    A shallow copy: ``dataclasses.asdict`` gives the same dict but deep-copies
    each value, which made saving a forest several times slower.
    """
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _node_to_dict(nodes: Iterator, ranks: Iterator) -> dict:
    """The subtree whose pre-order nodes come next in ``nodes``, nested.

    Leaves store their dataclass fields; a causal leaf also stores its
    ``leaf_id``, the next of ``ranks``.
    """
    node = next(nodes)
    if isinstance(node, Split):
        left = _node_to_dict(nodes, ranks)
        return {"kind": "internal", **_to_dict(node), "left": left,
                "right": _node_to_dict(nodes, ranks)}
    if isinstance(node, Leaf):
        return {"kind": "leaf", "leaf_id": next(ranks), **_to_dict(node)}
    return {"kind": "leaf", **_to_dict(node)}


def _root_to_dict(nodes: tuple) -> dict:
    return _node_to_dict(iter(nodes), count())


def _tree_to_dict(tree: CausalTree) -> dict:
    return {
        "feature_names": list(FEATURE_NAMES),
        "params": _to_dict(tree.params),
        "root": _root_to_dict(tree.nodes),
    }


def _regressor_to_dict(r: Regressor) -> dict:
    doc: dict[str, Any] = {"spec": _to_dict(r.spec)}
    if isinstance(r, CartRegressor):
        doc.update(kind="cart", root=_root_to_dict(r.nodes))
    elif isinstance(r, ForestRegressor):
        doc.update(kind="forest", roots=[_root_to_dict(nodes) for nodes in r.trees])
    elif isinstance(r, KnnRegressor):
        doc.update(
            kind="knn",
            features=r.features.tolist(),
            outcomes=r.outcomes.tolist(),
            shift=r.shift.tolist(),
            scale=r.scale.tolist(),
        )
    else:
        raise TypeError(f"unknown regressor {type(r).__name__}")
    return doc


def model_kind(model: Model) -> str:
    if isinstance(model, CausalTree):
        return "causal_tree"
    if isinstance(model, CausalForest):
        return "causal_forest"
    if isinstance(model, TLearner):
        for kind, (_, spec_cls) in _T_KINDS.items():
            if type(model.spec) is spec_cls:
                return kind
    raise TypeError(f"cannot serialize {type(model).__name__}")


def model_to_dict(model: Model) -> dict:
    kind = model_kind(model)
    doc: dict[str, Any] = {"format_version": FORMAT_VERSION, "kind": kind}
    if isinstance(model, CausalTree):
        doc.update(_tree_to_dict(model))
    elif isinstance(model, CausalForest):
        doc.update(
            params=_to_dict(model.params),
            n_trees=model.n_trees,
            subsample_ratio=model.subsample_ratio,
            trees=[_tree_to_dict(t) for t in model.trees],
        )
    else:
        doc.update(
            spec=_to_dict(model.spec),
            model_individual=_regressor_to_dict(model.model_individual),
            model_control=_regressor_to_dict(model.model_control),
        )
    return doc


def serialize_model(model: Model) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"


# --- decoding ----------------------------------------------------------------


def _nodes_from_dict(root: Any, path: str, leaf_cls: type, max_depth: int) -> tuple:
    """The pre-order nodes of the nested tree ``root``; leaves are parsed as
    ``leaf_cls``, a causal leaf's ``leaf_id`` must be its rank, and no leaf
    may lie deeper than ``max_depth``."""
    nodes: list = []
    ranks = count()
    stack = [(root, path, 0)]
    while stack:
        d, path, depth = stack.pop()
        d = expect_dict(d, path, MalformedModel)
        kind = get(d, "kind", path, MalformedModel)
        if kind == "leaf":
            nodes.append(from_fields(leaf_cls, d, path, MalformedModel))
            if leaf_cls is Leaf:
                leaf_id, rank = get(d, "leaf_id", path, MalformedModel), next(ranks)
                if type(leaf_id) is not int or leaf_id != rank:
                    raise MalformedModel(f"{path}.leaf_id",
                                         f"expected {rank}, the leaf's rank, got {leaf_id!r}")
        elif kind == "internal":
            split = from_fields(Split, d, path, MalformedModel)
            if not 0 <= split.feature_index < len(FEATURE_NAMES):
                raise MalformedModel(f"{path}.feature_index",
                                     f"out of range: {split.feature_index}")
            if depth >= max_depth:
                raise MalformedModel(path, f"a split at depth {depth}; max_depth is {max_depth}")
            nodes.append(split)
            stack.append((get(d, "right", path, MalformedModel), f"{path}.right", depth + 1))
            stack.append((get(d, "left", path, MalformedModel), f"{path}.left", depth + 1))
        else:
            raise MalformedModel(f"{path}.kind", f"expected 'leaf' or 'internal', got {kind!r}")
    return tuple(nodes)


def _tree_from_dict(d: Any, path: str) -> CausalTree:
    d = expect_dict(d, path, MalformedModel)
    names = get(d, "feature_names", path, MalformedModel)
    if names != list(FEATURE_NAMES):
        raise MalformedModel(f"{path}.feature_names",
                             f"expected {list(FEATURE_NAMES)}, got {names!r}")
    params = from_fields(CausalTreeParams, get(d, "params", path, MalformedModel),
                         f"{path}.params", MalformedModel)
    root = get(d, "root", path, MalformedModel)
    return CausalTree(_nodes_from_dict(root, f"{path}.root", Leaf, params.max_depth), params)


def _float_array(v: Any, path: str, ndim: int) -> np.ndarray:
    try:
        arr = np.array(v, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise MalformedModel(path, "expected a numeric array") from None
    if arr.ndim != ndim:
        raise MalformedModel(path, f"expected a {ndim}-d array, got shape {arr.shape}")
    # numpy reads true as 1.0 and "2" as 2.0; a number field takes neither
    elements = v if ndim == 1 else [x for row in v for x in row]
    if not set(map(type, elements)) <= {int, float}:
        raise MalformedModel(path, "expected numbers only")
    if not np.isfinite(arr).all():
        raise MalformedModel(path, "expected finite numbers")
    return arr


def _regressor_from_dict(d: Any, path: str, kind: str, expected: RegressorSpec) -> Regressor:
    """The base regressor ``d`` of a T-learner, which must be of ``kind``
    and have the spec ``expected``: the T-learner's, with its side's seed."""
    d = expect_dict(d, path, MalformedModel)
    got = get(d, "kind", path, MalformedModel)
    if got != kind:
        raise MalformedModel(f"{path}.kind", f"expected {kind!r}, got {got!r}")
    spec = from_fields(type(expected), get(d, "spec", path, MalformedModel), f"{path}.spec",
                       MalformedModel)
    if spec != expected:
        raise MalformedModel(f"{path}.spec", f"expected {expected}, the top-level spec "
                             "with this side's derived seed")
    if kind == "cart":
        root = get(d, "root", path, MalformedModel)
        return CartRegressor(_nodes_from_dict(root, f"{path}.root", RegLeaf, spec.max_depth), spec)
    if kind == "forest":
        roots_v = get(d, "roots", path, MalformedModel)
        if not isinstance(roots_v, list) or len(roots_v) != spec.n_trees:
            raise MalformedModel(f"{path}.roots", f"expected a list of {spec.n_trees} trees")
        trees = tuple(
            _nodes_from_dict(r, f"{path}.roots[{i}]", RegLeaf, spec.max_depth)
            for i, r in enumerate(roots_v)
        )
        return ForestRegressor(trees, spec)
    feats = _float_array(get(d, "features", path, MalformedModel), f"{path}.features", 2)
    if feats.shape[1] != len(FEATURE_NAMES):
        raise MalformedModel(f"{path}.features", f"expected 4 columns, got {feats.shape}")
    outs = _float_array(get(d, "outcomes", path, MalformedModel), f"{path}.outcomes", 1)
    if outs.size != feats.shape[0]:
        raise MalformedModel(f"{path}.outcomes", "length mismatch with features")
    shift = _float_array(get(d, "shift", path, MalformedModel), f"{path}.shift", 1)
    scale = _float_array(get(d, "scale", path, MalformedModel), f"{path}.scale", 1)
    if shift.size != len(FEATURE_NAMES) or scale.size != len(FEATURE_NAMES):
        raise MalformedModel(f"{path}.shift", "expected 4 entries")
    if not (scale > 0).all():  # distances divide by it
        raise MalformedModel(f"{path}.scale", f"expected positive entries, got {scale.tolist()}")
    return KnnRegressor(feats, outs, spec, shift, scale)


def model_from_dict(doc: Any) -> Model:
    doc = expect_dict(doc, "$", MalformedModel)
    version = get(doc, "format_version", "$", MalformedModel)
    if version != FORMAT_VERSION:
        raise MalformedModel("$.format_version", f"unsupported version {version!r}")
    kind = get(doc, "kind", "$", MalformedModel)

    if kind == "causal_tree":
        return _tree_from_dict(doc, "$")

    if kind == "causal_forest":
        ensemble = from_fields(CausalForestSettings, doc, "$", MalformedModel)
        trees_v = get(doc, "trees", "$", MalformedModel)
        if not isinstance(trees_v, list) or len(trees_v) != ensemble.n_trees:
            raise MalformedModel("$.trees", f"expected a list of {ensemble.n_trees} trees")
        trees = tuple(_tree_from_dict(t, f"$.trees[{i}]") for i, t in enumerate(trees_v))
        return CausalForest(
            trees=trees,
            params=from_fields(CausalTreeParams, get(doc, "params", "$", MalformedModel),
                               "$.params", MalformedModel),
            n_trees=ensemble.n_trees,
            subsample_ratio=ensemble.subsample_ratio,
        )

    if isinstance(kind, str) and kind in _T_KINDS:
        base_kind, spec_cls = _T_KINDS[kind]
        spec = from_fields(spec_cls, get(doc, "spec", "$", MalformedModel), "$.spec",
                           MalformedModel)
        ctl_seed, ind_seed = derived_seeds(spec.seed, 2)  # as fit_t_learner derives them
        return TLearner(
            model_individual=_regressor_from_dict(
                get(doc, "model_individual", "$", MalformedModel), "$.model_individual",
                base_kind, replace(spec, seed=ind_seed),
            ),
            model_control=_regressor_from_dict(
                get(doc, "model_control", "$", MalformedModel), "$.model_control",
                base_kind, replace(spec, seed=ctl_seed),
            ),
            spec=spec,
        )

    raise MalformedModel("$.kind", f"unknown model kind {kind!r}")


def parse_model(text: str) -> Model:
    return decode_json(text, model_from_dict, MalformedModel)


def save_model(model: Model, path) -> None:
    write_text_atomic(path, serialize_model(model))


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as f:
        return parse_model(f.read())
