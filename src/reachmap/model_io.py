"""Versioned model documents: serialize and parse fitted models.

One JSON format (``format_version: 1``) covers every model the CLI can fit,
selected by a ``kind`` tag: ``causal_tree``, ``causal_forest``, ``t_cart``,
``t_forest``, ``t_knn``.  Tree nodes are stored with their exact field values,
so a parsed model is structurally equal to the original and predicts
bit-for-bit identically (JSON's shortest-round-trip float encoding is exact
for float64).  Causal trees and the baselines' CARTs share one node codec;
leaves, params and specs are written and read field by field from their
dataclasses.

Parse failures raise :class:`MalformedModel` with a ``$.dotted.path`` locating
the offending element.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import fields
from typing import Any, Union

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
    TLearner,
)
from .causal_tree import (
    CausalForest,
    CausalTree,
    CausalTreeParams,
    Internal,
    Leaf,
    Split,
)
from .domain import FEATURE_NAMES
from .errors import MalformedModel
from .fileio import write_text_atomic

FORMAT_VERSION = 1

Model = Union[CausalTree, CausalForest, TLearner]

#: document kind of each T-learner, by the spec type of its base regressors
_T_KINDS = {"t_cart": CartSpec, "t_forest": ForestSpec, "t_knn": KnnSpec}

#: spec type of each nested regressor kind
_REGRESSOR_SPECS = {"cart": CartSpec, "forest": ForestSpec, "knn": KnnSpec}


# --- encoding ----------------------------------------------------------------


def _to_dict(obj) -> dict:
    """Field name -> value of a model dataclass; every field holds a plain value.

    A shallow copy: ``dataclasses.asdict`` gives the same dict but deep-copies
    each value, which made saving a forest several times slower.
    """
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _node_to_dict(node) -> dict:
    """One tree node of either kind: leaves store their dataclass fields."""
    if isinstance(node, Internal):
        return {
            "kind": "internal",
            **_to_dict(node.split),
            "left": _node_to_dict(node.left),
            "right": _node_to_dict(node.right),
        }
    return {"kind": "leaf", **_to_dict(node)}


def _tree_to_dict(tree: CausalTree) -> dict:
    return {
        "feature_names": list(tree.feature_names),
        "params": _to_dict(tree.params),
        "root": _node_to_dict(tree.root),
    }


def _regressor_to_dict(r: Regressor) -> dict:
    doc: dict[str, Any] = {"spec": _to_dict(r.spec)}
    if isinstance(r, CartRegressor):
        doc.update(kind="cart", root=_node_to_dict(r.root))
    elif isinstance(r, ForestRegressor):
        doc.update(kind="forest", roots=[_node_to_dict(root) for root in r.roots])
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
        for kind, spec_cls in _T_KINDS.items():
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


def _expect_dict(v: Any, path: str) -> dict:
    if not isinstance(v, dict):
        raise MalformedModel(path, f"expected an object, got {type(v).__name__}")
    return v


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise MalformedModel(f"{path}.{key}", "missing required field")
    return obj[key]


def _num(obj: dict, key: str, path: str) -> float:
    v = _get(obj, key, path)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MalformedModel(f"{path}.{key}", f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond float range
        x = math.inf
    if not math.isfinite(x):  # json.loads accepts NaN and +-Infinity
        raise MalformedModel(f"{path}.{key}", f"expected a finite number, got {v!r}")
    return x


def _int(obj: dict, key: str, path: str) -> int:
    v = _get(obj, key, path)
    if isinstance(v, bool) or not isinstance(v, int):
        raise MalformedModel(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _bool(obj: dict, key: str, path: str) -> bool:
    v = _get(obj, key, path)
    if not isinstance(v, bool):
        raise MalformedModel(f"{path}.{key}", f"expected a boolean, got {v!r}")
    return v


#: field checker by annotation; the model dataclasses hold only these types
_CHECKERS = {"int": _int, "float": _num, "bool": _bool}


@functools.cache
def _field_checkers(cls: type) -> tuple:
    """(name, checker) for each field of dataclass ``cls``."""
    return tuple(
        (f.name, _CHECKERS[getattr(f.type, "__name__", f.type)]) for f in fields(cls)
    )


def _from_fields(cls: type, d: Any, path: str):
    """Build dataclass ``cls`` from the object ``d``, checking each field's type.

    A ValueError from the class's own validation becomes a MalformedModel at
    ``path``.
    """
    d = _expect_dict(d, path)
    try:
        return cls(**{name: check(d, name, path) for name, check in _field_checkers(cls)})
    except ValueError as e:
        raise MalformedModel(path, str(e)) from None


def _node_from_dict(d: Any, path: str, leaf_cls: type):
    """One tree node of either kind; leaves are parsed as ``leaf_cls``."""
    d = _expect_dict(d, path)
    kind = _get(d, "kind", path)
    if kind == "leaf":
        return _from_fields(leaf_cls, d, path)
    if kind == "internal":
        split = _from_fields(Split, d, path)
        if not 0 <= split.feature_index < len(FEATURE_NAMES):
            raise MalformedModel(f"{path}.feature_index", f"out of range: {split.feature_index}")
        return Internal(
            split,
            _node_from_dict(_get(d, "left", path), f"{path}.left", leaf_cls),
            _node_from_dict(_get(d, "right", path), f"{path}.right", leaf_cls),
        )
    raise MalformedModel(f"{path}.kind", f"expected 'leaf' or 'internal', got {kind!r}")


def _tree_from_dict(d: dict, path: str) -> CausalTree:
    names = _get(d, "feature_names", path)
    if not (
        isinstance(names, list) and all(isinstance(s, str) for s in names)
    ) or len(names) != len(FEATURE_NAMES):
        raise MalformedModel(f"{path}.feature_names", f"expected 4 labels, got {names!r}")
    return CausalTree(
        root=_node_from_dict(_get(d, "root", path), f"{path}.root", Leaf),
        params=_from_fields(CausalTreeParams, _get(d, "params", path), f"{path}.params"),
        feature_names=tuple(names),
    )


def _float_array(v: Any, path: str, ndim: int) -> np.ndarray:
    try:
        arr = np.array(v, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise MalformedModel(path, "expected a numeric array") from None
    if arr.ndim != ndim:
        raise MalformedModel(path, f"expected a {ndim}-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise MalformedModel(path, "expected finite numbers")
    return arr


def _regressor_from_dict(d: Any, path: str) -> Regressor:
    d = _expect_dict(d, path)
    kind = _get(d, "kind", path)
    spec_d = _expect_dict(_get(d, "spec", path), f"{path}.spec")
    if not isinstance(kind, str) or kind not in _REGRESSOR_SPECS:
        raise MalformedModel(f"{path}.kind", f"unknown regressor kind {kind!r}")
    spec = _from_fields(_REGRESSOR_SPECS[kind], spec_d, f"{path}.spec")
    if kind == "cart":
        return CartRegressor(_node_from_dict(_get(d, "root", path), f"{path}.root", RegLeaf), spec)
    if kind == "forest":
        roots_v = _get(d, "roots", path)
        if not isinstance(roots_v, list) or not roots_v:
            raise MalformedModel(f"{path}.roots", "expected a non-empty list")
        roots = tuple(
            _node_from_dict(r, f"{path}.roots[{i}]", RegLeaf) for i, r in enumerate(roots_v)
        )
        return ForestRegressor(roots, spec)
    feats = _float_array(_get(d, "features", path), f"{path}.features", 2)
    if feats.shape[1] != len(FEATURE_NAMES):
        raise MalformedModel(f"{path}.features", f"expected 4 columns, got {feats.shape}")
    outs = _float_array(_get(d, "outcomes", path), f"{path}.outcomes", 1)
    if outs.size != feats.shape[0]:
        raise MalformedModel(f"{path}.outcomes", "length mismatch with features")
    shift = _float_array(_get(d, "shift", path), f"{path}.shift", 1)
    scale = _float_array(_get(d, "scale", path), f"{path}.scale", 1)
    if shift.size != len(FEATURE_NAMES) or scale.size != len(FEATURE_NAMES):
        raise MalformedModel(f"{path}.shift", "expected 4 entries")
    if not (scale > 0).all():  # distances divide by it
        raise MalformedModel(f"{path}.scale", f"expected positive entries, got {scale.tolist()}")
    return KnnRegressor(feats, outs, spec, shift, scale)


def model_from_dict(doc: Any) -> Model:
    doc = _expect_dict(doc, "$")
    version = _get(doc, "format_version", "$")
    if version != FORMAT_VERSION:
        raise MalformedModel("$.format_version", f"unsupported version {version!r}")
    kind = _get(doc, "kind", "$")

    if kind == "causal_tree":
        return _tree_from_dict(doc, "$")

    if kind == "causal_forest":
        trees_v = _get(doc, "trees", "$")
        if not isinstance(trees_v, list) or not trees_v:
            raise MalformedModel("$.trees", "expected a non-empty list")
        trees = tuple(
            _tree_from_dict(_expect_dict(t, f"$.trees[{i}]"), f"$.trees[{i}]")
            for i, t in enumerate(trees_v)
        )
        n_trees = _int(doc, "n_trees", "$")
        ratio = _num(doc, "subsample_ratio", "$")
        if n_trees != len(trees):
            raise MalformedModel("$.n_trees", f"declared {n_trees}, found {len(trees)} trees")
        return CausalForest(
            trees=trees,
            params=_from_fields(CausalTreeParams, _get(doc, "params", "$"), "$.params"),
            n_trees=n_trees,
            subsample_ratio=ratio,
        )

    if isinstance(kind, str) and kind in _T_KINDS:
        spec = _from_fields(_T_KINDS[kind], _get(doc, "spec", "$"), "$.spec")
        return TLearner(
            model_individual=_regressor_from_dict(
                _get(doc, "model_individual", "$"), "$.model_individual"
            ),
            model_control=_regressor_from_dict(
                _get(doc, "model_control", "$"), "$.model_control"
            ),
            spec=spec,
        )

    raise MalformedModel("$.kind", f"unknown model kind {kind!r}")


def parse_model(text: str) -> Model:
    try:
        return model_from_dict(json.loads(text))
    except json.JSONDecodeError as e:
        raise MalformedModel("$", f"invalid JSON: {e}") from None
    except RecursionError:
        raise MalformedModel("$", "nested too deeply") from None


def save_model(model: Model, path) -> None:
    write_text_atomic(path, serialize_model(model))


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as f:
        return parse_model(f.read())
