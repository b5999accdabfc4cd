"""Versioned model documents: serialize and parse fitted models.

One JSON format (``format_version: 1``) covers every model the CLI can fit,
selected by a ``kind`` tag: ``causal_tree``, ``causal_forest``, ``t_cart``,
``t_forest``, ``t_knn``.  Tree nodes are stored with their exact field values,
so a parsed model is structurally equal to the original and predicts
bit-for-bit identically (JSON's shortest-round-trip float encoding is exact
for float64).  Causal trees and the baselines' CARTs share one node codec,
which nests their pre-order nodes; a causal leaf's ``leaf_id`` is its rank.
It writes and reads each tree in one pass over its nodes: the writer spells
a tree's text exactly as ``json.dumps(doc, indent=2, sort_keys=True)``
would, and the reader checks each node's fields as it builds the node.
Params and specs are written from their dataclass fields and read by
:func:`~reachmap.fileio.from_fields`.

Parse failures raise :class:`MalformedModel` with a ``$.dotted.path`` locating
the offending element.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import fields
from operator import attrgetter
from typing import Any, Callable, Optional, Union, get_type_hints

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
    side_specs,
)
from .causal_tree import (
    CausalForest,
    CausalForestSettings,
    CausalTree,
    CausalTreeParams,
    Leaf,
    Split,
    forest_member,
)
from .domain import FEATURE_NAMES
from .errors import MalformedModel
from .fileio import CHECKERS, decode_json, expect_dict, from_fields, get, write_text_atomic

FORMAT_VERSION = 1

Model = Union[CausalTree, CausalForest, TLearner]

#: document kind of each T-learner: the kind and spec type of its base regressors
_T_KINDS = {
    "t_cart": ("cart", CartSpec),
    "t_forest": ("forest", ForestSpec),
    "t_knn": ("knn", KnnSpec),
}

#: (name, whether it holds an integer) of each field of each node class, in field order
_NODE_FIELDS = {
    cls: tuple((name, hint is int) for name, hint in get_type_hints(cls).items())
    for cls in (Split, Leaf, RegLeaf)
}
#: a leaf's field values, in the sorted order of their names
_SORTED_FIELDS = {
    cls: attrgetter(*sorted(name for name, _ in _NODE_FIELDS[cls])) for cls in (Leaf, RegLeaf)
}


# --- encoding ----------------------------------------------------------------


def _to_dict(obj) -> dict:
    """Field name -> value of a model dataclass; every field holds a plain value.

    A shallow copy: ``dataclasses.asdict`` gives the same dict but deep-copies
    each value, which made saving a forest several times slower.
    """
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _tree_to_dict(tree: CausalTree, root: Callable) -> dict:
    return {
        "feature_names": list(FEATURE_NAMES),
        "params": _to_dict(tree.params),
        "root": root(tree.nodes),
    }


def _regressor_to_dict(r: Regressor, root: Callable) -> dict:
    doc: dict[str, Any] = {"spec": _to_dict(r.spec)}
    if isinstance(r, CartRegressor):
        doc.update(kind="cart", root=root(r.nodes))
    elif isinstance(r, ForestRegressor):
        doc.update(kind="forest", roots=[root(nodes) for nodes in r.trees])
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


def _document(model: Model, root: Callable) -> dict:
    """The model's document, with ``root(nodes)`` in place of each tree."""
    kind = model_kind(model)
    doc: dict[str, Any] = {"format_version": FORMAT_VERSION, "kind": kind}
    if isinstance(model, CausalTree):
        doc.update(_tree_to_dict(model, root))
    elif isinstance(model, CausalForest):
        doc.update(
            params=_to_dict(model.params),
            n_trees=model.n_trees,
            subsample_ratio=model.subsample_ratio,
            trees=[_tree_to_dict(t, root) for t in model.trees],
        )
    else:
        doc.update(
            spec=_to_dict(model.spec),
            model_individual=_regressor_to_dict(model.model_individual, root),
            model_control=_regressor_to_dict(model.model_control, root),
        )
    return doc


@functools.cache
def _node_templates(level: int) -> tuple:
    """The text of each node part at nesting ``level``, laid out as
    ``json.dumps(doc, indent=2, sort_keys=True)`` lays it out, with ``%s``
    for each value: a split's head (up to its left child), middle (up to its
    right child) and tail, a causal leaf and a CART leaf."""
    inner, end = "  " * (level + 1), "\n" + "  " * level + "}"

    def head(keys, kind):
        return "{\n" + ",\n".join(f'{inner}"{k}": ' + (f'"{kind}"' if k == "kind" else "%s")
                                   for k in keys)

    def leaf(cls, *extra):
        return head(sorted(["kind", *extra, *(name for name, _ in _NODE_FIELDS[cls])]), "leaf") + end

    return (
        head(["feature_index", "gain", "kind"], "internal") + f',\n{inner}"left": ',
        f',\n{inner}"right": ',
        f',\n{inner}"threshold": %s' + end,
        leaf(Leaf, "leaf_id"),
        leaf(RegLeaf),
    )


def _tree_text(nodes: tuple, level: int) -> str:
    """The JSON text of the tree with pre-order ``nodes`` nested ``level``
    deep, byte for byte as the document's ``json.dumps`` would write it.

    One pass, no recursion.  The values are spelled by one ``json.dumps``
    of them all, so numbers are written exactly as ``json`` writes them.
    """
    parts = []  # the text, with %s for each value
    values = []  # the values, in text order
    pending = []  # of each open split: its tail and threshold, then its right-child key
    depth = rank = 0
    for node in nodes:
        t = _node_templates(level + depth)
        if isinstance(node, Split):
            parts.append(t[0])
            values += (node.feature_index, node.gain)
            pending += [(t[2], node.threshold), t[1]]
            depth += 1
            continue
        if isinstance(node, Leaf):
            parts.append(t[3])
            values.append(rank)  # "leaf_id" sorts before every field name of a causal leaf
            values += _SORTED_FIELDS[Leaf](node)
            rank += 1
        else:
            parts.append(t[4])
            values += _SORTED_FIELDS[RegLeaf](node)
        # a leaf ends the left subtree of the innermost open split, or the
        # right subtrees of splits, which it then closes
        while pending:
            item = pending.pop()
            if type(item) is str:
                parts.append(item)
                break
            parts.append(item[0])
            values.append(item[1])
            depth -= 1
    tokens = json.dumps(values)[1:-1].split(", ")
    return "".join(parts) % tuple(tokens)


_TREE_SLOT = re.compile(r'"<tree (\d+)>"')


def serialize_model(model: Model) -> str:
    """The model's v1 document: ``json.dumps(doc, indent=2, sort_keys=True)``
    and a newline, where each tree is written by :func:`_tree_text`."""
    trees: list = []

    def slot(nodes: tuple) -> str:
        trees.append(nodes)
        return f"<tree {len(trees) - 1}>"

    pieces = _TREE_SLOT.split(json.dumps(_document(model, slot), indent=2, sort_keys=True))
    for i in range(1, len(pieces), 2):
        line = pieces[i - 1][pieces[i - 1].rfind("\n") + 1:]
        pieces[i] = _tree_text(trees[int(pieces[i])], (len(line) - len(line.lstrip(" "))) // 2)
    return "".join(pieces) + "\n"


# --- decoding ----------------------------------------------------------------


_ABSENT = object()


def _node_path(path: str, chain: tuple) -> str:
    """The path of a node from its tree's ``path`` and its ``chain``: the
    parent's chain and the step to the node, or () at the root."""
    steps = []
    while chain:
        chain, step = chain
        steps.append(step)
    return path + "".join(reversed(steps))


#: the fields the fast path of :func:`_nodes_from_dict` reads by name, in the
#: order it builds each record from, with whether it tests for an int; a
#: node class whose fields differ fails here, at import, not in a load
_FAST_FIELDS = {
    Split: (("feature_index", True), ("threshold", False), ("gain", False)),
    Leaf: (("tau_hat", False), ("n_individual", True), ("n_control", True),
           ("mean_individual", False), ("mean_control", False)),
    RegLeaf: (("value", False), ("n", True)),
}
if _FAST_FIELDS != _NODE_FIELDS:
    raise AssertionError(
        f"_nodes_from_dict reads {_FAST_FIELDS}, the node classes have {_NODE_FIELDS}")


def _nodes_from_dict(root: Any, path: str, leaf_cls: type, max_depth: int) -> tuple:
    """The pre-order nodes of the nested tree ``root``; leaves are parsed as
    ``leaf_cls``, a causal leaf's ``leaf_id`` must be its rank, and no leaf
    may lie deeper than ``max_depth``.

    One pass, no recursion.  Each kind's fields (``_FAST_FIELDS``) are read
    directly, with one type and finiteness test per value.  A node that
    fails a test goes to :func:`_checked_fields`, which reads a number
    written as an integer, or raises at the node's first fault; so the first
    faulty node in pre-order raises, and only then is its path spelled out.
    """
    isfinite = math.isfinite
    # builds a node record from the tuple of its field values, skipping the
    # NamedTuple's Python-level __new__, in about half the time
    build = tuple.__new__
    causal = leaf_cls is Leaf
    n_features = len(FEATURE_NAMES)
    nodes: list = []
    rank = 0
    stack: list = [(root, (), 0)]  # (node, chain, depth); see _node_path
    while stack:
        d, chain, depth = stack.pop()
        kind = d.get("kind") if isinstance(d, dict) else None
        if kind == "internal":
            f, thr, gain = d.get("feature_index"), d.get("threshold"), d.get("gain")
            left, right = d.get("left", _ABSENT), d.get("right", _ABSENT)
            if not (type(f) is int and 0 <= f < n_features
                    and type(thr) is float and isfinite(thr)
                    and type(gain) is float and isfinite(gain)
                    and depth < max_depth and left is not _ABSENT and right is not _ABSENT):
                f, thr, gain = _checked_fields(d, path, chain, depth, max_depth, leaf_cls, rank)
            nodes.append(build(Split, (f, thr, gain)))
            # the left child is next in pre-order
            stack.append((right, (chain, ".right"), depth + 1))
            stack.append((left, (chain, ".left"), depth + 1))
        elif kind == "leaf" and causal:
            tau, n_ind, n_ctl = d.get("tau_hat"), d.get("n_individual"), d.get("n_control")
            mean_ind, mean_ctl = d.get("mean_individual"), d.get("mean_control")
            if not (type(tau) is float and isfinite(tau)
                    and type(n_ind) is int and type(n_ctl) is int
                    and type(mean_ind) is float and isfinite(mean_ind)
                    and type(mean_ctl) is float and isfinite(mean_ctl)
                    and type(d.get("leaf_id")) is int and d["leaf_id"] == rank):
                tau, n_ind, n_ctl, mean_ind, mean_ctl = _checked_fields(
                    d, path, chain, depth, max_depth, leaf_cls, rank)
            nodes.append(build(Leaf, (tau, n_ind, n_ctl, mean_ind, mean_ctl)))
            rank += 1
        elif kind == "leaf":
            value, n = d.get("value"), d.get("n")
            if not (type(value) is float and isfinite(value) and type(n) is int):
                value, n = _checked_fields(d, path, chain, depth, max_depth, leaf_cls, rank)
            nodes.append(build(RegLeaf, (value, n)))
        else:
            _checked_fields(d, path, chain, depth, max_depth, leaf_cls, rank)
    return tuple(nodes)


def _checked_fields(d: Any, path: str, chain: tuple, depth: int, max_depth: int,
                    leaf_cls: type, rank: int) -> list:
    """The field values of the node ``d`` of :func:`_nodes_from_dict`, at
    ``chain`` and ``depth``, with a number written as an integer read as a
    float; or MalformedModel at the node's first fault.

    A node's fields are read in field order by the document reader's field
    checkers (``fileio.CHECKERS``): an integer must be exactly an int, a
    number a finite int or float that is no bool.  Then a causal
    leaf's ``leaf_id`` must be ``rank``; a split's feature must exist, its
    depth be below ``max_depth``, and its right child, then its left one,
    be present.
    """
    where = _node_path(path, chain)
    d = expect_dict(d, where, MalformedModel)
    kind = get(d, "kind", where, MalformedModel)
    if kind != "leaf" and kind != "internal":
        raise MalformedModel(f"{where}.kind", f"expected 'leaf' or 'internal', got {kind!r}")
    values = [
        CHECKERS[int if integer else float](d, key, where, MalformedModel)
        for key, integer in _NODE_FIELDS[leaf_cls if kind == "leaf" else Split]
    ]
    if kind == "leaf":
        if leaf_cls is Leaf:
            leaf_id = get(d, "leaf_id", where, MalformedModel)
            if type(leaf_id) is not int or leaf_id != rank:
                raise MalformedModel(f"{where}.leaf_id",
                                     f"expected {rank}, the leaf's rank, got {leaf_id!r}")
        return values
    if not 0 <= values[0] < len(FEATURE_NAMES):
        raise MalformedModel(f"{where}.feature_index", f"out of range: {values[0]}")
    if depth >= max_depth:
        raise MalformedModel(where, f"a split at depth {depth}; max_depth is {max_depth}")
    for side in ("right", "left"):
        get(d, side, where, MalformedModel)
    return values


def _tree_from_dict(d: Any, path: str, expected: Optional[CausalTreeParams] = None) -> CausalTree:
    """The causal tree ``d``; a forest's member must have the params
    ``expected``: the forest's, with the member's seed."""
    d = expect_dict(d, path, MalformedModel)
    names = get(d, "feature_names", path, MalformedModel)
    if names != list(FEATURE_NAMES):
        raise MalformedModel(f"{path}.feature_names",
                             f"expected {list(FEATURE_NAMES)}, got {names!r}")
    params = from_fields(CausalTreeParams, get(d, "params", path, MalformedModel),
                         f"{path}.params", MalformedModel)
    if expected is not None and params != expected:
        raise MalformedModel(f"{path}.params", f"expected {expected}, the forest's params "
                             "with this member's derived seed")
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
        params = from_fields(CausalTreeParams, get(doc, "params", "$", MalformedModel),
                             "$.params", MalformedModel)
        trees = tuple(_tree_from_dict(t, f"$.trees[{i}]", forest_member(params, i)[1])
                      for i, t in enumerate(trees_v))
        return CausalForest(trees, params, ensemble.n_trees, ensemble.subsample_ratio)

    if isinstance(kind, str) and kind in _T_KINDS:
        base_kind, spec_cls = _T_KINDS[kind]
        spec = from_fields(spec_cls, get(doc, "spec", "$", MalformedModel), "$.spec",
                           MalformedModel)
        ctl_spec, ind_spec = side_specs(spec)
        ind, ctl = (
            _regressor_from_dict(get(doc, side, "$", MalformedModel), f"$.{side}", base_kind, s)
            for side, s in (("model_individual", ind_spec), ("model_control", ctl_spec))
        )
        return TLearner(ind, ctl, spec)

    raise MalformedModel("$.kind", f"unknown model kind {kind!r}")


def parse_model(text: str) -> Model:
    return decode_json(text, model_from_dict, MalformedModel)


def save_model(model: Model, path) -> None:
    write_text_atomic(path, serialize_model(model))


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as f:
        return parse_model(f.read())
