"""Reference node loader: the checks in one loop, every node built by name.

This is how ``model_io`` read a tree's nested nodes before it read each
kind's fields directly: every field is looked up through the node class's
field table and checked in field order, and the first faulty node in
pre-order raises.  The library's loader must give the same nodes, or the
same ``MalformedModel`` path and reason, so tests compare the two.
"""

from __future__ import annotations

import math
from typing import Any, get_type_hints

from reachmap.baselines import RegLeaf
from reachmap.causal_tree import Leaf, Split
from reachmap.domain import FEATURE_NAMES
from reachmap.errors import MalformedModel
from reachmap.fileio import finite_number

#: (name, whether it holds an integer) of each field of each node class, in field order
NODE_FIELDS = {
    cls: tuple((name, hint is int) for name, hint in get_type_hints(cls).items())
    for cls in (Split, Leaf, RegLeaf)
}

_ABSENT = object()


def _node_path(path: str, chain: tuple) -> str:
    steps = []
    while chain:
        chain, step = chain
        steps.append(step)
    return path + "".join(reversed(steps))


def _missing(path: str, key: str) -> MalformedModel:
    return MalformedModel(f"{path}.{key}", "missing required field")


def nodes_from_dict(root: Any, path: str, leaf_cls: type, max_depth: int) -> tuple:
    node_fields = {"internal": NODE_FIELDS[Split], "leaf": NODE_FIELDS[leaf_cls]}
    isfinite = math.isfinite
    nodes: list = []
    rank = 0
    stack: list = [(root, (), 0)]  # (node, chain, depth); see _node_path
    while stack:
        d, chain, depth = stack.pop()
        if not isinstance(d, dict):
            raise MalformedModel(_node_path(path, chain),
                                 f"expected an object, got {type(d).__name__}")
        kind = d.get("kind", _ABSENT)
        if kind != "leaf" and kind != "internal":
            if kind is _ABSENT:
                raise _missing(_node_path(path, chain), "kind")
            raise MalformedModel(f"{_node_path(path, chain)}.kind",
                                 f"expected 'leaf' or 'internal', got {kind!r}")
        values = []
        for key, integer in node_fields[kind]:
            v = d.get(key, _ABSENT)
            if integer:
                if type(v) is not int:
                    if v is _ABSENT:
                        raise _missing(_node_path(path, chain), key)
                    raise MalformedModel(f"{_node_path(path, chain)}.{key}",
                                         f"expected an integer, got {v!r}")
            elif type(v) is not float or not isfinite(v):  # an int is a number too
                if v is _ABSENT:
                    raise _missing(_node_path(path, chain), key)
                v = finite_number(v, f"{_node_path(path, chain)}.{key}", MalformedModel)
            values.append(v)
        if kind == "leaf":
            if leaf_cls is Leaf:
                leaf_id = d.get("leaf_id", _ABSENT)
                if leaf_id is _ABSENT:
                    raise _missing(_node_path(path, chain), "leaf_id")
                if type(leaf_id) is not int or leaf_id != rank:
                    raise MalformedModel(f"{_node_path(path, chain)}.leaf_id",
                                         f"expected {rank}, the leaf's rank, got {leaf_id!r}")
                rank += 1
            nodes.append(leaf_cls(*values))
            continue
        split = Split(*values)
        if not 0 <= split.feature_index < len(FEATURE_NAMES):
            raise MalformedModel(f"{_node_path(path, chain)}.feature_index",
                                 f"out of range: {split.feature_index}")
        if depth >= max_depth:
            raise MalformedModel(_node_path(path, chain),
                                 f"a split at depth {depth}; max_depth is {max_depth}")
        nodes.append(split)
        for side in ("right", "left"):  # the left child is next in pre-order
            child = d.get(side, _ABSENT)
            if child is _ABSENT:
                raise _missing(_node_path(path, chain), side)
            stack.append((child, (chain, "." + side), depth + 1))
    return tuple(nodes)
