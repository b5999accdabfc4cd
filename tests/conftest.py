"""Shared test helpers: random dataset builders, dataset CSV mutations and
independent oracles.

The oracles here deliberately avoid the library's own code paths: split
gains are recomputed in ``Fraction`` arithmetic and routing with plain Python
loops over the model document, so the production vectorised implementations
are checked against a second, independently written route.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from typing import Optional

import numpy as np
from hypothesis import strategies as st

from reachmap import Dataset, serialize_model
from reachmap.baselines import CartRegressor, ForestRegressor
from reachmap.causal_tree import CausalForest, CausalTree, DifficultyEstimate


def make_dataset(features, groups, outcomes) -> Dataset:
    return Dataset(
        np.asarray(features, dtype=np.float64).reshape(len(groups), 4),
        np.asarray(groups, dtype=np.int8),
        np.asarray(outcomes, dtype=np.float64),
    )


def random_dataset(
    rng: np.random.Generator,
    n_control: int,
    n_individual: int,
    effect: float = 0.0,
    spread: float = 1.0,
) -> Dataset:
    """Continuous random dataset: uniform features, positive noisy outcomes."""
    n = n_control + n_individual
    xyz = rng.uniform(-0.3, 0.3, size=(n, 3))
    xyz[:, 1] = np.abs(xyz[:, 1])
    xyz[:, 2] = np.abs(xyz[:, 2])
    feats = np.column_stack([xyz, np.sqrt((xyz**2).sum(axis=1))])
    groups = np.array([0] * n_control + [1] * n_individual, dtype=np.int8)
    outcomes = 2.0 + spread * rng.uniform(0.0, 1.0, size=n)
    outcomes[groups == 1] += effect
    return Dataset(feats, groups, outcomes)


@st.composite
def tied_dataset(draw, n_control: st.SearchStrategy, n_individual: st.SearchStrategy) -> Dataset:
    """Hard split-search input: heavy ties, a duplicated and a mirrored column.

    Group sizes are drawn from the given strategies.  Feature values and
    outcomes come from coarse grids.  One column is drawn, a second duplicates
    it and a third mirrors it (same partitions, sides swapped); the fourth is
    drawn independently.  The columns are shuffled so the tie rule sees the
    duplicates at any feature index.
    """
    n_control = draw(n_control)
    n_individual = draw(n_individual)
    n = n_control + n_individual
    grid = st.sampled_from([0.0, 0.1, 0.2, 0.3])
    a = np.array(draw(st.lists(grid, min_size=n, max_size=n)))
    b = np.array(draw(st.lists(grid, min_size=n, max_size=n)))
    perm = draw(st.permutations(range(4)))
    feats = np.column_stack([a, a, 0.3 - a, b])[:, perm]
    outcomes = draw(st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0]), min_size=n, max_size=n))
    return make_dataset(feats, [0] * n_control + [1] * n_individual, outcomes)


def _set_cell(j: int, fmt: str):
    """A row edit that replaces cell ``j`` with ``fmt`` formatted with the old cell."""
    return lambda cells: cells[:j] + [fmt.format(cells[j])] + cells[j + 1:]


#: one fault or alternative spelling per kind, applied to one data row's
#: cells; every kind the row parser reads apart from the plain form
_ROW_EDITS = {
    "quoted": _set_cell(0, '"{}"'),
    "quoted_newline": _set_cell(5, '"{}\n"'),
    "blank": _set_cell(1, ""),
    "spaces": _set_cell(2, " {} "),
    "underscore": _set_cell(5, "1_0"),
    "nan": _set_cell(0, "nan"),
    "inf": _set_cell(3, "-Infinity"),
    "group_float": _set_cell(4, "1.0"),
    "five_fields": lambda cells: cells[:5],
    "seven_fields": lambda cells: cells + cells[-1:],
    "blank_line": lambda cells: ["\n" + cells[0]] + cells[1:],
    "long_cell": _set_cell(0, "0." + "1" * 131_072),
    "nul": _set_cell(1, "{}\x00"),
}

#: mutations of the whole text
_TEXT_EDITS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "bom": lambda text: "\ufeff" + text,
    "no_final_newline": lambda text: text.rstrip("\n"),
}

#: every kind ``mutate_csv`` knows
CSV_MUTATIONS = (*_ROW_EDITS, *_TEXT_EDITS, "invalid_utf8")


def mutate_csv(text: str, kind: str, row: int) -> bytes:
    """The dataset CSV ``text`` with the mutation ``kind`` of CSV_MUTATIONS,
    at data row ``row`` where it edits one row, as UTF-8 file bytes."""
    if kind in _TEXT_EDITS:
        return _TEXT_EDITS[kind](text).encode("utf-8")
    lines = text.split("\n")
    if kind == "invalid_utf8":
        return "\n".join(lines[:row + 1]).encode("utf-8") + b"\n\xff" + "\n".join(
            lines[row + 1:]
        ).encode("utf-8")
    lines[row + 1] = ",".join(_ROW_EDITS[kind](lines[row + 1].split(",")))
    return "\n".join(lines).encode("utf-8")


def predict_one(model, row):
    """``model.predict`` at the one task point ``row``, a (4,) feature row, as scalars.

    A float for a base regressor, otherwise a DifficultyEstimate holding a
    float ``tau_hat`` and an int or None ``leaf_id``.
    """
    out = model.predict(np.asarray(row, dtype=np.float64)[None, :])
    if isinstance(out, np.ndarray):
        return float(out[0])
    leaf_id = None if out.leaf_id is None else int(out.leaf_id[0])
    return DifficultyEstimate(float(out.tau_hat[0]), leaf_id)


def node_tuples(model) -> list[tuple]:
    """The pre-order nodes of each tree in ``model``, member by member."""
    if isinstance(model, CausalTree):
        return [model.nodes]
    if isinstance(model, CausalForest):
        return [t.nodes for t in model.trees]
    trees = []
    for r in (model.model_individual, model.model_control):
        if isinstance(r, CartRegressor):
            trees.append(r.nodes)
        elif isinstance(r, ForestRegressor):
            trees += r.trees
    return trees


# --- independent oracles -------------------------------------------------------


def oracle_best_split(
    split_d: Dataset, est_d: Dataset, min_group_leaf: int
) -> Optional[tuple[int, float, float]]:
    """Exhaustive candidate enumeration in exact rational arithmetic.

    Returns (feature_index, threshold, gain) of the best valid candidate with
    strictly positive gain, first-in-(feature, threshold)-order on exact ties,
    or None when no such candidate exists.
    """
    m = min_group_leaf
    n = len(split_d)
    best = None
    best_gain = Fraction(0)
    for f in range(4):
        values = sorted(set(float(v) for v in split_d.features[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            sides: dict[str, list[Fraction]] = {
                "L1": [], "L0": [], "R1": [], "R0": [],
            }
            for i in range(n):
                side = "L" if split_d.features[i, f] < thr else "R"
                sides[side + str(int(split_d.groups[i]))].append(
                    Fraction(float(split_d.outcomes[i]))
                )
            if min(len(v) for v in sides.values()) < m:
                continue
            e_counts = {"L1": 0, "L0": 0, "R1": 0, "R0": 0}
            for i in range(len(est_d)):
                side = "L" if est_d.features[i, f] < thr else "R"
                e_counts[side + str(int(est_d.groups[i]))] += 1
            if min(e_counts.values()) < m:
                continue
            tau_l = sum(sides["L1"]) / len(sides["L1"]) - sum(sides["L0"]) / len(sides["L0"])
            tau_r = sum(sides["R1"]) / len(sides["R1"]) - sum(sides["R0"]) / len(sides["R0"])
            n_l = len(sides["L1"]) + len(sides["L0"])
            n_r = n - n_l
            gain = Fraction(n_l * n_r, (n_l + n_r) ** 2) * (tau_l - tau_r) ** 2
            if gain > best_gain:
                best_gain = gain
                best = (f, thr, float(gain))
    return best


# The tree oracles walk the nested nodes of the model's v1 document, not the
# library's pre-order tuples or its router.


@functools.lru_cache(maxsize=16)  # oracle_route runs once per sample; callers never mutate it
def tree_root(tree: CausalTree) -> dict:
    return json.loads(serialize_model(tree))["root"]


def oracle_route(tree: CausalTree, row) -> dict:
    """Independent routing of a (4,) feature row: value < threshold goes left, else right.

    Returns the leaf's document node, which holds its ``leaf_id``.
    """
    node = tree_root(tree)
    while node["kind"] == "internal":
        node = node["left"] if row[node["feature_index"]] < node["threshold"] else node["right"]
    return node


def tree_skeleton(tree: CausalTree):
    """Structure only: nested (feature, threshold) tuples, leaves as None."""

    def rec(node):
        if node["kind"] == "leaf":
            return None
        return (node["feature_index"], node["threshold"], rec(node["left"]), rec(node["right"]))

    return rec(tree_root(tree))


def tree_leaf_values(tree: CausalTree) -> list[float]:
    def rec(node):
        if node["kind"] == "leaf":
            return [node["tau_hat"]]
        return rec(node["left"]) + rec(node["right"])

    return rec(tree_root(tree))
