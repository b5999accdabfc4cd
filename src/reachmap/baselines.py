"""T-learner baselines: per-group outcome regressors whose predictions subtract.

The comparison estimators fit one regressor to the individual's outcomes and
one to the control group's, then report the difference of the two predictions
at a task point.  Base learners are a variance-reduction CART, a bagged forest
of CARTs with per-split feature sampling, and k-nearest-neighbours averaging.

The CART shares the causal tree's growth loop, split search, pre-order node
layout and router (:mod:`reachmap.causal_tree`): thresholds at midpoints of
consecutive distinct values, ties to the lowest feature index then lowest
threshold, values < threshold route left, and a split must strictly reduce
the sum of squared errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Optional, Union

import numpy as np

from .causal_tree import (
    MAX_TREES,
    DifficultyEstimate,
    _best_cuts,
    _dyadic,
    _feature_rows,
    _forest_mean,
    _grow,
    _leaf_values,
    _mean,
    _times_4_pow,
)
from .domain import (
    FEATURE_NAMES,
    Dataset,
    GroupLabel,
    canonical_order,
    derived_seeds,
    validate_dataset,
)
from .errors import EmptyDataset, InsufficientSamples


@dataclass(frozen=True)
class CartSpec:
    max_depth: int = 8
    min_leaf: int = 5
    seed: int = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.max_depth < 0 or self.min_leaf < 1:
            raise ValueError("max_depth must be >= 0 and min_leaf >= 1")


@dataclass(frozen=True)
class ForestSpec:
    n_trees: int = 100
    max_depth: int = 8
    min_leaf: int = 5
    features_per_split: int = 2
    seed: int = field(kw_only=True)

    def __post_init__(self) -> None:
        if not 1 <= self.n_trees <= MAX_TREES:
            raise ValueError(f"n_trees must be in 1..{MAX_TREES}, got {self.n_trees}")
        if self.max_depth < 0 or self.min_leaf < 1:
            raise ValueError("max_depth must be >= 0 and min_leaf >= 1")
        if not 1 <= self.features_per_split <= len(FEATURE_NAMES):
            raise ValueError(
                f"features_per_split must be in 1..{len(FEATURE_NAMES)}, "
                f"got {self.features_per_split}"
            )


@dataclass(frozen=True)
class KnnSpec:
    k: int = 5
    standardize: bool = False  # per-feature z-scoring of the distance space
    seed: int = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


RegressorSpec = Union[CartSpec, ForestSpec, KnnSpec]


@dataclass(frozen=True)
class RegLeaf:
    value: float
    n: int


#: t_forest members grown side by side.  Lockstep growth holds the pending
#: nodes of this many members at once and scores one node of each per batch;
#: memory bounds it, and 25 keep a 2000-sample fit's peak below that of
#: growing one member at a time.
_LOCKSTEP = 25


def _exact_sse_gain(v: np.ndarray, y: np.ndarray, thr: float) -> Fraction:
    """SSE reduction of a cut in exact rational arithmetic.

    Outcomes are summed as integers over one power-of-two denominator.
    """
    ks, e = _dyadic(y)
    left = v < thr

    def sse(ks: list) -> Fraction:  # the SSE of ks, times 2**(-2e)
        total = sum(ks)
        return Fraction(len(ks) * sum(map(mul, ks, ks)) - total * total, len(ks))

    left_ks = list(compress(ks, left.tolist()))
    right_ks = list(compress(ks, (~left).tolist()))
    return _times_4_pow(sse(ks) - sse(left_ks) - sse(right_ks), e)


class _CartNode:
    """A CART node awaiting its split search."""

    __slots__ = (
        "rows", "features", "y", "yc", "scale",
        "q_total", "s_total", "sse_parent", "cost", "weight",
    )

    def __init__(self, rows: np.ndarray, y: np.ndarray, features) -> None:
        self.rows = rows
        self.features = features
        self.y = y
        n = rows.size
        # SSE gains grow with the node size, so the near-tie window does too
        self.cost = self.weight = n
        # center at the node mean: keeps the prefix-sum SSE arithmetic stable
        self.yc = yc = y - _mean(y)
        self.scale = float(np.maximum.reduce(np.abs(yc)))
        self.q_total = float(np.dot(yc, yc))
        self.s_total = float(np.add.reduce(yc))  # np.sum's arithmetic
        self.sse_parent = self.q_total - self.s_total * self.s_total / n


def _sse_gains(min_leaf: int):
    """Block scorer of the SSE reduction."""

    def block_gains(rows, lens, sort, distinct, thresholds):
        nodes = [node for node, _ in rows]
        ys = sort(np.concatenate([nd.yc for nd in nodes]), 0.0)
        s = np.cumsum(ys, axis=1)[:, :-1]
        q = np.cumsum(ys * ys, axis=1)[:, :-1]
        del ys
        n_l = np.arange(1, s.shape[1] + 1)
        n_r = lens[:, None] - n_l
        valid = distinct & (n_l >= min_leaf) & (n_r >= min_leaf)
        q_total = np.array([nd.q_total for nd in nodes])[:, None]
        s_total = np.array([nd.s_total for nd in nodes])[:, None]
        sse_parent = np.array([nd.sse_parent for nd in nodes])[:, None]
        sse_l = q - s * s / n_l
        sse_r = (q_total - q) - (s_total - s) ** 2 / n_r
        return np.where(valid, sse_parent - sse_l - sse_r, -np.inf)

    return block_gains


def _grow_carts(
    X: np.ndarray,
    y: np.ndarray,
    roots: list,
    max_depth: int,
    min_leaf: int,
    mtry: Optional[int] = None,
    rngs: Optional[list] = None,
) -> list[tuple]:
    """The pre-order nodes of one CART per entry of ``roots``, the rows of
    ``X``/``y`` it is grown on, grown by :func:`causal_tree._grow`.

    Within a node, value ties keep the order of its rows.  With ``mtry``
    below the feature count, each tree draws a node's features from its own
    generator in ``rngs``, in depth-first pre-order, so the trees grow in
    lockstep.
    """
    n_features = X.shape[1]
    draws = mtry is not None and mtry < n_features

    def open_node(t, depth, rows):
        y_node = y[rows]
        if (
            depth >= max_depth
            or rows.size < 2 * min_leaf
            # pure node: nothing to reduce
            or np.maximum.reduce(y_node) == np.minimum.reduce(y_node)
        ):
            return None
        if draws:
            features = np.sort(rngs[t].choice(n_features, size=mtry, replace=False)).tolist()
        else:
            features = range(n_features)
        return _CartNode(rows, y_node, features)

    def exact(node, f, thr):
        return _exact_sse_gain(X[node.rows, f], node.y, thr)

    return _grow(
        (X,),
        [(rows,) for rows in roots],
        open_node,
        lambda rows: RegLeaf(float(_mean(y[rows])), rows.size),
        _sse_gains(min_leaf),
        exact,
        lockstep=draws,
    )


@dataclass(frozen=True)
class CartRegressor:
    nodes: tuple  # splits and ``RegLeaf``s in depth-first pre-order
    spec: CartSpec

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _leaf_values(self.nodes, _feature_rows(X), "value")


@dataclass(frozen=True)
class ForestRegressor:
    trees: tuple[tuple, ...]  # each member's pre-order nodes
    spec: ForestSpec

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean member prediction at each row of ``X``, summed in member order."""
        return _forest_mean(self.trees, X, "value")


@dataclass(frozen=True)
class KnnRegressor:
    """Stores the training data; prediction averages the k nearest outcomes.

    Distances are Euclidean over (x, y, z, dist), optionally z-scored with the
    training statistics.  Exact distance ties resolve by canonical sample
    order, in which the rows are stored.
    """

    features: np.ndarray
    outcomes: np.ndarray
    spec: KnnSpec
    shift: np.ndarray
    scale: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        Q = (_feature_rows(X) - self.shift) / self.scale
        k = min(self.spec.k, self.outcomes.size)
        out = np.empty(Q.shape[0])
        for i, q in enumerate(Q):  # batched distances would hold an (m, n, 4) temporary
            diff = self.features - q
            d2 = np.einsum("ij,ij->i", diff, diff)
            out[i] = np.mean(self.outcomes[np.argsort(d2, kind="stable")[:k]])
        return out


Regressor = Union[CartRegressor, ForestRegressor, KnnRegressor]


def fit_base_regressor(spec: RegressorSpec, data: Dataset) -> Regressor:
    """Fit one outcome regressor on single-group data (labels are not consulted).

    Raises EmptyDataset on no samples and InsufficientSamples when a Cart or
    Forest gets fewer than min_leaf samples.
    """
    n = len(data)
    if n == 0:
        raise EmptyDataset("cannot fit a regressor on an empty dataset")
    order = canonical_order(data)
    X = data.features[order]
    y = data.outcomes[order]

    if isinstance(spec, CartSpec):
        if n < spec.min_leaf:
            raise InsufficientSamples(f"Cart needs >= {spec.min_leaf} samples, got {n}")
        nodes = _grow_carts(X, y, [np.arange(n)], spec.max_depth, spec.min_leaf)[0]
        return CartRegressor(nodes, spec)

    if isinstance(spec, ForestSpec):
        if n < spec.min_leaf:
            raise InsufficientSamples(
                f"Forest needs >= {spec.min_leaf} samples, got {n}"
            )
        children = np.random.SeedSequence(spec.seed).spawn(spec.n_trees)
        trees = []
        for start in range(0, spec.n_trees, _LOCKSTEP):
            rngs = [np.random.default_rng(child) for child in children[start : start + _LOCKSTEP]]
            # a member's bootstrap rows come from its generator before its split draws
            boots = [rng.integers(0, n, size=n) for rng in rngs]
            trees += _grow_carts(
                X, y, boots, spec.max_depth, spec.min_leaf, spec.features_per_split, rngs
            )
        return ForestRegressor(tuple(trees), spec)

    if isinstance(spec, KnnSpec):
        if spec.standardize:
            shift = X.mean(axis=0)
            scale = X.std(axis=0)
            scale = np.where(scale == 0.0, 1.0, scale)
        else:
            shift = np.zeros(len(FEATURE_NAMES))
            scale = np.ones(len(FEATURE_NAMES))
        return KnnRegressor((X - shift) / scale, y, spec, shift, scale)

    raise TypeError(f"unknown regressor spec {type(spec).__name__}")


@dataclass(frozen=True)
class TLearner:
    """Two per-group regressors; the effect estimate is their prediction gap."""

    model_individual: Regressor
    model_control: Regressor
    spec: RegressorSpec

    def predict(self, X: np.ndarray) -> DifficultyEstimate:
        tau = self.model_individual.predict(X) - self.model_control.predict(X)
        return DifficultyEstimate(tau, None)


def fit_t_learner(d: Dataset, spec: RegressorSpec) -> TLearner:
    """Fit the control-side and individual-side regressors on their own samples."""
    validate_dataset(d)
    ctl_seed, ind_seed = derived_seeds(spec.seed, 2)
    model_control = fit_base_regressor(
        replace(spec, seed=ctl_seed), d.restrict_to_group(GroupLabel.CONTROL)
    )
    model_individual = fit_base_regressor(
        replace(spec, seed=ind_seed), d.restrict_to_group(GroupLabel.INDIVIDUAL)
    )
    return TLearner(model_individual, model_control, spec)
