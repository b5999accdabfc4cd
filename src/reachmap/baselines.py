"""T-learner baselines: per-group outcome regressors whose predictions subtract.

The comparison estimators fit one regressor to the individual's outcomes and
one to the control group's, then report the difference of the two predictions
at a task point.  Base learners are a variance-reduction CART, a bagged forest
of CARTs with per-split feature sampling, and k-nearest-neighbours averaging.

The CART shares the causal tree's split search, internal node type and router
(:mod:`reachmap.causal_tree`): thresholds at midpoints of consecutive distinct
values, ties to the lowest feature index then lowest threshold, values <
threshold route left, and a split must strictly reduce the sum of squared
errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .causal_tree import DifficultyEstimate, Internal, Split, _best_cut, _route
from .domain import Dataset, GroupLabel, TaskFeatures, canonical_order, validate_dataset
from .errors import EmptyDataset, InsufficientSamples

N_FEATURES = 4


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
        if self.n_trees < 1 or self.max_depth < 0 or self.min_leaf < 1:
            raise ValueError("n_trees, max_depth, min_leaf must be positive")
        if not 1 <= self.features_per_split <= N_FEATURES:
            raise ValueError(
                f"features_per_split must be in 1..{N_FEATURES}, "
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


RegNode = Union[Internal, RegLeaf]


def _exact_sse_gain(v: np.ndarray, y: np.ndarray, thr: float) -> Fraction:
    left = v < thr

    def sse(values) -> Fraction:
        total = Fraction(0)
        total_sq = Fraction(0)
        count = 0
        for val in values:
            fv = Fraction(float(val))
            total += fv
            total_sq += fv * fv
            count += 1
        return total_sq - total * total / count

    return sse(y) - sse(y[left]) - sse(y[~left])


def _best_cart_cut(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    features: np.ndarray,
    min_leaf: int,
) -> Optional[Split]:
    """Max SSE-reduction cut over the given features, or None if no strict gain."""
    n = idx.size
    # center at the node mean: keeps the prefix-sum SSE arithmetic stable
    yc = y - np.mean(y)
    scale = float(np.max(np.abs(yc)))
    if scale == 0.0:
        return None
    q_total = float(np.dot(yc, yc))
    s_total = float(np.sum(yc))
    sse_parent = q_total - s_total * s_total / n

    def gains_at(f, order, cuts, thresholds):
        n_l = cuts + 1
        n_r = n - n_l
        valid = (n_l >= min_leaf) & (n_r >= min_leaf)
        if not valid.any():
            return None
        ys = yc[order]
        s = np.cumsum(ys)[cuts]
        q = np.cumsum(ys * ys)[cuts]
        sse_l = q - s * s / n_l
        sse_r = (q_total - q) - (s_total - s) ** 2 / n_r
        return np.where(valid, sse_parent - sse_l - sse_r, -np.inf)

    # SSE gains grow with the node size, so the near-tie window does too
    return _best_cut(
        X, idx, features, gains_at, lambda v, thr: _exact_sse_gain(v, y, thr), scale, n
    )


def _grow_cart(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_leaf: int,
    mtry: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> RegNode:
    all_features = np.arange(X.shape[1])

    def build(idx: np.ndarray, depth: int) -> RegNode:
        y_node = y[idx]
        n = idx.size
        if (
            depth >= max_depth
            or n < 2 * min_leaf
            or y_node.max() == y_node.min()  # pure node: nothing to reduce
        ):
            return RegLeaf(float(np.mean(y_node)), n)
        if mtry is None or mtry >= X.shape[1]:
            features = all_features
        else:
            features = np.sort(rng.choice(X.shape[1], size=mtry, replace=False))
        cut = _best_cart_cut(X, y_node, idx, features, min_leaf)
        if cut is None:
            return RegLeaf(float(np.mean(y_node)), n)
        left_mask = X[idx, cut.feature_index] < cut.threshold
        return Internal(
            cut,
            build(idx[left_mask], depth + 1),
            build(idx[~left_mask], depth + 1),
        )

    return build(np.arange(X.shape[0]), 0)


@dataclass(frozen=True)
class CartRegressor:
    root: RegNode
    spec: CartSpec

    def predict(self, p: TaskFeatures) -> float:
        return _route(self.root, p.as_array()).value


@dataclass(frozen=True)
class ForestRegressor:
    roots: tuple[RegNode, ...]
    spec: ForestSpec

    def predict(self, p: TaskFeatures) -> float:
        v = p.as_array()
        return sum(_route(root, v).value for root in self.roots) / len(self.roots)


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

    def predict(self, p: TaskFeatures) -> float:
        q = (p.as_array() - self.shift) / self.scale
        diff = self.features - q
        d2 = np.einsum("ij,ij->i", diff, diff)
        k = min(self.spec.k, self.outcomes.size)
        order = np.lexsort((np.arange(d2.size), d2))[:k]
        return float(np.mean(self.outcomes[order]))


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
        return CartRegressor(_grow_cart(X, y, spec.max_depth, spec.min_leaf), spec)

    if isinstance(spec, ForestSpec):
        if n < spec.min_leaf:
            raise InsufficientSamples(
                f"Forest needs >= {spec.min_leaf} samples, got {n}"
            )
        roots = []
        for child in np.random.SeedSequence(spec.seed).spawn(spec.n_trees):
            rng = np.random.default_rng(child)
            rows = rng.integers(0, n, size=n)  # bootstrap with replacement
            roots.append(
                _grow_cart(
                    X[rows],
                    y[rows],
                    spec.max_depth,
                    spec.min_leaf,
                    mtry=spec.features_per_split,
                    rng=rng,
                )
            )
        return ForestRegressor(tuple(roots), spec)

    if isinstance(spec, KnnSpec):
        if spec.standardize:
            shift = X.mean(axis=0)
            scale = X.std(axis=0)
            scale = np.where(scale == 0.0, 1.0, scale)
        else:
            shift = np.zeros(N_FEATURES)
            scale = np.ones(N_FEATURES)
        return KnnRegressor((X - shift) / scale, y, spec, shift, scale)

    raise TypeError(f"unknown regressor spec {type(spec).__name__}")


def predict_base(r: Regressor, p: TaskFeatures) -> float:
    return r.predict(p)


@dataclass(frozen=True)
class TLearner:
    """Two per-group regressors; the effect estimate is their prediction gap."""

    model_individual: Regressor
    model_control: Regressor
    spec: RegressorSpec

    def predict(self, p: TaskFeatures) -> DifficultyEstimate:
        return predict_t_learner(self, p)


def _side_seeds(seed: int) -> tuple[int, int]:
    """(control_seed, individual_seed) derived by splitting the spec seed."""
    state = np.random.SeedSequence(seed).generate_state(2)
    return int(state[0]), int(state[1])


def fit_t_learner(d: Dataset, spec: RegressorSpec) -> TLearner:
    """Fit the control-side and individual-side regressors on their own samples."""
    validate_dataset(d, require_both_groups=True)
    ctl_seed, ind_seed = _side_seeds(spec.seed)
    model_control = fit_base_regressor(
        replace(spec, seed=ctl_seed), d.restrict_to_group(GroupLabel.CONTROL)
    )
    model_individual = fit_base_regressor(
        replace(spec, seed=ind_seed), d.restrict_to_group(GroupLabel.INDIVIDUAL)
    )
    return TLearner(model_individual, model_control, spec)


def predict_t_learner(t: TLearner, p: TaskFeatures) -> DifficultyEstimate:
    tau = predict_base(t.model_individual, p) - predict_base(t.model_control, p)
    return DifficultyEstimate(tau, None)
