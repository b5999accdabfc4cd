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
from typing import NamedTuple, Optional, Union

import numpy as np

from .causal_tree import (
    _ALL,
    MAX_TREES,
    DifficultyEstimate,
    _concat_rows,
    _dyadic,
    _feature_rows,
    _forest_mean,
    _grow,
    _leaf_values,
    _Node,
    _node_columns,
    _Ranked,
    _spread,
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


class RegLeaf(NamedTuple):
    """A CART leaf: the mean outcome of its ``n`` rows."""

    value: float
    n: int


#: t_forest members grown side by side.  Lockstep growth holds the pending
#: rows of this many members at once (int32 each) and scores one node of
#: each per round, so rounds, and their numpy calls, are this many times
#: fewer; memory bounds it.  With 2000 samples, 50 take about 12 % less
#: time than 25 and about 0.5 MB more peak resident memory, because a
#: round opens and partitions its rows in chunks (``_CHUNK_ROWS``).
_LOCKSTEP = 50


#: float64 elements of one chunk of k-NN query differences (about 1 MB)
_KNN_CHUNK = 1 << 17

#: 32-bit words a t_forest member takes from its generator at a time for
#: its feature draws (:func:`_words`); the draws do not depend on it
_WORD_CHUNK = 256


def _words(rng: np.random.Generator):
    """The successive ``next_uint32`` words of ``rng``, taken ``_WORD_CHUNK`` at a time.

    Taking words ahead of their use changes nothing only while nothing
    else draws from ``rng`` afterwards.
    """
    while True:
        yield from rng.integers(0, 1 << 32, size=_WORD_CHUNK, dtype=np.uint32).tolist()


def _bounded(words, j: int) -> int:
    """A draw on [0, j], j >= 1, from ``words`` by Lemire's method, as numpy's
    ``buffered_bounded_lemire_uint32`` makes it."""
    m = next(words) * (j + 1)
    if m & 0xFFFFFFFF < j + 1:
        threshold = (0xFFFFFFFF - j) % (j + 1)
        while m & 0xFFFFFFFF < threshold:
            m = next(words) * (j + 1)
    return m >> 32


def _choice(words, n: int, k: int) -> list:
    """``sorted(rng.choice(n, k, replace=False).tolist())`` for k < n <= 10000,
    from the words of ``rng``: numpy's Floyd's algorithm, then the draws of
    its shuffle of the picks, which sorting undoes."""
    picked = []
    for j in range(n - k, n):
        v = _bounded(words, j)
        picked.append(j if v in picked else v)
    for i in range(k - 1, 0, -1):
        _bounded(words, i)
    picked.sort()
    return picked


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


class _SseSearch:
    """Split search of CARTs over the rows of ``X``/``y``.

    A node's stats are its centred outcomes' sum of squares, their sum, and
    its SSE.  SSE gains grow with the node size, so the near-tie window
    (the node's weight) does too.
    """

    def __init__(self, X: _Ranked, y: np.ndarray, max_depth: int, min_leaf: int, draws: bool):
        self.matrices = (X,)
        self.y = y  # by matrix row: node row p's outcome is y[X.rows[p]]
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.features = None if draws else _ALL

    def open(self, room: np.ndarray, nodes: list) -> list:
        """A node to search, or a leaf, per tuple of row arrays in ``nodes``.

        A node is searched when it has depth to spare, at least 2 * min_leaf
        rows, and outcomes that are not all equal (nothing to reduce).
        """
        rows, b = _concat_rows(nodes, 0)
        varies, means, yc, scales = _spread(self.outcomes(rows), b)
        search = (room & (np.diff(b) >= 2 * self.min_leaf) & varies).tolist()
        b = b.tolist()
        out = []
        for k, (node_rows, s, e, go) in enumerate(zip(nodes, b, b[1:], search)):
            if not go:
                out.append(RegLeaf(float(means[k]), e - s))
                continue
            c = yc[s:e]
            q_total = float(np.dot(c, c))
            s_total = float(np.add.reduce(c))  # np.sum's arithmetic
            stats = (q_total, s_total, q_total - s_total * s_total / (e - s))
            out.append(_Node(node_rows, self.features, means[k], scales[k], e - s, stats))
        return out

    def leaf(self, node: _Node) -> RegLeaf:
        return RegLeaf(float(node.mean), node.weight)

    def outcomes(self, rows: np.ndarray) -> np.ndarray:
        return self.y.take(self.matrices[0].matrix_rows(rows))

    def exact(self, node: _Node, f: int, thr: float) -> Fraction:
        rows = node.rows[0]
        return _exact_sse_gain(self.matrices[0].value(f, rows), self.outcomes(rows), thr)

    def gains(self, rows, ks, lens, ids, fcol, ranks, distinct):
        """Block scorer of the SSE reduction."""
        ys = self.outcomes(ids)
        ys -= _node_columns(rows, ks, "mean")[:, None]
        s = np.cumsum(ys, axis=1)[:, :-1]
        q = np.cumsum(np.multiply(ys, ys, out=ys), axis=1)[:, :-1]
        del ys
        n_l = np.arange(1.0, s.shape[1] + 1)
        n_r = lens[:, None] - n_l
        valid = n_r >= self.min_leaf
        valid &= distinct
        valid[:, : self.min_leaf - 1] = False  # n_l < min_leaf
        q_total, s_total, sse_parent = (col[:, None] for col in _node_columns(rows, ks, "stats").T)
        # sse_parent - (q - s*s / n_l) - ((q_total - q) - (s_total - s)**2 / n_r),
        # operation by operation, in place
        sse_r = s_total - s
        sse_r *= sse_r
        sse_r /= n_r
        np.subtract(q_total - q, sse_r, out=sse_r)
        gains = s * s
        gains /= n_l
        np.subtract(q, gains, out=gains)
        np.subtract(sse_parent, gains, out=gains)
        gains -= sse_r
        return np.where(valid, gains, -np.inf)


def _grow_carts(
    X: _Ranked,
    y: np.ndarray,
    samples: np.ndarray,
    max_depth: int,
    min_leaf: int,
    mtry: Optional[int] = None,
    rngs: Optional[list] = None,
) -> list[tuple]:
    """The pre-order nodes of one CART per row of ``samples``, the rows of
    ``X``/``y`` it is grown on (a row may repeat), grown by
    :func:`causal_tree._grow`.

    Within a node, value ties keep the order of its rows in its sample.
    With ``mtry`` below the feature count, each tree draws a node's features
    from its own generator in ``rngs``, in depth-first pre-order, so the
    trees grow in lockstep.
    """
    n_trees, n = samples.shape
    n_features = len(X.sizes)
    draws = mtry is not None and mtry < n_features
    # the trees' samples, one after another, so each tree's rows are a range
    search = _SseSearch(X.take(samples.ravel()), y, max_depth, min_leaf, draws)

    words = [_words(rng) for rng in rngs or ()]

    def draw(t: int) -> list:
        return _choice(words[t], n_features, mtry)

    roots = (np.arange(t * n, (t + 1) * n, dtype=np.int32) for t in range(n_trees))
    return _grow(search, [(rows,) for rows in roots], draw if draws else None)


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
        """Mean outcome of each query's k nearest rows, nearest first.

        Queries go in chunks whose (chunk, n, 4) differences take about
        ``_KNN_CHUNK`` float64s.  The k-th smallest distance bounds each
        query's candidates; a stable sort of those few orders them as a
        stable sort of all n distances would.
        """
        Q = (_feature_rows(X) - self.shift) / self.scale
        k = min(self.spec.k, self.outcomes.size)
        out = np.empty(Q.shape[0])
        step = max(1, _KNN_CHUNK // self.features.size)
        for start in range(0, Q.shape[0], step):
            diff = self.features - Q[start : start + step, None, :]
            d2 = np.einsum("qij,qij->qi", diff, diff)
            del diff
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
            for i, (row, bound) in enumerate(zip(d2, kth.tolist()), start):
                near = np.flatnonzero(row <= bound)
                out[i] = np.mean(self.outcomes[near[np.argsort(row[near], kind="stable")[:k]]])
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
        rows = np.arange(n, dtype=np.int32)[None]
        nodes = _grow_carts(_Ranked.of(X), y, rows, spec.max_depth, spec.min_leaf)[0]
        return CartRegressor(nodes, spec)

    if isinstance(spec, ForestSpec):
        if n < spec.min_leaf:
            raise InsufficientSamples(
                f"Forest needs >= {spec.min_leaf} samples, got {n}"
            )
        children = np.random.SeedSequence(spec.seed).spawn(spec.n_trees)
        ranked = _Ranked.of(X)
        trees = []
        for start in range(0, spec.n_trees, _LOCKSTEP):
            rngs = [np.random.default_rng(child) for child in children[start : start + _LOCKSTEP]]
            # a member's bootstrap rows come from its generator, then its
            # split draws, and nothing after them: so the draws may take
            # words ahead of their use (_words)
            boots = np.empty((len(rngs), n), dtype=np.int32)
            for t, rng in enumerate(rngs):
                boots[t] = rng.integers(0, n, size=n)
            trees += _grow_carts(
                ranked, y, boots, spec.max_depth, spec.min_leaf, spec.features_per_split, rngs
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


def side_specs(spec: RegressorSpec) -> tuple[RegressorSpec, RegressorSpec]:
    """The control-side and individual-side specs of a T-learner: ``spec``
    with the first and the second of two seeds derived from its own."""
    ctl_seed, ind_seed = derived_seeds(spec.seed, 2)
    return replace(spec, seed=ctl_seed), replace(spec, seed=ind_seed)


def fit_t_learner(d: Dataset, spec: RegressorSpec) -> TLearner:
    """Fit the control-side and individual-side regressors on their own samples."""
    validate_dataset(d)
    ctl_spec, ind_spec = side_specs(spec)
    model_control = fit_base_regressor(ctl_spec, d.restrict_to_group(GroupLabel.CONTROL))
    model_individual = fit_base_regressor(ind_spec, d.restrict_to_group(GroupLabel.INDIVIDUAL))
    return TLearner(model_individual, model_control, spec)
