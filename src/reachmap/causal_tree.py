"""Honest causal tree for personalized difficulty estimation.

The tree jointly learns an axis-aligned partition of the task space from both
groups' data and reports, per leaf, the difference between the mean individual
outcome and the mean control outcome.  Honesty means the partition is chosen
on one half of the data (the split half) while leaf effects are estimated on
the disjoint estimation half, so structure search cannot bias the estimates.

Split search maximises the between-child effect contrast

    gain = (n_L * n_R) / (n_L + n_R)**2 * (tau_L - tau_R)**2

over candidate thresholds placed at midpoints of consecutive distinct feature
values in the split half.  A candidate is admissible only when both children
keep at least ``min_group_leaf`` samples of each group in *both* halves, which
guarantees every leaf effect is well defined without pruning.  Ties break
toward the lowest feature index, then the lowest threshold; a point exactly at
a threshold routes right (values < threshold go left).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .domain import (
    FEATURE_NAMES,
    Dataset,
    GroupLabel,
    TaskFeatures,
    canonical_order,
    stratified_honest_split,
    validate_dataset,
)
from .errors import DegenerateSplit, MissingGroup


@dataclass(frozen=True)
class CausalTreeParams:
    """Tree hyperparameters.  ``seed`` drives the honest split and must be explicit."""

    max_depth: int = 6
    min_group_leaf: int = 5
    honest_fraction: float = 0.5
    seed: int = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_group_leaf < 1:
            raise ValueError(f"min_group_leaf must be >= 1, got {self.min_group_leaf}")
        if not 0.0 < self.honest_fraction < 1.0:
            raise ValueError(
                f"honest_fraction must be in (0, 1), got {self.honest_fraction}"
            )


@dataclass(frozen=True)
class Split:
    """An axis-aligned cut: feature_index in {0..3}, threshold in meters."""

    feature_index: int
    threshold: float
    gain: float


@dataclass(frozen=True)
class Leaf:
    leaf_id: int
    tau_hat: float
    n_individual: int
    n_control: int
    mean_individual: float
    mean_control: float


@dataclass(frozen=True)
class Internal:
    """Internal node of a causal tree, and of the baselines' CARTs."""

    split: Split
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Internal, Leaf]


@dataclass(frozen=True)
class DifficultyEstimate:
    """Estimated extra seconds relative to the control baseline at one task point.

    ``leaf_id`` identifies the partition cell for tree models and is None for
    ensembles and T-learners, which have no single leaf assignment.
    """

    tau_hat: float
    leaf_id: Optional[int]


class LeafStats(NamedTuple):
    tau_hat: float
    n_individual: int
    n_control: int
    mean_individual: float
    mean_control: float


def leaf_estimate(samples: Dataset) -> LeafStats:
    """Two-mean effect estimate over one cell: mean individual - mean control.

    Requires at least one sample of each group; raises MissingGroup otherwise.
    """
    groups = samples.groups
    ind = groups == int(GroupLabel.INDIVIDUAL)
    ctl = groups == int(GroupLabel.CONTROL)
    n_ind = int(np.count_nonzero(ind))
    n_ctl = int(np.count_nonzero(ctl))
    if n_ind == 0:
        raise MissingGroup("leaf estimate needs Individual samples")
    if n_ctl == 0:
        raise MissingGroup("leaf estimate needs Control samples")
    mean_ind = float(np.mean(samples.outcomes[ind]))
    mean_ctl = float(np.mean(samples.outcomes[ctl]))
    return LeafStats(mean_ind - mean_ctl, n_ind, n_ctl, mean_ind, mean_ctl)


@dataclass(frozen=True)
class CausalTree:
    """A fitted honest causal tree."""

    root: TreeNode
    params: CausalTreeParams
    feature_names: tuple[str, str, str, str] = FEATURE_NAMES

    def predict(self, p: TaskFeatures) -> DifficultyEstimate:
        return predict_tau(self, p)

    def leaves(self) -> Iterator[Leaf]:
        stack: list[TreeNode] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                yield node
            else:
                stack.append(node.right)
                stack.append(node.left)

    def depth(self) -> int:
        def rec(node: TreeNode) -> int:
            if isinstance(node, Leaf):
                return 0
            return 1 + max(rec(node.left), rec(node.right))

        return rec(self.root)

    def n_leaves(self) -> int:
        return sum(1 for _ in self.leaves())


class _Half:
    """Columns of one honest half, pre-extracted for the splitter."""

    __slots__ = ("X", "g", "y")

    def __init__(self, d: Dataset):
        self.X = d.features
        self.g = d.groups == int(GroupLabel.INDIVIDUAL)
        self.y = d.outcomes


#: float gains within this times max|y_centered|^2 (times the splitter's
#: weight) of the best are re-checked exactly; safely above the prefix-sum
#: error bound for n into the millions.
_GAIN_NOISE = 2.0**-30


def _best_cut(
    X: np.ndarray,
    rows: np.ndarray,
    features,
    gains_at: Callable[[int, np.ndarray, np.ndarray, np.ndarray], Optional[np.ndarray]],
    exact_gain: Callable[[np.ndarray, float], Fraction],
    scale: float,
    weight: int,
) -> Optional[Split]:
    """Split search shared by the causal tree and the CART baselines.

    For each feature, candidate thresholds sit at midpoints of consecutive
    distinct values of ``X[rows, f]``.  ``gains_at(f, order, cuts, thresholds)``
    scores them: ``order`` sorts the node's rows by the feature, ``cuts[k]`` is
    the sorted position after which candidate k cuts, and the result holds
    each candidate's float gain, -inf where it is inadmissible, or None when
    no candidate of the feature is admissible.  Candidates whose float gain is
    within ``_GAIN_NOISE * scale**2 * weight`` of the best are re-scored with
    ``exact_gain(X[rows, f], threshold)``, so that the tie rule (lowest
    feature index, then lowest threshold) and the strict gain > 0 rule apply
    to exact values.
    """
    per_feature = []
    g_star = -np.inf
    for f in features:
        f = int(f)
        v = X[rows, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        cuts = np.nonzero(vs[1:] > vs[:-1])[0]
        if cuts.size == 0:
            continue
        thresholds = 0.5 * (vs[cuts] + vs[cuts + 1])
        gains = gains_at(f, order, cuts, thresholds)
        if gains is None:
            continue
        per_feature.append((f, thresholds, gains))
        g_star = max(g_star, float(np.max(gains)))

    if not per_feature:
        return None

    # Distinct candidates can share a partition (e.g. a duplicated or mirrored
    # column), making their gains mathematically equal while the float values
    # differ in the last bits.  The documented tie rule therefore needs exact
    # arithmetic for candidates whose float gains are within summation error
    # of the max.
    tol = _GAIN_NOISE * scale * scale * weight
    if g_star <= tol:
        cutoff = -np.inf  # everything valid may be an exact tie with zero
    else:
        cutoff = g_star - (tol + 1e-9 * g_star)
    near = []
    for f, thresholds, gains in per_feature:
        for k in np.nonzero(gains > cutoff)[0]:
            near.append((f, float(thresholds[k])))
    if cutoff > -np.inf and len(near) == 1:
        return Split(near[0][0], near[0][1], g_star)

    best = None
    best_exact = Fraction(0)  # strict > 0 required to split at all
    for f, thr in near:
        exact = exact_gain(X[rows, f], thr)
        if exact > best_exact:
            best_exact = exact
            best = Split(f, thr, float(exact))
    return best


def _search_split(
    split: _Half,
    est: _Half,
    s_idx: np.ndarray,
    e_idx: np.ndarray,
    min_group_leaf: int,
) -> Optional[Split]:
    """Best effect-contrast cut of the split half's rows ``s_idx``.

    Group counts on the estimation side are obtained by binary search over
    each group's sorted feature values.
    """
    m = min_group_leaf
    y = split.y[s_idx]
    g = split.g[s_idx]
    n = s_idx.size
    n1 = int(np.count_nonzero(g))
    n0 = n - n1

    e_g = est.g[e_idx]
    e1_rows = e_idx[e_g]
    e0_rows = e_idx[~e_g]
    n1e = e1_rows.size
    n0e = e0_rows.size
    if n1 < 2 * m or n0 < 2 * m or n1e < 2 * m or n0e < 2 * m:
        return None  # no candidate can leave m of each group on both sides
    if y.max() == y.min():
        return None  # constant outcomes: every contrast is exactly zero
    # centering leaves every tau_L - tau_R contrast unchanged but keeps the
    # prefix-sum arithmetic well conditioned for offset-heavy outcomes
    yc = y - np.mean(y)
    scale = float(np.max(np.abs(yc)))

    def gains_at(f, order, cuts, thresholds):
        gs = g[order]
        ys = yc[order]
        c1 = np.cumsum(gs)[cuts]
        c0 = (cuts + 1) - c1
        s1_all = np.cumsum(np.where(gs, ys, 0.0))
        s0_all = np.cumsum(np.where(gs, 0.0, ys))
        s1 = s1_all[cuts]
        s0 = s0_all[cuts]
        S1 = s1_all[-1]
        S0 = s0_all[-1]

        n1r = n1 - c1
        n0r = n0 - c0
        valid = (c1 >= m) & (c0 >= m) & (n1r >= m) & (n0r >= m)

        c1e = np.searchsorted(np.sort(est.X[e1_rows, f]), thresholds, side="left")
        c0e = np.searchsorted(np.sort(est.X[e0_rows, f]), thresholds, side="left")
        valid &= (c1e >= m) & (n1e - c1e >= m) & (c0e >= m) & (n0e - c0e >= m)
        if not valid.any():
            return None

        with np.errstate(divide="ignore", invalid="ignore"):
            tau_l = s1 / c1 - s0 / c0
            tau_r = (S1 - s1) / n1r - (S0 - s0) / n0r
            n_l = cuts + 1.0
            n_r = n - n_l
            gains = (n_l * n_r) / float(n * n) * (tau_l - tau_r) ** 2
        return np.where(valid, gains, -np.inf)

    return _best_cut(
        split.X,
        s_idx,
        range(split.X.shape[1]),
        gains_at,
        lambda v, thr: _exact_effect_gain(v, g, y, thr),
        scale,
        1,
    )


def _exact_effect_gain(v: np.ndarray, g: np.ndarray, y: np.ndarray, thr: float) -> Fraction:
    """Candidate gain in exact rational arithmetic (ties and near-zero cases)."""
    left = v < thr
    sums = {(True, True): Fraction(0), (True, False): Fraction(0),
            (False, True): Fraction(0), (False, False): Fraction(0)}
    counts = {k: 0 for k in sums}
    for i in range(v.size):
        key = (bool(left[i]), bool(g[i]))
        sums[key] += Fraction(float(y[i]))
        counts[key] += 1
    tau_l = sums[(True, True)] / counts[(True, True)] - sums[(True, False)] / counts[(True, False)]
    tau_r = sums[(False, True)] / counts[(False, True)] - sums[(False, False)] / counts[(False, False)]
    n_l = counts[(True, True)] + counts[(True, False)]
    n_r = counts[(False, True)] + counts[(False, False)]
    n = n_l + n_r
    return Fraction(n_l * n_r, n * n) * (tau_l - tau_r) ** 2


def best_split(
    split_samples: Dataset,
    estimation_samples: Dataset,
    params: CausalTreeParams,
) -> Optional[Split]:
    """Best admissible cut of the split half, or None when no candidate has gain > 0."""
    validate_dataset(split_samples, require_both_groups=True)
    validate_dataset(estimation_samples, require_both_groups=True)
    return _search_split(
        _Half(split_samples),
        _Half(estimation_samples),
        np.arange(len(split_samples)),
        np.arange(len(estimation_samples)),
        params.min_group_leaf,
    )


def grow_causal_tree(
    split_half: Dataset, estimation_half: Dataset, params: CausalTreeParams
) -> CausalTree:
    """Grow a tree from pre-made honest halves.

    The partition is learned greedily on ``split_half``; every leaf's effect,
    means and counts come from ``estimation_half`` only.  Exposed separately
    from :func:`fit_causal_tree` so the halves can be controlled directly
    (e.g. to check that estimation-side outcomes cannot steer structure).
    """
    for name, half in (("split", split_half), ("estimation", estimation_half)):
        n_ctl, n_ind = validate_dataset(half, require_both_groups=True)
        if n_ctl < params.min_group_leaf or n_ind < params.min_group_leaf:
            raise DegenerateSplit(
                f"{name} half has {n_ctl} control / {n_ind} individual samples; "
                f"root needs at least {params.min_group_leaf} of each"
            )

    split = _Half(split_half)
    est = _Half(estimation_half)
    counter = iter(range(1 << 30))

    def build(s_idx: np.ndarray, e_idx: np.ndarray, depth: int) -> TreeNode:
        cut = None
        if depth < params.max_depth:
            cut = _search_split(split, est, s_idx, e_idx, params.min_group_leaf)
        if cut is None:
            stats = leaf_estimate(estimation_half.subset(e_idx))
            return Leaf(next(counter), *stats)
        s_left = split.X[s_idx, cut.feature_index] < cut.threshold
        e_left = est.X[e_idx, cut.feature_index] < cut.threshold
        left = build(s_idx[s_left], e_idx[e_left], depth + 1)
        right = build(s_idx[~s_left], e_idx[~e_left], depth + 1)
        return Internal(cut, left, right)

    root = build(
        np.arange(len(split_half)), np.arange(len(estimation_half)), 0
    )
    return CausalTree(root=root, params=params)


def fit_causal_tree(d: Dataset, params: CausalTreeParams) -> CausalTree:
    """Honest fit: seeded stratified split of ``d``, then :func:`grow_causal_tree`.

    Deterministic given the dataset as a multiset and the params.  Raises
    DegenerateSplit when either honest half cannot host a root leaf.
    """
    validate_dataset(d, require_both_groups=True)
    split_half, estimation_half = stratified_honest_split(
        d, params.honest_fraction, params.seed
    )
    return grow_causal_tree(split_half, estimation_half, params)


def _route(root, v: np.ndarray):
    """The leaf that feature vector ``v`` reaches: value < threshold goes left.

    Walks causal and CART trees alike; both share the ``Internal`` node type.
    """
    node = root
    while isinstance(node, Internal):
        if v[node.split.feature_index] < node.split.threshold:
            node = node.left
        else:
            node = node.right
    return node


def predict_tau(tree: CausalTree, p: TaskFeatures) -> DifficultyEstimate:
    """Route a point to its leaf and return its effect."""
    leaf = _route(tree.root, p.as_array())
    return DifficultyEstimate(leaf.tau_hat, leaf.leaf_id)


@dataclass(frozen=True)
class CausalForest:
    """Ensemble of honest trees fit on stratified subsamples; predicts the mean effect."""

    trees: tuple[CausalTree, ...]
    params: CausalTreeParams
    n_trees: int
    subsample_ratio: float

    def predict(self, p: TaskFeatures) -> DifficultyEstimate:
        v = p.as_array()
        total = 0.0
        for t in self.trees:
            total += _route(t.root, v).tau_hat
        return DifficultyEstimate(total / len(self.trees), None)


def _member_seeds(seed: int, n_trees: int) -> list[tuple[int, int]]:
    """Per-member (subsample_seed, fit_seed) pairs, derived by spawning SeedSequences."""
    children = np.random.SeedSequence(seed).spawn(n_trees)
    out = []
    for child in children:
        state = child.generate_state(2)
        out.append((int(state[0]), int(state[1])))
    return out


def fit_causal_forest(
    d: Dataset,
    params: CausalTreeParams,
    n_trees: int,
    subsample_ratio: float,
) -> CausalForest:
    """Fit an ensemble of honest trees, each on a seeded stratified subsample.

    Subsampling is without replacement: each group contributes
    floor(subsample_ratio * n_g) samples, drawn from canonical order so the
    result is invariant to input row order.  Raises DegenerateSplit when a
    subsample cannot host a root leaf.
    """
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    if not 0.0 < subsample_ratio <= 1.0:
        raise ValueError(f"subsample_ratio must be in (0, 1], got {subsample_ratio}")
    validate_dataset(d, require_both_groups=True)

    order = canonical_order(d)
    groups_in_order = d.groups[order]
    by_group = {
        g: order[groups_in_order == g] for g in (0, 1)
    }

    trees = []
    for sub_seed, fit_seed in _member_seeds(params.seed, n_trees):
        rng = np.random.default_rng(sub_seed)
        picked = []
        for g in (0, 1):
            rows = by_group[g]
            k = int(math.floor(subsample_ratio * rows.size))
            if k == 0:
                raise DegenerateSplit(
                    f"subsample would have no {GroupLabel(g).name} samples"
                )
            picked.append(rng.permutation(rows)[:k])
        sub = d.subset(np.concatenate(picked))
        trees.append(fit_causal_tree(sub, replace(params, seed=fit_seed)))
    return CausalForest(
        trees=tuple(trees),
        params=params,
        n_trees=n_trees,
        subsample_ratio=float(subsample_ratio),
    )
