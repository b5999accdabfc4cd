"""Reference tree growers: one node at a time, depth-first, recursive.

This is the split search and growth the library used before it scored many
nodes per numpy pass.  Each node sorts its own rows per feature, and the
near-tie re-check adds one ``Fraction`` per element.  Each ``build`` returns
its subtree's nodes as a pre-order list: the split, then its left subtree,
then its right one.  The batched growers must produce the same trees, so
tests compare the serialized models of both.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from reachmap.baselines import (
    CartRegressor,
    CartSpec,
    ForestRegressor,
    ForestSpec,
    RegLeaf,
    TLearner,
)
from reachmap.causal_tree import (
    _GAIN_NOISE,
    CausalForest,
    CausalTree,
    CausalTreeParams,
    Split,
    leaf_estimate,
)
from reachmap.domain import (
    Dataset,
    GroupLabel,
    canonical_order,
    stratified_honest_split,
)
from reachmap.errors import DegenerateSplit


def best_cut(
    X: np.ndarray,
    rows: np.ndarray,
    features,
    gains_at: Callable,
    exact_gain: Callable[[np.ndarray, float], Fraction],
    scale: float,
    weight: int,
) -> Optional[Split]:
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
    tol = _GAIN_NOISE * scale * scale * weight
    if g_star <= tol:
        cutoff = -np.inf
    else:
        cutoff = g_star - (tol + 1e-9 * g_star)
    near = []
    for f, thresholds, gains in per_feature:
        for k in np.nonzero(gains > cutoff)[0]:
            near.append((f, float(thresholds[k])))
    if cutoff > -np.inf and len(near) == 1:
        return Split(near[0][0], near[0][1], g_star)

    best = None
    best_exact = Fraction(0)
    for f, thr in near:
        exact = exact_gain(X[rows, f], thr)
        if exact > best_exact:
            best_exact = exact
            best = Split(f, thr, float(exact))
    return best


def exact_effect_gain(v: np.ndarray, g: np.ndarray, y: np.ndarray, thr: float) -> Fraction:
    """Effect-contrast gain with one ``Fraction`` per element."""
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


def exact_sse_gain(v: np.ndarray, y: np.ndarray, thr: float) -> Fraction:
    """SSE reduction with one ``Fraction`` per element."""
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


class _Half:
    def __init__(self, d: Dataset):
        self.X = d.features
        self.g = d.groups == int(GroupLabel.INDIVIDUAL)
        self.y = d.outcomes


def search_split(split, est, s_idx, e_idx, min_group_leaf) -> Optional[Split]:
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
        return None
    if y.max() == y.min():
        return None
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

    return best_cut(
        split.X, s_idx, range(split.X.shape[1]), gains_at,
        lambda v, thr: exact_effect_gain(v, g, y, thr), scale, 1,
    )


def grow_causal_tree(split_half: Dataset, estimation_half: Dataset, params: CausalTreeParams) -> CausalTree:
    for name, half in (("split", split_half), ("estimation", estimation_half)):
        n_ind = int(np.count_nonzero(half.groups == int(GroupLabel.INDIVIDUAL)))
        n_ctl = len(half) - n_ind
        if n_ctl < params.min_group_leaf or n_ind < params.min_group_leaf:
            raise DegenerateSplit(
                f"{name} half has {n_ctl} control / {n_ind} individual samples; "
                f"root needs at least {params.min_group_leaf} of each"
            )
    split = _Half(split_half)
    est = _Half(estimation_half)

    def build(s_idx, e_idx, depth):
        cut = None
        if depth < params.max_depth:
            cut = search_split(split, est, s_idx, e_idx, params.min_group_leaf)
        if cut is None:
            return [leaf_estimate(estimation_half.subset(e_idx))]
        s_left = split.X[s_idx, cut.feature_index] < cut.threshold
        e_left = est.X[e_idx, cut.feature_index] < cut.threshold
        left = build(s_idx[s_left], e_idx[e_left], depth + 1)
        right = build(s_idx[~s_left], e_idx[~e_left], depth + 1)
        return [cut] + left + right

    nodes = build(np.arange(len(split_half)), np.arange(len(estimation_half)), 0)
    return CausalTree(tuple(nodes), params)


def fit_causal_tree(d: Dataset, params: CausalTreeParams) -> CausalTree:
    split_half, estimation_half = stratified_honest_split(d, params.honest_fraction, params.seed)
    return grow_causal_tree(split_half, estimation_half, params)


def fit_causal_forest(d: Dataset, params: CausalTreeParams, n_trees: int,
                      subsample_ratio: float) -> CausalForest:
    """Members one at a time, each fit by :func:`fit_causal_tree`."""
    order = canonical_order(d)
    groups_in_order = d.groups[order]
    by_group = {g: order[groups_in_order == g] for g in (0, 1)}
    trees = []
    for child in np.random.SeedSequence(params.seed).spawn(n_trees):
        sub_seed, fit_seed = (int(s) for s in child.generate_state(2))
        rng = np.random.default_rng(sub_seed)
        picked = []
        for g in (0, 1):
            rows = by_group[g]
            k = int(math.floor(subsample_ratio * rows.size))
            picked.append(rng.permutation(rows)[:k])
        sub = d.subset(np.concatenate(picked))
        trees.append(fit_causal_tree(sub, replace(params, seed=fit_seed)))
    return CausalForest(tuple(trees), params, float(subsample_ratio))


def best_cart_cut(X, y, idx, features, min_leaf) -> Optional[Split]:
    n = idx.size
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

    return best_cut(X, idx, features, gains_at, lambda v, thr: exact_sse_gain(v, y, thr), scale, n)


def grow_cart(X, y, max_depth, min_leaf, mtry=None, rng=None):
    all_features = np.arange(X.shape[1])

    def build(idx, depth):
        y_node = y[idx]
        n = idx.size
        if depth >= max_depth or n < 2 * min_leaf or y_node.max() == y_node.min():
            return [RegLeaf(float(np.mean(y_node)), n)]
        if mtry is None or mtry >= X.shape[1]:
            features = all_features
        else:
            features = np.sort(rng.choice(X.shape[1], size=mtry, replace=False))
        cut = best_cart_cut(X, y_node, idx, features, min_leaf)
        if cut is None:
            return [RegLeaf(float(np.mean(y_node)), n)]
        left_mask = X[idx, cut.feature_index] < cut.threshold
        return [cut] + build(idx[left_mask], depth + 1) + build(idx[~left_mask], depth + 1)

    return tuple(build(np.arange(X.shape[0]), 0))


def fit_base_regressor(spec, data: Dataset):
    """Cart and Forest specs only: the tree-growing regressors."""
    n = len(data)
    order = canonical_order(data)
    X = data.features[order]
    y = data.outcomes[order]
    if isinstance(spec, CartSpec):
        return CartRegressor(grow_cart(X, y, spec.max_depth, spec.min_leaf), spec)
    assert isinstance(spec, ForestSpec)
    trees = []
    for child in np.random.SeedSequence(spec.seed).spawn(spec.n_trees):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, n, size=n)
        trees.append(
            grow_cart(X[rows], y[rows], spec.max_depth, spec.min_leaf,
                      mtry=spec.features_per_split, rng=rng)
        )
    return ForestRegressor(tuple(trees), spec)


def fit_t_learner(d: Dataset, spec) -> TLearner:
    ctl_seed, ind_seed = (int(s) for s in np.random.SeedSequence(spec.seed).generate_state(2))
    model_control = fit_base_regressor(
        replace(spec, seed=ctl_seed), d.restrict_to_group(GroupLabel.CONTROL)
    )
    model_individual = fit_base_regressor(
        replace(spec, seed=ind_seed), d.restrict_to_group(GroupLabel.INDIVIDUAL)
    )
    return TLearner(model_individual, model_control, spec)
