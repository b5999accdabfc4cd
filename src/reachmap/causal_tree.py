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
from itertools import compress
from typing import Callable, Iterator, NamedTuple, Optional, Protocol

import numpy as np

from .domain import (
    FEATURE_NAMES,
    Dataset,
    GroupLabel,
    canonical_order,
    derived_seeds,
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
    """A causal-tree leaf; its leaf id is its rank among the tree's leaves."""

    tau_hat: float
    n_individual: int
    n_control: int
    mean_individual: float
    mean_control: float


@dataclass(frozen=True)
class DifficultyEstimate:
    """Estimated extra seconds relative to the control baseline at m task points.

    ``tau_hat`` is an (m,) float64 array.  ``leaf_id``, an (m,) integer array,
    identifies each point's partition cell for tree models and is None for
    ensembles and T-learners, which have no single leaf assignment.
    """

    tau_hat: np.ndarray
    leaf_id: Optional[np.ndarray]


class DifficultyPredictor(Protocol):
    def predict(self, X: np.ndarray) -> DifficultyEstimate: ...


def leaf_estimate(samples: Dataset) -> Leaf:
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
    return Leaf(mean_ind - mean_ctl, n_ind, n_ctl, mean_ind, mean_ctl)


@dataclass(frozen=True)
class CausalTree:
    """A fitted honest causal tree: its splits and leaves in depth-first
    pre-order, each split followed by its left subtree, then its right one."""

    nodes: tuple
    params: CausalTreeParams

    def predict(self, X: np.ndarray) -> DifficultyEstimate:
        """Route each row of the (m, 4) ``X`` to its leaf and return its effect."""
        X = _feature_rows(X)
        tau = np.empty(X.shape[0])
        leaf_id = np.empty(X.shape[0], dtype=np.int64)
        for rank, leaf, rows in _route(self.nodes, X):
            tau[rows] = leaf.tau_hat
            leaf_id[rows] = rank
        return DifficultyEstimate(tau, leaf_id)

    def leaves(self) -> tuple[Leaf, ...]:
        """The leaves from left to right: ``leaves()[k]`` is leaf k."""
        return tuple(node for node in self.nodes if isinstance(node, Leaf))

    def depth(self) -> int:
        deepest = 0
        pending = [0]  # depths of the nodes still to come, next on top
        for node in self.nodes:
            d = pending.pop()
            if isinstance(node, Split):
                pending += [d + 1, d + 1]
            else:
                deepest = max(deepest, d)
        return deepest

    def n_leaves(self) -> int:
        return len(self.leaves())


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

#: elements in one padded block of (node, feature) rows.  The scorer's
#: temporaries are a few dozen arrays of this size, and a node whose rows
#: do not fit together is scored one row at a time, so its temporaries are
#: those of a per-node search.
_BLOCK_CAP = 4096


class _Fork(NamedTuple):
    """Growth record of an internal node: its split and its children's record indices."""

    split: Split
    left: int
    right: int


def _preorder(records: list) -> tuple:
    """The nodes of the tree rooted at record 0 in depth-first pre-order;
    records are ``_Fork`` or leaves."""
    nodes = []
    stack = [0]
    while stack:
        r = records[stack.pop()]
        if isinstance(r, _Fork):
            nodes.append(r.split)
            stack += [r.right, r.left]
        else:
            nodes.append(r)
    return tuple(nodes)


def _mean(y: np.ndarray) -> np.float64:
    """``np.mean(y)`` of a 1-d float array, bit for bit, without its Python overhead."""
    return np.add.reduce(y) / y.size


def _score_block(X: np.ndarray, rows: list, block_gains: Callable):
    """Gains and thresholds of every cut of the (node, feature) ``rows``.

    Row r holds ``X[node.rows, f]``, padded with +inf, and is sorted stably,
    so equal values keep the node's row order, as a per-node stable sort
    does.  Column k is the cut after sorted position k, at the midpoint of
    positions k and k+1.  ``block_gains(rows, lens, sort, distinct,
    thresholds)`` scores every column with the kind's float expression and
    returns -inf where a cut is inadmissible.  ``sort(flat, fill)`` lays out
    per-row values (the rows' arrays concatenated) in the block's sorted
    order, ``fill`` in the padding.  Row-wise cumulative sums are sequential,
    so they carry the same bits as per-node ones.  Cuts between equal values
    are not ``distinct``; the cuts at and after a row's last value leave no
    samples on the right, which the kinds' count rules reject.
    """
    lens = np.array([node.rows.size for node, _ in rows])
    mask = np.arange(lens.max()) < lens[:, None]
    flat = X[np.concatenate([node.rows for node, _ in rows]), np.repeat([f for _, f in rows], lens)]
    padded = np.full(mask.shape, np.inf)
    padded[mask] = flat
    order = np.argsort(padded, axis=1, kind="stable")
    del padded
    # the padding sorts last, so sorted position j < lens[r] of row r holds
    # the row's own value number order[r, j]
    src = np.where(mask, (np.cumsum(lens) - lens)[:, None] + order, flat.size)
    del order, mask

    def sort(values: np.ndarray, fill) -> np.ndarray:
        return np.append(values, fill)[src]

    vs = sort(flat, np.inf)
    del flat
    thresholds = 0.5 * (vs[:, :-1] + vs[:, 1:])
    distinct = vs[:, 1:] > vs[:, :-1]
    del vs
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = block_gains(rows, lens, sort, distinct, thresholds)
    return gains, thresholds


def _pick(
    batch: list, gains: np.ndarray, thresholds: np.ndarray, exact_gain: Callable, out: list
) -> None:
    """Choose the split of each (slot, node) in ``batch`` from its rows' gains.

    The rows of ``gains`` are each node's features in ascending order.
    Candidates whose float gain is within ``_GAIN_NOISE * scale**2 *
    weight`` of the node's best are re-scored with ``exact_gain(node, f,
    threshold)``, so that the tie rule (lowest feature index, then lowest
    threshold) and the strict gain > 0 rule apply to exact values.
    """
    counts = [len(node.features) for _, node in batch]
    starts = np.cumsum([0] + counts[:-1])
    # fmax: a feature whose float gains hold a NaN does not set the best
    node_best = np.fmax.reduceat(gains.max(axis=1), starts).tolist()
    cutoffs = []
    for (_, node), g_star in zip(batch, node_best):
        tol = _GAIN_NOISE * node.scale * node.scale * node.weight
        if g_star == -math.inf:
            cutoffs.append(math.inf)  # no admissible candidate
        elif g_star > tol:
            cutoffs.append(g_star - (tol + 1e-9 * g_star))
        else:
            # everything valid may be an exact tie with zero; a NaN best
            # (every admissible float gain is NaN) re-checks them all too
            cutoffs.append(-math.inf)

    # Distinct candidates can share a partition (e.g. a duplicated or mirrored
    # column), making their gains mathematically equal while the float values
    # differ in the last bits.  The documented tie rule therefore needs exact
    # arithmetic for candidates whose float gains are within summation error
    # of the max.
    near: list[list] = [[] for _ in batch]
    node_of_row = np.repeat(np.arange(len(batch)), counts).tolist()
    feature_of_row = [f for _, node in batch for f in node.features]
    flat = np.flatnonzero(gains > np.repeat(cutoffs, counts)[:, None])
    for r, k in zip(*(a.tolist() for a in np.divmod(flat, gains.shape[1]))):
        near[node_of_row[r]].append((feature_of_row[r], float(thresholds[r, k])))

    for (slot, node), g_star, cutoff, cands in zip(batch, node_best, cutoffs, near):
        if cutoff > -math.inf and len(cands) == 1:
            out[slot] = Split(cands[0][0], cands[0][1], g_star)
            continue
        best = None
        best_exact = Fraction(0)  # strict > 0 required to split at all
        for f, thr in cands:
            exact = exact_gain(node, f, thr)
            if exact > best_exact:
                best_exact = exact
                best = Split(f, thr, float(exact))
        out[slot] = best


def _best_cuts(
    X: np.ndarray, nodes: list, block_gains: Callable, exact_gain: Callable
) -> list[Optional[Split]]:
    """Best admissible cut of each of the independent ``nodes``, or None.

    Split search shared by the causal tree and the CART baselines.  A node
    has ``rows`` (indices into ``X``, in the order that breaks value ties),
    ascending ``features``, ``scale`` and ``weight`` (the near-tie window),
    and ``cost``, the elements one of its rows takes in a block.  Candidate
    thresholds sit at midpoints of consecutive distinct values of
    ``X[rows, f]``.  Nodes are packed, whole and smallest first, into blocks
    of about ``_BLOCK_CAP`` elements, and each block is sorted and scored in
    a few numpy calls.
    """
    out: list[Optional[Split]] = [None] * len(nodes)
    batch: list = []
    n_rows = 0

    def flush() -> None:
        rows = [(node, f) for _, node in batch for f in node.features]
        _pick(batch, *_score_block(X, rows, block_gains), exact_gain, out)

    for slot in sorted(range(len(nodes)), key=lambda i: nodes[i].cost):
        node = nodes[slot]
        k = len(node.features)
        if k * node.cost > _BLOCK_CAP:
            gains = np.empty((k, node.rows.size - 1))
            thresholds = np.empty_like(gains)
            for j, f in enumerate(node.features):
                gains[j], thresholds[j] = _score_block(X, [(node, f)], block_gains)
            _pick([(slot, node)], gains, thresholds, exact_gain, out)
            continue
        if (n_rows + k) * node.cost > _BLOCK_CAP:
            flush()
            batch, n_rows = [], 0
        batch.append((slot, node))
        n_rows += k
    if batch:
        flush()
    return out


def _grow(
    Xs: tuple,
    roots: list,
    open_node: Callable,
    leaf: Callable,
    gains: Callable,
    exact: Callable,
    lockstep: bool,
) -> list[tuple]:
    """The pre-order nodes of one tree per entry of ``roots``, for causal
    trees and CARTs alike.

    A node's state is its row-index arrays, one into each matrix of ``Xs``,
    and ``roots`` holds those of each root.  ``open_node(t, depth, *rows)`` returns tree
    ``t``'s node for :func:`_best_cuts` over ``Xs[0]``, or None for
    ``leaf(*rows)``, which a node with no cut becomes too.  A cut routes the
    rows of every matrix.  A round searches every pending node as one batch,
    a depth per round; with ``lockstep`` it takes only each tree's next
    depth-first node, which keeps ``open_node``'s draws from a tree's
    generator in depth-first order.
    """
    records = [[None] for _ in roots]
    pending = [[(0, 0, rows)] for rows in roots]  # stacks of (record, depth, rows)
    while any(pending):
        batch = []
        for t, stack in enumerate(pending):
            while stack:
                i, depth, rows = stack.pop()
                node = open_node(t, depth, *rows)
                if node is None:
                    records[t][i] = leaf(*rows)
                    continue
                batch.append((t, i, depth, rows, node))
                if lockstep:
                    break
        cuts = _best_cuts(Xs[0], [node for *_, node in batch], gains, exact)
        for (t, i, depth, rows, _), cut in zip(batch, cuts):
            if cut is None:
                records[t][i] = leaf(*rows)
                continue
            lefts, rights = [], []
            for X, r in zip(Xs, rows):
                goes_left = X[r, cut.feature_index] < cut.threshold
                lefts.append(r[goes_left])
                rights.append(r[~goes_left])
            left = len(records[t])
            records[t] += [None, None]
            records[t][i] = _Fork(cut, left, left + 1)
            pending[t] += [(left + 1, depth + 1, rights), (left, depth + 1, lefts)]
    return [_preorder(r) for r in records]


class _EffectNode:
    """A causal-tree node awaiting its split search."""

    __slots__ = (
        "rows", "e_groups", "features", "g", "yc", "scale", "n1", "n0", "n1e", "n0e", "cost",
    )
    weight = 1


def _effect_node(
    split: _Half, est: _Half, s_idx: np.ndarray, e_idx: np.ndarray, m: int
) -> Optional[_EffectNode]:
    """The node over split rows ``s_idx`` and estimation rows ``e_idx``, or
    None when no cut can be admissible or have a gain above zero."""
    node = _EffectNode()
    y = split.y[s_idx]
    node.g = g = split.g[s_idx]
    node.n1 = int(np.count_nonzero(g))
    node.n0 = s_idx.size - node.n1
    e_ind = est.g[e_idx]
    node.e_groups = e_idx[e_ind], e_idx[~e_ind]  # estimation rows, individual then control
    node.n1e, node.n0e = (part.size for part in node.e_groups)
    if min(node.n1, node.n0, node.n1e, node.n0e) < 2 * m:
        return None  # no candidate can leave m of each group on both sides
    if np.maximum.reduce(y) == np.minimum.reduce(y):
        return None  # constant outcomes: every contrast is exactly zero
    # centering leaves every tau_L - tau_R contrast unchanged but keeps the
    # prefix-sum arithmetic well conditioned for offset-heavy outcomes
    y -= _mean(y)
    node.yc = y
    node.scale = float(max(np.maximum.reduce(y), -np.minimum.reduce(y)))
    node.rows = s_idx
    node.features = range(split.X.shape[1])
    node.cost = s_idx.size + e_idx.size
    return node


def _estimation_counts(est: _Half, rows: list, thresholds: np.ndarray) -> np.ndarray:
    """Estimation rows of each group, individual then control, with a value
    below each threshold: one sort and ``searchsorted`` per (node, feature)
    row and group."""
    counts = np.empty((2,) + thresholds.shape, dtype=np.intp)
    for r, ((node, f), row_thresholds) in enumerate(zip(rows, thresholds)):
        for k, part in enumerate(node.e_groups):
            counts[k, r] = np.sort(est.X[part, f]).searchsorted(row_thresholds)
    return counts


def _effect_gains(est: _Half, m: int) -> Callable:
    """Block scorer of the effect contrast (see the module docstring)."""

    def block_gains(rows, lens, sort, distinct, thresholds):
        nodes = [node for node, _ in rows]
        gs = sort(np.concatenate([nd.g for nd in nodes]), False)
        ys = sort(np.concatenate([nd.yc for nd in nodes]), 0.0)
        s1_all = np.cumsum(np.where(gs, ys, 0.0), axis=1)
        s0_all = np.cumsum(np.where(gs, 0.0, ys), axis=1)
        c1 = np.cumsum(gs, axis=1)[:, :-1]
        del gs, ys
        last = np.arange(len(rows)), lens - 1
        S1 = s1_all[last][:, None]
        S0 = s0_all[last][:, None]
        s1 = s1_all[:, :-1]
        s0 = s0_all[:, :-1]
        c0 = np.arange(1, c1.shape[1] + 1) - c1
        n1r = np.array([nd.n1 for nd in nodes])[:, None] - c1
        n0r = np.array([nd.n0 for nd in nodes])[:, None] - c0
        valid = distinct & (c1 >= m) & (c0 >= m) & (n1r >= m) & (n0r >= m)

        c1e, c0e = _estimation_counts(est, rows, thresholds)
        n1e = np.array([nd.n1e for nd in nodes])[:, None]
        n0e = np.array([nd.n0e for nd in nodes])[:, None]
        valid &= (c1e >= m) & (n1e - c1e >= m) & (c0e >= m) & (n0e - c0e >= m)
        del c1e, c0e

        tau_l = s1 / c1 - s0 / c0
        tau_r = (S1 - s1) / n1r - (S0 - s0) / n0r
        n = lens[:, None]
        n_l = np.arange(1.0, c1.shape[1] + 1)
        n_r = n - n_l
        gains = (n_l * n_r) / (n * n).astype(np.float64) * (tau_l - tau_r) ** 2
        return np.where(valid, gains, -np.inf)

    return block_gains


def _dyadic(y: np.ndarray) -> tuple[list[int], int]:
    """Integers ``k`` and an exponent ``e`` with ``y[i] == k[i] * 2**e`` exactly.

    Every float is a dyadic rational: frexp's mantissa times 2**53 is an
    integer, and a common exponent shifts each onto one denominator.
    """
    mant, exp = np.frexp(y)
    ks = (mant * 2.0**53).astype(np.int64)
    exp = exp.astype(np.int64) - 53
    nonzero = ks != 0
    e = int(exp[nonzero].min()) if nonzero.any() else 0
    shifts = np.where(nonzero, exp - e, 0)
    return [k << s for k, s in zip(ks.tolist(), shifts.tolist())], e


def _times_4_pow(x: Fraction, e: int) -> Fraction:
    """``x * 2**(2*e)``, exactly."""
    return x * (1 << 2 * e) if e >= 0 else x / (1 << -2 * e)


def _exact_effect_gain(v: np.ndarray, g: np.ndarray, y: np.ndarray, thr: float) -> Fraction:
    """Candidate gain in exact rational arithmetic (ties and near-zero cases).

    Outcomes are summed as integers over one power-of-two denominator.
    """
    ks, e = _dyadic(y)
    left = v < thr
    sums, counts = [], []
    for side in (left & g, left & ~g, ~left & g, ~left & ~g):
        sums.append(sum(compress(ks, side.tolist())))
        counts.append(int(np.count_nonzero(side)))
    tau_l = Fraction(sums[0], counts[0]) - Fraction(sums[1], counts[1])
    tau_r = Fraction(sums[2], counts[2]) - Fraction(sums[3], counts[3])
    n_l = counts[0] + counts[1]
    n_r = counts[2] + counts[3]
    n = n_l + n_r
    return _times_4_pow(Fraction(n_l * n_r, n * n) * (tau_l - tau_r) ** 2, e)


def best_split(
    split_samples: Dataset,
    estimation_samples: Dataset,
    params: CausalTreeParams,
) -> Optional[Split]:
    """Best admissible cut of the split half, or None when no candidate has gain > 0."""
    validate_dataset(split_samples)
    validate_dataset(estimation_samples)
    split = _Half(split_samples)
    est = _Half(estimation_samples)
    node = _effect_node(
        split,
        est,
        np.arange(len(split_samples)),
        np.arange(len(estimation_samples)),
        params.min_group_leaf,
    )
    if node is None:
        return None
    return _best_cuts(
        split.X, [node], _effect_gains(est, params.min_group_leaf), _exact_effect(split)
    )[0]


def _exact_effect(split: _Half) -> Callable:
    """``exact_gain(node, f, threshold)`` of a causal node's cut, for :func:`_best_cuts`."""
    return lambda node, f, thr: _exact_effect_gain(
        split.X[node.rows, f], node.g, split.y[node.rows], thr
    )


def grow_causal_tree(
    split_half: Dataset, estimation_half: Dataset, params: CausalTreeParams
) -> CausalTree:
    """Grow a tree from pre-made honest halves.

    The partition is learned greedily on ``split_half``; every leaf's effect,
    means and counts come from ``estimation_half`` only.  Exposed separately
    from :func:`fit_causal_tree` so the halves can be controlled directly
    (e.g. to check that estimation-side outcomes cannot steer structure).

    The tree draws no random numbers, so it grows breadth-first: each
    depth's nodes are searched in one batch.
    """
    for name, half in (("split", split_half), ("estimation", estimation_half)):
        n_ctl, n_ind = validate_dataset(half)
        if n_ctl < params.min_group_leaf or n_ind < params.min_group_leaf:
            raise DegenerateSplit(
                f"{name} half has {n_ctl} control / {n_ind} individual samples; "
                f"root needs at least {params.min_group_leaf} of each"
            )

    split = _Half(split_half)
    est = _Half(estimation_half)
    m = params.min_group_leaf

    def open_node(t, depth, s_idx, e_idx):
        return _effect_node(split, est, s_idx, e_idx, m) if depth < params.max_depth else None

    (nodes,) = _grow(
        (split.X, est.X),
        [(np.arange(len(split_half)), np.arange(len(estimation_half)))],
        open_node,
        lambda s_idx, e_idx: leaf_estimate(estimation_half.subset(e_idx)),
        _effect_gains(est, m),
        _exact_effect(split),
        lockstep=False,
    )
    return CausalTree(nodes, params)


def fit_causal_tree(d: Dataset, params: CausalTreeParams) -> CausalTree:
    """Honest fit: seeded stratified split of ``d``, then :func:`grow_causal_tree`.

    Deterministic given the dataset as a multiset and the params.  Raises
    DegenerateSplit when either honest half cannot host a root leaf.
    """
    validate_dataset(d)
    split_half, estimation_half = stratified_honest_split(
        d, params.honest_fraction, params.seed
    )
    return grow_causal_tree(split_half, estimation_half, params)


def _feature_rows(X) -> np.ndarray:
    """``X`` as an (m, 4) float64 array in FEATURE_NAMES order; ValueError otherwise."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(FEATURE_NAMES):
        raise ValueError(f"expected an (m, {len(FEATURE_NAMES)}) feature array, got shape {X.shape}")
    return X


def _route(nodes: tuple, X: np.ndarray) -> Iterator[tuple]:
    """(leaf rank, leaf, row indices) for each leaf that rows of ``X`` reach.

    One pass over the pre-order ``nodes`` of a causal or CART tree: value <
    threshold goes left.  ``pending`` holds the rows of the subtrees still to
    come, the next on top; the node after a finished subtree is the right
    child whose rows are on top.  An empty row set costs no numpy work.
    Raises ValueError when ``nodes`` are not exactly one tree.
    """
    pending = [np.arange(X.shape[0])]
    rank = 0
    for node in nodes:
        if not pending:
            raise ValueError(f"{len(nodes)} nodes hold more than one tree")
        rows = pending.pop()
        if not isinstance(node, Split):
            if rows.size:
                yield rank, node, rows
            rank += 1
        elif rows.size:
            left = X[rows, node.feature_index] < node.threshold
            pending += [rows[~left], rows[left]]
        else:
            pending += [rows, rows]
    if pending:
        raise ValueError(f"{len(nodes)} nodes end before their tree does")


def _leaf_values(nodes: tuple, X: np.ndarray, name: str) -> np.ndarray:
    """The float field ``name`` of the leaf each row of ``X`` reaches."""
    out = np.empty(X.shape[0])
    for _, leaf, rows in _route(nodes, X):
        out[rows] = getattr(leaf, name)
    return out


def _forest_mean(trees, X, name: str) -> np.ndarray:
    """Mean over the pre-order node tuples ``trees`` of :func:`_leaf_values`
    at each row of the (m, 4) ``X``, summed in member order."""
    X = _feature_rows(X)
    total = np.zeros(X.shape[0])
    for nodes in trees:
        total += _leaf_values(nodes, X, name)
    return total / len(trees)


@dataclass(frozen=True)
class CausalForest:
    """Ensemble of honest trees fit on stratified subsamples; predicts the mean effect."""

    trees: tuple[CausalTree, ...]
    params: CausalTreeParams
    n_trees: int
    subsample_ratio: float

    def predict(self, X: np.ndarray) -> DifficultyEstimate:
        """Mean member effect at each row of the (m, 4) ``X``, summed in member order."""
        return DifficultyEstimate(_forest_mean([t.nodes for t in self.trees], X, "tau_hat"), None)


#: most members a forest of either kind holds; checked before any member is seeded
MAX_TREES = 1_000


@dataclass(frozen=True)
class CausalForestSettings:
    """A causal forest's ensemble settings beside its tree params."""

    n_trees: int = 50
    subsample_ratio: float = 0.7

    def __post_init__(self) -> None:
        if not 1 <= self.n_trees <= MAX_TREES:
            raise ValueError(f"n_trees must be in 1..{MAX_TREES}, got {self.n_trees}")
        if not 0.0 < self.subsample_ratio <= 1.0:
            raise ValueError(f"subsample_ratio must be in (0, 1], got {self.subsample_ratio}")


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
    CausalForestSettings(n_trees, subsample_ratio)  # range checks, before any seeding
    validate_dataset(d)

    order = canonical_order(d)
    groups_in_order = d.groups[order]
    by_group = {
        g: order[groups_in_order == g] for g in (0, 1)
    }

    trees = []
    for member in range(n_trees):
        sub_seed, fit_seed = derived_seeds(params.seed, 2, (member,))
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
