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

The estimation half is checked by order statistics, not counts.  Of a
group's values v_(1) <= ... <= v_(n) in a node, at least m lie below a
threshold exactly when v_(m) < threshold, and at least m lie at or above it
exactly when v_(n-m+1) >= threshold: the m-th smallest value and the m-th
largest bound every admissible threshold.
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


class Split(NamedTuple):
    """An axis-aligned cut: feature_index in {0..3}, threshold in meters."""

    feature_index: int
    threshold: float
    gain: float


class Leaf(NamedTuple):
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
    y, groups = samples.outcomes, samples.groups
    return _leaf(y[groups == int(GroupLabel.INDIVIDUAL)], y[groups == int(GroupLabel.CONTROL)])


def _leaf(y_ind: np.ndarray, y_ctl: np.ndarray) -> Leaf:
    """:func:`leaf_estimate` of the individual outcomes ``y_ind`` and the control ones ``y_ctl``."""
    if y_ind.size == 0:
        raise MissingGroup("leaf estimate needs Individual samples")
    if y_ctl.size == 0:
        raise MissingGroup("leaf estimate needs Control samples")
    mean_ind = float(_mean(y_ind))
    mean_ctl = float(_mean(y_ctl))
    return Leaf(mean_ind - mean_ctl, y_ind.size, y_ctl.size, mean_ind, mean_ctl)


@dataclass(frozen=True)
class CausalTree:
    """A fitted honest causal tree: its splits and leaves in depth-first
    pre-order, each split followed by its left subtree, then its right one."""

    nodes: tuple
    params: CausalTreeParams

    def predict(self, X: np.ndarray) -> DifficultyEstimate:
        """Route each row of the (m, 4) ``X`` to its leaf and return its effect."""
        X = _feature_rows(X)
        leaf_id = np.empty(X.shape[0], dtype=np.int64)
        return DifficultyEstimate(_leaf_values(self.nodes, X, "tau_hat", leaf_id), leaf_id)

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


#: float gains within this times max|y_centered|^2 (times the splitter's
#: weight) of the best are re-checked exactly; safely above the prefix-sum
#: error bound for n into the millions.
_GAIN_NOISE = 2.0**-30

#: elements in one padded block of (node, feature) rows.  The scorer's
#: temporaries are a few dozen arrays of this size, and a node whose rows
#: do not fit together is scored one row at a time, so its temporaries are
#: those of a per-node search.
_BLOCK_CAP = 8192

#: rows a round opens or partitions in one pass; bounds their temporaries
_CHUNK_ROWS = 1 << 15


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


class _Ranked:
    """A matrix held as ranks: each value's rank among the distinct values
    of its column.

    ``ranks`` is (d, n) int32.  ``values`` holds each column's distinct
    values in ascending order, then +inf, concatenated; column f's start at
    ``offsets[f]``, so row i's value in column f is ``values[offsets[f] +
    ranks[f, i]]`` exactly, and rank ``sizes[f]`` (the +inf) ranks after
    every value.  Nodes index this matrix through ``rows``: node row p is
    matrix row ``rows[p]``, or p itself when ``rows`` is None, and
    ``take(rows)`` is the matrix of the given rows, which may repeat,
    without copying the ranks.
    """

    __slots__ = ("ranks", "values", "sizes", "offsets", "rows", "shift", "key_type")

    def __init__(self, ranks: np.ndarray, values: np.ndarray, sizes: np.ndarray, rows=None):
        self.ranks = ranks
        self.values = values
        self.sizes = sizes
        self.offsets = np.cumsum(sizes + 1) - (sizes + 1)
        self.rows = rows
        #: bits of a node row in a sort key (rank << shift | row), and the
        #: narrower of int32 and int64 that holds every key: int32 keys sort
        #: about twice as fast
        self.shift = (ranks.shape[1] if rows is None else rows.size).bit_length()
        narrow = (int(sizes.max(initial=0)) + 1) << self.shift <= 2**31
        self.key_type = np.int32 if narrow else np.int64

    @classmethod
    def of(cls, X: np.ndarray) -> "_Ranked":
        """The ranks of the float matrix ``X``: one sort per column."""
        columns = [np.unique(column, return_inverse=True) for column in X.T]
        return cls(
            np.array([inverse for _, inverse in columns], dtype=np.int32),
            np.concatenate([np.append(values, np.inf) for values, _ in columns]),
            np.array([values.size for values, _ in columns]),
        )

    def take(self, rows: np.ndarray) -> "_Ranked":
        return _Ranked(self.ranks, self.values, self.sizes, self.matrix_rows(rows))

    def matrix_rows(self, rows: np.ndarray) -> np.ndarray:
        return rows if self.rows is None else self.rows.take(rows)

    def rank(self, f, rows: np.ndarray) -> np.ndarray:
        """The ranks of node rows ``rows`` in column f, or in column ``f[i]`` for row i."""
        return self.ranks.ravel().take(f * self.ranks.shape[1] + self.matrix_rows(rows))

    def value(self, f, rows: np.ndarray) -> np.ndarray:
        """The values of node rows ``rows`` in column f, or in column ``f[i]`` for row i."""
        return self.values[self.offsets[f] + self.rank(f, rows)]

    def midpoints(self, f, ranks: np.ndarray) -> np.ndarray:
        """The thresholds between consecutive entries of the (R, L) ``ranks``
        of column f, or of column ``f[r]`` for row r: the (R, L - 1)
        midpoints of their values."""
        vs = self.values[self.offsets[f] + ranks]
        return 0.5 * (vs[:, :-1] + vs[:, 1:])

    def sorted_block(self, rows: list, j: int) -> tuple:
        """The block of the (node, features) ``rows`` over the node rows in
        this matrix (``node.rows[j]``): one block row per feature, holding
        the node's rows sorted stably by it, then padding.

        Returns the sorted (R, L) rows and ranks, each block row's feature
        as an (R, 1) column, and each block row's length.  One integer sort
        per block orders the keys (rank, row); a node's rows ascend, so
        equal values keep the node's row order, as a stable sort of its
        values does.  Padding has row 0 and rank ``sizes[f]``: it sorts
        last, and its value is +inf.
        """
        flat, fcol, lens, real = self._block(rows, (j,))
        keys = np.empty(real.shape, dtype=self.key_type)
        keys[:] = self.sizes[fcol] << self.shift
        ranks = self.rank(np.repeat(fcol[:, 0], lens), flat).astype(self.key_type, copy=False)
        keys[real] = (ranks << self.shift) | flat
        keys.sort(axis=1)
        return keys & ((1 << self.shift) - 1), keys >> self.shift, fcol, lens

    def order_stats(self, rows: list, js: tuple, m: int) -> np.ndarray:
        """The m-th smallest and the m-th largest rank of each block row of
        the (node, features) ``rows`` over the node rows ``node.rows[j]``,
        for each j in ``js`` in turn, as an (R * len(js), 2) array; every
        block row holds at least m real rows.

        Two selections on the ranks give them, without a sort and without
        row ids.  Padding is -1: as int32 it sorts first, for the m-th
        largest, and read as uint32 (2**32 - 1) it sorts last, for the m-th
        smallest.
        """
        flat, fcol, lens, real = self._block(rows, js)
        block = np.full(real.shape, -1, dtype=np.int32)
        block[real] = self.rank(np.repeat(fcol[:, 0], lens), flat)
        out = np.empty((lens.size, 2), dtype=np.int32)
        high = block.shape[1] - m
        block.partition(high, axis=1)
        out[:, 1] = block[:, high]
        block = block.view(np.uint32)
        block.partition(m - 1, axis=1)
        out[:, 0] = block[:, m - 1]
        return out

    def _block(self, rows: list, js: tuple) -> tuple:
        """The node rows ``node.rows[j]`` of the (node, features) ``rows``
        in this matrix, for each j in ``js`` in turn, concatenated; each
        block row's feature as an (R, 1) column, each block row's length,
        and the (R, L) mask of its real entries."""
        parts = [node.rows[j] for j in js for node, fs in rows for _ in fs]
        fcol = np.array([f for _ in js for _, fs in rows for f in fs])[:, None]
        lens = np.array([part.size for part in parts])
        real = np.arange(lens.max()) < lens[:, None]
        return np.concatenate(parts), fcol, lens, real


class _Node:
    """A node awaiting its split search.

    ``rows`` holds the node's ascending row indices into each of the
    search's matrices; ``features`` the ascending features to search;
    ``mean`` the mean outcome that centres the prefix sums; ``scale`` and
    ``weight`` the near-tie window; ``stats`` the kind's per-node numbers
    for its block scorer; ``cost`` the elements one of its block rows
    takes in the widest of the block's matrices, one per search matrix.
    """

    __slots__ = ("rows", "features", "mean", "scale", "weight", "stats", "cost")

    def __init__(self, rows: tuple, features, mean, scale: float, weight: int, stats: tuple):
        self.rows = rows
        self.features = features
        self.mean = mean
        self.scale = scale
        self.weight = weight
        self.stats = stats
        self.cost = max(r.size for r in rows)


def _score_block(search, rows: list):
    """Gains of every cut of the (node, features) ``rows``, the block's
    sorted ranks and each block row's feature.

    Block row r holds one node's values of one feature in ascending order,
    ties in the node's row order (see :meth:`_Ranked.sorted_block`).
    Column k is the cut after sorted position k, at the midpoint of
    positions k and k+1 (:meth:`_Ranked.midpoints` of the ranks).
    ``search.gains(rows, ks, lens, ids, fcol, ranks, distinct)`` scores
    every column with the kind's float expression and returns -inf where a
    cut is inadmissible; ``ids`` are the sorted rows of the split matrix.
    Row-wise cumulative sums are sequential, so they carry the same bits as
    per-node ones.  Cuts between equal values are not ``distinct``; the
    cuts at and after a row's last value leave no samples on the right,
    which the kinds' count rules reject.
    """
    split = search.matrices[0]
    ks = [len(fs) for _, fs in rows]
    ids, ranks, fcol, lens = split.sorted_block(rows, 0)
    distinct = ranks[:, 1:] > ranks[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = search.gains(rows, ks, lens, ids, fcol, ranks, distinct)
    return gains, ranks, fcol[:, 0]


def _node_columns(rows: list, ks: list, name: str) -> np.ndarray:
    """The node attribute ``name`` of each block row: (R,) or (R, s) for tuples."""
    return np.repeat([getattr(node, name) for node, _ in rows], ks, axis=0)


def _pick(rows: list, gains: np.ndarray, ranks: np.ndarray, fcol: np.ndarray, search) -> list:
    """The split of each node of the (node, features) ``rows``, or None.

    The rows of ``gains`` are each node's features in ascending order,
    ``ranks`` their sorted ranks in the split matrix and ``fcol`` their
    features; only the candidates get thresholds.  Candidates whose float
    gain is within ``_GAIN_NOISE * scale**2 * weight`` of the node's best
    are re-scored with ``search.exact(node, f, threshold)``, so that the
    tie rule (lowest feature index, then lowest threshold) and the strict
    gain > 0 rule apply to exact values.
    """
    ks = np.array([len(fs) for _, fs in rows])
    g_star = np.maximum.reduceat(gains.max(axis=1), np.cumsum(ks) - ks)
    scale = np.array([node.scale for node, _ in rows])
    tol = _GAIN_NOISE * scale * scale * np.array([node.weight for node, _ in rows])
    cutoffs = np.full(len(rows), -np.inf)
    np.subtract(g_star, tol + 1e-9 * g_star, out=cutoffs, where=g_star > tol)
    cutoffs[g_star == -np.inf] = np.inf  # no admissible candidate
    # otherwise a best within the window may be an exact tie with zero, and
    # every admissible candidate is re-checked

    # Distinct candidates can share a partition (e.g. a duplicated or mirrored
    # column), making their gains mathematically equal while the float values
    # differ in the last bits.  The documented tie rule therefore needs exact
    # arithmetic for candidates whose float gains are within summation error
    # of the max.
    r, k = np.nonzero(gains > np.repeat(cutoffs, ks)[:, None])
    owner = np.repeat(np.arange(len(rows)), ks)[r]
    counts = np.bincount(owner, minlength=len(rows))
    lone = ((counts == 1) & (cutoffs > -np.inf)).tolist()
    starts = (np.cumsum(counts) - counts).tolist()
    features = fcol[r]
    sides = ranks[r[:, None], k[:, None] + (0, 1)]  # the ranks either side of each cut
    thresholds = search.matrices[0].midpoints(features[:, None], sides)[:, 0].tolist()
    features = features.tolist()

    out = []
    for (node, _), best, one, start, count in zip(rows, g_star.tolist(), lone, starts, counts.tolist()):
        if one:
            out.append(Split(features[start], thresholds[start], best))
            continue
        split = None
        best_exact = Fraction(0)  # strict > 0 required to split at all
        for f, thr in zip(features[start : start + count], thresholds[start : start + count]):
            exact = search.exact(node, f, thr)
            if exact > best_exact:
                best_exact = exact
                split = Split(f, thr, float(exact))
        out.append(split)
    return out


def _best_cuts(search, nodes: list) -> list[Optional[Split]]:
    """Best admissible cut of each of the independent ``nodes``, or None.

    Split search shared by the causal tree and the CART baselines.
    Candidate thresholds sit at midpoints of consecutive distinct values of
    a feature among a node's rows of the split matrix.  Nodes are packed,
    whole and smallest first, into blocks of about ``_BLOCK_CAP`` elements,
    and each block is scored in a few numpy calls.
    """
    out: list[Optional[Split]] = [None] * len(nodes)
    batch: list = []
    n_rows = 0

    def flush() -> None:
        rows = [(nodes[slot], nodes[slot].features) for slot in batch]
        for slot, cut in zip(batch, _pick(rows, *_score_block(search, rows), search)):
            out[slot] = cut

    for slot in sorted(range(len(nodes)), key=lambda i: nodes[i].cost):
        node = nodes[slot]
        k = len(node.features)
        if k * node.cost > _BLOCK_CAP:
            scored = [_score_block(search, [(node, [f])]) for f in node.features]
            (out[slot],) = _pick(
                [(node, node.features)],
                *(np.concatenate(parts) for parts in zip(*scored)),
                search,
            )
            continue
        if (n_rows + k) * node.cost > _BLOCK_CAP:
            flush()
            batch, n_rows = [], 0
        batch.append(slot)
        n_rows += k
    if batch:
        flush()
    return out


def _grow(search, roots: list, draw: Optional[Callable] = None) -> list[tuple]:
    """The pre-order nodes of one tree per entry of ``roots``, for causal
    trees and CARTs alike.

    ``search`` is the kind's split search.  Its ``matrices`` are the
    :class:`_Ranked` matrices a node has rows in, the split matrix first,
    and ``roots`` holds each root's ascending rows in each.
    ``search.open(room, nodes)`` turns each entry of ``nodes``, a tuple of
    row arrays, into a ``_Node`` to search or a finished leaf; ``room`` is
    True where the depth is below ``search.max_depth``.  A node with no
    cut becomes ``search.leaf(node)``.

    A round searches every pending node as one batch, then routes the rows
    of its cuts (:func:`_partition`) and opens the children, about
    ``_CHUNK_ROWS`` rows at a time.  With ``draw``, a round takes only
    each tree's next depth-first node and sets its features to ``draw(t)``,
    which keeps the draws from tree ``t``'s generator in depth-first order.
    """
    records = [[None] for _ in roots]
    pending: list[list] = [[] for _ in roots]  # stacks of (record, depth, node), next on top

    def settle(owners: list, depths: list, nodes: list) -> None:
        room = np.array(depths) < search.max_depth
        opened = []
        for a, b in _chunks([node[0].size for node in nodes]):
            opened += search.open(room[a:b], nodes[a:b])
        # pushed in reverse, so each left child is popped before its right sibling
        for (t, i), depth, node in reversed(list(zip(owners, depths, opened))):
            if isinstance(node, _Node):
                pending[t].append((i, depth, node))
            else:
                records[t][i] = node

    settle([(t, 0) for t in range(len(roots))], [0] * len(roots), roots)
    del roots  # the root nodes hold what they need
    while any(pending):
        batch = []
        for t, stack in enumerate(pending):
            while stack:
                i, depth, node = stack.pop()
                if draw is not None:
                    node.features = draw(t)
                batch.append((t, i, depth, node))
                if draw is not None:
                    break
        owners, depths, forks = [], [], []
        for (t, i, depth, node), cut in zip(batch, _best_cuts(search, [b[-1] for b in batch])):
            if cut is None:
                records[t][i] = search.leaf(node)
                continue
            left = len(records[t])
            records[t] += [None, None]
            records[t][i] = _Fork(cut, left, left + 1)
            owners.append((t, left))
            depths.append(depth + 1)
            forks.append((node, cut))
        if forks:
            lefts, rights = [], []
            for a, b in _chunks([node.rows[0].size for node, _ in forks]):
                lo, hi = _partition(search.matrices, forks[a:b])
                lefts += lo
                rights += hi
            owners += [(t, left + 1) for t, left in owners]
            settle(owners, depths * 2, lefts + rights)
    return [_preorder(r) for r in records]


def _chunks(sizes: list) -> Iterator[tuple]:
    """(start, stop) ranges of consecutive entries of ``sizes`` that sum to
    at most ``_CHUNK_ROWS``, or of one larger entry."""
    start, total = 0, 0
    for i, size in enumerate(sizes):
        if total and total + size > _CHUNK_ROWS:
            yield start, i
            start, total = i, 0
        total += size
    yield start, len(sizes)


def _partition(matrices: tuple, forks: list) -> tuple[list, list]:
    """The rows of the left children and those of the right children of
    the (node, cut) ``forks``.

    For each matrix, the rows of all cut nodes in it (in every row set that
    indexes it) are partitioned by their cuts in one pass; each child keeps
    its rows in ascending order.  A left child's rows are a view of the
    lefts of all cuts: the next round takes it, or it is a leaf.  A right
    child's are a copy, because a depth-first tree keeps it pending while
    its left sibling's subtree grows.
    """
    features = np.array([cut.feature_index for _, cut in forks])
    thresholds = np.array([cut.threshold for _, cut in forks])
    lefts, rights = [None] * len(matrices), [None] * len(matrices)
    for m in dict.fromkeys(matrices):
        js = [j for j, other in enumerate(matrices) if other is m]
        parts = [node.rows[j] for j in js for node, _ in forks]
        rows = np.concatenate(parts)
        sizes = np.array([part.size for part in parts])
        f = np.repeat(np.tile(features, len(js)), sizes)
        goes_left = m.value(f, rows) < np.repeat(np.tile(thresholds, len(js)), sizes)
        n_left = np.add.reduceat(goes_left, np.cumsum(sizes) - sizes, dtype=np.intp)
        lo = rows.compress(goes_left)
        hi = rows.compress(~goes_left)
        lb = np.cumsum(np.append(0, n_left)).tolist()
        hb = np.cumsum(np.append(0, sizes - n_left)).tolist()
        for i, j in enumerate(js):
            lj = lb[i * len(forks) : (i + 1) * len(forks) + 1]
            hj = hb[i * len(forks) : (i + 1) * len(forks) + 1]
            lefts[j] = [lo[a:b] for a, b in zip(lj, lj[1:])]
            rights[j] = [hi[a:b].copy() for a, b in zip(hj, hj[1:])]
    return list(zip(*lefts)), list(zip(*rights))


def _spread(y: np.ndarray, b: np.ndarray) -> tuple:
    """Of each node, whose outcomes are ``y[b[k]:b[k+1]]``: whether its
    outcomes vary, their mean, the outcomes centred at it (all nodes'
    together), and the near-tie scale max|y - mean|.

    Where outcomes are constant every gain is exactly zero.  Centring leaves
    every gain unchanged but keeps the prefix-sum arithmetic well
    conditioned for offset-heavy outcomes.
    """
    varies = np.maximum.reduceat(y, b[:-1]) != np.minimum.reduceat(y, b[:-1])
    bounds = b.tolist()
    means = [_mean(y[s:e]) for s, e in zip(bounds, bounds[1:])]
    yc = y - np.repeat(means, np.diff(b))
    return varies, means, yc, np.maximum.reduceat(np.abs(yc), b[:-1]).tolist()


def _concat_rows(nodes: list, j: int) -> tuple:
    """The rows in matrix ``j`` of each of ``nodes`` (tuples of row
    arrays), concatenated, and the bounds of each node's part."""
    rows = [node[j] for node in nodes]
    return np.concatenate(rows), np.cumsum([0] + [r.size for r in rows])


class _EffectSearch:
    """Split search of the honest causal tree over one pair of halves.

    A node has rows in the split half (``matrices[0]``) and, apart, the
    estimation half's individual rows and control rows (``matrices[1]`` and
    ``matrices[2]``, one ranking of the whole half), each kept in the
    half's order.  Its stats are its split rows of each group, individual
    then control.
    """

    def __init__(self, split: Dataset, est: Dataset, m: int, max_depth: int):
        self.m = m
        self.max_depth = max_depth
        ranked_est = _Ranked.of(est.features)
        self.matrices = (_Ranked.of(split.features), ranked_est, ranked_est)
        self.g = split.groups == int(GroupLabel.INDIVIDUAL)
        self.y = split.outcomes
        self.y_est = est.outcomes
        ind = est.groups == int(GroupLabel.INDIVIDUAL)
        self.root = (
            np.arange(len(split), dtype=np.int32),
            np.flatnonzero(ind).astype(np.int32),
            np.flatnonzero(~ind).astype(np.int32),
        )

    def open(self, room: np.ndarray, nodes: list) -> list:
        """A node to search, or a leaf, per tuple of row arrays in ``nodes``.

        A node is searched when it has depth to spare, at least 2m rows of
        each group in both halves, and outcomes that are not all equal.
        """
        rows, b = _concat_rows(nodes, 0)
        n = np.diff(b)
        n1 = np.add.reduceat(self.g.take(rows), b[:-1], dtype=np.intp)
        varies, means, _, scales = _spread(self.y.take(rows), b)
        fewest_est = [min(node[1].size, node[2].size) for node in nodes]
        fewest = np.minimum(np.minimum(n1, n - n1), fewest_est)
        # with fewer, no cut leaves m of each group on both sides
        search = (room & (fewest >= 2 * self.m) & varies).tolist()
        stats = zip(n1.tolist(), (n - n1).tolist())
        return [
            _Node(node_rows, _ALL, mean, scale, 1, st) if go else self._leaf(node_rows)
            for node_rows, go, mean, scale, st in zip(nodes, search, means, scales, stats)
        ]

    def leaf(self, node: _Node) -> Leaf:
        return self._leaf(node.rows)

    def _leaf(self, rows: tuple) -> Leaf:
        """The leaf of a node's row arrays ``rows``: its estimation rows' outcomes."""
        return _leaf(self.y_est.take(rows[1]), self.y_est.take(rows[2]))

    def exact(self, node: _Node, f: int, thr: float) -> Fraction:
        rows = node.rows[0]
        v = self.matrices[0].value(f, rows)
        return _exact_effect_gain(v, self.g.take(rows), self.y.take(rows), thr)

    def gains(self, rows, ks, lens, ids, fcol, ranks, distinct):
        """Block scorer of the effect contrast (see the module docstring)."""
        m = self.m
        thresholds = self.matrices[0].midpoints(fcol, ranks)
        n1, n0 = (col[:, None] for col in _node_columns(rows, ks, "stats").T)
        # each estimation group's m-th smallest and m-th largest value (see
        # the module docstring); a searched node has 2m of each
        est = self.matrices[1]
        at = est.offsets[fcol] + est.order_stats(rows, (1, 2), m).reshape(2, len(fcol), 2)
        valid = distinct
        for bounds in est.values[at]:
            valid &= thresholds > bounds[:, :1]
            valid &= thresholds <= bounds[:, 1:]
        del thresholds

        gs = self.g.take(ids)
        ys = self.y.take(ids)
        ys -= _node_columns(rows, ks, "mean")[:, None]
        s1_all = np.cumsum(np.where(gs, ys, 0.0), axis=1)
        np.putmask(ys, gs, 0.0)
        s0_all = np.cumsum(ys, axis=1)
        c1 = np.cumsum(gs, axis=1)[:, :-1]
        del gs, ys
        last = np.arange(len(lens)), lens - 1
        S1 = s1_all[last][:, None]
        S0 = s0_all[last][:, None]
        s1 = s1_all[:, :-1]
        s0 = s0_all[:, :-1]
        c0 = np.arange(1, c1.shape[1] + 1) - c1
        n1r = n1 - c1
        n0r = n0 - c0
        valid &= c1 >= m
        valid &= c0 >= m
        valid &= n1r >= m
        valid &= n0r >= m

        # (n_l * n_r) / n**2 * (tau_l - tau_r)**2, with tau_l = s1 / c1 -
        # s0 / c0 and tau_r = (S1 - s1) / n1r - (S0 - s0) / n0r, operation
        # by operation, in place
        tau_l = s1 / c1
        tau_l -= s0 / c0
        tau_r = S1 - s1
        tau_r /= n1r
        ctl_r = S0 - s0
        ctl_r /= n0r
        tau_r -= ctl_r
        del ctl_r
        tau_l -= tau_r
        np.square(tau_l, out=tau_l)
        n = lens[:, None]
        n_l = np.arange(1.0, c1.shape[1] + 1)
        gains = n - n_l
        gains *= n_l
        gains /= (n * n).astype(np.float64)
        gains *= tau_l
        return np.where(valid, gains, -np.inf)


#: the features a node searches when it draws none
_ALL = range(len(FEATURE_NAMES))


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
    search = _EffectSearch(split_samples, estimation_samples, params.min_group_leaf, 0)
    (node,) = search.open(np.ones(1, dtype=bool), [search.root])
    return _best_cuts(search, [node])[0] if isinstance(node, _Node) else None


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
    search = _EffectSearch(split_half, estimation_half, params.min_group_leaf, params.max_depth)
    (nodes,) = _grow(search, [search.root])
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


def _leaf_values(nodes: tuple, X: np.ndarray, name: str, ranks=None) -> np.ndarray:
    """The float field ``name`` of the leaf each row of ``X`` reaches; with
    ``ranks``, an (m,) integer array, also fills in each row's leaf rank."""
    out = np.empty(X.shape[0])
    for rank, leaf, rows in _route(nodes, X):
        out[rows] = getattr(leaf, name)
        if ranks is not None:
            ranks[rows] = rank
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


def forest_member(params: CausalTreeParams, member: int) -> tuple[int, CausalTreeParams]:
    """The subsample seed and the tree params of a forest's member
    ``member``: the forest's ``params`` with the member's own derived seed."""
    sub_seed, fit_seed = derived_seeds(params.seed, 2, (member,))
    return sub_seed, replace(params, seed=fit_seed)


def fit_causal_forest(
    d: Dataset,
    params: CausalTreeParams,
    n_trees: int,
    subsample_ratio: float,
) -> CausalForest:
    """Fit an ensemble of honest trees, each on a seeded stratified subsample.

    Subsampling is without replacement: each group contributes
    floor(subsample_ratio * n_g) samples, drawn from canonical order so the
    result is invariant to input row order.  A subsample keeps canonical
    order, so its own honest split need not sort it again.  Raises
    DegenerateSplit when a subsample cannot host a root leaf.
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
        sub_seed, member_params = forest_member(params, member)
        rng = np.random.default_rng(sub_seed)
        picked = []
        for g in (0, 1):
            rows = by_group[g]
            k = int(math.floor(subsample_ratio * rows.size))
            if k == 0:
                raise DegenerateSplit(
                    f"subsample would have no {GroupLabel(g).name} samples"
                )
            # the rows rng.permutation(rows)[:k] draws, kept in canonical order
            picked.append(rows[np.sort(rng.permutation(rows.size)[:k])])
        sub = d.subset(np.concatenate(picked))
        trees.append(fit_causal_tree(sub, member_params))
    return CausalForest(
        trees=tuple(trees),
        params=params,
        n_trees=n_trees,
        subsample_ratio=float(subsample_ratio),
    )
