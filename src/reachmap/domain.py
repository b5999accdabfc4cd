"""Core data model: task features, datasets, workspace geometry.

Tasks live in a 4-feature space (x, y, z, dist) measured in meters from the
home position, which sits at the coordinate origin at table height.  Outcomes
are reach times in seconds, labelled by participant group (control vs. the
individual being assessed).  Datasets are stored column-wise as numpy arrays
so the tree learners can stay vectorised.

All types are immutable after construction; every operation here is a pure
function of its inputs and, where applicable, an explicit seed.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass
from enum import IntEnum
from itertools import repeat
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

from .errors import (
    DegenerateSplit,
    EmptyDataset,
    InvalidFeature,
    InvalidSample,
    MissingGroup,
)
from .fileio import write_chunks_atomic

#: Column order of the feature space used everywhere in the package.
FEATURE_NAMES: tuple[str, str, str, str] = ("x", "y", "z", "dist")

#: Exact dataset CSV header (see README for the format contract).
CSV_HEADER = ("x_m", "y_m", "z_m", "dist_m", "group", "time_s")


class GroupLabel(IntEnum):
    """Participant group: 0 = neurotypical control baseline, 1 = individual."""

    CONTROL = 0
    INDIVIDUAL = 1


@dataclass(frozen=True)
class Workspace:
    """Reachable region: half-cylinder of given radius (XY semicircle, y >= 0) and height."""

    radius: float = 0.30
    height: float = 0.40

    def __post_init__(self) -> None:
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not (self.height > 0 and math.isfinite(self.height)):
            raise ValueError(f"height must be positive, got {self.height}")

    def contains(self, X: np.ndarray) -> np.ndarray:
        """Whether each row of the (m, 4) feature array ``X`` lies in the region."""
        x, y, z = X[:, 0], X[:, 1], X[:, 2]
        in_circle = x * x + y * y <= self.radius * self.radius
        return in_circle & (y >= 0.0) & (0.0 <= z) & (z <= self.height)


def features_from_xyz(x, y, z) -> np.ndarray:
    """Feature rows (m, 4) for points given by coordinates, each a number or
    an (m,) array; dist is derived from the home origin.

    ``x`` is lateral (positive = participant's right), ``y`` forward, ``z``
    vertical, ``dist`` the Euclidean distance from the home origin, all in
    meters.  Raises InvalidFeature at the first row with a non-finite
    coordinate, or whose dist overflows (a coordinate beyond about 1e154).
    """
    xyz = np.column_stack(np.broadcast_arrays(*np.atleast_1d(x, y, z)))
    xyz = xyz.astype(np.float64, copy=False)
    x, y, z = xyz.T
    with np.errstate(over="ignore"):
        dist = np.sqrt(x * x + y * y + z * z)
    bad = ~np.isfinite(dist)  # a non-finite coordinate makes dist non-finite too
    if bad.any():
        row = xyz[np.argmax(bad)].tolist()
        for name, v in zip("xyz", row):
            if not math.isfinite(v):
                raise InvalidFeature(f"{name} must be finite, got {v!r}")
        raise InvalidFeature(f"dist of ({row[0]!r}, {row[1]!r}, {row[2]!r}) is not finite")
    return np.column_stack((xyz, dist))


class Dataset:
    """Immutable column-wise sample store.

    ``features`` is an (n, 4) float64 array in FEATURE_NAMES order, ``groups``
    an (n,) integer array of GroupLabel values, ``outcomes`` an (n,) float64
    array of reach times.  Arrays are copied on construction and frozen, so a
    Dataset can be shared across threads.
    """

    __slots__ = ("features", "groups", "outcomes")

    def __init__(self, features: np.ndarray, groups: np.ndarray, outcomes: np.ndarray):
        features = np.ascontiguousarray(features, dtype=np.float64)
        groups = np.ascontiguousarray(groups, dtype=np.int8)
        outcomes = np.ascontiguousarray(outcomes, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != len(FEATURE_NAMES):
            raise ValueError(f"features must be (n, 4), got {features.shape}")
        n = features.shape[0]
        if groups.shape != (n,) or outcomes.shape != (n,):
            raise ValueError("features, groups and outcomes must have equal length")
        for arr in (features, groups, outcomes):
            arr.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "outcomes", outcomes)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Dataset is immutable")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.groups[indices], self.outcomes[indices])

    def group_counts(self) -> tuple[int, int]:
        """(n_control, n_individual)."""
        n_ind = int(np.count_nonzero(self.groups == GroupLabel.INDIVIDUAL))
        return len(self) - n_ind, n_ind

    def restrict_to_group(self, group: GroupLabel) -> "Dataset":
        return self.subset(np.nonzero(self.groups == int(group))[0])


#: largest reach time a dataset may hold, in seconds.  Both split scorers
#: square centred outcomes and sum up to a million of them per group, so
#: this keeps every float and exact gain far inside float range.
MAX_OUTCOME_S = 1e6


def validate_dataset(d: Dataset) -> tuple[int, int]:
    """Check dataset invariants; return (n_control, n_individual) on success.

    Features must be finite, groups 0 or 1 and outcomes in (0,
    MAX_OUTCOME_S].  Raises EmptyDataset, InvalidSample(index, reason) for
    the first offending row, or MissingGroup when a group is absent.
    """
    if len(d) == 0:
        raise EmptyDataset("dataset has no samples")
    finite_feat = np.isfinite(d.features).all(axis=1)
    finite_out = np.isfinite(d.outcomes)
    positive_out = (d.outcomes > 0) & (d.outcomes <= MAX_OUTCOME_S)
    known_group = (d.groups == 0) | (d.groups == 1)
    ok = finite_feat & finite_out & positive_out & known_group
    if not ok.all():
        i = int(np.nonzero(~ok)[0][0])
        if not finite_feat[i]:
            reason = f"non-finite feature {d.features[i].tolist()}"
        elif not known_group[i]:
            reason = f"group must be 0 or 1, got {int(d.groups[i])}"
        elif not finite_out[i]:
            reason = f"non-finite outcome {d.outcomes[i]!r}"
        else:
            reason = f"outcome must be in (0, {MAX_OUTCOME_S:g}] s, got {d.outcomes[i]!r}"
        raise InvalidSample(i, reason)
    n_control, n_individual = d.group_counts()
    if n_control == 0:
        raise MissingGroup("no Control samples")
    if n_individual == 0:
        raise MissingGroup("no Individual samples")
    return n_control, n_individual


def canonical_order(d: Dataset) -> np.ndarray:
    """Index array sorting samples by (group, x, y, z, outcome, dist).

    This is the canonical ordering used before any seeded shuffling, making
    seeded operations invariant to the dataset's row order.  Rows equal on
    all six keys are identical, so their relative order cannot matter.
    Rows already in that order, as a forest member's subsample is, are
    recognised in one pass and not sorted again.
    """
    keys = (d.features[:, 3], d.outcomes, d.features[:, 2], d.features[:, 1],
            d.features[:, 0], d.groups)
    # in_order[i]: row i sorts no later than row i + 1 on the keys compared so far
    in_order = np.ones(max(len(d) - 1, 0), dtype=bool)
    for key in keys:  # least significant first
        a, b = key[:-1], key[1:]
        in_order = (a < b) | ((a == b) & in_order)
    if in_order.all():
        return np.arange(len(d))
    return np.lexsort(keys)


def stratified_honest_split(
    d: Dataset, fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Partition a dataset into (split_half, estimation_half), stratified by group.

    Within each group, floor(fraction * n_g) samples go to the split half and
    the remainder to the estimation half.  Samples are first put in canonical
    order and then shuffled with a generator seeded by ``seed``, so the result
    depends only on the dataset as a multiset, the fraction and the seed.

    Raises MissingGroup when a group is absent and DegenerateSplit when either
    half would end up with zero samples of some group.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    validate_dataset(d)

    order = canonical_order(d)
    rng = np.random.default_rng(seed)
    shuffled = order[rng.permutation(len(order))]

    quotas = {}
    for g in (GroupLabel.CONTROL, GroupLabel.INDIVIDUAL):
        n_g = int(np.count_nonzero(d.groups == int(g)))
        q = int(math.floor(fraction * n_g))
        if q == 0:
            raise DegenerateSplit(f"split half would have no {g.name} samples")
        if q == n_g:
            raise DegenerateSplit(f"estimation half would have no {g.name} samples")
        quotas[int(g)] = q

    # the first quotas[g] rows of each group, in shuffled order, form the split half
    ind = d.groups[shuffled] == int(GroupLabel.INDIVIDUAL)
    rank = np.where(ind, np.cumsum(ind), np.cumsum(~ind)) - 1
    take = rank < np.where(ind, quotas[int(GroupLabel.INDIVIDUAL)], quotas[int(GroupLabel.CONTROL)])
    return d.subset(shuffled[take]), d.subset(shuffled[~take])


def derived_seeds(seed: int, k: int, key: tuple = ()) -> list[int]:
    """``k`` seeds derived from ``seed``: the state of its ``SeedSequence`` with
    spawn key ``key``.  Key ``(i,)`` is the ``i``-th child ``spawn`` gives."""
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(k).tolist()


#: rows per ``.tolist()`` and per piece of CSV text; converting every row at
#: once would hold the whole dataset as Python objects
_CSV_CHUNK = 4096

_HEADER_LINE = ",".join(CSV_HEADER) + "\n"


def _csv_pieces(d: Dataset) -> Iterator[str]:
    """The dataset CSV text, header first, then _CSV_CHUNK rows per piece.

    Floats are written as their repr, which round-trips float64 exactly.
    """
    yield _HEADER_LINE
    for lo in range(0, len(d), _CSV_CHUNK):
        rows = zip(
            d.features[lo:lo + _CSV_CHUNK].tolist(),
            d.groups[lo:lo + _CSV_CHUNK].tolist(),
            d.outcomes[lo:lo + _CSV_CHUNK].tolist(),
        )
        yield "".join(
            f"{x!r},{y!r},{z!r},{dist!r},{g},{t!r}\n" for (x, y, z, dist), g, t in rows
        )


def dataset_to_csv(d: Dataset) -> str:
    """Serialize to the dataset CSV format (header x_m,y_m,z_m,dist_m,group,time_s)."""
    return "".join(_csv_pieces(d))


def dataset_from_csv(text: str) -> Dataset:
    """Parse the dataset CSV format.

    Strict: the header must match exactly, every cell must be present and
    parseable, blanks are rejected (no missing-value handling), group must be
    0 or 1.  Offending rows raise InvalidSample with their zero-based sample
    index (-1 for the header).  Lines may end in LF, CRLF or a bare CR.
    """
    return _read_csv(io.StringIO(text, newline=""))


def _read_csv(f: TextIO) -> Dataset:
    """The dataset in the text file ``f``, opened with ``newline=""``.

    A seekable file in the strict form of _parse_strict is converted a chunk
    at a time; any other file is rewound and read by _parse_csv, which alone
    accepts or rejects it.
    """
    if f.seekable():
        d = _parse_strict(f)
        if d is not None:
            return d
        f.seek(0)
    return _parse_csv(f)


#: characters of text _parse_strict reads at a time, in whole lines.  A chunk
#: stays below glibc malloc's default 128 KiB mmap threshold; with 256 KiB
#: chunks, repeated gen and fit sessions in one process peaked about 1 MB
#: higher in resident memory
_STRICT_CHUNK = 1 << 16


def _parse_strict(f: TextIO) -> Optional[Dataset]:
    """The dataset in ``f``, or None unless the whole text is in strict form.

    Strict form: the exact header; at least one row; every line holding
    exactly six cells and ending in LF (the last may lack it); no quote or CR
    anywhere; no line over the csv module's field size limit; every group
    cell exactly ``0`` or ``1``; every cell a finite ``float()``.  csv.reader
    splits such a text at exactly its commas and LFs, and _parse_csv accepts
    it with the same ``float()`` values, so the result is _parse_csv's.
    """
    width = len(CSV_HEADER)
    limit = csv.field_size_limit()
    values = array("d")
    try:
        if f.readline() != _HEADER_LINE:
            return None
        while lines := f.readlines(_STRICT_CHUNK):
            text = "".join(lines)
            if '"' in text or "\r" in text or max(map(len, lines)) > limit:
                return None
            if list(map(str.count, lines, repeat(","))).count(width - 1) != len(lines):
                return None
            cells = text.replace("\n", ",").split(",")
            if text.endswith("\n"):
                cells.pop()  # the empty cell after the last LF
            if not set(cells[4::width]) <= {"0", "1"}:
                return None
            values.extend(map(float, cells))
    except ValueError:  # an unparseable number, or bytes that are not UTF-8
        return None
    rows = np.frombuffer(values).reshape(-1, width)
    if len(rows) == 0 or not np.isfinite(rows).all():
        return None
    return Dataset(rows[:, :4], rows[:, 4], rows[:, 5])


def _parse_csv(lines: Iterable[str]) -> Dataset:
    """The dataset in ``lines``, read as a file opened with ``newline=""``."""
    reader = csv.reader(lines)
    header = None
    feats, groups, outcomes = [], [], []
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyDataset("CSV has no header")
        if tuple(header) != CSV_HEADER:
            raise InvalidSample(-1, f"bad header {header!r}, expected {list(CSV_HEADER)}")
        for i, row in enumerate(reader):
            if len(row) != len(CSV_HEADER):
                raise InvalidSample(i, f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            if any(cell.strip() == "" for cell in row):
                raise InvalidSample(i, "blank field")
            try:
                x, y, z, dist = (float(row[j]) for j in range(4))
                out = float(row[5])
            except ValueError as e:
                raise InvalidSample(i, f"unparseable number: {e}") from None
            if row[4] not in ("0", "1"):
                raise InvalidSample(i, f"group must be 0 or 1, got {row[4]!r}")
            if not all(math.isfinite(v) for v in (x, y, z, dist, out)):
                raise InvalidSample(i, "non-finite value")
            feats.append((x, y, z, dist))
            groups.append(int(row[4]))
            outcomes.append(out)
    except csv.Error as e:  # e.g. a field over the csv module's size limit
        # every row before the failing one was kept
        raise InvalidSample(-1 if header is None else len(feats), f"unreadable CSV: {e}") from None
    if not feats:
        raise EmptyDataset("CSV has a header but no rows")
    return Dataset(
        np.array(feats, dtype=np.float64),
        np.array(groups, dtype=np.int8),
        np.array(outcomes, dtype=np.float64),
    )


def load_dataset_csv(path) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as f:
        return _read_csv(f)


def save_dataset_csv(d: Dataset, path) -> None:
    """Write the dataset CSV piece by piece, never holding its whole text."""
    write_chunks_atomic(path, (piece.encode("utf-8") for piece in _csv_pieces(d)))
