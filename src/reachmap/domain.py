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
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DegenerateSplit,
    EmptyDataset,
    InvalidFeature,
    InvalidSample,
    MissingGroup,
)

#: Column order of the feature space used everywhere in the package.
FEATURE_NAMES: tuple[str, str, str, str] = ("x", "y", "z", "dist")

#: Exact dataset CSV header (see README for the format contract).
CSV_HEADER = ("x_m", "y_m", "z_m", "dist_m", "group", "time_s")


class GroupLabel(IntEnum):
    """Participant group: 0 = neurotypical control baseline, 1 = individual."""

    CONTROL = 0
    INDIVIDUAL = 1


@dataclass(frozen=True)
class TaskFeatures:
    """A reach target.

    ``x`` is lateral (positive = participant's right), ``y`` forward, ``z``
    vertical, ``dist`` the Euclidean distance from the home origin.  All in
    meters.  ``dist`` is stored rather than recomputed at use sites so that
    externally supplied datasets may carry a measured distance; consistency
    is only enforced when built via :func:`features_from_xyz`.
    """

    x: float
    y: float
    z: float
    dist: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.dist], dtype=np.float64)


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

    def contains(self, p: TaskFeatures) -> bool:
        return (
            p.x * p.x + p.y * p.y <= self.radius * self.radius
            and p.y >= 0.0
            and 0.0 <= p.z <= self.height
        )


def features_from_xyz(x: float, y: float, z: float) -> TaskFeatures:
    """Build features for a point, deriving dist from the home origin.

    Raises InvalidFeature when any coordinate is non-finite, or when the
    derived dist overflows (a coordinate beyond about 1e154).
    """
    for name, v in (("x", x), ("y", y), ("z", z)):
        if not math.isfinite(v):
            raise InvalidFeature(f"{name} must be finite, got {v!r}")
    x, y, z = float(x), float(y), float(z)
    dist = math.sqrt(x * x + y * y + z * z)
    if not math.isfinite(dist):
        raise InvalidFeature(f"dist of ({x!r}, {y!r}, {z!r}) is not finite")
    return TaskFeatures(x, y, z, dist)


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


def validate_dataset(d: Dataset, require_both_groups: bool = True) -> tuple[int, int]:
    """Check dataset invariants; return (n_control, n_individual) on success.

    Raises EmptyDataset, InvalidSample(index, reason) for the first offending
    row, or MissingGroup when ``require_both_groups`` and a group is absent.
    """
    if len(d) == 0:
        raise EmptyDataset("dataset has no samples")
    finite_feat = np.isfinite(d.features).all(axis=1)
    finite_out = np.isfinite(d.outcomes)
    positive_out = d.outcomes > 0
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
            reason = f"outcome must be > 0, got {d.outcomes[i]!r}"
        raise InvalidSample(i, reason)
    n_control, n_individual = d.group_counts()
    if require_both_groups:
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
    """
    return np.lexsort(
        (
            d.features[:, 3],
            d.outcomes,
            d.features[:, 2],
            d.features[:, 1],
            d.features[:, 0],
            d.groups,
        )
    )


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
    validate_dataset(d, require_both_groups=True)

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


#: rows per ``.tolist()`` and per piece of CSV text; converting every row at
#: once would hold the whole dataset as Python objects
_CSV_CHUNK = 4096


def _csv_pieces(d: Dataset) -> Iterator[str]:
    """The dataset CSV text, header first, then _CSV_CHUNK rows per piece.

    Floats are written as their repr, which round-trips float64 exactly.
    """
    yield ",".join(CSV_HEADER) + "\n"
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
    return _parse_csv(io.StringIO(text, newline=""))


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
        return _parse_csv(f)


def save_dataset_csv(d: Dataset, path) -> None:
    """Write the dataset CSV piece by piece, never holding its whole text."""
    from .fileio import write_chunks_atomic

    write_chunks_atomic(path, (piece.encode("utf-8") for piece in _csv_pieces(d)))
