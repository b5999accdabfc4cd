"""Exception hierarchy shared across the package.

Every domain failure derives from :class:`ReachmapError` so callers (notably
the CLI) can render a single machine-parsable ``error: <kind>: <detail>``
line, where ``kind`` is the concrete class name.
"""

from __future__ import annotations


class ReachmapError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class InvalidFeature(ReachmapError):
    """A task feature value is non-finite or otherwise unusable."""


class EmptyDataset(ReachmapError):
    """An operation that needs samples received none."""


class MissingGroup(ReachmapError):
    """A required participant group (control or individual) is absent."""


class InvalidSample(ReachmapError):
    """A sample violates the data-model invariants.

    Carries the zero-based sample index so file loaders can point at rows.
    """

    def __init__(self, index: int, reason: str):
        super().__init__(f"sample {index}: {reason}")
        self.index = index
        self.reason = reason


class DegenerateSplit(ReachmapError):
    """An honest split or subsample left a half without enough group samples."""


class InsufficientSamples(ReachmapError):
    """Fewer samples than the operation's minimum."""


class LengthMismatch(ReachmapError):
    """Two paired sequences differ in length."""


class ZeroVariance(ReachmapError):
    """A variance-normalised metric received constant ground truth."""


class MalformedDocument(ReachmapError):
    """An input document failed to parse or validate at ``path``, a
    ``$.dotted.path`` or the ``line N`` of a text config."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class MalformedModel(MalformedDocument):
    """A model document failed to parse or validate."""


class MalformedConfig(MalformedDocument):
    """A DGP or benchmark config file failed to parse or validate."""


class OutOfWorkspace(ReachmapError):
    """A task point lies outside the reachable workspace."""


class InvalidResolution(ReachmapError):
    """Grid resolution is non-positive, too coarse for the workspace, or so
    fine that the grid would exceed ``mapgen.MAX_GRID_CELLS`` cells."""


class SliceOutOfRange(ReachmapError):
    """Requested z slice lies outside the workspace height."""


class NoLeafIds(ReachmapError):
    """Region extraction needs leaf ids, which this map's model has none of."""


class NotASlice(ReachmapError):
    """SVG rendering needs a single-z-slice map, not a layered one."""


class MissingSeed(ReachmapError):
    """Randomised operation invoked without an explicit seed."""


class BenchmarkError(ReachmapError):
    """A fitting or metric failure inside a benchmark run, annotated with context."""
