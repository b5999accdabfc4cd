"""Synthetic reaching-task generators with analytically known difficulty.

Since real participant recordings are not bundled, validation runs on
synthetic data-generating processes over the same workspace.  The control
baseline follows a Fitts-style law in target distance,

    mu0(p) = a + b * log2(1 + dist / w),

so both groups share a smooth distance trend that estimators must not mistake
for the individual effect.  The individual's extra time tau(p) comes from one
of three presets:

* ``null``     - no effect anywhere (tau = 0);
* ``regional`` - axis-aligned pockets: 1.0 s on the right side above z = 0.2 m,
  0.5 s on the left side beyond 0.2 m reach, else 0.  Exactly representable by
  an axis-aligned tree, so estimator error is not a representation limit;
* ``smooth``   - a Gaussian bump centered in the workspace,
  0.8 * exp(-d2 / (2 * 0.1**2)) s with d2 the squared distance from
  (0.15, 0.15, 0.10) m.

Outcomes add independent Gaussian noise and clamp at a positive floor; the
clamp is identical across groups.  Points are (m, 4) feature rows in
``FEATURE_NAMES`` order.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Optional

import numpy as np

from .domain import Dataset, GroupLabel, Workspace
from .errors import MalformedConfig, OutOfWorkspace
from .fileio import expect_dict, from_fields, reject_unknown, write_text_atomic


class EffectPreset(Enum):
    NULL = "null"
    REGIONAL = "regional"
    SMOOTH = "smooth"


#: Limits of a DGP, which keep every generated outcome far below
#: ``domain.MAX_OUTCOME_S``, so that ``gen`` never writes a dataset that ``fit``
#: rejects.  Within them mu0 <= a + b * log2(1 + dist / w) < 1e3 * 25,
#: tau <= 1 s, and |eps| < 14 * noise_sigma (numpy's normal sampler draws
#: no further out): under 4e4 s in all.
MAX_DGP_SECONDS = 1e3  # baseline a and b, noise_sigma and floor
MAX_WORKSPACE_M = 10.0  # workspace radius and height
MIN_BASELINE_W = 1e-6  # the Fitts width w, in meters


@dataclass(frozen=True)
class BaselineParams:
    """Fitts-style control baseline: a + b * log2(1 + dist / w)."""

    a: float = 0.4
    b: float = 0.3
    w: float = 0.05

    def __post_init__(self) -> None:
        if not (0 <= self.a <= MAX_DGP_SECONDS and 0 <= self.b <= MAX_DGP_SECONDS):
            raise ValueError(f"baseline a and b must be in [0, {MAX_DGP_SECONDS:g}] s")
        if self.w <= 0:  # baseline_time divides by it
            raise ValueError(f"baseline w must be > 0, got {self.w}")
        if self.w < MIN_BASELINE_W:
            raise ValueError(f"baseline w must be >= {MIN_BASELINE_W:g} m, got {self.w}")


@dataclass(frozen=True)
class DgpSpec:
    workspace: Workspace = Workspace()
    baseline: BaselineParams = BaselineParams()
    noise_sigma: float = 0.1
    floor: float = 0.05
    effect_preset: EffectPreset = field(kw_only=True)

    def __post_init__(self) -> None:
        if not 0 <= self.noise_sigma <= MAX_DGP_SECONDS:
            raise ValueError(
                f"noise_sigma must be in [0, {MAX_DGP_SECONDS:g}] s, got {self.noise_sigma}"
            )
        if not 0 < self.floor <= MAX_DGP_SECONDS:
            raise ValueError(f"floor must be in (0, {MAX_DGP_SECONDS:g}] s, got {self.floor}")
        if max(self.workspace.radius, self.workspace.height) > MAX_WORKSPACE_M:
            raise ValueError(f"workspace radius and height must be <= {MAX_WORKSPACE_M:g} m")


@dataclass(frozen=True)
class GroundTruth:
    """The generating process a dataset was drawn from; ``true_tau(spec, X)``
    gives its effect at workspace points."""

    spec: DgpSpec


_SMOOTH_CENTER = (0.15, 0.15, 0.10)
_SMOOTH_AMPLITUDE = 0.8
_SMOOTH_BANDWIDTH = 0.1


def _each(f, col: np.ndarray) -> np.ndarray:
    """``f`` of each element, called on Python floats a few thousand at a time.

    Generation keeps libm's log2 and exp and Python's float ``**``, whose
    results differ in the last bit from numpy's log2, exp and square at some
    inputs.
    """
    pieces = (col[lo:lo + 4096].tolist() for lo in range(0, len(col), 4096))
    return np.fromiter(map(f, chain.from_iterable(pieces)), np.float64, len(col))


def _square(v: float) -> float:
    return v**2


def true_tau(spec: DgpSpec, X: np.ndarray) -> np.ndarray:
    """Ground-truth individual effect at each row of the (m, 4) feature array
    ``X``; raises OutOfWorkspace at the first row outside the region."""
    inside = spec.workspace.contains(X)
    if not inside.all():
        x, y, z = X[np.argmin(inside), :3].tolist()
        raise OutOfWorkspace(f"point ({x}, {y}, {z}) is outside the workspace")
    x, y, z, dist = X.T
    preset = spec.effect_preset
    if preset is EffectPreset.NULL:
        return np.zeros(len(X))
    if preset is EffectPreset.REGIONAL:
        left = np.where((x < 0.0) & (dist >= 0.2), 0.5, 0.0)
        return np.where((x >= 0.0) & (z >= 0.2), 1.0, left)
    cx, cy, cz = _SMOOTH_CENTER
    d2 = _each(_square, x - cx) + _each(_square, y - cy) + _each(_square, z - cz)
    return _SMOOTH_AMPLITUDE * _each(math.exp, -d2 / (2.0 * _SMOOTH_BANDWIDTH**2))


def baseline_time(spec: DgpSpec, X: np.ndarray) -> np.ndarray:
    """Noise-free control completion time mu0 at each row of the (m, 4) feature array ``X``."""
    b = spec.baseline
    return b.a + b.b * _each(math.log2, 1.0 + X[:, 3] / b.w)


#: points _draw_features collects in Python before copying them into its
#: arrays, so that its extra memory is one chunk's, not the whole draw's
_DRAW_CHUNK = 4096


def _draw_features(
    ws: Workspace, rng: np.random.Generator, n: int, noise_sigma: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` uniform draws from the half-cylinder as (n, 4) feature rows.

    Each point rejection-samples (x, y) in the semicircle's bounding box, then
    draws z.  With ``noise_sigma``, each point's draws are followed by its
    sample's Normal(0, noise_sigma^2) noise draw.  Returns the rows and the
    (n,) noise, which is empty without ``noise_sigma``.

    Draws use numpy's own formulas, ``uniform(lo, hi) == lo + (hi - lo) *
    random()`` and ``normal(0, s) == 0.0 + s * standard_normal()``, which take
    the same values from the stream without ``uniform``'s and ``normal``'s
    per-call argument handling.
    """
    r, h = ws.radius, ws.height
    x_span, rr = r - -r, r * r  # uniform(-r, r)'s hi - lo; uniform(0, v)'s is v
    unit, std_normal = rng.random, rng.standard_normal
    feats = np.empty((n, 4))
    noise = np.empty(0 if noise_sigma is None else n)
    for lo in range(0, n, _DRAW_CHUNK):
        xyz, eps = array("d"), array("d")
        for _ in range(min(_DRAW_CHUNK, n - lo)):
            while True:
                x = -r + x_span * unit()
                y = 0.0 + r * unit()
                if x * x + y * y <= rr:
                    break
            xyz.extend((x, y, 0.0 + h * unit()))
            if noise_sigma is not None:
                eps.append(0.0 + noise_sigma * std_normal())
        hi = lo + len(xyz) // 3
        feats[lo:hi, :3] = np.frombuffer(xyz).reshape(-1, 3)
        noise[lo:hi] = eps  # an empty slice without noise_sigma
    x, y, z = feats[:, 0], feats[:, 1], feats[:, 2]
    feats[:, 3] = np.sqrt(x * x + y * y + z * z)  # features_from_xyz's dist, in place
    return feats, noise


#: most samples generate_dataset draws per group; samples are drawn one at a
#: time in Python, so this bounds a generation's run time as well as its memory
MAX_GROUP_SAMPLES = 1_000_000


def generate_dataset(
    spec: DgpSpec, n_control: int, n_individual: int, seed: int
) -> tuple[Dataset, GroundTruth]:
    """Draw a labelled dataset: all control samples first, then all individual ones.

    Control outcome   = max(floor, mu0(p) + eps)
    Individual outcome = max(floor, mu0(p) + tau(p) + eps)

    with eps ~ Normal(0, noise_sigma^2) independent per sample.  Deterministic
    given the seed.  Each group holds 1 to MAX_GROUP_SAMPLES samples.
    """
    if n_control < 1 or n_individual < 1:
        raise ValueError("need at least one sample per group")
    if max(n_control, n_individual) > MAX_GROUP_SAMPLES:
        raise ValueError(
            f"at most {MAX_GROUP_SAMPLES} samples per group, "
            f"got {n_control} control and {n_individual} individual"
        )
    n = n_control + n_individual
    feats, outcomes = _draw_features(spec.workspace, np.random.default_rng(seed), n, spec.noise_sigma)
    mu = baseline_time(spec, feats)
    mu[n_control:] += true_tau(spec, feats[n_control:])
    outcomes += mu  # eps + mu == mu + eps bit for bit
    np.maximum(outcomes, spec.floor, out=outcomes)
    groups = np.full(n, GroupLabel.CONTROL, dtype=np.int8)
    groups[n_control:] = GroupLabel.INDIVIDUAL
    return Dataset(feats, groups, outcomes), GroundTruth(spec)


# --- text config ------------------------------------------------------------
#
# Flat "key = value" lines; '#' starts a comment.  Keys flatten the DgpSpec
# fields as listed in _DGP_KEYS.  Omitted keys take the defaults above;
# unknown keys are rejected.

#: the flat config keys in file order: key -> (DgpSpec part, or None for
#: DgpSpec's own field; field name).  A part's key is "<part>_<field>".
_DGP_KEYS = {
    "workspace_radius": ("workspace", "radius"),
    "workspace_height": ("workspace", "height"),
    "baseline_a": ("baseline", "a"),
    "baseline_b": ("baseline", "b"),
    "baseline_w": ("baseline", "w"),
    "effect_preset": (None, "effect_preset"),
    "noise_sigma": (None, "noise_sigma"),
    "floor": (None, "floor"),
}


def dgp_to_config(spec: DgpSpec) -> str:
    lines = []
    for key, (part, name) in _DGP_KEYS.items():
        value = getattr(spec if part is None else getattr(spec, part), name)
        lines.append(f"{key} = {value.value if isinstance(value, Enum) else repr(value)}")
    return "\n".join(lines) + "\n"


def dgp_from_mapping(mapping, path: str = "$") -> DgpSpec:
    """Build a DgpSpec from the flat keys of _DGP_KEYS: finite numbers, plus effect_preset."""
    d = expect_dict(mapping, path, MalformedConfig)
    reject_unknown(d, _DGP_KEYS, path, MalformedConfig)
    parts = {
        part: from_fields(cls, d, path, MalformedConfig, defaults=True, prefix=f"{part}_")
        for part, cls in (("workspace", Workspace), ("baseline", BaselineParams))
    }
    return from_fields(DgpSpec, d, path, MalformedConfig, defaults=True, **parts)


def dgp_from_config(text: str) -> DgpSpec:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise MalformedConfig(where, f"expected 'key = value', got {raw!r}")
        if key in values:
            raise MalformedConfig(where, f"duplicate key {key!r}")
        if key not in _DGP_KEYS:
            raise MalformedConfig(where, f"unknown key {key!r}")
        try:
            values[key] = value if key == "effect_preset" else float(value)
        except ValueError:
            raise MalformedConfig(where, f"key {key!r}: unparseable number {value!r}") from None
    return dgp_from_mapping(values)


def load_dgp_config(path) -> DgpSpec:
    with open(path, "r", encoding="utf-8") as f:
        return dgp_from_config(f.read())


def save_dgp_config(spec: DgpSpec, path) -> None:
    write_text_atomic(path, dgp_to_config(spec))
