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
* ``smooth``   - a Gaussian bump centered in the workspace.

Outcomes add independent Gaussian noise and clamp at a positive floor; the
clamp is identical across groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .domain import Dataset, GroupLabel, TaskFeatures, Workspace, features_from_xyz
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
    """The generating process a dataset was drawn from; ``true_tau(spec, p)``
    gives its effect at any workspace point."""

    spec: DgpSpec


_SMOOTH_CENTER = (0.15, 0.15, 0.10)
_SMOOTH_AMPLITUDE = 0.8
_SMOOTH_BANDWIDTH = 0.1


def true_tau(spec: DgpSpec, p: TaskFeatures) -> float:
    """Ground-truth individual effect at p; raises OutOfWorkspace outside the region."""
    if not spec.workspace.contains(p):
        raise OutOfWorkspace(f"point ({p.x}, {p.y}, {p.z}) is outside the workspace")
    preset = spec.effect_preset
    if preset is EffectPreset.NULL:
        return 0.0
    if preset is EffectPreset.REGIONAL:
        if p.x >= 0.0 and p.z >= 0.2:
            return 1.0
        if p.x < 0.0 and p.dist >= 0.2:
            return 0.5
        return 0.0
    cx, cy, cz = _SMOOTH_CENTER
    d2 = (p.x - cx) ** 2 + (p.y - cy) ** 2 + (p.z - cz) ** 2
    return _SMOOTH_AMPLITUDE * math.exp(-d2 / (2.0 * _SMOOTH_BANDWIDTH**2))


def baseline_time(spec: DgpSpec, p: TaskFeatures) -> float:
    """Noise-free control completion time mu0(p)."""
    b = spec.baseline
    return b.a + b.b * math.log2(1.0 + p.dist / b.w)


def sample_workspace_point(ws: Workspace, rng: np.random.Generator) -> TaskFeatures:
    """Uniform draw from the half-cylinder, rejection-sampling (x, y) in its bounding box."""
    r = ws.radius
    while True:
        x = rng.uniform(-r, r)
        y = rng.uniform(0.0, r)
        if x * x + y * y <= r * r:
            break
    z = rng.uniform(0.0, ws.height)
    return features_from_xyz(x, y, z)


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
    rng = np.random.default_rng(seed)
    n = n_control + n_individual
    feats = np.empty((n, 4), dtype=np.float64)
    groups = np.empty(n, dtype=np.int8)
    outcomes = np.empty(n, dtype=np.float64)

    for i in range(n):
        group = GroupLabel.CONTROL if i < n_control else GroupLabel.INDIVIDUAL
        p = sample_workspace_point(spec.workspace, rng)
        mu = baseline_time(spec, p)
        if group is GroupLabel.INDIVIDUAL:
            mu += true_tau(spec, p)
        eps = rng.normal(0.0, spec.noise_sigma)
        feats[i] = (p.x, p.y, p.z, p.dist)
        groups[i] = int(group)
        outcomes[i] = max(spec.floor, mu + eps)

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
