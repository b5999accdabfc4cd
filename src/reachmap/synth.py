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


class EffectPreset(Enum):
    NULL = "null"
    REGIONAL = "regional"
    SMOOTH = "smooth"


@dataclass(frozen=True)
class BaselineParams:
    """Fitts-style control baseline: a + b * log2(1 + dist / w)."""

    a: float = 0.4
    b: float = 0.3
    w: float = 0.05

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0 or self.w < 0:
            raise ValueError("baseline parameters must be non-negative")


@dataclass(frozen=True)
class DgpSpec:
    workspace: Workspace = Workspace()
    baseline: BaselineParams = BaselineParams()
    noise_sigma: float = 0.1
    floor: float = 0.05
    effect_preset: EffectPreset = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.floor <= 0:
            raise ValueError(f"floor must be > 0, got {self.floor}")


@dataclass(frozen=True)
class GroundTruth:
    """Evaluates the generating process's true effect at any workspace point."""

    spec: DgpSpec

    def tau(self, p: TaskFeatures) -> float:
        return true_tau(self.spec, p)


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
# fields: workspace_radius, workspace_height, baseline_a, baseline_b,
# baseline_w, effect_preset, noise_sigma, floor.  Omitted keys take the
# defaults above; unknown keys are rejected.

_FLOAT_KEYS = (
    "workspace_radius",
    "workspace_height",
    "baseline_a",
    "baseline_b",
    "baseline_w",
    "noise_sigma",
    "floor",
)


def dgp_to_config(spec: DgpSpec) -> str:
    lines = [
        f"workspace_radius = {spec.workspace.radius!r}",
        f"workspace_height = {spec.workspace.height!r}",
        f"baseline_a = {spec.baseline.a!r}",
        f"baseline_b = {spec.baseline.b!r}",
        f"baseline_w = {spec.baseline.w!r}",
        f"effect_preset = {spec.effect_preset.value}",
        f"noise_sigma = {spec.noise_sigma!r}",
        f"floor = {spec.floor!r}",
    ]
    return "\n".join(lines) + "\n"


def dgp_from_mapping(mapping: dict) -> DgpSpec:
    """Build a DgpSpec from the documented flat key set (floats, plus effect_preset)."""
    values = dict(mapping)
    if "effect_preset" not in values:
        raise MalformedConfig("missing required key 'effect_preset'")
    try:
        preset = EffectPreset(values.pop("effect_preset"))
    except ValueError:
        raise MalformedConfig(
            "effect_preset must be one of: "
            + ", ".join(p.value for p in EffectPreset)
        ) from None

    floats: dict[str, float] = {}
    for key, value in values.items():
        if key not in _FLOAT_KEYS:
            raise MalformedConfig(f"unknown key {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MalformedConfig(f"key {key!r}: expected a number, got {value!r}")
        floats[key] = float(value)

    try:
        ws_kwargs = {}
        if "workspace_radius" in floats:
            ws_kwargs["radius"] = floats["workspace_radius"]
        if "workspace_height" in floats:
            ws_kwargs["height"] = floats["workspace_height"]
        base_kwargs = {}
        for short in ("a", "b", "w"):
            if f"baseline_{short}" in floats:
                base_kwargs[short] = floats[f"baseline_{short}"]
        spec_kwargs = {}
        if "noise_sigma" in floats:
            spec_kwargs["noise_sigma"] = floats["noise_sigma"]
        if "floor" in floats:
            spec_kwargs["floor"] = floats["floor"]
        return DgpSpec(
            workspace=Workspace(**ws_kwargs),
            baseline=BaselineParams(**base_kwargs),
            effect_preset=preset,
            **spec_kwargs,
        )
    except ValueError as e:
        raise MalformedConfig(str(e)) from None


def dgp_from_config(text: str) -> DgpSpec:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedConfig(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise MalformedConfig(f"line {lineno}: duplicate key {key!r}")
        if key == "effect_preset":
            values[key] = value
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError:
                raise MalformedConfig(
                    f"line {lineno}: key {key!r}: unparseable number {value!r}"
                ) from None
        else:
            raise MalformedConfig(f"line {lineno}: unknown key {key!r}")
    return dgp_from_mapping(values)


def load_dgp_config(path) -> DgpSpec:
    with open(path, "r", encoding="utf-8") as f:
        return dgp_from_config(f.read())


def save_dgp_config(spec: DgpSpec, path) -> None:
    from .fileio import write_text_atomic

    write_text_atomic(path, dgp_to_config(spec))
