"""Reference workspace sampler: one point at a time, through ``Generator.uniform``
and ``Generator.normal``.

This is the sampler the library used before it drew with ``random()`` and
``standard_normal()`` under numpy's own formulas.  Each point rejection-samples
(x, y) in the semicircle's bounding box, then draws z, then, with a noise
sigma, its sample's noise.  ``synth._draw_features`` must return the same
bits from the same generator state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from reachmap.domain import Workspace


def draw_point(ws: Workspace, rng: np.random.Generator) -> tuple[float, float, float]:
    """Uniform draw (x, y, z) from the half-cylinder, rejection-sampling (x, y)
    in its bounding box."""
    r = ws.radius
    while True:
        x = rng.uniform(-r, r)
        y = rng.uniform(0.0, r)
        if x * x + y * y <= r * r:
            break
    return x, y, rng.uniform(0.0, ws.height)


def draw_features(
    ws: Workspace, rng: np.random.Generator, n: int, noise_sigma: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` draws as (n, 4) feature rows, and the (n,) noise (empty without ``noise_sigma``)."""
    feats = np.empty((n, 4))
    noise = np.empty(0 if noise_sigma is None else n)
    for i in range(n):
        feats[i, :3] = draw_point(ws, rng)
        if noise_sigma is not None:
            noise[i] = rng.normal(0.0, noise_sigma)
    x, y, z = feats[:, 0], feats[:, 1], feats[:, 2]
    feats[:, 3] = np.sqrt(x * x + y * y + z * z)
    return feats, noise
