"""Difficulty maps: grid the workspace, evaluate a model, render CSV / SVG.

A map is a model evaluated at the centers of a square grid clipped to the
semicircular workspace, either on one horizontal slice (z fixed) or layered
through the full height.  For tree models the per-cell leaf id is kept, which
lets :func:`extract_regions` group cells into equal-difficulty regions and
report whether each region is spatially connected: a single difficulty level
realised as disjoint pockets is exactly what makes these maps useful for
varying practice locations.

Rendering is deliberately plain: one SVG rect per cell, a diverging palette
centered at zero (positive = slower than the control baseline), and fixed
numeric formatting so equal maps produce byte-identical documents.
"""

from __future__ import annotations

import io
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import Workspace
from .errors import (
    InvalidResolution,
    NoLeafIds,
    NotASlice,
    SliceOutOfRange,
)
from .evaluation import DifficultyPredictor


@dataclass(frozen=True)
class Grid:
    """Workspace cell centers, an (m, 4) array in (z, y, x) ascending order, and their spacing."""

    features: np.ndarray
    resolution: float
    z_slice: Optional[float]

    def __len__(self) -> int:
        return self.features.shape[0]


#: most cell centers a grid may hold before clipping to the semicircle: the x,
#: y and z axis counts multiplied (the full 0.005 m volume has 576,000)
MAX_GRID_CELLS = 1_000_000


def _axis_count(start: float, stop: float, resolution: float) -> float:
    """How many centers ``start + i * resolution`` (i = 0, 1, ...) lie below ``stop``.

    Exact up to MAX_GRID_CELLS; a larger count is returned approximately.
    """
    n = (stop - start) / resolution
    if not n <= MAX_GRID_CELLS:
        return n
    n = max(0, math.ceil(n))
    while n > 0 and start + (n - 1) * resolution >= stop:
        n -= 1
    while start + n * resolution < stop:
        n += 1
    return n


def build_grid(
    ws: Workspace, resolution: float, z_slice: Optional[float] = None
) -> Grid:
    """Cell centers spaced ``resolution`` apart, clipped to x^2 + y^2 <= r^2.

    Centers sit at -r + res/2 + i*res laterally and res/2 + j*res forward.
    With ``z_slice`` given, all cells share that height; otherwise layers are
    stacked at res/2 + k*res for every center strictly below the height.
    Raises InvalidResolution when the unclipped grid would exceed
    MAX_GRID_CELLS centers, before any center is built.
    """
    if not (0.0 < resolution < ws.radius) or not math.isfinite(resolution):
        raise InvalidResolution(
            f"resolution must be in (0, {ws.radius}), got {resolution}"
        )
    if z_slice is not None and not 0.0 <= z_slice <= ws.height:
        raise SliceOutOfRange(
            f"z_slice must be in [0, {ws.height}], got {z_slice}"
        )

    r = ws.radius
    x0 = -r + resolution / 2
    h0 = resolution / 2
    nx = _axis_count(x0, r, resolution)
    ny = _axis_count(h0, r, resolution)
    nz = 1 if z_slice is not None else _axis_count(h0, ws.height, resolution)
    if nx * ny * nz > MAX_GRID_CELLS:
        raise InvalidResolution(
            f"resolution {resolution} needs {nx * ny * nz:.4g} grid cells; "
            f"at most {MAX_GRID_CELLS} are allowed"
        )
    xs = x0 + np.arange(nx) * resolution
    ys = h0 + np.arange(ny) * resolution
    zs = np.array([float(z_slice)]) if z_slice is not None else h0 + np.arange(nz) * resolution

    z, y, x = (a.ravel() for a in np.meshgrid(zs, ys, xs, indexing="ij"))
    keep = x * x + y * y <= r * r
    x, y, z = x[keep], y[keep], z[keep]
    features = np.column_stack([x, y, z, np.sqrt(x * x + y * y + z * z)])
    return Grid(features, float(resolution), z_slice)


@dataclass(frozen=True)
class DifficultyMap:
    """Model predictions over a grid's (m, 4) ``features``, in grid order;
    ``leaf_id`` is None for models without leaves."""

    features: np.ndarray
    tau_hat: np.ndarray
    leaf_id: Optional[np.ndarray]
    resolution: float
    z_slice: Optional[float]

    def __len__(self) -> int:
        return self.features.shape[0]


def difficulty_map(model: DifficultyPredictor, grid: Grid) -> DifficultyMap:
    """Evaluate the model at every cell center; no resampling or smoothing."""
    est = model.predict(grid.features)
    return DifficultyMap(grid.features, est.tau_hat, est.leaf_id, grid.resolution, grid.z_slice)


@dataclass(frozen=True)
class Region:
    """All grid cells sharing one leaf: indices into the map's grid order."""

    leaf_id: int
    tau_hat: float
    cells: tuple[int, ...]
    connected: bool


def _lattice_coords(m: DifficultyMap) -> list[tuple[int, int, int]]:
    # Cell centers sit on a half-integer lattice of the resolution; doubling
    # makes them integers, so neighbours differ by exactly 2 along one axis.
    # np.rint rounds half to even, as round() does.
    q = np.rint(2.0 * m.features[:, :3] / m.resolution).astype(np.int64)
    if m.z_slice is not None:
        q[:, 2] = 0
    return list(map(tuple, q.tolist()))


def extract_regions(m: DifficultyMap) -> list[Region]:
    """Group cells by leaf id and flag whether each group is 4-connected.

    Connectivity is within a slice: two cells are neighbours when they share
    a z layer and touch along x or y.  Regions come back sorted by descending
    |tau|, then leaf id.  Raises NoLeafIds for maps from models that do not
    assign leaves (ensembles, T-learners).
    """
    if len(m) == 0:
        return []
    if m.leaf_id is None:
        raise NoLeafIds("map was built from a model without leaf assignments")

    coords = _lattice_coords(m)
    by_leaf: dict[int, list[int]] = defaultdict(list)
    for i, leaf_id in enumerate(m.leaf_id.tolist()):
        by_leaf[leaf_id].append(i)

    regions = []
    for leaf_id, cell_indices in by_leaf.items():
        remaining = {coords[i] for i in cell_indices}
        components = 0
        while remaining:
            components += 1
            queue = deque([next(iter(remaining))])
            remaining.discard(queue[0])
            while queue:
                qx, qy, qz = queue.popleft()
                for nb in (
                    (qx - 2, qy, qz),
                    (qx + 2, qy, qz),
                    (qx, qy - 2, qz),
                    (qx, qy + 2, qz),
                ):
                    if nb in remaining:
                        remaining.discard(nb)
                        queue.append(nb)
        regions.append(
            Region(
                leaf_id=leaf_id,
                tau_hat=float(m.tau_hat[cell_indices[0]]),
                cells=tuple(cell_indices),
                connected=components == 1,
            )
        )
    regions.sort(key=lambda reg: (-abs(reg.tau_hat), reg.leaf_id))
    return regions


# --- rendering ---------------------------------------------------------------


_NEGATIVE = (33, 102, 172)
_CENTER = (247, 247, 247)
_POSITIVE = (178, 24, 43)


def _color(t: float) -> str:
    """Hex colour of a diverging scale linear in t, clamped to [-1, 1]; t = 0 is the center."""
    t = max(-1.0, min(1.0, t))
    hi = _POSITIVE if t >= 0 else _NEGATIVE
    u = abs(t)
    rgb = tuple(round(a + (b - a) * u) for a, b in zip(_CENTER, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


_PX_PER_M = 1000.0
_MARGIN = 70.0
_LEGEND_H = 70.0


def render_svg_slice(m: DifficultyMap) -> bytes:
    """Render one z slice as an SVG heatmap; byte-deterministic per input.

    One rect per cell; the colour scale is symmetric around 0 out to the
    largest |tau| in the map, with a three-swatch legend and axis labels in
    meters.  Raises NotASlice for layered maps.
    """
    if m.z_slice is None:
        raise NotASlice("SVG rendering needs a map built on one z slice")
    if len(m) == 0:
        raise NotASlice("cannot render an empty map")

    vmax = float(np.max(np.abs(m.tau_hat)))
    scale_max = vmax if vmax > 0 else 1.0

    res = m.resolution
    min_x = float(m.features[:, 0].min()) - res / 2
    max_x = float(m.features[:, 0].max()) + res / 2
    max_y = float(m.features[:, 1].max()) + res / 2
    plot_w = (max_x - min_x) * _PX_PER_M
    plot_h = max_y * _PX_PER_M
    width = plot_w + 2 * _MARGIN
    height = plot_h + 2 * _MARGIN + _LEGEND_H

    def sx(x_m: float) -> float:
        return _MARGIN + (x_m - min_x) * _PX_PER_M

    def sy(y_m: float) -> float:
        return _MARGIN + (max_y - y_m) * _PX_PER_M

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.1f}" height="{height:.1f}" '
        f'viewBox="0 0 {width:.1f} {height:.1f}">\n'
    )
    out.write(f"<title>personalized difficulty, z = {m.z_slice:.3f} m</title>\n")
    out.write(f'<rect x="0" y="0" width="{width:.1f}" height="{height:.1f}" fill="white"/>\n')
    out.write(
        f'<text x="{width / 2:.1f}" y="{_MARGIN / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">'
        f"estimated difficulty tau_hat (s), z = {m.z_slice:.3f} m</text>\n"
    )

    cell_px = res * _PX_PER_M
    for x, y, tau in zip(m.features[:, 0].tolist(), m.features[:, 1].tolist(), m.tau_hat.tolist()):
        color = _color(tau / scale_max)
        out.write(
            f'<rect x="{sx(x - res / 2):.2f}" y="{sy(y + res / 2):.2f}" '
            f'width="{cell_px:.2f}" height="{cell_px:.2f}" fill="{color}">'
            f"<title>x={x:.3f} y={y:.3f} tau={tau:.4f}</title></rect>\n"
        )

    # axes
    axis_y = sy(0.0)
    out.write(
        f'<line x1="{sx(min_x):.2f}" y1="{axis_y:.2f}" x2="{sx(max_x):.2f}" '
        f'y2="{axis_y:.2f}" stroke="black" stroke-width="1"/>\n'
    )
    out.write(
        f'<text x="{width / 2:.1f}" y="{axis_y + 35:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">x (m)</text>\n'
    )
    out.write(
        f'<text x="{_MARGIN - 45:.1f}" y="{sy(max_y / 2):.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 {_MARGIN - 45:.1f} {sy(max_y / 2):.1f})">y (m)</text>\n'
    )
    for x_tick in (min_x, 0.0, max_x):
        out.write(
            f'<text x="{sx(x_tick):.2f}" y="{axis_y + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x_tick:.2f}</text>\n'
        )

    # legend: min / 0 / max swatches
    ly = height - _LEGEND_H + 10
    swatch = 24.0
    entries = [(-scale_max, _color(-1.0)), (0.0, _color(0.0)), (scale_max, _color(1.0))]
    for idx, (value, color) in enumerate(entries):
        lx = _MARGIN + idx * 130.0
        out.write(
            f'<rect x="{lx:.1f}" y="{ly:.1f}" width="{swatch:.1f}" height="{swatch:.1f}" '
            f'fill="{color}" stroke="black" stroke-width="0.5"/>\n'
        )
        out.write(
            f'<text x="{lx + swatch + 6:.1f}" y="{ly + 17:.1f}" '
            f'font-family="sans-serif" font-size="12">{value:+.3f} s</text>\n'
        )
    out.write("</svg>\n")
    return out.getvalue().encode("utf-8")


MAP_CSV_HEADER = "x_m,y_m,z_m,dist_m,tau_hat_s,leaf_id"


def export_map_csv(m: DifficultyMap) -> bytes:
    """Map as CSV in grid order; floats at 9 decimals, leaf_id blank when absent."""
    lines = [MAP_CSV_HEADER]
    leaves = [""] * len(m) if m.leaf_id is None else map(str, m.leaf_id.tolist())
    for (x, y, z, dist), tau, leaf in zip(m.features.tolist(), m.tau_hat.tolist(), leaves):
        lines.append(f"{x:.9f},{y:.9f},{z:.9f},{dist:.9f},{tau:.9f},{leaf}")
    return ("\n".join(lines) + "\n").encode("utf-8")
