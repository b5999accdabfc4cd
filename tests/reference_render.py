"""Reference map rendering: every cell's text formatted on its own.

This is how ``mapgen`` wrote the SVG and CSV of a map before it spelled
each distinct x, y and z once: each cell formats all of its numbers.  The
library's renderers must give the same bytes, so tests compare the two.
"""

from __future__ import annotations

import io

import numpy as np

from reachmap.errors import NotASlice
from reachmap.mapgen import (
    _LEGEND_H,
    _MARGIN,
    _PX_PER_M,
    _SVG_CHUNK,
    MAP_CSV_HEADER,
    DifficultyMap,
    _colors,
)


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

    # encoded piece by piece into one buffer: the whole SVG is never held as
    # text and as bytes at once
    out = io.BytesIO()

    def write(text: str) -> None:
        out.write(text.encode("utf-8"))

    write('<?xml version="1.0" encoding="UTF-8"?>\n')
    write(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.1f}" height="{height:.1f}" '
        f'viewBox="0 0 {width:.1f} {height:.1f}">\n'
    )
    write(f"<title>personalized difficulty, z = {m.z_slice:.3f} m</title>\n")
    write(f'<rect x="0" y="0" width="{width:.1f}" height="{height:.1f}" fill="white"/>\n')
    write(
        f'<text x="{width / 2:.1f}" y="{_MARGIN / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">'
        f"estimated difficulty tau_hat (s), z = {m.z_slice:.3f} m</text>\n"
    )

    cell_px = res * _PX_PER_M
    for start in range(0, len(m), _SVG_CHUNK):  # bounds the cells held as Python objects
        part = slice(start, start + _SVG_CHUNK)
        tau_hat = m.tau_hat[part]
        cells = zip(m.features[part, 0].tolist(), m.features[part, 1].tolist(),
                    tau_hat.tolist(), _colors(tau_hat / scale_max))
        write("".join(
            f'<rect x="{sx(x - res / 2):.2f}" y="{sy(y + res / 2):.2f}" '
            f'width="{cell_px:.2f}" height="{cell_px:.2f}" fill="#{color:06x}">'
            f"<title>x={x:.3f} y={y:.3f} tau={tau:.4f}</title></rect>\n"
            for x, y, tau, color in cells
        ))

    # axes
    axis_y = sy(0.0)
    write(
        f'<line x1="{sx(min_x):.2f}" y1="{axis_y:.2f}" x2="{sx(max_x):.2f}" '
        f'y2="{axis_y:.2f}" stroke="black" stroke-width="1"/>\n'
    )
    write(
        f'<text x="{width / 2:.1f}" y="{axis_y + 35:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">x (m)</text>\n'
    )
    write(
        f'<text x="{_MARGIN - 45:.1f}" y="{sy(max_y / 2):.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 {_MARGIN - 45:.1f} {sy(max_y / 2):.1f})">y (m)</text>\n'
    )
    for x_tick in (min_x, 0.0, max_x):
        write(
            f'<text x="{sx(x_tick):.2f}" y="{axis_y + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x_tick:.2f}</text>\n'
        )

    # legend: min / 0 / max swatches
    ly = height - _LEGEND_H + 10
    swatch = 24.0
    entries = zip((-scale_max, 0.0, scale_max), _colors(np.array([-1.0, 0.0, 1.0])))
    for idx, (value, color) in enumerate(entries):
        lx = _MARGIN + idx * 130.0
        write(
            f'<rect x="{lx:.1f}" y="{ly:.1f}" width="{swatch:.1f}" height="{swatch:.1f}" '
            f'fill="#{color:06x}" stroke="black" stroke-width="0.5"/>\n'
        )
        write(
            f'<text x="{lx + swatch + 6:.1f}" y="{ly + 17:.1f}" '
            f'font-family="sans-serif" font-size="12">{value:+.3f} s</text>\n'
        )
    write("</svg>\n")
    return out.getvalue()


def export_map_csv(m: DifficultyMap) -> bytes:
    """Map as CSV in grid order; floats at 9 decimals, leaf_id blank when absent."""
    lines = [MAP_CSV_HEADER]
    leaves = [""] * len(m) if m.leaf_id is None else map(str, m.leaf_id.tolist())
    for (x, y, z, dist), tau, leaf in zip(m.features.tolist(), m.tau_hat.tolist(), leaves):
        lines.append(f"{x:.9f},{y:.9f},{z:.9f},{dist:.9f},{tau:.9f},{leaf}")
    return ("\n".join(lines) + "\n").encode("utf-8")
