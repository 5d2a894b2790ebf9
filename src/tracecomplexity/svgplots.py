"""Static SVG figures: the complexity map and traffic-matrix heatmaps.

Hand-rolled SVG so output is a pure function of the input values: no
plotting-library version can perturb bytes between runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

PALETTE = [
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
    "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd",
]


@dataclass(frozen=True)
class MapPoint:
    name: str
    temporal: float
    non_temporal: float
    overall: float


# Plot geometry: a square data region for [0, 1] x [0, 1] with headroom for
# noise-driven values slightly above 1.
_SIZE = 560
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 24, 24, 60
_SPAN = 1.05
_MAX_RADIUS = 34.0  # radius at overall complexity 1; area scales with overall


def _sx(x: float) -> float:
    return _MARGIN_L + x / _SPAN * (_SIZE - _MARGIN_L - _MARGIN_R)


def _sy(y: float) -> float:
    return _SIZE - _MARGIN_B - y / _SPAN * (_SIZE - _MARGIN_T - _MARGIN_B)


def complexity_map_svg(points: list[MapPoint]) -> str:
    """Scatter of traces on the (temporal, non-temporal) plane.

    Circle area is proportional to the overall complexity; a tiny visibility
    floor applies to the radius only, never to the recorded values.
    """
    if not points:
        raise ValueError("no points to plot")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    # grid and ticks at 0.2 steps
    for i in range(6):
        v = i * 0.2
        x, y = _sx(v), _sy(v)
        parts.append(f'<line x1="{x:.2f}" y1="{_sy(0):.2f}" x2="{x:.2f}" y2="{_sy(_SPAN):.2f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<line x1="{_sx(0):.2f}" y1="{y:.2f}" x2="{_sx(_SPAN):.2f}" y2="{y:.2f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{_sy(0) + 20:.2f}" font-size="12" '
                     f'text-anchor="middle" font-family="sans-serif">{v:.1f}</text>')
        parts.append(f'<text x="{_sx(0) - 8:.2f}" y="{y + 4:.2f}" font-size="12" '
                     f'text-anchor="end" font-family="sans-serif">{v:.1f}</text>')
    # axes
    parts.append(f'<line x1="{_sx(0):.2f}" y1="{_sy(0):.2f}" x2="{_sx(_SPAN):.2f}" '
                 f'y2="{_sy(0):.2f}" stroke="black" stroke-width="1.5"/>')
    parts.append(f'<line x1="{_sx(0):.2f}" y1="{_sy(0):.2f}" x2="{_sx(0):.2f}" '
                 f'y2="{_sy(_SPAN):.2f}" stroke="black" stroke-width="1.5"/>')
    parts.append(f'<text x="{(_sx(0) + _sx(_SPAN)) / 2:.2f}" y="{_SIZE - 14}" font-size="14" '
                 f'text-anchor="middle" font-family="sans-serif">temporal complexity</text>')
    parts.append(f'<text x="18" y="{(_sy(0) + _sy(_SPAN)) / 2:.2f}" font-size="14" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'transform="rotate(-90 18 {(_sy(0) + _sy(_SPAN)) / 2:.2f})">'
                 f'non-temporal complexity</text>')
    for i, p in enumerate(points):
        color = PALETTE[i % len(PALETTE)]
        r = max(_MAX_RADIUS * math.sqrt(max(p.overall, 0.0)), 1.5)
        cx = _sx(min(max(p.temporal, 0.0), _SPAN))
        cy = _sy(min(max(p.non_temporal, 0.0), _SPAN))
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="{color}" '
                     f'fill-opacity="0.45" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{cx:.2f}" y="{cy - r - 4:.2f}" font-size="12" '
                     f'text-anchor="middle" font-family="sans-serif">{_escape(p.name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_map_csv(points: list[MapPoint], path) -> None:
    """The plotted values, verbatim: no rounding between report and CSV."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "temporal", "non_temporal", "overall"])
        for p in points:
            w.writerow([p.name, repr(p.temporal), repr(p.non_temporal), repr(p.overall)])


#: Fill of a cell at each shade; 255 is white, the fill of cells without traffic.
_FILLS = [f"rgb({shade},{shade},255)" for shade in range(256)]


def matrix_heatmap_chunks(dense: np.ndarray, log_scale: bool = False,
                          cell: int = 24) -> Iterator[str]:
    """The text of ``matrix_heatmap_svg`` in pieces: the head, one row of
    cells at a time, then the axis labels. Memory stays at a row's text."""
    grid = np.asarray(dense, dtype=np.float64)
    n_rows, n_cols = grid.shape
    pad_l, pad_t = 40, 10
    width = pad_l + n_cols * cell + 10
    height = pad_t + n_rows * cell + 40
    vmax = float(grid.max())
    positive = grid > 0
    vmin = float(grid.min(where=positive, initial=np.inf)) if positive.any() else 0.0
    del positive
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">\n'
           f'<rect width="{width}" height="{height}" fill="white"/>\n')
    log_ramp = log_scale and vmax > vmin
    if log_ramp:
        low = math.log10(vmin)
        span = math.log10(vmax) - low
    xs = [pad_l + j * cell for j in range(n_cols)]
    for i, row in enumerate(grid):
        # A cell's intensity: 0 without traffic, else its place on the ramp
        # from vmin (log scale) or 0 up to vmax. A NaN anywhere makes vmax NaN.
        lit = ~(row <= 0) if not vmax <= 0 else np.zeros(n_cols, dtype=bool)
        intensity = np.zeros(n_cols)
        if log_ramp:
            intensity[lit] = [(math.log10(v) - low) / span for v in row[lit].tolist()]
        elif log_scale:
            intensity[lit] = 1.0
        else:
            intensity[lit] = row[lit] / vmax
        shade = np.round(255 * (1.0 - 0.92 * np.clip(intensity, 0.0, 1.0)))
        if np.isnan(shade).any():  # a NaN or infinite cell has no place on the ramp
            raise ValueError("cannot convert float NaN to integer")
        shade[~(row > 0)] = 255
        y = pad_t + i * cell
        yield "".join(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                      f'fill="{_FILLS[s]}" stroke="#eeeeee" stroke-width="0.5"/>\n'
                      for x, s in zip(xs, shade.astype(np.intp).tolist()))
    yield (f'<text x="{pad_l + n_cols * cell / 2:.0f}" y="{height - 12}" font-size="13" '
           f'text-anchor="middle" font-family="sans-serif">destination</text>\n'
           f'<text x="14" y="{pad_t + n_rows * cell / 2:.0f}" font-size="13" '
           f'text-anchor="middle" font-family="sans-serif" '
           f'transform="rotate(-90 14 {pad_t + n_rows * cell / 2:.0f})">source</text>\n'
           '</svg>\n')


def matrix_heatmap_svg(dense: np.ndarray, log_scale: bool = False, cell: int = 24) -> str:
    """Heatmap of a dense pair-probability grid; darker means more traffic.

    With log_scale the color ramp runs between the smallest and largest
    positive cells on a log axis, which keeps heavy-tailed matrices readable.
    """
    return "".join(matrix_heatmap_chunks(dense, log_scale, cell))


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
