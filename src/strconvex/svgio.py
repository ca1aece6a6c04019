"""SVG rendering of arc polygons and point markers.

Fixed scale of 100 SVG units per length unit with a 5% margin; arcs are
emitted exactly as elliptical-arc path commands, so figures are resolution
independent and byte-stable across runs.
"""
from __future__ import annotations

import numpy as np

from .arcpoly import Arc, ArcPolygon

SCALE = 100.0
MARGIN_FRAC = 0.05
STYLES = (
    "fill:#9ec5e8;fill-opacity:0.5;stroke:#1f5fa8;stroke-width:2",
    "fill:none;stroke:#777;stroke-width:1.5;stroke-dasharray:6 4",
    "fill:none;stroke:#2a8a2a;stroke-width:1.5",
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Frame:
    """World-to-SVG transform (y flipped, fixed scale, margin)."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        size = np.maximum(hi - lo, 1e-9)
        self.margin = MARGIN_FRAC * float(size.max()) * SCALE
        self.lo = lo
        self.hi = hi
        self.width = float(size[0]) * SCALE + 2 * self.margin
        self.height = float(size[1]) * SCALE + 2 * self.margin

    def to_svg(self, p) -> tuple[float, float]:
        x = (float(p[0]) - self.lo[0]) * SCALE + self.margin
        y = (self.hi[1] - float(p[1])) * SCALE + self.margin
        return x, y


def _bounds(polygons, points) -> tuple[np.ndarray, np.ndarray]:
    pts = []
    for ap in polygons:
        pts.append(ap.boundary_samples(max(256, len(ap.pieces))))
    if points is not None and len(points):
        pts.append(np.asarray(points, dtype=float))
    allp = np.concatenate(pts) if pts else np.zeros((1, 2))
    return allp.min(axis=0), allp.max(axis=0)


def _path_d(ap: ArcPolygon, frame: _Frame) -> str:
    start = ap.pieces[0].start_point
    x0, y0 = frame.to_svg(start)
    parts = [f"M {_fmt(x0)} {_fmt(y0)}"]
    for piece in ap.pieces:
        ex, ey = frame.to_svg(piece.end_point)
        if isinstance(piece, Arc):
            r = piece.radius * SCALE
            large = 1 if piece.span > np.pi else 0
            # CCW in world coordinates is the negative-angle sweep after the y flip
            parts.append(f"A {_fmt(r)} {_fmt(r)} 0 {large} 0 {_fmt(ex)} {_fmt(ey)}")
        else:
            parts.append(f"L {_fmt(ex)} {_fmt(ey)}")
    parts.append("Z")
    return " ".join(parts)


def render_svg(polygons, points=None) -> str:
    """SVG document showing arc polygons (in order) and optional point markers."""
    polygons = [ap for ap in polygons if not ap.is_singleton]
    lo, hi = _bounds(polygons, points)
    frame = _Frame(lo, hi)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(frame.width)}" '
        f'height="{_fmt(frame.height)}" viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}">',
    ]
    for i, ap in enumerate(polygons):
        style = STYLES[min(i, len(STYLES) - 1)]
        lines.append(f'  <path d="{_path_d(ap, frame)}" style="{style}"/>')
    if points is not None:
        for p in np.asarray(points, dtype=float):
            cx, cy = frame.to_svg(p)
            lines.append(
                f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(0.02 * SCALE)}" '
                f'style="fill:#c33"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
