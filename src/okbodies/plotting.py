"""Plot-data emission for bodies: exact CSV vertex lists and simple SVG
projections.  Deterministic output; floats only in the SVG coordinates."""

from __future__ import annotations

from . import kernel
from .linalg import clear_denominators
from .polytope import Polytope


def emit_csv(body: Polytope) -> str:
    """Exact rational vertex list, one vertex per row."""
    header = ",".join(f"x{i+1}" for i in range(body.ambient_dim))
    rows = [",".join(str(c) for c in v) for v in body.vertices]
    return "\n".join([header] + rows) + "\n"


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _projection_axes(body: Polytope):
    varying = [c for c in range(body.ambient_dim)
               if any(v[c] != body.vertices[0][c] for v in body.vertices)]
    axes = (varying + [c for c in range(body.ambient_dim) if c not in varying])[:2]
    while len(axes) < 2:
        axes.append(axes[0] if axes else 0)
    return axes[0], axes[1]


def emit_svg(body: Polytope, size: int = 400) -> str:
    """Closed-path polygon of the 2D projection onto the first two varying
    coordinate axes; bodies above dimension 3 are rejected."""
    if body.is_empty:
        raise ValueError("cannot plot an empty body")
    if body.dim() > 3:
        raise ValueError("svg output is limited to bodies of dimension <= 3")
    ax, ay = _projection_axes(body)
    pts = sorted({(v[ax], v[ay]) for v in body.vertices})
    if len(pts) > 2:
        ints, _ = clear_denominators(pts)
        cyc = kernel.hull2d_indices(ints)
        poly = [pts[i] for i in cyc]
    else:
        poly = pts
    xs = [float(p[0]) for p in poly]
    ys = [float(p[1]) for p in poly]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.05 * span
    scale = size / (span + 2 * pad)

    def s(p):
        x = (float(p[0]) - lo_x + pad) * scale
        y = size - (float(p[1]) - lo_y + pad) * scale
        return f"{_fmt(x)},{_fmt(y)}"

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">']
    if len(poly) == 1:
        lines.append(f'<circle cx="{s(poly[0]).split(",")[0]}" '
                     f'cy="{s(poly[0]).split(",")[1]}" r="4" fill="black"/>')
    else:
        path = " ".join(s(p) for p in poly)
        lines.append(f'<polygon points="{path}" fill="none" stroke="black" '
                     f'stroke-width="1.5"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_plot(body: Polytope, fmt: str) -> str:
    if fmt == "csv":
        return emit_csv(body)
    if fmt == "svg":
        return emit_svg(body)
    raise ValueError(f"unknown plot format: {fmt!r}")
