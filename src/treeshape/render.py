"""SVG rendering of root trees, tree rows (geodesics, mode sweeps) and
dendrograms.

Branches are drawn as polylines; laterals sharing a correspondence index
across a figure share a palette color, and virtual laterals are omitted.
The y axis is flipped so that mathematically "downward" roots (decreasing
y) grow down the page.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .clustering import Dendrogram
from .tree_model import RootTree

PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
    "#f781bf", "#17becf", "#bcbd22", "#8c564b", "#2ca02c", "#d62728",
)

STROKE_WIDTH = 2.0
MAIN_COLOR = "#333333"
PANEL_WIDTH = 240.0
PANEL_HEIGHT = 320.0
MARGIN = 20.0


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _union_bbox(trees: Sequence[RootTree]) -> tuple[float, float, float, float]:
    """(x min, x max, y min, y max) over the mains and real laterals."""
    pts = np.vstack([tree.main.points for tree in trees]
                    + [br.points for tree in trees for _, br in tree.real_laterals])
    (x0, y0), (x1, y1) = pts.min(axis=0), pts.max(axis=0)
    return float(x0), float(x1), float(y0), float(y1)


class _PanelTransform:
    """Fit a data bbox into one panel, preserving aspect and flipping y."""

    def __init__(self, bbox, x_offset: float = 0.0):
        x0, x1, y0, y1 = bbox
        spanx = max(x1 - x0, 1e-12)
        spany = max(y1 - y0, 1e-12)
        inner_w = PANEL_WIDTH - 2 * MARGIN
        inner_h = PANEL_HEIGHT - 2 * MARGIN
        self.scale = min(inner_w / spanx, inner_h / spany)
        self.x0, self.y1 = x0, y1
        self.ox = x_offset + MARGIN + (inner_w - spanx * self.scale) / 2
        self.oy = MARGIN + (inner_h - spany * self.scale) / 2

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        out = np.empty_like(pts)
        out[:, 0] = self.ox + (pts[:, 0] - self.x0) * self.scale
        out[:, 1] = self.oy + (self.y1 - pts[:, 1]) * self.scale
        return out


def _escape(text: str) -> str:
    """``text`` as SVG character data.  (``html.escape`` does the same but
    imports a 2 000-entry entity table, about 0.4 MB of resident memory.)"""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _polyline(pts: np.ndarray, color: str) -> str:
    coords = " ".join(map("{:.3f},{:.3f}".format, pts[:, 0].tolist(), pts[:, 1].tolist()))
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{_fmt(STROKE_WIDTH)}" stroke-linecap="round" '
        f'stroke-linejoin="round"/>'
    )


def _svg_document(width: float, height: float, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _panel_elements(tree: RootTree, transform: _PanelTransform) -> list[str]:
    """The main and the real laterals; the k-th lateral takes palette color k."""
    elements = [_polyline(transform(tree.main.points), MAIN_COLOR)]
    for k, (t, br) in enumerate(tree.laterals):
        if not br.is_virtual:
            elements.append(_polyline(transform(br.points), PALETTE[k % len(PALETTE)]))
    return elements


def render_tree(tree: RootTree) -> str:
    """One tree in one panel."""
    return render_tree_row([tree])


def render_tree_row(trees: Sequence[RootTree], titles: Sequence[str] | None = None) -> str:
    """Side-by-side panels on one shared scale, with consistent lateral
    colors across panels.

    Used for geodesic strips and mode sweeps: ``srvft_to_tree`` keeps SRVF
    lateral k as lateral k, so the k-th lateral of each tree corresponds to
    the k-th lateral of every other.
    """
    if not trees:
        raise ValueError("nothing to render")
    bbox = _union_bbox(trees)
    body = []
    for i, tree in enumerate(trees):
        x_off = i * PANEL_WIDTH
        body.extend(_panel_elements(tree, _PanelTransform(bbox, x_offset=x_off)))
        if titles is not None:
            body.append(
                f'<text x="{_fmt(x_off + PANEL_WIDTH / 2)}" '
                f'y="{_fmt(PANEL_HEIGHT - 4)}" text-anchor="middle" '
                f'font-size="10" font-family="sans-serif" fill="#666666">'
                f"{_escape(titles[i])}</text>"
            )
    return _svg_document(PANEL_WIDTH * len(trees), PANEL_HEIGHT, body)


def _leaf_order(dend: Dendrogram) -> list[int]:
    """Left-to-right leaf order that keeps merge brackets from crossing."""
    m = dend.n_leaves
    children = {
        m + idx: (int(l), int(r)) for idx, (l, r, _, _) in enumerate(dend.merges)
    }
    order: list[int] = []
    stack = [2 * m - 2] if m > 1 else [0]
    while stack:
        node = stack.pop()
        if node < m:
            order.append(node)
        else:
            left, right = children[node]
            stack.append(right)
            stack.append(left)
    return order


def render_dendrogram(dend: Dendrogram) -> str:
    """Classic dendrogram: leaves along x, merge heights up the y axis."""
    m = dend.n_leaves
    width = max(PANEL_WIDTH, 40.0 * m + 2 * MARGIN)
    height = PANEL_HEIGHT
    inner_h = height - 2 * MARGIN - 14.0  # leave room for labels
    max_h = max(float(dend.heights().max()), 1e-12)

    def y_of(h: float) -> float:
        return MARGIN + inner_h * (1.0 - h / max_h)

    # x position and current height per cluster id
    xs = {
        leaf: MARGIN + (width - 2 * MARGIN) * (slot + 0.5) / m
        for slot, leaf in enumerate(_leaf_order(dend))
    }
    hs = {i: 0.0 for i in range(m)}
    body = []
    for idx, (left, right, h, _) in enumerate(dend.merges):
        left, right = int(left), int(right)
        xl, xr = xs[left], xs[right]
        yl, yr, y = y_of(hs[left]), y_of(hs[right]), y_of(h)
        body.append(
            f'<path d="M {_fmt(xl)} {_fmt(yl)} V {_fmt(y)} H {_fmt(xr)} '
            f'V {_fmt(yr)}" fill="none" stroke="#555555" stroke-width="1.5"/>'
        )
        xs[m + idx] = (xl + xr) / 2
        hs[m + idx] = float(h)
    for i, label in enumerate(dend.leaf_labels):
        body.append(
            f'<text x="{_fmt(xs[i])}" y="{_fmt(height - MARGIN + 10)}" '
            f'text-anchor="middle" font-size="9" font-family="sans-serif" '
            f'fill="#333333">{_escape(label)}</text>'
        )
    return _svg_document(width, height, body)
