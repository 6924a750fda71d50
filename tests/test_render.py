import xml.etree.ElementTree as ET

import numpy as np
import pytest

from treeshape import (
    DistanceMatrix,
    geodesic,
    linkage,
    render_dendrogram,
    render_tree,
    render_tree_row,
)
from treeshape.metric import PairOptions
from treeshape.render import PANEL_WIDTH
from treeshape.tree_model import augment_pair

from conftest import smooth_tree, straight_tree

FAST = PairOptions(n_main=50, n_lateral=20)
SVG_NS = "{http://www.w3.org/2000/svg}"


def polyline_count(svg: str) -> int:
    root = ET.fromstring(svg)  # also checks well-formedness
    return len(root.findall(f".//{SVG_NS}polyline"))


class TestRenderTree:
    def test_polyline_per_branch(self):
        tree = straight_tree("t", 1.0, laterals=[(0.3, 0.2, 1), (0.7, 0.3, -1)])
        assert polyline_count(render_tree(tree)) == 3

    def test_bare_tree_single_polyline(self):
        assert polyline_count(render_tree(straight_tree("t", 1.0))) == 1

    def test_virtual_laterals_omitted(self):
        a = straight_tree("a", 1.0, laterals=[(0.4, 0.2, 1)])
        b = straight_tree("b", 1.0, laterals=[(0.6, 0.2, -1)])
        a2, _ = augment_pair(a, b)
        assert a2.n_laterals == 2
        assert polyline_count(render_tree(a2)) == 2  # main + one real lateral


class TestRenderRow:
    def test_geodesic_strip_panels(self, rng):
        a = smooth_tree(rng, "a", 2)
        b = smooth_tree(rng, "b", 1)
        trees = geodesic(a, b, steps=5, opts=FAST).trees()
        svg = render_tree_row(trees)
        root = ET.fromstring(svg)
        width = float(root.get("width"))
        assert width == pytest.approx(5 * PANEL_WIDTH)
        # consistent lateral coloring across panels: the k-th lateral uses
        # the same palette entry in every panel
        polys = root.findall(f".//{SVG_NS}polyline")
        assert len(polys) >= 5  # at least one main per panel

    def test_titles_rendered(self, rng):
        trees = [smooth_tree(rng, f"t{i}", 1) for i in range(3)]
        svg = render_tree_row(trees, titles=["a", "b", "c"])
        root = ET.fromstring(svg)
        texts = [el.text for el in root.findall(f".//{SVG_NS}text")]
        assert texts == ["a", "b", "c"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_tree_row([])

    def test_titles_escaped(self, rng):
        trees = [smooth_tree(rng, f"t{i}", 1) for i in range(2)]
        svg = render_tree_row(trees, titles=["a&b", "c<d"])
        texts = [el.text for el in ET.fromstring(svg).findall(f".//{SVG_NS}text")]
        assert texts == ["a&b", "c<d"]


class TestRenderDendrogram:
    def test_well_formed_and_labeled(self, rng):
        d = rng.uniform(1, 10, size=(5, 5))
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        dend = linkage(DistanceMatrix(labels=("r1", "r2", "r3", "r4", "r5"), values=d), "single")
        svg = render_dendrogram(dend)
        root = ET.fromstring(svg)
        texts = {el.text for el in root.findall(f".//{SVG_NS}text")}
        assert texts == {"r1", "r2", "r3", "r4", "r5"}
        assert len(root.findall(f".//{SVG_NS}path")) == 4
