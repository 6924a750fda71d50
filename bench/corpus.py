"""Seeded synthetic root-tree corpora for the benchmark.

Trees are written as root JSON files in the format README documents, using
only numpy and the standard library, so the program under test receives
nothing but files.  The same (seed, kind) always yields the same bytes.

Lateral counts follow a fixed pattern per tree index, and only shapes,
positions, bends and rigid poses are drawn from the seed.  The amount of
work a corpus causes (augmented lateral counts, pair count) is therefore the
same for every seed: the seed changes the trees but not the job size.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MATRIX_TREES = 10
MATRIX_MAX_LATERALS = 12
# Most atlas trees carry all three laterals, so the medoid that starts the
# Karcher mean does too and every lateral has a partner from the first
# registration.  With a 2-lateral medoid (counts 1, 2, 3, 1, 2, 3), the
# third laterals landed on different virtual slots and the descent ended at
# one of two objective levels 15 % apart, depending on the seed.
ATLAS_LATERALS = (1, 2, 3, 3, 3, 3)
# the atlas template: main bend modes, then per lateral slot its position,
# side, droop and curvature
ATLAS_BENDS = np.array([0.06, -0.04, 0.03])
ATLAS_SLOTS = np.array([0.3, 0.55, 0.8])
ATLAS_SIDES = np.array([1.0, -1.0, 1.0])
ATLAS_DROOPS = np.array([-0.3, -0.25, -0.35])
ATLAS_CURVES = np.array([0.1, -0.08, 0.05])
# how far each tree departs from the template in bends, droops and curvatures
ATLAS_DEVIATION = 0.08


def _arc_point(points: np.ndarray, t: float) -> np.ndarray:
    """Point at arc-length fraction t of a polyline."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    target = t * cum[-1]
    return np.array([np.interp(target, cum, points[:, c]) for c in range(2)])


def make_tree(
    tree_id: str,
    main_length: float,
    bends: np.ndarray,
    laterals: list[tuple[float, float, float, float, float]],
    theta: float,
    shift: np.ndarray,
    n_main_points: int = 120,
    n_lateral_points: int = 40,
) -> dict:
    """One tree as a root-file dict.

    The main is a vertical curve bent by three sine modes (``bends``); each
    lateral is (t, length as a fraction of the main, side, droop, curve).
    The whole tree is rotated by ``theta`` and moved by ``shift``.
    """
    u = np.linspace(0.0, 1.0, n_main_points)
    a, b, c = bends
    x = a * np.sin(np.pi * u) + b * np.sin(2 * np.pi * u) + 0.5 * c * np.sin(3 * np.pi * u)
    main = np.column_stack([x, -u]) * main_length
    v = np.linspace(0.0, 1.0, n_lateral_points)
    branches = []
    for t, frac, side, droop, curve in sorted(laterals):
        offset = np.column_stack([side * v, droop * v + curve * v**2])
        branches.append((float(t), _arc_point(main, float(t)) + frac * main_length * offset))
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])

    def pose(pts: np.ndarray) -> list:
        return [[float(p), float(q)] for p, q in pts @ rot.T + shift]

    return {
        "id": tree_id,
        "main": pose(main),
        "laterals": [{"t": t, "points": pose(pts)} for t, pts in branches],
    }


def _pose(rng: np.random.Generator) -> dict:
    return {"theta": rng.uniform(0.0, 2.0 * math.pi), "shift": rng.uniform(-1.0, 1.0, 2)}


def matrix_corpus(seed: int, m: int = MATRIX_TREES) -> list[dict]:
    """m varied trees whose lateral counts span 0..MATRIX_MAX_LATERALS evenly.

    Each shape parameter is drawn stratified over its range across the whole
    corpus (one draw per equal-width stratum, shuffled), so the spread of
    shapes, and with it the mean pairwise distance, is nearly the same for
    every seed.
    """
    rng = np.random.default_rng([seed, 1])
    counts = [round(i * MATRIX_MAX_LATERALS / (m - 1)) for i in range(m)]
    main_lengths = stratified(rng, 0.9, 1.3, m)
    bends = np.array([stratified(rng, -0.25, 0.25, m) for _ in range(3)])
    total = sum(counts)
    laterals = list(zip(
        stratified(rng, 0.1, 0.9, total), stratified(rng, 0.15, 0.45, total),
        _balanced_signs(rng, total), stratified(rng, -0.5, -0.1, total),
        stratified(rng, -0.3, 0.3, total),
    ))
    trees, used = [], 0
    for i, k in enumerate(counts):
        trees.append(make_tree(f"m{i:02d}", main_lengths[i], bends[:, i],
                               laterals[used:used + k], **_pose(rng)))
        used += k
    return trees


def stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """n draws, one uniform in each of n equal slices of [lo, hi], shuffled."""
    return lo + (hi - lo) * rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


def _balanced_signs(rng: np.random.Generator, n: int) -> np.ndarray:
    """n signs, half +1 and half -1 (one extra +1 if n is odd), shuffled."""
    return rng.permutation(np.resize([1.0, -1.0], n))


def atlas_corpus(seed: int, counts: tuple[int, ...] = ATLAS_LATERALS) -> list[dict]:
    """A population around one fixed template: laterals fill slots in order.

    Tree i carries the first ``counts[i]`` of three lateral slots.  Every
    tree departs from the template by fixed amounts, and the seed draws the
    signs of those departures (balanced across the trees that share a
    parameter) and the rigid poses.  Each seed thus gives a different
    population of the same structure and spread, with a Karcher objective
    within a few percent of the others'.
    """
    rng = np.random.default_rng([seed, 2])
    m = len(counts)
    bends = ATLAS_BENDS[:, None] + ATLAS_DEVIATION * np.array([_balanced_signs(rng, m) for _ in range(3)])
    lengths = 1.0 + 0.04 * _balanced_signs(rng, m)
    laterals: list[list] = [[] for _ in range(m)]
    for j, (slot, side) in enumerate(zip(ATLAS_SLOTS, ATLAS_SIDES)):
        owners = [i for i, k in enumerate(counts) if k > j]
        dt, dlen, ddroop, dcurve = (_balanced_signs(rng, len(owners)) for _ in range(4))
        for n, i in enumerate(owners):
            laterals[i].append((
                slot + 0.03 * dt[n], 0.3 * (1.0 + 0.08 * dlen[n]), side,
                ATLAS_DROOPS[j] + ATLAS_DEVIATION * ddroop[n], ATLAS_CURVES[j] + ATLAS_DEVIATION * dcurve[n],
            ))
    return [
        make_tree(f"a{i:02d}", lengths[i], bends[:, i], laterals[i], **_pose(rng))
        for i in range(m)
    ]


def write_corpus(trees: list[dict], directory: Path) -> list[Path]:
    """Write one ``<id>.json`` per tree into an empty or new directory."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for tree in trees:
        path = directory / f"{tree['id']}.json"
        path.write_text(json.dumps(tree, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
