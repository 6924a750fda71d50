"""Per-tree synthesis and drawing, kept as test references.

These are the versions of ``Branch`` validation, ``exp_map``,
``srvft_to_tree``, ``mode_path``, ``sample_random``, ``predict`` and
``render._polyline`` that build one tree (or one polyline) at a time, as
the package did before it reconstructed a whole batch of trees in one
pass.  They are slow but easy to check by reading; the tests require the
package to give the same trees, the same errors and the same SVG text.
``resample_branch`` is the version that tests uniformity twice, before its
loop and inside it; the package must give the same points to the bit.
"""
from __future__ import annotations

import warnings

import numpy as np

from treeshape import Branch, Lateral, RootTree
from treeshape.srvf import EPS_NULL, SrvfTree, _integrate, _sq_norms
from treeshape.statistics import (COEFF_BOUND, Atlas, RegressionModel, _dim, _metric_scale,
                                  flatten_srvft, unflatten_srvft)
from treeshape.tree_model import MAX_BRANCH_LENGTH, _cumulative_arclength, polyline_length


def branch_error(points, is_virtual: bool = False) -> str | None:
    """The message ``Branch(points, is_virtual)`` raised, or None."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        return "branch points must be an (n, 2) array"
    if not np.all(np.isfinite(pts)):
        return "branch coordinates must be finite"
    if is_virtual:
        if len(pts) != 1:
            return "virtual branch must have exactly one point"
    else:
        if len(pts) < 2:
            return "branch needs at least 2 points"
        length = polyline_length(pts)
        if length <= 0.0:
            return "branch has zero length"
        if length > MAX_BRANCH_LENGTH:
            return f"branch length {length:.6g} exceeds the bound {MAX_BRANCH_LENGTH:g}"
    return None


def resample_branch(branch: Branch, n: int) -> Branch:
    """n points uniform in arc length: the input itself if it is already at
    the fixed point, else up to 20 interpolation passes, each of which
    measures its iterate's segments for the test and again for its arc
    length."""
    pts = np.asarray(branch.points, dtype=float)
    if len(pts) == n:
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        mean = seg.mean()
        if mean > 0 and np.max(np.abs(seg - mean)) / mean < 1e-12:
            return branch
    first, last = pts[0].copy(), pts[-1].copy()
    for _ in range(20):
        cum = _cumulative_arclength(pts)
        target = np.linspace(0.0, cum[-1], n)
        pts = np.column_stack(
            [np.interp(target, cum, pts[:, 0]), np.interp(target, cum, pts[:, 1])]
        )
        pts[0] = first
        pts[-1] = last
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        mean = seg.mean()
        if mean <= 0 or np.max(np.abs(seg - mean)) / mean < 1e-12:
            break
    return Branch(pts)


def exp_map(mu: SrvfTree, v: np.ndarray, w) -> SrvfTree:
    dim = _dim(mu)
    if len(v) != dim:
        raise ValueError(f"tangent dimension {len(v)} != layout dimension {dim}")
    vec = flatten_srvft(mu) + np.asarray(v, dtype=float) / _metric_scale(mu, w)
    if mu.n_laterals:
        s_start = dim - mu.n_laterals
        s = vec[s_start:]
        clamped = np.clip(s, 0.0, 1.0)
        if np.any(clamped != s):
            warnings.warn("attachment positions clamped to [0, 1]")
            vec = vec.copy()
            vec[s_start:] = clamped
    return unflatten_srvft(vec, mu)


def srvft_to_tree(Q: SrvfTree, tree_id: str = "reconstructed") -> RootTree:
    main = Branch(_integrate(Q.q0, Q.anchor))
    points = main.points
    n = len(points)
    x = Q.s * (n - 1)
    i0 = np.minimum(np.floor(x).astype(int), n - 2)
    frac = x - i0
    starts = (1.0 - frac)[:, None] * points[i0] + frac[:, None] * points[i0 + 1]
    cum = _cumulative_arclength(points)
    total = cum[-1]
    if total <= 0.0:
        t_arc = np.zeros(len(x))
    else:
        t_arc = (cum[i0] + frac * (cum[i0 + 1] - cum[i0])) / total
    curves = _integrate(Q.q_lat, starts)
    null_norm = np.sqrt(_sq_norms(Q.q_lat)) < EPS_NULL
    null = null_norm | np.all(curves == starts[:, None, :], axis=(1, 2))
    laterals = tuple(
        Lateral(t, Branch(point[None, :], is_virtual=True) if is_null else Branch(curve))
        for t, point, curve, is_null in zip(t_arc.tolist(), starts, curves, null)
    )
    return RootTree(id=tree_id, main=main, laterals=laterals)


def mode_path(atlas: Atlas, mode: int, alpha: float) -> RootTree:
    if not (0 <= mode < atlas.retained):
        raise IndexError(f"mode {mode} out of range (retained={atlas.retained})")
    v = alpha * np.sqrt(atlas.eigenvalues[mode]) * atlas.modes[mode]
    Q = exp_map(atlas.mean, v, atlas.weights)
    return srvft_to_tree(Q, tree_id=f"mode{mode}_alpha{alpha:+.2f}")


def sample_random(atlas: Atlas, rng: np.random.Generator, tree_id: str) -> RootTree:
    coeffs = np.empty(atlas.retained)
    for i in range(atlas.retained):
        b = rng.standard_normal()
        while not (-COEFF_BOUND <= b <= COEFF_BOUND):
            b = rng.standard_normal()
        coeffs[i] = b
    Q = exp_map(atlas.mean, atlas.tangent_from_coeffs(coeffs), atlas.weights)
    return srvft_to_tree(Q, tree_id=tree_id)


def predict(model: RegressionModel, params, tree_id: str = "predicted") -> RootTree:
    coeffs = model.M @ np.concatenate([np.asarray(params, dtype=float), [1.0]])
    atlas = model.atlas
    Q = exp_map(atlas.mean, atlas.tangent_from_coeffs(coeffs), atlas.weights)
    return srvft_to_tree(Q, tree_id=tree_id)


def polyline(pts: np.ndarray, color: str) -> str:
    coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in pts)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="2.000" stroke-linecap="round" '
        f'stroke-linejoin="round"/>'
    )
