"""Object-based registration and reconstruction, kept as test references.

These are the per-lateral ``Srvf``/``SrvfTree`` versions of ``register``,
``apply_registration`` and ``srvft_to_tree`` that the array kernels replaced.
They rebuild and re-validate SRVF objects for every candidate cost, which is
slow but easy to check by reading; the tests require the package to give
bit-identical results.  The main-curve DP is shared (it has its own loop
reference in ``test_registration.py``).
"""
from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import linear_sum_assignment

from treeshape import Branch, Lateral, RootTree
from treeshape.registration import DP_MAX_STEP, Gamma, Registration, optimal_reparam_main
from treeshape.srvf import LateralSrvf, Srvf, SrvfTree, Weights, from_srvf, trapezoid_weights
from treeshape.tree_model import _cumulative_arclength


def l2_dist_sq(q1: Srvf, q2: Srvf) -> float:
    d = q1.samples - q2.samples
    w = trapezoid_weights(q1.n)
    return float(w @ np.einsum("ij,ij->i", d, d))


def rotate_srvf(q: Srvf, rotation: np.ndarray) -> Srvf:
    return Srvf(q.samples @ np.asarray(rotation).T)


def warp_srvf(q: Srvf, gamma: Gamma) -> Srvf:
    if gamma.is_identity():
        return q
    pos = gamma.values * (q.n - 1)
    idx = np.arange(q.n)
    warped = np.column_stack([np.interp(pos, idx, q.samples[:, c]) for c in range(2)])
    return Srvf(warped * np.sqrt(gamma.derivative())[:, None])


def transform_tree(Q, rotation=None, gamma=None, remap_s=True) -> SrvfTree:
    q0 = Q.q0
    laterals = Q.laterals
    anchor = Q.anchor
    if gamma is not None and not gamma.is_identity():
        q0 = warp_srvf(q0, gamma)
        if remap_s:
            laterals = tuple(LateralSrvf(q, float(gamma.inverse_at(s))) for q, s in laterals)
    if rotation is not None:
        rot = np.asarray(rotation)
        q0 = rotate_srvf(q0, rot)
        laterals = tuple(LateralSrvf(rotate_srvf(q, rot), s) for q, s in laterals)
        anchor = rot @ anchor
    return SrvfTree(q0=q0, laterals=laterals, anchor=anchor)


def apply_registration(Q: SrvfTree, reg: Registration) -> SrvfTree:
    moved = transform_tree(Q, rotation=reg.rotation, gamma=reg.gamma, remap_s=reg.remap_s)
    laterals = tuple(moved.laterals[j] for j in reg.assignment)
    return SrvfTree(q0=moved.q0, laterals=laterals, anchor=moved.anchor)


def lateral_cost_matrix(a: SrvfTree, b: SrvfTree, w: Weights) -> np.ndarray:
    qa = np.stack([q.samples for q, _ in a.laterals])
    qb = np.stack([q.samples for q, _ in b.laterals])
    tw = trapezoid_weights(qa.shape[1])
    na = np.einsum("imc,imc,m->i", qa, qa, tw)
    nb = np.einsum("imc,imc,m->i", qb, qb, tw)
    cross = np.einsum("imc,jmc,m->ij", qa, qb, tw)
    shape_cost = na[:, None] + nb[None, :] - 2.0 * cross
    ds = a.s_values()[:, None] - b.s_values()[None, :]
    return w.lambda_s * np.clip(shape_cost, 0.0, None) + w.lambda_p * ds * ds


def match_laterals(a: SrvfTree, b: SrvfTree, w: Weights) -> np.ndarray:
    n = a.n_laterals
    if n == 0:
        return np.arange(0)
    rows, cols = linear_sum_assignment(lateral_cost_matrix(a, b, w))
    perm = np.empty(n, dtype=int)
    perm[rows] = cols
    return perm


def optimal_rotation(a: SrvfTree, b: SrvfTree, assignment, w: Weights) -> np.ndarray:
    blocks_a = [a.q0.samples]
    blocks_b = [b.q0.samples]
    weights = [w.lambda_m * trapezoid_weights(a.q0.n)]
    for k, j in enumerate(np.asarray(assignment, dtype=int)):
        qa = a.laterals[k].q
        blocks_a.append(qa.samples)
        blocks_b.append(b.laterals[j].q.samples)
        weights.append(w.lambda_s * trapezoid_weights(qa.n))
    A = np.vstack(blocks_a)
    B = np.vstack(blocks_b)
    wv = np.concatenate(weights)
    M = (B * wv[:, None]).T @ A
    U, S, Vt = np.linalg.svd(M)
    if S[0] < 1e-12:
        warnings.warn("degenerate cross-covariance; returning identity rotation")
        return np.eye(2)
    V = Vt.T
    d = np.sign(np.linalg.det(V @ U.T))
    return V @ np.diag([1.0, d]) @ U.T


def preshape_dissimilarity_sq(a: SrvfTree, b: SrvfTree, w: Weights) -> float:
    total = w.lambda_m * l2_dist_sq(a.q0, b.q0)
    for (qa, sa), (qb, sb) in zip(a.laterals, b.laterals):
        total += w.lambda_s * l2_dist_sq(qa, qb)
        total += w.lambda_p * (sa - sb) ** 2
    return float(total)


def _aligned_cost(a, b, rotation, gamma, assignment, w, remap_s=True) -> float:
    moved = transform_tree(b, rotation=rotation, gamma=gamma, remap_s=remap_s)
    reordered = SrvfTree(
        q0=moved.q0,
        laterals=tuple(moved.laterals[j] for j in assignment),
        anchor=moved.anchor,
    )
    return preshape_dissimilarity_sq(a, reordered, w)


def register(a, b, w, max_iter=10, tol=1e-8, max_step=DP_MAX_STEP, remap_s=True) -> Registration:
    n = a.q0.n
    N = a.n_laterals
    gamma = Gamma.identity(n)
    assignment = np.arange(N)
    cost = _aligned_cost(a, b, np.eye(2), gamma, assignment, w, remap_s)
    history = [cost]
    rotation = np.eye(2)
    if N:
        main_only = Weights(max(w.lambda_m, 1e-12), 0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            candidate = optimal_rotation(a, b, assignment, main_only)
        best = cost
        for cand in (np.eye(2), candidate):
            pi = match_laterals(a, transform_tree(b, rotation=cand), w)
            c = _aligned_cost(a, b, cand, gamma, pi, w, remap_s)
            if c < best:
                best = c
                rotation = cand
                assignment = pi
    for _ in range(max_iter):
        moved = transform_tree(b, rotation=rotation, gamma=gamma, remap_s=remap_s)
        assignment = match_laterals(a, moved, w)
        b_warped = transform_tree(b, gamma=gamma, remap_s=remap_s)
        rotation = optimal_rotation(a, b_warped, assignment, w)
        q2_rot = rotate_srvf(b.q0, rotation)
        gamma_new = optimal_reparam_main(a.q0, q2_rot, max_step)
        cost_new = _aligned_cost(a, b, rotation, gamma_new, assignment, w, remap_s)
        cost_keep = _aligned_cost(a, b, rotation, gamma, assignment, w, remap_s)
        if cost_new <= cost_keep:
            gamma = gamma_new
            sweep_cost = cost_new
        else:
            sweep_cost = cost_keep
        history.append(sweep_cost)
        decrease = history[-2] - sweep_cost
        if decrease < tol * max(history[-2], 1e-30):
            break
    return Registration(
        rotation=rotation,
        gamma=gamma,
        assignment=assignment,
        cost=history[-1],
        cost_history=tuple(history),
        remap_s=remap_s,
    )


def _param_point(points: np.ndarray, s: float) -> tuple[np.ndarray, float]:
    n = len(points)
    x = float(s) * (n - 1)
    i0 = min(int(np.floor(x)), n - 2)
    frac = x - i0
    point = (1.0 - frac) * points[i0] + frac * points[i0 + 1]
    cum = _cumulative_arclength(points)
    total = cum[-1]
    if total <= 0.0:
        return point, 0.0
    arc = cum[i0] + frac * (cum[i0 + 1] - cum[i0])
    return point, float(arc / total)


def srvft_to_tree(Q: SrvfTree, tree_id: str = "reconstructed", eps_null: float = 1e-8) -> RootTree:
    main = from_srvf(Q.q0, Q.anchor)
    laterals = []
    for q, s in Q.laterals:
        s = min(max(float(s), 0.0), 1.0)
        point, t_arc = _param_point(main.points, s)
        if np.sqrt(q.norm_sq) < eps_null:
            laterals.append(Lateral(t_arc, Branch(point[None, :], is_virtual=True)))
        else:
            laterals.append(Lateral(t_arc, from_srvf(q, point)))
    return RootTree(id=tree_id, main=main, laterals=tuple(laterals))
