"""Registration of one SRVF-tree onto another.

Alignment has three unknowns solved by coordinate descent: a lateral
correspondence (linear assignment), a planar rotation (weighted Procrustes),
and a reparameterization of the main curve (dynamic programming over
monotone grid paths).  Each sweep re-solves the three subproblems and the
dissimilarity is recomputed; the cost sequence is nonincreasing because the
reparameterization update is only accepted when it lowers the full cost.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .srvf import LateralSrvf, Srvf, SrvfTree, Weights, l2_dist_sq, trapezoid_weights

# Monotone-path stencil: coprime index steps up to this bound, i.e. local
# slopes between 1/10 and 10.  Tighter strips cannot track warps with strong
# speed contrast (e.g. aligning a constant-speed curve to one traversed with
# linearly growing speed needs unbounded slope near the ends).
DP_MAX_STEP = 10


@dataclass(frozen=True)
class Gamma:
    """Discrete reparameterization of [0, 1]: values at the uniform grid."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) < 2:
            raise ValueError("gamma needs at least two grid values")
        if abs(vals[0]) > 1e-12 or abs(vals[-1] - 1.0) > 1e-12:
            raise ValueError("gamma must map 0 to 0 and 1 to 1")
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError("gamma must be nondecreasing")
        vals[0], vals[-1] = 0.0, 1.0
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def identity(cls, n: int) -> "Gamma":
        return cls(np.linspace(0.0, 1.0, n))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n)

    def derivative(self) -> np.ndarray:
        h = 1.0 / (self.n - 1)
        return np.clip(np.gradient(self.values, h), 0.0, None)

    def inverse_at(self, s: np.ndarray | float) -> np.ndarray | float:
        """Monotone linear-interpolation inverse evaluated at s."""
        out = np.interp(s, self.values, self.grid)
        return float(out) if np.isscalar(s) else out

    def is_identity(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.values - self.grid)) <= tol)


@dataclass(frozen=True)
class Registration:
    """Optimal alignment of tree b onto tree a."""

    rotation: np.ndarray  # 2x2, det +1
    gamma: Gamma
    assignment: np.ndarray  # assignment[k] = index in b matched to a's lateral k
    cost: float
    cost_history: tuple[float, ...] = ()
    # remap attachment positions by gamma^-1 when applying; the alternative
    # (positions fixed under reparameterization) is selectable per run
    remap_s: bool = True

    def __post_init__(self) -> None:
        rot = np.array(self.rotation, dtype=float).reshape(2, 2)
        rot.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        perm = np.array(self.assignment, dtype=int)
        if perm.ndim != 1 or sorted(perm.tolist()) != list(range(len(perm))):
            raise ValueError("assignment must be a permutation of 0..N-1")
        perm.flags.writeable = False
        object.__setattr__(self, "assignment", perm)
        if not math.isfinite(self.cost):
            raise ValueError("registration cost must be finite")

    @property
    def angle(self) -> float:
        return float(np.arctan2(self.rotation[1, 0], self.rotation[0, 0]))

    @classmethod
    def identity(cls, n: int, n_laterals: int, cost: float = 0.0) -> "Registration":
        return cls(np.eye(2), Gamma.identity(n), np.arange(n_laterals), cost)

    def to_debug_dict(self) -> dict:
        return {
            "angle": self.angle,
            "gamma": self.gamma.values.tolist(),
            "assignment": self.assignment.tolist(),
            "cost": float(self.cost),
            "cost_history": [float(c) for c in self.cost_history],
        }


# ---------------------------------------------------------------------------
# building blocks


def rotate_srvf(q: Srvf, rotation: np.ndarray) -> Srvf:
    return Srvf(q.samples @ np.asarray(rotation).T)


def warp_srvf(q: Srvf, gamma: Gamma) -> Srvf:
    """(q o gamma) * sqrt(gamma'), sampled on the original grid."""
    if gamma.n != q.n:
        raise ValueError("gamma grid does not match the SRVF grid")
    if gamma.is_identity():
        return q
    pos = gamma.values * (q.n - 1)
    idx = np.arange(q.n)
    warped = np.column_stack(
        [np.interp(pos, idx, q.samples[:, c]) for c in range(2)]
    )
    return Srvf(warped * np.sqrt(gamma.derivative())[:, None])


def transform_tree(
    Q: SrvfTree,
    rotation: np.ndarray | None = None,
    gamma: Gamma | None = None,
    remap_s: bool = True,
) -> SrvfTree:
    """Rotate all SRVFs and reparameterize the main branch (no reordering)."""
    q0 = Q.q0
    laterals = Q.laterals
    anchor = Q.anchor
    if gamma is not None and not gamma.is_identity():
        q0 = warp_srvf(q0, gamma)
        if remap_s:
            laterals = tuple(
                LateralSrvf(q, float(gamma.inverse_at(s))) for q, s in laterals
            )
    if rotation is not None:
        rot = np.asarray(rotation)
        q0 = rotate_srvf(q0, rot)
        laterals = tuple(LateralSrvf(rotate_srvf(q, rot), s) for q, s in laterals)
        anchor = rot @ anchor
    return SrvfTree(q0=q0, laterals=laterals, anchor=anchor)


def apply_registration(Q: SrvfTree, reg: Registration) -> SrvfTree:
    """Transform tree b by a registration found against some reference a.

    Applies the reparameterization (remapping each attachment position s to
    gamma^-1(s), where the old attachment point now occurs), rotates every
    sample and the anchor, and reorders laterals so index k corresponds to
    the reference's lateral k.
    """
    moved = transform_tree(Q, rotation=reg.rotation, gamma=reg.gamma, remap_s=reg.remap_s)
    laterals = tuple(moved.laterals[j] for j in reg.assignment)
    return SrvfTree(q0=moved.q0, laterals=laterals, anchor=moved.anchor)


def lateral_cost_matrix(a: SrvfTree, b: SrvfTree, w: Weights) -> np.ndarray:
    """Pairwise matching costs: shape term plus attachment-position term."""
    n = a.n_laterals
    if n != b.n_laterals:
        raise ValueError(f"lateral counts differ: {n} vs {b.n_laterals}")
    if n == 0:
        return np.zeros((0, 0))
    qa = np.stack([q.samples for q, _ in a.laterals])  # (n, m, 2)
    qb = np.stack([q.samples for q, _ in b.laterals])
    if qa.shape[1] != qb.shape[1]:
        raise ValueError("lateral sample counts differ between trees")
    tw = trapezoid_weights(qa.shape[1])
    na = np.einsum("imc,imc,m->i", qa, qa, tw)
    nb = np.einsum("imc,imc,m->i", qb, qb, tw)
    cross = np.einsum("imc,jmc,m->ij", qa, qb, tw)
    shape_cost = na[:, None] + nb[None, :] - 2.0 * cross
    ds = a.s_values()[:, None] - b.s_values()[None, :]
    return w.lambda_s * np.clip(shape_cost, 0.0, None) + w.lambda_p * ds * ds


def match_laterals(a: SrvfTree, b: SrvfTree, w: Weights) -> np.ndarray:
    """Minimum-cost lateral correspondence via exact linear assignment."""
    n = a.n_laterals
    if n == 0:
        return np.arange(0)
    cost = lateral_cost_matrix(a, b, w)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(n, dtype=int)
    perm[rows] = cols
    return perm


def optimal_rotation(
    a: SrvfTree, b: SrvfTree, assignment: np.ndarray, w: Weights
) -> np.ndarray:
    """Rotation minimizing the rotation-dependent part of the dissimilarity.

    Weighted 2D Procrustes over the stacked main and matched-lateral SRVF
    samples (quadrature weights included so the minimized quantity is exactly
    the discretized main + lateral shape terms).  A degenerate cross-
    covariance (both singular values below 1e-12) yields the identity with a
    warning.
    """
    blocks_a = [a.q0.samples]
    blocks_b = [b.q0.samples]
    weights = [w.lambda_m * trapezoid_weights(a.q0.n)]
    if a.n_laterals:
        for k, j in enumerate(np.asarray(assignment, dtype=int)):
            qa = a.laterals[k].q
            qb = b.laterals[j].q
            blocks_a.append(qa.samples)
            blocks_b.append(qb.samples)
            weights.append(w.lambda_s * trapezoid_weights(qa.n))
    A = np.vstack(blocks_a)
    B = np.vstack(blocks_b)
    wv = np.concatenate(weights)
    M = (B * wv[:, None]).T @ A  # sum_i w_i b_i a_i^T
    U, S, Vt = np.linalg.svd(M)
    if S[0] < 1e-12:
        warnings.warn("degenerate cross-covariance; returning identity rotation")
        return np.eye(2)
    V = Vt.T
    d = np.sign(np.linalg.det(V @ U.T))
    return V @ np.diag([1.0, d]) @ U.T


# ---------------------------------------------------------------------------
# dynamic-programming reparameterization


@lru_cache(maxsize=8)
def _dp_stencil(max_step: int) -> tuple[tuple[int, int], ...]:
    steps = [
        (di, dj)
        for di in range(1, max_step + 1)
        for dj in range(1, max_step + 1)
        if math.gcd(di, dj) == 1
    ]
    steps.sort()
    return tuple(steps)


class _DpRowStep(NamedTuple):
    """Grid data of the stencil steps (di, dj) that share one row step di.

    Their blocks sit next to each other in the cost buffer, from ``start``,
    each (n - di, n - 1) with row stride n - 1; columns c >= n - dj have no
    edge and are never read.  Index arrays address the component-major
    flattening (c * n + index) of the SRVF samples.
    """

    di: int
    start: int
    a_idx: np.ndarray  # (n-di, 2, di+1): qa samples of node k of edge row r
    b_lo: np.ndarray  # (J, n-1, 2, di+1): qb lerp indices i0 and i0 + 1
    b_hi: np.ndarray
    w_lo: np.ndarray  # (J, n-1, 1, di+1): lerp weights 1 - fr and fr
    w_hi: np.ndarray
    wk: np.ndarray  # (di+1,): trapezoid weights of the nodes
    factor: np.ndarray  # (J, 1, 1, di+1): -2 sqrt(slope) wk
    slope: np.ndarray  # (J, 1): dj / di


class _DpPlan(NamedTuple):
    """Everything of the DP that depends only on the grid size n."""

    stencil: tuple[tuple[int, int], ...]
    base: np.ndarray  # (T,): flat offset of block t in the cost buffer
    size: int  # entries of all blocks; the buffer's extra last entry is +inf
    row_steps: tuple[_DpRowStep, ...]
    # per step t and column j: flat indices of block_t[i-di, j-dj] and of
    # E[i-di, j-dj] at row i = 0, and their advance per row
    c_idx: np.ndarray
    c_step: np.ndarray
    e_idx: np.ndarray
    e_step: np.ndarray
    steps_up_to: np.ndarray  # (n,): steps with di <= i, a stencil prefix


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=8)
def _dp_plan(n: int, max_step: int) -> _DpPlan:
    """The plan of grid size n, built by the first DP on that grid."""
    stencil = tuple((di, dj) for di, dj in _dp_stencil(max_step) if di < n and dj < n)
    di_t = np.array([di for di, _ in stencil], dtype=np.intp)[:, None]
    dj_t = np.array([dj for _, dj in stencil], dtype=np.intp)[:, None]
    ends = np.cumsum((n - di_t[:, 0]) * (n - 1))
    size = int(ends[-1])
    base = ends - (n - di_t[:, 0]) * (n - 1)
    h = 1.0 / (n - 1)
    comp = np.array([[0], [n]])
    row_steps = []
    for di in sorted({di for di, _ in stencil}):
        steps = [t for t, (d, _) in enumerate(stencil) if d == di]
        slope = np.array([stencil[t][1] for t in steps]) / di
        wk = np.full(di + 1, h)
        wk[[0, -1]] = 0.5 * h
        a_idx = np.arange(n - di)[:, None, None] + comp + np.arange(di + 1)
        # qb position of node k on the edge from column c; positions past
        # qb's last sample occur only in the unread columns c >= n - dj and
        # are clamped, so those columns stay finite
        x = np.arange(n - 1)[:, None, None] + np.arange(di + 1) * slope[:, None, None, None]
        x = np.minimum(x, n - 1)
        i0 = np.minimum(x.astype(int), n - 2)
        fr = x - i0
        factor = (-2.0 * np.sqrt(slope))[:, None, None, None] * wk
        row_steps.append(_DpRowStep(
            di, int(base[steps[0]]),
            *_frozen(a_idx, i0 + comp, i0 + comp + 1, 1.0 - fr, fr, wk, factor,
                     slope[:, None]),
        ))
    cols = np.arange(n)
    valid = cols >= dj_t
    shift = np.where(valid, cols - dj_t, 0)
    rows = _frozen(
        np.where(valid, base[:, None] - di_t * (n - 1) + shift, size),
        np.where(valid, n - 1, 0),
        np.where(valid, shift - di_t * n, 0),
        np.where(valid, n, 0),
        np.searchsorted(di_t[:, 0], cols, side="right"),
    )
    return _DpPlan(stencil, *_frozen(base), size, tuple(row_steps), *rows)


def _dp_edge_cost(qa: np.ndarray, qb: np.ndarray, max_step: int) -> np.ndarray:
    """Costs of every stencil edge, in one flat buffer laid out by ``_dp_plan``.

    The edge from (i-di, j-dj) to (i, j) carries the trapezoid-rule energy of
    |qa(t) - sqrt(slope) * qb(gamma(t))|^2 over its di grid intervals, with
    gamma linear on the edge; it sits at ``base[t] + (i-di) * (n-1) + j-dj``.
    Per row step di, the blocks of all its steps come from one batched
    matrix product, one gemm per step: the node-stacked qa samples extended
    by [|qa|^2, 1] against the weighted qb samples extended by
    [1, slope * |u|^2].  The last entry of the buffer is +inf.
    """
    n = len(qa)
    plan = _dp_plan(n, max_step)
    costs = np.empty(plan.size + 1)
    flat_a = qa.T.ravel()
    flat_b = qb.T.ravel()
    for g in plan.row_steps:
        rows, inner, steps = n - g.di, 2 * (g.di + 1), len(g.slope)
        a = flat_a.take(g.a_idx)
        u = flat_b.take(g.b_lo) * g.w_lo + flat_b.take(g.b_hi) * g.w_hi
        left = np.empty((rows, inner + 2))
        left[:, :inner] = a.reshape(rows, inner)
        left[:, inner] = np.einsum("ick,ick->i", a, a * g.wk)
        left[:, inner + 1] = 1.0
        right = np.empty((steps, n - 1, inner + 2))
        right[..., :inner] = (u * g.factor).reshape(steps, n - 1, inner)
        right[..., inner] = 1.0
        right[..., inner + 1] = g.slope * np.einsum("tjck,tjck->tj", u, u * g.wk)
        out = costs[g.start : g.start + steps * rows * (n - 1)]
        np.matmul(left, right.transpose(0, 2, 1), out=out.reshape(steps, rows, n - 1))
    np.maximum(costs, 0.0, out=costs)
    costs[-1] = np.inf  # columns j < dj have no edge of step t: they read this
    return costs


def _reparam_dp(
    qa: np.ndarray, qb: np.ndarray, max_step: int = DP_MAX_STEP
) -> tuple[np.ndarray, float]:
    """Minimum-energy monotone grid path; returns (gamma values, energy).

    E[i, j], the least energy of a path from (0, 0) to (i, j), is filled one
    row at a time: the candidates E[i-di, j-dj] + block_t[i-di, j-dj] of all
    stencil steps t with di <= i are gathered into one (T, n) array and
    reduced by argmin.  argmin keeps the first minimum, so a tie goes to the
    earliest step in stencil order (sorted (di, dj)).  The edge-cost blocks
    sit in one flat buffer and are gathered by flat offsets; scratch memory
    is O(sum of block sizes) plus O(T n) index arrays, never (T, n, n).
    """
    n = len(qa)
    plan = _dp_plan(n, max_step)
    costs = _dp_edge_cost(qa, qb, max_step)
    c_idx = plan.c_idx.copy()
    e_idx = plan.e_idx.copy()
    cols = np.arange(n)
    E = np.full(n * n, np.inf)
    E[0] = 0.0
    bt = np.zeros((n, n), dtype=np.int16)
    for i in range(1, n):
        c_idx += plan.c_step
        e_idx += plan.e_step
        m = plan.steps_up_to[i]
        cand = E[e_idx[:m]]
        cand += costs[c_idx[:m]]
        best = cand.argmin(axis=0)
        bt[i] = best
        E[i * n : (i + 1) * n] = cand[best, cols]
    energy = float(E[-1])
    if not np.isfinite(energy):
        return np.linspace(0.0, 1.0, n), energy
    # walk the path back and linearly interpolate gamma between its knots
    path_i, path_j = [n - 1], [n - 1]
    i = j = n - 1
    while i > 0 or j > 0:
        di, dj = plan.stencil[bt[i, j]]
        i -= di
        j -= dj
        path_i.append(i)
        path_j.append(j)
    path_i.reverse()
    path_j.reverse()
    values = np.interp(np.arange(n), path_i, path_j) / (n - 1)
    return values, energy


def optimal_reparam_main(q1: Srvf, q2: Srvf, max_step: int = DP_MAX_STEP) -> Gamma:
    """Reparameterization gamma minimizing |q1 - (q2 o gamma) sqrt(gamma')|^2.

    Solved by dynamic programming over monotone grid paths; the identity path
    lies in the search space, so the optimal energy never exceeds the
    identity energy.
    """
    if q1.n != q2.n:
        raise ValueError(f"sample counts differ: {q1.n} vs {q2.n}")
    values, _ = _reparam_dp(q1.samples, q2.samples, max_step)
    return Gamma(values)


def reparam_energy(q1: Srvf, q2: Srvf, gamma: Gamma) -> float:
    """Realized warp energy |q1 - (q2 o gamma) sqrt(gamma')|^2."""
    return l2_dist_sq(q1, warp_srvf(q2, gamma))


# ---------------------------------------------------------------------------
# full registration


def preshape_dissimilarity_sq(a: SrvfTree, b: SrvfTree, w: Weights) -> float:
    """Weighted sum of main-shape, lateral-shape and position terms.

    Laterals must be index-aligned (i.e. b already carries an assignment).
    """
    if a.n_laterals != b.n_laterals:
        raise ValueError(
            f"lateral counts differ: {a.n_laterals} vs {b.n_laterals}"
        )
    total = w.lambda_m * l2_dist_sq(a.q0, b.q0)
    for (qa, sa), (qb, sb) in zip(a.laterals, b.laterals):
        total += w.lambda_s * l2_dist_sq(qa, qb)
        total += w.lambda_p * (sa - sb) ** 2
    return float(total)


def _aligned_cost(
    a: SrvfTree,
    b: SrvfTree,
    rotation: np.ndarray,
    gamma: Gamma,
    assignment: np.ndarray,
    w: Weights,
    remap_s: bool = True,
) -> float:
    moved = transform_tree(b, rotation=rotation, gamma=gamma, remap_s=remap_s)
    reordered = SrvfTree(
        q0=moved.q0,
        laterals=tuple(moved.laterals[j] for j in assignment),
        anchor=moved.anchor,
    )
    return preshape_dissimilarity_sq(a, reordered, w)


def register(
    a: SrvfTree,
    b: SrvfTree,
    w: Weights,
    max_iter: int = 10,
    tol: float = 1e-8,
    max_step: int = DP_MAX_STEP,
    remap_s: bool = True,
) -> Registration:
    """Align b onto a over rotation, reparameterization and correspondence.

    Coordinate descent, assignment first (attachment positions dominate the
    topology and are rotation invariant), then rotation, then the main-curve
    warp.  Stops when the relative cost decrease over a sweep drops below
    ``tol`` or after ``max_iter`` sweeps.
    """
    if a.n_laterals != b.n_laterals:
        raise ValueError(
            f"trees must be augmented to equal lateral counts "
            f"({a.n_laterals} vs {b.n_laterals})"
        )
    if a.q0.n != b.q0.n:
        raise ValueError("main-branch sample counts differ")
    n = a.q0.n
    N = a.n_laterals
    gamma = Gamma.identity(n)
    assignment = np.arange(N)
    cost = _aligned_cost(a, b, np.eye(2), gamma, assignment, w, remap_s)
    history = [cost]
    # Warm-start the rotation from a main-branch-only Procrustes fit; large
    # rotations otherwise mislead the first matching sweep into a poor local
    # optimum.  The identity stays a candidate, and candidates are scored by
    # the full cost under their own best match, so the start never exceeds
    # the identity-aligned cost.
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
