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

from .srvf import (
    LateralSrvf, Srvf, SrvfTree, Weights, _sq_dists, l2_dist_sq, trapezoid_weights,
)

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
# array kernels
#
# ``register`` stacks each tree's laterals once, as (N, k, 2) samples plus (N,)
# attachment positions, and runs every sweep on these kernels; the public
# building blocks further down wrap the same kernels for SrvfTree arguments.


def _stack(Q: SrvfTree) -> tuple[np.ndarray, np.ndarray]:
    """(N, k, 2) lateral samples and (N,) attachment positions of a tree."""
    if not Q.laterals:
        return np.zeros((0, 2, 2)), np.zeros(0)
    return np.stack([q.samples for q, _ in Q.laterals]), Q.s_values()


def _from_arrays(
    q0: np.ndarray, lats: np.ndarray, s: np.ndarray, anchor: np.ndarray
) -> SrvfTree:
    return SrvfTree(
        q0=Srvf(q0),
        laterals=tuple(LateralSrvf(Srvf(q), x) for q, x in zip(lats, s.tolist())),
        anchor=anchor,
    )


def _warp(samples: np.ndarray, gamma: Gamma) -> np.ndarray:
    """(q o gamma) * sqrt(gamma') of (n, 2) samples; the samples themselves
    for an identity gamma."""
    n = len(samples)
    if gamma.n != n:
        raise ValueError("gamma grid does not match the SRVF grid")
    if gamma.is_identity():
        return samples
    pos = gamma.values * (n - 1)
    idx = np.arange(n)
    warped = np.column_stack([np.interp(pos, idx, samples[:, c]) for c in range(2)])
    return warped * np.sqrt(gamma.derivative())[:, None]


def _remap(s: np.ndarray, gamma: Gamma, remap_s: bool) -> np.ndarray:
    """Attachment positions after reparameterization: gamma^-1(s), where the
    old attachment point now occurs, or s unchanged."""
    if not remap_s or gamma.is_identity():
        return s
    return gamma.inverse_at(s)


def _transform(
    Q: SrvfTree, rotation: np.ndarray | None, gamma: Gamma | None, remap_s: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Main samples, lateral samples, positions and anchor of a moved tree."""
    q0, anchor = Q.q0.samples, Q.anchor
    lats, s = _stack(Q)
    if gamma is not None:
        q0 = _warp(q0, gamma)
        s = _remap(s, gamma, remap_s)
    if rotation is not None:
        rot = np.asarray(rotation)
        q0, lats, anchor = q0 @ rot.T, lats @ rot.T, rot @ anchor
    return q0, lats, s, anchor


def _cost_matrix(
    qa: np.ndarray, sa: np.ndarray, qb: np.ndarray, sb: np.ndarray, w: Weights
) -> np.ndarray:
    """Lateral matching costs: shape term plus attachment-position term."""
    if qa.shape[1:] != qb.shape[1:]:
        raise ValueError("lateral sample counts differ between trees")
    tw = trapezoid_weights(qa.shape[1])
    na = np.einsum("imc,imc,m->i", qa, qa, tw)
    nb = np.einsum("imc,imc,m->i", qb, qb, tw)
    cross = np.einsum("imc,jmc,m->ij", qa, qb, tw)
    shape_cost = na[:, None] + nb[None, :] - 2.0 * cross
    ds = sa[:, None] - sb[None, :]
    return w.lambda_s * np.clip(shape_cost, 0.0, None) + w.lambda_p * ds * ds


def _assign(cost: np.ndarray) -> np.ndarray:
    """Exact linear assignment: perm[k] is the column matched to row k."""
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(len(cost), dtype=int)
    perm[rows] = cols
    return perm


def _procrustes(
    a0: np.ndarray, qa: np.ndarray, b0: np.ndarray, qb: np.ndarray, w: Weights
) -> np.ndarray:
    """Weighted 2D Procrustes rotation of the stacked main and index-aligned
    lateral samples of b onto those of a."""
    A = np.concatenate([a0, qa.reshape(-1, 2)])
    B = np.concatenate([b0, qb.reshape(-1, 2)])
    wv = np.concatenate(
        [w.lambda_m * trapezoid_weights(len(a0))]
        + [w.lambda_s * trapezoid_weights(qa.shape[1])] * len(qa)
    )
    M = (B * wv[:, None]).T @ A  # sum_i w_i b_i a_i^T
    U, S, Vt = np.linalg.svd(M)
    if S[0] < 1e-12:
        warnings.warn("degenerate cross-covariance; returning identity rotation")
        return np.eye(2)
    V = Vt.T
    d = np.sign(np.linalg.det(V @ U.T))
    return V @ np.diag([1.0, d]) @ U.T


def _preshape_cost(
    w: Weights, main_sq: float, shapes: list[float], sa: list[float], sb: list[float]
) -> float:
    """The dissimilarity from its terms: the main term first, then the shape
    and position terms of each lateral, interleaved."""
    total = w.lambda_m * main_sq
    for shape, x, y in zip(shapes, sa, sb):
        total += w.lambda_s * shape
        total += w.lambda_p * (x - y) ** 2
    return float(total)


# ---------------------------------------------------------------------------
# building blocks


def warp_srvf(q: Srvf, gamma: Gamma) -> Srvf:
    """(q o gamma) * sqrt(gamma'), sampled on the original grid."""
    warped = _warp(q.samples, gamma)
    return q if warped is q.samples else Srvf(warped)


def transform_tree(
    Q: SrvfTree,
    rotation: np.ndarray | None = None,
    gamma: Gamma | None = None,
    remap_s: bool = True,
) -> SrvfTree:
    """Rotate all SRVFs and reparameterize the main branch (no reordering)."""
    return _from_arrays(*_transform(Q, rotation, gamma, remap_s))


def apply_registration(Q: SrvfTree, reg: Registration) -> SrvfTree:
    """Transform tree b by a registration found against some reference a.

    Applies the reparameterization (remapping each attachment position s to
    gamma^-1(s), where the old attachment point now occurs), rotates every
    sample and the anchor, and reorders laterals so index k corresponds to
    the reference's lateral k.
    """
    q0, lats, s, anchor = _transform(Q, reg.rotation, reg.gamma, reg.remap_s)
    return _from_arrays(q0, lats[reg.assignment], s[reg.assignment], anchor)


def lateral_cost_matrix(a: SrvfTree, b: SrvfTree, w: Weights) -> np.ndarray:
    """Pairwise matching costs: shape term plus attachment-position term."""
    if a.n_laterals != b.n_laterals:
        raise ValueError(f"lateral counts differ: {a.n_laterals} vs {b.n_laterals}")
    return _cost_matrix(*_stack(a), *_stack(b), w)


def match_laterals(a: SrvfTree, b: SrvfTree, w: Weights) -> np.ndarray:
    """Minimum-cost lateral correspondence via exact linear assignment."""
    return _assign(lateral_cost_matrix(a, b, w))


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
    qa, _ = _stack(a)
    qb, _ = _stack(b)
    perm = np.asarray(assignment, dtype=int)
    return _procrustes(a.q0.samples, qa, b.q0.samples, qb[perm], w)


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
    qa, sa = _stack(a)
    qb, sb = _stack(b)
    main_sq = _sq_dists(a.q0.samples, b.q0.samples)[0]
    return _preshape_cost(w, main_sq, _sq_dists(qa, qb), sa.tolist(), sb.tolist())


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
    ``tol`` or after ``max_iter`` (at least 1) sweeps.  A non-finite cost is
    a ValueError.
    """
    if max_iter < 1:
        raise ValueError(f"registration needs at least one sweep, got max_iter={max_iter}")
    if a.n_laterals != b.n_laterals:
        raise ValueError(
            f"trees must be augmented to equal lateral counts "
            f"({a.n_laterals} vs {b.n_laterals})"
        )
    if a.q0.n != b.q0.n:
        raise ValueError("main-branch sample counts differ")
    a0, b0 = a.q0.samples, b.q0.samples
    qa, sa = _stack(a)
    qb, sb = _stack(b)
    sa_list = sa.tolist()

    def aligned_cost(main: np.ndarray, shapes: list[float], s: np.ndarray, perm) -> float:
        """Cost of the moved main, the per-lateral shape terms and the moved
        positions, with b's laterals taken in ``perm`` order."""
        main_sq = _sq_dists(a0, main)[0]
        cost = _preshape_cost(w, main_sq, shapes, sa_list, s[perm].tolist())
        if not math.isfinite(cost):
            raise ValueError("registration cost is not finite")
        return cost

    N = len(qa)
    gamma = Gamma.identity(a.q0.n)
    b_warped, s_moved = b0, sb  # b's main and positions under gamma
    rotation = np.eye(2)
    assignment = np.arange(N)
    lat_rot = qb @ rotation.T  # b's laterals under rotation
    cost = aligned_cost(b0 @ rotation.T, _sq_dists(qa, lat_rot[assignment]), sb, assignment)
    history = [cost]
    # Warm-start the rotation from a main-branch-only Procrustes fit; large
    # rotations otherwise mislead the first matching sweep into a poor local
    # optimum.  The identity stays a candidate, and candidates are scored by
    # the full cost under their own best match, so the start never exceeds
    # the identity-aligned cost.
    if N:
        main_only = Weights(max(w.lambda_m, 1e-12), 0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            candidate = _procrustes(a0, qa, b0, qb, main_only)
        best = cost
        for cand, lat in ((np.eye(2), lat_rot), (candidate, qb @ candidate.T)):
            pi = _assign(_cost_matrix(qa, sa, lat, sb, w))
            c = aligned_cost(b0 @ cand.T, _sq_dists(qa, lat[pi]), sb, pi)
            if c < best:
                best, rotation, assignment, lat_rot = c, cand, pi, lat
    for _ in range(max_iter):
        assignment = _assign(_cost_matrix(qa, sa, lat_rot, s_moved, w))
        rotation = _procrustes(a0, qa, b_warped, qb[assignment], w)
        lat_rot = qb @ rotation.T
        shapes = _sq_dists(qa, lat_rot[assignment])
        # through the public DP entry, so per-function timings (such as the
        # benchmark's optimal_reparam_main metrics) still see the DP apart
        gamma_new = optimal_reparam_main(a.q0, Srvf(b0 @ rotation.T), max_step)
        warped_new = _warp(b0, gamma_new)
        s_new = _remap(sb, gamma_new, remap_s)
        cost_new = aligned_cost(warped_new @ rotation.T, shapes, s_new, assignment)
        cost_keep = aligned_cost(b_warped @ rotation.T, shapes, s_moved, assignment)
        if cost_new <= cost_keep:
            gamma, b_warped, s_moved = gamma_new, warped_new, s_new
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
