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

from .srvf import SrvfTree, Weights, _sq_dists, trapezoid_weights

# Monotone-path stencil: coprime index steps up to this bound, i.e. local
# slopes between 1/10 and 10.  Tighter strips cannot track warps with strong
# speed contrast (e.g. aligning a constant-speed curve to one traversed with
# linearly growing speed needs unbounded slope near the ends).
DP_MAX_STEP = 10

# ``register`` stops once a sweep lowers the cost by less than this fraction.
SWEEP_TOL = 1e-8


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

    @property
    def distance(self) -> float:
        """The registered tree-shape distance, sqrt(max(cost, 0))."""
        return float(np.sqrt(max(self.cost, 0.0)))


# ---------------------------------------------------------------------------
# building blocks
#
# ``lateral_cost_matrix``, ``match_laterals``, ``optimal_rotation`` and
# ``optimal_reparam_main`` (further down) take plain arrays; ``register``
# calls them directly on the arrays of the two SRVF-trees.


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


def _remap(s: np.ndarray, gamma: Gamma) -> np.ndarray:
    """Attachment positions after reparameterization: gamma^-1(s), where the
    old attachment point now occurs."""
    return s if gamma.is_identity() else gamma.inverse_at(s)


def _transform(
    Q: SrvfTree, rotation: np.ndarray | None, gamma: Gamma | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Main samples, lateral samples, positions and anchor of a moved tree."""
    q0, lats, s, anchor = Q.q0, Q.q_lat, Q.s, Q.anchor
    if gamma is not None:
        q0 = _warp(q0, gamma)
        s = _remap(s, gamma)
    if rotation is not None:
        rot = np.asarray(rotation)
        q0, lats, anchor = q0 @ rot.T, lats @ rot.T, rot @ anchor
    return q0, lats, s, anchor


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


def transform_tree(
    Q: SrvfTree, rotation: np.ndarray | None = None, gamma: Gamma | None = None
) -> SrvfTree:
    """Rotate all SRVFs and reparameterize the main branch (no reordering)."""
    return SrvfTree(*_transform(Q, rotation, gamma))


def apply_registration(Q: SrvfTree, reg: Registration) -> SrvfTree:
    """Transform tree b by a registration found against some reference a.

    Applies the reparameterization (remapping each attachment position s to
    gamma^-1(s), where the old attachment point now occurs), rotates every
    sample and the anchor, and reorders laterals so index k corresponds to
    the reference's lateral k.
    """
    q0, lats, s, anchor = _transform(Q, reg.rotation, reg.gamma)
    return SrvfTree(q0, lats[reg.assignment], s[reg.assignment], anchor)


def lateral_cost_matrix(
    qa: np.ndarray, sa: np.ndarray, qb: np.ndarray, sb: np.ndarray, w: Weights
) -> np.ndarray:
    """Pairwise matching costs of a's laterals (rows) against b's (columns):
    shape term plus attachment-position term.  ``qa`` and ``qb`` are (N, k, 2)
    lateral samples, ``sa`` and ``sb`` their (N,) attachment positions."""
    if qa.shape != qb.shape:
        raise ValueError(f"lateral stacks differ: {qa.shape} vs {qb.shape}")
    tw = trapezoid_weights(qa.shape[1])
    na = np.einsum("imc,imc,m->i", qa, qa, tw)
    nb = np.einsum("imc,imc,m->i", qb, qb, tw)
    cross = np.einsum("imc,jmc,m->ij", qa, qb, tw)
    shape_cost = na[:, None] + nb[None, :] - 2.0 * cross
    ds = sa[:, None] - sb[None, :]
    return w.lambda_s * np.clip(shape_cost, 0.0, None) + w.lambda_p * ds * ds


def match_laterals(
    qa: np.ndarray, sa: np.ndarray, qb: np.ndarray, sb: np.ndarray, w: Weights
) -> np.ndarray:
    """Minimum-cost lateral correspondence via exact linear assignment:
    perm[k] is the lateral of b matched to a's lateral k."""
    rows, cols = linear_sum_assignment(lateral_cost_matrix(qa, sa, qb, sb, w))
    perm = np.empty(len(qa), dtype=int)
    perm[rows] = cols
    return perm


def optimal_rotation(
    a0: np.ndarray, qa: np.ndarray, b0: np.ndarray, qb: np.ndarray, w: Weights
) -> np.ndarray:
    """Rotation of b onto a minimizing the rotation-dependent part of the
    dissimilarity; ``qb`` is b's lateral stack already index-aligned with
    a's ``qa``.

    Weighted 2D Procrustes over the stacked main and lateral SRVF samples
    (quadrature weights included so the minimized quantity is exactly the
    discretized main + lateral shape terms).  A degenerate cross-covariance
    (both singular values below 1e-12) yields the identity with a warning.
    """
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


# ---------------------------------------------------------------------------
# dynamic-programming reparameterization


# the coprime index steps (di, dj) up to DP_MAX_STEP, sorted
_DP_STENCIL = tuple(sorted(
    (di, dj)
    for di in range(1, DP_MAX_STEP + 1)
    for dj in range(1, DP_MAX_STEP + 1)
    if math.gcd(di, dj) == 1
))


class _DpRowStep(NamedTuple):
    """Grid data of the stencil steps (di, dj) that share one row step di.

    Their blocks are the consecutive steps t0, t0 + 1, ... of the cost array,
    each filled in rows i >= di; the qb indices are per end column j, clamped
    in the columns j < dj that have no edge.  Index arrays address the
    component-major flattening (c * n + index) of the SRVF samples.
    """

    di: int
    t0: int
    floor: np.ndarray  # (J, 1, n): 0, or +inf in the columns j < dj
    a_idx: np.ndarray  # (n-di, 2, di+1): qa samples of node k of edge row r
    b_lo: np.ndarray  # (J, n, 2, di+1): qb lerp indices i0 and i0 + 1
    b_hi: np.ndarray
    w_lo: np.ndarray  # (J, n, 1, di+1): lerp weights 1 - fr and fr
    w_hi: np.ndarray
    wk: np.ndarray  # (di+1,): trapezoid weights of the nodes
    factor: np.ndarray  # (J, 1, 1, di+1): -2 sqrt(slope) wk
    slope: np.ndarray  # (J, 1): dj / di


class _DpPlan(NamedTuple):
    """Everything of the DP that depends only on the grid size n."""

    stencil: tuple[tuple[int, int], ...]
    row_steps: tuple[_DpRowStep, ...]
    # (T, n): flat index of E[i-di, j-dj] at row i = 0; it advances by n per row
    e_idx: np.ndarray
    steps_up_to: np.ndarray  # (n,): steps with di <= i, a stencil prefix


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=8)
def _dp_plan(n: int) -> _DpPlan:
    """The plan of grid size n, built by the first DP on that grid."""
    stencil = tuple((di, dj) for di, dj in _DP_STENCIL if di < n and dj < n)
    di_t = np.array([di for di, _ in stencil], dtype=np.intp)
    dj_t = np.array([dj for _, dj in stencil], dtype=np.intp)[:, None]
    cols = np.arange(n)
    h = 1.0 / (n - 1)
    comp = np.array([[0], [n]])
    row_steps = []
    for di in sorted({di for di, _ in stencil}):
        t0, t1 = np.searchsorted(di_t, [di, di + 1])
        dj = dj_t[t0:t1]
        slope = dj[:, 0] / di
        wk = np.full(di + 1, h)
        wk[[0, -1]] = 0.5 * h
        a_idx = np.arange(n - di)[:, None, None] + comp + np.arange(di + 1)
        # qb position of node k on the edge into column j; it is clamped to
        # qb's samples in the columns j < dj, whose costs become +inf
        x = (cols - dj)[:, :, None, None] + np.arange(di + 1) * slope[:, None, None, None]
        x = np.clip(x, 0, n - 1)
        i0 = np.minimum(x.astype(int), n - 2)
        fr = x - i0
        factor = (-2.0 * np.sqrt(slope))[:, None, None, None] * wk
        floor = np.where(cols < dj, np.inf, 0.0)[:, None, :]
        row_steps.append(_DpRowStep(
            di, int(t0),
            *_frozen(floor, a_idx, i0 + comp, i0 + comp + 1, 1.0 - fr, fr, wk, factor,
                     slope[:, None]),
        ))
    e_idx = cols - dj_t - di_t[:, None] * n
    steps_up_to = np.searchsorted(di_t, cols, side="right")
    return _DpPlan(stencil, tuple(row_steps), *_frozen(e_idx, steps_up_to))


def _dp_edge_cost(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Costs of every stencil edge as a (T, n, n) array by end node.

    ``costs[t, i, j]`` is the trapezoid-rule energy of
    |qa(t) - sqrt(slope) * qb(gamma(t))|^2 over the di grid intervals of the
    edge from (i-di, j-dj) into (i, j), with gamma linear on the edge; it is
    +inf in the columns j < dj, which have no edge, and rows i < di are left
    unset.  Per row step di, the blocks of all its steps come from one
    batched matrix product, one gemm per step: the node-stacked qa samples
    extended by [|qa|^2, 1] against the weighted qb samples extended by
    [1, slope * |u|^2].
    """
    n = len(qa)
    plan = _dp_plan(n)
    costs = np.empty((len(plan.stencil), n, n))
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
        right = np.empty((steps, n, inner + 2))
        right[..., :inner] = (u * g.factor).reshape(steps, n, inner)
        right[..., inner] = 1.0
        right[..., inner + 1] = g.slope * np.einsum("tjck,tjck->tj", u, u * g.wk)
        block = costs[g.t0 : g.t0 + steps, g.di :]
        np.matmul(left, right.transpose(0, 2, 1), out=block)
        np.maximum(block, g.floor, out=block)
    return costs


def _reparam_dp(qa: np.ndarray, qb: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-energy monotone grid path; returns (gamma values, energy).

    E[i, j], the least energy of a path from (0, 0) to (i, j), is filled one
    row at a time: the candidates E[i-di, j-dj] + costs[t, i, j] of all
    stencil steps t with di <= i are gathered into one (T, n) array and
    reduced by argmin.  argmin keeps the first minimum, so a tie goes to the
    earliest step in stencil order (sorted (di, dj)).  In the columns j < dj
    the flat index of E[i-di, j-dj] falls in another row, or wraps to E's
    end when i = di, and is paired with a +inf cost.
    """
    n = len(qa)
    plan = _dp_plan(n)
    costs = _dp_edge_cost(qa, qb)
    e_idx = plan.e_idx.copy()
    cols = np.arange(n)
    E = np.full(n * n, np.inf)
    E[0] = 0.0
    bt = np.zeros((n, n), dtype=np.int16)
    for i in range(1, n):
        e_idx += n
        m = plan.steps_up_to[i]
        cand = E.take(e_idx[:m])
        cand += costs[:m, i]
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


def optimal_reparam_main(qa: np.ndarray, qb: np.ndarray) -> Gamma:
    """Reparameterization gamma minimizing |qa - (qb o gamma) sqrt(gamma')|^2
    for (n, 2) SRVF samples ``qa`` and ``qb``.

    Solved by dynamic programming over monotone grid paths; the identity path
    lies in the search space, so the optimal energy never exceeds the
    identity energy.  Samples of different shapes, or non-finite samples,
    are a ValueError.
    """
    if qa.shape != qb.shape:
        raise ValueError(f"sample shapes differ: {qa.shape} vs {qb.shape}")
    if not (np.isfinite(qa).all() and np.isfinite(qb).all()):
        raise ValueError("SRVF samples must be finite")
    values, _ = _reparam_dp(qa, qb)
    return Gamma(values)


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
    main_sq = _sq_dists(a.q0, b.q0)[0]
    return _preshape_cost(w, main_sq, _sq_dists(a.q_lat, b.q_lat), a.s.tolist(), b.s.tolist())


def register(a: SrvfTree, b: SrvfTree, w: Weights, max_iter: int = 10) -> Registration:
    """Align b onto a over rotation, reparameterization and correspondence.

    Coordinate descent, assignment first (attachment positions dominate the
    topology and are rotation invariant), then rotation, then the main-curve
    warp.  Stops when the relative cost decrease over a sweep drops below
    ``SWEEP_TOL`` or after ``max_iter`` (at least 1) sweeps.  A non-finite
    cost is a ValueError.
    """
    if max_iter < 1:
        raise ValueError(f"registration needs at least one sweep, got max_iter={max_iter}")
    if a.n_laterals != b.n_laterals:
        raise ValueError(
            f"trees must be augmented to equal lateral counts "
            f"({a.n_laterals} vs {b.n_laterals})"
        )
    if len(a.q0) != len(b.q0):
        raise ValueError("main-branch sample counts differ")
    a0, qa, sa = a.q0, a.q_lat, a.s
    b0, qb, sb = b.q0, b.q_lat, b.s
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
    gamma = Gamma.identity(len(a0))
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
            candidate = optimal_rotation(a0, qa, b0, qb, main_only)
        best = cost
        for cand, lat in ((np.eye(2), lat_rot), (candidate, qb @ candidate.T)):
            pi = match_laterals(qa, sa, lat, sb, w)
            c = aligned_cost(b0 @ cand.T, _sq_dists(qa, lat[pi]), sb, pi)
            if c < best:
                best, rotation, assignment, lat_rot = c, cand, pi, lat
    # The DP sees only a0 and b0 under the rotation, so a sweep whose rotation
    # equals the one of the last DP (typically the final sweep) reuses its
    # gamma, warp and positions.
    dp_rotation = None
    for _ in range(max_iter):
        assignment = match_laterals(qa, sa, lat_rot, s_moved, w)
        rotation = optimal_rotation(a0, qa, b_warped, qb[assignment], w)
        lat_rot = qb @ rotation.T
        shapes = _sq_dists(qa, lat_rot[assignment])
        if dp_rotation is None or not np.array_equal(rotation, dp_rotation):
            dp_rotation = rotation
            gamma_new = optimal_reparam_main(a0, b0 @ rotation.T)
            warped_new = _warp(b0, gamma_new)
            s_new = _remap(sb, gamma_new)
        cost_new = aligned_cost(warped_new @ rotation.T, shapes, s_new, assignment)
        cost_keep = aligned_cost(b_warped @ rotation.T, shapes, s_moved, assignment)
        if cost_new <= cost_keep:
            gamma, b_warped, s_moved = gamma_new, warped_new, s_new
            sweep_cost = cost_new
        else:
            sweep_cost = cost_keep
        history.append(sweep_cost)
        decrease = history[-2] - sweep_cost
        if decrease < SWEEP_TOL * max(history[-2], 1e-30):
            break
    return Registration(
        rotation=rotation,
        gamma=gamma,
        assignment=assignment,
        cost=history[-1],
        cost_history=tuple(history),
    )
