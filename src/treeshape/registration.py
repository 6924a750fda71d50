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

from .srvf import SrvfTree, Weights, _sq_dists, trapezoid_weights

# Monotone-path stencil: coprime index steps up to this bound, i.e. local
# slopes between 1/10 and 10.  Tighter strips cannot track warps with strong
# speed contrast (e.g. aligning a constant-speed curve to one traversed with
# linearly growing speed needs unbounded slope near the ends).
DP_MAX_STEP = 10

# Bytes that the DP's (T, n, n) float64 edge-cost array may take in one
# process; ``MAX_MAIN_SAMPLES``, the largest main grid within it, is 1 459.
DP_MAX_BYTES = 2**30

# ``register`` stops once a sweep lowers the cost by less than this fraction,
# or after this many sweeps.
SWEEP_TOL = 1e-8
MAX_SWEEPS = 10


@dataclass(frozen=True)
class Registration:
    """Optimal alignment of tree b onto tree a."""

    rotation: np.ndarray  # 2x2, det +1
    gamma: np.ndarray  # (n,) main-curve warp at the uniform grid of [0, 1]
    assignment: np.ndarray  # assignment[k] = index in b matched to a's lateral k
    cost: float
    cost_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        rot = np.array(self.rotation, dtype=float).reshape(2, 2)
        gamma = np.array(self.gamma, dtype=float)
        rot.flags.writeable = gamma.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "gamma", gamma)
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


def _is_identity(gamma: np.ndarray) -> bool:
    return bool(np.max(np.abs(gamma - np.linspace(0.0, 1.0, len(gamma)))) <= 1e-12)


def _warp(samples: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(q o gamma) * sqrt(gamma') of (n, 2) samples; the samples themselves
    for an identity gamma."""
    n = len(samples)
    if len(gamma) != n:
        raise ValueError("gamma grid does not match the SRVF grid")
    if _is_identity(gamma):
        return samples
    pos = gamma * (n - 1)
    idx = np.arange(n)
    warped = np.column_stack([np.interp(pos, idx, samples[:, c]) for c in range(2)])
    slope = np.clip(np.gradient(gamma, 1.0 / (n - 1)), 0.0, None)
    return warped * np.sqrt(slope)[:, None]


def _remap(s: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Attachment positions after reparameterization: gamma^-1(s), where the
    old attachment point now occurs."""
    return s if _is_identity(gamma) else np.interp(s, gamma, np.linspace(0.0, 1.0, len(gamma)))


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
    Q: SrvfTree, rotation: np.ndarray, gamma: np.ndarray, perm: np.ndarray
) -> SrvfTree:
    """Q moved by a rotation, a main-curve warp gamma and a lateral
    correspondence: the main is warped then rotated, each attachment
    position s moves to gamma^-1(s), where the old attachment point now
    occurs, and lateral k of the result is Q's lateral perm[k], rotated."""
    rot = np.asarray(rotation)
    return SrvfTree(
        _warp(Q.q0, gamma) @ rot.T, Q.q_lat[perm] @ rot.T, _remap(Q.s, gamma)[perm], rot @ Q.anchor
    )


def apply_registration(Q: SrvfTree, reg: Registration) -> SrvfTree:
    """Transform tree b by a registration found against some reference a:
    ``transform_tree`` by its rotation, gamma and assignment, so that b's
    lateral k corresponds to the reference's lateral k."""
    return transform_tree(Q, reg.rotation, reg.gamma, reg.assignment)


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


def _linear_assignment(cost: np.ndarray) -> list[int]:
    """Minimum-cost assignment of a square cost matrix: the column of each row.

    Shortest augmenting paths with dual variables (Crouse, "On implementing
    2D rectangular assignment algorithms", IEEE TAES 2016), ported scalar by
    scalar from scipy's ``linear_sum_assignment``, whose arithmetic order and
    tie rule it keeps, so both return the same columns.  Non-finite costs are
    a ValueError.
    """
    n = len(cost)
    if not np.isfinite(cost).all():
        raise ValueError("assignment costs must be finite")
    c = cost.tolist()
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        # grow a shortest-path tree from row cur until it reaches a free column
        spc = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        rows, cols = [], []  # the other rows and the columns the tree reached
        min_val, i = 0.0, cur
        while True:
            index, lowest = -1, math.inf
            ci, ui = c[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                sj = spc[j]
                if r < sj:
                    path[j] = i
                    spc[j] = sj = r
                # among equal minima, a later unassigned column wins
                if sj < lowest or (sj == lowest and row4col[j] == -1):
                    index, lowest = it, sj
            if lowest == math.inf:
                raise ValueError("assignment cost overflow")
            min_val = lowest
            j = remaining[index]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
            rows.append(i)
        u[cur] += min_val
        for i in rows:
            u[i] += min_val - spc[col4row[i]]
        for k in cols:
            v[k] -= min_val - spc[k]
        # augment along the path back to row cur
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def match_laterals(
    qa: np.ndarray, sa: np.ndarray, qb: np.ndarray, sb: np.ndarray, w: Weights
) -> np.ndarray:
    """Minimum-cost lateral correspondence: perm[k] is the lateral of b
    matched to a's lateral k.

    Exact linear assignment on ``lateral_cost_matrix`` by shortest augmenting
    paths (``_linear_assignment``).  Ties go as in scipy's
    ``linear_sum_assignment``: of equal path costs, the last free column in
    the scan, else the first one.
    """
    return np.array(_linear_assignment(lateral_cost_matrix(qa, sa, qb, sb, w)), dtype=int)


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
MAX_MAIN_SAMPLES = math.isqrt(DP_MAX_BYTES // (8 * len(_DP_STENCIL)))


class _DpRowStep(NamedTuple):
    """Grid data of the stencil steps (di, dj) that share one row step di.

    Their blocks are the consecutive steps t0, t0 + 1, ... of the cost array,
    each filled in rows i >= di; the qb indices are per end column j, clamped
    in the columns j < dj that have no edge.  Index arrays address the
    component-major flattening (c * n + index) of the SRVF samples; a qb
    node lies between the samples ``b_lo`` and ``b_lo + 1`` (i0 <= n - 2, so
    both are of the same component).
    """

    di: int
    t0: int
    a_idx: np.ndarray  # (n-di, 2, di+1): qa samples of node k of edge row r
    b_lo: np.ndarray  # (J, n, 2, di+1): qb lerp index i0 of node k
    fr: np.ndarray  # (J, n, 1, di+1): its lerp fraction, the weight of i0 + 1
    wk: np.ndarray  # (di+1,): trapezoid weights of the nodes
    factor: np.ndarray  # (J, 1, 1, di+1): -2 sqrt(slope) wk
    slope: np.ndarray  # (J, 1): dj / di


class _DpPlan(NamedTuple):
    """Everything of the DP that depends only on the grid size n."""

    stencil: tuple[tuple[int, int], ...]
    row_steps: tuple[_DpRowStep, ...]
    # (T,): flat start of the candidates E[i-di, -dj : n-dj] in the padded E
    # of ``_reparam_dp``, less i * (n + DP_MAX_STEP); the same for every row i
    e_off: np.ndarray
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
        # qb position of node k on the edge into column j, clamped to qb's
        # samples in the columns j < dj, which have no edge (see _dp_edge_cost)
        x = (cols - dj)[:, :, None, None] + np.arange(di + 1) * slope[:, None, None, None]
        x = np.clip(x, 0, n - 1)
        i0 = np.minimum(x.astype(int), n - 2)
        fr = x - i0
        factor = (-2.0 * np.sqrt(slope))[:, None, None, None] * wk
        row_steps.append(_DpRowStep(
            di, int(t0), *_frozen(a_idx, i0 + comp, fr, wk, factor, slope[:, None]),
        ))
    width = n + DP_MAX_STEP
    e_off = (DP_MAX_STEP - di_t) * width + DP_MAX_STEP - dj_t[:, 0]
    steps_up_to = np.searchsorted(di_t, cols, side="right")
    return _DpPlan(stencil, tuple(row_steps), *_frozen(e_off, steps_up_to))


def _dp_edge_cost(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Costs of every stencil edge as a (T, n, n) array by end node.

    ``costs[t, i, j]`` is the trapezoid-rule energy of
    |qa(t) - sqrt(slope) * qb(gamma(t))|^2 over the di grid intervals of the
    edge from (i-di, j-dj) into (i, j), with gamma linear on the edge,
    clamped at 0.  The columns j < dj have no edge: their costs are finite,
    and the DP adds them only to the +inf of E's padding, the one border of
    the grid.  Rows i < di are left unset.  Per row step di, the blocks of
    all its steps come from one batched matrix product, one gemm per step:
    the node-stacked qa samples extended by [|qa|^2, 1] against the weighted
    qb samples extended by [1, slope * |u|^2].
    """
    n = len(qa)
    plan = _dp_plan(n)
    costs = np.empty((len(plan.stencil), n, n))
    flat_a = qa.T.ravel()
    flat_b = qb.T.ravel()
    for g in plan.row_steps:
        rows, inner, steps = n - g.di, 2 * (g.di + 1), len(g.slope)
        a = flat_a.take(g.a_idx)
        u = flat_b.take(g.b_lo) * (1.0 - g.fr)
        hi = flat_b[1:].take(g.b_lo)
        hi *= g.fr
        u += hi  # the lerp u = lo * (1 - fr) + hi * fr, in place
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
        np.maximum(block, 0.0, out=block)
    return costs


def _reparam_dp(qa: np.ndarray, qb: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-energy monotone grid path; returns (gamma values, energy).

    E[i, j], the least energy of a path from (0, 0) to (i, j), is filled one
    row at a time: the candidates E[i-di, j-dj] + costs[t, i, j] of all
    stencil steps t with di <= i are gathered into one (T, n) array and
    reduced by min.  E carries ``DP_MAX_STEP`` rows and columns of +inf
    before its row 0 and column 0, so row i's candidates are the n-entry
    windows of the flat E that start at i * (n + DP_MAX_STEP) + ``e_off``,
    and in the columns j < dj, which have no edge, each candidate is +inf.
    Only the cells of the optimal path need their step: walking back from
    (n-1, n-1), each one recomputes its candidates from the same E entries
    and costs and takes the first minimum, so a tie goes to the earliest
    step in stencil order (sorted (di, dj)).
    """
    n = len(qa)
    plan = _dp_plan(n)
    costs = _dp_edge_cost(qa, qb)
    pad = DP_MAX_STEP
    width = n + pad
    E = np.full(width * width, np.inf)  # E[i, j] at (i + pad) * width + pad + j
    E[pad * width + pad] = 0.0
    # windows[k] = E[k : k + n], only read; built on E's buffer because
    # numpy's sliding_window_view raised a 110-pass atlas run's peak RSS by
    # 1.4 MB
    windows = np.ndarray((len(E) - n + 1, n), buffer=E, strides=(E.itemsize, E.itemsize))
    e_off, steps_up_to = plan.e_off, plan.steps_up_to
    for i in range(1, n):
        m = steps_up_to[i]
        cand = windows[i * width :][e_off[:m]]
        cand += costs[:m, i]
        start = (i + pad) * width + pad
        cand.min(axis=0, out=E[start : start + n])
    energy = float(E[-1])
    if not np.isfinite(energy):
        return np.linspace(0.0, 1.0, n), energy
    # walk the path back and linearly interpolate gamma between its knots
    path_i, path_j = [n - 1], [n - 1]
    i = j = n - 1
    while i > 0 or j > 0:
        m = steps_up_to[i]
        cand = E[i * width + j :].take(e_off[:m])
        cand += costs[:m, i, j]
        di, dj = plan.stencil[cand.argmin()]
        i -= di
        j -= dj
        path_i.append(i)
        path_j.append(j)
    path_i.reverse()
    path_j.reverse()
    values = np.interp(np.arange(n), path_i, path_j) / (n - 1)
    return values, energy


def optimal_reparam_main(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Reparameterization gamma minimizing |qa - (qb o gamma) sqrt(gamma')|^2
    for (n, 2) SRVF samples ``qa`` and ``qb``, as its read-only (n,) values
    at the uniform grid of [0, 1].

    Solved by dynamic programming over monotone grid paths; the identity path
    lies in the search space, so the optimal energy never exceeds the
    identity energy.  Samples of different shapes, non-finite samples, or
    more than ``MAX_MAIN_SAMPLES`` of them are a ValueError.
    """
    if qa.shape != qb.shape:
        raise ValueError(f"sample shapes differ: {qa.shape} vs {qb.shape}")
    if len(qa) > MAX_MAIN_SAMPLES:
        raise ValueError(
            f"{len(qa)} main-curve samples exceed the DP's ceiling of {MAX_MAIN_SAMPLES}")
    if not (np.isfinite(qa).all() and np.isfinite(qb).all()):
        raise ValueError("SRVF samples must be finite")
    gamma = _reparam_dp(qa, qb)[0]
    gamma.flags.writeable = False
    return gamma


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


def register(a: SrvfTree, b: SrvfTree, w: Weights) -> Registration:
    """Align b onto a over rotation, reparameterization and correspondence.

    Coordinate descent, assignment first (attachment positions dominate the
    topology and are rotation invariant), then rotation, then the main-curve
    warp.  Stops when the relative cost decrease over a sweep drops below
    ``SWEEP_TOL`` or after ``MAX_SWEEPS`` sweeps.  A non-finite cost is a
    ValueError.
    """
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

    memo: dict = {}  # this call's matches and DPs, keyed by the bytes of their inputs

    def match(rotation: np.ndarray, s: np.ndarray) -> np.ndarray:
        """The match of b's laterals under ``rotation`` at the positions ``s``."""
        lat = qb @ rotation.T
        key = (lat.tobytes(), s.tobytes())
        if key not in memo:
            memo[key] = match_laterals(qa, sa, lat, s, w)
        return memo[key]

    def reparam(rotation: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The DP's gamma under ``rotation``, b's main warped and positions moved by it."""
        main = b0 @ rotation.T
        key = main.tobytes()
        if key not in memo:
            gamma = optimal_reparam_main(a0, main)
            memo[key] = gamma, _warp(b0, gamma), _remap(sb, gamma)
        return memo[key]

    gamma = np.linspace(0.0, 1.0, len(a0))
    b_warped, s_moved = b0, sb  # b's main and positions under gamma
    # Warm-start from a main-branch-only Procrustes fit R0 or its half turn,
    # whichever costs less under its own match (large rotations otherwise
    # mislead the first matching sweep).  Both turn with b, so the descent
    # ends in the same place for every pose of b.
    main_only = Weights(max(w.lambda_m, 1e-12), 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = optimal_rotation(a0, qa, b0, qb, main_only)
    history = [math.inf]
    for cand in (fit, -fit):
        pi = match(cand, sb)
        c = aligned_cost(b0 @ cand.T, _sq_dists(qa, (qb @ cand.T)[pi]), sb, pi)
        if c < history[0]:
            history[0], rotation = c, cand
    for _ in range(MAX_SWEEPS):
        assignment = match(rotation, s_moved)
        rotation = optimal_rotation(a0, qa, b_warped, qb[assignment], w)
        shapes = _sq_dists(qa, (qb @ rotation.T)[assignment])
        gamma_new, warped_new, s_new = reparam(rotation)
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
