"""Object-based registration and reconstruction, kept as test references.

These are the per-branch object versions of ``register``,
``apply_registration`` and ``srvft_to_tree`` that the array building blocks
replaced.  They rebuild and re-validate one SRVF object per branch for every
candidate cost, which is slow but easy to check by reading; the tests
require the package to give bit-identical results.  The main-curve DP is
shared (it has its own loop reference in ``test_registration.py``).

The references work on ``ObjTree``, one ``BranchSrvf`` per branch; the
public functions at the bottom take and return the package's array
``SrvfTree`` and convert at the boundary.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from treeshape import Branch, Lateral, RootTree, registration
from treeshape.registration import Registration, optimal_reparam_main
from treeshape.srvf import SrvfTree, Weights, _integrate, trapezoid_weights
from treeshape.tree_model import _cumulative_arclength


@dataclass(frozen=True)
class BranchSrvf:
    """SRVF samples of one branch, (n, 2), copied and checked on every build."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise ValueError("SRVF samples must be an (n >= 2, 2) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("SRVF samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def norm_sq(self) -> float:
        return float(trapezoid_weights(self.n) @ np.einsum("ij,ij->i", self.samples, self.samples))


class LateralSrvf(NamedTuple):
    q: BranchSrvf
    s: float


@dataclass(frozen=True)
class ObjTree:
    """An SRVF-tree as one ``BranchSrvf`` per branch."""

    q0: BranchSrvf
    laterals: tuple[LateralSrvf, ...]
    anchor: np.ndarray

    def __post_init__(self) -> None:
        anchor = np.array(self.anchor, dtype=float).reshape(2)
        anchor.flags.writeable = False
        object.__setattr__(self, "anchor", anchor)
        lats = tuple(LateralSrvf(q, float(s)) for q, s in self.laterals)
        for _, s in lats:
            if not (0.0 <= s <= 1.0):
                raise ValueError(f"attachment position out of range: {s!r}")
        object.__setattr__(self, "laterals", lats)

    @property
    def n_laterals(self) -> int:
        return len(self.laterals)

    def s_values(self) -> np.ndarray:
        return np.array([s for _, s in self.laterals], dtype=float)


def to_objects(Q: SrvfTree) -> ObjTree:
    laterals = tuple(LateralSrvf(BranchSrvf(q), s) for q, s in zip(Q.q_lat, Q.s.tolist()))
    return ObjTree(BranchSrvf(Q.q0), laterals, Q.anchor)


def to_arrays(T: ObjTree) -> SrvfTree:
    q_lat = [q.samples for q, _ in T.laterals]
    return SrvfTree(T.q0.samples, q_lat, T.s_values(), T.anchor)


def l2_dist_sq(q1: BranchSrvf, q2: BranchSrvf) -> float:
    d = q1.samples - q2.samples
    w = trapezoid_weights(q1.n)
    return float(w @ np.einsum("ij,ij->i", d, d))


def rotate_srvf(q: BranchSrvf, rotation: np.ndarray) -> BranchSrvf:
    return BranchSrvf(q.samples @ np.asarray(rotation).T)


def is_identity(gamma: np.ndarray) -> bool:
    grid = np.linspace(0.0, 1.0, len(gamma))
    return bool(np.max(np.abs(gamma - grid)) <= 1e-12)


def warp_srvf(q: BranchSrvf, gamma: np.ndarray) -> BranchSrvf:
    if is_identity(gamma):
        return q
    pos = gamma * (q.n - 1)
    idx = np.arange(q.n)
    warped = np.column_stack([np.interp(pos, idx, q.samples[:, c]) for c in range(2)])
    h = 1.0 / (q.n - 1)
    derivative = np.clip(np.gradient(gamma, h), 0.0, None)
    return BranchSrvf(warped * np.sqrt(derivative)[:, None])


def inverse_at(gamma: np.ndarray, s: float) -> float:
    """Monotone linear-interpolation inverse of gamma evaluated at s."""
    return float(np.interp(s, gamma, np.linspace(0.0, 1.0, len(gamma))))


def transform_tree(Q, rotation=None, gamma=None) -> ObjTree:
    q0 = Q.q0
    laterals = Q.laterals
    anchor = Q.anchor
    if gamma is not None and not is_identity(gamma):
        q0 = warp_srvf(q0, gamma)
        laterals = tuple(LateralSrvf(q, inverse_at(gamma, s)) for q, s in laterals)
    if rotation is not None:
        rot = np.asarray(rotation)
        q0 = rotate_srvf(q0, rot)
        laterals = tuple(LateralSrvf(rotate_srvf(q, rot), s) for q, s in laterals)
        anchor = rot @ anchor
    return ObjTree(q0=q0, laterals=laterals, anchor=anchor)


def _apply_registration(Q: ObjTree, reg: Registration) -> ObjTree:
    moved = transform_tree(Q, rotation=reg.rotation, gamma=reg.gamma)
    laterals = tuple(moved.laterals[j] for j in reg.assignment)
    return ObjTree(q0=moved.q0, laterals=laterals, anchor=moved.anchor)


def lateral_cost_matrix(a: ObjTree, b: ObjTree, w: Weights) -> np.ndarray:
    qa = np.stack([q.samples for q, _ in a.laterals])
    qb = np.stack([q.samples for q, _ in b.laterals])
    tw = trapezoid_weights(qa.shape[1])
    na = np.einsum("imc,imc,m->i", qa, qa, tw)
    nb = np.einsum("imc,imc,m->i", qb, qb, tw)
    cross = np.einsum("imc,jmc,m->ij", qa, qb, tw)
    shape_cost = na[:, None] + nb[None, :] - 2.0 * cross
    ds = a.s_values()[:, None] - b.s_values()[None, :]
    return w.lambda_s * np.clip(shape_cost, 0.0, None) + w.lambda_p * ds * ds


def match_laterals(a: ObjTree, b: ObjTree, w: Weights) -> np.ndarray:
    n = a.n_laterals
    if n == 0:
        return np.arange(0)
    rows, cols = linear_sum_assignment(lateral_cost_matrix(a, b, w))
    perm = np.empty(n, dtype=int)
    perm[rows] = cols
    return perm


def optimal_rotation(a: ObjTree, b: ObjTree, assignment, w: Weights) -> np.ndarray:
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


def _preshape_dissimilarity_sq(a: ObjTree, b: ObjTree, w: Weights) -> float:
    total = w.lambda_m * l2_dist_sq(a.q0, b.q0)
    for (qa, sa), (qb, sb) in zip(a.laterals, b.laterals):
        total += w.lambda_s * l2_dist_sq(qa, qb)
        total += w.lambda_p * (sa - sb) ** 2
    return float(total)


def _aligned_cost(a, b, rotation, gamma, assignment, w) -> float:
    moved = transform_tree(b, rotation=rotation, gamma=gamma)
    reordered = ObjTree(
        q0=moved.q0,
        laterals=tuple(moved.laterals[j] for j in assignment),
        anchor=moved.anchor,
    )
    return _preshape_dissimilarity_sq(a, reordered, w)


def _register(a, b, w, tol=1e-8) -> Registration:
    gamma = np.linspace(0.0, 1.0, a.q0.n)
    main_only = Weights(max(w.lambda_m, 1e-12), 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = optimal_rotation(a, b, np.arange(a.n_laterals), main_only)
    history = [np.inf]
    for cand in (fit, -fit):
        pi = match_laterals(a, transform_tree(b, rotation=cand), w)
        c = _aligned_cost(a, b, cand, gamma, pi, w)
        if c < history[0]:
            history[0] = c
            rotation = cand
    for _ in range(registration.MAX_SWEEPS):  # read per call: tests patch the cap
        moved = transform_tree(b, rotation=rotation, gamma=gamma)
        assignment = match_laterals(a, moved, w)
        b_warped = transform_tree(b, gamma=gamma)
        rotation = optimal_rotation(a, b_warped, assignment, w)
        q2_rot = rotate_srvf(b.q0, rotation)
        gamma_new = optimal_reparam_main(a.q0.samples, q2_rot.samples)
        cost_new = _aligned_cost(a, b, rotation, gamma_new, assignment, w)
        cost_keep = _aligned_cost(a, b, rotation, gamma, assignment, w)
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


def _srvft_to_tree(Q: ObjTree, tree_id: str = "reconstructed", eps_null: float = 1e-8) -> RootTree:
    main = Branch(_integrate(Q.q0.samples, Q.anchor))
    laterals = []
    for q, s in Q.laterals:
        s = min(max(float(s), 0.0), 1.0)
        point, t_arc = _param_point(main.points, s)
        if np.sqrt(q.norm_sq) < eps_null:
            laterals.append(Lateral(t_arc, Branch(point[None, :], is_virtual=True)))
        else:
            laterals.append(Lateral(t_arc, Branch(_integrate(q.samples, point))))
    return RootTree(id=tree_id, main=main, laterals=tuple(laterals))


# ---------------------------------------------------------------------------
# the references on the package's array SRVF-trees


def register(a: SrvfTree, b: SrvfTree, w: Weights) -> Registration:
    return _register(to_objects(a), to_objects(b), w)


def apply_registration(Q: SrvfTree, reg: Registration) -> SrvfTree:
    return to_arrays(_apply_registration(to_objects(Q), reg))


def preshape_dissimilarity_sq(a: SrvfTree, b: SrvfTree, w: Weights) -> float:
    return _preshape_dissimilarity_sq(to_objects(a), to_objects(b), w)


def srvft_to_tree(Q: SrvfTree, tree_id: str = "reconstructed") -> RootTree:
    return _srvft_to_tree(to_objects(Q), tree_id)
