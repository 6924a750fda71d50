"""Square-root velocity representation of branches and whole trees.

A curve maps to its derivative divided by the square root of its speed;
zero-length (virtual) branches map to identically zero samples.  Under this
transform the elastic geometry of curves becomes the flat L2 geometry, so
distances, geodesics and means reduce to vector arithmetic on samples.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .tree_model import (
    Branch,
    DEFAULT_LATERAL_SAMPLES,
    Lateral,
    RootTree,
    _cumulative_arclength,
    resample_branch,
)

# L2-norm threshold under which a lateral SRVF is treated as a zero-length
# branch during reconstruction.  Geodesics shrink branches continuously to
# zero, so a cutoff is needed to emit valid trees.
EPS_NULL = 1e-8


def trapezoid_weights(n: int) -> np.ndarray:
    """Quadrature weights for the uniform grid on [0, 1] (they sum to 1)."""
    h = 1.0 / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


@dataclass(frozen=True)
class Srvf:
    """SRVF samples at n uniform parameters on [0, 1]; shape (n, 2)."""

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
        """Integral of the squared sample norm; equals the curve arc length."""
        w = trapezoid_weights(self.n)
        return float(w @ np.einsum("ij,ij->i", self.samples, self.samples))

    def is_null(self, eps: float = EPS_NULL) -> bool:
        return self.norm_sq < eps * eps

    @staticmethod
    def zero(n: int) -> "Srvf":
        return Srvf(np.zeros((n, 2)))


class LateralSrvf(NamedTuple):
    q: Srvf
    s: float


@dataclass(frozen=True)
class SrvfTree:
    """SRVF of the main branch plus (SRVF, attachment position) laterals.

    The anchor is the main branch's start point; SRVFs are translation
    invariant, so it is carried along purely for reconstruction.
    """

    q0: Srvf
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

    def to_debug_dict(self) -> dict:
        return {
            "anchor": [float(v) for v in self.anchor],
            "q0": self.q0.samples.tolist(),
            "laterals": [
                {"s": float(s), "q": q.samples.tolist()} for q, s in self.laterals
            ],
        }

    def dump_debug_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_debug_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


@dataclass(frozen=True)
class Weights:
    """Relative contributions of the main, lateral-shape and position terms."""

    lambda_m: float = 0.02
    lambda_s: float = 1.0
    lambda_p: float = 1.0

    def __post_init__(self) -> None:
        vals = (self.lambda_m, self.lambda_s, self.lambda_p)
        if any(v < 0 for v in vals):
            raise ValueError("weights must be nonnegative")
        if not any(v > 0 for v in vals):
            raise ValueError("at least one weight must be positive")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lambda_m, self.lambda_s, self.lambda_p)


DEFAULT_WEIGHTS = Weights()


# ---------------------------------------------------------------------------
# transform and inverse


def to_srvf(branch: Branch, n: int) -> Srvf:
    """SRVF of a branch sampled at n uniform parameters.

    The branch is resampled to uniform arc length, the derivative estimated
    by central finite differences (second-order one-sided at the endpoints;
    first-order at n = 2, where both are the one segment's slope), and
    scaled by the reciprocal square root of the speed.  Virtual branches
    yield all-zero samples.
    """
    if branch.is_virtual:
        return Srvf.zero(n)
    pts = resample_branch(branch, n).points
    h = 1.0 / (n - 1)
    deriv = np.gradient(pts, h, axis=0, edge_order=min(2, n - 1))
    speed = np.linalg.norm(deriv, axis=1)
    q = np.zeros_like(deriv)
    moving = speed > 1e-12
    q[moving] = deriv[moving] / np.sqrt(speed[moving])[:, None]
    return Srvf(q)


def from_srvf(q: Srvf, start: np.ndarray) -> Branch:
    """Reconstruct a branch by integrating q * |q| from the start point."""
    samples = q.samples
    speed = np.linalg.norm(samples, axis=1)
    velocity = samples * speed[:, None]
    h = 1.0 / (q.n - 1)
    # cumulative trapezoid rule
    increments = 0.5 * h * (velocity[1:] + velocity[:-1])
    pts = np.vstack([[0.0, 0.0], np.cumsum(increments, axis=0)]) + np.asarray(start)
    return Branch(pts)


def tree_to_srvft(tree: RootTree, n_lateral: int | None = None) -> SrvfTree:
    """SRVF-tree of a (resampled) root tree; attachment s equals t.

    ``n_lateral`` fixes the lateral sample count (needed so virtual laterals
    are comparable with real ones); it defaults to the first real lateral's
    point count, or ``DEFAULT_LATERAL_SAMPLES`` if the tree has none.
    """
    if n_lateral is None:
        real = tree.real_laterals
        n_lateral = real[0].branch.n_points if real else DEFAULT_LATERAL_SAMPLES
    q0 = to_srvf(tree.main, tree.main.n_points)
    laterals = tuple(
        LateralSrvf(to_srvf(br, n_lateral), float(t)) for t, br in tree.laterals
    )
    return SrvfTree(q0=q0, laterals=laterals, anchor=tree.main.start)


def augment_srvfts(Qs: Sequence[SrvfTree]) -> list[SrvfTree]:
    """Equalize lateral counts by adding zero laterals, at the SRVF level.

    Each SRVF-tree gains one zero lateral at every attachment position of the
    *other* trees (with multiplicity, in tree order), then its laterals are
    stably sorted by s, so real laterals stay ahead of added ones on ties.
    A virtual lateral's SRVF is zero and its s equals its t, so this equals
    ``tree_to_srvft`` of the trees equalized by ``augment_pair`` or
    ``augment_collection``.  Zero laterals take the lateral sample count of
    the inputs.
    """
    if not Qs:
        raise ValueError("empty collection")
    n_lateral = next((q.n for Q in Qs for q, _ in Q.laterals), None)
    if n_lateral is None:
        return list(Qs)
    zero = Srvf.zero(n_lateral)
    all_s = [Q.s_values() for Q in Qs]
    out = []
    for i, Q in enumerate(Qs):
        extra = tuple(LateralSrvf(zero, s) for j, ss in enumerate(all_s) if j != i for s in ss)
        laterals = sorted(Q.laterals + extra, key=lambda lat: lat.s)
        out.append(SrvfTree(q0=Q.q0, laterals=tuple(laterals), anchor=Q.anchor))
    return out


def srvft_to_tree(Q: SrvfTree, tree_id: str = "reconstructed", eps_null: float = EPS_NULL) -> RootTree:
    """Map an SRVF-tree back to a root tree.

    The main branch is integrated from the anchor; each lateral starts where
    the reconstructed main sits at its attachment parameter.  Laterals whose
    SRVF norm falls below ``eps_null`` come out virtual.  Attachment t values
    are stored as arc-length fractions of the reconstructed main, so the
    output passes tree validation even when the main is not uniform speed
    (as happens for interior geodesic points).
    """
    main = from_srvf(Q.q0, Q.anchor)
    points = main.points
    n = len(points)
    # attachment points by linear interpolation at parameter s, and their
    # arc-length fractions along the main
    x = Q.s_values() * (n - 1)
    i0 = np.minimum(np.floor(x).astype(int), n - 2)
    frac = x - i0
    starts = (1.0 - frac)[:, None] * points[i0] + frac[:, None] * points[i0 + 1]
    cum = _cumulative_arclength(points)
    total = cum[-1]
    if total <= 0.0:
        t_arc = np.zeros(len(x))
    else:
        t_arc = (cum[i0] + frac * (cum[i0 + 1] - cum[i0])) / total
    laterals = []
    for (q, _), point, t in zip(Q.laterals, starts, t_arc.tolist()):
        if np.sqrt(q.norm_sq) < eps_null:
            laterals.append(Lateral(t, Branch(point[None, :], is_virtual=True)))
        else:
            laterals.append(Lateral(t, from_srvf(q, point)))
    return RootTree(id=tree_id, main=main, laterals=tuple(laterals))


# ---------------------------------------------------------------------------
# flat L2 geometry


def _sq_dists(qa: np.ndarray, qb: np.ndarray) -> list[float]:
    """Trapezoid-rule |qa - qb|^2 of each pair of (..., m, 2) sample arrays."""
    if qa.shape != qb.shape:
        raise ValueError(f"sample counts differ: {qa.shape[-2]} vs {qb.shape[-2]}")
    m = qa.shape[-2]
    d = qa - qb
    tw = trapezoid_weights(m)
    return [float(tw @ r) for r in np.einsum("...ij,...ij->...i", d, d).reshape(-1, m)]


def l2_dist_sq(q1: Srvf, q2: Srvf) -> float:
    """Integral of |q1 - q2|^2 over [0, 1] by the trapezoid rule."""
    return _sq_dists(q1.samples, q2.samples)[0]
