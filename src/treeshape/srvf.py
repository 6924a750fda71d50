"""Square-root velocity representation of branches and whole trees.

A curve maps to its derivative divided by the square root of its speed;
zero-length (virtual) branches map to identically zero samples.  Under this
transform the elastic geometry of curves becomes the flat L2 geometry, so
distances, geodesics and means reduce to vector arithmetic on samples.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tree_model import (
    MAX_BRANCH_LENGTH,
    Branch,
    Lateral,
    RootTree,
    _cumulative_arclength,
    float_array,
    json_fields,
    resample_branch,
)

# L2-norm threshold under which a lateral SRVF is treated as a zero-length
# branch during reconstruction.  Geodesics shrink branches continuously to
# zero, so a cutoff is needed to emit valid trees.
EPS_NULL = 1e-8

# The largest SRVF sample norm.  |q|^2 is the speed, which on a branch no
# longer than MAX_BRANCH_LENGTH reaches at most twice its length (at the
# one-sided endpoint differences of a hairpin); the bound leaves twice that
# room, and keeps every square and integral of q far from overflow.
MAX_SRVF_NORM = 2.0 * np.sqrt(MAX_BRANCH_LENGTH)

# the most SRVF-trees that ``srvft_to_tree`` integrates as one stack, so its
# temporaries stay bounded at any tree count (see CHANGES.md for the measured
# chunk table)
SYNTH_CHUNK = 16


def trapezoid_weights(n: int) -> np.ndarray:
    """Quadrature weights for the uniform grid on [0, 1] (they sum to 1)."""
    h = 1.0 / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


@dataclass(frozen=True)
class SrvfTree:
    """SRVF of a whole tree as four read-only arrays.

    ``q0`` (n, 2) holds the main branch's samples, ``q_lat`` (N, k, 2) the
    laterals' samples and ``s`` (N,) their attachment positions in [0, 1];
    a tree without laterals stores ``q_lat`` as (0, 2, 2).  The anchor (2,)
    is the main branch's start point; SRVFs are translation invariant, so it
    is carried along purely for reconstruction.  All checks happen here,
    once, as ValueErrors.
    """

    q0: np.ndarray
    q_lat: np.ndarray
    s: np.ndarray
    anchor: np.ndarray

    def __post_init__(self) -> None:
        q0, q_lat, s, anchor = (
            float_array(x, "SRVF-tree arrays") for x in (self.q0, self.q_lat, self.s, self.anchor)
        )
        if q_lat.ndim and len(q_lat) == 0:
            q_lat = np.zeros((0, 2, 2))
        if q0.ndim != 2 or q0.shape[1] != 2 or q0.shape[0] < 2:
            raise ValueError("SRVF samples must be an (n >= 2, 2) array")
        if q_lat.ndim != 3 or q_lat.shape[1] < 2 or q_lat.shape[2] != 2:
            raise ValueError("lateral SRVF samples must be an (N, k >= 2, 2) array")
        if s.shape != (len(q_lat),):
            raise ValueError(
                f"{len(q_lat)} laterals need as many attachment positions, got shape {s.shape}"
            )
        if anchor.shape != (2,):
            raise ValueError(f"anchor must be one point of shape (2,), got {anchor.shape}")
        if not (np.all(np.isfinite(q0)) and np.all(np.isfinite(q_lat))):
            raise ValueError("SRVF samples must be finite")
        # hypot, not the squares: samples near 1e300 are finite, their squares not
        peak = max(float(np.hypot(q[..., 0], q[..., 1]).max(initial=0.0)) for q in (q0, q_lat))
        if peak > MAX_SRVF_NORM:
            raise ValueError(f"SRVF sample norm {peak:.6g} exceeds the bound {MAX_SRVF_NORM:.6g}")
        if not np.all(np.isfinite(anchor)):
            raise ValueError("SRVF-tree anchor must be finite")
        # beyond it, the O(1) offsets of the integrated branches round away
        far = anchor[np.abs(anchor) > MAX_BRANCH_LENGTH]
        if far.size:
            raise ValueError(
                f"SRVF-tree anchor coordinate {far[0]:.6g} exceeds the bound {MAX_BRANCH_LENGTH:g}")
        outside = ~((s >= 0.0) & (s <= 1.0))
        if outside.any():
            raise ValueError(f"attachment position out of range: {float(s[outside][0])!r}")
        for name, arr in (("q0", q0), ("q_lat", q_lat), ("s", s), ("anchor", anchor)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_laterals(self) -> int:
        return len(self.s)

    def null_laterals(self) -> np.ndarray:
        """Which laterals have an SRVF norm below ``EPS_NULL`` (zero-length branches)."""
        return np.sqrt(_sq_norms(self.q_lat)) < EPS_NULL

    def to_dict(self) -> dict:
        """The atlas-file form of the tree (``from_dict`` reads it back exactly)."""
        return {
            "anchor": self.anchor.tolist(),
            "q0": self.q0.tolist(),
            "laterals": [
                {"s": s, "q": q} for q, s in zip(self.q_lat.tolist(), self.s.tolist())
            ],
        }

    @classmethod
    def from_dict(cls, data, what: str = "SRVF-tree") -> "SrvfTree":
        """Inverse of ``to_dict``; a missing field or a wrong JSON type is a
        ValueError that names ``what``."""
        q0, laterals, anchor = json_fields(data, what, "q0", "laterals", "anchor")
        if not isinstance(laterals, list):
            raise ValueError(f"{what} 'laterals' must be a JSON array")
        entries = [json_fields(lat, f"{what} lateral #{i}", "q", "s")
                   for i, lat in enumerate(laterals)]
        return cls(q0, [q for q, _ in entries], [s for _, s in entries], anchor)


@dataclass(frozen=True)
class Weights:
    """Relative contributions of the main, lateral-shape and position terms."""

    lambda_m: float = 0.02
    lambda_s: float = 1.0
    lambda_p: float = 1.0

    def __post_init__(self) -> None:
        vals = self.as_tuple()
        if not all(0 <= v < np.inf for v in vals):
            raise ValueError(f"weights must be finite and nonnegative, got {vals}")
        if not any(v > 0 for v in vals):
            raise ValueError("at least one weight must be positive")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lambda_m, self.lambda_s, self.lambda_p)


DEFAULT_WEIGHTS = Weights()


# ---------------------------------------------------------------------------
# transform and inverse


def to_srvf(branch: Branch, n: int) -> np.ndarray:
    """SRVF of a branch as (n, 2) samples at n uniform parameters.

    The branch is resampled to uniform arc length, the derivative estimated
    by central finite differences (second-order one-sided at the endpoints;
    first-order at n = 2, where both are the one segment's slope), and
    scaled by the reciprocal square root of the speed.  Virtual branches
    yield all-zero samples.
    """
    if branch.is_virtual:
        return np.zeros((n, 2))
    pts = resample_branch(branch, n).points
    h = 1.0 / (n - 1)
    deriv = np.gradient(pts, h, axis=0, edge_order=min(2, n - 1))
    speed = np.linalg.norm(deriv, axis=1)
    q = np.zeros_like(deriv)
    moving = speed > 1e-12
    q[moving] = deriv[moving] / np.sqrt(speed[moving])[:, None]
    return q


def _integrate(samples: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Points of the curves with (..., m, 2) SRVF samples, integrating
    q * |q| by the cumulative trapezoid rule from (..., 2) start points."""
    speed = np.linalg.norm(samples, axis=-1)
    velocity = samples * speed[..., None]
    h = 1.0 / (samples.shape[-2] - 1)
    increments = 0.5 * h * (velocity[..., 1:, :] + velocity[..., :-1, :])
    steps = np.cumsum(increments, axis=-2)
    origin = np.zeros_like(velocity[..., :1, :])
    return np.concatenate([origin, steps], axis=-2) + np.asarray(start)[..., None, :]


def tree_to_srvft(tree: RootTree, n_lateral: int) -> SrvfTree:
    """SRVF-tree of a (resampled) root tree, with ``n_lateral`` samples on
    every lateral, virtual ones too; attachment s equals t."""
    q_lat = [to_srvf(br, n_lateral) for _, br in tree.laterals]
    return SrvfTree(
        q0=to_srvf(tree.main, tree.main.n_points),
        q_lat=np.reshape(q_lat, (len(q_lat), n_lateral, 2)),
        s=tree.lateral_ts(),
        anchor=tree.main.start,
    )


def augment_srvfts(Qs: Sequence[SrvfTree]) -> list[SrvfTree]:
    """Equalize lateral counts by adding zero laterals, at the SRVF level.

    Each SRVF-tree gains one zero lateral at every attachment position of the
    *other* trees (with multiplicity, in tree order), then its laterals are
    stably sorted by s, so real laterals stay ahead of added ones on ties.
    A virtual lateral's SRVF is zero and its s equals its t, so this equals
    ``tree_to_srvft`` of the trees equalized by ``tree_model.augment_pair``
    or ``tree_model.augment_collection``.  Zero laterals take the lateral
    sample count of the first tree that has laterals.
    """
    if not Qs:
        raise ValueError("empty collection")
    k = next((Q.q_lat.shape[1] for Q in Qs if Q.n_laterals), None)
    if k is None:
        return list(Qs)
    out = []
    for i, Q in enumerate(Qs):
        s = np.concatenate([Q.s] + [P.s for j, P in enumerate(Qs) if j != i])
        q_lat = np.zeros((len(s), k, 2))
        if Q.n_laterals:
            q_lat[: Q.n_laterals] = Q.q_lat
        order = np.argsort(s, kind="stable")
        out.append(SrvfTree(Q.q0, q_lat[order], s[order], Q.anchor))
    return out


def srvft_to_tree(
    Q: SrvfTree | Sequence[SrvfTree], tree_id: str | Sequence[str] = "reconstructed"
) -> RootTree | list[RootTree]:
    """Map an SRVF-tree back to a root tree, or a sequence of SRVF-trees of
    one layout, with one id each, to the list of their trees, integrated
    ``SYNTH_CHUNK`` at a time; every tree equals the one rebuilt alone.

    The main branch is integrated from the anchor; lateral k is SRVF lateral
    k, starting where the reconstructed main sits at its attachment
    parameter.  Laterals whose SRVF norm falls below ``EPS_NULL``, or whose
    points all round to their start, come out virtual.  Attachment t values
    are arc-length fractions of the reconstructed main, so a written tree
    passes ``tree_from_dict``'s attachment check even when the main is not
    uniform speed (as happens for interior geodesic points).
    """
    single = isinstance(Q, SrvfTree)
    Qs, ids = ([Q], [tree_id]) if single else (Q, tree_id)
    if len(ids) != len(Qs):
        raise ValueError(f"{len(Qs)} SRVF-trees need as many ids, got {len(ids)}")
    trees = [tree for i in range(0, len(Qs), SYNTH_CHUNK)
             for tree in _rebuild(Qs[i:i + SYNTH_CHUNK], ids[i:i + SYNTH_CHUNK])]
    return trees[0] if single else trees


def _rebuild(Qs: Sequence[SrvfTree], ids: Sequence[str]) -> list[RootTree]:
    """``srvft_to_tree`` of a nonempty sequence, integrated as one stack."""
    mains = _integrate(np.stack([P.q0 for P in Qs]), np.stack([P.anchor for P in Qs]))
    q_lat = np.stack([P.q_lat for P in Qs])
    s = np.stack([P.s for P in Qs])
    n = mains.shape[1]
    # attachment points by linear interpolation at parameter s, and their
    # arc-length fractions along the main
    x = s * (n - 1)
    i0 = np.minimum(np.floor(x).astype(int), n - 2)
    frac = x - i0
    rows = np.arange(len(Qs))[:, None]
    starts = (1.0 - frac)[..., None] * mains[rows, i0] + frac[..., None] * mains[rows, i0 + 1]
    cum = _cumulative_arclength(mains)
    arc = cum[rows, i0] + frac * (cum[rows, i0 + 1] - cum[rows, i0])
    total = cum[:, -1:]
    t_arc = np.divide(arc, total, out=np.zeros_like(arc), where=total > 0.0)
    curves = _integrate(q_lat, starts)
    null = np.stack([P.null_laterals() for P in Qs]) | np.all(
        curves == starts[..., None, :], axis=(-2, -1))
    trees = []
    for tree_id, main_points, ts, bases, lats, nulls in zip(ids, mains, t_arc.tolist(), starts,
                                                            curves, null):
        main = Branch(main_points)
        laterals = tuple(
            Lateral(t, Branch(base[None, :], is_virtual=True) if is_null else Branch(curve))
            for t, base, curve, is_null in zip(ts, bases, lats, nulls)
        )
        trees.append(RootTree(id=tree_id, main=main, laterals=laterals))
    return trees


# ---------------------------------------------------------------------------
# flat L2 geometry


def _sq_norms(q: np.ndarray) -> list[float]:
    """Trapezoid-rule |q|^2 of each (..., m, 2) sample array."""
    m = q.shape[-2]
    tw = trapezoid_weights(m)
    return [float(tw @ r) for r in np.einsum("...ij,...ij->...i", q, q).reshape(-1, m)]


def _sq_dists(qa: np.ndarray, qb: np.ndarray) -> list[float]:
    """Trapezoid-rule |qa - qb|^2 of each pair of (..., m, 2) sample arrays."""
    if qa.shape != qb.shape:
        raise ValueError(f"sample counts differ: {qa.shape[-2]} vs {qb.shape[-2]}")
    return _sq_norms(qa - qb)
