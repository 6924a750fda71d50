"""Distances, geodesics and pairwise distance matrices between root trees.

The registered dissimilarity is a weighted sum of squared L2 terms, so the
geodesic between two registered trees is the straight line in SRVF-tree
coordinates and the distance is the square root of the registered cost.
"""
from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .registration import Registration, apply_registration, register
from .srvf import (
    DEFAULT_WEIGHTS,
    LateralSrvf,
    Srvf,
    SrvfTree,
    Weights,
    augment_srvfts,
    srvft_to_tree,
    tree_to_srvft,
)
from .tree_model import (
    DEFAULT_LATERAL_SAMPLES,
    DEFAULT_MAIN_SAMPLES,
    RootTree,
    normalize_scale,
    resample_tree,
)

THREADS_ENV_VAR = "TREESHAPE_THREADS"


@dataclass(frozen=True)
class PairOptions:
    """Shared knobs for pairwise registration pipelines."""

    n_main: int = DEFAULT_MAIN_SAMPLES
    n_lateral: int = DEFAULT_LATERAL_SAMPLES
    normalize: bool = False
    max_iter: int = 10
    tol: float = 1e-8
    # remap attachment positions by gamma^-1 during registration; switch off
    # to keep positions fixed under main-curve reparameterization
    remap_s: bool = True


DEFAULT_OPTIONS = PairOptions()


def _resampled(tree: RootTree, opts: PairOptions) -> RootTree:
    if opts.normalize:
        tree = normalize_scale(tree)
    return resample_tree(tree, opts.n_main, opts.n_lateral)


def prepare_trees(
    trees: Sequence[RootTree], opts: PairOptions = DEFAULT_OPTIONS
) -> list[SrvfTree]:
    """Normalize (if asked) and resample each tree, then convert each to SRVF.

    This is the one preparation path: every pipeline prepares each tree once
    and equalizes lateral counts afterwards, at the SRVF level, with
    ``augment_srvfts``.  All trees are resampled before any is converted, so
    when several steps would fail, the first resampling error is raised.
    """
    resampled = [_resampled(t, opts) for t in trees]
    return [tree_to_srvft(t, opts.n_lateral) for t in resampled]


def prepare_pair(
    a: RootTree, b: RootTree, opts: PairOptions = DEFAULT_OPTIONS
) -> tuple[SrvfTree, SrvfTree]:
    """Prepare both trees and augment them to equal lateral counts."""
    Qa, Qb = augment_srvfts(prepare_trees([a, b], opts))
    return Qa, Qb


def _register(Qa: SrvfTree, Qb: SrvfTree, w: Weights, opts: PairOptions) -> Registration:
    return register(Qa, Qb, w, max_iter=opts.max_iter, tol=opts.tol, remap_s=opts.remap_s)


def register_pair(
    a: RootTree,
    b: RootTree,
    w: Weights = DEFAULT_WEIGHTS,
    opts: PairOptions = DEFAULT_OPTIONS,
) -> tuple[SrvfTree, SrvfTree, Registration]:
    """Full pipeline from raw trees to a registration of b onto a."""
    Qa, Qb = prepare_pair(a, b, opts)
    return Qa, Qb, _register(Qa, Qb, w, opts)


def distance_sq(
    a: RootTree,
    b: RootTree,
    w: Weights = DEFAULT_WEIGHTS,
    opts: PairOptions = DEFAULT_OPTIONS,
) -> float:
    """Registered squared dissimilarity between two trees."""
    return register_pair(a, b, w, opts)[2].cost


def distance(
    a: RootTree,
    b: RootTree,
    w: Weights = DEFAULT_WEIGHTS,
    opts: PairOptions = DEFAULT_OPTIONS,
) -> float:
    """Registered tree-shape distance (square root of the optimal cost)."""
    return float(np.sqrt(max(distance_sq(a, b, w, opts), 0.0)))


# ---------------------------------------------------------------------------
# geodesics


@dataclass(frozen=True)
class Geodesic:
    """Linear SRVF-tree path between a source and a registered target."""

    steps: tuple[SrvfTree, ...]
    r_values: np.ndarray
    registration: Registration

    def __post_init__(self) -> None:
        r = np.array(self.r_values, dtype=float)
        if len(r) != len(self.steps) or len(r) < 2:
            raise ValueError("need one r value per step, and at least two steps")
        if np.any(np.diff(r) <= 0):
            raise ValueError("r values must be strictly increasing")
        r.flags.writeable = False
        object.__setattr__(self, "r_values", r)

    @property
    def length_sq(self) -> float:
        return self.registration.cost

    def trees(self, id_prefix: str = "step") -> list[RootTree]:
        return [
            srvft_to_tree(Q, tree_id=f"{id_prefix}-{i:02d}")
            for i, Q in enumerate(self.steps)
        ]


def interpolate_srvft(Qa: SrvfTree, Qb: SrvfTree, r: float) -> SrvfTree:
    """Convex combination of two index-aligned SRVF-trees."""
    if Qa.n_laterals != Qb.n_laterals:
        raise ValueError("trees must be index-aligned")
    q0 = Srvf((1.0 - r) * Qa.q0.samples + r * Qb.q0.samples)
    laterals = tuple(
        LateralSrvf(
            Srvf((1.0 - r) * qa.samples + r * qb.samples),
            (1.0 - r) * sa + r * sb,
        )
        for (qa, sa), (qb, sb) in zip(Qa.laterals, Qb.laterals)
    )
    anchor = (1.0 - r) * Qa.anchor + r * Qb.anchor
    return SrvfTree(q0=q0, laterals=laterals, anchor=anchor)


def geodesic(
    a: RootTree,
    b: RootTree,
    w: Weights = DEFAULT_WEIGHTS,
    steps: int = 5,
    opts: PairOptions = DEFAULT_OPTIONS,
) -> Geodesic:
    """Register b onto a and interpolate linearly at ``steps`` uniform r."""
    if steps < 2:
        raise ValueError("a geodesic needs at least 2 steps")
    Qa, Qb, reg = register_pair(a, b, w, opts)
    Qb_reg = apply_registration(Qb, reg)
    r_values = np.linspace(0.0, 1.0, steps)
    path = tuple(interpolate_srvft(Qa, Qb_reg, float(r)) for r in r_values)
    return Geodesic(steps=path, r_values=r_values, registration=reg)


# ---------------------------------------------------------------------------
# distance matrices


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric matrix of registered distances, with per-pair failures."""

    labels: tuple[str, ...]
    values: np.ndarray
    failures: tuple[tuple[int, int, str], ...] = ()

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        m = len(self.labels)
        if vals.shape != (m, m):
            raise ValueError("matrix shape must match the label count")
        with np.errstate(invalid="ignore"):
            asym = np.nanmax(np.abs(vals - vals.T)) if m else 0.0
        if m and asym > 1e-9:
            raise ValueError(f"matrix asymmetry {asym:.3g} exceeds 1e-9")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", tuple(self.labels))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.labels)
        for row in self.values:
            writer.writerow([repr(float(v)) for v in row])
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "values": [[float(v) for v in row] for row in self.values],
            "failures": [list(f) for f in self.failures],
        }

    def save(self, path: str | Path) -> None:
        path = Path(path)
        if path.suffix == ".csv":
            path.write_text(self.to_csv(), encoding="utf-8")
        else:
            path.write_text(
                json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )

    @classmethod
    def load(cls, path: str | Path) -> "DistanceMatrix":
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            rows = list(csv.reader(io.StringIO(text)))
            labels = tuple(rows[0])
            values = np.array([[float(v) for v in row] for row in rows[1:]])
            return cls(labels=labels, values=values)
        data = json.loads(text)
        return cls(
            labels=tuple(data["labels"]),
            values=np.array(data["values"], dtype=float),
            failures=tuple((int(i), int(j), str(m)) for i, j, m in data.get("failures", [])),
        )


def _attempt(fn, *args):
    """fn(*args), or the "Type: message" text of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # recorded per pair, matrix entry flagged invalid
        return f"{type(exc).__name__}: {exc}"


def _prepared_distance(Qa: SrvfTree, Qb: SrvfTree, w: Weights, opts: PairOptions) -> float:
    Qa, Qb = augment_srvfts([Qa, Qb])
    return float(np.sqrt(max(_register(Qa, Qb, w, opts).cost, 0.0)))


def _pair_distance(args: tuple) -> tuple[int, int, float, str]:
    i, j, Qa, Qb, failure, w, opts = args
    result = failure or _attempt(_prepared_distance, Qa, Qb, w, opts)
    if isinstance(result, str):
        return (i, j, float("nan"), result)
    return (i, j, result, "")


def resolve_workers(n_jobs: int | None = None) -> int:
    if n_jobs is None:
        n_jobs = int(os.environ.get(THREADS_ENV_VAR, "1"))
    return max(1, n_jobs)


def parallel_map(fn, items: list, n_jobs: int) -> list:
    """Order-preserving map, optionally over a process pool.

    Each item is computed independently and deterministically, so results do
    not depend on the worker count.
    """
    if n_jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(fn, items))


def pairwise_matrix(
    trees: Sequence[RootTree],
    w: Weights = DEFAULT_WEIGHTS,
    opts: PairOptions = DEFAULT_OPTIONS,
    n_jobs: int | None = None,
) -> DistanceMatrix:
    """Registered distances between all unordered pairs.

    Each tree is prepared once, in the calling process; each pair is then
    augmented and registered independently, giving the same value as
    ``distance``.  The matrix is symmetric with a zero diagonal by
    construction.
    """
    if len(trees) < 2:
        raise ValueError("need at least 2 trees")
    m = len(trees)
    # each tree resampled and converted, or the message of the step that
    # failed; a pair fails with the error prepare_trees raises on it
    resampled = [_attempt(_resampled, t, opts) for t in trees]
    prepared = [
        r if isinstance(r, str) else _attempt(tree_to_srvft, r, opts.n_lateral)
        for r in resampled
    ]
    jobs = []
    for i in range(m):
        for j in range(i + 1, m):
            steps = (resampled[i], resampled[j], prepared[i], prepared[j])
            failure = next((x for x in steps if isinstance(x, str)), "")
            jobs.append((i, j, prepared[i], prepared[j], failure, w, opts))
    results = parallel_map(_pair_distance, jobs, resolve_workers(n_jobs))
    values = np.zeros((m, m))
    failures = []
    for i, j, d, err in results:
        values[i, j] = values[j, i] = d
        if err:
            failures.append((i, j, err))
    return DistanceMatrix(
        labels=tuple(t.id for t in trees),
        values=values,
        failures=tuple(failures),
    )
