"""Distances, geodesics and pairwise distance matrices between root trees.

The registered dissimilarity is a weighted sum of squared L2 terms, so the
geodesic between two registered trees is the straight line in SRVF-tree
coordinates and the distance is the square root of the registered cost.
"""
from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .registration import Registration, apply_registration, register
from .srvf import (
    DEFAULT_WEIGHTS,
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
    float_array,
    json_fields,
    json_int,
    json_text,
    naming,
    normalize_scale,
    read_json,
    resample_tree,
    write_text,
)


@dataclass(frozen=True)
class PairOptions:
    """Shared knobs for pairwise registration pipelines."""

    n_main: int = DEFAULT_MAIN_SAMPLES
    n_lateral: int = DEFAULT_LATERAL_SAMPLES
    normalize: bool = False


DEFAULT_OPTIONS = PairOptions()


def prepare_trees(
    trees: Sequence[RootTree], opts: PairOptions = DEFAULT_OPTIONS
) -> list[SrvfTree]:
    """Prepare each tree in order; the first tree that fails raises.

    This is the one preparation path: every pipeline prepares each tree once
    and equalizes lateral counts afterwards, at the SRVF level, with
    ``augment_srvfts``.
    """
    n, k = opts.n_main, opts.n_lateral
    return [tree_to_srvft(resample_tree(normalize_scale(t) if opts.normalize else t, n, k), k)
            for t in trees]


def prepare_collection(
    trees: Sequence[RootTree], opts: PairOptions = DEFAULT_OPTIONS
) -> list[SrvfTree]:
    """Prepare every tree and augment the collection to equal lateral counts."""
    return augment_srvfts(prepare_trees(trees, opts))


def prepare_pair(
    a: RootTree, b: RootTree, opts: PairOptions = DEFAULT_OPTIONS
) -> tuple[SrvfTree, SrvfTree]:
    """``prepare_collection`` of the two trees."""
    Qa, Qb = prepare_collection([a, b], opts)
    return Qa, Qb


def register_pair(
    a: RootTree,
    b: RootTree,
    w: Weights = DEFAULT_WEIGHTS,
    opts: PairOptions = DEFAULT_OPTIONS,
) -> tuple[SrvfTree, SrvfTree, Registration]:
    """Full pipeline from raw trees to a registration of b onto a."""
    Qa, Qb = prepare_pair(a, b, opts)
    return Qa, Qb, register(Qa, Qb, w)


def distance(
    a: RootTree,
    b: RootTree,
    w: Weights = DEFAULT_WEIGHTS,
    opts: PairOptions = DEFAULT_OPTIONS,
) -> float:
    """Registered tree-shape distance (square root of the optimal cost)."""
    return register_pair(a, b, w, opts)[2].distance


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

    def trees(self, id_prefix: str = "step") -> list[RootTree]:
        return srvft_to_tree(self.steps, [f"{id_prefix}-{i:02d}" for i in range(len(self.steps))])


def interpolate_srvft(Qa: SrvfTree, Qb: SrvfTree, r: float) -> SrvfTree:
    """Convex combination of two index-aligned SRVF-trees."""
    if Qa.n_laterals != Qb.n_laterals:
        raise ValueError("trees must be index-aligned")
    return SrvfTree(*(
        (1.0 - r) * x + r * y
        for x, y in zip((Qa.q0, Qa.q_lat, Qa.s, Qa.anchor), (Qb.q0, Qb.q_lat, Qb.s, Qb.anchor))
    ))


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
        vals = float_array(self.values, "distance matrix values")
        m = len(self.labels)
        if not all(isinstance(label, str) for label in self.labels):
            raise ValueError("distance matrix labels must be strings")
        if vals.shape != (m, m):
            raise ValueError("matrix shape must match the label count")
        if any(not (0 <= i < m and 0 <= j < m) for i, j, _ in self.failures):
            raise ValueError(f"distance matrix failures must index its {m} labels")
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
        csv_file = Path(path).suffix == ".csv"
        write_text(path, self.to_csv() if csv_file else json_text(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "DistanceMatrix":
        path = Path(path)
        with naming(path):
            if path.suffix == ".csv":
                rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
                if not rows:
                    raise ValueError("empty distance-matrix file, no label row")
                labels = rows[0]
                if len(rows) - 1 != len(labels):
                    raise ValueError(f"{len(labels)} labels but {len(rows) - 1} rows")
                for k, row in enumerate(rows[1:], 1):
                    if len(row) != len(labels):
                        raise ValueError(f"row {k} has {len(row)} values, not {len(labels)}")
                return cls(labels=tuple(labels), values=rows[1:])
            data = read_json(path)
            labels, values = json_fields(data, "distance matrix", "labels", "values")
            if not isinstance(labels, list):
                kind = type(labels).__name__
                raise ValueError(f"distance matrix labels must be a JSON array, not {kind}")
            failures = data.get("failures", [])
            if not (isinstance(failures, list) and all(
                    isinstance(f, list) and len(f) == 3 and isinstance(f[2], str)
                    for f in failures)):
                raise ValueError("distance matrix failures must be [i, j, message] entries")
            index = "distance matrix failure index"
            failures = tuple((json_int(i, index), json_int(j, index), m) for i, j, m in failures)
            return cls(labels=tuple(labels), values=values, failures=failures)


def _pair_distance(Qa, Qb, w: Weights) -> float | str:
    """The registered distance, or the "Type: message" text of the
    exception the registration raised."""
    try:
        return register(*augment_srvfts([Qa, Qb]), w).distance
    except Exception as exc:  # recorded per pair, matrix entry flagged invalid
        return f"{type(exc).__name__}: {exc}"


@contextmanager
def worker_pool(n_jobs: int, largest: int):
    """Yield ``run(fn, items)``: order-preserving ``fn(*item)`` per item,
    over one process pool that every call in the context shares.

    Each item is computed independently and deterministically, so results do
    not depend on the worker count.  The pool has at most ``largest``
    workers, the item count of the context's largest call; with one worker
    or none, ``run`` computes in this process, and the pool's modules are
    imported only when a pool runs.
    """
    workers = min(n_jobs, largest)
    if workers <= 1:
        yield lambda fn, items: [fn(*it) for it in items]
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield lambda fn, items: list(pool.map(fn, *zip(*items)))


def pairwise_matrix(
    trees: Sequence[RootTree],
    w: Weights = DEFAULT_WEIGHTS,
    opts: PairOptions = DEFAULT_OPTIONS,
    n_jobs: int = 1,
) -> DistanceMatrix:
    """Registered distances between all unordered pairs.

    Each tree is prepared once, in the calling process; each pair is then
    augmented and registered independently, giving the same value as
    ``distance``, or recorded as a failure.  The matrix is symmetric with a
    zero diagonal by construction.
    """
    if len(trees) < 2:
        raise ValueError("need at least 2 trees")
    m = len(trees)
    prepared = prepare_trees(trees, opts)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    jobs = [(prepared[i], prepared[j], w) for i, j in pairs]
    values = np.zeros((m, m))
    failures = []
    with worker_pool(n_jobs, len(jobs)) as run:
        distances = run(_pair_distance, jobs)
    for (i, j), d in zip(pairs, distances):
        if isinstance(d, str):
            failures.append((i, j, d))
            d = float("nan")
        values[i, j] = values[j, i] = d
    return DistanceMatrix(
        labels=tuple(t.id for t in trees),
        values=values,
        failures=tuple(failures),
    )
