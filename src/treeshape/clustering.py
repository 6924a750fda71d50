"""Agglomerative hierarchical clustering of a distance matrix.

Clusters are merged pairwise, closest first, with single / complete /
average linkage.  Ties are broken toward the lexicographically smallest
cluster-id pair so results are reproducible.  Merge records follow the
usual convention: leaves are 0..m-1 and merge k creates cluster m+k.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metric import DistanceMatrix
from .tree_model import float_array, json_fields, naming, read_json

LINKAGE_METHODS = ("single", "complete", "average")


@dataclass(frozen=True)
class Dendrogram:
    """Merge history of an agglomerative clustering run."""

    merges: np.ndarray  # (m-1, 4): left id, right id, height, new size
    leaf_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        merges = float_array(self.merges, "dendrogram merges").reshape(-1, 4)
        if len(merges) != len(self.leaf_labels) - 1:
            raise ValueError("a dendrogram over m leaves needs exactly m-1 merges")
        merges.flags.writeable = False
        object.__setattr__(self, "merges", merges)
        object.__setattr__(self, "leaf_labels", tuple(self.leaf_labels))

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_labels)

    def heights(self) -> np.ndarray:
        return self.merges[:, 2]

    def to_dict(self) -> dict:
        return {
            "leaf_labels": list(self.leaf_labels),
            "merges": [
                {
                    "left": int(l),
                    "right": int(r),
                    "height": float(h),
                    "size": int(s),
                }
                for l, r, h, s in self.merges
            ],
        }

    @classmethod
    def from_dict(cls, data) -> "Dendrogram":
        """Inverse of ``to_dict``; a missing field or a wrong JSON type is a ValueError."""
        merges, labels = json_fields(data, "dendrogram", "merges", "leaf_labels")
        if not isinstance(merges, list):
            raise ValueError(f"dendrogram merges must be a JSON array, not {type(merges).__name__}")
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise ValueError("dendrogram leaf_labels must be an array of strings")
        rows = [json_fields(m, f"dendrogram merge #{k}", "left", "right", "height", "size")
                for k, m in enumerate(merges)]
        return cls(merges=rows, leaf_labels=tuple(labels))

    @classmethod
    def load(cls, path: str | Path) -> "Dendrogram":
        with naming(path):
            return cls.from_dict(read_json(path))


def _validate_matrix(values: np.ndarray) -> np.ndarray:
    """Finite and nonnegative, then symmetrized (``DistanceMatrix`` checked the shape)."""
    if not np.all(np.isfinite(values)):
        raise ValueError("distance matrix has non-finite entries")
    if np.any(values < 0):
        raise ValueError("distance matrix has negative entries")
    return 0.5 * (values + values.T)


def linkage(d: DistanceMatrix, method: str = "single") -> Dendrogram:
    """Agglomerate all leaves into one tree of m-1 merges; the leaves are ``d.labels``."""
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method: {method!r}")
    values = _validate_matrix(d.values)
    m = len(values)
    if m < 2:
        raise ValueError("need at least 2 leaves")

    active: dict[int, int] = {i: 1 for i in range(m)}  # cluster id -> size
    dist: dict[tuple[int, int], float] = {
        (i, j): float(values[i, j]) for i in range(m) for j in range(i + 1, m)
    }
    merges = []
    next_id = m
    for _ in range(m - 1):
        (ci, cj) = min(dist, key=lambda key: (dist[key], key))
        height = dist[(ci, cj)]
        size = active[ci] + active[cj]
        merges.append((ci, cj, height, size))
        for other in active:
            if other in (ci, cj):
                continue
            a = dist.pop((min(ci, other), max(ci, other)))
            b = dist.pop((min(cj, other), max(cj, other)))
            if method == "single":
                new = min(a, b)
            elif method == "complete":
                new = max(a, b)
            else:
                new = (active[ci] * a + active[cj] * b) / size
            dist[(other, next_id)] = new
        del dist[(ci, cj)]
        del active[ci]
        del active[cj]
        active[next_id] = size
        next_id += 1
    return Dendrogram(merges=merges, leaf_labels=d.labels)


def cut(dend: Dendrogram, k: int) -> np.ndarray:
    """Labels for k clusters: drop the k-1 highest merges, keep components.

    Labels are contiguous integers in order of first occurrence over the
    leaves.
    """
    m = dend.n_leaves
    if not (1 <= k <= m):
        raise ValueError(f"k must be in [1, {m}], got {k}")
    parent = list(range(2 * m - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx in range(m - k):  # all but the k-1 highest merges
        left, right, _, _ = dend.merges[idx]
        new_id = m + idx
        parent[find(int(left))] = new_id
        parent[find(int(right))] = new_id
    labels = np.empty(m, dtype=int)
    remap: dict[int, int] = {}
    for leaf in range(m):
        root = find(leaf)
        if root not in remap:
            remap[root] = len(remap)
        labels[leaf] = remap[root]
    return labels
