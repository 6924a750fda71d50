"""Domain model for two-layer root trees.

A root tree is a main curve plus lateral branches, each lateral attached to
the main curve at a normalized arc-length position t in [0, 1].  Laterals
may be *virtual*: zero-length placeholders (a single point sitting on the
main curve) used to equalize lateral counts between trees before matching.

Trees are immutable; every operation returns a new tree.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

DEFAULT_MAIN_SAMPLES = 100
DEFAULT_LATERAL_SAMPLES = 50

# Attachment tolerance of a root file, relative to the main-curve arc length.
# Skeletonized scans carry pixel noise, so exact incidence cannot be required.
ATTACH_TOL_FACTOR = 1e-3


class RootFormatError(ValueError):
    """A root file could not be parsed into a tree."""


class TreeValidationError(ValueError):
    """A structural invariant of a root tree is violated."""


def polyline_length(points: np.ndarray) -> float:
    if len(points) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


def _cumulative_arclength(points: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def project_to_polyline(points: np.ndarray, x: np.ndarray) -> float:
    """Arc-length fraction of the polyline point nearest to x."""
    starts = points[:-1]
    vecs = points[1:] - starts
    lens_sq = np.einsum("ij,ij->i", vecs, vecs)
    u = np.zeros(len(starts))
    moving = lens_sq > 0
    u[moving] = np.einsum("ij,ij->i", (x - starts)[moving], vecs[moving]) / lens_sq[moving]
    u = np.clip(u, 0.0, 1.0)
    candidates = starts + u[:, None] * vecs
    k = int(np.argmin(np.linalg.norm(candidates - x, axis=1)))
    cum = _cumulative_arclength(points)
    total = cum[-1]
    if total <= 0.0:
        return 0.0
    arc = cum[k] + u[k] * (cum[k + 1] - cum[k])
    return float(arc / total)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Branch:
    """A discretized planar curve, ordered base to tip.

    Virtual branches carry exactly one point (their attachment location) and
    represent zero-length laterals.
    """

    points: np.ndarray
    is_virtual: bool = False

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise TreeValidationError("branch points must be an (n, 2) array")
        if not np.all(np.isfinite(pts)):
            raise TreeValidationError("branch coordinates must be finite")
        if self.is_virtual:
            if len(pts) != 1:
                raise TreeValidationError("virtual branch must have exactly one point")
        else:
            if len(pts) < 2:
                raise TreeValidationError("branch needs at least 2 points")
            if polyline_length(pts) <= 0.0:
                raise TreeValidationError("branch has zero length")
        object.__setattr__(self, "points", _freeze(pts))

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def length(self) -> float:
        return polyline_length(self.points)

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    def point_at(self, t: float) -> np.ndarray:
        """Point at normalized arc-length position t in [0, 1]."""
        cum = _cumulative_arclength(self.points)
        if cum[-1] <= 0.0:
            return self.points[0].copy()
        target = float(t) * cum[-1]
        return np.array([np.interp(target, cum, self.points[:, 0]),
                         np.interp(target, cum, self.points[:, 1])])


class Lateral(NamedTuple):
    t: float
    branch: Branch


@dataclass(frozen=True)
class RootTree:
    """A main branch plus laterals attached at arc-length positions.

    Laterals are stored sorted by t (stable, so ties keep insertion order).
    Only root files are checked for laterals starting on the main at their t.
    """

    id: str
    main: Branch
    laterals: tuple[Lateral, ...] = ()

    def __post_init__(self) -> None:
        if self.main.is_virtual:
            raise TreeValidationError("main branch cannot be virtual")
        lats = tuple(Lateral(float(t), br) for t, br in self.laterals)
        for t, _ in lats:
            if not (0.0 <= t <= 1.0):
                raise TreeValidationError(f"t out of range: {t!r} not in [0, 1]")
        object.__setattr__(self, "laterals", tuple(sorted(lats, key=lambda lb: lb.t)))

    @property
    def n_laterals(self) -> int:
        return len(self.laterals)

    @property
    def real_laterals(self) -> tuple[Lateral, ...]:
        return tuple(l for l in self.laterals if not l.branch.is_virtual)

    def lateral_ts(self) -> np.ndarray:
        return np.array([t for t, _ in self.laterals], dtype=float)


# ---------------------------------------------------------------------------
# file format


def json_text(payload) -> str:
    """The layout of every JSON file written: sorted keys, two-space indent,
    a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text, creating the missing parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def read_json(path: str | Path):
    """The parsed content of a UTF-8 JSON file; bytes that are not UTF-8
    JSON are a ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


def _read_root_json(path: Path):
    try:
        return read_json(path)
    except ValueError as exc:
        raise RootFormatError(str(exc)) from None


def json_fields(data, what: str, *keys: str) -> list:
    """The values of ``keys`` in the parsed JSON object ``what``; a value
    that is not an object, or a missing key, is a ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{what} has no {missing[0]!r} field")
    return [data[key] for key in keys]


def float_array(value, what: str) -> np.ndarray:
    """A new float array of ``value``; a value that holds anything but numbers
    (a string or a JSON object, say) is a ValueError."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be a regular array of numbers ({exc})") from None


def json_int(value, what: str) -> int:
    """A parsed JSON integer; any other JSON type is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def tree_to_dict(tree: RootTree) -> dict:
    out: dict = {
        "id": tree.id,
        "main": tree.main.points.tolist(),
        "laterals": [],
    }
    for t, br in tree.laterals:
        entry = {
            "t": float(t),
            "points": br.points.tolist(),
        }
        if br.is_virtual:
            entry["virtual"] = True
        out["laterals"].append(entry)
    return out


def tree_from_dict(data: dict, fallback_id: str = "root") -> RootTree:
    """The tree of a parsed root object.  Each real lateral must start on the
    main curve at its t, within ``ATTACH_TOL_FACTOR * main length``."""
    if not isinstance(data, dict):
        raise RootFormatError("root object must be a JSON object")
    try:
        main_pts = np.asarray(data["main"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise RootFormatError(f"invalid or missing 'main' array: {exc}") from exc
    entries = data.get("laterals", [])
    if not isinstance(entries, list):
        kind = type(entries).__name__
        raise RootFormatError(f"root 'laterals' must be a JSON array, not {kind}")
    laterals = []
    for i, entry in enumerate(entries):
        try:
            t = float(entry["t"])
            pts = np.asarray(entry["points"], dtype=float)
            virtual = bool(entry.get("virtual", False))
        except (KeyError, TypeError, ValueError) as exc:
            raise RootFormatError(f"invalid lateral #{i}: {exc}") from exc
        laterals.append(Lateral(t, Branch(pts, is_virtual=virtual)))
    tree_id = str(data.get("id", fallback_id))
    tree = RootTree(id=tree_id, main=Branch(main_pts), laterals=tuple(laterals))
    tol = ATTACH_TOL_FACTOR * tree.main.length
    for t, br in tree.real_laterals:
        gap = float(np.linalg.norm(br.start - tree.main.point_at(t)))
        if gap > tol:
            raise TreeValidationError(
                f"lateral at t={t:.6g} starts {gap:.6g} from the main curve "
                f"(tolerance {tol:.6g})"
            )
    return tree


def load_root(path: str | Path) -> RootTree:
    """Load and validate a single root tree from a JSON file."""
    path = Path(path)
    return tree_from_dict(_read_root_json(path), fallback_id=path.stem)


def save_root(tree: RootTree, path: str | Path) -> None:
    """Write a tree as JSON; ``load_root`` reproduces it exactly."""
    write_text(path, json_text(tree_to_dict(tree)))


def load_collection(path: str | Path) -> list[RootTree]:
    """Load a collection: a directory of root files or one JSON array.

    Directory entries are read in sorted filename order so downstream
    results are reproducible.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == ".json")
        if not files:
            raise RootFormatError(f"{path}: no .json root files found")
        return [load_root(p) for p in files]
    data = _read_root_json(path)
    if not isinstance(data, list):
        raise RootFormatError(f"{path}: expected a JSON array of root objects")
    return [tree_from_dict(d, fallback_id=f"{path.stem}-{i}") for i, d in enumerate(data)]


# ---------------------------------------------------------------------------
# geometry operations


def resample_branch(branch: Branch, n: int) -> Branch:
    """Resample to n points uniformly spaced in arc length, endpoints exact.

    Interpolation along the polyline is iterated to a fixed point so that the
    *output* polyline's own segments are uniform (relative deviation below
    1e-12); a single pass leaves chord-length variation of order curvature^2 /
    n^2, which would also break resampling idempotence.
    """
    if branch.is_virtual:
        raise TreeValidationError("cannot resample a virtual branch")
    if n < 2:
        raise ValueError(f"need n >= 2 sample points, got {n}")
    pts = np.asarray(branch.points, dtype=float)
    if len(pts) == n:
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        mean = seg.mean()
        if mean > 0 and np.max(np.abs(seg - mean)) / mean < 1e-12:
            return branch  # already at the fixed point
    first, last = pts[0].copy(), pts[-1].copy()
    for _ in range(20):
        cum = _cumulative_arclength(pts)
        target = np.linspace(0.0, cum[-1], n)
        pts = np.column_stack(
            [np.interp(target, cum, pts[:, 0]), np.interp(target, cum, pts[:, 1])]
        )
        pts[0] = first
        pts[-1] = last
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        mean = seg.mean()
        if mean <= 0 or np.max(np.abs(seg - mean)) / mean < 1e-12:
            break
    return Branch(pts)


def resample_tree(
    tree: RootTree,
    n_main: int = DEFAULT_MAIN_SAMPLES,
    n_lateral: int = DEFAULT_LATERAL_SAMPLES,
) -> RootTree:
    """Resample main and laterals; virtual laterals pass through unchanged.

    Resampling shifts the main polyline slightly, so each real lateral's t is
    re-derived by projecting its (unchanged) start point onto the new main; a
    coarse main cuts the curve's bends, so that start can lie off it.
    """
    main = resample_branch(tree.main, n_main)
    laterals = []
    for t, br in tree.laterals:
        if br.is_virtual:
            laterals.append(Lateral(t, br))
        else:
            t_new = project_to_polyline(main.points, br.points[0])
            laterals.append(Lateral(t_new, resample_branch(br, n_lateral)))
    return RootTree(id=tree.id, main=main, laterals=tuple(laterals))


def normalize_scale(tree: RootTree) -> RootTree:
    """Scale the whole tree by 1 / (main arc length); t values unchanged."""
    length = tree.main.length
    if length <= 0.0:
        raise TreeValidationError("cannot normalize a zero-length main branch")
    f = 1.0 / length
    main = Branch(tree.main.points * f)
    laterals = tuple(
        Lateral(t, Branch(br.points * f, is_virtual=br.is_virtual))
        for t, br in tree.laterals
    )
    return RootTree(id=tree.id, main=main, laterals=laterals)


def augment_pair(a: RootTree, b: RootTree) -> tuple[RootTree, RootTree]:
    """``augment_collection([a, b])``: each tree gains one virtual lateral at
    every attachment position of the other, so both end up with n_a + n_b
    laterals."""
    a2, b2 = augment_collection([a, b])
    return a2, b2


def augment_collection(trees: Sequence[RootTree]) -> list[RootTree]:
    """Equalize lateral counts across a collection.

    Every tree gains virtual laterals, placed on its own main curve, at the
    attachment positions of all *other* trees (with multiplicity), so each
    output has sum(n_i) laterals.  Existing laterals are untouched.
    """
    if not trees:
        raise ValueError("empty collection")
    all_ts = [[t for t, _ in tree.laterals] for tree in trees]
    out = []
    for i, tree in enumerate(trees):
        extra = tuple(
            Lateral(t, Branch(tree.main.point_at(t)[None, :], is_virtual=True))
            for j, ts in enumerate(all_ts) if j != i for t in ts
        )
        out.append(RootTree(id=tree.id, main=tree.main, laterals=tree.laterals + extra))
    return out


def extract_bio_params(tree: RootTree) -> tuple[float, float, float]:
    """(main length, mean lateral length, population std of lateral lengths).

    Virtual laterals are excluded; with no real laterals both statistics
    are 0.
    """
    lengths = [br.length for _, br in tree.real_laterals]
    if not lengths:
        return (tree.main.length, 0.0, 0.0)
    arr = np.asarray(lengths)
    return (tree.main.length, float(arr.mean()), float(arr.std()))
