"""Domain model for two-layer root trees.

A root tree is a main curve plus lateral branches, each lateral attached to
the main curve at a normalized arc-length position t in [0, 1].  Laterals
may be *virtual*: zero-length placeholders (a single point sitting on the
main curve) used to equalize lateral counts between trees before matching.

Trees are immutable; every operation returns a new tree.
"""
from __future__ import annotations

import json
import math
import os
import stat
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

DEFAULT_MAIN_SAMPLES = 100
DEFAULT_LATERAL_SAMPLES = 50

# Attachment tolerance of a root file, relative to the main-curve arc length.
# Skeletonized scans carry pixel noise, so exact incidence cannot be required.
ATTACH_TOL_FACTOR = 1e-3

# The longest real branch.  The SRVF squares velocities about as large as the
# branch length, so below this bound every square stays far from overflow.
MAX_BRANCH_LENGTH = 1e150


class RootFormatError(ValueError):
    """A root file could not be parsed into a tree."""


class TreeValidationError(ValueError):
    """A structural invariant of a root tree is violated."""


def polyline_length(points: np.ndarray) -> float:
    if len(points) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


def _cumulative_arclength(points: np.ndarray) -> np.ndarray:
    """Arc length up to each point of the (..., n, 2) polylines."""
    seg = np.linalg.norm(np.diff(points, axis=-2), axis=-1)
    return np.concatenate([np.zeros_like(seg[..., :1]), np.cumsum(seg, axis=-1)], axis=-1)


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


@dataclass(frozen=True)
class Branch:
    """A discretized planar curve, ordered base to tip.

    Virtual branches carry exactly one point (their attachment location) and
    represent zero-length laterals.
    """

    points: np.ndarray
    is_virtual: bool = False

    def __post_init__(self) -> None:
        pts = float_array(self.points, "branch points")
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise TreeValidationError("branch points must be an (n, 2) array")
        if not np.isfinite(pts).all():
            raise TreeValidationError("branch coordinates must be finite")
        if self.is_virtual:
            if len(pts) != 1:
                raise TreeValidationError("virtual branch must have exactly one point")
        else:
            if len(pts) < 2:
                raise TreeValidationError("branch needs at least 2 points")
            # the length is 0 exactly when every squared step underflows; one
            # that overflows is a length above the bound
            with np.errstate(over="ignore"):
                length = polyline_length(pts)
            if length == 0.0:
                raise TreeValidationError("branch has zero length")
            if length > MAX_BRANCH_LENGTH:
                raise TreeValidationError(
                    f"branch length {length:.6g} exceeds the bound {MAX_BRANCH_LENGTH:g}")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

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

    Laterals keep the order given (only ``srvf.augment_srvfts`` sorts).  Only
    root files are checked for laterals starting on the main at their t.
    """

    id: str
    main: Branch
    laterals: tuple[Lateral, ...] = ()

    def __post_init__(self) -> None:
        if self.main.is_virtual:
            raise TreeValidationError("main branch cannot be virtual")
        ts = float_array([t for t, _ in self.laterals], "lateral t").tolist()
        lats = tuple(Lateral(t, br) for t, (_, br) in zip(ts, self.laterals))
        for t, _ in lats:
            if not (0.0 <= t <= 1.0):
                raise TreeValidationError(f"t out of range: {t!r} not in [0, 1]")
        object.__setattr__(self, "laterals", lats)

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
    """The layout of every JSON file written: byte for byte what
    ``json.dumps(payload, indent=2, sort_keys=True)`` writes, plus a final
    newline.

    The payload holds only what the package builds: str-keyed dicts, lists,
    strs, ints, floats, bools and None.  Any other value, a tuple, a numpy
    scalar or a non-str key among them, is a TypeError naming its type.
    With an indent, ``json.dumps`` runs the json module's pure-Python
    encoder; this builds the same text in fewer steps, and each list of
    floats or of [x, y] float pairs in one ``str.join``.
    """
    return _json_value(payload, "\n") + "\n"


# float reprs that json writes as JavaScript literals
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_value(value, nl: str) -> str:
    """``value`` as ``json.dumps`` writes it on a line that starts with ``nl``
    (a line break and the indent)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    inner = nl + "  "
    if type(value) is list:
        if not value:
            return "[]"
        items = _float_items(value, inner)
        if items is None:
            items = ("," + inner).join([_json_value(v, inner) for v in value])
        return "[" + inner + items + nl + "]"
    if type(value) is dict:
        if not value:
            return "{}"
        # a non-str key fails in sorted() or encode_basestring_ascii()
        items = ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _json_value(value[key], inner)
            for key in sorted(value)
        ])
        return "{" + inner + items + nl + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float_items(items: list, nl: str) -> str | None:
    """The items of a list of floats, or of [x, y] float pairs, joined as
    ``json.dumps`` joins them on lines that start with ``nl``; None for any
    other list, and for one that holds a non-finite float."""
    kinds = set(map(type, items))
    if kinds == {float}:
        text = ("," + nl).join(map(float.__repr__, items))
    elif kinds == {list} and set(map(len, items)) == {2}:
        flat = list(chain.from_iterable(items))
        if set(map(type, flat)) != {float}:
            return None
        inner = nl + "  "
        reprs = map(float.__repr__, flat)
        pairs = map(("," + inner).join, zip(reprs, reprs))
        text = "[" + inner + (nl + "]," + nl + "[" + inner).join(pairs) + nl + "]"
    else:
        return None
    return None if "n" in text else text  # "nan", "inf": json spells them otherwise


def write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text as one piece of ``write_pieces``."""
    write_pieces(path, (text,))


def write_pieces(path: str | Path, pieces: Iterable[str]) -> None:
    """Write the UTF-8 text pieces one after another, creating the missing
    parent directories.

    A regular file, or a path that does not exist yet, is replaced only once
    every piece is written: the pieces go to a temporary sibling file, which
    then takes the path's place with the permissions a plain write would
    leave.  On any exception the sibling is removed and the path keeps its
    bytes.  Any other existing path, a symbolic link, a FIFO or a device, is
    written in place.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with path.open("w", encoding="utf-8") as f:
            f.writelines(pieces)
        return
    mode = _file_mode(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            os.chmod(tmp, mode)
            f.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _file_mode(path: Path) -> int:
    """The permission bits of the file ``open(path, "w")`` leaves: the
    existing file's, else 0o666 less the umask."""
    try:
        return stat.S_IMODE(path.stat().st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


@contextmanager
def naming(where: str | Path):
    """Prefix ``where`` (a file, and an index in it) to the message of a
    ValueError raised inside, keeping its type: the one rule by which every
    loader names its file.  A UnicodeDecodeError, which cannot be rebuilt
    from one message, becomes a plain ValueError."""
    try:
        yield
    except ValueError as exc:
        kind = ValueError if isinstance(exc, UnicodeDecodeError) else type(exc)
        raise kind(f"{where}: {exc}") from None


def read_json(path: str | Path):
    """The parsed content of a UTF-8 JSON file; bytes that are not UTF-8
    JSON are a ValueError, which the loader's ``naming`` prefixes."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from None


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
    """A new float array of ``value``: the one conversion of every number read
    from a file.  A value that holds anything but numbers (a string or a JSON
    object, say) or an integer too large for a float is a ValueError."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
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


@contextmanager
def _root_field(what: str):
    """Prefix ``what`` to a missing key, a wrong type or a rejected value raised
    inside: a TreeValidationError keeps its type, the rest become RootFormatErrors."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        error = TreeValidationError if isinstance(exc, TreeValidationError) else RootFormatError
        raise error(f"{what}: {exc}") from None


def tree_from_dict(data: dict, fallback_id: str = "root") -> RootTree:
    """The tree of a parsed root object.  A lateral's t must be a JSON number
    and its optional ``virtual`` a JSON boolean; each real lateral must start
    on the main curve at its t, within ``ATTACH_TOL_FACTOR * main length``."""
    if not isinstance(data, dict):
        raise RootFormatError("root object must be a JSON object")
    with _root_field("invalid or missing 'main' array"):
        main = Branch(data["main"])
    entries = data.get("laterals", [])
    if not isinstance(entries, list):
        kind = type(entries).__name__
        raise RootFormatError(f"root 'laterals' must be a JSON array, not {kind}")
    laterals = []
    for i, entry in enumerate(entries):
        with _root_field(f"invalid lateral #{i}"):
            t, virtual = entry["t"], entry.get("virtual", False)
            if isinstance(t, bool) or not isinstance(t, (int, float)):
                raise TypeError(f"'t' must be a number, not {t!r}")
            if not isinstance(virtual, bool):
                raise TypeError(f"'virtual' must be true or false, not {virtual!r}")
            laterals.append(Lateral(t, Branch(entry["points"], is_virtual=virtual)))
    with _root_field("invalid root"):
        tree = RootTree(id=str(data.get("id", fallback_id)), main=main, laterals=tuple(laterals))
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
    """Load and validate a single root tree from a JSON file; an invalid
    root is a ValueError that starts with the file name."""
    path = Path(path)
    with naming(path):
        return tree_from_dict(_read_root_json(path), path.stem)


def save_root(tree: RootTree, path: str | Path) -> None:
    """Write a tree as JSON; ``load_root`` reproduces it exactly."""
    write_text(path, json_text(tree_to_dict(tree)))


def save_collection(trees: Iterable[RootTree], path: str | Path) -> None:
    """Write trees as one JSON array, one tree at a time, through
    ``write_pieces``: the bytes of ``json_text([tree_to_dict(t) for t in
    trees])``, which ``load_collection`` reads back."""
    write_pieces(path, _json_array_pieces(tree_to_dict(t) for t in trees))


def _json_array_pieces(values: Iterable) -> Iterator[str]:
    """``json_text(list(values))`` in one piece per value, and a last one."""
    sep = "[\n  "
    for value in values:
        yield sep + _json_value(value, "\n  ")
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def load_collection(path: str | Path) -> list[RootTree]:
    """Load a collection: a directory of root files or one JSON array.

    Directory entries are read in sorted filename order so downstream
    results are reproducible.  An invalid root is a ValueError that starts
    with its file name and, in an array, its index (``roots.json: root #1:
    ...``).
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == ".json")
        if not files:
            raise RootFormatError(f"{path}: no .json root files found")
        return [load_root(p) for p in files]
    with naming(path):
        data = _read_root_json(path)
        if not isinstance(data, list):
            raise RootFormatError("expected a JSON array of root objects")
        trees = []
        for i, d in enumerate(data):
            with naming(f"root #{i}"):
                trees.append(tree_from_dict(d, f"{path.stem}-{i}"))
        return trees


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
    pts = branch.points
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    for _ in range(20):
        mean = seg.mean()
        if len(pts) == n and (mean <= 0 or np.max(np.abs(seg - mean)) / mean < 1e-12):
            break
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        target = np.linspace(0.0, cum[-1], n)
        pts = np.column_stack(
            [np.interp(target, cum, pts[:, 0]), np.interp(target, cum, pts[:, 1])]
        )
        pts[[0, -1]] = branch.points[[0, -1]]
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return branch if pts is branch.points else Branch(pts)


def resample_tree(
    tree: RootTree,
    n_main: int = DEFAULT_MAIN_SAMPLES,
    n_lateral: int = DEFAULT_LATERAL_SAMPLES,
) -> RootTree:
    """Resample main and laterals; virtual laterals pass through unchanged.

    Resampling shifts the main polyline slightly, so each real lateral's t is
    re-derived by projecting its (unchanged) start point onto the new main; a
    coarse main cuts the curve's bends, so that start can lie off it.  A
    branch that resampling collapses to zero length (a closed one at 2
    points) is a TreeValidationError naming the branch and the sample count.
    """
    def resampled(branch: Branch, n: int, name: str) -> Branch:
        try:
            return resample_branch(branch, n)
        except TreeValidationError:  # a valid branch resampled can only lose its length
            raise TreeValidationError(
                f"{name}: resampling to {n} points collapses the branch to zero length "
                "(its first and last points coincide)") from None

    main = resampled(tree.main, n_main, "main")
    laterals = []
    for t, br in tree.laterals:
        if br.is_virtual:
            laterals.append(Lateral(t, br))
        else:
            t_new = project_to_polyline(main.points, br.points[0])
            laterals.append(Lateral(t_new, resampled(br, n_lateral, f"lateral at t={t:g}")))
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
    output has sum(n_i) laterals, stably sorted by t as ``srvf.augment_srvfts``
    sorts by s.  Existing laterals are untouched.
    """
    if not trees:
        raise ValueError("empty collection")
    all_ts = [[t for t, _ in tree.laterals] for tree in trees]
    out = []
    for i, tree in enumerate(trees):
        extra = [Lateral(t, Branch(tree.main.point_at(t)[None, :], is_virtual=True))
                 for j, ts in enumerate(all_ts) if j != i for t in ts]
        laterals = sorted(tree.laterals + tuple(extra), key=lambda lat: lat.t)
        out.append(RootTree(id=tree.id, main=tree.main, laterals=tuple(laterals)))
    return out


def extract_bio_params(tree: RootTree) -> tuple[float, float, float]:
    """(main length, mean lateral length, population std of lateral lengths).

    Virtual laterals are excluded; with no real laterals both statistics
    are 0.
    """
    lengths = [br.length for _, br in tree.real_laterals]
    if not lengths:
        return (tree.main.length, 0.0, 0.0)
    # exactly rounded sums, so the statistics do not depend on lateral order
    n = len(lengths)
    mean = math.fsum(lengths) / n
    return (tree.main.length, mean, math.sqrt(math.fsum((x - mean) ** 2 for x in lengths) / n))
