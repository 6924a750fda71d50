import numpy as np
import pytest
from hypothesis import settings

from treeshape import Branch, Lateral, RootTree

# generated inputs vary widely in size, so examples run without a deadline
settings.register_profile("treeshape", deadline=None)
settings.load_profile("treeshape")


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def straight_tree(tree_id: str = "t", length: float = 1.0, laterals=()) -> RootTree:
    """Vertical main of a given length with horizontal laterals.

    ``laterals`` is a sequence of (t, lateral_length, side) with side +-1.
    """
    main_pts = np.array([[0.0, 0.0], [0.0, -length]])
    main = Branch(main_pts)
    lats = []
    for t, lat_len, side in laterals:
        start = main.point_at(t)
        end = start + np.array([side * lat_len, 0.0])
        lats.append(Lateral(t, Branch(np.vstack([start, end]))))
    return RootTree(id=tree_id, main=main, laterals=tuple(lats))


def smooth_tree(
    rng: np.random.Generator, tree_id: str = "t", n_lat: int = 3, bend: float = 0.25
) -> RootTree:
    """Random smooth main with gently curved laterals; generic fixtures."""
    t = np.linspace(0.0, 1.0, 300)
    a, b = rng.uniform(-bend, bend, 2)
    x = a * np.sin(np.pi * t) + b * np.sin(2 * np.pi * t)
    main = Branch(np.column_stack([x, -t]))
    lats = []
    for _ in range(n_lat):
        s = rng.uniform(0.15, 0.9)
        start = main.point_at(s)
        u = np.linspace(0.0, 1.0, 60)
        lat_len = rng.uniform(0.15, 0.4)
        side = rng.choice([-1.0, 1.0])
        curve = rng.uniform(-0.3, 0.3)
        pts = start + np.column_stack(
            [side * u * lat_len, -0.3 * u * lat_len + curve * u**2 * lat_len]
        )
        lats.append(Lateral(s, Branch(pts)))
    return RootTree(id=tree_id, main=main, laterals=tuple(lats))


def assert_laterals_follow(tree: RootTree, Q) -> None:
    """Lateral k of ``tree``, rebuilt from the SRVF-tree ``Q``, starts where
    the rebuilt main sits at parameter ``Q.s[k]``, and is virtual exactly
    when SRVF lateral k is null."""
    main = tree.main.points
    grid = np.arange(len(main))
    assert tree.n_laterals == Q.n_laterals
    for (_, branch), s, null in zip(tree.laterals, Q.s, Q.null_laterals()):
        at = [np.interp(s * (len(main) - 1), grid, main[:, axis]) for axis in (0, 1)]
        np.testing.assert_allclose(branch.start, at, rtol=0, atol=1e-12)
        assert branch.is_virtual == null


def transform_tree(tree: RootTree, theta: float = 0.0, shift=(0.0, 0.0), scale: float = 1.0) -> RootTree:
    """Rigidly move (and optionally scale) a tree; t values are unchanged."""
    R = rotation_matrix(theta)
    shift = np.asarray(shift, dtype=float)

    def move(br: Branch) -> Branch:
        return Branch(scale * (br.points @ R.T) + shift, is_virtual=br.is_virtual)

    return RootTree(
        id=tree.id + "-moved",
        main=move(tree.main),
        laterals=tuple(Lateral(t, move(br)) for t, br in tree.laterals),
    )


def lateral_at(main: Branch, s: float, length: float, side: float, droop: float, n: int = 60) -> Lateral:
    start = main.point_at(s)
    u = np.linspace(0.0, 1.0, n)
    pts = start + np.column_stack([side * u * length, droop * u * length])
    return Lateral(s, Branch(pts))


def well_posed_pair(rng: np.random.Generator) -> tuple[RootTree, RootTree]:
    """A pair whose optimal correspondence is unambiguous.

    Straight mains; shared laterals differ by bounded slides and mild length
    changes, plus one clean, shape-distinct creation on b.  On such pairs the
    geodesic midpoint is reliably equidistant from both endpoints.
    """
    La, Lb = rng.uniform(0.9, 1.2, 2)
    main_a = Branch(np.array([[0.0, 0.0], [0.0, -La]]))
    main_b = Branch(np.array([[0.0, 0.0], [0.0, -Lb]]))
    n_common = int(rng.integers(1, 4))
    base_s = np.sort(rng.uniform(0.15, 0.75, n_common))
    sides = rng.choice([-1.0, 1.0], n_common)
    lens = rng.uniform(0.2, 0.35, n_common)
    droops = rng.uniform(-0.4, -0.2, n_common)
    lats_a, lats_b = [], []
    for i in range(n_common):
        sa = float(np.clip(base_s[i] + rng.uniform(-0.03, 0.03), 0.05, 0.95))
        sb = float(np.clip(base_s[i] + rng.uniform(-0.03, 0.03), 0.05, 0.95))
        lats_a.append(lateral_at(main_a, sa, lens[i] * rng.uniform(0.9, 1.1), sides[i], droops[i]))
        lats_b.append(lateral_at(main_b, sb, lens[i] * rng.uniform(0.9, 1.1), sides[i], droops[i]))
    lats_b.append(lateral_at(main_b, 0.92, 0.1, float(rng.choice([-1.0, 1.0])), -1.5))
    return (
        RootTree(id="a", main=main_a, laterals=tuple(lats_a)),
        RootTree(id="b", main=main_b, laterals=tuple(lats_b)),
    )


def smooth_branch(rng: np.random.Generator, n_pts: int = 200, length: float = 1.0) -> Branch:
    t = np.linspace(0.0, 1.0, n_pts)
    a, b, c = rng.uniform(-0.3, 0.3, 3)
    x = a * np.sin(np.pi * t) + b * np.sin(2 * np.pi * t)
    y = -t + c * np.sin(3 * np.pi * t) * 0.1
    return Branch(np.column_stack([x, y]) * length)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fake_executor(monkeypatch):
    """Replace the process pool by one that maps in this process and records
    the ``max_workers`` of each executor built; no process is started."""
    import concurrent.futures

    started = []

    class FakeExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    return started
