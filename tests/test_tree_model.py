import json
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeshape import (
    Branch,
    Lateral,
    RootTree,
    RootFormatError,
    TreeValidationError,
    extract_bio_params,
    load_collection,
    load_root,
    normalize_scale,
    resample_branch,
    resample_tree,
    save_root,
)
from treeshape.tree_model import (ATTACH_TOL_FACTOR, _json_array_pieces, augment_collection,
                                  augment_pair, json_text, polyline_length, save_collection,
                                  tree_from_dict, tree_to_dict, write_pieces, write_text)

import reference_synthesis as ref
from conftest import smooth_branch, smooth_tree, straight_tree


class TestBranch:
    def test_virtual_must_be_single_point(self):
        with pytest.raises(TreeValidationError):
            Branch(np.array([[0.0, 0.0], [1.0, 0.0]]), is_virtual=True)
        Branch(np.array([[0.5, 0.5]]), is_virtual=True)  # ok

    def test_real_needs_two_points_and_length(self):
        with pytest.raises(TreeValidationError):
            Branch(np.array([[0.0, 0.0]]))
        with pytest.raises(TreeValidationError):
            Branch(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(TreeValidationError):
            Branch(np.array([[0.0, np.nan], [1.0, 0.0]]))

    def test_points_are_immutable(self):
        br = Branch(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            br.points[0, 0] = 5.0


class TestRootTreeValidation:
    def test_lateral_t_out_of_range(self):
        main = Branch(np.array([[0.0, 0.0], [0.0, -10.0]]))
        lat = Lateral(1.7, Branch(np.array([[0.0, -5.0], [1.0, -5.0]])))
        with pytest.raises(TreeValidationError, match="t out of range"):
            RootTree(id="x", main=main, laterals=(lat,))

    def test_attachment_tolerance(self):
        main = Branch(np.array([[0.0, 0.0], [0.0, -10.0]]))
        tol = ATTACH_TOL_FACTOR * main.length
        # offset the lateral start by 3x the tolerance
        start = np.array([3.0 * tol, -5.0])
        lat = Lateral(0.5, Branch(np.vstack([start, start + [1.0, 0.0]])))
        tree = RootTree(id="x", main=main, laterals=(lat,))  # trees built in code pass
        with pytest.raises(TreeValidationError, match="starts .* from the main curve"):
            tree_from_dict(tree_to_dict(tree))

    def test_laterals_keep_given_order(self):
        tree = straight_tree(laterals=[(0.8, 0.2, 1), (0.2, 0.2, -1), (0.5, 0.1, 1)])
        assert [t for t, _ in tree.laterals] == [0.8, 0.2, 0.5]
        assert [t for t, _ in tree_from_dict(tree_to_dict(tree)).laterals] == [0.8, 0.2, 0.5]

    def test_main_cannot_be_virtual(self):
        with pytest.raises(TreeValidationError):
            RootTree(id="x", main=Branch(np.array([[0.0, 0.0]]), is_virtual=True))


class TestFileFormat:
    def test_load_example(self, tmp_path):
        payload = {
            "id": "demo",
            "main": [[0, 0], [0, -10]],
            "laterals": [{"t": 0.5, "points": [[0, -5], [2, -6]]}],
        }
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(payload))
        tree = load_root(path)
        assert tree.id == "demo"
        assert tree.n_laterals == 1
        assert tree.laterals[0].t == 0.5

    def test_load_rejects_bad_t(self, tmp_path):
        payload = {
            "id": "bad",
            "main": [[0, 0], [0, -10]],
            "laterals": [{"t": 1.7, "points": [[0, -5], [2, -6]]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TreeValidationError, match="t out of range"):
            load_root(path)

    @pytest.mark.parametrize("main, t, message", [
        ([[0, 0], [0, -10**400]], 0.5, "invalid or missing 'main' array: branch points"),
        ([[0, 0], [0, -10]], 10**400, "invalid root: lateral t"),
    ], ids=["main", "t"])
    def test_load_rejects_an_integer_too_large_for_a_float(self, tmp_path, main, t, message):
        payload = {"main": main, "laterals": [{"t": t, "points": [[0, -5], [1, -5]]}]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(RootFormatError, match="int too large to convert to float") as info:
            load_root(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(RootFormatError):
            load_root(path)

    def test_round_trip(self, rng, tmp_path):
        tree = smooth_tree(rng, "round", n_lat=3)
        path = tmp_path / "round.json"
        save_root(tree, path)
        loaded = load_root(path)
        assert loaded.id == tree.id
        np.testing.assert_allclose(loaded.main.points, tree.main.points, atol=1e-9)
        assert loaded.n_laterals == tree.n_laterals
        for (t1, b1), (t2, b2) in zip(loaded.laterals, tree.laterals):
            assert t1 == t2
            assert b1.is_virtual == b2.is_virtual
            np.testing.assert_allclose(b1.points, b2.points, atol=1e-9)

    def test_round_trip_no_laterals(self, tmp_path):
        tree = straight_tree("bare", 2.0)
        path = tmp_path / "bare.json"
        save_root(tree, path)
        assert json.loads(path.read_text())["laterals"] == []
        assert load_root(path).n_laterals == 0

    def test_round_trip_virtual(self, tmp_path):
        base = straight_tree("v", 1.0)
        other = straight_tree("o", 1.0, laterals=[(0.4, 0.2, 1)])
        aug, _ = augment_pair(base, other)
        path = tmp_path / "virtual.json"
        save_root(aug, path)
        raw = json.loads(path.read_text())
        assert raw["laterals"][0]["virtual"] is True
        assert len(raw["laterals"][0]["points"]) == 1
        loaded = load_root(path)
        assert loaded.laterals[0].branch.is_virtual

    def test_load_collection_dir_and_array(self, rng, tmp_path):
        trees = [smooth_tree(rng, f"c{i}", 2) for i in range(3)]
        d = tmp_path / "trees"
        d.mkdir()
        for t in trees:
            save_root(t, d / f"{t.id}.json")
        arr = tmp_path / "all.json"
        arr.write_text(json.dumps([tree_to_dict(t) for t in trees]))
        assert [t.id for t in load_collection(d)] == ["c0", "c1", "c2"]
        assert [t.id for t in load_collection(arr)] == ["c0", "c1", "c2"]


class TestResample:
    def test_straight_segment(self):
        br = Branch(np.array([[0.0, 0.0], [1.0, 0.0]]))
        out = resample_branch(br, 5)
        np.testing.assert_allclose(out.points[:, 0], [0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(out.points[:, 1], 0.0)

    def test_l_shape_midpoint_is_corner(self):
        br = Branch(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        out = resample_branch(br, 3)
        np.testing.assert_allclose(out.points, [[0, 0], [1, 0], [1, 1]], atol=1e-12)

    def test_idempotent(self, rng):
        br = smooth_branch(rng)
        once = resample_branch(br, 40)
        twice = resample_branch(once, 40)
        np.testing.assert_allclose(twice.points, once.points, atol=1e-9)

    def test_uniform_spacing(self, rng):
        out = resample_branch(smooth_branch(rng), 64)
        seg = np.linalg.norm(np.diff(out.points, axis=0), axis=1)
        assert np.ptp(seg) / seg.mean() < 1e-9

    def test_preserves_length_gentle_curves(self, rng):
        # shallow arcs (curvature * length <= ~0.3); chord shortening stays
        # below 1e-6 relative from n = 50 on
        t = np.linspace(0.0, 1.0, 400)
        for amp in (0.005, 0.01, 0.02):
            br = Branch(np.column_stack([amp * np.sin(np.pi * t), -t]))
            out = resample_branch(br, 50)
            assert abs(out.length - br.length) / br.length < 1e-6

    def test_length_error_shrinks_with_n(self, rng):
        br = smooth_branch(rng)
        err = [abs(resample_branch(br, n).length - br.length) for n in (50, 200)]
        assert err[1] < err[0] / 4  # at least quadratic-ish decay

    def test_rejects_small_n(self):
        br = Branch(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            resample_branch(br, 1)

    def test_closed_branch_collapsed_by_resampling_is_named(self):
        # a closed branch resampled to its two endpoints has zero length: the
        # error names the branch, the resampling and the sample count
        main = Branch(np.array([[0.0, 0.0], [0.0, -10.0]]))
        loop = Branch(np.array([[0.0, -5.0], [1.0, -5.0], [1.0, -6.0], [0.0, -5.0]]))
        tree = RootTree("loop", main, (Lateral(0.5, loop),))
        with pytest.raises(TreeValidationError) as info:
            resample_tree(tree, 50, 2)
        assert str(info.value) == ("lateral at t=0.5: resampling to 2 points collapses the branch "
                                   "to zero length (its first and last points coincide)")
        assert resample_tree(tree, 50, 3).laterals[0].branch.n_points == 3
        closed_main = RootTree("closed", Branch(np.array([[0, 0], [0, -10], [1, -10], [0, 0]])))
        with pytest.raises(TreeValidationError, match="^main: resampling to 2 points collapses"):
            resample_tree(closed_main, 2, 20)

    @given(n=st.integers(min_value=2, max_value=200))
    @settings(max_examples=25)
    def test_endpoints_exact(self, n):
        br = Branch(np.array([[0.2, 0.7], [1.5, -0.3], [2.0, 1.0]]))
        out = resample_branch(br, n)
        assert out.n_points == n
        np.testing.assert_array_equal(out.points[0], br.points[0])
        np.testing.assert_array_equal(out.points[-1], br.points[-1])

    @given(
        rows=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                      min_size=2, max_size=26),
        repeats=st.lists(st.integers(1, 3), min_size=26, max_size=26),
        n=st.integers(2, 80),
        same_count=st.booleans(),
    )
    @settings(max_examples=200)
    def test_matches_the_two_test_reference(self, rows, repeats, n, same_count):
        # one uniformity test per step gives the reference's points to the
        # bit, and the input itself back when it is already uniform; each
        # output is resampled again to reach that early return.  A closed
        # polyline resampled to 2 points has zero length in both.
        pts = np.repeat(np.array(rows), repeats[: len(rows)], axis=0)
        assume(polyline_length(pts) > 0)
        branch = Branch(pts)
        n = len(pts) if same_count else n

        def resampled(fn, branch):
            try:
                return fn(branch, n)
            except TreeValidationError as exc:
                return str(exc)

        for _ in range(2):
            got, want = resampled(resample_branch, branch), resampled(ref.resample_branch, branch)
            if isinstance(want, str):
                assert got == want
                break
            assert (got is branch) == (want is branch)
            assert got.points.tobytes() == want.points.tobytes()
            branch = got


class TestNormalize:
    def test_lengths(self):
        tree = straight_tree("n", 10.0, laterals=[(0.5, 3.0, 1)])
        out = normalize_scale(tree)
        assert abs(out.main.length - 1.0) < 1e-12
        assert abs(out.laterals[0].branch.length - 0.3) < 1e-12
        assert out.laterals[0].t == 0.5

    def test_idempotent(self, rng):
        tree = smooth_tree(rng, n_lat=2)
        once = normalize_scale(tree)
        twice = normalize_scale(once)
        assert abs(once.main.length - 1.0) < 1e-12
        np.testing.assert_allclose(twice.main.points, once.main.points, atol=1e-12)


class TestAugment:
    def test_pair_positions(self):
        a = straight_tree("a", 1.0, laterals=[(0.3, 0.2, 1)])
        b = straight_tree("b", 1.0, laterals=[(0.6, 0.2, -1), (0.9, 0.1, 1)])
        a2, b2 = augment_pair(a, b)
        assert a2.n_laterals == b2.n_laterals == 3
        assert [t for t, _ in a2.laterals] == [0.3, 0.6, 0.9]
        assert [br.is_virtual for _, br in a2.laterals] == [False, True, True]
        assert [t for t, _ in b2.laterals] == [0.3, 0.6, 0.9]
        assert [br.is_virtual for _, br in b2.laterals] == [True, False, False]

    def test_pair_self(self):
        a = straight_tree("a", 1.0, laterals=[(0.3, 0.2, 1), (0.7, 0.1, -1)])
        a2, b2 = augment_pair(a, a)
        assert a2.n_laterals == b2.n_laterals == 4
        assert sorted(t for t, _ in a2.laterals) == [0.3, 0.3, 0.7, 0.7]

    def test_pair_empty_side(self):
        a = straight_tree("a", 1.0)
        b = straight_tree("b", 1.0, laterals=[(0.4, 0.2, 1), (0.8, 0.2, 1)])
        a2, b2 = augment_pair(a, b)
        assert a2.n_laterals == 2
        assert all(br.is_virtual for _, br in a2.laterals)
        assert b2.n_laterals == 2
        assert not any(br.is_virtual for _, br in b2.laterals)

    def test_pair_preserves_existing(self, rng):
        a = smooth_tree(rng, "a", 2)
        b = smooth_tree(rng, "b", 3)
        a2, _ = augment_pair(a, b)
        kept = [l for l in a2.laterals if not l.branch.is_virtual]
        assert len(kept) == 2
        for (t1, b1), (t2, b2) in zip(kept, a.laterals):
            assert t1 == t2
            np.testing.assert_array_equal(b1.points, b2.points)

    def test_virtual_sits_on_main(self):
        a = straight_tree("a", 2.0)
        b = straight_tree("b", 2.0, laterals=[(0.25, 0.3, 1)])
        a2, _ = augment_pair(a, b)
        t, br = a2.laterals[0]
        np.testing.assert_allclose(br.points[0], a.main.point_at(t), atol=1e-12)

    def test_collection_counts(self):
        trees = [
            straight_tree("a", 1.0, laterals=[(0.2, 0.1, 1)]),
            straight_tree("b", 1.0, laterals=[(0.4, 0.1, 1), (0.5, 0.1, -1)]),
            straight_tree("c", 1.0, laterals=[(0.3, 0.1, 1), (0.6, 0.1, -1), (0.9, 0.1, 1)]),
        ]
        out = augment_collection(trees)
        assert [t.n_laterals for t in out] == [6, 6, 6]
        # removing virtuals recovers the originals
        for orig, aug in zip(trees, out):
            real = [l for l in aug.laterals if not l.branch.is_virtual]
            assert len(real) == orig.n_laterals
            for (t1, b1), (t2, b2) in zip(real, orig.laterals):
                assert t1 == t2
                np.testing.assert_array_equal(b1.points, b2.points)

    def test_collection_single_and_bare(self):
        one = [straight_tree("a", 1.0, laterals=[(0.5, 0.2, 1)])]
        assert augment_collection(one)[0].n_laterals == 1
        bare = [straight_tree(i, 1.0) for i in "abc"]
        assert all(t.n_laterals == 0 for t in augment_collection(bare))

    def test_empty_collection(self):
        with pytest.raises(ValueError):
            augment_collection([])


class TestBioParams:
    def test_hand_computed(self):
        tree = straight_tree("p", 10.0, laterals=[(0.3, 2.0, 1), (0.7, 4.0, -1)])
        main_len, mean_len, std_len = extract_bio_params(tree)
        assert abs(main_len - 10.0) < 1e-12
        assert abs(mean_len - 3.0) < 1e-12
        assert abs(std_len - 1.0) < 1e-12  # population std of {2, 4}

    def test_no_laterals(self):
        assert extract_bio_params(straight_tree("p", 5.0)) == (5.0, 0.0, 0.0)

    def test_single_lateral(self):
        tree = straight_tree("p", 8.0, laterals=[(0.5, 5.0, 1)])
        assert extract_bio_params(tree) == (8.0, 5.0, 0.0)

    def test_virtuals_excluded(self):
        a = straight_tree("a", 10.0, laterals=[(0.3, 2.0, 1), (0.7, 4.0, -1)])
        b = straight_tree("b", 10.0, laterals=[(0.5, 9.0, 1)])
        a2, _ = augment_pair(a, b)
        assert extract_bio_params(a2) == extract_bio_params(a)


def test_resample_tree_counts(rng):
    tree = smooth_tree(rng, n_lat=2)
    out = resample_tree(tree, 80, 30)
    assert out.main.n_points == 80
    assert all(br.n_points == 30 for _, br in out.laterals)


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, float("nan"), float("inf"), float("-inf")]),
)
TEXT = st.one_of(
    st.text(), st.sampled_from(["", "é", "ü漢字", "\x00\t\n\x1f\x7f", " \"\\", "\U0001f331"]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), FLOATS, TEXT,
    st.integers(), st.sampled_from([2**64, -(10**40), 0]),
)
ROWS = st.one_of(
    st.lists(FLOATS, max_size=6),
    st.lists(st.lists(FLOATS, min_size=2, max_size=2), max_size=4),
    # a pair with an int inside takes the general path
    st.lists(st.one_of(st.tuples(FLOATS, st.integers()), st.tuples(FLOATS, FLOATS)).map(list),
             min_size=1, max_size=4),
)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, ROWS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=25,
)


class TestJsonText:
    """The one writer gives exactly the bytes of ``json.dumps`` with sorted
    keys and a two-space indent, plus a final newline, for the types the
    package builds, and a TypeError for any other."""

    @settings(max_examples=200)
    @given(payload=PAYLOADS)
    def test_same_text_as_json_dumps(self, payload):
        assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_written_trees(self, rng):
        payload = [tree_to_dict(smooth_tree(rng, f"t{i}", i)) for i in range(3)]
        assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("payload", [
        {1.0, 2.0}, np.arange(3.0), [[1.0, 2.0], {"a": {3}}], {"k": np.zeros(2)},
        {"a": 1.0, 2: 3.0}, [np.int64(3)],
    ], ids=["set", "array", "nested-set", "array-value", "mixed-keys", "numpy-int"])
    def test_rejects_what_json_dumps_rejects(self, payload):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            json_text(payload)

    @pytest.mark.parametrize("payload, name", [
        ((1.0, 2.0), "tuple"), ([[0.5, (1.0, 2.0)]], "tuple"), ({1: 2.0}, "int"),
        ({"a": {3: [1.0]}}, "int"), (np.int64(3), "int64"),
    ], ids=["tuple", "nested-tuple", "int-key", "nested-int-key", "numpy-int-alone"])
    def test_rejects_types_the_package_does_not_build(self, payload, name):
        # json.dumps writes these; the package never builds them
        with pytest.raises(TypeError, match=name):
            json_text(payload)


class TestStreamedWrites:
    """A JSON array of trees is written one tree at a time, to a temporary
    sibling that replaces the target only when complete."""

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_same_bytes_as_json_text(self, rng, tmp_path, count):
        trees = [smooth_tree(rng, f"t{i}", i) for i in range(count)]
        path = tmp_path / "trees.json"
        save_collection(iter(trees), path)
        want = json_text([tree_to_dict(t) for t in trees])
        assert path.read_text(encoding="utf-8") == want
        assert want == json.dumps([tree_to_dict(t) for t in trees], indent=2, sort_keys=True) + "\n"
        if count:
            assert [t.id for t in load_collection(path)] == [t.id for t in trees]

    @settings(max_examples=100)
    @given(values=st.lists(PAYLOADS, max_size=4))
    def test_pieces_join_to_json_text(self, values):
        assert "".join(_json_array_pieces(values)) == json_text(values)

    def test_failure_keeps_the_target(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("earlier\n")

        def pieces():
            yield "[\n"
            raise ValueError("stopped")

        with pytest.raises(ValueError, match="stopped"):
            write_pieces(path, pieces())
        assert path.read_text() == "earlier\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_permissions_of_a_plain_write(self, tmp_path):
        plain, new = tmp_path / "plain.txt", tmp_path / "new.txt"
        plain.write_text("x")
        write_text(new, "x")
        assert new.stat().st_mode == plain.stat().st_mode
        os.chmod(plain, 0o640)
        write_text(plain, "y")
        assert stat.S_IMODE(plain.stat().st_mode) == 0o640 and plain.read_text() == "y"

    def test_symbolic_link_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("old")
        link.symlink_to(target)
        write_text(link, "new")
        assert link.is_symlink() and target.read_text() == "new"

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        write_pieces(fifo, ["a", "b"])
        reader.join(timeout=10)
        assert received == ["ab"]
        assert list(tmp_path.iterdir()) == [fifo]
