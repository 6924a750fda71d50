import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshape import (
    Weights,
    apply_registration,
    distance,
    geodesic,
    pairwise_matrix,
    preshape_dissimilarity_sq,
    register,
)
from treeshape import metric as metric_mod
from treeshape import statistics as statistics_mod
from treeshape.metric import (
    DistanceMatrix,
    PairOptions,
    interpolate_srvft,
    prepare_pair,
    prepare_trees,
    register_pair,
)
from treeshape.cli import main
from treeshape.srvf import SYNTH_CHUNK, SrvfTree, augment_srvfts, srvft_to_tree, tree_to_srvft
from treeshape.statistics import prepare_collection
from treeshape.tree_model import (
    Branch,
    augment_collection,
    augment_pair,
    json_text,
    load_root,
    resample_tree,
    tree_from_dict,
    tree_to_dict,
)

from conftest import smooth_tree, straight_tree, transform_tree, well_posed_pair

FAST = PairOptions(n_main=60, n_lateral=20)


class TestPreshapeDissimilarity:
    def test_zero_for_equal(self, rng):
        Qa, Qb = prepare_pair(smooth_tree(rng, "p", 2), smooth_tree(rng, "q", 2), FAST)
        assert preshape_dissimilarity_sq(Qa, Qa, Weights()) == 0.0

    def test_main_term_closed_form(self):
        # mains (t, 0) vs (2t, 0), no laterals, lambda_m = 0.02
        n = 100
        q1 = np.column_stack([np.ones(n), np.zeros(n)])
        q2 = np.column_stack([np.full(n, np.sqrt(2.0)), np.zeros(n)])
        a = SrvfTree(q0=q1, q_lat=np.zeros((0, 2, 2)), s=[], anchor=np.zeros(2))
        b = SrvfTree(q0=q2, q_lat=np.zeros((0, 2, 2)), s=[], anchor=np.zeros(2))
        got = preshape_dissimilarity_sq(a, b, Weights(0.02, 1.0, 1.0))
        expected = 0.02 * (np.sqrt(2.0) - 1.0) ** 2
        assert abs(got - expected) < 1e-12
        assert abs(expected - 0.0034315) < 1e-7

    def test_position_term(self):
        n = 40
        q = np.ones((n, 2))
        a = SrvfTree(q0=q, q_lat=[q], s=[0.4], anchor=np.zeros(2))
        b = SrvfTree(q0=q, q_lat=[q], s=[0.5], anchor=np.zeros(2))
        got = preshape_dissimilarity_sq(a, b, Weights(1.0, 1.0, 1.0))
        assert abs(got - 0.01) < 1e-12

    def test_mismatched_counts(self, rng):
        a = prepare_pair(smooth_tree(rng, "a", 1), smooth_tree(rng, "b", 1), FAST)[0]
        b = prepare_pair(smooth_tree(rng, "c", 2), smooth_tree(rng, "d", 2), FAST)[0]
        with pytest.raises(ValueError):
            preshape_dissimilarity_sq(a, b, Weights())


class TestDistance:
    def test_self_distance_zero(self, rng):
        tree = smooth_tree(rng, "d", 2)
        assert distance(tree, tree, opts=FAST) < 1e-7

    def test_invariance_rigid_motion(self, rng):
        for _ in range(5):
            tree = smooth_tree(rng, "d", int(rng.integers(0, 4)))
            moved = transform_tree(
                tree, theta=rng.uniform(-np.pi, np.pi), shift=rng.uniform(-3, 3, 2)
            )
            assert distance(tree, moved, opts=FAST) < 1e-4

    def test_scale_invariance_with_normalize(self, rng):
        opts = PairOptions(n_main=60, n_lateral=20, normalize=True)
        for f in (0.5, 1.37, 2.0):
            tree = smooth_tree(rng, "d", 2)
            scaled = transform_tree(tree, scale=f)
            assert distance(tree, scaled, opts=opts) < 1e-4

    def test_approximate_symmetry(self, rng):
        rel = []
        for _ in range(6):
            a = smooth_tree(rng, "a", int(rng.integers(1, 4)))
            b = smooth_tree(rng, "b", int(rng.integers(1, 4)))
            dab = distance(a, b, opts=FAST)
            dba = distance(b, a, opts=FAST)
            rel.append(abs(dab - dba) / max(dab, dba))
        assert max(rel) < 0.05

    def test_sqrt_relation(self, rng):
        a = smooth_tree(rng, "a", 2)
        b = smooth_tree(rng, "b", 1)
        cost = register_pair(a, b, opts=FAST)[2].cost
        assert abs(distance(a, b, opts=FAST) ** 2 - cost) < 1e-12


seeds = st.integers(0, 2**32 - 1)
angles = st.floats(-np.pi, np.pi)
shifts = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


class TestMetricProperties:
    """The metric invariants, on generated trees.  ``well_posed_pair`` gives
    pairs whose optimal correspondence is unambiguous; ``smooth_tree`` gives
    curved mains, on which the descent can end in a local optimum."""

    @settings(max_examples=40)
    @given(seed=seeds, n_lat=st.integers(0, 4))
    def test_self_distance_zero(self, seed, n_lat):
        tree = smooth_tree(np.random.default_rng(seed), "d", n_lat)
        assert distance(tree, tree, opts=FAST) < 1e-12

    @settings(max_examples=40)
    @given(seed=seeds, theta=angles, shift=shifts)
    def test_rigid_motion_invariance(self, seed, theta, shift):
        a, b = well_posed_pair(np.random.default_rng(seed))
        d = distance(a, b, opts=FAST)
        moved = distance(a, transform_tree(b, theta=theta, shift=shift), opts=FAST)
        assert abs(moved - d) <= 1e-9 * d

    @settings(max_examples=40)
    @given(seed=seeds, shift=shifts)
    def test_translation_invariance_on_curved_pairs(self, seed, shift):
        rng = np.random.default_rng(seed)
        a, b = smooth_tree(rng, "a", 2), smooth_tree(rng, "b", 3)
        d = distance(a, b, opts=FAST)
        assert abs(distance(a, transform_tree(b, shift=shift), opts=FAST) - d) <= 1e-9 * d

    @settings(max_examples=40)
    @given(seed=seeds)
    def test_symmetry(self, seed):
        # pairwise_matrix registers only i < j and mirrors the result
        a, b = well_posed_pair(np.random.default_rng(seed))
        dab, dba = distance(a, b, opts=FAST), distance(b, a, opts=FAST)
        assert abs(dab - dba) <= 1e-9 * max(dab, dba)

    @settings(max_examples=100)
    @given(seed=seeds, theta=angles, shift=shifts)
    def test_rigid_motion_invariance_on_curved_pairs(self, seed, theta, shift):
        # register starts from a main-only Procrustes fit or its half turn,
        # both of which turn with b, so b's pose cannot move the local optimum
        rng = np.random.default_rng(seed)
        a = smooth_tree(rng, "a", int(rng.integers(0, 4)))
        b = smooth_tree(rng, "b", int(rng.integers(0, 4)))
        d = distance(a, b, opts=FAST)
        moved = distance(a, transform_tree(b, theta=theta, shift=shift), opts=FAST)
        assert abs(moved - d) <= 1e-9 * d

    def test_rotation_invariance_on_curved_pairs(self):
        rng = np.random.default_rng(24)
        a = smooth_tree(rng, "a", int(rng.integers(0, 4)))
        b = smooth_tree(rng, "b", int(rng.integers(0, 4)))
        d = distance(a, b, opts=FAST)  # 0.903; 0.594 with b turned by -2.883
        assert abs(distance(a, transform_tree(b, theta=-2.883), opts=FAST) - d) <= 1e-9 * d


def test_repeated_consecutive_points_change_nothing(rng):
    # resampling by arc length steps over zero-length segments
    a, c = smooth_tree(rng, "a", 2), smooth_tree(rng, "c", 3)

    def repeated(points, at):
        pts = np.asarray(points)
        return np.insert(pts, at, pts[at], axis=0).tolist()

    d = tree_to_dict(a)
    d["main"] = repeated(d["main"], [0, 10, -1])
    d["laterals"][0]["points"] = repeated(d["laterals"][0]["points"], [0, 5, -1])
    b = tree_from_dict(d)
    assert len(b.main.points) == len(a.main.points) + 3
    assert distance(b, c) == distance(a, c)
    assert distance(c, b) == distance(c, a)


def test_two_samples_per_branch_on_straight_trees():
    # straight branches are resampled exactly, so n = 2 gives the n = 3 result
    a = straight_tree("a", 1.0, laterals=[(0.3, 0.3, 1.0)])
    b = straight_tree("b", 1.5, laterals=[(0.6, 0.2, -1.0)])
    d2 = distance(a, b, opts=PairOptions(n_main=2, n_lateral=2))
    d3 = distance(a, b, opts=PairOptions(n_main=3, n_lateral=3))
    assert d2 == pytest.approx(d3, abs=1e-12)


class TestGeodesic:
    def test_endpoints_reproduce_inputs(self, rng):
        a = smooth_tree(rng, "a", 2)
        b = smooth_tree(rng, "b", 1)
        path = geodesic(a, b, steps=5, opts=FAST)
        Qa, Qb, reg = register_pair(a, b, Weights(), FAST)
        first, last = path.steps[0], path.steps[-1]
        np.testing.assert_allclose(first.q0, Qa.q0, atol=1e-12)
        Qb_reg = apply_registration(Qb, reg)
        np.testing.assert_allclose(last.q0, Qb_reg.q0, atol=1e-12)
        trees = path.trees()
        assert len(trees) == 5
        # reconstructed source matches the original up to round-trip error
        from treeshape import resample_tree

        a_res = resample_tree(a, FAST.n_main, FAST.n_lateral)
        np.testing.assert_allclose(trees[0].main.points, a_res.main.points, atol=5e-3)

    def test_midpoint_main_length(self):
        a = straight_tree("a", 1.0)
        b = straight_tree("b", 4.0)
        path = geodesic(a, b, steps=3)
        mid = path.trees()[1]
        assert abs(mid.main.length - 2.25) < 0.01

    def test_midpoint_equidistance(self, rng):
        # the contract holds on pairs whose optimal correspondence is
        # unambiguous; strong warps or match-vs-create ties shift the
        # reconstructed midpoint's attachment positions between the two
        # re-registrations
        opts = PairOptions()  # reference discretization
        for _ in range(4):
            a, b = well_posed_pair(rng)
            mid = geodesic(a, b, steps=3, opts=opts).trees()[1]
            d1 = distance(a, mid, opts=opts)
            d2 = distance(mid, b, opts=opts)
            assert abs(d1 - d2) / max(d1, d2) < 0.02

    def test_path_length_matches_distance(self, rng):
        a = smooth_tree(rng, "a", 1)
        b = smooth_tree(rng, "b", 2)
        path = geodesic(a, b, steps=9, opts=FAST)
        w = Weights()
        total = sum(
            np.sqrt(preshape_dissimilarity_sq(p, q, w))
            for p, q in zip(path.steps[:-1], path.steps[1:])
        )
        endpoint = np.sqrt(path.registration.cost)
        assert abs(total - endpoint) / endpoint < 0.01

    def test_interior_steps_are_valid_trees(self, rng):
        a = smooth_tree(rng, "a", 2)
        b = smooth_tree(rng, "b", 0)
        # all interior reconstructions pass RootTree validation implicitly
        trees = geodesic(a, b, steps=7, opts=FAST).trees()
        assert len(trees) == 7

    def test_trees_equal_per_step_reconstruction(self, rng):
        # srvft_to_tree integrates SYNTH_CHUNK steps per stack
        path = geodesic(smooth_tree(rng, "a", 2), smooth_tree(rng, "b", 1),
                        steps=2 * SYNTH_CHUNK + 3, opts=FAST)
        want = [json_text(tree_to_dict(srvft_to_tree(Q, f"step-{i:02d}")))
                for i, Q in enumerate(path.steps)]
        assert [json_text(tree_to_dict(tree)) for tree in path.trees()] == want

    def test_rejects_too_few_steps(self, rng):
        with pytest.raises(ValueError):
            geodesic(smooth_tree(rng, "a", 1), smooth_tree(rng, "b", 1), steps=1)


class TestWeightEffects:
    def test_lambda_p_monotone_at_fixed_alignment(self, rng):
        a = smooth_tree(rng, "a", 2)
        b = smooth_tree(rng, "b", 2)
        Qa, Qb = prepare_pair(a, b, FAST)
        reg = register(Qa, Qb, Weights())
        aligned = apply_registration(Qb, reg)
        costs = [
            preshape_dissimilarity_sq(Qa, aligned, Weights(0.02, 1.0, lp))
            for lp in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(c2 >= c1 - 1e-15 for c1, c2 in zip(costs, costs[1:]))

    def test_position_weight_flips_matching_to_creation(self):
        # one lateral far apart in attachment position: heavy position
        # weight must prefer deleting + creating over sliding
        a = straight_tree("a", 1.0, laterals=[(0.2, 0.3, 1)])
        b = straight_tree("b", 1.0, laterals=[(0.8, 0.3, 1)])

        def count_real_virtual(w):
            Qa, Qb, reg = register_pair(a, b, w, FAST)
            Qb_reg = apply_registration(Qb, reg)
            return int(np.sum(Qa.null_laterals() != Qb_reg.null_laterals()))

        sliding = count_real_virtual(Weights(0.01, 1.0, 0.01))
        creating = count_real_virtual(Weights(0.01, 0.00001, 1.0))
        assert creating > sliding
        assert sliding == 0 and creating == 2


class TestPairwiseMatrix:
    def test_duplicates_and_symmetry(self, rng):
        t0 = smooth_tree(rng, "t0", 1)
        trees = [t0, smooth_tree(rng, "t1", 2), transform_tree(t0)]
        dm = pairwise_matrix(trees, opts=FAST)
        assert dm.values.shape == (3, 3)
        np.testing.assert_array_equal(dm.values, dm.values.T)
        np.testing.assert_array_equal(np.diag(dm.values), 0.0)
        assert dm.values[0, 2] < 1e-6  # duplicate tree
        assert not dm.failures

    def test_serial_equals_parallel(self, rng):
        trees = [smooth_tree(rng, f"t{i}", int(rng.integers(0, 3))) for i in range(4)]
        serial = pairwise_matrix(trees, opts=FAST, n_jobs=1)
        parallel = pairwise_matrix(trees, opts=FAST, n_jobs=2)
        np.testing.assert_array_equal(serial.values, parallel.values)
        # every entry is exactly what distance() gives for the pair
        for i in range(4):
            for j in range(i + 1, 4):
                assert serial.values[i, j] == distance(trees[i], trees[j], opts=FAST)

    def test_pool_starts_no_more_workers_than_pairs(self, rng, fake_executor):
        # 4 trees at 64 workers: one pool of 6 workers, one per pair
        trees = [smooth_tree(rng, f"t{i}", i) for i in range(4)]
        dm = pairwise_matrix(trees, opts=FAST, n_jobs=64)
        assert fake_executor == [6]
        np.testing.assert_array_equal(dm.values, pairwise_matrix(trees, opts=FAST).values)

    def test_one_pair_runs_without_a_pool(self, rng, fake_executor):
        pairwise_matrix([smooth_tree(rng, "a", 1), smooth_tree(rng, "b", 2)], opts=FAST, n_jobs=2)
        assert fake_executor == []

    def test_prepares_each_tree_once(self, rng, monkeypatch):
        calls = []

        def counting(tree, *args):
            calls.append(tree.id)
            return resample_tree(tree, *args)

        monkeypatch.setattr(metric_mod, "resample_tree", counting)
        trees = [smooth_tree(rng, f"t{i}", i) for i in range(4)]
        pairwise_matrix(trees, opts=FAST, n_jobs=1)
        assert sorted(calls) == ["t0", "t1", "t2", "t3"]

    @pytest.mark.parametrize("n_main", [2, 3])
    def test_coarse_main_records_no_failure(self, rng, n_main):
        # a curved main resampled to 2 or 3 points moves away from its
        # laterals' bases; the resampled tree is still prepared and registered
        opts = PairOptions(n_main=n_main, n_lateral=20)
        lat = [(0.3, 0.3, 1.0), (0.6, 0.2, -1.0)]
        trees = [
            straight_tree("s0", laterals=lat[:1]),
            smooth_tree(rng, "c1", 2),
            straight_tree("s2", laterals=lat),
            smooth_tree(rng, "c3", 1),
        ]
        dm = pairwise_matrix(trees, opts=opts)
        assert dm.failures == ()
        for i in range(4):
            for j in range(i + 1, 4):
                assert dm.values[i, j] == distance(trees[i], trees[j], opts=opts)

    def test_preparation_error_raises(self, rng):
        trees = [smooth_tree(rng, f"t{i}", 1) for i in range(3)]
        with pytest.raises(ValueError, match="need n >= 2 sample points"):
            pairwise_matrix(trees, opts=PairOptions(n_main=1, n_lateral=20))

    def test_needs_two(self, rng):
        with pytest.raises(ValueError):
            pairwise_matrix([smooth_tree(rng, "one", 1)])

    def test_csv_round_trip(self, rng, tmp_path):
        trees = [smooth_tree(rng, f"t{i}", 1) for i in range(3)]
        dm = pairwise_matrix(trees, opts=FAST)
        path = tmp_path / "m.csv"
        dm.save(path)
        loaded = DistanceMatrix.load(path)
        assert loaded.labels == dm.labels
        np.testing.assert_array_equal(loaded.values, dm.values)

    def test_json_round_trip(self, rng, tmp_path):
        trees = [smooth_tree(rng, f"t{i}", 1) for i in range(3)]
        dm = pairwise_matrix(trees, opts=FAST)
        path = tmp_path / "m.json"
        dm.save(path)
        loaded = DistanceMatrix.load(path)
        assert loaded.labels == dm.labels
        np.testing.assert_array_equal(loaded.values, dm.values)

    def test_asymmetric_rejected(self):
        vals = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            DistanceMatrix(labels=("a", "b"), values=vals)


def test_interpolate_requires_alignment(rng):
    Qa, _ = prepare_pair(smooth_tree(rng, "a", 1), smooth_tree(rng, "b", 1), FAST)
    Qc, _ = prepare_pair(smooth_tree(rng, "c", 2), smooth_tree(rng, "d", 2), FAST)
    with pytest.raises(ValueError):
        interpolate_srvft(Qa, Qc, 0.5)


def test_pairwise_failure_recorded(rng, monkeypatch):
    # lateral counts 1, 2, 1: only the pair (t0, t2) registers 2 laterals
    trees = [smooth_tree(rng, f"t{i}", n) for i, n in enumerate([1, 2, 1])]
    real_register = metric_mod.register

    def flaky(a, b, w, **kwargs):
        if a.n_laterals == 2:
            raise ValueError("forced failure")
        return real_register(a, b, w, **kwargs)

    monkeypatch.setattr(metric_mod, "register", flaky)
    dm = metric_mod.pairwise_matrix(trees, opts=FAST)
    assert len(dm.failures) == 1
    i, j, msg = dm.failures[0]
    assert {dm.labels[i], dm.labels[j]} == {"t0", "t2"}
    assert "forced failure" in msg
    assert np.isnan(dm.values[i, j]) and np.isnan(dm.values[j, i])
    assert np.isfinite(dm.values[0, 1])


# ---------------------------------------------------------------------------
# one preparation path


def reference_prepare(*trees, opts=FAST):
    """Tree-level preparation: resample, add virtual laterals, then SRVF."""
    trees = [resample_tree(t, opts.n_main, opts.n_lateral) for t in trees]
    augmented = augment_pair(*trees) if len(trees) == 2 else augment_collection(trees)
    return [tree_to_srvft(t, opts.n_lateral) for t in augmented]


def assert_srvfts_equal(got, want):
    assert len(got) == len(want)
    for Q, R in zip(got, want):
        np.testing.assert_array_equal(Q.q0, R.q0)
        np.testing.assert_array_equal(Q.anchor, R.anchor)
        np.testing.assert_array_equal(Q.s, R.s)
        assert Q.q_lat.shape == R.q_lat.shape
        np.testing.assert_array_equal(Q.q_lat, R.q_lat)


# shared attachment positions make s ties across trees; virtual laterals keep
# their t through resampling, so they tie exactly
TIED_T = [0.2, 0.35, 0.5, 0.8]


@st.composite
def root_dicts(draw, tree_id):
    """A tree in file form, real and virtual laterals, on one of two mains."""
    bend = draw(st.sampled_from([0.0, 0.2]))
    t = np.linspace(0.0, 1.0, 40)
    main = Branch(np.column_stack([bend * np.sin(np.pi * t), -t]))
    laterals = []
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(TIED_T) | st.floats(0.05, 0.95))
        start = main.point_at(at)
        if draw(st.booleans()):
            laterals.append({"t": at, "points": [start.tolist()], "virtual": True})
        else:
            end = start + draw(st.sampled_from([[0.3, -0.1], [-0.2, -0.2]]))
            laterals.append({"t": at, "points": [start.tolist(), end.tolist()]})
    return {"id": tree_id, "main": main.points.tolist(), "laterals": laterals}


class TestLateralOrder:
    def test_reversed_root_files_change_nothing(self, rng, tmp_path):
        # augmentation is the one place that orders laterals, so the order
        # a root file lists them in reaches no distance
        trees = [smooth_tree(rng, f"t{i}", 3) for i in range(3)]
        for folder, step in (("given", 1), ("reversed", -1)):
            (tmp_path / folder).mkdir()
            for tree in trees:
                data = tree_to_dict(tree)
                data["laterals"] = data["laterals"][::step]
                (tmp_path / folder / f"{tree.id}.json").write_text(json_text(data))
        given, back = ([load_root(tmp_path / folder / f"{t.id}.json") for t in trees]
                       for folder in ("given", "reversed"))
        assert distance(given[0], given[1], opts=FAST) == distance(back[0], back[1], opts=FAST)
        for folder in ("given", "reversed"):
            assert main(["matrix", str(tmp_path / folder), "--n-main", "60", "--n-lat", "20",
                         "--out", str(tmp_path / f"{folder}.csv")]) == 0
        assert (tmp_path / "given.csv").read_bytes() == (tmp_path / "reversed.csv").read_bytes()


class TestOnePreparationPath:
    def test_statistics_prepares_by_the_metric_path(self):
        assert statistics_mod.prepare_collection is metric_mod.prepare_collection

    @given(data=st.data(), m=st.integers(1, 4))
    @settings(max_examples=60)
    def test_srvf_augmentation_equals_tree_augmentation(self, data, m):
        trees = [tree_from_dict(data.draw(root_dicts(f"t{i}"))) for i in range(m)]
        want = reference_prepare(*trees)
        assert_srvfts_equal(augment_srvfts(prepare_trees(trees, FAST)), want)
        assert_srvfts_equal(prepare_collection(trees, FAST), want)
        if m == 2:
            assert_srvfts_equal(prepare_pair(*trees, FAST), want)
