import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshape import (
    Srvf,
    Weights,
    apply_registration,
    distance,
    distance_sq,
    geodesic,
    pairwise_matrix,
    preshape_dissimilarity_sq,
    register,
)
from treeshape import metric as metric_mod
from treeshape.metric import (
    DistanceMatrix,
    PairOptions,
    interpolate_srvft,
    prepare_pair,
    prepare_trees,
    register_pair,
)
from treeshape.srvf import SrvfTree, augment_srvfts, tree_to_srvft
from treeshape.statistics import prepare_collection
from treeshape.tree_model import (
    Branch,
    augment_collection,
    augment_pair,
    resample_tree,
    tree_from_dict,
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
        q1 = Srvf(np.column_stack([np.ones(n), np.zeros(n)]))
        q2 = Srvf(np.column_stack([np.full(n, np.sqrt(2.0)), np.zeros(n)]))
        a = SrvfTree(q0=q1, laterals=(), anchor=np.zeros(2))
        b = SrvfTree(q0=q2, laterals=(), anchor=np.zeros(2))
        got = preshape_dissimilarity_sq(a, b, Weights(0.02, 1.0, 1.0))
        expected = 0.02 * (np.sqrt(2.0) - 1.0) ** 2
        assert abs(got - expected) < 1e-12
        assert abs(expected - 0.0034315) < 1e-7

    def test_position_term(self):
        n = 40
        q = Srvf(np.ones((n, 2)))
        a = SrvfTree(q0=q, laterals=((q, 0.4),), anchor=np.zeros(2))
        b = SrvfTree(q0=q, laterals=((q, 0.5),), anchor=np.zeros(2))
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
        assert abs(distance(a, b, opts=FAST) ** 2 - distance_sq(a, b, opts=FAST)) < 1e-12


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
        np.testing.assert_allclose(first.q0.samples, Qa.q0.samples, atol=1e-12)
        Qb_reg = apply_registration(Qb, reg)
        np.testing.assert_allclose(last.q0.samples, Qb_reg.q0.samples, atol=1e-12)
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
        endpoint = np.sqrt(path.length_sq)
        assert abs(total - endpoint) / endpoint < 0.01

    def test_interior_steps_are_valid_trees(self, rng):
        a = smooth_tree(rng, "a", 2)
        b = smooth_tree(rng, "b", 0)
        # all interior reconstructions pass RootTree validation implicitly
        trees = geodesic(a, b, steps=7, opts=FAST).trees()
        assert len(trees) == 7

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
            count = 0
            for (qa, _), (qb, _) in zip(Qa.laterals, Qb_reg.laterals):
                if qa.is_null() != qb.is_null():
                    count += 1
            return count

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
    def test_preparation_failure_matches_pairwise_preparation(self, rng, n_main):
        # a curved main resampled to 2 or 3 points moves away from its
        # laterals' bases, so resampling fails and the pairs with either
        # curved tree fail, as when each pair was prepared alone; the pair of
        # straight trees succeeds at both sample counts
        opts = PairOptions(n_main=n_main, n_lateral=20)
        lat = [(0.3, 0.3, 1.0), (0.6, 0.2, -1.0)]
        trees = [
            straight_tree("s0", laterals=lat[:1]),
            smooth_tree(rng, "bad1", 2),
            straight_tree("s2", laterals=lat),
            smooth_tree(rng, "bad3", 1),
        ]
        expected = []
        for i in range(4):
            for j in range(i + 1, 4):
                try:
                    reference_prepare(trees[i], trees[j], opts=opts)
                except Exception as exc:
                    expected.append((i, j, f"{type(exc).__name__}: {exc}"))
        assert len(expected) == 5
        assert len({msg for _, _, msg in expected}) == 2
        dm = pairwise_matrix(trees, opts=opts)
        assert dm.failures == tuple(expected)
        failed = {(i, j) for i, j, _ in expected}
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.isnan(dm.values[i, j]) == ((i, j) in failed)

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
        np.testing.assert_array_equal(Q.q0.samples, R.q0.samples)
        np.testing.assert_array_equal(Q.anchor, R.anchor)
        np.testing.assert_array_equal(Q.s_values(), R.s_values())
        assert len(Q.laterals) == len(R.laterals)
        for (q, _), (r, _) in zip(Q.laterals, R.laterals):
            np.testing.assert_array_equal(q.samples, r.samples)


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


class TestOnePreparationPath:
    @given(data=st.data(), m=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_srvf_augmentation_equals_tree_augmentation(self, data, m):
        trees = [tree_from_dict(data.draw(root_dicts(f"t{i}"))) for i in range(m)]
        want = reference_prepare(*trees)
        assert_srvfts_equal(augment_srvfts(prepare_trees(trees, FAST)), want)
        assert_srvfts_equal(prepare_collection(trees, FAST), want)
        if m == 2:
            assert_srvfts_equal(prepare_pair(*trees, FAST), want)
