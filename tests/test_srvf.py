import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeshape import (
    Branch,
    SrvfTree,
    Weights,
    augment_pair,
    from_srvf,
    resample_tree,
    srvft_to_tree,
    to_srvf,
    tree_to_srvft,
)
from treeshape.srvf import EPS_NULL, _sq_dists, _sq_norms, trapezoid_weights
from treeshape.statistics import exp_map, flatten_srvft, log_map, unflatten_srvft
from treeshape.metric import interpolate_srvft
from treeshape.tree_model import DEFAULT_LATERAL_SAMPLES, json_text, tree_from_dict, tree_to_dict

from conftest import rotation_matrix, smooth_branch, smooth_tree, straight_tree


def unit_line(n=100):
    t = np.linspace(0.0, 1.0, n)
    return Branch(np.column_stack([t, np.zeros(n)]))


class TestToSrvf:
    def test_unit_speed_line(self):
        q = to_srvf(unit_line(), 100)
        np.testing.assert_allclose(q[:, 0], 1.0, atol=1e-9)
        np.testing.assert_allclose(q[:, 1], 0.0, atol=1e-12)

    def test_double_speed_line(self):
        t = np.linspace(0.0, 1.0, 100)
        br = Branch(np.column_stack([2 * t, np.zeros(100)]))
        q = to_srvf(br, 100)
        np.testing.assert_allclose(q[:, 0], np.sqrt(2.0), atol=1e-9)

    def test_two_samples(self):
        # at n = 2 both one-sided differences are the segment's slope, the
        # same as the endpoint samples at n = 3
        line = Branch(np.array([[0.0, 0.0], [1.2, -1.6]]))
        np.testing.assert_allclose(
            to_srvf(line, 2), to_srvf(line, 3)[[0, -1]], rtol=1e-15)

    def test_virtual_is_zero(self):
        br = Branch(np.array([[0.3, -0.7]]), is_virtual=True)
        q = to_srvf(br, 50)
        assert q.shape == (50, 2)
        np.testing.assert_array_equal(q, 0.0)

    def test_translation_invariance_exact(self):
        # equal-length dyadic zigzag + dyadic offset: all float sums are
        # exact, so the transform is bit-identical after translation
        steps = np.tile([[0.375, 0.25], [0.375, -0.25]], (20, 1))
        pts = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
        br = Branch(pts)
        q1 = to_srvf(br, len(pts))
        q2 = to_srvf(Branch(pts + np.array([5.25, -3.5])), len(pts))
        np.testing.assert_array_equal(q1, q2)

    def test_translation_invariance_general(self, rng):
        br = smooth_branch(rng)
        q1 = to_srvf(br, 80)
        q2 = to_srvf(Branch(br.points + np.array([3.7, -1.2])), 80)
        np.testing.assert_allclose(q1, q2, atol=1e-11)

    def test_rotation_equivariance(self, rng):
        br = smooth_branch(rng)
        R = rotation_matrix(0.83)
        q1 = to_srvf(Branch(br.points @ R.T), 80)
        q2 = to_srvf(br, 80)
        np.testing.assert_allclose(q1, q2 @ R.T, atol=1e-9)

    def test_length_identity(self, rng):
        # integral of |q|^2 equals the arc length
        for _ in range(5):
            br = smooth_branch(rng)
            q = to_srvf(br, 100)
            assert abs(_sq_norms(q)[0] - br.length) / br.length < 1e-3


class TestFromSrvf:
    def test_constant_unit(self):
        q = np.column_stack([np.ones(50), np.zeros(50)])
        br = from_srvf(q, np.zeros(2))
        np.testing.assert_allclose(br.points[-1], [1.0, 0.0], atol=1e-12)

    def test_constant_sqrt2(self):
        q = np.column_stack([np.full(50, np.sqrt(2.0)), np.zeros(50)])
        br = from_srvf(q, np.zeros(2))
        np.testing.assert_allclose(br.points[-1], [2.0, 0.0], atol=1e-12)

    def test_half_circle_round_trip(self):
        t = np.linspace(0.0, 1.0, 100)
        arc = Branch(np.column_stack([np.cos(np.pi * t), np.sin(np.pi * t)]))
        rebuilt = from_srvf(to_srvf(arc, 100), arc.points[0])
        # compare against the analytic arc at matched arc-length positions
        err = np.max(np.linalg.norm(rebuilt.points - arc.points, axis=1))
        assert err < 1e-2

    def test_round_trip_error_order(self, rng):
        br = smooth_branch(rng)
        errs = []
        for n in (50, 100, 200):
            target = Branch(
                np.column_stack(
                    [
                        np.interp(np.linspace(0, 1, n), np.linspace(0, 1, br.n_points), br.points[:, 0]),
                        np.interp(np.linspace(0, 1, n), np.linspace(0, 1, br.n_points), br.points[:, 1]),
                    ]
                )
            )
            from treeshape import resample_branch

            fine = resample_branch(br, n)
            rebuilt = from_srvf(to_srvf(fine, n), fine.points[0])
            errs.append(np.max(np.linalg.norm(rebuilt.points - fine.points, axis=1)))
        # order >= 1 in 1/n
        assert errs[2] < errs[0] / 2


class TestTreeConversion:
    def test_no_laterals(self):
        Q = tree_to_srvft(resample_tree(straight_tree("a", 1.0)), DEFAULT_LATERAL_SAMPLES)
        assert Q.n_laterals == 0

    def test_virtual_lateral_zero_srvf(self):
        a = straight_tree("a", 1.0)
        b = straight_tree("b", 1.0, laterals=[(0.5, 0.2, 1)])
        a2, _ = augment_pair(a, b)
        Q = tree_to_srvft(resample_tree(a2), 30)
        assert Q.s.tolist() == [0.5]
        assert Q.q_lat.shape == (1, 30, 2)
        np.testing.assert_array_equal(Q.q_lat, 0.0)

    def test_round_trip(self, rng):
        tree = resample_tree(smooth_tree(rng, "rt", 3))
        Q = tree_to_srvft(tree, DEFAULT_LATERAL_SAMPLES)
        back = srvft_to_tree(Q, tree_id="rt")
        np.testing.assert_allclose(back.main.points, tree.main.points, atol=2e-3)
        assert back.n_laterals == tree.n_laterals
        for (t1, b1), (t2, b2) in zip(back.laterals, tree.laterals):
            assert abs(t1 - t2) < 1e-3
            np.testing.assert_allclose(b1.points, b2.points, atol=5e-3)

    def test_zero_srvf_becomes_virtual(self):
        tree = resample_tree(straight_tree("a", 1.0))
        q0 = tree_to_srvft(tree, DEFAULT_LATERAL_SAMPLES).q0
        Q = SrvfTree(
            q0=q0,
            q_lat=[np.zeros((30, 2)), np.full((30, 2), EPS_NULL / 100)],
            s=[0.5, 0.25],
            anchor=tree.main.start,
        )
        back = srvft_to_tree(Q)
        assert all(br.is_virtual for _, br in back.laterals)
        # virtual point sits on the reconstructed main
        t, br = back.laterals[0]
        np.testing.assert_allclose(br.points[0], back.main.point_at(t), atol=1e-9)

    def test_lateral_that_rounds_to_its_start_becomes_virtual(self):
        # an SRVF norm just above EPS_NULL far from the origin: every
        # integration step is below the coordinates' rounding unit
        tree = resample_tree(straight_tree("a", 1.0))
        Q = SrvfTree(
            q0=tree_to_srvft(tree, DEFAULT_LATERAL_SAMPLES).q0,
            q_lat=[np.full((30, 2), 2.0 * EPS_NULL)],
            s=[0.5],
            anchor=[1e3, 1e3],
        )
        assert not Q.null_laterals()[0]
        assert srvft_to_tree(Q).laterals[0].branch.is_virtual

    def test_anchor_respected(self, rng):
        tree = resample_tree(smooth_tree(rng, "anch", 1))
        Q = tree_to_srvft(tree, DEFAULT_LATERAL_SAMPLES)
        np.testing.assert_array_equal(Q.anchor, tree.main.points[0])
        back = srvft_to_tree(Q)
        np.testing.assert_allclose(back.main.points[0], tree.main.points[0], atol=1e-12)


class TestL2:
    """``_sq_dists``, the trapezoid-rule L2 distance ``register`` uses."""

    def test_zero_for_equal(self, rng):
        q = to_srvf(smooth_branch(rng), 60)
        assert _sq_dists(q, q) == [0.0]

    def test_constants_closed_form(self):
        n = 100
        q1 = np.column_stack([np.ones(n), np.zeros(n)])
        q2 = np.column_stack([np.full(n, np.sqrt(2.0)), np.zeros(n)])
        expected = (np.sqrt(2.0) - 1.0) ** 2  # constant integrand
        assert abs(_sq_dists(q1, q2)[0] - expected) < 1e-12
        assert abs(expected - 0.171573) < 1e-6

    def test_quadratic_scaling(self, rng):
        q1 = to_srvf(smooth_branch(rng), 60)
        q2 = to_srvf(smooth_branch(rng), 60)
        (base,) = _sq_dists(q1, q2)
        c = 3.7
        (scaled,) = _sq_dists(c * q1, c * q2)
        assert abs(scaled - c * c * base) < 1e-9 * max(scaled, 1.0)

    def test_mismatched_counts(self, rng):
        q1 = to_srvf(smooth_branch(rng), 60)
        q2 = to_srvf(smooth_branch(rng), 61)
        with pytest.raises(ValueError):
            _sq_dists(q1, q2)

    def test_symmetry(self, rng):
        q1 = to_srvf(smooth_branch(rng), 60)
        q2 = to_srvf(smooth_branch(rng), 60)
        assert _sq_dists(q1, q2) == _sq_dists(q2, q1)

    def test_one_distance_per_stacked_pair(self, rng):
        qa = np.stack([to_srvf(smooth_branch(rng), 30) for _ in range(3)])
        qb = np.stack([to_srvf(smooth_branch(rng), 30) for _ in range(3)])
        assert _sq_dists(qa, qb) == [_sq_dists(x, y)[0] for x, y in zip(qa, qb)]


class TestWeights:
    def test_defaults(self):
        w = Weights()
        assert w.as_tuple() == (0.02, 1.0, 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Weights(-0.1, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        for weights in ((bad, 1.0, 1.0), (0.02, bad, 1.0), (0.02, 1.0, bad)):
            with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
                Weights(*weights)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            Weights(0.0, 0.0, 0.0)


def test_trapezoid_weights_sum_to_one():
    for n in (2, 5, 100):
        assert abs(trapezoid_weights(n).sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# the array representation


@st.composite
def srvft_pairs(draw):
    """Two SRVF-trees of one layout: 0-6 laterals, some of them zero or
    attached at s = 0 or 1, on grids of 2-30 samples."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k, N = draw(st.integers(2, 30)), draw(st.integers(2, 30)), draw(st.integers(0, 6))

    def tree() -> SrvfTree:
        q_lat = rng.normal(size=(N, k, 2))
        q_lat[rng.uniform(size=N) < 0.3] = 0.0
        s = rng.uniform(size=N)
        ends = rng.uniform(size=N) < 0.2
        s[ends] = rng.choice([0.0, 1.0], size=int(ends.sum()))
        return SrvfTree(rng.normal(size=(n, 2)), q_lat, s, rng.normal(size=2))

    return tree(), tree()


def assert_same_tree(P: SrvfTree, Q: SrvfTree) -> None:
    for name in ("q0", "q_lat", "s", "anchor"):
        got, want = getattr(P, name), getattr(Q, name)
        assert got.shape == want.shape, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def corrupted(Q: SrvfTree, how: str, rng: np.random.Generator) -> dict:
    """Q's constructor arguments, broken in one way."""
    args = {"q0": Q.q0.copy(), "q_lat": Q.q_lat.copy(), "s": Q.s.copy(), "anchor": Q.anchor}
    N, k = Q.q_lat.shape[:2]
    bad = rng.choice([np.nan, np.inf, -np.inf])
    if how == "non-finite main":
        args["q0"][rng.integers(len(Q.q0)), rng.integers(2)] = bad
    elif how == "non-finite lateral":
        args["q_lat"][rng.integers(N), rng.integers(k), rng.integers(2)] = bad
    elif how == "main of one sample":
        args["q0"] = Q.q0[:1]
    elif how == "main in 3-d":
        args["q0"] = np.column_stack([Q.q0, Q.q0[:, 0]])
    elif how == "laterals of one sample":
        args["q_lat"] = Q.q_lat[:, :1]
    elif how == "laterals without the point axis":
        args["q_lat"] = Q.q_lat[..., 0]
    elif how == "anchor in 3-d":
        args["anchor"] = np.append(Q.anchor, 0.0)
    elif how == "s out of range":
        args["s"][rng.integers(N)] = rng.choice([-1e-12, 1.0 + 1e-12, -np.inf, np.inf, np.nan])
    elif how == "ragged laterals":
        args["q_lat"] = [*Q.q_lat[:-1], np.zeros((k + 1, 2))]
    elif how == "one position too many":
        args["s"] = np.append(Q.s, 0.5)
    elif how == "one position too few":
        args["s"] = Q.s[:-1]
    return args


NEEDS_LATERALS = {
    "non-finite lateral": 1, "laterals of one sample": 1, "laterals without the point axis": 1,
    "s out of range": 1, "ragged laterals": 2, "one position too few": 1,
}


class TestSrvfTreeArrays:
    @settings(max_examples=60)
    @given(pair=srvft_pairs())
    def test_round_trips_are_exact(self, pair):
        Q, _ = pair
        assert_same_tree(unflatten_srvft(flatten_srvft(Q), Q), Q)
        assert_same_tree(SrvfTree.from_dict(Q.to_dict()), Q)
        assert_same_tree(SrvfTree.from_dict(json.loads(json_text(Q.to_dict()))), Q)

    @settings(max_examples=60)
    @given(pair=srvft_pairs(), w=st.sampled_from([Weights(), Weights(1.0, 1.0, 1.0),
                                                  Weights(0.02, 0.5, 2.0)]))
    def test_exp_inverts_log(self, pair, w):
        mu, x = pair
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            back = exp_map(mu, log_map(mu, x, w), w)
        assume(not caught)  # no attachment position was clamped
        for name in ("q0", "q_lat", "s"):
            np.testing.assert_allclose(getattr(back, name), getattr(x, name), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(back.anchor, mu.anchor)

    @settings(max_examples=60)
    @given(pair=srvft_pairs(), how=st.sampled_from([
        "non-finite main", "non-finite lateral", "main of one sample", "main in 3-d",
        "laterals of one sample", "laterals without the point axis", "anchor in 3-d",
        "s out of range", "ragged laterals", "one position too many", "one position too few",
    ]), seed=st.integers(0, 2**32 - 1))
    def test_constructor_rejects(self, pair, how, seed):
        Q, _ = pair
        assume(Q.n_laterals >= NEEDS_LATERALS.get(how, 0))
        with pytest.raises(ValueError):
            SrvfTree(**corrupted(Q, how, np.random.default_rng(seed)))

    @settings(max_examples=60)
    @given(pair=srvft_pairs(), r=st.floats(0.0, 1.0))
    def test_reconstructed_trees_pass_the_loader(self, pair, r):
        # mean, sample and modes write reconstructed trees that users read
        # back; interior geodesic points have mains that are not uniform speed
        tree = srvft_to_tree(interpolate_srvft(*pair, r), tree_id="x")
        back = tree_from_dict(tree_to_dict(tree))
        assert back.lateral_ts().tolist() == tree.lateral_ts().tolist()

    def test_no_laterals_is_one_shape(self):
        for q_lat in ([], np.zeros((0, 30, 2)), np.zeros(0)):
            Q = SrvfTree(np.ones((4, 2)), q_lat, [], [0.0, 0.0])
            assert Q.q_lat.shape == (0, 2, 2)
            assert flatten_srvft(Q).shape == (8,)

    def test_arrays_are_read_only(self):
        Q = SrvfTree(np.ones((4, 2)), np.ones((1, 3, 2)), [0.5], [0.0, 0.0])
        for arr in (Q.q0, Q.q_lat, Q.s, Q.anchor):
            with pytest.raises(ValueError):
                arr[0] = 1.0
