import numpy as np
import pytest

from treeshape import (
    Branch,
    Srvf,
    SrvfTree,
    Weights,
    augment_pair,
    from_srvf,
    l2_dist_sq,
    resample_tree,
    srvft_to_tree,
    to_srvf,
    tree_to_srvft,
)
from treeshape.srvf import EPS_NULL, trapezoid_weights

from conftest import rotation_matrix, smooth_branch, smooth_tree, straight_tree


def unit_line(n=100):
    t = np.linspace(0.0, 1.0, n)
    return Branch(np.column_stack([t, np.zeros(n)]))


class TestToSrvf:
    def test_unit_speed_line(self):
        q = to_srvf(unit_line(), 100)
        np.testing.assert_allclose(q.samples[:, 0], 1.0, atol=1e-9)
        np.testing.assert_allclose(q.samples[:, 1], 0.0, atol=1e-12)

    def test_double_speed_line(self):
        t = np.linspace(0.0, 1.0, 100)
        br = Branch(np.column_stack([2 * t, np.zeros(100)]))
        q = to_srvf(br, 100)
        np.testing.assert_allclose(q.samples[:, 0], np.sqrt(2.0), atol=1e-9)

    def test_two_samples(self):
        # at n = 2 both one-sided differences are the segment's slope, the
        # same as the endpoint samples at n = 3
        line = Branch(np.array([[0.0, 0.0], [1.2, -1.6]]))
        np.testing.assert_allclose(
            to_srvf(line, 2).samples, to_srvf(line, 3).samples[[0, -1]], rtol=1e-15)

    def test_virtual_is_zero(self):
        br = Branch(np.array([[0.3, -0.7]]), is_virtual=True)
        q = to_srvf(br, 50)
        assert q.n == 50
        np.testing.assert_array_equal(q.samples, 0.0)

    def test_translation_invariance_exact(self):
        # equal-length dyadic zigzag + dyadic offset: all float sums are
        # exact, so the transform is bit-identical after translation
        steps = np.tile([[0.375, 0.25], [0.375, -0.25]], (20, 1))
        pts = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
        br = Branch(pts)
        q1 = to_srvf(br, len(pts))
        q2 = to_srvf(Branch(pts + np.array([5.25, -3.5])), len(pts))
        np.testing.assert_array_equal(q1.samples, q2.samples)

    def test_translation_invariance_general(self, rng):
        br = smooth_branch(rng)
        q1 = to_srvf(br, 80)
        q2 = to_srvf(Branch(br.points + np.array([3.7, -1.2])), 80)
        np.testing.assert_allclose(q1.samples, q2.samples, atol=1e-11)

    def test_rotation_equivariance(self, rng):
        br = smooth_branch(rng)
        R = rotation_matrix(0.83)
        q1 = to_srvf(Branch(br.points @ R.T), 80)
        q2 = to_srvf(br, 80)
        np.testing.assert_allclose(q1.samples, q2.samples @ R.T, atol=1e-9)

    def test_length_identity(self, rng):
        # integral of |q|^2 equals the arc length
        for _ in range(5):
            br = smooth_branch(rng)
            q = to_srvf(br, 100)
            assert abs(q.norm_sq - br.length) / br.length < 1e-3


class TestFromSrvf:
    def test_constant_unit(self):
        q = Srvf(np.column_stack([np.ones(50), np.zeros(50)]))
        br = from_srvf(q, np.zeros(2))
        np.testing.assert_allclose(br.points[-1], [1.0, 0.0], atol=1e-12)

    def test_constant_sqrt2(self):
        q = Srvf(np.column_stack([np.full(50, np.sqrt(2.0)), np.zeros(50)]))
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
        Q = tree_to_srvft(resample_tree(straight_tree("a", 1.0)))
        assert Q.n_laterals == 0

    def test_virtual_lateral_zero_srvf(self):
        a = straight_tree("a", 1.0)
        b = straight_tree("b", 1.0, laterals=[(0.5, 0.2, 1)])
        a2, _ = augment_pair(a, b)
        Q = tree_to_srvft(resample_tree(a2), 30)
        q, s = Q.laterals[0]
        assert s == 0.5
        np.testing.assert_array_equal(q.samples, 0.0)

    def test_round_trip(self, rng):
        tree = resample_tree(smooth_tree(rng, "rt", 3))
        Q = tree_to_srvft(tree)
        back = srvft_to_tree(Q, tree_id="rt")
        np.testing.assert_allclose(back.main.points, tree.main.points, atol=2e-3)
        assert back.n_laterals == tree.n_laterals
        for (t1, b1), (t2, b2) in zip(back.laterals, tree.laterals):
            assert abs(t1 - t2) < 1e-3
            np.testing.assert_allclose(b1.points, b2.points, atol=5e-3)

    def test_zero_srvf_becomes_virtual(self):
        tree = resample_tree(straight_tree("a", 1.0))
        q0 = tree_to_srvft(tree).q0
        Q = SrvfTree(
            q0=q0,
            laterals=(
                (Srvf(np.zeros((30, 2))), 0.5),
                (Srvf(np.full((30, 2), EPS_NULL / 100)), 0.25),
            ),
            anchor=tree.main.start,
        )
        back = srvft_to_tree(Q)
        assert all(br.is_virtual for _, br in back.laterals)
        # virtual point sits on the reconstructed main
        t, br = back.laterals[0]
        np.testing.assert_allclose(br.points[0], back.main.point_at(t), atol=1e-9)

    def test_anchor_respected(self, rng):
        tree = resample_tree(smooth_tree(rng, "anch", 1))
        Q = tree_to_srvft(tree)
        np.testing.assert_array_equal(Q.anchor, tree.main.points[0])
        back = srvft_to_tree(Q)
        np.testing.assert_allclose(back.main.points[0], tree.main.points[0], atol=1e-12)


class TestL2:
    def test_zero_for_equal(self, rng):
        q = to_srvf(smooth_branch(rng), 60)
        assert l2_dist_sq(q, q) == 0.0

    def test_constants_closed_form(self):
        n = 100
        q1 = Srvf(np.column_stack([np.ones(n), np.zeros(n)]))
        q2 = Srvf(np.column_stack([np.full(n, np.sqrt(2.0)), np.zeros(n)]))
        expected = (np.sqrt(2.0) - 1.0) ** 2  # constant integrand
        assert abs(l2_dist_sq(q1, q2) - expected) < 1e-12
        assert abs(expected - 0.171573) < 1e-6

    def test_quadratic_scaling(self, rng):
        q1 = to_srvf(smooth_branch(rng), 60)
        q2 = to_srvf(smooth_branch(rng), 60)
        base = l2_dist_sq(q1, q2)
        c = 3.7
        scaled = l2_dist_sq(Srvf(c * q1.samples), Srvf(c * q2.samples))
        assert abs(scaled - c * c * base) < 1e-9 * max(scaled, 1.0)

    def test_mismatched_counts(self, rng):
        q1 = to_srvf(smooth_branch(rng), 60)
        q2 = to_srvf(smooth_branch(rng), 61)
        with pytest.raises(ValueError):
            l2_dist_sq(q1, q2)

    def test_symmetry(self, rng):
        q1 = to_srvf(smooth_branch(rng), 60)
        q2 = to_srvf(smooth_branch(rng), 60)
        assert l2_dist_sq(q1, q2) == l2_dist_sq(q2, q1)


class TestWeights:
    def test_defaults(self):
        w = Weights()
        assert w.as_tuple() == (0.02, 1.0, 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Weights(-0.1, 1.0, 1.0)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            Weights(0.0, 0.0, 0.0)


def test_trapezoid_weights_sum_to_one():
    for n in (2, 5, 100):
        assert abs(trapezoid_weights(n).sum() - 1.0) < 1e-12


def test_debug_dump(rng, tmp_path):
    import json

    Q = tree_to_srvft(resample_tree(smooth_tree(rng, "dump", 2)))
    path = tmp_path / "srvft.json"
    Q.dump_debug_json(path)
    data = json.loads(path.read_text())
    assert len(data["laterals"]) == 2
    assert len(data["q0"]) == Q.q0.n
