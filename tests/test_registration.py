import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from treeshape import (
    Gamma,
    Registration,
    Weights,
    apply_registration,
    match_laterals,
    optimal_reparam_main,
    optimal_rotation,
    preshape_dissimilarity_sq,
    register,
    registration,
    resample_tree,
    tree_to_srvft,
)
from treeshape.metric import interpolate_srvft, prepare_pair
from treeshape.registration import (
    _DP_STENCIL,
    _dp_edge_cost,
    _dp_plan,
    _reparam_dp,
    _warp,
    lateral_cost_matrix,
)

from treeshape.srvf import SrvfTree, _sq_dists, _sq_norms, srvft_to_tree
from treeshape.tree_model import tree_to_dict

import reference_registration as ref
from conftest import rotation_matrix, smooth_tree, straight_tree, transform_tree as move_tree


def brute_force_assignment_cost(cost: np.ndarray) -> float:
    """Exhaustive-permutation oracle for the assignment problem."""
    n = len(cost)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[k, perm[k]] for k in range(n)))
    return best


def srvft_of(tree, n_main=60, n_lat=20):
    return tree_to_srvft(resample_tree(tree, n_main, n_lat), n_lat)


class TestGamma:
    def test_identity(self):
        g = Gamma.identity(50)
        assert g.is_identity()
        np.testing.assert_allclose(g.derivative(), 1.0, atol=1e-12)

    def test_invalid_endpoints(self):
        with pytest.raises(ValueError):
            Gamma(np.linspace(0.1, 1.0, 10))

    def test_must_be_monotone(self):
        vals = np.linspace(0, 1, 10)
        vals[4], vals[5] = vals[5], vals[4]
        with pytest.raises(ValueError):
            Gamma(vals)

    def test_inverse(self):
        grid = np.linspace(0, 1, 200)
        g = Gamma(grid**2)
        # between knots the piecewise-linear inverse carries O(h^2) error
        np.testing.assert_allclose(g.inverse_at(0.25), 0.5, atol=1e-4)
        np.testing.assert_allclose(g.inverse_at(g.values), grid, atol=1e-9)


class TestWarp:
    def test_identity_warp_is_noop(self, rng):
        tree = smooth_tree(rng, "w", 2)
        q = srvft_of(tree).q0
        out = _warp(q, Gamma.identity(len(q)))
        np.testing.assert_array_equal(out, q)

    def test_warp_preserves_norm_approximately(self, rng):
        # reparameterization is a norm isometry in the continuum
        tree = smooth_tree(rng, "w", 0)
        q = srvft_of(tree, n_main=200).q0
        grid = np.linspace(0, 1, len(q))
        g = Gamma(grid + 0.08 * np.sin(np.pi * grid))
        norm_sq, warped_sq = _sq_norms(np.stack([q, _warp(q, g)]))
        assert abs(warped_sq - norm_sq) / norm_sq < 5e-3


class TestOptimalRotation:
    def test_recovers_rotation(self, rng):
        tree = smooth_tree(rng, "r", 3)
        theta = np.deg2rad(30.0)
        Qa, Qb = prepare_pair(tree, move_tree(tree, theta=theta))
        perm = match_laterals(Qa.q_lat, Qa.s, Qb.q_lat, Qb.s, Weights())
        R = optimal_rotation(Qa.q0, Qa.q_lat, Qb.q0, Qb.q_lat[perm], Weights())
        angle = np.arctan2(R[1, 0], R[0, 0])
        assert abs(angle - (-theta)) < 1e-6

    def test_identity_for_equal(self, rng):
        Q = srvft_of(smooth_tree(rng, "r", 2))
        R = optimal_rotation(Q.q0, Q.q_lat, Q.q0, Q.q_lat, Weights())
        np.testing.assert_allclose(R, np.eye(2), atol=1e-9)

    def test_straight_line_closed_form(self):
        # constant SRVFs: the optimum maps b's direction onto a's exactly
        a = straight_tree("a", 1.0)
        theta = 0.7
        Qa, Qb = prepare_pair(a, move_tree(a, theta=theta))
        R = optimal_rotation(Qa.q0, Qa.q_lat, Qb.q0, Qb.q_lat, Weights())
        angle = np.arctan2(R[1, 0], R[0, 0])
        assert abs(angle - (-theta)) < 1e-12

    def test_degenerate_warns(self):
        n = 30
        Q = SrvfTree(np.zeros((n, 2)), np.zeros((0, 2, 2)), np.zeros(0), np.zeros(2))
        with pytest.warns(UserWarning, match="degenerate"):
            R = optimal_rotation(Q.q0, Q.q_lat, Q.q0, Q.q_lat, Weights())
        np.testing.assert_array_equal(R, np.eye(2))

    def test_det_plus_one(self, rng):
        # a reflected tree must still produce a proper rotation
        tree = smooth_tree(rng, "r", 2)
        flipped = move_tree(tree)
        from treeshape import Branch, Lateral, RootTree

        mirror = RootTree(
            id="m",
            main=Branch(tree.main.points * np.array([-1.0, 1.0])),
            laterals=tuple(
                Lateral(t, Branch(br.points * np.array([-1.0, 1.0])))
                for t, br in tree.laterals
            ),
        )
        Qa, Qb = prepare_pair(tree, mirror)
        R = optimal_rotation(Qa.q0, Qa.q_lat, Qb.q0, Qb.q_lat, Weights())
        assert np.linalg.det(R) > 0.999999


class TestReparamDP:
    def test_identity_for_equal(self, rng):
        q = srvft_of(smooth_tree(rng, "g", 0), n_main=100).q0
        g = optimal_reparam_main(q, q)
        assert np.max(np.abs(g.values - g.grid)) < 2.0 / len(q)

    def test_speed_profile_fixture(self):
        # unit-speed line vs the same line traversed with speed 2t.
        # The minimizer of |q1 - (q2 o g) sqrt(g')|^2 solves 2 g g' = 1,
        # i.e. g(t) = sqrt(t); the discrete path tracks it except within a
        # boundary layer at t = 0 where the true slope exceeds the stencil.
        n = 100
        grid = np.linspace(0, 1, n)
        q_unit = np.column_stack([np.ones(n), np.zeros(n)])
        q_2t = np.column_stack([np.sqrt(2 * grid), np.zeros(n)])
        g = optimal_reparam_main(q_unit, q_2t)
        err = np.abs(g.values - np.sqrt(grid))
        assert err.max() < 3.0 / n
        assert err[5:].max() < 2.0 / n

    def test_speed_profile_swapped(self):
        # swapped arguments: warp the unit-speed line onto the 2t-speed one,
        # optimum gamma' = 2t, i.e. gamma(t) = t^2 (bounded slopes, so the
        # grid tolerance holds everywhere)
        n = 100
        grid = np.linspace(0, 1, n)
        q_unit = np.column_stack([np.ones(n), np.zeros(n)])
        q_2t = np.column_stack([np.sqrt(2 * grid), np.zeros(n)])
        g = optimal_reparam_main(q_2t, q_unit)
        assert np.max(np.abs(g.values - grid**2)) < 2.0 / n

    def test_dp_energy_never_exceeds_identity(self, rng):
        # the identity path is inside the search space
        for _ in range(100):
            qa = rng.normal(size=(40, 2))
            qb = rng.normal(size=(40, 2))
            _, energy = _reparam_dp(qa, qb)
            identity_energy = _sq_dists(qa, qb)[0]
            assert energy <= identity_energy + 1e-12

    def test_realized_energy_improves_on_smooth_pairs(self, rng):
        for k in range(10):
            a = srvft_of(smooth_tree(rng, "a", 0), n_main=80).q0
            b = srvft_of(smooth_tree(rng, "b", 0), n_main=80).q0
            g = optimal_reparam_main(a, b)
            assert _sq_dists(a, _warp(b, g))[0] <= _sq_dists(a, b)[0] + 1e-9

    def test_mismatched_counts(self):
        with pytest.raises(ValueError):
            optimal_reparam_main(np.ones((10, 2)), np.ones((11, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples(self, bad):
        # without the check the DP energy is not finite and the identity
        # warp would come back as if it were optimal
        q = np.ones((10, 2))
        q_bad = q.copy()
        q_bad[3, 1] = bad
        for qa, qb in ((q, q_bad), (q_bad, q)):
            with pytest.raises(ValueError, match="finite"):
                optimal_reparam_main(qa, qb)


def reference_edge_cost(qa, qb, di, dj):
    """Per-node loop form of the edge-cost blocks (one n x n term per node)."""
    n = len(qa)
    h = 1.0 / (n - 1)
    slope = dj / di
    root = math.sqrt(slope)
    na = np.einsum("ic,ic->i", qa, qa)
    block = np.zeros((n - di, n - dj))
    for k in range(di + 1):
        wk = 0.5 * h if k in (0, di) else h
        x = np.arange(n - dj) + k * slope
        i0 = np.minimum(x.astype(int), n - 2)
        fr = x - i0
        u = qb[i0] * (1.0 - fr)[:, None] + qb[i0 + 1] * fr[:, None]
        a_part = qa[k : n - di + k]
        cross = a_part @ u.T
        nb = np.einsum("jc,jc->j", u, u)
        block += wk * (
            na[k : n - di + k][:, None] + slope * nb[None, :] - 2.0 * root * cross
        )
    np.clip(block, 0.0, None, out=block)
    return block


def reference_reparam_dp(qa, qb, edge_cost=reference_edge_cost):
    """Loop form of the DP: strict-< updates, stencil step by stencil step."""
    n = len(qa)
    stencil = [(di, dj) for di, dj in _DP_STENCIL if di < n and dj < n]
    blocks = [edge_cost(qa, qb, di, dj) for di, dj in stencil]
    E = np.full((n, n), np.inf)
    E[0, 0] = 0.0
    bt = np.full((n, n), -1, dtype=np.int16)
    for i in range(1, n):
        row = E[i]
        for t, (di, dj) in enumerate(stencil):
            if di > i:
                continue
            cand = E[i - di, : n - dj] + blocks[t][i - di]
            cur = row[dj:]
            better = cand < cur
            if np.any(better):
                cur[better] = cand[better]
                bt[i, dj:][better] = t
    path_i, path_j = [n - 1], [n - 1]
    i = j = n - 1
    while i > 0 or j > 0:
        di, dj = stencil[bt[i, j]]
        i -= di
        j -= dj
        path_i.append(i)
        path_j.append(j)
    values = np.interp(np.arange(n), path_i[::-1], path_j[::-1]) / (n - 1)
    return values, float(E[n - 1, n - 1])


def planned_blocks(qa, qb):
    """Edge-cost function reading each step's block from the end-node cost
    array: the edge from (r, c) is costs[t, r + di, c + dj], and the columns
    j < dj, which have no edge, hold +inf."""
    n = len(qa)
    plan = _dp_plan(n)
    costs = _dp_edge_cost(qa, qb)
    assert costs.shape == (len(plan.stencil), n, n)

    def block(_qa, _qb, di, dj):
        ends = costs[plan.stencil.index((di, dj)), di:]
        assert np.all(ends[:, :dj] == np.inf)
        return ends[:, dj:]

    return block


def random_pair(seed, n):
    """Generic pair: white noise or a smooth random curve pair."""
    gen = np.random.default_rng(seed)
    if seed % 2:
        return gen.normal(size=(n, 2)), gen.normal(size=(n, 2))
    t = np.linspace(0.0, 1.0, n)[:, None]
    c = gen.normal(size=(2, 4))
    qa = np.hstack([np.cos(c[0, 0] + c[0, 1] * t), np.sin(c[0, 2] * t * t)]) * (1 + c[0, 3] ** 2)
    qb = np.hstack([np.cos(c[1, 0] + c[1, 1] * t), np.sin(c[1, 2] * t)]) * (1 + c[1, 3] ** 2)
    return qa, qb


class TestReparamDPMatchesLoop:
    """The vectorized DP against the loop form it replaced."""

    @given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_random_pairs(self, n, seed):
        qa, qb = random_pair(seed, n)
        values, energy = _reparam_dp(qa, qb)
        ref_values, ref_energy = reference_reparam_dp(qa, qb)
        np.testing.assert_array_equal(values, ref_values)
        assert abs(energy - ref_energy) <= 1e-12 * max(1.0, ref_energy)

    @given(n=st.integers(2, 30), data=st.data())
    @settings(max_examples=60)
    def test_recursion_bit_identical_on_shared_blocks(self, n, data):
        # with the same edge costs, argmin over the gathered candidates is the
        # strict-< loop exactly, ties included (hypothesis favours repeated
        # values such as 0 and 1, which make many paths tie)
        elems = st.floats(-4.0, 4.0, allow_nan=False, width=32)
        qa = data.draw(arrays(np.float64, (n, 2), elements=elems))
        qb = data.draw(arrays(np.float64, (n, 2), elements=elems))
        values, energy = _reparam_dp(qa, qb)
        ref_values, ref_energy = reference_reparam_dp(qa, qb, edge_cost=planned_blocks(qa, qb))
        np.testing.assert_array_equal(values, ref_values)
        assert energy == ref_energy

    @pytest.mark.parametrize("n", [50, 100])
    def test_bench_grid_smooth_pairs(self, n, rng):
        # main-root SRVFs of smooth trees, b turned, at the grid sizes of the
        # atlas (50) and matrix (100) runs
        for _ in range(3):
            qa = srvft_of(smooth_tree(rng, "a", 0), n_main=n).q0
            qb = srvft_of(smooth_tree(rng, "b", 0), n_main=n).q0 @ rotation_matrix(0.3).T
            values, energy = _reparam_dp(qa, qb)
            ref_values, ref_energy = reference_reparam_dp(qa, qb)
            np.testing.assert_array_equal(values, ref_values)
            assert abs(energy - ref_energy) <= 1e-12 * max(1.0, ref_energy)
            shared = reference_reparam_dp(qa, qb, edge_cost=planned_blocks(qa, qb))
            np.testing.assert_array_equal(values, shared[0])
            assert energy == shared[1]

    @pytest.mark.parametrize("n", [2, 3, 4, 11, 40])
    @pytest.mark.parametrize("case", ["zero", "constant", "identical"])
    def test_tie_cases(self, n, case):
        gen = np.random.default_rng(n)
        q = gen.normal(size=(n, 2))
        qa, qb = {
            "zero": (np.zeros((n, 2)), np.zeros((n, 2))),
            "constant": (np.full((n, 2), 0.7), np.full((n, 2), 0.7)),
            "identical": (q, q.copy()),
        }[case]
        values, energy = _reparam_dp(qa, qb)
        ref_values, ref_energy = reference_reparam_dp(qa, qb)
        np.testing.assert_array_equal(values, ref_values)
        assert abs(energy - ref_energy) <= 1e-12 * max(1.0, ref_energy)

    @pytest.mark.parametrize("n", [2, 3, 11, 40])
    def test_all_paths_tied(self, n):
        # zero against a constant curve: every path costs |c|^2 exactly, so
        # the winner is decided by last-bit rounding of the edge costs, which
        # the matrix product orders differently; the energy still agrees
        qa, qb = np.zeros((n, 2)), np.ones((n, 2))
        values, energy = _reparam_dp(qa, qb)
        _, ref_energy = reference_reparam_dp(qa, qb)
        assert abs(energy - ref_energy) <= 1e-12 * max(1.0, ref_energy)
        assert energy == pytest.approx(2.0, abs=1e-12)
        assert values[0] == 0.0 and values[-1] == 1.0

    @pytest.mark.parametrize("n", [3, 20, 100])
    def test_edge_cost_blocks(self, n):
        for seed in range(4):
            qa, qb = random_pair(seed, n)
            block_of = planned_blocks(qa, qb)
            for di, dj in _DP_STENCIL:
                if di < n and dj < n:
                    block = block_of(qa, qb, di, dj)
                    ref = reference_edge_cost(qa, qb, di, dj)
                    assert block.shape == ref.shape
                    np.testing.assert_allclose(block, ref, rtol=0, atol=1e-14 * max(1.0, ref.max()))


class TestMatchLaterals:
    def test_matches_brute_force(self, rng):
        w = Weights(0.02, 1.0, 1.0)
        for _ in range(50):
            n_a = int(rng.integers(1, 4))
            n_b = int(rng.integers(1, 4))
            if n_a + n_b > 6:
                continue
            a = smooth_tree(rng, "a", n_a)
            b = smooth_tree(rng, "b", n_b)
            Qa, Qb = prepare_pair(a, b)
            cost = lateral_cost_matrix(Qa.q_lat, Qa.s, Qb.q_lat, Qb.s, w)
            perm = match_laterals(Qa.q_lat, Qa.s, Qb.q_lat, Qb.s, w)
            hungarian = sum(cost[k, perm[k]] for k in range(len(perm)))
            assert abs(hungarian - brute_force_assignment_cost(cost)) < 1e-12

    def test_identical_trees_zero_cost(self, rng):
        Q = srvft_of(smooth_tree(rng, "m", 3))
        w = Weights()
        perm = match_laterals(Q.q_lat, Q.s, Q.q_lat, Q.s, w)
        cost = lateral_cost_matrix(Q.q_lat, Q.s, Q.q_lat, Q.s, w)
        assert sum(cost[k, perm[k]] for k in range(len(perm))) < 1e-12

    def test_order_preserving_for_close_positions(self):
        # identical lateral shapes at s {0.2, 0.8} vs {0.25, 0.75}: any
        # positive position weight prefers the order-preserving match
        a = straight_tree("a", 1.0, laterals=[(0.2, 0.3, 1), (0.8, 0.3, 1)])
        b = straight_tree("b", 1.0, laterals=[(0.25, 0.3, 1), (0.75, 0.3, 1)])
        Qa = srvft_of(a)
        Qb = srvft_of(b)
        perm = match_laterals(Qa.q_lat, Qa.s, Qb.q_lat, Qb.s, Weights(0.02, 1.0, 1.0))
        np.testing.assert_array_equal(perm, [0, 1])

    def test_mismatched_stacks(self, rng):
        Qa = srvft_of(smooth_tree(rng, "a", 2))
        Qb = srvft_of(smooth_tree(rng, "b", 3))
        with pytest.raises(ValueError, match="lateral stacks differ"):
            match_laterals(Qa.q_lat, Qa.s, Qb.q_lat, Qb.s, Weights())


class TestApplyRegistration:
    def test_identity_noop(self, rng):
        Q = srvft_of(smooth_tree(rng, "ap", 2))
        reg = Registration(np.eye(2), Gamma.identity(len(Q.q0)), np.arange(Q.n_laterals), 0.0)
        out = apply_registration(Q, reg)
        np.testing.assert_array_equal(out.q0, Q.q0)
        np.testing.assert_array_equal(out.anchor, Q.anchor)
        np.testing.assert_array_equal(out.s, Q.s)
        np.testing.assert_array_equal(out.q_lat, Q.q_lat)

    def test_rotation_round_trip(self, rng):
        Q = srvft_of(smooth_tree(rng, "ap", 2))
        theta = 0.9
        fwd = Registration(rotation_matrix(theta), Gamma.identity(len(Q.q0)),
                           np.arange(Q.n_laterals), 0.0)
        back = Registration(rotation_matrix(-theta), Gamma.identity(len(Q.q0)),
                            np.arange(Q.n_laterals), 0.0)
        out = apply_registration(apply_registration(Q, fwd), back)
        np.testing.assert_allclose(out.q0, Q.q0, atol=1e-9)
        np.testing.assert_allclose(out.anchor, Q.anchor, atol=1e-9)

    def test_rotation_preserves_norms(self, rng):
        Q = srvft_of(smooth_tree(rng, "ap", 3))
        reg = Registration(rotation_matrix(1.3), Gamma.identity(len(Q.q0)),
                           np.arange(Q.n_laterals), 0.0)
        out = apply_registration(Q, reg)
        assert abs(_sq_norms(out.q0)[0] - _sq_norms(Q.q0)[0]) < 1e-12
        for n1, n2 in zip(_sq_norms(out.q_lat), _sq_norms(Q.q_lat)):
            assert abs(n1 - n2) < 1e-12

    def test_gamma_remaps_attachment(self):
        # gamma(t) = t^2 moves the lateral attached at s=0.25 to
        # gamma^-1(0.25) = 0.5
        a = straight_tree("a", 1.0, laterals=[(0.25, 0.2, 1)])
        Q = srvft_of(a, n_main=201)
        grid = np.linspace(0, 1, len(Q.q0))
        reg = Registration(np.eye(2), Gamma(grid**2), np.arange(1), 0.0)
        out = apply_registration(Q, reg)
        assert abs(out.s[0] - 0.5) < 1e-9


class TestRegister:
    def test_self_registration_cost_zero(self, rng):
        tree = smooth_tree(rng, "reg", 3)
        Qa, Qb = prepare_pair(tree, tree)
        reg = register(Qa, Qb, Weights())
        assert reg.cost < 1e-12
        assert reg.cost_history[1] < 1e-12  # zero from the first sweep on

    def test_recovers_rotation_and_shuffle(self, rng):
        tree = smooth_tree(rng, "reg", 4)
        moved = move_tree(tree, theta=rng.uniform(-np.pi, np.pi), shift=(1.0, -2.0))
        Qa, Qb = prepare_pair(tree, moved)
        reg = register(Qa, Qb, Weights())
        assert reg.cost < 1e-12

    def test_monotone_descent(self, rng):
        for k in range(5):
            a = smooth_tree(rng, "a", int(rng.integers(0, 4)))
            b = smooth_tree(rng, "b", int(rng.integers(0, 4)))
            Qa, Qb = prepare_pair(a, b)
            reg = register(Qa, Qb, Weights())
            hist = np.array(reg.cost_history)
            assert np.all(np.diff(hist) <= 1e-12)

    def test_cost_beats_identity_alignment(self, rng):
        a = smooth_tree(rng, "a", 2)
        b = smooth_tree(rng, "b", 3)
        Qa, Qb = prepare_pair(a, b)
        reg = register(Qa, Qb, Weights())
        identity_cost = preshape_dissimilarity_sq(Qa, Qb, Weights())
        assert reg.cost <= identity_cost + 1e-12

    def test_registered_cost_rotation_invariant(self, rng):
        w = Weights()
        a = smooth_tree(rng, "a", 2)
        b = smooth_tree(rng, "b", 2)
        Qa, Qb = prepare_pair(a, b)
        base = register(Qa, Qb, w).cost
        for theta in (0.5, -2.2, 3.0):
            Qa2, Qb2 = prepare_pair(a, move_tree(b, theta=theta))
            assert abs(register(Qa2, Qb2, w).cost - base) < 1e-6

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_needs_one_sweep(self, rng, max_iter):
        # with no sweep the warm-start rotation and assignment would come back
        # with the identity-aligned cost
        Qa, Qb = prepare_pair(smooth_tree(rng, "a", 1), smooth_tree(rng, "b", 2))
        with pytest.raises(ValueError, match="at least one sweep"):
            register(Qa, Qb, Weights(), max_iter=max_iter)

    def test_mismatched_counts_rejected(self, rng):
        a = srvft_of(smooth_tree(rng, "a", 1))
        b = srvft_of(smooth_tree(rng, "b", 2))
        with pytest.raises(ValueError):
            register(a, b, Weights())


def random_srvf(rng: np.random.Generator, n: int) -> np.ndarray:
    """Smooth random SRVF samples plus a little noise."""
    t = np.linspace(0.0, 1.0, n)[:, None]
    wave = np.sin(np.pi * rng.uniform(0.5, 3.0, 2) * t + rng.uniform(0.0, np.pi, 2))
    return rng.normal(size=2) + 0.5 * rng.normal(size=2) * wave + 0.05 * rng.normal(size=(n, 2))


@st.composite
def srvft_pairs(draw):
    """Two SRVF-trees with 0-6 laterals (some zero, some at s = 0 or 1) on
    grids of 3-40 samples; b is random or a rotated, perturbed copy of a."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k, N = draw(st.integers(3, 40)), draw(st.integers(3, 40)), draw(st.integers(0, 6))

    def random_tree() -> SrvfTree:
        lats = []
        for _ in range(N):
            q = np.zeros((k, 2)) if rng.uniform() < 0.3 else random_srvf(rng, k)
            s = float(rng.choice([0.0, 1.0])) if rng.uniform() < 0.15 else float(rng.uniform())
            lats.append((s, q))
        lats.sort(key=lambda lat: lat[0])
        q_lat = np.reshape([q for _, q in lats], (N, k, 2))
        return SrvfTree(random_srvf(rng, n), q_lat, [s for s, _ in lats], rng.normal(size=2))

    a = random_tree()
    if draw(st.booleans()):
        b = random_tree()
    else:
        R = rotation_matrix(rng.uniform(-np.pi, np.pi))
        b = SrvfTree(
            a.q0 @ R.T + 0.05 * rng.normal(size=(n, 2)),
            a.q_lat[::-1] @ R.T,
            a.s[::-1],
            a.anchor,
        )
    w = draw(st.sampled_from([Weights(), Weights(1.0, 1.0, 1.0), Weights(0.02, 0.5, 2.0)]))
    return a, b, w


def assert_same_registration(got, want):
    np.testing.assert_array_equal(got.rotation, want.rotation)
    np.testing.assert_array_equal(got.gamma.values, want.gamma.values)
    np.testing.assert_array_equal(got.assignment, want.assignment)
    assert got.cost_history == want.cost_history


def reconstruction(to_tree, Q):
    """``tree_to_dict`` of the reconstructed tree, or the error it raised."""
    try:
        return tree_to_dict(to_tree(Q))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestArrayRegisterMatchesObjects:
    """``register`` and ``srvft_to_tree`` on stacked arrays against the
    object-based versions they replaced: the same numbers, bit for bit."""

    @settings(max_examples=60)
    @given(pair=srvft_pairs())
    def test_registration_and_reconstruction(self, pair):
        a, b, w = pair
        got = register(a, b, w)
        want = ref.register(a, b, w)
        assert_same_registration(got, want)
        moved = apply_registration(b, got)
        moved_ref = ref.apply_registration(b, want)
        assert preshape_dissimilarity_sq(a, moved, w) == got.cost
        assert ref.preshape_dissimilarity_sq(a, moved_ref, w) == got.cost
        for Q, Q_ref in (
            (a, a),
            (moved, moved_ref),
            (interpolate_srvft(a, moved, 0.5), interpolate_srvft(a, moved_ref, 0.5)),
        ):
            assert reconstruction(srvft_to_tree, Q) == reconstruction(ref.srvft_to_tree, Q_ref)

    def test_bench_like_pairs(self, rng):
        # prepared trees with augmented (zero) laterals, at the default grid
        for n_a, n_b in ((0, 0), (1, 3), (4, 2)):
            Qa, Qb = prepare_pair(smooth_tree(rng, "a", n_a), smooth_tree(rng, "b", n_b))
            assert_same_registration(register(Qa, Qb, Weights()), ref.register(Qa, Qb, Weights()))

    def test_non_finite_cost_raises(self):
        # samples so large that squared differences overflow
        big = np.full((5, 2), 1e200)
        a = SrvfTree(big, np.zeros((0, 2, 2)), np.zeros(0), np.zeros(2))
        b = SrvfTree(-big, np.zeros((0, 2, 2)), np.zeros(0), np.zeros(2))
        with pytest.raises(ValueError, match="not finite"):
            register(a, b, Weights())


class TestDpReuse:
    """A sweep whose rotation equals the one of the last DP reuses its gamma:
    fewer DPs, the same registration bit for bit."""

    @pytest.fixture
    def dp_calls(self, monkeypatch):
        calls = []

        def counted(qa, qb):
            calls.append(1)
            return optimal_reparam_main(qa, qb)

        monkeypatch.setattr(registration, "optimal_reparam_main", counted)
        return calls

    @staticmethod
    def sweeps_matching_reference(a, b, w, **kwargs):
        got = register(a, b, w, **kwargs)
        assert_same_registration(got, ref.register(a, b, w, **kwargs))
        return len(got.cost_history) - 1

    def test_repeated_rotation_skips_the_dp(self, rng, dp_calls):
        # these pairs settle their rotation in the first sweep; the second
        # sweep sees the same rotation and stops
        for _ in range(3):
            Qa, Qb = prepare_pair(smooth_tree(rng, "a", 3), smooth_tree(rng, "b", 2))
            dp_calls.clear()
            sweeps = self.sweeps_matching_reference(Qa, Qb, Weights())
            assert sweeps >= 2
            assert len(dp_calls) < sweeps

    def test_new_rotation_every_sweep_runs_every_dp(self, dp_calls):
        # a large rotation whose last sweep still turns b before the cost stops
        # falling
        rng = np.random.default_rng(22)
        a = smooth_tree(rng, "a", 4, bend=0.4)
        b = move_tree(smooth_tree(rng, "b", 4, bend=0.4), theta=rng.uniform(-np.pi, np.pi))
        Qa, Qb = prepare_pair(a, b)
        sweeps = self.sweeps_matching_reference(Qa, Qb, Weights())
        assert sweeps >= 2
        assert len(dp_calls) == sweeps

    def test_capped_descent_runs_every_dp(self, dp_calls):
        # random SRVF-trees whose rotation is still moving when max_iter ends
        # the descent
        rng = np.random.default_rng(118)

        def random_tree(n=40, k=20, n_lat=4):
            s = rng.uniform(size=n_lat)
            order = np.argsort(s)
            q_lat = np.stack([random_srvf(rng, k) for _ in range(n_lat)])
            return SrvfTree(random_srvf(rng, n), q_lat[order], s[order], rng.normal(size=2))

        a, b = random_tree(), random_tree()
        sweeps = self.sweeps_matching_reference(a, b, Weights(1.0, 1.0, 1.0), max_iter=4)
        assert sweeps == 4
        assert len(dp_calls) == sweeps
