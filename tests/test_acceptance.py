"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line on success (visible with -s / -rA);
a failed assertion marks the criterion failed.
"""
import itertools
import time

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
from scipy.spatial.distance import squareform

import treeshape as ts
from treeshape import Weights
from treeshape.cli import main
from treeshape.metric import PairOptions, prepare_pair, register_pair
from treeshape.registration import apply_registration, lateral_cost_matrix, match_laterals
from treeshape.srvf import SrvfTree, _sq_norms, srvft_to_tree, to_srvf
from treeshape.statistics import _gram_modes, log_map

from conftest import (
    smooth_branch,
    smooth_tree,
    straight_tree,
    transform_tree,
    well_posed_pair,
)

FULL = PairOptions()  # n_main=100, n_lateral=50 reference discretization
W = Weights()  # (0.02, 1.0, 1.0)


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {text}")


def test_criterion_01_srvf_round_trip():
    rng = np.random.default_rng(101)
    max_err = 0.0
    max_len_err = 0.0
    for _ in range(20):
        br = smooth_branch(rng)
        unit = ts.Branch(br.points / br.length)  # unit-length curve
        resampled = ts.resample_branch(unit, 100)
        q = to_srvf(resampled, 100)
        lateral_free = SrvfTree(q, np.zeros((0, 2, 2)), np.zeros(0), resampled.points[0])
        rebuilt = srvft_to_tree(lateral_free).main
        max_err = max(
            max_err, float(np.max(np.linalg.norm(rebuilt.points - resampled.points, axis=1)))
        )
        max_len_err = max(max_len_err, abs(_sq_norms(q)[0] - unit.length) / unit.length)
    assert max_err < 1e-2
    assert max_len_err < 1e-3
    report(1, f"round-trip max point error {max_err:.2e} < 1e-2, "
              f"length identity {max_len_err:.2e} < 1e-3 (20 curves, n=100)")


def test_criterion_02_metric_invariances():
    rng = np.random.default_rng(202)
    worst_rigid = 0.0
    for _ in range(20):
        tree = smooth_tree(rng, "t", int(rng.integers(0, 5)))
        moved = transform_tree(
            tree, theta=rng.uniform(-np.pi, np.pi), shift=rng.uniform(-3, 3, 2)
        )
        worst_rigid = max(worst_rigid, ts.distance(tree, moved, W, FULL))
    assert worst_rigid < 1e-4
    norm_opts = PairOptions(normalize=True)
    worst_scale = 0.0
    for _ in range(20):
        tree = smooth_tree(rng, "t", int(rng.integers(0, 4)))
        scaled = transform_tree(tree, scale=rng.uniform(0.5, 2.0))
        worst_scale = max(worst_scale, ts.distance(tree, scaled, W, norm_opts))
    assert worst_scale < 1e-4
    report(2, f"rigid-motion distance max {worst_rigid:.2e} < 1e-4, "
              f"scaled-copy distance max {worst_scale:.2e} < 1e-4 (20 trees each)")


def test_criterion_03_assignment_oracle():
    rng = np.random.default_rng(303)
    opts = PairOptions(n_main=50, n_lateral=16)
    checked = 0
    while checked < 200:
        n_a = int(rng.integers(0, 4))
        n_b = int(rng.integers(0, 4))
        if not (1 <= n_a + n_b <= 6):
            continue
        a = smooth_tree(rng, "a", n_a, bend=0.15)
        b = smooth_tree(rng, "b", n_b, bend=0.15)
        Qa, Qb = prepare_pair(a, b, opts)
        w = Weights(0.02, float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
        cost = lateral_cost_matrix(Qa.q_lat, Qa.s, Qb.q_lat, Qb.s, w)
        perm = match_laterals(Qa.q_lat, Qa.s, Qb.q_lat, Qb.s, w)
        solver_cost = sum(cost[k, perm[k]] for k in range(len(perm)))
        brute = min(
            sum(cost[k, p[k]] for k in range(len(cost)))
            for p in itertools.permutations(range(len(cost)))
        )
        assert solver_cost <= brute + 1e-12
        assert abs(solver_cost - brute) < 1e-12
        checked += 1
    report(3, "assignment cost equals exhaustive-permutation minimum "
              "on 200 augmented pairs with N <= 6")


def test_criterion_04_geodesic_contract():
    # endpoints reproduce the inputs
    rng = np.random.default_rng(404)
    a, b = well_posed_pair(rng)
    path = ts.geodesic(a, b, W, steps=5, opts=FULL)
    trees = path.trees()
    a_res = ts.resample_tree(a, FULL.n_main, FULL.n_lateral)
    end_err = float(np.max(np.abs(trees[0].main.points - a_res.main.points)))
    assert end_err < 5e-3  # round-trip tolerance
    Qa, Qb, reg = register_pair(a, b, W, FULL)
    Qb_reg = apply_registration(Qb, reg)
    np.testing.assert_allclose(
        path.steps[-1].q0, Qb_reg.q0, atol=1e-12
    )
    # midpoint equidistance within 2%
    worst_gap = 0.0
    for _ in range(5):
        a, b = well_posed_pair(rng)
        mid = ts.geodesic(a, b, W, steps=3, opts=FULL).trees()[1]
        d1 = ts.distance(a, mid, W, FULL)
        d2 = ts.distance(mid, b, W, FULL)
        worst_gap = max(worst_gap, abs(d1 - d2) / max(d1, d2))
    assert worst_gap < 0.02
    # straight mains of lengths 1 and 4: midpoint main length 2.25 +- 0.01
    mid = ts.geodesic(straight_tree("a", 1.0), straight_tree("b", 4.0), W,
                      steps=3, opts=FULL).trees()[1]
    assert abs(mid.main.length - 2.25) < 0.01
    report(4, f"endpoints reproduce inputs (err {end_err:.2e}), midpoint "
              f"equidistance gap max {worst_gap:.4f} < 0.02, midpoint main "
              f"length {mid.main.length:.4f} = 2.25 +- 0.01")


def test_criterion_05_position_weight_behavior():
    # one positionally distant lateral: heavy position weight must produce
    # strictly more real<->virtual matches (branch creation) than heavy
    # shape weight (sliding)
    a = straight_tree("a", 1.0, laterals=[(0.2, 0.3, 1)])
    b = straight_tree("b", 1.0, laterals=[(0.8, 0.3, 1)])

    def real_virtual_matches(w: Weights) -> int:
        Qa, Qb, reg = register_pair(a, b, w, FULL)
        Qb_reg = apply_registration(Qb, reg)
        return int(np.sum(Qa.null_laterals() != Qb_reg.null_laterals()))

    sliding = real_virtual_matches(Weights(0.01, 1.0, 0.01))
    creating = real_virtual_matches(Weights(0.01, 0.00001, 1.0))
    assert creating > sliding
    report(5, f"(0.01, 0.00001, 1.0) gives {creating} real<->virtual matches "
              f"vs {sliding} for (0.01, 1.0, 0.01)")


def test_criterion_06_karcher_mean():
    # mean of duplicates is the sample itself
    rng = np.random.default_rng(606)
    x = smooth_tree(rng, "x", 2)
    dup = ts.karcher_mean([x, x], W, opts=FULL)
    d_dup = np.sqrt(
        max(ts.preshape_dissimilarity_sq(dup.mean, dup.registered[0], W), 0.0)
    )
    assert d_dup < 1e-8
    # 10 synthetic roots within the time budget, objective nonincreasing
    trees = [smooth_tree(rng, f"t{i}", int(rng.integers(1, 4)), bend=0.15) for i in range(10)]
    t0 = time.perf_counter()
    result = ts.karcher_mean(trees, W, opts=FULL, max_iter=20)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    obj = np.array(result.objective)
    assert np.all(np.diff(obj) <= 1e-12)
    report(6, f"mean of duplicates within {d_dup:.1e} < 1e-8; mean of 10 roots "
              f"in {elapsed:.1f}s < 300s with nonincreasing objective "
              f"({obj[0]:.4f} -> {obj[-1]:.4f})")


@pytest.fixture(scope="module")
def acceptance_atlas():
    rng = np.random.default_rng(707)
    trees = [smooth_tree(rng, f"t{i}", 2, bend=0.15) for i in range(6)]
    result = ts.karcher_mean(trees, W, opts=PairOptions(n_main=50, n_lateral=20))
    return trees, ts.fit_atlas(result), result


def test_criterion_07_tangent_pca(acceptance_atlas):
    _, atlas, result = acceptance_atlas
    gram = atlas.modes @ atlas.modes.T
    ortho_err = float(np.max(np.abs(gram - np.eye(atlas.n_modes))))
    assert ortho_err < 1e-8
    ratio = atlas.variance_ratio()[atlas.retained - 1]
    assert ratio > 0.99
    # full-mode reconstruction of every training sample
    recon_err = 0.0
    for Q in result.registered:
        v = log_map(atlas.mean, Q, W)
        coeffs = atlas.modes @ v
        recon_err = max(recon_err, float(np.linalg.norm(coeffs @ atlas.modes - v)))
    assert recon_err < 1e-6
    # Gram eigenvalues match the dense covariance oracle for m <= 10
    rng = np.random.default_rng(708)
    worst = 0.0
    for m in (3, 5, 10):
        V = rng.normal(size=(m, 60))
        evals, _ = _gram_modes(V)
        dense = np.sort(np.linalg.eigvalsh((V.T @ V) / (m - 1)))[::-1][: len(evals)]
        worst = max(worst, float(np.max(np.abs(evals - dense))))
    assert worst < 1e-8
    report(7, f"modes orthonormal ({ortho_err:.1e} < 1e-8), retained variance "
              f"{ratio:.4f} > 0.99, reconstruction {recon_err:.1e} < 1e-6, "
              f"Gram vs dense eigenvalues {worst:.1e} < 1e-8")


def test_criterion_08_regression(acceptance_atlas):
    _, atlas, _ = acceptance_atlas
    rng = np.random.default_rng(808)
    # exact-linear training set: parameters constructed from coefficients
    retained = atlas.retained
    coeffs = atlas.training_coeffs
    l = retained
    A = rng.normal(size=(l, retained)) + np.eye(l, retained)
    c = rng.normal(size=l)
    params = coeffs @ A.T + c
    A_inv = np.linalg.inv(A)
    M0 = np.hstack([A_inv, (-A_inv @ c)[:, None]])
    model = ts.fit_regression(atlas, params)
    rec_err = float(np.linalg.norm(model.M - M0))
    assert rec_err < 1e-8
    # residual equals the normal-equations oracle
    params2 = rng.normal(size=(len(coeffs), 2))
    model2 = ts.fit_regression(atlas, params2)
    B = coeffs.T
    P = np.vstack([params2.T, np.ones(len(coeffs))])
    M_oracle = np.linalg.solve(P @ P.T, P @ B.T).T
    resid_gap = abs(
        np.linalg.norm(B - model2.M @ P) - np.linalg.norm(B - M_oracle @ P)
    )
    assert resid_gap < 1e-8
    # monotone main-length sweep on a synthetic atlas
    trees = [
        straight_tree(f"L{i}", L, laterals=[(0.4, 0.3, 1)])
        for i, L in enumerate([1.0, 1.5, 2.0, 2.5, 3.0])
    ]
    lin_atlas = ts.fit_atlas(
        ts.karcher_mean(trees, W, opts=PairOptions(n_main=50, n_lateral=20), max_iter=50))
    bio = np.array([ts.extract_bio_params(t) for t in trees])
    with pytest.warns(UserWarning, match="rank deficient"):
        lin_model = ts.fit_regression(
            lin_atlas, bio, ("main_length", "lat_mean", "lat_std")
        )
    lengths = [
        ts.predict(lin_model, [L, 0.3, 0.0]).main.length
        for L in np.linspace(1.0, 3.0, 7)
    ]
    assert np.all(np.diff(lengths) > 0)
    report(8, f"exact-linear recovery {rec_err:.1e} < 1e-8, residual vs normal "
              f"equations {resid_gap:.1e} < 1e-8, main-length sweep monotone "
              f"({lengths[0]:.2f} -> {lengths[-1]:.2f})")


def test_criterion_09_clustering():
    rng = np.random.default_rng(909)
    names = tuple(f"r{i}" for i in range(8))
    # single linkage equals the independent agglomeration oracle on 8x8
    for _ in range(10):
        condensed = rng.permutation(np.arange(1.0, 29.0)) + rng.uniform(0, 0.4, 28)
        d = squareform(condensed)
        dend = ts.linkage(ts.DistanceMatrix(labels=names, values=d), "single")
        oracle = sch.linkage(squareform(d, checks=False), method="single")
        np.testing.assert_allclose(dend.heights(), oracle[:, 2], atol=1e-10)
        got = [tuple(sorted((int(l), int(r)))) for l, r, _, _ in dend.merges]
        expected = [tuple(sorted((int(l), int(r)))) for l, r in oracle[:, :2]]
        assert got == expected
    # two-blob fixture recovered exactly at k = 2
    m = 8
    d = np.full((m, m), 15.0)
    np.fill_diagonal(d, 0.0)
    for i in range(4):
        for j in range(4):
            if i != j:
                d[i, j] = 0.02 + 0.01 * (i + j)
                d[i + 4, j + 4] = 0.03 + 0.01 * (i + j)
    labels = ts.cut(ts.linkage(ts.DistanceMatrix(labels=names, values=d), "single"), 2)
    assert len(set(labels[:4])) == 1 and len(set(labels[4:])) == 1
    assert labels[0] != labels[4]
    report(9, "single linkage matches the independent oracle on 10 random 8x8 "
              "matrices; two-blob fixture recovered exactly at k=2")


def test_criterion_10_performance():
    rng = np.random.default_rng(1010)
    a = smooth_tree(rng, "a", 11)
    b = smooth_tree(rng, "b", 12)  # 23 laterals after augmentation
    t0 = time.perf_counter()
    Qa, Qb, reg = register_pair(a, b, W, FULL)
    t_register = time.perf_counter() - t0
    assert Qa.n_laterals == 23
    t0 = time.perf_counter()
    Qb_reg = apply_registration(Qb, reg)
    from treeshape.metric import interpolate_srvft

    steps = [interpolate_srvft(Qa, Qb_reg, r) for r in np.linspace(0, 1, 7)]
    trees = [ts.srvft_to_tree(Q) for Q in steps]
    t_geodesic = time.perf_counter() - t0
    assert t_geodesic < 1.0
    assert t_register + t_geodesic < 30.0
    report(10, f"geodesic after registration {t_geodesic * 1e3:.0f} ms < 1 s; "
               f"registration + geodesic {t_register + t_geodesic:.2f} s < 30 s "
               f"(23 augmented laterals, n=100)")


def test_criterion_11_determinism(rng, tmp_path):
    flags = ["--n-main", "50", "--n-lat", "20"]
    d = tmp_path / "trees"
    d.mkdir()
    for i in range(4):
        ts.save_root(smooth_tree(rng, f"t{i}", int(rng.integers(1, 3)), bend=0.15),
                     d / f"t{i}.json")
    # matrix: byte-identical across runs and worker counts
    blobs = []
    for name, threads in (("m1.csv", "1"), ("m2.csv", "2"), ("m3.csv", "1")):
        out = tmp_path / name
        assert main(["matrix", str(d), *flags, "--threads", threads, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    # sample: byte-identical across runs for a fixed seed
    atlas_path = tmp_path / "atlas.json"
    assert main(["atlas", str(d), *flags, "--max-iter", "10", "--out", str(atlas_path)]) == 0
    samples = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        assert main(["sample", str(atlas_path), "--n", "3", "--seed", "11",
                     "--out", str(out)]) == 0
        samples.append(out.read_bytes())
    assert samples[0] == samples[1]
    report(11, "matrix byte-identical across runs and worker counts; "
               "sample byte-identical for fixed seed")
