import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from treeshape import (
    Atlas,
    RegressionModel,
    Weights,
    exp_map,
    fit_atlas,
    fit_regression,
    karcher_mean,
    log_map,
    mode_path,
    predict,
    preshape_dissimilarity_sq,
    sample_random,
    srvft_to_tree,
)
from treeshape.metric import PairOptions, distance
from treeshape.statistics import (
    _gram_modes,
    flatten_srvft,
    prepare_collection,
    unflatten_srvft,
)

from conftest import smooth_tree, straight_tree, transform_tree

FAST = PairOptions(n_main=40, n_lateral=16)
W = Weights()



@pytest.fixture(scope="module")
def collection4():
    gen = np.random.default_rng(20240817)
    return [smooth_tree(gen, f"t{i}", 2, bend=0.15) for i in range(4)]


@pytest.fixture(scope="module")
def atlas4(collection4):
    return fit_atlas(collection4, W, opts=FAST)


@pytest.fixture(scope="module")
def karcher4(collection4):
    return karcher_mean(collection4, W, opts=FAST)


def small_collection(rng, m=4, n_lat=2):
    return [smooth_tree(rng, f"t{i}", n_lat, bend=0.15) for i in range(m)]


class TestTangentMaps:
    def test_log_of_mean_is_zero(self, rng):
        Q = prepare_collection([smooth_tree(rng, "x", 2)], FAST)[0]
        np.testing.assert_array_equal(log_map(Q, Q, W), 0.0)

    def test_exp_log_inverse(self, rng):
        trees = small_collection(rng, 3)
        samples = prepare_collection(trees, FAST)
        mu, x = samples[0], samples[1]
        v = log_map(mu, x, W)
        back = exp_map(mu, v, W)
        np.testing.assert_allclose(
            flatten_srvft(back), flatten_srvft(x), atol=1e-10
        )

    def test_norm_reproduces_dissimilarity(self, rng):
        trees = small_collection(rng, 3)
        samples = prepare_collection(trees, FAST)
        mu, x = samples[0], samples[2]
        v = log_map(mu, x, W)
        assert abs(v @ v - preshape_dissimilarity_sq(mu, x, W)) < 1e-9

    def test_exp_of_zero_is_mean(self, rng):
        Q = prepare_collection([smooth_tree(rng, "x", 1)], FAST)[0]
        out = exp_map(Q, np.zeros(flatten_srvft(Q).size), W)
        np.testing.assert_array_equal(flatten_srvft(out), flatten_srvft(Q))

    def test_s_clamping_reported(self, rng):
        Q = prepare_collection([smooth_tree(rng, "x", 1)], FAST)[0]
        v = np.zeros(flatten_srvft(Q).size)
        v[-1] = 10.0  # push the attachment position far past 1
        with pytest.warns(UserWarning, match="clamped"):
            out = exp_map(Q, v, W)
        assert out.s[-1] == 1.0

    def test_zero_weight_rejected(self, rng):
        Q = prepare_collection([smooth_tree(rng, "x", 1)], FAST)[0]
        with pytest.raises(ValueError, match="positive weights"):
            log_map(Q, Q, Weights(1.0, 0.0, 0.0))

    def test_flatten_round_trip(self, rng):
        Q = prepare_collection([smooth_tree(rng, "x", 2)], FAST)[0]
        back = unflatten_srvft(flatten_srvft(Q), Q)
        np.testing.assert_array_equal(back.q0, Q.q0)
        np.testing.assert_array_equal(back.q_lat, Q.q_lat)
        assert back.s.tolist() == Q.s.tolist()


class TestKarcherMean:
    def test_mean_of_duplicates(self, rng):
        x = smooth_tree(rng, "x", 2)
        result = karcher_mean([x, x], W, opts=FAST)
        d = preshape_dissimilarity_sq(result.mean, result.registered[0], W)
        assert d < 1e-16  # mean of {x, x} is x
        assert result.converged
        assert result.stop_reason == "gradient"

    def test_two_straight_mains(self):
        a = straight_tree("a", 1.0)
        b = straight_tree("b", 4.0)
        result = karcher_mean([a, b], W, max_iter=60, tol=1e-9)
        mean_tree = srvft_to_tree(result.mean)
        assert abs(mean_tree.main.length - 2.25) < 1e-3

    def test_invariance_collection(self, rng):
        x = smooth_tree(rng, "x", 2)
        collection = [
            x,
            transform_tree(x, shift=(2.0, 1.0)),
            transform_tree(x, theta=0.8),
        ]
        result = karcher_mean(collection, W, opts=FAST, max_iter=40)
        mean_tree = srvft_to_tree(result.mean)
        assert distance(mean_tree, x, opts=FAST) < 1e-3

    def test_objective_nonincreasing(self, rng):
        trees = small_collection(rng, 4)
        result = karcher_mean(trees, W, opts=FAST, max_iter=10)
        obj = np.array(result.objective)
        assert np.all(np.diff(obj) <= 1e-12)

    def test_objective_is_the_sum_of_registered_dissimilarities(self, rng):
        # the objective adds up registration costs; re-evaluating the
        # dissimilarity of each registered sample gives the same float
        trees = small_collection(rng, 3)
        result = karcher_mean(trees, W, opts=FAST, max_iter=3)
        total = float(sum(preshape_dissimilarity_sq(result.mean, Q, W) for Q in result.registered))
        assert result.objective[-1] == total

    def test_stop_at_iteration_limit(self, rng):
        result = karcher_mean(small_collection(rng, 3), W, opts=FAST, max_iter=1)
        assert len(result.objective) == 2
        assert (result.stop_reason, result.converged) == ("iteration-limit", False)

    def test_stop_when_halving_is_exhausted(self, rng):
        # a step a million times the tangent mean overshoots even after
        # eight halvings; trees without laterals keep every candidate valid
        trees = small_collection(rng, 3, n_lat=0)
        result = karcher_mean(trees, W, opts=FAST, step=1e6, max_iter=5)
        assert len(result.objective) == 1
        assert (result.stop_reason, result.converged) == ("halving-exhausted", True)

    @pytest.mark.parametrize("step", [np.inf, np.nan, 0.0, -1.0])
    def test_step_must_be_finite_and_positive(self, step):
        # checked before the collection is read: an empty one would fail later
        with pytest.raises(ValueError, match="step must be finite and above 0"):
            karcher_mean([], W, step=step)

    def test_single_tree(self, rng):
        x = smooth_tree(rng, "x", 1)
        result = karcher_mean([x], W, opts=FAST)
        assert len(result.registered) == 1
        assert result.objective == (0.0,)
        assert result.stop_reason == "gradient"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            karcher_mean([], W)


class TestAtlas:
    def test_identical_trees_zero_variance(self, rng):
        x = smooth_tree(rng, "x", 1)
        atlas = fit_atlas([x, x, x], W, opts=FAST)
        assert atlas.retained == 0
        assert atlas.n_modes == 0

    def test_two_trees_single_mode(self, rng):
        trees = small_collection(rng, 2)
        atlas = fit_atlas(trees, W, opts=FAST, max_iter=40, tol=1e-8)
        assert atlas.retained == 1
        assert atlas.n_modes == 1
        # the mode is parallel to v1 - v2
        result = karcher_mean(trees, W, opts=FAST, max_iter=40, tol=1e-8)
        v1 = log_map(result.mean, result.registered[0], W)
        v2 = log_map(result.mean, result.registered[1], W)
        direction = (v1 - v2) / np.linalg.norm(v1 - v2)
        assert abs(abs(direction @ atlas.modes[0]) - 1.0) < 1e-6

    def test_modes_orthonormal(self, atlas4):
        atlas = atlas4
        G = atlas.modes @ atlas.modes.T
        np.testing.assert_allclose(G, np.eye(atlas.n_modes), atol=1e-8)

    def test_retained_variance_ratio(self, atlas4):
        assert atlas4.variance_ratio()[atlas4.retained - 1] > 0.99

    def test_reconstruction_with_all_modes(self, atlas4, karcher4):
        atlas, result = atlas4, karcher4
        # recompute the full-spectrum coefficients and rebuild each sample
        for i, Q in enumerate(result.registered):
            v = log_map(atlas.mean, Q, W)
            coeffs = np.array(
                [(v @ atlas.modes[j]) / np.sqrt(atlas.eigenvalues[j]) for j in range(atlas.n_modes)]
            )
            v_hat = (coeffs * np.sqrt(atlas.eigenvalues)) @ atlas.modes
            assert np.linalg.norm(v_hat - v) < 1e-6

    def test_gram_matches_dense_covariance(self, rng):
        # independent oracle: eigenvalues of the dense covariance matrix
        for m in (3, 6, 10):
            V = rng.normal(size=(m, 40))
            evals, modes = _gram_modes(V)
            C = (V.T @ V) / (m - 1)
            dense = np.sort(np.linalg.eigvalsh(C))[::-1][: len(evals)]
            np.testing.assert_allclose(evals, dense, atol=1e-8)
            # modes diagonalize the covariance
            for lam, mode in zip(evals, modes):
                np.testing.assert_allclose(C @ mode, lam * mode, atol=1e-8)

    def test_gram_modes_on_an_ill_conditioned_spectrum(self, rng):
        # V = U diag(s) W^T with orthonormal U, W and a spectrum over five
        # decades: the covariance eigenvalues are s^2 / (m - 1).  Forming
        # V V^T squares the condition number and loses ~1e-6 relative on
        # the smallest; one SVD of V keeps it near 1e-11.
        m, dim = 6, 900
        s = np.logspace(0, -5, m)
        for _ in range(20):
            U = np.linalg.qr(rng.normal(size=(m, m)))[0]
            Wm = np.linalg.qr(rng.normal(size=(dim, m)))[0]
            evals, modes = _gram_modes((U * s) @ Wm.T)
            np.testing.assert_allclose(evals, s**2 / (m - 1), rtol=1e-9, atol=0)
            np.testing.assert_allclose(modes @ modes.T, np.eye(m), rtol=0, atol=1e-12)

    def test_serialization_round_trip(self, rng, tmp_path):
        trees = small_collection(rng, 3)
        atlas = fit_atlas(trees, W, opts=FAST)
        path = tmp_path / "atlas.json"
        atlas.save(path)
        loaded = Atlas.load(path)
        np.testing.assert_array_equal(loaded.eigenvalues, atlas.eigenvalues)
        np.testing.assert_array_equal(loaded.modes, atlas.modes)
        np.testing.assert_array_equal(loaded.training_coeffs, atlas.training_coeffs)
        assert loaded.retained == atlas.retained
        assert loaded.weights == atlas.weights
        np.testing.assert_array_equal(
            flatten_srvft(loaded.mean), flatten_srvft(atlas.mean)
        )

    def test_lateral_free_atlas_file(self, rng, tmp_path):
        # no laterals: the layout keeps n_lateral 0 and the file round-trips
        # byte for byte
        atlas = fit_atlas([smooth_tree(rng, f"b{i}", 0) for i in range(3)], W, opts=FAST)
        path, again = tmp_path / "atlas.json", tmp_path / "again.json"
        atlas.save(path)
        data = json.loads(path.read_text())
        assert data["layout"] == {"n_main": 40, "n_lateral": 0, "n_laterals": 0}
        assert data["mean"]["laterals"] == []
        loaded = Atlas.load(path)
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()
        assert loaded.mean.q_lat.shape == (0, 2, 2)
        assert sample_random(loaded, 3).n_laterals == 0

    def test_needs_two_trees(self, rng):
        with pytest.raises(ValueError):
            fit_atlas([smooth_tree(rng, "x", 1)], W, opts=FAST)


class TestModePath:
    def test_alpha_zero_is_mean(self, atlas4):
        atlas = atlas4
        tree = mode_path(atlas, 0, 0.0)
        mean_tree = srvft_to_tree(atlas.mean)
        np.testing.assert_allclose(tree.main.points, mean_tree.main.points, atol=1e-12)

    def test_symmetric_displacement(self, atlas4):
        atlas = atlas4
        mean_tree = srvft_to_tree(atlas.mean)
        plus = mode_path(atlas, 0, 1.0)
        minus = mode_path(atlas, 0, -1.0)
        d_plus = distance(mean_tree, plus, opts=FAST)
        d_minus = distance(mean_tree, minus, opts=FAST)
        assert abs(d_plus - d_minus) / max(d_plus, d_minus) < 0.05

    def test_sweep_produces_valid_trees(self, atlas4):
        atlas = atlas4
        for alpha in np.linspace(-2, 2, 9):
            tree = mode_path(atlas, 0, float(alpha))
            assert tree.main.length > 0

    def test_mode_out_of_range(self, atlas4):
        atlas = atlas4
        with pytest.raises(IndexError):
            mode_path(atlas, atlas.n_modes, 1.0)


class TestSampleRandom:
    def test_deterministic(self, atlas4):
        atlas = atlas4
        t1 = sample_random(atlas, 7)
        t2 = sample_random(atlas, 7)
        np.testing.assert_array_equal(t1.main.points, t2.main.points)

    def test_zero_coefficients_give_mean(self, atlas4):
        atlas = atlas4
        Q = exp_map(atlas.mean, atlas.tangent_from_coeffs(np.zeros(atlas.retained)), W)
        np.testing.assert_array_equal(flatten_srvft(Q), flatten_srvft(atlas.mean))

    def test_coefficients_within_range(self, atlas4):
        atlas = atlas4
        gen = np.random.default_rng(3)
        for _ in range(50):
            tree = sample_random(atlas, gen, (-1.0, 1.0))
            assert tree.main.length > 0

    @pytest.mark.parametrize(
        "coeff_range", [(1.0, -1.0), (0.5, 0.5), (30.0, 31.0), (-9.0, -8.0), (5.0, 6.0)]
    )
    def test_empty_or_negligible_range_raises(self, atlas4, coeff_range):
        # lo >= hi never accepts a draw; the tail ranges hold < 1e-6 of the
        # mass ((5, 6) holds 2.9e-7), so they are refused before any draw
        start = time.perf_counter()
        with pytest.raises(ValueError, match="range"):
            sample_random(atlas4, 0, coeff_range)
        assert time.perf_counter() - start < 1.0

    def test_narrow_range_still_samples(self, atlas4):
        tree = sample_random(atlas4, 5, (2.0, 3.0))
        assert tree.main.length > 0

    def test_range_just_above_the_mass_floor_samples(self, atlas4):
        # (4, 5) holds 3.1e-5 of the mass: ~3e4 draws per coefficient
        tree = sample_random(atlas4, 5, (4.0, 5.0))
        assert tree.main.length > 0

    def test_seeded_sample_is_plain_rejection_sampling(self, atlas4):
        # the seeded output for a range above the floor is that of redrawing
        # standard normals until each falls in the range
        gen = np.random.default_rng(7)
        coeffs = []
        for _ in range(atlas4.retained):
            b = gen.standard_normal()
            while not (-1.0 <= b <= 1.0):
                b = gen.standard_normal()
            coeffs.append(b)
        Q = exp_map(atlas4.mean, atlas4.tangent_from_coeffs(np.array(coeffs)), atlas4.weights)
        want = srvft_to_tree(Q, tree_id="sample")
        got = sample_random(atlas4, 7, (-1.0, 1.0))
        np.testing.assert_array_equal(got.main.points, want.main.points)
        assert [t for t, _ in got.laterals] == [t for t, _ in want.laterals]
        for (_, b1), (_, b2) in zip(got.laterals, want.laterals):
            np.testing.assert_array_equal(b1.points, b2.points)

    def test_coefficient_statistics(self, atlas4):
        # mean of truncated-normal coefficients stays near 0
        atlas = atlas4
        gen = np.random.default_rng(11)
        lo, hi = -1.0, 1.0
        draws = []
        for _ in range(100):
            coeffs = []
            for _ in range(atlas.retained):
                b = gen.standard_normal()
                while not (lo <= b <= hi):
                    b = gen.standard_normal()
                coeffs.append(b)
            draws.append(coeffs)
        means = np.mean(draws, axis=0)
        assert np.all(np.abs(means) < 0.15)

    def test_requires_retained_mode(self, rng):
        x = smooth_tree(rng, "x", 1)
        atlas = fit_atlas([x, x], W, opts=FAST)
        with pytest.raises(ValueError):
            sample_random(atlas, 0)


_BASE_ATLAS = None


def synthetic_atlas_with_coeffs(rng, coeffs: np.ndarray) -> Atlas:
    """Atlas with prescribed training coefficients for regression tests."""
    global _BASE_ATLAS
    if _BASE_ATLAS is None:
        gen = np.random.default_rng(99)
        _BASE_ATLAS = fit_atlas(
            [smooth_tree(gen, f"b{i}", 2, bend=0.15) for i in range(4)], W, opts=FAST
        )
    atlas = _BASE_ATLAS
    m, retained = coeffs.shape
    k = min(retained, atlas.n_modes)
    return Atlas(
        mean=atlas.mean,
        eigenvalues=atlas.eigenvalues[:k] if k else np.zeros(0),
        modes=atlas.modes[:k] if k else np.zeros((0, atlas.modes.shape[1])),
        retained=k,
        training_coeffs=coeffs[:, :k],
        weights=atlas.weights,
        ids=atlas.ids,
    )


class TestRegression:
    def test_exact_linear_recovery(self, rng):
        # construct parameters so coefficients are exactly affine in them
        m, retained, l = 6, 2, 2
        coeffs = rng.normal(size=(m, retained))
        A = rng.normal(size=(l, retained))  # maps coeffs -> params (invertible-ish)
        c = rng.normal(size=l)
        params = coeffs @ A.T + c  # p_i = A b_i + c
        # ground truth: b = M0 [p; 1], with M0 = [A^-1, -A^-1 c]
        A_inv = np.linalg.inv(A)
        M0 = np.hstack([A_inv, (-A_inv @ c)[:, None]])
        atlas = synthetic_atlas_with_coeffs(rng, coeffs)
        model = fit_regression(atlas, params)
        assert np.linalg.norm(model.M - M0[: atlas.retained]) < 1e-8

    def test_constant_coefficients(self, rng):
        m = 5
        coeffs = np.tile([[0.3, -0.7]], (m, 1))
        params = rng.normal(size=(m, 2))
        atlas = synthetic_atlas_with_coeffs(rng, coeffs)
        model = fit_regression(atlas, params)
        np.testing.assert_allclose(model.M[:, :-1], 0.0, atol=1e-10)
        np.testing.assert_allclose(model.M[:, -1], coeffs[0, : atlas.retained], atol=1e-10)

    def test_residual_matches_normal_equations(self, rng):
        m, l = 7, 3
        coeffs = rng.normal(size=(m, 2))
        params = rng.normal(size=(m, l))
        atlas = synthetic_atlas_with_coeffs(rng, coeffs)
        model = fit_regression(atlas, params)
        B = atlas.training_coeffs.T
        P = np.vstack([params.T, np.ones(m)])
        # independent oracle: solve the normal equations directly
        M_oracle = np.linalg.solve(P @ P.T, P @ B.T).T
        r_model = np.linalg.norm(B - model.M @ P)
        r_oracle = np.linalg.norm(B - M_oracle @ P)
        assert abs(r_model - r_oracle) < 1e-8

    def test_residual_local_optimality(self, rng):
        m, l = 6, 2
        coeffs = rng.normal(size=(m, 2))
        params = rng.normal(size=(m, l))
        atlas = synthetic_atlas_with_coeffs(rng, coeffs)
        model = fit_regression(atlas, params)
        B = atlas.training_coeffs.T
        P = np.vstack([params.T, np.ones(m)])
        base = np.linalg.norm(B - model.M @ P)
        for _ in range(100):
            perturbed = model.M + rng.normal(scale=1e-3, size=model.M.shape)
            assert np.linalg.norm(B - perturbed @ P) >= base - 1e-12

    def test_rank_deficient_warns(self, rng):
        m = 5
        coeffs = rng.normal(size=(m, 2))
        params = np.column_stack([np.ones(m), rng.normal(size=m)])  # col 0 constant
        atlas = synthetic_atlas_with_coeffs(rng, coeffs)
        with pytest.warns(UserWarning, match="rank deficient"):
            fit_regression(atlas, params)

    def test_one_cutoff_decides_warning_and_solution(self, rng):
        # P = [params^T; 1] with orthogonal rows of norms (sqrt(m), sqrt(m),
        # 1.2e-10 sqrt(m)): its smallest singular value lies above 1e-10 of
        # the largest, so the solution keeps it and no rank warning is given
        # (a cutoff at 1e-10 of the Frobenius norm, 1.41e-10 sqrt(m), would warn)
        m = 6
        Q = np.linalg.qr(np.column_stack([np.ones(m), rng.normal(size=(m, 2))]))[0]
        params = np.sqrt(m) * Q[:, 1:] * [1.0, 1.2e-10]
        P = np.vstack([params.T, np.ones(m)])
        sv = np.linalg.svd(P, compute_uv=False)
        assert 1e-10 * sv[0] < sv[-1] < 1e-10 * np.linalg.norm(P)
        atlas = synthetic_atlas_with_coeffs(rng, rng.normal(size=(m, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_regression(atlas, params)
        assert np.all(np.isfinite(model.M))

    def test_atlas_without_retained_modes_rejected(self, rng):
        atlas = synthetic_atlas_with_coeffs(rng, np.zeros((5, 0)))
        assert atlas.retained == 0
        with pytest.raises(ValueError, match="atlas has no retained modes to regress on"):
            fit_regression(atlas, rng.normal(size=(5, 2)))

    def test_predict_training_sample_exact_fit(self, rng):
        # exact-fit regime: params = coefficients themselves
        m = 6
        coeffs = rng.normal(size=(m, 2))
        atlas = synthetic_atlas_with_coeffs(rng, coeffs)
        params = atlas.training_coeffs.copy()
        model = fit_regression(atlas, params)
        i = 2
        predicted = predict(model, params[i])
        target = srvft_to_tree(
            exp_map(atlas.mean, atlas.tangent_from_coeffs(atlas.training_coeffs[i]), W)
        )
        assert distance(predicted, target, opts=FAST) < 1e-4

    def test_serialization_round_trip(self, rng, tmp_path):
        m = 5
        coeffs = rng.normal(size=(m, 2))
        params = rng.normal(size=(m, 3))
        atlas = synthetic_atlas_with_coeffs(rng, coeffs)
        model = fit_regression(atlas, params, ("len", "mean", "std"))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = RegressionModel.load(path)
        np.testing.assert_array_equal(loaded.M, model.M)
        assert loaded.param_names == ("len", "mean", "std")
        p = params[0]
        t1 = predict(model, p)
        t2 = predict(loaded, p)
        np.testing.assert_array_equal(t1.main.points, t2.main.points)

    def test_model_file_round_trips_byte_identically(self, tmp_path):
        fixture = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "model.json"
        out = tmp_path / "model.json"
        RegressionModel.load(fixture).save(out)
        assert out.read_bytes() == fixture.read_bytes()

    def test_monotone_main_length_sweep(self):
        # training mains of increasing length, identical laterals: sweeping
        # the main-length parameter gives monotone synthesized lengths
        from treeshape import extract_bio_params

        trees = [
            straight_tree(f"L{i}", L, laterals=[(0.4, 0.3, 1)])
            for i, L in enumerate([1.0, 1.5, 2.0, 2.5, 3.0])
        ]
        atlas = fit_atlas(trees, W, opts=PairOptions(n_main=50, n_lateral=20), max_iter=50)
        params = np.array([extract_bio_params(t) for t in trees])
        # lat_mean is constant and lat_std identically zero, so P is rank
        # deficient by construction
        with pytest.warns(UserWarning, match="rank deficient"):
            model = fit_regression(atlas, params, ("main_length", "lat_mean", "lat_std"))
        lengths = []
        for L in np.linspace(1.0, 3.0, 7):
            tree = predict(model, [L, 0.3, 0.0])
            lengths.append(tree.main.length)
        assert np.all(np.diff(lengths) > 0)

    def test_param_validation(self, rng):
        atlas = synthetic_atlas_with_coeffs(rng, rng.normal(size=(5, 2)))
        with pytest.raises(ValueError):
            fit_regression(atlas, np.full((5, 2), np.nan))
        model = fit_regression(atlas, rng.normal(size=(5, 2)))
        with pytest.raises(ValueError):
            predict(model, [1.0])  # wrong parameter count
