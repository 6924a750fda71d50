"""Chunked synthesis and drawing against the per-tree references.

``sample_random``, ``iter_samples``, ``mode_path`` and ``predict`` build
their trees ``SYNTH_CHUNK`` at a time, ``srvft_to_tree`` integrates a batch
``SYNTH_CHUNK`` trees per stack, and ``render._polyline`` formats whole
coordinate columns; ``reference_synthesis`` keeps the versions that built
one tree (or one polyline) at a time.  Both must give the same trees, the
same errors and the same SVG text.
"""
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_synthesis as ref
from treeshape import (Atlas, Branch, RegressionModel, Weights, iter_samples, load_collection,
                       mode_path, render, sample_random, statistics)
from treeshape.cli import main
from treeshape.srvf import SrvfTree, srvft_to_tree, tree_to_srvft
from treeshape.statistics import SYNTH_CHUNK
from treeshape.tree_model import TreeValidationError, json_text, resample_tree, tree_to_dict

from conftest import assert_laterals_follow, smooth_tree

FIXTURE_MODEL = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "model.json"


@pytest.fixture(scope="module")
def fixture_atlas():
    return RegressionModel.load(FIXTURE_MODEL).atlas


def synthetic_atlas(seed: int, n_lat: int, clamp: bool = False) -> Atlas:
    """An atlas at a resampled random tree with random orthonormal modes.
    With ``clamp``, the leading mode moves only the last attachment
    position, which sits at 0.97, by 0.2 per standard deviation."""
    gen = np.random.default_rng(seed)
    tree = resample_tree(smooth_tree(gen, "mean", n_lat), 30, 12)
    mean = tree_to_srvft(tree, 12)
    if clamp:
        mean = SrvfTree(mean.q0, mean.q_lat, np.append(mean.s[:-1], 0.97), mean.anchor)
    dim = mean.q0.size + mean.q_lat.size + mean.s.size
    modes, _ = np.linalg.qr(gen.normal(size=(dim, 3)))
    modes = modes.T
    eigenvalues = np.array([0.02, 0.01, 0.005])
    if clamp:
        modes[0] = 0.0
        modes[0, -1] = 1.0
        eigenvalues[0] = 0.04
    return Atlas(mean=mean, eigenvalues=eigenvalues, modes=modes, retained=3,
                 training_coeffs=[], weights=Weights())


def dicts(trees):
    return [tree_to_dict(t) for t in trees]


def per_tree_samples(atlas: Atlas, seed: int, n: int):
    gen = np.random.default_rng(seed)
    return [ref.sample_random(atlas, gen, f"sample-{i:03d}") for i in range(n)]


# tree counts on both sides of the chunk boundaries of one-pass synthesis
CHUNK_COUNTS = [SYNTH_CHUNK - 1, SYNTH_CHUNK, SYNTH_CHUNK + 1, 2 * SYNTH_CHUNK + 3]


class TestSample:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_fixture_atlas(self, fixture_atlas, seed):
        got = sample_random(fixture_atlas, seed, n=12)
        assert dicts(got) == dicts(per_tree_samples(fixture_atlas, seed, 12))

    @pytest.mark.parametrize("n", CHUNK_COUNTS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_chunk_boundaries(self, fixture_atlas, seed, n):
        got = sample_random(fixture_atlas, seed, n=n)
        assert dicts(got) == dicts(per_tree_samples(fixture_atlas, seed, n))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_clamping_draw(self, seed):
        atlas = synthetic_atlas(seed, 3, clamp=True)
        with pytest.warns(UserWarning, match="clamped"):
            got = sample_random(atlas, seed, n=8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want = per_tree_samples(atlas, seed, 8)
        assert caught  # some position was clamped
        assert dicts(got) == dicts(want)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_lateral_free_atlas(self, tmp_path, seed):
        path = tmp_path / "atlas.json"
        synthetic_atlas(seed, 0).save(path)
        assert '"n_lateral": 0' in path.read_text()
        atlas = Atlas.load(path)
        got = sample_random(atlas, seed, n=4)
        assert [t.n_laterals for t in got] == [0] * 4
        assert dicts(got) == dicts(per_tree_samples(atlas, seed, 4))

    @pytest.mark.parametrize("seed", [0, 9])
    def test_cli_one_sample(self, fixture_atlas, tmp_path, seed):
        atlas_path = tmp_path / "atlas.json"
        fixture_atlas.save(atlas_path)
        want = per_tree_samples(fixture_atlas, seed, 1)
        for suffix in (".json", ".svg"):
            out = tmp_path / f"s{suffix}"
            assert main(["sample", str(atlas_path), "--n", "1", "--seed", str(seed),
                         "--out", str(out)]) == 0
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(render, "_polyline", ref.polyline)
                expected = (render.render_tree_row(want, titles=["sample-000"]) if suffix == ".svg"
                            else json.dumps(dicts(want), indent=2, sort_keys=True) + "\n")
            assert out.read_text(encoding="utf-8") == expected

    def test_needs_at_least_one_tree(self, fixture_atlas):
        with pytest.raises(ValueError, match="n must be at least 1"):
            sample_random(fixture_atlas, 0, n=0)
        with pytest.raises(ValueError, match="n must be at least 1"):
            iter_samples(fixture_atlas, 0, n=0)  # checked before the first tree is taken

    def test_iter_samples_draws_as_it_yields(self, fixture_atlas):
        gen = np.random.default_rng(4)
        state = gen.bit_generator.state
        trees = iter_samples(fixture_atlas, gen, n=SYNTH_CHUNK + 1)
        assert gen.bit_generator.state == state  # nothing drawn before the first tree
        first = next(trees)
        assert gen.bit_generator.state != state
        assert dicts([first, *trees]) == dicts(per_tree_samples(fixture_atlas, 4, SYNTH_CHUNK + 1))


class TestStreamedSample:
    """``sample`` writes its JSON array a chunk of trees at a time."""

    @pytest.fixture
    def atlas_path(self, fixture_atlas, tmp_path):
        path = tmp_path / "atlas.json"
        fixture_atlas.save(path)
        return path

    @pytest.mark.parametrize("n", CHUNK_COUNTS)
    def test_same_bytes_as_one_batch(self, fixture_atlas, atlas_path, tmp_path, n):
        out = tmp_path / "samples.json"
        assert main(["sample", str(atlas_path), "--n", str(n), "--seed", "3",
                     "--out", str(out)]) == 0
        want = json_text(dicts(sample_random(fixture_atlas, 3, n)))
        assert out.read_text(encoding="utf-8") == want
        assert [t.id for t in load_collection(out)] == [f"sample-{i:03d}" for i in range(n)]

    def test_failure_leaves_the_output_as_it_was(self, atlas_path, tmp_path, monkeypatch, capsys):
        calls = []

        def failing_second_chunk(Qs, ids):
            calls.append(len(ids))
            if len(calls) == 2:
                raise ValueError("reconstruction failed")
            return srvft_to_tree(Qs, ids)

        monkeypatch.setattr(statistics, "srvft_to_tree", failing_second_chunk)
        out = tmp_path / "samples.json"
        out.write_bytes(b"earlier output\n")
        before = sorted(tmp_path.iterdir())
        assert main(["sample", str(atlas_path), "--n", str(3 * SYNTH_CHUNK),
                     "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: reconstruction failed"]
        assert calls == [SYNTH_CHUNK, SYNTH_CHUNK]
        assert out.read_bytes() == b"earlier output\n"
        assert sorted(tmp_path.iterdir()) == before  # no temporary file left

    def test_memory_does_not_grow_with_n(self, atlas_path, tmp_path):
        """At the one-batch writer, 400 trees peaked at about 24 MB of Python
        allocations (2.4 MB at 40); a chunk at a time they stay near 1 MB."""
        argv = ["sample", str(atlas_path), "--n", "400", "--out", str(tmp_path / "s.json")]
        assert main(argv) == 0  # warm-up: caches and imports
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


class TestModePath:
    @pytest.mark.parametrize("mode", [0, 2, 5])
    def test_fixture_atlas(self, fixture_atlas, mode):
        alphas = np.linspace(-2, 2, 7)
        want = [ref.mode_path(fixture_atlas, mode, float(a)) for a in alphas]
        assert dicts(mode_path(fixture_atlas, mode, alphas)) == dicts(want)

    @pytest.mark.parametrize("count", CHUNK_COUNTS)
    @pytest.mark.parametrize("mode", [0, 2, 5])
    def test_chunk_boundaries(self, fixture_atlas, mode, count):
        alphas = np.linspace(-2, 2, count)
        want = [ref.mode_path(fixture_atlas, mode, float(a)) for a in alphas]
        assert dicts(mode_path(fixture_atlas, mode, alphas)) == dicts(want)

    @pytest.mark.parametrize("mode", [0, 2, 5])
    def test_laterals_keep_srvf_order(self, fixture_atlas, mode):
        # every panel's lateral k is SRVF lateral k, so a lateral keeps its color
        alphas = np.linspace(-2, 2, 7)
        sd = np.sqrt(fixture_atlas.eigenvalues[mode])
        Qs = statistics.exp_map(fixture_atlas.mean, np.outer(alphas * sd, fixture_atlas.modes[mode]),
                                fixture_atlas.weights)
        trees = mode_path(fixture_atlas, mode, alphas)
        assert len(trees) == len(Qs) == 7
        for tree, Q in zip(trees, Qs):
            assert_laterals_follow(tree, Q)

    def test_clamping_sweep(self):
        atlas = synthetic_atlas(2, 2, clamp=True)
        alphas = [-3.0, 0.0, 0.5, 3.0]
        with pytest.warns(UserWarning, match="clamped"):
            got = mode_path(atlas, 0, alphas)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = [ref.mode_path(atlas, 0, a) for a in alphas]
        assert dicts(got) == dicts(want)

    def test_empty_sweep(self, fixture_atlas):
        assert mode_path(fixture_atlas, 0, []) == []


class TestPredict:
    @pytest.fixture(scope="class")
    def model(self):
        return RegressionModel.load(FIXTURE_MODEL)

    @pytest.mark.parametrize("params", [
        [1.0, 0.3, 0.05], [2.0, 0.5, 0.1], [0.5, 0.1, 0.0], [1.2, 0.25, 0.08]])
    def test_fixture_model(self, model, params):
        want = json_text(tree_to_dict(ref.predict(model, params, "p")))
        assert json_text(tree_to_dict(statistics.predict(model, params, "p"))) == want

    @pytest.mark.parametrize("params", [[3.0, 1.0, 0.3], [-2.0, 1.0, 0.5]])
    def test_clamped_parameters(self, model, params):
        with pytest.warns(UserWarning, match="clamped"):
            got = statistics.predict(model, params)
        with pytest.warns(UserWarning, match="clamped"):
            want = ref.predict(model, params)
        assert json_text(tree_to_dict(got)) == json_text(tree_to_dict(want))


def reconstruction(Qs, ids):
    """The trees' dicts, or the error that stopped the reconstruction."""
    try:
        return dicts(srvft_to_tree(Qs, ids))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def per_tree_reconstruction(Qs, ids):
    try:
        return [tree_to_dict(ref.srvft_to_tree(Q, i)) for Q, i in zip(Qs, ids)]
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def srvft_batches(draw):
    """1-5 SRVF-trees of one layout, some laterals zero, short enough to
    round to their start, or at s = 0 or 1, some mains large enough or small
    enough to give invalid branches."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k, N = draw(st.integers(2, 12)), draw(st.integers(2, 8)), draw(st.integers(0, 4))
    # clipped, a 1e75 main stays within the SRVF bound (2e75) and often
    # integrates to a branch longer than the length bound (1e150)
    scale = draw(st.sampled_from([1.0, 1e-170, 1e75]))
    Qs = []
    for _ in range(draw(st.integers(1, 5))):
        q_lat = gen.normal(size=(N, k, 2))
        q_lat[gen.uniform(size=N) < 0.3] *= 1.5e-8
        q_lat[gen.uniform(size=N) < 0.3] = 0.0
        ends = gen.choice([0.0, 1.0], N)
        s = np.sort(np.where(gen.uniform(size=N) < 0.2, ends, gen.uniform(size=N)))
        q0 = np.clip(gen.normal(size=(n, 2)), -1.4, 1.4) * (scale if gen.uniform() < 0.3 else 1.0)
        Qs.append(SrvfTree(q0, q_lat, s, gen.normal(size=2)))
    return Qs


class TestReconstruction:
    @settings(max_examples=150)
    @given(Qs=srvft_batches())
    def test_batch_matches_per_tree(self, Qs):
        ids = [f"t{i}" for i in range(len(Qs))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow of huge samples
            assert reconstruction(Qs, ids) == per_tree_reconstruction(Qs, ids)

    def test_one_tree_is_a_batch_of_one(self, fixture_atlas):
        Q = fixture_atlas.mean
        assert tree_to_dict(srvft_to_tree(Q, "m")) == tree_to_dict(ref.srvft_to_tree(Q, "m"))

    def test_ids_must_match(self, fixture_atlas):
        with pytest.raises(ValueError, match="2 SRVF-trees need as many ids, got 1"):
            srvft_to_tree([fixture_atlas.mean] * 2, ["a"])


def branch_outcomes(points, is_virtual):
    """The messages ``Branch`` and the reference raise, or None; huge steps
    overflow in both, which numpy may warn about."""
    with np.errstate(all="ignore"):
        try:
            Branch(points, is_virtual=is_virtual)
            got = None
        except TreeValidationError as exc:
            got = str(exc)
        return got, ref.branch_error(points, is_virtual)


class TestBranchChecks:
    @given(
        rows=st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True),
                                st.floats(allow_nan=True, allow_infinity=True)), max_size=4),
        repeat=st.booleans(),
        is_virtual=st.booleans(),
    )
    def test_same_verdicts(self, rows, repeat, is_virtual):
        # repeated points, and steps whose squares underflow, have zero length
        pts = np.array(rows * 2 if repeat else rows, dtype=float).reshape(-1, 2)
        got, want = branch_outcomes(pts, is_virtual)
        assert got == want

    @pytest.mark.parametrize("step, outcome", [
        (0.0, "branch has zero length"), (5e-324, "branch has zero length"),
        (1e-170, "branch has zero length"), (1e-150, None), (1e100, None),
        (1e153, "branch length 1.41421e+153 exceeds the bound 1e+150"),
        (1e300, "branch length inf exceeds the bound 1e+150"),
    ])
    def test_tiny_and_huge_steps(self, step, outcome):
        pts = np.array([[0.0, 0.0], [step, -step]])
        assert branch_outcomes(pts, False) == (outcome, outcome)

    def test_points_are_a_read_only_copy(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        br = Branch(pts)
        pts[1, 0] = 5.0
        assert br.points[1, 0] == 1.0 and not br.points.flags.writeable


class TestPolyline:
    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1,
                    max_size=30))
    def test_same_text(self, rows):
        pts = np.array(rows, dtype=float)
        assert render._polyline(pts, "#333333") == ref.polyline(pts, "#333333")

    def test_rounding_edges(self):
        pts = np.array([[-0.0, 0.0005], [-0.0004, 2.0005], [1e-9, -1e-9], [123456.78949, 0.1235]])
        assert render._polyline(pts, "#e41a1c") == ref.polyline(pts, "#e41a1c")

    @pytest.mark.parametrize("seed", [0, 4])
    def test_tree_row(self, fixture_atlas, seed):
        trees = sample_random(fixture_atlas, seed, n=5)
        titles = [t.id for t in trees]
        got = render.render_tree_row(trees, titles=titles)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(render, "_polyline", ref.polyline)
            assert got == render.render_tree_row(trees, titles=titles)
