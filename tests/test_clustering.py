import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import squareform

from treeshape import Dendrogram, cut, linkage
from treeshape.metric import DistanceMatrix
from treeshape.tree_model import json_text, write_text


def random_distance_matrix(rng, m):
    """Symmetric nonneg matrix with distinct off-diagonal entries (no ties)."""
    condensed = rng.permutation(np.arange(1, m * (m - 1) // 2 + 1)) + rng.uniform(
        0, 0.5, m * (m - 1) // 2
    )
    return squareform(condensed)


def as_matrix(values, labels=None):
    """``values`` as a ``DistanceMatrix`` whose leaves are labeled "0".."m-1" by default."""
    return DistanceMatrix(labels=labels or tuple(str(i) for i in range(len(values))),
                          values=values)


class TestLinkage:
    def test_two_leaves(self):
        d = np.array([[0.0, 3.0], [3.0, 0.0]])
        dend = linkage(as_matrix(d), "single")
        assert len(dend.merges) == 1
        left, right, height, size = dend.merges[0]
        assert {int(left), int(right)} == {0, 1}
        assert height == 3.0 and size == 2

    def test_three_collinear_points(self):
        # points at 0, 1, 6 on a line: merge heights 1 then 5
        d = np.array([[0.0, 1.0, 6.0], [1.0, 0.0, 5.0], [6.0, 5.0, 0.0]])
        dend = linkage(as_matrix(d), "single")
        np.testing.assert_allclose(dend.heights(), [1.0, 5.0])

    @pytest.mark.parametrize("method", ["single", "complete", "average"])
    def test_matches_scipy_oracle(self, rng, method):
        for _ in range(10):
            d = random_distance_matrix(rng, 8)
            dend = linkage(as_matrix(d), method)
            oracle = sch.linkage(squareform(d, checks=False), method=method)
            np.testing.assert_allclose(dend.heights(), oracle[:, 2], atol=1e-10)
            np.testing.assert_allclose(dend.merges[:, 3], oracle[:, 3])
            # same merge structure: compare sorted child pairs per step
            got = [tuple(sorted((int(l), int(r)))) for l, r, _, _ in dend.merges]
            expected = [tuple(sorted((int(l), int(r)))) for l, r in oracle[:, :2]]
            assert got == expected

    def test_single_linkage_heights_are_mst_edges(self, rng):
        # independent oracle: sorted MST edge weights
        for _ in range(5):
            d = random_distance_matrix(rng, 9)
            dend = linkage(as_matrix(d), "single")
            mst = minimum_spanning_tree(d).toarray()
            edges = np.sort(mst[mst > 0])
            np.testing.assert_allclose(np.sort(dend.heights()), edges, atol=1e-10)

    def test_single_linkage_heights_nondecreasing(self, rng):
        for _ in range(5):
            dend = linkage(as_matrix(random_distance_matrix(rng, 10)), "single")
            assert np.all(np.diff(dend.heights()) >= -1e-12)

    def test_label_permutation_equivariance(self, rng):
        d = random_distance_matrix(rng, 7)
        perm = rng.permutation(7)
        d2 = d[np.ix_(perm, perm)]
        labels = tuple(f"leaf{i}" for i in range(7))
        dend1 = linkage(as_matrix(d, labels), "single")
        dend2 = linkage(as_matrix(d2, tuple(labels[p] for p in perm)), "single")
        for k in (2, 3):
            c1 = {}
            for lab, cl in zip(dend1.leaf_labels, cut(dend1, k)):
                c1.setdefault(cl, set()).add(lab)
            c2 = {}
            for lab, cl in zip(dend2.leaf_labels, cut(dend2, k)):
                c2.setdefault(cl, set()).add(lab)
            assert sorted(map(sorted, c1.values())) == sorted(map(sorted, c2.values()))

    def test_deterministic_tie_break(self):
        # all distances equal: merges proceed by smallest-index pair
        d = np.ones((4, 4)) - np.eye(4)
        dend = linkage(as_matrix(d), "single")
        assert (int(dend.merges[0][0]), int(dend.merges[0][1])) == (0, 1)

    def test_accepts_distance_matrix_object(self, rng):
        d = random_distance_matrix(rng, 4)
        dm = DistanceMatrix(labels=("a", "b", "c", "d"), values=d)
        dend = linkage(dm)
        assert dend.leaf_labels == ("a", "b", "c", "d")

    @pytest.mark.parametrize("m", [2, 3])
    def test_unknown_method_rejected_before_merging(self, rng, m):
        # two leaves merge without a look at the other clusters
        with pytest.raises(ValueError, match="^unknown linkage method: 'bogus'$"):
            linkage(as_matrix(random_distance_matrix(rng, m)), "bogus")

    @pytest.mark.parametrize("count", [3, 5])
    def test_label_count_mismatch(self, rng, count):
        labels = tuple(f"leaf{i}" for i in range(count))
        with pytest.raises(ValueError, match="^matrix shape must match the label count$"):
            DistanceMatrix(labels=labels, values=random_distance_matrix(rng, 4))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError, match="asymmetry"):
            DistanceMatrix(labels=("a", "b"), values=np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError, match="label count"):
            DistanceMatrix(labels=("a", "b"), values=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="negative"):
            linkage(as_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]])))
        with pytest.raises(ValueError, match="finite"):
            linkage(as_matrix(np.array([[0.0, np.nan], [np.nan, 0.0]])))


class TestCut:
    def test_k_one_and_k_m(self, rng):
        d = random_distance_matrix(rng, 6)
        dend = linkage(as_matrix(d), "single")
        assert set(cut(dend, 1)) == {0}
        assert sorted(cut(dend, 6)) == list(range(6))

    def test_two_blobs(self):
        # within-blob distances < 0.1, between > 10
        m = 6
        d = np.full((m, m), 12.0)
        np.fill_diagonal(d, 0.0)
        for i in range(3):
            for j in range(3):
                if i != j:
                    d[i, j] = 0.05
                    d[i + 3, j + 3] = 0.08
        dend = linkage(as_matrix(d), "single")
        labels = cut(dend, 2)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_labels_contiguous_first_occurrence(self, rng):
        d = random_distance_matrix(rng, 8)
        dend = linkage(as_matrix(d), "single")
        labels = cut(dend, 3)
        seen = []
        for lab in labels:
            if lab not in seen:
                seen.append(lab)
        assert seen == list(range(3))

    def test_k_out_of_range(self, rng):
        dend = linkage(as_matrix(random_distance_matrix(rng, 4)), "single")
        with pytest.raises(ValueError):
            cut(dend, 0)
        with pytest.raises(ValueError):
            cut(dend, 5)


class TestDendrogram:
    def test_merge_count_invariant(self):
        with pytest.raises(ValueError):
            Dendrogram(merges=np.zeros((2, 4)), leaf_labels=("a", "b"))

    def test_json_round_trip(self, rng, tmp_path):
        import json

        dend = linkage(as_matrix(random_distance_matrix(rng, 5)), "average")
        path = tmp_path / "dend.json"
        write_text(path, json_text(dend.to_dict()))
        data = json.loads(path.read_text())
        assert len(data["merges"]) == 4
        assert data["leaf_labels"] == ["0", "1", "2", "3", "4"]
        loaded = Dendrogram.load(path)
        np.testing.assert_array_equal(loaded.merges, dend.merges)
        assert loaded.leaf_labels == dend.leaf_labels
        np.testing.assert_array_equal(cut(loaded, 3), cut(dend, 3))

    @pytest.mark.parametrize("data, message", [
        ({"leaf_labels": ["a", "b"], "merges": [{"left": 0, "height": 1.0, "size": 2}]},
         "dendrogram merge #0 has no 'right' field"),
        ({"leaf_labels": ["a", "b"], "merges": None}, "dendrogram merges must be a JSON array"),
        ([1, 2], "dendrogram must be a JSON object, not list"),
        ({"leaf_labels": ["a", "b"], "merges": [{"left": 0, "right": "x", "height": 1.0,
                                                 "size": 2}]}, "dendrogram merges must be"),
    ], ids=["merge-without-right", "merges-null", "top-level-array", "merge-not-a-number"])
    def test_from_dict_rejects(self, data, message):
        with pytest.raises(ValueError, match=message):
            Dendrogram.from_dict(data)
