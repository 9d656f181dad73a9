import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from isofdp import (
    Graph,
    GnSpec,
    generate_gn,
    load_edge_list,
    similarity_matrix,
    structure_similarity,
    to_distance,
)
from isofdp.similarity import MEASURES

from conftest import disjoint_cliques_graph

TRIANGLE = load_edge_list("0 1\n1 2\n2 0")
PATH3 = load_edge_list("a b\nb c")
TWO_EDGES = load_edge_list("0 1\n2 3")


def dense_adjacency(g):
    a = np.zeros((g.node_count, g.node_count))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def dense_similarity(g, measure):
    """Reference: the dense kernels, one per measure, on 0/1 adjacency rows."""
    a = dense_adjacency(g)
    n = g.node_count
    if measure == "structure":
        closed = a + np.eye(n)
        sizes = g.degrees + 1
        values = (closed @ closed.T) / np.sqrt(np.outer(sizes, sizes))
    elif measure == "euclidean":
        values = 1.0 / (1.0 + squareform(pdist(a, "euclidean")))
    elif measure == "hamming":
        values = 1.0 / (1.0 + squareform(pdist(a, "hamming")))
    elif measure == "jaccard":
        values = 1.0 - squareform(pdist(a.astype(bool), "jaccard"))
        np.fill_diagonal(values, 1.0)
    else:  # cosine
        norms = np.sqrt((a * a).sum(axis=1))
        denom = np.outer(norms, norms)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(denom > 0, (a @ a.T) / np.where(denom > 0, denom, 1.0), 0.0)
        np.fill_diagonal(values, 1.0)
    return (values + values.T) / 2.0


REFERENCE_GRAPHS = {
    "gn": generate_gn(GnSpec(z_out=5, seed=3)).graph,
    "star": Graph.from_edges(8, [(0, i) for i in range(1, 8)]),
    "path": Graph.from_edges(8, [(i, i + 1) for i in range(7)]),
    "k33": Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "two_k5_isolated": Graph.from_edges(11, disjoint_cliques_graph([5, 5])[0].edges),
    "edgeless": Graph.from_edges(5, []),
}


class TestStructureSimilarity:
    def test_triangle_adjacent_pair_is_one(self):
        assert structure_similarity(TRIANGLE, 0, 1) == 1.0

    def test_path_end_pair(self):
        # N(a) = {a, b}, N(b) = {a, b, c}: overlap 2 of sqrt(2 * 3)
        expected = 2 / math.sqrt(6)
        assert structure_similarity(PATH3, 0, 1) == pytest.approx(expected, abs=1e-12)

    def test_disjoint_closed_neighborhoods(self):
        assert structure_similarity(TWO_EDGES, 0, 2) == 0.0

    def test_self_similarity_is_one(self):
        for v in range(PATH3.node_count):
            assert structure_similarity(PATH3, v, v) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        g = generate_gn(GnSpec(z_out=5, seed=9)).graph
        for _ in range(50):
            v, w = rng.integers(0, g.node_count, size=2)
            assert structure_similarity(g, int(v), int(w)) == pytest.approx(
                structure_similarity(g, int(w), int(v)), abs=0
            )

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            structure_similarity(PATH3, 0, 99)


class TestSimilarityMatrix:
    def test_complete_graph_all_ones(self):
        sim = similarity_matrix(TRIANGLE, "structure")
        assert np.allclose(sim, 1.0)

    def test_matches_pairwise_function(self):
        g = PATH3
        sim = similarity_matrix(g, "structure")
        for v in range(g.node_count):
            for w in range(g.node_count):
                assert sim[v, w] == pytest.approx(
                    structure_similarity(g, v, w), abs=1e-12
                )

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
    def test_bytes_match_dense_reference(self, name, measure):
        g = REFERENCE_GRAPHS[name]
        sim = similarity_matrix(g, measure)
        assert sim.tobytes() == dense_similarity(g, measure).tobytes()

    @pytest.mark.parametrize("measure", MEASURES)
    def test_lesmis_bytes_match_dense_reference(self, lesmis_graph, measure):
        sim = similarity_matrix(lesmis_graph, measure)
        assert sim.tobytes() == dense_similarity(lesmis_graph, measure).tobytes()

    def test_jaccard_cross_pair_zero(self):
        sim = similarity_matrix(TWO_EDGES, "jaccard")
        assert sim[0, 2] == 0.0

    @pytest.mark.parametrize("measure", MEASURES)
    def test_symmetric_unit_diagonal_in_range(self, measure):
        g = generate_gn(GnSpec(z_out=4, seed=2)).graph
        sim = similarity_matrix(g, measure)
        assert np.array_equal(sim, sim.T)
        assert np.allclose(np.diag(sim), 1.0)
        assert sim.min() >= 0.0
        assert sim.max() <= 1.0 + 1e-12

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="unknown measure"):
            similarity_matrix(TRIANGLE, "minkowski")

    def test_low_diversity_on_clear_benchmark(self):
        # near-regular structure yields very few distinct values across the
        # 128 * 127 / 2 = 8128 node pairs: order tens, not thousands
        g = generate_gn(GnSpec(z_out=2, seed=1)).graph
        sim = similarity_matrix(g, "structure")
        iu = np.triu_indices(g.node_count, k=1)
        distinct = np.unique(np.round(sim[iu], 12)).size
        assert iu[0].size == 8128
        assert distinct < 100


class TestToDistance:
    def test_unit_similarity_maps_to_unit_distance(self):
        d = to_distance(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert d[0, 1] == 1.0

    def test_zero_similarity_maps_to_inf(self):
        d = to_distance(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert d[0, 1] == np.inf

    def test_empty_input(self):
        assert to_distance(np.zeros((0, 0))).shape == (0, 0)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_matches_the_masked_reciprocal(self, measure):
        sim = similarity_matrix(generate_gn(GnSpec(z_out=6, seed=2)).graph, measure)
        expected = np.full(sim.shape, np.inf)
        np.divide(1.0, sim, out=expected, where=sim > 0)
        np.fill_diagonal(expected, 0.0)
        assert to_distance(sim).tobytes() == expected.tobytes()

    def test_diagonal_is_zero(self):
        sim = similarity_matrix(TRIANGLE, "structure")
        d = to_distance(sim)
        assert np.all(np.diag(d) == 0.0)

    def test_negative_similarity_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            to_distance(np.array([[1.0, -0.1], [-0.1, 1.0]]))

    def test_strictly_antitone_on_finite_values(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(0.05, 1.0, size=(6, 6))
        s = (s + s.T) / 2
        d = to_distance(s)
        iu = np.triu_indices(6, k=1)
        for i in range(len(iu[0])):
            for j in range(len(iu[0])):
                s1, s2 = s[iu][i], s[iu][j]
                if s1 > s2:
                    assert d[iu][i] < d[iu][j]
