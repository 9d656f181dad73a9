import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from isofdp import (
    Graph,
    GnSpec,
    LfrSpec,
    distance_matrix,
    generate_gn,
    generate_lfr,
    load_edge_list,
    structure_similarity,
)
from isofdp.pipeline import prepared_distances
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


def reference_distances(g, measure):
    """The masked reciprocal of the dense oracle: inf where s == 0, zero diagonal."""
    sim = dense_similarity(g, measure)
    d = np.full(sim.shape, np.inf)
    np.divide(1.0, sim, out=d, where=sim > 0)
    np.fill_diagonal(d, 0.0)
    return d


class TestDistanceMatrix:
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS) + ["lesmis"])
    def test_bytes_match_the_reciprocal_of_the_dense_reference(self, name, measure, request):
        g = request.getfixturevalue("lesmis_graph") if name == "lesmis" else REFERENCE_GRAPHS[name]
        d = distance_matrix(g, measure)
        assert d.tobytes() == reference_distances(g, measure).tobytes()

    @pytest.mark.parametrize("measure", MEASURES)
    def test_matches_the_masked_reciprocal(self, measure):
        g = generate_gn(GnSpec(z_out=6, seed=2)).graph
        assert distance_matrix(g, measure).tobytes() == reference_distances(g, measure).tobytes()

    @pytest.mark.parametrize("measure", MEASURES)
    def test_empty_input(self, measure):
        assert distance_matrix(Graph.from_edges(0, []), measure).shape == (0, 0)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_strictly_antitone_on_finite_values(self, measure):
        g = generate_gn(GnSpec(z_out=4, seed=7)).graph
        iu = np.triu_indices(g.node_count, k=1)
        s = dense_similarity(g, measure)[iu]
        d = distance_matrix(g, measure)[iu]
        finite = np.isfinite(d)
        assert np.array_equal(finite, s > 0)
        order = np.argsort(s[finite], kind="stable")
        s_sorted, d_sorted = s[finite][order], d[finite][order]
        rises = np.diff(s_sorted) > 0
        assert np.all(np.diff(d_sorted)[rises] < 0)
        assert np.all(np.diff(d_sorted)[~rises] == 0)

    def test_complete_graph_all_ones(self):
        d = distance_matrix(TRIANGLE, "structure")
        assert np.array_equal(d, 1.0 - np.eye(3))

    def test_matches_pairwise_function(self):
        g = PATH3
        d = distance_matrix(g, "structure")
        for v in range(g.node_count):
            for w in range(g.node_count):
                if v != w:
                    assert d[v, w] == pytest.approx(
                        1.0 / structure_similarity(g, v, w), abs=1e-12
                    )

    def test_jaccard_cross_pair_is_infinite(self):
        d = distance_matrix(TWO_EDGES, "jaccard")
        assert d[0, 2] == np.inf

    @pytest.mark.parametrize("measure", MEASURES)
    def test_symmetric_zero_diagonal_at_least_one(self, measure):
        g = generate_gn(GnSpec(z_out=4, seed=2)).graph
        d = distance_matrix(g, measure)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        off = d[~np.eye(g.node_count, dtype=bool)]
        assert off.min() >= 1.0 - 1e-12

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="unknown measure"):
            distance_matrix(TRIANGLE, "minkowski")

    def test_low_diversity_on_clear_benchmark(self):
        # near-regular structure yields very few distinct values across the
        # 128 * 127 / 2 = 8128 node pairs: order tens, not thousands
        g = generate_gn(GnSpec(z_out=2, seed=1)).graph
        d = distance_matrix(g, "structure")
        iu = np.triu_indices(g.node_count, k=1)
        distinct = np.unique(np.round(d[iu], 12)).size
        assert iu[0].size == 8128
        assert distinct < 100


class TestDistancePeakMemory:
    """The distances are written once: the n x n result plus the sparse count."""

    @pytest.fixture(scope="class")
    def lfr_graph(self):
        return generate_lfr(LfrSpec(n=2000, mu=0.3, seed=0)).graph

    @pytest.mark.parametrize("measure", MEASURES)
    def test_peak_is_under_one_and_three_quarter_arrays(self, lfr_graph, measure):
        n = lfr_graph.node_count
        tracemalloc.start()
        try:
            prepared_distances(lfr_graph, measure)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 8 * n * n
