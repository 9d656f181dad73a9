import math

import numpy as np
import pytest

from isofdp import (
    Graph,
    GnSpec,
    detect_communities,
    distance_rows,
    generate_gn,
    load_edge_list,
)
from isofdp.isomap import _BLOCK_ROWS
from isofdp.pipeline import prepared_distances
from isofdp.similarity import MEASURES

from conftest import (
    REFERENCE_GRAPHS,
    dense_rows,
    dense_similarity,
    full_rows,
    reference_count_entries,
    reference_distances,
    traced_peak,
)

TRIANGLE = load_edge_list("0 1\n1 2\n2 0")
PATH3 = load_edge_list("a b\nb c")
TWO_EDGES = load_edge_list("0 1\n2 3")


class TestStructureSimilarity:
    def test_triangle_adjacent_pair_is_one(self):
        assert full_rows(distance_rows(TRIANGLE, "structure"))[0, 1] == 1.0

    def test_path_end_pair(self):
        # N(a) = {a, b}, N(b) = {a, b, c}: overlap 2 of sqrt(2 * 3)
        expected = math.sqrt(6) / 2
        d = full_rows(distance_rows(PATH3, "structure"))
        assert d[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_disjoint_closed_neighborhoods(self):
        assert full_rows(distance_rows(TWO_EDGES, "structure"))[0, 2] == np.inf

    def test_self_similarity_is_one(self):
        # the count's diagonal entries hold 1/s(v, v) before the blocks zero it
        source = distance_rows(PATH3, "structure")
        rows = np.repeat(np.arange(PATH3.node_count), np.diff(source.row_ptr))
        diagonal = source.columns == rows
        assert np.count_nonzero(diagonal) == PATH3.node_count
        assert np.all(source.values[diagonal] == 1.0)

    def test_symmetry(self):
        g = generate_gn(GnSpec(z_out=5, seed=9)).graph
        source = distance_rows(g, "structure")
        rows = np.repeat(np.arange(g.node_count), np.diff(source.row_ptr))
        cols = source.columns
        by_pair = dict(zip(zip(rows.tolist(), cols.tolist()), source.values.tolist()))
        assert all(by_pair[v, u] == d for (u, v), d in by_pair.items())


BLOCK_GRAPHS = {
    **REFERENCE_GRAPHS,
    "gn_isolated": Graph.from_edges(131, generate_gn(GnSpec(z_out=3, seed=4)).graph.edge_array),
    # padded blocks with isolated rows: jaccard's 1.0 between them
    "path_isolated": Graph.from_edges(24, [(i, i + 1) for i in range(19)]),
}


class TestDistanceRows:
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS) + ["lesmis"])
    def test_bytes_match_the_reciprocal_of_the_dense_reference(self, name, measure, request):
        g = request.getfixturevalue("lesmis_graph") if name == "lesmis" else REFERENCE_GRAPHS[name]
        d = full_rows(distance_rows(g, measure))
        assert d.tobytes() == reference_distances(g, measure).tobytes()

    @pytest.mark.parametrize("measure", MEASURES)
    def test_matches_the_masked_reciprocal(self, measure):
        g = generate_gn(GnSpec(z_out=6, seed=2)).graph
        d = full_rows(distance_rows(g, measure))
        assert d.tobytes() == reference_distances(g, measure).tobytes()

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
    def test_every_block_matches_the_dense_reference(self, name, measure):
        # ragged 7-row blocks
        g = BLOCK_GRAPHS[name]
        source, want = distance_rows(g, measure), reference_distances(g, measure)
        n = g.node_count
        for lo in range(0, n, 7):
            hi = min(lo + 7, n)
            assert dense_rows(source, np.arange(lo, hi)).tobytes() == want[lo:hi].tobytes()

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
    def test_entries_are_the_finite_distances_off_the_diagonal(self, name, measure):
        # ragged 7-row blocks, read in order and gathered in a shuffled order
        g = BLOCK_GRAPHS[name]
        source, want = distance_rows(g, measure), reference_distances(g, measure)
        np.fill_diagonal(want, np.inf)
        n = g.node_count
        rng = np.random.default_rng(0)
        for lo in range(0, n, 7):
            for rows in (np.arange(lo, min(lo + 7, n)), rng.permutation(np.arange(lo, min(lo + 7, n)))):
                vals, cols = source.entries(rows, 3)
                assert vals.shape == cols.shape and 3 <= vals.shape[1] <= n
                r, at = np.nonzero(vals < np.inf)
                got = np.full((vals.shape[0], n), np.inf)
                got[r, cols[r, at]] = vals[r, at]
                assert np.count_nonzero(got < np.inf) == r.size  # each one once
                assert got.tobytes() == want[rows].tobytes()

    @pytest.mark.parametrize("measure", MEASURES)
    def test_empty_input(self, measure):
        assert full_rows(distance_rows(Graph.from_edges(0, []), measure)).shape == (0, 0)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_strictly_antitone_on_finite_values(self, measure):
        g = generate_gn(GnSpec(z_out=4, seed=7)).graph
        iu = np.triu_indices(g.node_count, k=1)
        s = dense_similarity(g, measure)[iu]
        d = full_rows(distance_rows(g, measure))[iu]
        finite = np.isfinite(d)
        assert np.array_equal(finite, s > 0)
        order = np.argsort(s[finite], kind="stable")
        s_sorted, d_sorted = s[finite][order], d[finite][order]
        rises = np.diff(s_sorted) > 0
        assert np.all(np.diff(d_sorted)[rises] < 0)
        assert np.all(np.diff(d_sorted)[~rises] == 0)

    def test_complete_graph_all_ones(self):
        d = full_rows(distance_rows(TRIANGLE, "structure"))
        assert np.array_equal(d, 1.0 - np.eye(3))

    def test_matches_pairwise_function(self):
        d = full_rows(distance_rows(PATH3, "structure"))
        np.testing.assert_allclose(d, reference_distances(PATH3, "structure"), rtol=0, atol=1e-12)

    def test_jaccard_cross_pair_is_infinite(self):
        d = full_rows(distance_rows(TWO_EDGES, "jaccard"))
        assert d[0, 2] == np.inf

    @pytest.mark.parametrize("measure", MEASURES)
    def test_symmetric_zero_diagonal_at_least_one(self, measure):
        g = generate_gn(GnSpec(z_out=4, seed=2)).graph
        d = full_rows(distance_rows(g, measure))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        off = d[~np.eye(g.node_count, dtype=bool)]
        assert off.min() >= 1.0 - 1e-12

    @pytest.mark.parametrize("measure", ["minkowski", "euclidean", "hamming"])
    def test_unknown_measure(self, measure):
        with pytest.raises(ValueError, match="unknown measure") as raised:
            distance_rows(TRIANGLE, measure)
        assert str(MEASURES) in str(raised.value)

    def test_low_diversity_on_clear_benchmark(self):
        # near-regular structure yields very few distinct values across the
        # 128 * 127 / 2 = 8128 node pairs: order tens, not thousands
        g = generate_gn(GnSpec(z_out=2, seed=1)).graph
        d = full_rows(distance_rows(g, "structure"))
        iu = np.triu_indices(g.node_count, k=1)
        distinct = np.unique(np.round(d[iu], 12)).size
        assert iu[0].size == 8128
        assert distinct < 100


def count_entries(g, measure):
    """Entries of the sparse shared-neighbor count behind a measure."""
    return distance_rows(g, measure).values.size


class TestCountEntries:
    """Each entry's distance, written a chunk of rows at a time over the float count,
    is the whole int64 product's, byte for byte."""

    @staticmethod
    def assert_entries_match(g, measure):
        source = distance_rows(g, measure)
        row_ptr, columns, values = reference_count_entries(g, measure)
        assert source.row_ptr.tobytes() == row_ptr.tobytes()
        assert source.columns.tobytes() == columns.tobytes()
        assert source.values.dtype == np.float64
        assert source.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
    def test_reference_graphs(self, name, measure):
        # with jaccard's isolated nodes and the diagonal entries
        self.assert_entries_match(REFERENCE_GRAPHS[name], measure)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_lfr_graph(self, lfr_graph, measure):
        # n=2000: several chunks of rows, the last one short
        self.assert_entries_match(lfr_graph, measure)


class TestDistancePeakMemory:
    """No n x n array: the sparse count, one chunk's arrays over its entries, one block."""

    @pytest.mark.parametrize("measure", MEASURES)
    def test_peak_is_linear_in_the_count(self, lfr_graph, measure):
        n = lfr_graph.node_count
        peak = traced_peak(prepared_distances, lfr_graph, measure)
        # 12 bytes an entry for the count, the float adjacency, one chunk's
        # arrays over its entries
        assert peak <= 16 * count_entries(lfr_graph, measure) + 8 * _BLOCK_ROWS * n

    def test_whole_pipeline_peak_is_the_distance_stage(self, lfr_graph):
        # every later stage holds less than the count: landmark rows, blocks
        n = lfr_graph.node_count
        peak = traced_peak(detect_communities, lfr_graph, knn=10, dim=16)
        assert peak <= 16 * count_entries(lfr_graph, "structure") + 8 * _BLOCK_ROWS * n
