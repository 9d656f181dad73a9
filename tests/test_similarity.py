import math
import sys

import numpy as np
import pytest

from scipy.sparse import csr_matrix

from isofdp import (
    Graph,
    GnSpec,
    detect_communities,
    generate_gn,
    load_edge_list,
    prepared_distances,
)
from isofdp.isomap import _BLOCK_ROWS, _csr_rows

from conftest import (
    ALL_FINITE,
    DISTANCE_GRAPHS,
    REFERENCE_GRAPHS,
    dense_rows,
    dense_similarity,
    full_rows,
    reference_count_entries,
    reference_distances,
    traced_peak,
)

# a triangle and a 3-node path, each with an isolated node 3: the stage
# rejects graphs under 4 nodes, and a node with no neighbor moves no other
# pair's similarity
TRIANGLE = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0)])
PATH3 = Graph.from_edges(4, [(0, 1), (1, 2)])
TWO_EDGES = load_edge_list("0 1\n2 3")


class TestStructureSimilarity:
    def test_triangle_adjacent_pair_is_one(self):
        assert full_rows(prepared_distances(TRIANGLE))[0, 1] == 1.0

    def test_path_end_pair(self):
        # N(a) = {a, b}, N(b) = {a, b, c}: overlap 2 of sqrt(2 * 3)
        expected = math.sqrt(6) / 2
        d = full_rows(prepared_distances(PATH3))
        assert d[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_disjoint_closed_neighborhoods(self):
        assert full_rows(prepared_distances(TWO_EDGES))[0, 2] == np.inf

    @pytest.mark.parametrize("name", sorted(DISTANCE_GRAPHS))
    def test_self_similarity_is_one(self, name):
        # the count's diagonal entries hold 1/s(v, v), and every entry is
        # finite and at least that: the k-NN graph's bridge reads the largest
        # entry as the largest finite distance
        g = DISTANCE_GRAPHS[name]
        d = prepared_distances(g)
        rows = np.repeat(np.arange(g.node_count), np.diff(d.indptr))
        diagonal = d.indices == rows
        assert np.count_nonzero(diagonal) == g.node_count
        assert np.all(d.data[diagonal] == 1.0)
        assert np.all(d.data >= 1.0) and np.isfinite(d.data).all()

    def test_symmetry(self):
        g = generate_gn(GnSpec(z_out=5, seed=9)).graph
        d = prepared_distances(g)
        rows = np.repeat(np.arange(g.node_count), np.diff(d.indptr))
        by_pair = dict(zip(zip(rows.tolist(), d.indices.tolist()), d.data.tolist()))
        assert all(by_pair[v, u] == d for (u, v), d in by_pair.items())


BLOCK_GRAPHS = {
    **DISTANCE_GRAPHS,
    "gn_isolated": Graph.from_edges(131, generate_gn(GnSpec(z_out=3, seed=4)).graph.edge_array),
    # padded blocks with isolated rows
    "path_isolated": Graph.from_edges(24, [(i, i + 1) for i in range(19)]),
}


class TestPreparedDistances:
    @pytest.mark.parametrize("name", sorted(DISTANCE_GRAPHS) + ["lesmis"])
    def test_bytes_match_the_reciprocal_of_the_dense_reference(self, name, request):
        g = request.getfixturevalue("lesmis_graph") if name == "lesmis" else DISTANCE_GRAPHS[name]
        d = full_rows(prepared_distances(g))
        assert d.tobytes() == reference_distances(g).tobytes()

    def test_matches_the_masked_reciprocal(self):
        g = generate_gn(GnSpec(z_out=6, seed=2)).graph
        d = full_rows(prepared_distances(g))
        assert d.tobytes() == reference_distances(g).tobytes()

    @pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
    def test_every_block_matches_the_dense_reference(self, name):
        # 7-row blocks, the last one short
        g = BLOCK_GRAPHS[name]
        source, want = prepared_distances(g), reference_distances(g)
        n = g.node_count
        for lo in range(0, n, 7):
            hi = min(lo + 7, n)
            assert dense_rows(source, np.arange(lo, hi)).tobytes() == want[lo:hi].tobytes()

    @pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
    def test_row_reader_entries_are_the_finite_distances_and_the_diagonal(self, name):
        # 7-row blocks, read in order and gathered in a shuffled order: each
        # row's entries are its finite distances and its diagonal's 1.0, each
        # column once
        g = BLOCK_GRAPHS[name]
        source, want = prepared_distances(g), reference_distances(g)
        np.fill_diagonal(want, 1.0)
        n = g.node_count
        rng = np.random.default_rng(0)
        for lo in range(0, n, 7):
            for rows in (np.arange(lo, min(lo + 7, n)), rng.permutation(np.arange(lo, min(lo + 7, n)))):
                vals, cols, starts = _csr_rows(source, rows)
                r = np.repeat(np.arange(rows.size), np.diff(starts, append=vals.size))
                got = np.full((rows.size, n), np.inf)
                got[r, cols] = vals
                assert np.count_nonzero(got < np.inf) == vals.size  # each one once
                assert got.tobytes() == want[rows].tobytes()

    @pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
    def test_row_reader_gives_the_count_rows(self, name):
        # a contiguous run of rows comes back as read-only views of the
        # count, permuted, strided or no rows as a gather, each row's entries
        # from its start
        g = BLOCK_GRAPHS[name]
        source, n = prepared_distances(g), g.node_count
        rng = np.random.default_rng(0)
        for rows in (np.arange(n), np.arange(1, n - 1), rng.permutation(n), np.arange(n)[::2], np.arange(0)):
            vals, cols, starts = _csr_rows(source, rows)
            assert vals.size == cols.size == np.sum(np.diff(source.indptr)[rows])
            for r, lo, hi in zip(rows, starts, np.append(starts[1:], vals.size)):
                span = slice(source.indptr[r], source.indptr[r + 1])
                assert vals[lo:hi].tobytes() == source.data[span].tobytes()
                assert cols[lo:hi].tobytes() == source.indices[span].tobytes()
            contiguous = rows.size > 0 and bool(np.all(np.diff(rows) == 1))
            assert np.shares_memory(vals, source.data) == contiguous
            assert np.shares_memory(cols, source.indices) == contiguous
            assert vals.flags.writeable == cols.flags.writeable == (not contiguous)
        # the views leave the matrix itself writable
        assert source.data.flags.writeable and source.indices.flags.writeable

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (0, [], "graph too small: need at least 4 nodes"),
            (1, [], "graph too small: need at least 4 nodes"),
            (2, [(0, 1)], "graph too small: need at least 4 nodes"),
            (3, [], "graph too small: need at least 4 nodes"),
            (3, [(0, 1), (1, 2)], "graph too small: need at least 4 nodes"),
            (3, [(0, 1), (1, 2), (2, 0)], "graph too small: need at least 4 nodes"),
            # every pair off the diagonal would be inf: no node is told apart
            (4, [], "graph has no edges"),
            (5, [], "graph has no edges"),
            (100, [], "graph has no edges"),
        ],
    )
    def test_degenerate_graphs_are_rejected(self, n, edges, message):
        with pytest.raises(ValueError) as err:
            prepared_distances(Graph.from_edges(n, edges))
        assert str(err.value) == message

    def test_strictly_antitone_on_finite_values(self):
        g = generate_gn(GnSpec(z_out=4, seed=7)).graph
        iu = np.triu_indices(g.node_count, k=1)
        s = dense_similarity(g)[iu]
        d = full_rows(prepared_distances(g))[iu]
        finite = np.isfinite(d)
        assert np.array_equal(finite, s > 0)
        order = np.argsort(s[finite], kind="stable")
        s_sorted, d_sorted = s[finite][order], d[finite][order]
        rises = np.diff(s_sorted) > 0
        assert np.all(np.diff(d_sorted)[rises] < 0)
        assert np.all(np.diff(d_sorted)[~rises] == 0)

    def test_complete_graph_all_ones(self):
        d = full_rows(prepared_distances(TRIANGLE))
        assert np.array_equal(d[:3, :3], 1.0 - np.eye(3))
        assert np.all(d[3, :3] == np.inf) and np.all(d[:3, 3] == np.inf)

    def test_matches_pairwise_function(self):
        d = full_rows(prepared_distances(PATH3))
        np.testing.assert_allclose(d, reference_distances(PATH3), rtol=0, atol=1e-12)

    def test_symmetric_zero_diagonal_at_least_one(self):
        g = generate_gn(GnSpec(z_out=4, seed=2)).graph
        d = full_rows(prepared_distances(g))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        off = d[~np.eye(g.node_count, dtype=bool)]
        assert off.min() >= 1.0 - 1e-12

    def test_low_diversity_on_clear_benchmark(self):
        # near-regular structure yields very few distinct values across the
        # 128 * 127 / 2 = 8128 node pairs: order tens, not thousands
        g = generate_gn(GnSpec(z_out=2, seed=1)).graph
        d = full_rows(prepared_distances(g))
        iu = np.triu_indices(g.node_count, k=1)
        distinct = np.unique(np.round(d[iu], 12)).size
        assert iu[0].size == 8128
        assert distinct < 100


def count_entries(g):
    """Entries of the sparse shared-neighbor count."""
    return prepared_distances(g).nnz


class TestCountEntries:
    """The distances are the product's own CSR arrays, in its order: each entry's
    distance, written a block of rows at a time over the float count, is the
    whole int64 product's, byte for byte."""

    @staticmethod
    def assert_entries_match(g):
        d = prepared_distances(g)
        indptr, indices, values = reference_count_entries(g)
        assert type(d) is csr_matrix and d.shape == (g.node_count, g.node_count)
        assert d.indptr.tobytes() == indptr.tobytes()
        assert d.indices.tobytes() == indices.tobytes()
        # 12 bytes an entry
        assert d.indices.dtype == np.int32 and d.data.dtype == np.float64
        assert d.data.tobytes() == values.tobytes()

    @pytest.mark.parametrize("name", sorted(DISTANCE_GRAPHS))
    def test_reference_graphs(self, name):
        # with the isolated nodes' and the other diagonal entries
        self.assert_entries_match(DISTANCE_GRAPHS[name])

    @pytest.mark.parametrize("block_rows", [1, 5])
    @pytest.mark.parametrize("name", sorted(DISTANCE_GRAPHS))
    def test_reference_graphs_in_small_blocks(self, name, block_rows, monkeypatch):
        # a block a row, or 5-row blocks, the last one short, some of them
        # isolated rows with only their diagonal entry
        monkeypatch.setattr(sys.modules["isofdp.similarity"], "_BLOCK_ROWS", block_rows)
        self.assert_entries_match(DISTANCE_GRAPHS[name])

    def test_lfr_graph(self, lfr_graph):
        # n=2000: several blocks of rows, the last one short
        self.assert_entries_match(lfr_graph)


def test_all_finite_lists_the_graphs_with_every_distance_finite():
    # the graphs of diameter at most 2 and no other reference graph
    finite = {name for name, g in REFERENCE_GRAPHS.items() if np.isfinite(reference_distances(g)).all()}
    assert finite == set(ALL_FINITE)


class TestDistancePeakMemory:
    """No n x n array: the sparse count and one block's arrays over its entries."""

    def test_peak_is_linear_in_the_count(self, lfr_graph):
        n = lfr_graph.node_count
        peak = traced_peak(prepared_distances, lfr_graph)
        # 12 bytes an entry for the count, the float adjacency, one block's
        # arrays over its entries
        assert peak <= 16 * count_entries(lfr_graph) + 8 * _BLOCK_ROWS * n

    def test_whole_pipeline_peak_is_the_distance_stage(self, lfr_graph):
        # every later stage holds less than the count: landmark rows, blocks
        n = lfr_graph.node_count
        peak = traced_peak(detect_communities, lfr_graph, knn=10, dim=16)
        assert peak <= 16 * count_entries(lfr_graph) + 8 * _BLOCK_ROWS * n
