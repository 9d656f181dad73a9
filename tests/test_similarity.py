import math
import sys

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

from conftest import (
    ALL_FINITE,
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
        assert full_rows(distance_rows(TRIANGLE))[0, 1] == 1.0

    def test_path_end_pair(self):
        # N(a) = {a, b}, N(b) = {a, b, c}: overlap 2 of sqrt(2 * 3)
        expected = math.sqrt(6) / 2
        d = full_rows(distance_rows(PATH3))
        assert d[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_disjoint_closed_neighborhoods(self):
        assert full_rows(distance_rows(TWO_EDGES))[0, 2] == np.inf

    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
    def test_self_similarity_is_one(self, name):
        # the count's diagonal entries hold 1/s(v, v) before the blocks zero
        # it, and every entry is finite and at least that: the k-NN graph's
        # bridge reads the largest entry as the largest finite distance
        g = REFERENCE_GRAPHS[name]
        source = distance_rows(g)
        rows = np.repeat(np.arange(g.node_count), np.diff(source.row_ptr))
        diagonal = source.columns == rows
        assert np.count_nonzero(diagonal) == g.node_count
        assert np.all(source.values[diagonal] == 1.0)
        assert np.all(source.values >= 1.0) and np.isfinite(source.values).all()

    def test_symmetry(self):
        g = generate_gn(GnSpec(z_out=5, seed=9)).graph
        source = distance_rows(g)
        rows = np.repeat(np.arange(g.node_count), np.diff(source.row_ptr))
        cols = source.columns
        by_pair = dict(zip(zip(rows.tolist(), cols.tolist()), source.values.tolist()))
        assert all(by_pair[v, u] == d for (u, v), d in by_pair.items())


BLOCK_GRAPHS = {
    **REFERENCE_GRAPHS,
    "gn_isolated": Graph.from_edges(131, generate_gn(GnSpec(z_out=3, seed=4)).graph.edge_array),
    # padded blocks with isolated rows
    "path_isolated": Graph.from_edges(24, [(i, i + 1) for i in range(19)]),
}


class TestDistanceRows:
    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS) + ["lesmis"])
    def test_bytes_match_the_reciprocal_of_the_dense_reference(self, name, request):
        g = request.getfixturevalue("lesmis_graph") if name == "lesmis" else REFERENCE_GRAPHS[name]
        d = full_rows(distance_rows(g))
        assert d.tobytes() == reference_distances(g).tobytes()

    def test_matches_the_masked_reciprocal(self):
        g = generate_gn(GnSpec(z_out=6, seed=2)).graph
        d = full_rows(distance_rows(g))
        assert d.tobytes() == reference_distances(g).tobytes()

    @pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
    def test_every_block_matches_the_dense_reference(self, name):
        # ragged 7-row blocks
        g = BLOCK_GRAPHS[name]
        source, want = distance_rows(g), reference_distances(g)
        n = g.node_count
        for lo in range(0, n, 7):
            hi = min(lo + 7, n)
            assert dense_rows(source, np.arange(lo, hi)).tobytes() == want[lo:hi].tobytes()

    @pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
    def test_ragged_entries_are_the_finite_distances_and_the_diagonal(self, name):
        # ragged 7-row blocks, read in order and gathered in a shuffled order:
        # each row's entries are its finite distances and its diagonal's 1.0,
        # each column once
        g = BLOCK_GRAPHS[name]
        source, want = distance_rows(g), reference_distances(g)
        np.fill_diagonal(want, 1.0)
        n = g.node_count
        rng = np.random.default_rng(0)
        for lo in range(0, n, 7):
            for rows in (np.arange(lo, min(lo + 7, n)), rng.permutation(np.arange(lo, min(lo + 7, n)))):
                vals, cols, starts = source.ragged(rows)
                r = np.repeat(np.arange(rows.size), np.diff(starts, append=vals.size))
                got = np.full((rows.size, n), np.inf)
                got[r, cols] = vals
                assert np.count_nonzero(got < np.inf) == vals.size  # each one once
                assert got.tobytes() == want[rows].tobytes()

    @pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
    def test_ragged_rows_are_the_count_rows(self, name):
        # a contiguous run of rows comes back as read-only views of the
        # count, any other rows as a gather, each row's entries from its start
        g = BLOCK_GRAPHS[name]
        source, n = distance_rows(g), g.node_count
        rng = np.random.default_rng(0)
        for rows in (np.arange(n), np.arange(1, n - 1), rng.permutation(n), np.arange(n)[::2], np.arange(0)):
            vals, cols, starts = source.ragged(rows)
            assert vals.size == cols.size == np.sum(np.diff(source.row_ptr)[rows])
            for r, lo, hi in zip(rows, starts, np.append(starts[1:], vals.size)):
                span = slice(source.row_ptr[r], source.row_ptr[r + 1])
                assert vals[lo:hi].tobytes() == source.values[span].tobytes()
                assert cols[lo:hi].tobytes() == source.columns[span].tobytes()
            contiguous = rows.size > 0 and bool(np.all(np.diff(rows) == 1))
            assert np.shares_memory(vals, source.values) == contiguous
            assert np.shares_memory(cols, source.columns) == contiguous
            assert vals.flags.writeable == cols.flags.writeable == (not contiguous)

    def test_empty_input(self):
        assert full_rows(distance_rows(Graph.from_edges(0, []))).shape == (0, 0)

    def test_strictly_antitone_on_finite_values(self):
        g = generate_gn(GnSpec(z_out=4, seed=7)).graph
        iu = np.triu_indices(g.node_count, k=1)
        s = dense_similarity(g)[iu]
        d = full_rows(distance_rows(g))[iu]
        finite = np.isfinite(d)
        assert np.array_equal(finite, s > 0)
        order = np.argsort(s[finite], kind="stable")
        s_sorted, d_sorted = s[finite][order], d[finite][order]
        rises = np.diff(s_sorted) > 0
        assert np.all(np.diff(d_sorted)[rises] < 0)
        assert np.all(np.diff(d_sorted)[~rises] == 0)

    def test_complete_graph_all_ones(self):
        d = full_rows(distance_rows(TRIANGLE))
        assert np.array_equal(d, 1.0 - np.eye(3))

    def test_matches_pairwise_function(self):
        d = full_rows(distance_rows(PATH3))
        np.testing.assert_allclose(d, reference_distances(PATH3), rtol=0, atol=1e-12)

    def test_symmetric_zero_diagonal_at_least_one(self):
        g = generate_gn(GnSpec(z_out=4, seed=2)).graph
        d = full_rows(distance_rows(g))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        off = d[~np.eye(g.node_count, dtype=bool)]
        assert off.min() >= 1.0 - 1e-12

    def test_low_diversity_on_clear_benchmark(self):
        # near-regular structure yields very few distinct values across the
        # 128 * 127 / 2 = 8128 node pairs: order tens, not thousands
        g = generate_gn(GnSpec(z_out=2, seed=1)).graph
        d = full_rows(distance_rows(g))
        iu = np.triu_indices(g.node_count, k=1)
        distinct = np.unique(np.round(d[iu], 12)).size
        assert iu[0].size == 8128
        assert distinct < 100


def count_entries(g):
    """Entries of the sparse shared-neighbor count."""
    return distance_rows(g).values.size


class TestCountEntries:
    """Each entry's distance, written a chunk of rows at a time over the float count,
    is the whole int64 product's, byte for byte."""

    @staticmethod
    def assert_entries_match(g):
        source = distance_rows(g)
        row_ptr, columns, values = reference_count_entries(g)
        assert source.row_ptr.tobytes() == row_ptr.tobytes()
        assert source.columns.tobytes() == columns.tobytes()
        assert source.values.dtype == np.float64
        assert source.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
    def test_reference_graphs(self, name):
        # with the isolated nodes' and the other diagonal entries
        self.assert_entries_match(REFERENCE_GRAPHS[name])

    @pytest.mark.parametrize("chunk_rows", [1, 5])
    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
    def test_reference_graphs_in_small_chunks(self, name, chunk_rows, monkeypatch):
        # a chunk a row, or ragged 5-row chunks, some of them isolated rows
        # with only their diagonal entry
        monkeypatch.setattr(sys.modules["isofdp.similarity"], "_CHUNK_ROWS", chunk_rows)
        self.assert_entries_match(REFERENCE_GRAPHS[name])

    def test_lfr_graph(self, lfr_graph):
        # n=2000: several chunks of rows, the last one short
        self.assert_entries_match(lfr_graph)


def test_all_finite_lists_the_graphs_with_every_distance_finite():
    # the graphs of diameter at most 2 and no other reference graph
    finite = {name for name, g in REFERENCE_GRAPHS.items() if np.isfinite(reference_distances(g)).all()}
    assert finite == set(ALL_FINITE)


class TestDistancePeakMemory:
    """No n x n array: the sparse count, one chunk's arrays over its entries, one block."""

    def test_peak_is_linear_in_the_count(self, lfr_graph):
        n = lfr_graph.node_count
        peak = traced_peak(prepared_distances, lfr_graph)
        # 12 bytes an entry for the count, the float adjacency, one chunk's
        # arrays over its entries
        assert peak <= 16 * count_entries(lfr_graph) + 8 * _BLOCK_ROWS * n

    def test_whole_pipeline_peak_is_the_distance_stage(self, lfr_graph):
        # every later stage holds less than the count: landmark rows, blocks
        n = lfr_graph.node_count
        peak = traced_peak(detect_communities, lfr_graph, knn=10, dim=16)
        assert peak <= 16 * count_entries(lfr_graph) + 8 * _BLOCK_ROWS * n
