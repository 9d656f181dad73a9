import hashlib
import sys

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import pdist, squareform

from isofdp import (
    Graph,
    GnSpec,
    LfrSpec,
    build_neighbor_graph,
    classical_mds,
    detect_communities,
    generate_gn,
    generate_lfr,
    geodesic_distances,
    prepared_distances,
)
from isofdp.isomap import (
    _BLOCK_ROWS,
    _RADIUS_SHRINK,
    LANDMARKS,
    NeighborGraph,
    _landmark_block,
    residual_variances,
)

from conftest import (
    ALL_FINITE,
    DISTANCE_GRAPHS,
    HUB_AND_PATH,
    REFERENCE_GRAPHS,
    disjoint_cliques_graph,
    distance_source,
    edge_set,
    erdos_renyi,
    floyd_warshall,
    full_rows,
    neighbor_graph_matrix,
    random_connected_graph,
    reference_bridge,
    reference_distances,
    reference_neighbor_graph,
    traced_peak,
)


def with_isolated(g, count):
    """``g`` plus ``count`` isolated nodes at the end."""
    return Graph.from_edges(g.node_count + count, g.edges)


SPLIT_GRAPHS = {
    "two_k5_isolated": with_isolated(disjoint_cliques_graph([5, 5])[0], 1),
    "three_k5": disjoint_cliques_graph([5, 5, 5])[0],
    "k4_k6_k8_isolated3": with_isolated(disjoint_cliques_graph([4, 6, 8])[0], 3),
    "gn_isolated4": with_isolated(generate_gn(GnSpec(z_out=4, seed=0)).graph, 4),
    # a wheel and a friendship graph, all finite inside and inf between, and 2
    # isolated nodes: only bridges join the groups
    "wheel_friendship_isolated2": with_isolated(
        Graph.from_edges(
            15,
            np.vstack(
                [REFERENCE_GRAPHS["wheel"].edge_array, REFERENCE_GRAPHS["friendship"].edge_array + 8]
            ),
        ),
        2,
    ),
    # every group two nodes, and 2 isolated: the k-NN graph is the pairs alone
    "matching6_isolated2": Graph.from_edges(14, [(2 * i, 2 * i + 1) for i in range(6)]),
    # Petersen and K3,3, all finite inside, and an isolated node
    "petersen_k33_isolated": with_isolated(
        Graph.from_edges(
            16, np.vstack([REFERENCE_GRAPHS["petersen"].edge_array, REFERENCE_GRAPHS["k33"].edge_array + 10])
        ),
        1,
    ),
    # a star, a 9-cycle and a path: groups of one shape each, different widths
    "star_cycle9_path": Graph.from_edges(
        25,
        np.vstack(
            [
                REFERENCE_GRAPHS["star"].edge_array,
                REFERENCE_GRAPHS["cycle9"].edge_array + 8,
                REFERENCE_GRAPHS["path"].edge_array + 17,
            ]
        ),
    ),
    # many components of every size, from a sparse G(n, p)
    "er50_sparse": erdos_renyi(50, 0.03, 2),
}


# the k-NN tests' graphs and a few benchmark graphs
SYMMETRY_GRAPHS = {
    **DISTANCE_GRAPHS,
    **SPLIT_GRAPHS,
    "gn_zout1": generate_gn(GnSpec(z_out=1, seed=0)).graph,
    "gn_zout8": generate_gn(GnSpec(z_out=8, seed=1)).graph,
    "lfr_mu0.1": generate_lfr(LfrSpec(n=500, mu=0.1, seed=0)).graph,
    "lfr_mu0.6": generate_lfr(LfrSpec(n=1000, mu=0.6, seed=1)).graph,
}


def line_distance_matrix(positions):
    pos = np.asarray(positions, dtype=float)[:, None]
    return squareform(pdist(pos))


def grouped_distances(rng, groups, size, split=False):
    """Distances over ``groups`` groups of ``size`` nodes, in shuffled node order.

    Inside a group they are 1 or 2. Between groups a and b they are 3 plus
    the bit length of ``a ^ b``, so every pair of groups at one level ties,
    and joining the groups takes one minimum-spanning-forest round per level.
    With ``split`` the groups below ``groups // 2`` have no distance to the
    others: inf, NaN or -inf.
    """
    n = groups * size
    group = np.repeat(np.arange(groups), size)
    cross = np.array([3 + int(a ^ b).bit_length() for a in group for b in group])
    d = np.where(group[:, None] == group, rng.integers(1, 3, size=(n, n)), cross.reshape(n, n))
    d = np.triu(d, 1).astype(float)
    d += d.T
    np.fill_diagonal(d, 0.0)
    if split:
        apart = (group[:, None] < groups // 2) != (group < groups // 2)
        d[apart] = rng.choice([np.inf, np.nan, -np.inf], size=np.count_nonzero(apart))
    perm = rng.permutation(n)
    return d[np.ix_(perm, perm)]


class TestBuildNeighborGraph:
    def test_symmetric_one_nn_on_three_points(self):
        d = line_distance_matrix([0.0, 1.0, 2.0])
        ng = build_neighbor_graph(distance_source(d), 1)
        assert {(u, v) for u, v, _ in edge_set(ng)} == {(0, 1), (1, 2)}

    @pytest.mark.parametrize("k", [0, 4])
    def test_neighborhood_size_outside_1_to_n_minus_1_rejected(self, k):
        d = line_distance_matrix([0.0, 1.0, 3.0, 7.0])
        with pytest.raises(ValueError, match=rf"neighborhood size must be in 1\.\.3, got {k}"):
            build_neighbor_graph(distance_source(d), k)

    def test_full_neighborhood_gives_complete_graph(self):
        d = line_distance_matrix([0.0, 1.0, 3.0, 7.0])
        ng = build_neighbor_graph(distance_source(d), 3)
        assert len(ng.edges) == 6

    def test_disconnected_clumps_repaired_with_smallest_bridge(self):
        # two clumps of 3; all cross distances exceed intra distances
        points = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
        d = line_distance_matrix(points)
        ng = build_neighbor_graph(distance_source(d), 1)
        cross = [(u, v, w) for u, v, w in edge_set(ng) if u < 3 <= v]
        assert cross == [(2, 3, 8.0)]  # single smallest cross-clump edge

    def test_repair_ties_break_by_weight_then_endpoints(self):
        # k=1 leaves {0, 1} and {2, 3}; both cheapest cross pairs weigh 5,
        # and the repair takes the one with the smaller (u, v)
        d = np.array(
            [
                [0.0, 1.0, 9.0, 5.0],
                [1.0, 0.0, 5.0, 9.0],
                [9.0, 5.0, 0.0, 1.0],
                [5.0, 9.0, 1.0, 0.0],
            ]
        )
        ng = build_neighbor_graph(distance_source(d), 1)
        assert edge_set(ng) - {(0, 1, 1.0), (2, 3, 1.0)} == {(0, 3, 5.0)}

    def test_node_without_finite_partner_is_bridged(self):
        d = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, np.inf], [np.inf, np.inf, 0.0]])
        ng = build_neighbor_graph(distance_source(d), 1)
        assert edge_set(ng) == {(0, 1, 1.0), (0, 2, 2.0)}

    def test_groups_without_finite_distance_are_bridged(self):
        d = np.full((4, 4), np.inf)
        np.fill_diagonal(d, 0.0)
        d[0, 1] = d[1, 0] = 1.0
        d[2, 3] = d[3, 2] = 1.0
        ng = build_neighbor_graph(distance_source(d), 1)
        assert edge_set(ng) == {(0, 1, 1.0), (2, 3, 1.0), (0, 2, 2.0)}
        # the appended bridge is sorted in, as in ``Graph.edge_array``
        assert ng.edges.tolist() == [[0, 1], [0, 2], [2, 3]]
        assert ng.edges.dtype == np.int64 and ng.weights.dtype == np.float64
        assert not ng.edges.flags.writeable and not ng.weights.flags.writeable

    def test_bridge_hub_is_node_0_after_the_repair_joins_its_group(self):
        # k=1 leaves {0, 3}, {1, 5} and {2, 4}; the repair joins node 0's
        # group through (2, 3), and {1, 5} has no finite distance to it
        d = np.full((6, 6), np.inf)
        np.fill_diagonal(d, 0.0)
        for (u, v), w in {(0, 3): 1.0, (1, 5): 1.0, (2, 4): 1.0, (2, 3): 3.0,
                          (0, 2): 4.0, (0, 4): 5.0, (3, 4): 6.0}.items():
            d[u, v] = d[v, u] = w
        ng = build_neighbor_graph(distance_source(d), 1)
        assert edge_set(ng) == {
            (0, 3, 1.0), (1, 5, 1.0), (2, 4, 1.0), (2, 3, 3.0), (0, 1, 12.0)
        }

    def test_no_finite_distance_is_an_error(self):
        d = np.full((4, 4), np.inf)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(ValueError, match="no finite distances at all"):
            build_neighbor_graph(distance_source(d), 1)

    @pytest.mark.parametrize("name", sorted(SYMMETRY_GRAPHS))
    def test_distances_are_exactly_symmetric(self, name):
        # the repair takes each pair from either of its rows, by the same bytes
        d = full_rows(prepared_distances(SYMMETRY_GRAPHS[name]))
        assert d.tobytes() == d.T.tobytes()

    @pytest.mark.parametrize("name", sorted(SYMMETRY_GRAPHS))
    def test_distances_follow_a_relabelling(self, name):
        # a pair's distance reads only its count and its two degrees, so
        # renaming the nodes moves every distance with its pair, byte for byte
        g = SYMMETRY_GRAPHS[name]
        perm = np.random.default_rng(0).permutation(g.node_count)
        renamed = Graph.from_edges(g.node_count, perm[g.edge_array])
        d = full_rows(prepared_distances(g))
        assert full_rows(prepared_distances(renamed))[np.ix_(perm, perm)].tobytes() == d.tobytes()

    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("shape", sorted(SPLIT_GRAPHS))
    def test_bridges_match_bridging_the_matrix_first(self, shape, k):
        g = SPLIT_GRAPHS[shape]
        d = reference_distances(g)
        ref = build_neighbor_graph(distance_source(reference_bridge(d)), k)
        for given in (distance_source(d), prepared_distances(g)):
            ng = build_neighbor_graph(given, k)
            assert ng.edges.tobytes() == ref.edges.tobytes()
            assert ng.weights.tobytes() == ref.weights.tobytes()

    @pytest.mark.parametrize("block_rows", [7, 64])
    @pytest.mark.parametrize("name", sorted({**DISTANCE_GRAPHS, **SPLIT_GRAPHS}))
    def test_count_matches_the_dense_array(self, name, block_rows, monkeypatch):
        # the count's entries make the graph the dense array makes, top-k,
        # Boruvka rounds and bridges alike
        monkeypatch.setattr(sys.modules["isofdp.isomap"], "_BLOCK_ROWS", block_rows)
        g = {**DISTANCE_GRAPHS, **SPLIT_GRAPHS}[name]
        dense = distance_source(reference_distances(g))
        source = prepared_distances(g)
        for k in sorted({1, 3, min(10, g.node_count - 1)}):
            try:
                want = build_neighbor_graph(dense, k)
            except ValueError as err:  # the same error
                with pytest.raises(ValueError, match=str(err)):
                    build_neighbor_graph(source, k)
                continue
            got = build_neighbor_graph(source, k)
            assert got.edges.tobytes() == want.edges.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("name", ALL_FINITE)
    def test_all_finite_rows_are_joined_without_a_bridge(self, name, k):
        # every partner is a count entry, and each edge weighs its pair's distance
        g = REFERENCE_GRAPHS[name]
        n, source = g.node_count, prepared_distances(g)
        d = reference_distances(g)
        assert np.isfinite(d).all()
        assert np.all(np.diff(source.indptr) == n) and source.nnz == n * n
        ng = build_neighbor_graph(source, k)
        assert edge_set(ng) == reference_neighbor_graph(d, k)
        u, v = ng.edges.T
        assert ng.weights.tobytes() == d[u, v].tobytes()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", ["split", "all_finite"])
    def test_row_blocks_match_reference_neighbor_graph(self, shape, seed, monkeypatch):
        # small integer weights tie often; 7-row blocks split n = 40 unevenly
        monkeypatch.setattr(sys.modules["isofdp.isomap"], "_BLOCK_ROWS", 7)
        rng = np.random.default_rng(seed)
        n = 40
        d = np.triu(rng.integers(1, 6, size=(n, n)), 1).astype(float)
        d += d.T
        np.fill_diagonal(d, 0.0)
        if shape != "all_finite":  # no inf, as at diameter <= 2
            # inf entries leave some groups with no finite distance between them
            far = np.triu(rng.random((n, n)) < 0.8 + 0.03 * seed, 1)
            d[far | far.T] = np.inf
        for k in (1, 2, 5):  # k > 1 puts ties at the k-th boundary
            ng = build_neighbor_graph(distance_source(d), k)
            assert edge_set(ng) == reference_neighbor_graph(d, k)
            assert len(ng.edges) == len(edge_set(ng))

    def test_padded_and_dense_blocks_match_reference_neighbor_graph(self):
        # the leaves' count rows hold the hub and every leaf; the path's hold
        # a few nodes, tied pairwise at p - 1 and p + 1
        g = HUB_AND_PATH
        n, source = g.node_count, prepared_distances(g)
        # the k = 10 scan pads the first block to its longest row, a leaf's,
        # and the last, of path rows and isolated ones, to k + 1
        widths, last = np.diff(source.indptr), range(0, n, _BLOCK_ROWS)[-1]
        assert widths[:_BLOCK_ROWS].max() > 11 > widths[last:].max()
        d = reference_distances(g)
        for k in (1, 3, 10):
            ng = build_neighbor_graph(source, k)
            assert edge_set(ng) == reference_neighbor_graph(d, k)
            assert len(ng.edges) == len(edge_set(ng))

    @pytest.mark.parametrize("block_rows", [7, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_distances_that_tie_or_undercut_the_diagonal(self, seed, block_rows, monkeypatch):
        # the source's diagonal reads 1.0, as the count's does. Here the
        # first half's rows tie or undercut it, so it can be any of a row's
        # k + 1 nearest entries, and every pair with a node of the second
        # half is 1.0 farther, so those rows have no entry at or below it:
        # the scan must keep the k nearest off it either way
        monkeypatch.setattr(sys.modules["isofdp.isomap"], "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(seed)
        n = 30
        far = np.arange(n) >= n // 2
        d = rng.integers(1, 9, size=(n, n)) * 0.5 + (far[:, None] | far)
        d = np.triu(d, 1)
        d += d.T
        np.fill_diagonal(d, 0.0)
        for k in (1, 3, n - 2):
            ng = build_neighbor_graph(distance_source(d), k)
            assert edge_set(ng) == reference_neighbor_graph(d, k)
            assert len(ng.edges) == len(edge_set(ng))

    @pytest.mark.parametrize("block_rows", [7, 64])
    @pytest.mark.parametrize("groups, size", [(16, 4), (32, 3)])
    def test_repair_over_many_components(self, groups, size, block_rows, monkeypatch):
        isomap = sys.modules["isofdp.isomap"]
        monkeypatch.setattr(isomap, "_BLOCK_ROWS", block_rows)
        searches = []
        search = isomap.connected_components
        monkeypatch.setattr(
            isomap, "connected_components", lambda *a, **kw: searches.append(1) or search(*a, **kw)
        )
        rng = np.random.default_rng(groups)
        d = grouped_distances(rng, groups, size)
        ng = build_neighbor_graph(distance_source(d), size - 1)
        assert edge_set(ng) == reference_neighbor_graph(d, size - 1)
        # the k-NN graph is the groups, and each repair edge joins two
        assert np.count_nonzero(ng.weights > 3) == groups - 1
        # one search for the k-NN components, then one per round: each level
        # of groups takes a round, as each group's lightest way out is its twin
        assert len(searches) - 1 == groups.bit_length() - 1

    @pytest.mark.parametrize("block_rows", [7, 64])
    def test_repair_ends_with_groups_to_bridge(self, block_rows, monkeypatch):
        monkeypatch.setattr(sys.modules["isofdp.isomap"], "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(5)
        d = grouped_distances(rng, 16, 4, split=True)
        ng = build_neighbor_graph(distance_source(d), 3)
        assert edge_set(ng) == reference_neighbor_graph(d, 3)
        bridge = 2.0 * d[np.isfinite(d)].max()
        assert np.count_nonzero(ng.weights == bridge) == 1
        assert np.count_nonzero((ng.weights > 3) & (ng.weights < bridge)) == 14

    @pytest.mark.parametrize("k", [1, 10])
    @pytest.mark.parametrize("mu, seed", [(0.05, 0), (0.1, 1)])
    def test_repair_rounds_on_lfr_graphs(self, mu, seed, k, monkeypatch):
        # tight communities leave the k-NN graph in many components, joined
        # over several rounds; each round after the first re-reads only the
        # stale rows, here more of them than one group of rows holds
        isomap = sys.modules["isofdp.isomap"]
        reads = [[]]  # the sizes of the row groups read, split at each component search
        search = isomap.connected_components
        monkeypatch.setattr(
            isomap, "connected_components", lambda *a, **kw: reads.append([]) or search(*a, **kw)
        )
        csr_rows = isomap._csr_rows
        monkeypatch.setattr(
            isomap, "_csr_rows", lambda d, rows: reads[-1].append(rows.size) or csr_rows(d, rows)
        )
        g = generate_lfr(LfrSpec(n=1000, mu=mu, seed=seed)).graph
        ng = build_neighbor_graph(prepared_distances(g), k)
        assert edge_set(ng) == reference_neighbor_graph(reference_distances(g), k)
        # the k-NN scan, the k-NN search, then one search per round: the last
        # joins all. The scan and the first round read every block
        scan, *rounds, last = reads
        assert last == [] and len(rounds) >= 3
        n = g.node_count
        assert scan == rounds[0] == [min(_BLOCK_ROWS, n - lo) for lo in range(0, n, _BLOCK_ROWS)]
        assert max(len(groups) for groups in rounds[1:]) > 1
        assert all(size <= _BLOCK_ROWS for groups in rounds for size in groups)

    def test_distance_ties_break_to_smaller_index(self):
        d = np.array(
            [
                [0.0, 2.0, 2.0, 5.0],
                [2.0, 0.0, 5.0, 5.0],
                [2.0, 5.0, 0.0, 5.0],
                [5.0, 5.0, 5.0, 0.0],
            ]
        )
        ng = build_neighbor_graph(distance_source(d), 1)
        assert (0, 1) in {(u, v) for u, v, _ in edge_set(ng)}


# the LFR graphs (n=1000, seed 0) by mixing whose k-NN graphs the digest covers
# after the GN graphs z_out 1..8 (seed 0), and the digest's first 16 hex digits
KNN_DIGEST = ((0.2, 0.4, 0.6, 0.8), "f3201c050970282f")


def test_neighbor_graphs_keep_their_digest():
    # every edge and weight, byte for byte, across versions: the benchmark
    # graphs tie often at the k-th distance
    mixings, expected = KNN_DIGEST
    gn = [generate_gn(GnSpec(z_out=z_out, seed=0)).graph for z_out in range(1, 9)]
    lfr = [generate_lfr(LfrSpec(n=1000, mu=mu, seed=0)).graph for mu in mixings]
    h = hashlib.sha256()
    for g in gn + lfr:
        d = prepared_distances(g)
        for k in (1, 3, 10):
            ng = build_neighbor_graph(d, k)
            h.update(ng.edges.tobytes())
            h.update(ng.weights.tobytes())
    assert h.hexdigest()[:16] == expected


class TestNeighborGraphPeakMemory:
    def test_peak_is_a_few_blocks(self, lfr_graph):
        # every temporary is per block of rows: one int64 array over all the
        # count's entries (4.2 MB here) is over the bound by itself
        source = prepared_distances(lfr_graph)
        peak = traced_peak(build_neighbor_graph, source, 10)
        assert peak <= 4 * 8 * _BLOCK_ROWS * lfr_graph.node_count


class TestGeodesicDistances:
    def test_three_node_path(self):
        d = line_distance_matrix([0.0, 1.0, 2.0])
        ng = build_neighbor_graph(distance_source(d), 1)
        gd = geodesic_distances(ng)
        assert gd[0, 2] == pytest.approx(2.0, abs=1e-12)

    def test_matches_floyd_warshall_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n = int(rng.integers(10, 60))
            edges = random_connected_graph(rng, n, extra_edges=n)
            w = np.full((n, n), np.inf)
            np.fill_diagonal(w, 0.0)
            for (u, v), weight in edges.items():
                w[u, v] = w[v, u] = weight
            ng = build_neighbor_graph(distance_source(w), n - 1)
            gd = geodesic_distances(ng)
            expected = floyd_warshall(neighbor_graph_matrix(ng))
            assert np.max(np.abs(gd - expected)) <= 1e-9

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(3)
        edges = random_connected_graph(rng, 40, extra_edges=60)
        w = np.full((40, 40), np.inf)
        np.fill_diagonal(w, 0.0)
        for (u, v), weight in edges.items():
            w[u, v] = w[v, u] = weight
        gd = geodesic_distances(build_neighbor_graph(distance_source(w), 10))
        for _ in range(300):
            i, j, k = rng.integers(0, 40, size=3)
            assert gd[i, k] <= gd[i, j] + gd[j, k] + 1e-12

    def test_geodesics_dominated_by_direct_edges(self):
        rng = np.random.default_rng(8)
        edges = random_connected_graph(rng, 25, extra_edges=40)
        w = np.full((25, 25), np.inf)
        np.fill_diagonal(w, 0.0)
        for (u, v), weight in edges.items():
            w[u, v] = w[v, u] = weight
        ng = build_neighbor_graph(distance_source(w), 6)
        gd = geodesic_distances(ng)
        for u, v, weight in edge_set(ng):
            assert gd[u, v] <= weight + 1e-12


def weight_matrix(n, edges):
    """Dense weights of an undirected graph, inf where no edge."""
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for (u, v), weight in edges.items():
        w[u, v] = w[v, u] = weight
    return w


def all_pairs_reference(ng):
    """Exactly symmetric all-pairs Dijkstra with a zero diagonal."""
    n = ng.node_count
    dist = dijkstra(csr_matrix((ng.weights, tuple(ng.edges.T)), shape=(n, n)), directed=False)
    dist = np.minimum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def max_min_reference(full, count):
    """Landmarks picked one at a time: node 0, then the first node farthest
    from every landmark so far, until ``count`` or every node is at distance 0."""
    chosen = [0]
    while len(chosen) < count:
        near = [min(full[c, x] for c in chosen) for x in range(full.shape[0])]
        if max(near) == 0:
            break
        chosen.append(near.index(max(near)))
    return chosen


def landmark_block(gd, landmarks):
    block = gd[:, landmarks]
    block = np.minimum(block, block.T)
    np.fill_diagonal(block, 0.0)
    return block


class TestLandmarkGeodesics:
    def test_max_min_order_with_distance_ties(self):
        # on the unit 8-cycle node 0's farthest is 4; then 2 and 6 tie at 2,
        # then the four odd nodes tie at 1: both ties go to the smaller index
        cycle = {(i, (i + 1) % 8): 1.0 for i in range(8)}
        ng = build_neighbor_graph(distance_source(weight_matrix(8, cycle)), 2)
        gd = geodesic_distances(ng, 5)
        expected = floyd_warshall(weight_matrix(8, cycle))[[0, 4, 2, 6, 1]]
        assert gd.tolist() == expected.tolist()

    @pytest.mark.parametrize("landmarks", [2, 5, 17])
    def test_rows_match_floyd_warshall(self, landmarks):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = int(rng.integers(20, 80))
            w = weight_matrix(n, random_connected_graph(rng, n, extra_edges=2 * n))
            ng = build_neighbor_graph(distance_source(w), int(rng.integers(3, 8)))
            full = floyd_warshall(neighbor_graph_matrix(ng))
            gd = geodesic_distances(ng, landmarks)
            assert gd.shape == (landmarks, n)
            assert np.max(np.abs(gd - full[max_min_reference(full, landmarks)])) <= 1e-9

    def test_selection_stops_once_every_node_coincides_with_a_landmark(self):
        # two groups of three nodes at distance 0 from each other, 1 apart
        d = np.ones((6, 6))
        d[:3, :3] = d[3:, 3:] = 0.0
        gd = geodesic_distances(build_neighbor_graph(distance_source(d), 2), 4)
        assert gd.tolist() == [[0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0]]
        # two landmarks place the groups 1 apart, each on one point
        assert np.allclose(pdist(classical_mds(gd, 2).coordinates), squareform(d), atol=1e-12)

    @pytest.mark.parametrize("extra", [0, 1, 100])
    def test_all_pairs_when_landmarks_cover_every_node(self, extra):
        labeled = generate_gn(GnSpec(z_out=5, seed=2))
        ng = build_neighbor_graph(prepared_distances(labeled.graph), 24)
        n = ng.node_count
        assert n <= LANDMARKS  # so the default makes every node a landmark too
        w = csr_matrix((ng.weights, tuple(ng.edges.T)), shape=(n, n))
        raw = dijkstra(w, directed=False).tobytes()
        expected = all_pairs_reference(ng).tobytes()
        for gd in (geodesic_distances(ng, n + extra), geodesic_distances(ng)):
            # the rows as Dijkstra returns them; the MDS input is made symmetric
            assert gd.tobytes() == raw
            assert _landmark_block(gd).tobytes() == expected

    @pytest.mark.parametrize("landmarks", [20, LANDMARKS])
    def test_landmark_block_is_exactly_symmetric_with_zero_diagonal(self, landmarks):
        # 20 landmark rows, or all 128: both blocks read unequal bytes across
        # the diagonal of the rows
        labeled = generate_gn(GnSpec(z_out=5, seed=2))
        gd = geodesic_distances(build_neighbor_graph(prepared_distances(labeled.graph), 24), landmarks)
        sources = gd[:, gd.argmin(axis=1)]
        assert sources.tobytes() != sources.T.tobytes()
        block = _landmark_block(gd)
        assert block.shape == (len(gd), len(gd))
        assert block.tobytes() == block.T.tobytes()
        assert not np.diagonal(block).any()

    @pytest.mark.parametrize("landmarks", [1, 0, -3])
    def test_fewer_than_two_landmarks_rejected(self, landmarks):
        ng = build_neighbor_graph(distance_source(line_distance_matrix(np.arange(6.0))), 1)
        with pytest.raises(ValueError, match="landmarks"):
            geodesic_distances(ng, landmarks)

    def test_disconnected_graph_rejected_on_both_paths(self):
        ng = NeighborGraph(6, np.array([[0, 1], [2, 3], [4, 5]]), np.ones(3))
        for landmarks in (2, 6):
            with pytest.raises(ValueError, match="disconnected"):
                geodesic_distances(ng, landmarks)


# the LFR graphs (seed 0, k=10) whose 128 max-min landmark rows, selected
# with no early stop, the digest covers, and its first 16 hex digits
FULL_LANDMARK_DIGEST = (((1000, 0.1), (3000, 0.3)), "aa17ee2ca6123665")


def lfr_neighbor_graph(n, mu):
    return build_neighbor_graph(prepared_distances(generate_lfr(LfrSpec(n=n, mu=mu, seed=0)).graph), 10)


def covering_radii(full):
    """The covering radius of each prefix of the landmark rows ``full``: entry i for the first i + 1."""
    return np.minimum.accumulate(full, axis=0).max(axis=1)


class TestLandmarkCount:
    @pytest.fixture(scope="class")
    def graphs(self):
        graphs, expected = FULL_LANDMARK_DIGEST
        return {key: lfr_neighbor_graph(*key) for key in graphs}

    def test_rows_are_a_prefix_of_the_full_selection(self, graphs):
        # a floor of 128 stops nothing, so those are the rows every graph
        # above 128 nodes took before the count came from the data
        _, expected = FULL_LANDMARK_DIGEST
        h = hashlib.sha256()
        for ng in graphs.values():
            full = geodesic_distances(ng, dim=LANDMARKS // 2)
            h.update(full.tobytes())
            gd = geodesic_distances(ng)
            assert len(gd) < LANDMARKS
            assert gd.tobytes() == full[: len(gd)].tobytes()
        assert h.hexdigest()[:16] == expected

    def test_stops_at_the_first_count_past_the_floor_with_a_quarter_radius(self, graphs):
        for ng in graphs.values():
            full = geodesic_distances(ng, dim=LANDMARKS // 2)
            radii = covering_radii(full)
            floor = LANDMARKS // _RADIUS_SHRINK
            shrunk = radii <= radii[0] / _RADIUS_SHRINK
            assert len(geodesic_distances(ng)) == floor + np.argmax(shrunk[floor - 1 :])

    def test_floor_holds_where_the_radius_shrinks_sooner(self, graphs):
        ng = graphs[1000, 0.1]
        radii = covering_radii(geodesic_distances(ng, dim=LANDMARKS // 2))
        assert radii[18] <= radii[0] / _RADIUS_SHRINK  # 19 landmarks would do
        assert len(geodesic_distances(ng)) == LANDMARKS // _RADIUS_SHRINK
        assert len(geodesic_distances(ng, dim=16)) == 32
        assert len(geodesic_distances(ng, dim=40)) == 80

    def test_well_mixed_graph_keeps_every_landmark(self):
        assert len(geodesic_distances(lfr_neighbor_graph(1000, 0.7))) == LANDMARKS

    @pytest.mark.parametrize("landmarks", [2, 17, 32])
    def test_a_cap_at_or_below_the_floor_is_the_count(self, graphs, landmarks):
        ng = graphs[1000, 0.1]
        full = geodesic_distances(ng, dim=LANDMARKS // 2)
        assert geodesic_distances(ng, landmarks).tobytes() == full[:landmarks].tobytes()

    def test_wide_embedding_is_not_truncated(self):
        labeled = generate_lfr(LfrSpec(n=1000, mu=0.3, seed=0))
        emb = detect_communities(labeled.graph, knn=10, dim=40).embedding
        assert (emb.dim, emb.truncated, emb.landmarks) == (40, False, 80)
        # dim + 1 landmarks span 40 axes, but some of them come out negative
        short = classical_mds(geodesic_distances(lfr_neighbor_graph(1000, 0.3), 41, dim=40), 40)
        assert short.truncated and short.landmarks == 41


class TestLandmarkMds:
    def points_geodesics(self, n=60, p=3, landmarks=12, seed=21):
        points = np.random.default_rng(seed).normal(size=(n, p))
        # the complete graph: every geodesic is the straight-line distance
        ng = build_neighbor_graph(distance_source(squareform(pdist(points))), n - 1)
        return points, geodesic_distances(ng, landmarks)

    def test_triangulated_landmarks_match_block_mds(self):
        labeled = generate_lfr(LfrSpec(n=300, mu=0.3, min_community=15, max_community=40, seed=4))
        gd = geodesic_distances(build_neighbor_graph(prepared_distances(labeled.graph), 10), 24)
        landmarks = gd.argmin(axis=1)  # every weight is positive: 0 only at the source
        emb = classical_mds(gd, 8)
        block = classical_mds(landmark_block(gd, landmarks), 8)
        assert emb.eigenvalues.tobytes() == block.eigenvalues.tobytes()
        assert emb.coordinates.shape == (300, 8)
        scale = np.abs(block.coordinates).max()
        assert np.max(np.abs(emb.coordinates[landmarks] - block.coordinates)) <= 1e-9 * scale

    def test_rows_from_any_sources_in_any_order(self):
        _, gd = self.points_geodesics(landmarks=60)
        sources = np.random.default_rng(5).permutation(60)[:15]
        emb = classical_mds(gd[sources], 3)
        block = classical_mds(landmark_block(gd[sources], sources), 3)
        assert emb.eigenvalues.tobytes() == block.eigenvalues.tobytes()
        scale = np.abs(block.coordinates).max()
        assert np.max(np.abs(emb.coordinates[sources] - block.coordinates)) <= 1e-9 * scale

    @pytest.mark.parametrize("rows", ["no_zero", "tall", "square_no_zero"])
    def test_rows_that_are_not_geodesic_rejected(self, rows):
        _, gd = self.points_geodesics()
        block = landmark_block(gd, gd.argmin(axis=1))
        # every row of the tall input is 0 somewhere, but there are more rows
        # than columns; row i of a square input is from node i, so 0 at i
        d = {
            "no_zero": gd + 1.0,
            "tall": np.vstack([block, block[:1]]),
            "square_no_zero": block + 1.0,
        }[rows]
        for call in (lambda: classical_mds(d, 2), lambda: residual_variances(d, 2)):
            with pytest.raises(ValueError, match="geodesic rows"):
                call()

    def test_euclidean_points_reconstructed_exactly(self):
        points, gd = self.points_geodesics()
        emb = classical_mds(gd, 3)
        want = pdist(points)
        assert np.max(np.abs(pdist(emb.coordinates) - want)) <= 1e-9 * want.max()

    def test_residual_variances_read_the_landmark_block(self):
        _, gd = self.points_geodesics(p=5)
        block = landmark_block(gd, gd.argmin(axis=1))
        assert residual_variances(gd, 6) == residual_variances(block, 6)
        assert residual_variances(gd, 6)[4][1] <= 1e-9  # 5 dims hold 5-dimensional data

    def test_coincident_nodes_give_one_zero_column(self):
        # every node at distance 0 from node 0: one landmark row
        gd = geodesic_distances(build_neighbor_graph(distance_source(np.zeros((6, 6))), 2), 3)
        assert gd.shape == (1, 6)
        emb = classical_mds(gd, 2)
        assert emb.coordinates.shape == (6, 1) and not emb.coordinates.any()

    def test_detection_repeats_exactly(self):
        labeled = generate_lfr(LfrSpec(n=300, mu=0.3, min_community=15, max_community=40, seed=4))
        assert labeled.graph.node_count > LANDMARKS  # the landmark path
        first, second = (detect_communities(labeled.graph, knn=10, dim=8) for _ in "ab")
        assert first.k_star == second.k_star
        assert first.partition.labels.tobytes() == second.partition.labels.tobytes()
        assert first.embedding.coordinates.tobytes() == second.embedding.coordinates.tobytes()


class TestClassicalMds:
    def test_collinear_points_reconstructed_exactly(self):
        d = line_distance_matrix([0.0, 1.0, 2.0])
        emb = classical_mds(d, 1)
        rebuilt = squareform(pdist(emb.coordinates))
        assert np.max(np.abs(rebuilt - d)) <= 1e-9

    def test_equilateral_triple(self):
        d = np.ones((3, 3)) - np.eye(3)
        emb = classical_mds(d, 2)
        rebuilt = squareform(pdist(emb.coordinates))
        assert np.max(np.abs(rebuilt - d)) <= 1e-9

    def test_degenerate_all_zero_distances(self):
        emb = classical_mds(np.zeros((4, 4)), 2)
        assert np.allclose(emb.coordinates, 0.0)
        assert emb.coordinates.shape == (4, 1)
        assert emb.truncated

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            classical_mds(np.zeros((4, 4)), 0)

    def test_truncation_flag_when_rank_is_short(self):
        d = line_distance_matrix([0.0, 1.0, 2.0, 3.0])
        emb = classical_mds(d, 3)
        assert emb.dim == 1
        assert emb.truncated
        assert emb.requested_dim == 3

    def test_eigenvalues_nonincreasing_and_positive(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(12, 3))
        d = squareform(pdist(points))
        emb = classical_mds(d, 3)
        assert np.all(np.diff(emb.eigenvalues) <= 1e-12)
        assert np.all(emb.eigenvalues > 0)

    def test_sign_convention_largest_entry_nonnegative(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(10, 2))
        emb = classical_mds(squareform(pdist(points)), 2)
        for j in range(emb.dim):
            col = emb.coordinates[:, j]
            assert col[np.argmax(np.abs(col))] >= 0

    def test_eigenpair_residuals(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(15, 3))
        d = squareform(pdist(points))
        emb = classical_mds(d, 3)
        # rebuild the centered Gram matrix independently and check residuals
        n = d.shape[0]
        center = np.eye(n) - np.ones((n, n)) / n
        gram = -0.5 * center @ (d * d) @ center
        for j, value in enumerate(emb.eigenvalues):
            vec = emb.coordinates[:, j] / np.sqrt(value)
            residual = np.linalg.norm(gram @ vec - value * vec)
            assert residual <= 1e-8 * np.linalg.norm(gram)

    def test_exactness_on_random_point_sets(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(p + 2, 30))
            points = rng.normal(size=(n, p))
            d = squareform(pdist(points))
            emb = classical_mds(d, p)
            rebuilt = squareform(pdist(emb.coordinates))
            assert np.max(np.abs(rebuilt - d)) <= 1e-9


def reference_mds(d, dim):
    """Classical MDS by a full ``eigh`` of the centered Gram matrix.

    Returns the positive eigenvalues (above 1e-10 of the largest, descending)
    and the coordinates of the top ``dim`` of them.
    """
    n = d.shape[0]
    center = np.eye(n) - np.ones((n, n)) / n
    gram = -0.5 * center @ (d * d) @ center
    vals, vecs = np.linalg.eigh((gram + gram.T) / 2)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    keep = min(dim, int(np.sum(vals > 1e-10 * max(vals[0], 0.0))))
    return vals[:keep], vecs[:, :keep] * np.sqrt(vals[:keep])


def assert_matches_reference(d, dim):
    emb = classical_mds(d, dim)
    vals, coords = reference_mds(d, dim)
    assert emb.dim == vals.size
    assert np.max(np.abs(emb.eigenvalues - vals) / vals) <= 1e-9
    # a basis inside a (near-)degenerate eigenspace is arbitrary: compare
    # what the embedding means, its pairwise distances
    got, want = pdist(emb.coordinates), pdist(coords)
    assert np.max(np.abs(got - want)) <= 1e-9 * want.max()


class TestPartialEigensolver:
    def test_matches_full_eigh_on_random_point_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = int(rng.integers(2, 8))
            n = int(rng.integers(20, 120))
            d = squareform(pdist(rng.normal(size=(n, p))))
            assert_matches_reference(d, int(rng.integers(1, p + 1)))

    @pytest.mark.parametrize("z_out, seed", [(1, 8), (6, 5)])
    def test_matches_full_eigh_on_nearly_degenerate_top_spectrum(self, z_out, seed):
        # the four groups sit near the corners of a tetrahedron; on these two
        # graphs two of the top three eigenvalues lie within 1% of the largest
        labeled = generate_gn(GnSpec(z_out=z_out, seed=seed))
        gd = geodesic_distances(
            build_neighbor_graph(prepared_distances(labeled.graph), 24)
        )
        vals, _ = reference_mds(gd, 3)
        assert np.min(-np.diff(vals)) < 0.01 * vals[0]
        assert_matches_reference(gd, 3)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_dim_at_least_n_minus_one(self, n):
        rng = np.random.default_rng(n)
        d = squareform(pdist(rng.normal(size=(n, n))))
        for dim in (n - 1, n, n + 3):
            emb = classical_mds(d, dim)
            assert emb.dim == n - 1
            assert emb.truncated == (dim > n - 1)
            assert_matches_reference(d, dim)
            rebuilt = squareform(pdist(emb.coordinates))
            assert np.max(np.abs(rebuilt - d)) <= 1e-9 * d.max()

    def test_rank_one_path_metric_truncates_to_one_column(self):
        d = line_distance_matrix(np.arange(20.0))
        emb = classical_mds(d, 16)
        assert emb.truncated
        assert emb.dim == 1
        rebuilt = squareform(pdist(emb.coordinates))
        assert np.max(np.abs(rebuilt - d)) <= 1e-9 * d.max()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 21, 34, 40, 128, 130])
    def test_repeated_top_eigenvalue_gives_every_pair_asked_for(self, n, dim):
        # the simplex: all n - 1 positive eigenvalues are 1/2, and a subset
        # solve returns none or only some of the top dim at these sizes
        emb = classical_mds(1.0 - np.eye(n), dim)
        assert emb.dim == dim and not emb.truncated
        np.testing.assert_allclose(emb.eigenvalues, 0.5, rtol=1e-12)
        # orthogonal columns of squared norm 1/2, whatever basis of the eigenspace
        gram = emb.coordinates.T @ emb.coordinates
        np.testing.assert_allclose(gram, 0.5 * np.eye(dim), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, dim", [(1, 1), (2, 3), (30, 16)])
    def test_all_zero_distances_give_one_zero_column(self, n, dim):
        emb = classical_mds(np.zeros((n, n)), dim)
        assert emb.coordinates.shape == (n, 1)
        assert not emb.coordinates.any()
        assert emb.eigenvalues.tolist() == [0.0]

    @pytest.mark.parametrize("shape", ["points", "path"])
    def test_repeated_calls_are_byte_identical(self, shape):
        # the path metric has rank 1, so all but one of the 16 requested
        # eigenvalues are rounding noise around 0, and the threshold must
        # drop the same ones on every call
        if shape == "points":
            d = squareform(pdist(np.random.default_rng(12).normal(size=(80, 6))))
        else:
            d = line_distance_matrix(np.arange(40.0))
        first, second = classical_mds(d, 16), classical_mds(d, 16)
        assert first.coordinates.tobytes() == second.coordinates.tobytes()
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()

    def test_no_decomposed_block_is_wider_than_the_landmarks(self, monkeypatch):
        # the premise of a dense solve: at most LANDMARKS wide, it costs what
        # a partial one did, with every node a landmark (GN) and with the 32
        # landmarks the LFR graph's communities need
        isomap = sys.modules["isofdp.isomap"]
        eigh, shapes = isomap.eigh, []

        def recording_eigh(b, **kwargs):
            shapes.append(b.shape)
            return eigh(b, **kwargs)

        monkeypatch.setattr(isomap, "eigh", recording_eigh)
        detect_communities(generate_gn(GnSpec(z_out=4, seed=0)).graph, knn=24, dim=3)
        detect_communities(generate_lfr(LfrSpec(n=1000, mu=0.3, seed=0)).graph, knn=10, dim=16)
        assert shapes == [(128, 128), (32, 32)]

    def test_residual_variances_match_full_spectrum(self):
        rng = np.random.default_rng(13)
        d = squareform(pdist(rng.normal(size=(25, 5))))
        vals, _ = reference_mds(d, 25)
        expected = [1.0 - vals[:p].sum() / vals.sum() for p in range(1, 7)]
        got = [r for _, r in residual_variances(d, 6)]
        assert np.allclose(got, expected, rtol=0, atol=1e-12)


class TestIsomapPipeline:
    def test_line_ordering_recovered(self):
        positions = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        d = line_distance_matrix(positions)
        emb = classical_mds(geodesic_distances(build_neighbor_graph(distance_source(d), 2)), 1)
        coord = emb.coordinates[:, 0]
        order = np.argsort(coord)
        assert order.tolist() in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0])

    def test_prepared_distances_rejects_tiny_graphs(self):
        with pytest.raises(ValueError, match="4 nodes"):
            prepared_distances(Graph.from_edges(3, [(0, 1), (1, 2)]))

    def test_benchmark_embedding_separates_planted_groups(self):
        labeled = generate_gn(GnSpec(z_out=1, seed=0))
        dmat = prepared_distances(labeled.graph)
        emb = classical_mds(geodesic_distances(build_neighbor_graph(dmat, 24)), 3)
        score = _silhouette(emb.coordinates, labeled.truth)
        assert score > 0.5

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(12, 3))
        d = squareform(pdist(points))
        perm = rng.permutation(12)
        emb = classical_mds(geodesic_distances(build_neighbor_graph(distance_source(d), 4)), 2)
        permuted = distance_source(d[np.ix_(perm, perm)])
        emb_perm = classical_mds(geodesic_distances(build_neighbor_graph(permuted, 4)), 2)
        assert np.allclose(emb_perm.coordinates[np.argsort(perm)], emb.coordinates, atol=1e-8)

    def test_residual_variances_shrink(self):
        rng = np.random.default_rng(10)
        points = rng.normal(size=(20, 4))
        d = squareform(pdist(points))
        pairs = residual_variances(d, 4)
        residuals = [r for _, r in pairs]
        assert residuals == sorted(residuals, reverse=True)
        assert residuals[-1] <= 1e-9  # 4 dims capture 4-dimensional data


def _silhouette(points, labels):
    """Mean silhouette coefficient; direct per-point evaluation."""
    dist = squareform(pdist(points))
    scores = []
    for i in range(points.shape[0]):
        same = (labels == labels[i]) & (np.arange(len(labels)) != i)
        a = dist[i, same].mean()
        b = min(
            dist[i, labels == other].mean() for other in set(labels) if other != labels[i]
        )
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))
