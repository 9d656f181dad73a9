import sys

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from isofdp import (
    Graph,
    GnSpec,
    build_neighbor_graph,
    classical_mds,
    generate_gn,
    geodesic_distances,
    isomap,
    similarity_matrix,
    to_distance,
)
from isofdp.isomap import residual_variances
from isofdp.similarity import MEASURES

from conftest import (
    disjoint_cliques_graph,
    floyd_warshall,
    neighbor_graph_matrix,
    random_connected_graph,
    reference_bridge,
    reference_neighbor_graph,
)


def with_isolated(g, count):
    """``g`` plus ``count`` isolated nodes at the end."""
    return Graph.from_edges(g.node_count + count, g.edges)


SPLIT_GRAPHS = {
    "two_k5_isolated": with_isolated(disjoint_cliques_graph([5, 5])[0], 1),
    "three_k5": disjoint_cliques_graph([5, 5, 5])[0],
    "k4_k6_k8_isolated3": with_isolated(disjoint_cliques_graph([4, 6, 8])[0], 3),
    "gn_isolated4": with_isolated(generate_gn(GnSpec(z_out=4, seed=0)).graph, 4),
}


def line_distance_matrix(positions):
    pos = np.asarray(positions, dtype=float)[:, None]
    return squareform(pdist(pos))


class TestBuildNeighborGraph:
    def test_symmetric_one_nn_on_three_points(self):
        d = line_distance_matrix([0.0, 1.0, 2.0])
        ng = build_neighbor_graph(d, 1)
        assert {(u, v) for u, v, _ in ng.edges} == {(0, 1), (1, 2)}

    def test_full_neighborhood_gives_complete_graph(self):
        d = line_distance_matrix([0.0, 1.0, 3.0, 7.0])
        ng = build_neighbor_graph(d, 3)
        assert len(ng.edges) == 6

    def test_disconnected_clumps_repaired_with_smallest_bridge(self):
        # two clumps of 3; all cross distances exceed intra distances
        points = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
        d = line_distance_matrix(points)
        ng = build_neighbor_graph(d, 1)
        cross = [(u, v, w) for u, v, w in ng.edges if u < 3 <= v]
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
        ng = build_neighbor_graph(d, 1)
        assert set(ng.edges) - {(0, 1, 1.0), (2, 3, 1.0)} == {(0, 3, 5.0)}

    def test_node_without_finite_partner_is_bridged(self):
        d = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, np.inf], [np.inf, np.inf, 0.0]])
        ng = build_neighbor_graph(d, 1)
        assert set(ng.edges) == {(0, 1, 1.0), (0, 2, 2.0)}

    def test_groups_without_finite_distance_are_bridged(self):
        d = np.full((4, 4), np.inf)
        np.fill_diagonal(d, 0.0)
        d[0, 1] = d[1, 0] = 1.0
        d[2, 3] = d[3, 2] = 1.0
        ng = build_neighbor_graph(d, 1)
        assert set(ng.edges) == {(0, 1, 1.0), (2, 3, 1.0), (0, 2, 2.0)}
        assert all(type(u) is int and type(v) is int for u, v, _ in ng.edges)

    def test_bridge_hub_is_node_0_after_the_repair_joins_its_group(self):
        # k=1 leaves {0, 3}, {1, 5} and {2, 4}; the repair joins node 0's
        # group through (2, 3), and {1, 5} has no finite distance to it
        d = np.full((6, 6), np.inf)
        np.fill_diagonal(d, 0.0)
        for (u, v), w in {(0, 3): 1.0, (1, 5): 1.0, (2, 4): 1.0, (2, 3): 3.0,
                          (0, 2): 4.0, (0, 4): 5.0, (3, 4): 6.0}.items():
            d[u, v] = d[v, u] = w
        ng = build_neighbor_graph(d, 1)
        assert set(ng.edges) == {
            (0, 3, 1.0), (1, 5, 1.0), (2, 4, 1.0), (2, 3, 3.0), (0, 1, 12.0)
        }

    def test_no_finite_distance_is_an_error(self):
        d = np.full((4, 4), np.inf)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(ValueError, match="no finite distances at all"):
            build_neighbor_graph(d, 1)

    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("shape", sorted(SPLIT_GRAPHS))
    def test_bridges_match_bridging_the_matrix_first(self, shape, measure, k):
        d = to_distance(similarity_matrix(SPLIT_GRAPHS[shape], measure))
        ng = build_neighbor_graph(d, k)
        assert ng.edges == build_neighbor_graph(reference_bridge(d), k).edges

    @pytest.mark.parametrize("seed", range(6))
    def test_repair_in_row_blocks_matches_whole_matrix_kruskal(self, seed, monkeypatch):
        # small integer weights tie often; inf entries leave some groups with
        # no finite distance between them; 7-row blocks split n = 40 unevenly
        monkeypatch.setattr(sys.modules["isofdp.isomap"], "_BLOCK_ROWS", 7)
        rng = np.random.default_rng(seed)
        n = 40
        upper = np.triu(rng.integers(1, 6, size=(n, n)).astype(float), 1)
        upper[np.triu(rng.random((n, n)) < 0.8 + 0.03 * seed, 1)] = np.inf
        d = upper + upper.T
        for k in (1, 2):
            ng = build_neighbor_graph(d, k)
            assert set(ng.edges) == reference_neighbor_graph(d, k)
            assert len(ng.edges) == len(set(ng.edges))

    def test_distance_ties_break_to_smaller_index(self):
        d = np.array(
            [
                [0.0, 2.0, 2.0, 5.0],
                [2.0, 0.0, 5.0, 5.0],
                [2.0, 5.0, 0.0, 5.0],
                [5.0, 5.0, 5.0, 0.0],
            ]
        )
        ng = build_neighbor_graph(d, 1)
        assert (0, 1) in {(u, v) for u, v, _ in ng.edges}


class TestGeodesicDistances:
    def test_three_node_path(self):
        d = line_distance_matrix([0.0, 1.0, 2.0])
        ng = build_neighbor_graph(d, 1)
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
            ng = build_neighbor_graph(w, n - 1)
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
        gd = geodesic_distances(build_neighbor_graph(w, 10))
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
        ng = build_neighbor_graph(w, 6)
        gd = geodesic_distances(ng)
        for u, v, weight in ng.edges:
            assert gd[u, v] <= weight + 1e-12


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
            build_neighbor_graph(to_distance(similarity_matrix(labeled.graph)), 24)
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

    @pytest.mark.parametrize("n, dim", [(1, 1), (2, 3), (30, 16)])
    def test_all_zero_distances_give_one_zero_column(self, n, dim):
        emb = classical_mds(np.zeros((n, n)), dim)
        assert emb.coordinates.shape == (n, 1)
        assert not emb.coordinates.any()
        assert emb.eigenvalues.tolist() == [0.0]

    @pytest.mark.parametrize("shape", ["points", "path"])
    def test_repeated_calls_are_byte_identical(self, shape):
        # the path metric has rank 1, so the solver must restart from fresh
        # vectors once its Krylov space is exhausted; those are seeded too
        if shape == "points":
            d = squareform(pdist(np.random.default_rng(12).normal(size=(80, 6))))
        else:
            d = line_distance_matrix(np.arange(40.0))
        first, second = classical_mds(d, 16), classical_mds(d, 16)
        assert first.coordinates.tobytes() == second.coordinates.tobytes()
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()

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
        emb = isomap(d, neighborhood_size=2, dim=1)
        coord = emb.coordinates[:, 0]
        order = np.argsort(coord)
        assert order.tolist() in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0])

    def test_rejects_tiny_inputs(self):
        with pytest.raises(ValueError, match="4 nodes"):
            isomap(np.zeros((2, 2)), 1, 1)

    def test_benchmark_embedding_separates_planted_groups(self):
        labeled = generate_gn(GnSpec(z_out=1, seed=0))
        dmat = to_distance(similarity_matrix(labeled.graph))
        emb = isomap(dmat, 24, 3)
        score = _silhouette(emb.coordinates, labeled.truth)
        assert score > 0.5

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(12, 3))
        d = squareform(pdist(points))
        perm = rng.permutation(12)
        emb = isomap(d, 4, 2)
        emb_perm = isomap(d[np.ix_(perm, perm)], 4, 2)
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
