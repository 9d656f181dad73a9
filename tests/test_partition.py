import numpy as np
import pytest
from scipy.spatial.distance import pdist

from isofdp import (
    GnSpec,
    Graph,
    LfrSpec,
    Partition,
    assign,
    compute_profile,
    detect_communities,
    generate_gn,
    generate_lfr,
    load_edge_list,
    partition_density,
    select_dc,
    select_k,
)
from isofdp.density_peaks import DensityProfile
from isofdp.partition import normalize_labels

from conftest import (
    disjoint_cliques_graph,
    reference_community_densities,
    reference_select_k,
    tie_heavy_grids,
)


def random_partitioned_graph(rng, n, k):
    labels = rng.integers(0, k, size=n)
    # force every community nonempty
    labels[:k] = np.arange(k)
    pairs = set()
    for _ in range(3 * n):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        pairs.add((int(u), int(v)))
    return Graph.from_edges(n, pairs), Partition.from_labels(labels)


class TestPartitionType:
    def test_from_labels_requires_contiguity(self):
        with pytest.raises(ValueError):
            Partition.from_labels([0, 2, 2])

    def test_from_labels_rejects_an_empty_labeling(self):
        with pytest.raises(ValueError, match="empty labeling"):
            Partition.from_labels([])

    def test_sizes_and_internal_edges(self):
        g = load_edge_list("0 1\n1 2\n3 4")
        part = Partition.from_labels([0, 0, 0, 1, 1])
        assert part.sizes.tolist() == [3, 2]
        assert part.internal_edge_counts(g).tolist() == [2, 1]

    def test_internal_edges_match_edge_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g, part = random_partitioned_graph(rng, 40, int(rng.integers(2, 8)))
            expected = np.zeros(part.k, dtype=np.int64)
            for u, v in g.edges:
                if part.labels[u] == part.labels[v]:
                    expected[part.labels[u]] += 1
            assert part.internal_edge_counts(g).tolist() == expected.tolist()


def normalize_labels_loop(labels):
    """Reference: relabel by first occurrence, one element at a time."""
    seen = {}
    return np.array([seen.setdefault(lab, len(seen)) for lab in labels], dtype=np.int64)


class TestNormalizeLabels:
    def test_first_occurrence_order(self):
        assert normalize_labels([5, 3, 5, 9, 3]).tolist() == [0, 1, 0, 2, 1]

    @pytest.mark.parametrize("kind", ["contiguous", "sparse", "string"])
    def test_matches_loop_reference(self, kind):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            labels = rng.integers(0, int(rng.integers(1, 40)), size=n)
            if kind == "sparse":
                labels = rng.choice(rng.integers(-10**9, 10**9, size=60), size=n)
            elif kind == "string":
                labels = np.array([f"c{lab}" for lab in labels])
            got = normalize_labels(labels)
            assert got.dtype == np.int64
            assert got.tolist() == normalize_labels_loop(labels.tolist()).tolist()
            assert normalize_labels(labels.tolist()).tolist() == got.tolist()


class TestLocalPartitionDensity:
    """D_c of one community: the unpenalized partition density of a 1-community labeling."""

    def test_tree_community_scores_zero(self):
        g = load_edge_list("0 1\n1 2\n2 3")
        part = Partition.from_labels([0, 0, 0, 0])
        assert partition_density(g, part, penalized=False) == 0.0

    def test_clique_community_scores_one(self):
        g, labels = disjoint_cliques_graph([5])
        part = Partition.from_labels(labels)
        assert partition_density(g, part, penalized=False) == 1.0

    def test_intermediate_value(self):
        # 5 nodes, 7 edges: (7 - 4) / (10 - 4) = 0.5
        g = load_edge_list("0 1\n0 2\n0 3\n0 4\n1 2\n2 3\n3 4")
        part = Partition.from_labels([0] * 5)
        assert g.edge_count == 7
        assert partition_density(g, part, penalized=False) == 0.5

    def test_small_communities_score_zero(self):
        g = load_edge_list("0 1")
        part = Partition.from_labels([0, 0])
        assert partition_density(g, part, penalized=False) == 0.0

    def test_disconnected_community_goes_negative(self):
        g = load_edge_list("0 1\n2 3")
        part = Partition.from_labels([0, 0, 0, 0])  # 4 nodes, 2 edges < n-1
        assert partition_density(g, part, penalized=False) < 0.0


class TestPartitionDensity:
    def test_disjoint_cliques_unpenalized_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            sizes = rng.integers(3, 9, size=int(rng.integers(2, 6))).tolist()
            g, labels = disjoint_cliques_graph(sizes)
            part = Partition.from_labels(labels)
            assert partition_density(g, part, penalized=False) == 1.0

    def test_two_four_cliques_penalized(self):
        g, labels = disjoint_cliques_graph([4, 4])
        part = Partition.from_labels(labels)
        assert partition_density(g, part, penalized=True) == pytest.approx(
            1 / np.sqrt(2), abs=1e-12
        )

    def test_tree_partitions_score_zero(self):
        g = load_edge_list("0 1\n1 2\n2 3\n3 4\n4 5")
        part = Partition.from_labels([0, 0, 0, 1, 1, 1])
        assert partition_density(g, part, penalized=False) == 0.0
        assert partition_density(g, part, penalized=True) == 0.0

    def test_penalty_is_exactly_inverse_sqrt_k(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g, part = random_partitioned_graph(rng, 30, int(rng.integers(2, 7)))
            plain = partition_density(g, part, penalized=False)
            pen = partition_density(g, part, penalized=True)
            assert pen == plain / np.sqrt(part.k)

    def test_weighted_sum_identity(self):
        # total density equals the size-weighted mean of community densities
        rng = np.random.default_rng(9)
        for _ in range(10):
            g, part = random_partitioned_graph(rng, 24, int(rng.integers(2, 6)))
            local = reference_community_densities(g, part)
            weighted = sum(part.sizes[c] / g.node_count * local[c] for c in range(part.k))
            assert partition_density(g, part, penalized=False) == pytest.approx(
                weighted, abs=1e-12
            )

    def test_community_numbering_does_not_move_the_density(self):
        # a correctly rounded sum: the terms' order cannot change its bytes
        case = generate_lfr(LfrSpec(n=1000, mu=0.3, seed=0))
        truth = normalize_labels(case.truth)
        k = int(truth.max()) + 1
        density = partition_density(case.graph, Partition(truth, k))
        rng = np.random.default_rng(0)
        for _ in range(20):
            relabeled = Partition(rng.permutation(k)[truth], k)
            assert partition_density(case.graph, relabeled) == density


class TestSelectK:
    def test_two_cliques_peak_at_two(self):
        g, labels = disjoint_cliques_graph([5, 5])
        result = detect_communities(g, knn=4, dim=2)
        assert result.k_star == 2
        # each clique, a component of its own, gets one label
        pred = result.partition.labels
        mapping = {}
        for clique, lab in zip(labels, pred):
            mapping.setdefault(clique, lab)
        assert all(mapping[c] == lab for c, lab in zip(labels, pred))
        # the sweep confirms the peak rather than trusting the argmax
        densities = dict(result.sweep.table())
        assert densities[2] == max(densities.values())

    def test_best_is_the_first_peak_with_its_partition(self):
        g, _ = disjoint_cliques_graph([5, 4, 6])
        res = detect_communities(g, knn=4, dim=2, k_max=9)
        table = res.sweep.table()
        peak = max(d for _, d in table)
        assert res.sweep.best.k == res.k_star == next(k for k, d in table if d == peak)
        assert res.sweep.best.density == peak
        assert np.array_equal(res.partition.labels, assign(res.profile, res.k_star))
        assert [k for k, _ in table] == list(range(2, 10))
        assert res.sweep.k_max == 9

    def test_sweep_is_reproducible(self):
        g, _ = disjoint_cliques_graph([5, 4, 6])
        a = detect_communities(g, knn=4, dim=2)
        b = detect_communities(g, knn=4, dim=2)
        assert a.sweep.table() == b.sweep.table()
        assert a.k_star == b.k_star
        assert np.array_equal(a.partition.labels, b.partition.labels)

    def test_all_zero_densities_pick_smallest_k(self):
        # a path graph scores zero for every split, so ties resolve to k=2
        g = load_edge_list("\n".join(f"{i} {i + 1}" for i in range(9)))
        result = detect_communities(g, knn=2, dim=1)
        table = dict(result.sweep.table())
        assert max(table.values()) == 0.0
        assert result.k_star == 2

    def test_dc_above_rounding_noise(self):
        # two K5 plus an isolated node: each K5 embeds as points that
        # coincide up to rounding, which low percentiles would pick as d_c
        cliques, _ = disjoint_cliques_graph([5, 5])
        g = Graph.from_edges(11, cliques.edges)
        res = detect_communities(g)
        largest = pdist(res.embedding.coordinates).max()
        assert res.profile.d_c >= 1e-9 * largest

    def test_k_max_validation(self):
        from isofdp import select_k

        g, labels = disjoint_cliques_graph([4, 4])
        res = detect_communities(g, knn=3, dim=2)
        with pytest.raises(ValueError):
            select_k(g, res.embedding, res.profile, 1)


def forest_profile(nearest_higher, ranking):
    """A profile that holds only what the sweep reads: the forest and the ranking."""
    n = len(ranking)
    zeros = np.zeros(n)
    return DensityProfile(
        zeros, zeros, zeros, np.asarray(nearest_higher), np.asarray(ranking), 1.0
    )


def random_forest_profile(rng, n, depth_first=False):
    """A random nearest-denser forest; the root ranks first, the rest at random.

    With ``depth_first`` every node hangs from the one made just before it, a
    path in random node order.
    """
    order = rng.permutation(n)
    up = np.full(n, -1)
    for t in range(1, n):
        up[order[t]] = order[t - 1] if depth_first else order[rng.integers(t)]
    return forest_profile(up, np.r_[order[0], rng.permutation(order[1:])])


def random_graph(rng, n, p):
    pairs = np.argwhere(np.triu(rng.random((n, n)) < p, 1))
    return Graph.from_edges(n, pairs)


def assert_same_sweep(g, profile, k_max):
    got = select_k(g, None, profile, k_max)
    ref = reference_select_k(g, profile, k_max)
    assert [k for k, _ in got.table()] == [k for k, _ in ref.table()]
    assert np.array([d for _, d in got.table()]).tobytes() == np.array(
        [d for _, d in ref.table()]
    ).tobytes()
    assert got.k_star == ref.k_star
    assert np.float64(got.best.density).tobytes() == np.float64(ref.best.density).tobytes()
    assert got.best.partition.k == ref.best.partition.k
    assert got.best.partition.labels.dtype == np.int64
    assert got.best.partition.labels.tobytes() == ref.best.partition.labels.tobytes()


class TestSelectKMatchesReference:
    """The incremental sweep against labeling and scoring every k from scratch."""

    @pytest.mark.parametrize("z_out", [1, 4, 8])
    def test_gn_graphs(self, z_out):
        g = generate_gn(GnSpec(z_out=z_out, seed=z_out)).graph
        res = detect_communities(g, knn=24, dim=3)
        assert_same_sweep(g, res.profile, res.sweep.k_max)
        # every node a center at the end: communities of at most 2 nodes
        assert_same_sweep(g, res.profile, g.node_count)

    @pytest.mark.parametrize("mu", [0.1, 0.5])
    def test_lfr_graphs(self, mu):
        g = generate_lfr(LfrSpec(n=300, mu=mu, seed=2)).graph
        res = detect_communities(g, dim=8)
        assert_same_sweep(g, res.profile, res.sweep.k_max)
        assert_same_sweep(g, res.profile, g.node_count)

    def test_tie_heavy_profiles(self):
        rng = np.random.default_rng(21)
        for points in tie_heavy_grids():
            n = len(points)
            profile = compute_profile(points, select_dc(points))
            g = random_graph(rng, n, 0.3)
            for k_max in {2, min(5, n), n}:
                assert_same_sweep(g, profile, k_max)

    @pytest.mark.parametrize("depth_first", [False, True])
    def test_random_forests(self, depth_first):
        # depth_first: a path-shaped forest, whose subtrees nest n deep
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 50))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.6)))
            profile = random_forest_profile(rng, n, depth_first)
            for k_max in {2, int(rng.integers(2, n + 1)), n}:
                assert_same_sweep(g, profile, k_max)

    def test_path_forest_centers_from_the_leaf_up(self):
        # each new center sits above the last, so every step moves a prefix
        n = 40
        g = load_edge_list("\n".join(f"{i} {i + 1}" for i in range(n - 1)))
        up = np.arange(-1, n - 1)
        ranking = np.r_[0, np.arange(n - 1, 0, -1)]
        assert_same_sweep(g, forest_profile(up, ranking), n)
        assert_same_sweep(g, forest_profile(up, np.arange(n)), n)

    def test_star_forest(self):
        rng = np.random.default_rng(23)
        n = 30
        g, _ = disjoint_cliques_graph([10, 10, 10])
        up = np.zeros(n, dtype=np.int64)
        up[0] = -1
        assert_same_sweep(g, forest_profile(up, np.r_[0, rng.permutation(np.arange(1, n))]), n)

    def test_communities_without_inside_edges(self):
        # complete bipartite between the halves: every half alone has no edge
        n = 12
        g = Graph.from_edges(n, [(u, v) for u in range(6) for v in range(6, n)])
        up = np.r_[-1, np.zeros(5, dtype=np.int64), 6, np.full(5, 6)]
        up[6] = 0
        halves = forest_profile(up, np.r_[0, 6, 1:6, 7:n])
        assert assign(halves, 2).tolist() == [0] * 6 + [1] * 6
        assert partition_density(g, Partition(assign(halves, 2), 2)) < 0
        assert_same_sweep(g, halves, n)
        assert_same_sweep(g, forest_profile(up, np.arange(n)), n)
        edgeless = Graph.from_edges(n, [])
        assert_same_sweep(edgeless, random_forest_profile(np.random.default_rng(24), n), n)
