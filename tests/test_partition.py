import numpy as np
import pytest
from scipy.spatial.distance import pdist

from isofdp import (
    MEASURES,
    Graph,
    Partition,
    assign,
    detect_communities,
    load_edge_list,
    local_partition_density,
    partition_density,
)
from isofdp import connected_components
from isofdp.partition import normalize_labels

from conftest import disjoint_cliques_graph


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
    def test_tree_community_scores_zero(self):
        g = load_edge_list("0 1\n1 2\n2 3")
        part = Partition.from_labels([0, 0, 0, 0])
        assert local_partition_density(g, part, 0) == 0.0

    def test_clique_community_scores_one(self):
        g, labels = disjoint_cliques_graph([5])
        part = Partition.from_labels(labels)
        assert local_partition_density(g, part, 0) == 1.0

    def test_intermediate_value(self):
        # 5 nodes, 7 edges: (7 - 4) / (10 - 4) = 0.5
        g = load_edge_list("0 1\n0 2\n0 3\n0 4\n1 2\n2 3\n3 4")
        part = Partition.from_labels([0] * 5)
        assert g.edge_count == 7
        assert local_partition_density(g, part, 0) == 0.5

    def test_small_communities_score_zero(self):
        g = load_edge_list("0 1\n2 3")
        part = Partition.from_labels([0, 0, 1, 1])
        assert local_partition_density(g, part, 0) == 0.0

    def test_disconnected_community_goes_negative(self):
        g = load_edge_list("0 1\n2 3")
        part = Partition.from_labels([0, 0, 0, 0])  # 4 nodes, 2 edges < n-1
        assert local_partition_density(g, part, 0) < 0.0

    def test_community_id_range(self):
        g = load_edge_list("0 1")
        part = Partition.from_labels([0, 0])
        with pytest.raises(ValueError):
            local_partition_density(g, part, 1)


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
            weighted = sum(
                part.sizes[c] / g.node_count * local_partition_density(g, part, c)
                for c in range(part.k)
            )
            assert partition_density(g, part, penalized=False) == pytest.approx(
                weighted, abs=1e-12
            )


class TestSelectK:
    def test_two_cliques_peak_at_two(self):
        g, labels = disjoint_cliques_graph([5, 5])
        result = detect_communities(g, knn=4, dim=2)
        assert result.k_star == 2
        components = connected_components(g)
        pred = result.partition.labels
        mapping = {}
        for comp, lab in zip(components, pred):
            mapping.setdefault(comp, lab)
        assert all(mapping[c] == lab for c, lab in zip(components, pred))
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

    @pytest.mark.parametrize("measure", MEASURES)
    def test_dc_above_rounding_noise(self, measure):
        # two K5 plus an isolated node: each K5 embeds as points that
        # coincide up to rounding, which low percentiles would pick as d_c
        cliques, _ = disjoint_cliques_graph([5, 5])
        g = Graph.from_edges(11, cliques.edges)
        res = detect_communities(g, measure=measure)
        largest = pdist(res.embedding.coordinates).max()
        assert res.d_c >= 1e-9 * largest

    def test_k_max_validation(self):
        from isofdp import select_k

        g, labels = disjoint_cliques_graph([4, 4])
        res = detect_communities(g, knn=3, dim=2)
        with pytest.raises(ValueError):
            select_k(g, res.embedding, res.profile, 1)
