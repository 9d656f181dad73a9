import gc
import tracemalloc

import numpy as np
import pytest

from isofdp import GenerationError, GnSpec, LfrSpec, generate_gn, generate_lfr


class TestGnGenerator:
    def test_shape_and_truth(self):
        labeled = generate_gn(GnSpec(z_out=5, seed=123))
        assert labeled.graph.node_count == 128
        assert labeled.truth.tolist() == np.repeat(np.arange(4), 32).tolist()

    def test_zero_out_degree_means_no_cross_edges(self):
        labeled = generate_gn(GnSpec(z_out=0, seed=4))
        truth = labeled.truth
        assert all(truth[u] == truth[v] for u, v in labeled.graph.edges)

    def test_mean_degree_sixteen(self):
        means = []
        for seed in range(10):
            labeled = generate_gn(GnSpec(z_out=8, seed=seed))
            means.append(labeled.graph.degrees.mean())
        assert abs(np.mean(means) - 16.0) <= 1.0

    def test_determinism(self):
        a = generate_gn(GnSpec(z_out=6, seed=77))
        b = generate_gn(GnSpec(z_out=6, seed=77))
        assert a.graph.edges == b.graph.edges
        c = generate_gn(GnSpec(z_out=6, seed=78))
        assert c.graph.edges != a.graph.edges

    def test_pair_rates_converge(self):
        # marginal connection rates: z_in/31 within a block, z_out/96 across.
        # chi-square over 100 seeds at the 1% level (critical value df=1: 6.63)
        z_out = 6
        intra_obs = inter_obs = 0
        for seed in range(100):
            labeled = generate_gn(GnSpec(z_out=z_out, seed=seed))
            truth = labeled.truth
            for u, v in labeled.graph.edges:
                if truth[u] == truth[v]:
                    intra_obs += 1
                else:
                    inter_obs += 1
        intra_pairs = 100 * 4 * (32 * 31 // 2)
        inter_pairs = 100 * (128 * 127 // 2 - 4 * (32 * 31 // 2))
        p_in, p_out = (16 - z_out) / 31, z_out / 96
        for obs, total, p in ((intra_obs, intra_pairs, p_in), (inter_obs, inter_pairs, p_out)):
            expected = total * p
            chi2 = (obs - expected) ** 2 / expected + (obs - expected) ** 2 / (total - expected)
            assert chi2 <= 6.63

    def test_z_out_bounds(self):
        with pytest.raises(ValueError):
            GnSpec(z_out=17)
        with pytest.raises(ValueError):
            GnSpec(z_out=-1)


class TestLfrGenerator:
    def test_reference_parameters(self):
        labeled = generate_lfr(LfrSpec(n=1000, mu=0.1, seed=0))
        sizes = np.bincount(labeled.truth)
        assert labeled.graph.node_count == 1000
        assert sizes.min() >= 20
        assert sizes.max() <= 60
        assert labeled.graph.degrees.max() <= 50

    @pytest.mark.parametrize("mu", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    def test_achieved_mixing(self, mu):
        labeled = generate_lfr(LfrSpec(n=1000, mu=mu, seed=11))
        truth = labeled.truth
        inter = sum(1 for u, v in labeled.graph.edges if truth[u] != truth[v])
        achieved = inter / labeled.graph.edge_count
        assert abs(achieved - mu) <= 0.03

    def test_degree_cap_holds(self):
        for seed in (1, 2, 3):
            labeled = generate_lfr(LfrSpec(n=500, mu=0.3, seed=seed))
            assert labeled.graph.degrees.max() <= 50

    def test_determinism(self):
        a = generate_lfr(LfrSpec(n=300, mu=0.2, seed=5))
        b = generate_lfr(LfrSpec(n=300, mu=0.2, seed=5))
        assert a.graph.edges == b.graph.edges
        assert a.truth.tolist() == b.truth.tolist()

    def test_truth_labels_contiguous(self):
        labeled = generate_lfr(LfrSpec(n=400, mu=0.25, seed=9))
        k = labeled.truth.max() + 1
        assert sorted(set(labeled.truth.tolist())) == list(range(k))

    def test_infeasible_intra_degree_rejected(self):
        spec = LfrSpec(
            n=60, mu=0.1, avg_degree=30, max_degree=45, min_community=20, max_community=25
        )
        with pytest.raises(GenerationError):
            generate_lfr(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LfrSpec(n=100, mu=0.0)
        with pytest.raises(ValueError):
            LfrSpec(n=100, mu=0.5, min_community=30, max_community=20)
        with pytest.raises(ValueError):
            LfrSpec(n=100, mu=0.5, avg_degree=60, max_degree=50)
        with pytest.raises(TypeError):
            LfrSpec(100, 0.5)  # keywords only


class TestGraphFootprint:
    def test_generated_graph_keeps_few_bytes_per_edge(self):
        # a graph keeps arrays only: a 16-byte row per edge plus per-node
        # tokens and caches, where a Python tuple per edge costs over 100 bytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            labeled = generate_lfr(LfrSpec(n=1000, mu=0.3, seed=0))
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept / labeled.graph.edge_count <= 64
