import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from isofdp import GenerationError, GnSpec, LfrSpec, generate_gn, generate_lfr
from isofdp.generators import _min_degree_for_mean

from conftest import reference_min_degree_for_mean


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
        with pytest.raises(ValueError, match="min_community must be at least 1"):
            LfrSpec(n=100, mu=0.5, min_community=0)
        with pytest.raises(ValueError, match="avg_degree must be at least 1"):
            LfrSpec(n=100, mu=0.5, avg_degree=0.5)
        with pytest.raises(TypeError):
            LfrSpec(100, 0.5)  # keywords only

    @pytest.mark.parametrize("n, max_degree", [(100, 100), (1000, 1000000), (60, 60)])
    def test_max_degree_above_n_minus_1_rejected(self, n, max_degree):
        # no node has more than n - 1 neighbors
        with pytest.raises(ValueError, match=r"max_degree cannot exceed n - 1"):
            LfrSpec(n=n, mu=0.3, max_degree=max_degree, min_community=10, max_community=n)
        spec = LfrSpec(n=n, mu=0.3, max_degree=n - 1, min_community=10, max_community=n)
        assert spec.max_degree == n - 1

    @pytest.mark.parametrize("field", ["avg_degree", "t1", "t2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            LfrSpec(n=100, mu=0.3, **{field: value})

    def test_min_degree_matches_the_scan_over_floors(self):
        # the floor whose mean is closest, the smallest of equals: the scan's pick
        for max_degree in (1, 2, 3, 7, 20, 45, 50, 120):
            for t1 in (1.5, 2.0, 2.5, 3.0, 250.0):
                for avg in np.linspace(1.0, max_degree, 37):
                    want = reference_min_degree_for_mean(avg, t1, max_degree)
                    assert _min_degree_for_mean(avg, t1, max_degree) == want, (avg, t1, max_degree)


# First 16 hex digits of SHA-256 over edge_array.tobytes() then truth.tobytes(),
# one per seed 0, 1, 2. They pin the draw stream itself: a change to how the
# generators consume their random numbers changes these graphs, where the
# determinism tests above, which compare two runs of the same code, would pass.
GN_DIGESTS = {
    0: ("071793b10663cfdf", "2b091293edc4d670", "452c00566a0a301b"),
    2: ("3c5878bca1c55e33", "da9048561e96eea4", "e436255dd197b078"),
    4: ("e4f6505c3c188415", "64b69d9b23f94928", "8944da4d72d9cb84"),
    6: ("62b7d72bb1beee27", "98e68182c7fbb40f", "edd7366b6b7df113"),
    8: ("7974e08eb855450a", "541d0f780de59d57", "dcf2f40b5a249f79"),
    10: ("f7f49aa904a1f2c5", "a6c3705893e53ea3", "172b053bf4fc1b99"),
    12: ("d5b9576f216372c8", "d30ff353a0e62871", "e094cf91cb96dade"),
    14: ("6783fc030d472e90", "78dddcc564f3a0f2", "021959b63a628f3f"),
    16: ("151a2f5caa9328fb", "eddaba5ae01e1a02", "8adacf79d60af903"),
}
LFR_DIGESTS = {
    (200, 0.1): ("8ab9997c6af6b96a", "db41d74aea5dc358", "1cbab107129531fb"),
    (200, 0.3): ("955252ce823b3c94", "ddf63ff5c0b209a4", "6bf3d9f7cd709e0e"),
    (200, 0.5): ("5bd83ca6c8e007dc", "3266e10661630951", "c2fd420e3bfe317d"),
    (200, 0.8): ("76f97bae0cad0b83", "282dadff77cd2d38", "3629600a3119162e"),
    (1000, 0.1): ("5844c3597811ba05", "2975940efbe4961d", "3ad8c310d9968512"),
    (1000, 0.3): ("7360a53348f50502", "5e5b201da520a871", "670df83ed7263fb2"),
    (1000, 0.5): ("da6911dec10db0c9", "7d7a578869cd38b3", "64d58693436ca394"),
    (1000, 0.8): ("d715f13bff97e972", "3518be31912b15d2", "41011991e284a9fd"),
}


def _digest(labeled):
    h = hashlib.sha256(labeled.graph.edge_array.tobytes())
    h.update(labeled.truth.tobytes())
    return h.hexdigest()[:16]


class TestGoldenDigests:
    """Each spec reproduces the same graph across versions, byte for byte."""

    @pytest.mark.parametrize("z_out", sorted(GN_DIGESTS))
    def test_gn(self, z_out):
        got = tuple(_digest(generate_gn(GnSpec(z_out=z_out, seed=s))) for s in range(3))
        assert got == GN_DIGESTS[z_out]

    @pytest.mark.parametrize("n, mu", sorted(LFR_DIGESTS))
    def test_lfr(self, n, mu):
        got = tuple(_digest(generate_lfr(LfrSpec(n=n, mu=mu, seed=s))) for s in range(3))
        assert got == LFR_DIGESTS[n, mu]

    def test_lfr_3000(self):
        assert _digest(generate_lfr(LfrSpec(n=3000, mu=0.3, seed=0))) == "968aed6b548ca872"

    def test_rejected_spec_keeps_its_message(self):
        # fails only after the wiring, so the message reads the matched graph
        spec = LfrSpec(
            n=60, mu=0.5, avg_degree=3, max_degree=20, min_community=10, max_community=20
        )
        with pytest.raises(GenerationError) as info:
            generate_lfr(spec)
        assert str(info.value) == "achieved mixing 0.357 strays more than 0.03 from mu=0.5"


class TestDrawStream:
    """numpy properties the generators rely on to stay byte-identical."""

    @pytest.mark.parametrize("bound", [1, 2, 7, 300, 10**6])
    @pytest.mark.parametrize("seed", range(3))
    def test_batched_bounded_draws_equal_single_draws(self, bound, seed):
        # the swap repair draws its partners in batches, then rewinds the
        # generator and re-draws the count it read
        single = np.random.default_rng(seed)
        batched = np.random.default_rng(seed)
        start = batched.bit_generator.state
        want = [int(single.integers(bound)) for _ in range(50)]
        got = batched.integers(bound, size=20).tolist() + batched.integers(bound, size=30).tolist()
        assert got == want
        assert batched.bit_generator.state == single.bit_generator.state
        batched.integers(bound, size=13)
        batched.bit_generator.state = start
        batched.integers(bound, size=50)
        assert batched.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize("seed", range(3))
    def test_choice_equals_an_index_draw(self, seed):
        # community membership picks among eligible communities by index
        picked = np.random.default_rng(seed)
        indexed = np.random.default_rng(seed)
        for length in (1, 2, 5, 33):
            pool = np.arange(length) * 3 + 1
            for _ in range(10):
                assert int(picked.choice(pool)) == int(pool[indexed.integers(length)])
        assert picked.bit_generator.state == indexed.bit_generator.state


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
