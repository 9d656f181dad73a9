import numpy as np
import pytest

from isofdp import (
    assign,
    compute_profile,
    gamma_scores,
    local_density,
    select_dc,
    separation,
)
from isofdp.metrics import nmi

from conftest import two_blobs

LINE4 = np.array([0.0, 1.0, 2.0, 10.0])  # pairwise distances 1,1,2,8,9,10


class TestSelectDc:
    def test_full_percentile_is_max(self):
        points = np.array([0.0, 1.0, 3.0])  # distances {1, 2, 3}
        assert select_dc(points, 100.0) == 3.0

    def test_nearest_rank(self):
        points = np.array([0.0, 1.0, 3.0])
        # ceil(0.34 * 3) = 2nd smallest distance
        assert select_dc(points, 34.0) == 2.0

    def test_constant_distances(self):
        side = 2.5
        h = side * np.sqrt(3) / 2
        triangle = np.array([[0.0, 0.0], [side, 0.0], [side / 2, h]])
        for pct in (1.0, 33.0, 50.0, 100.0):
            assert select_dc(triangle, pct) == pytest.approx(side, abs=1e-12)

    def test_percentile_bounds(self):
        points = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            select_dc(points, 0.0)
        with pytest.raises(ValueError):
            select_dc(points, 101.0)

    def test_rounding_noise_is_not_a_cutoff(self):
        # two clumps of points that coincide up to rounding, 1 apart
        points = np.array([0.0, 1e-17, 2e-17, 1.0, 1.0 + 2e-16])
        assert select_dc(points, 10.0) == pytest.approx(1.0, abs=1e-12)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            select_dc(np.zeros((4, 2)), 50.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            select_dc(np.array([1.0]), 50.0)


class TestLocalDensity:
    def test_cutoff_above_all_distances_counts_everyone(self):
        rho = local_density(LINE4, 100.0)
        assert rho.tolist() == [4, 4, 4, 4]

    def test_cutoff_below_all_distances_counts_only_self(self):
        rho = local_density(LINE4, 0.5)
        assert rho.tolist() == [1, 1, 1, 1]

    def test_hand_counted_line(self):
        # strict cutoff 1.5: neighbors within < 1.5 plus the point itself
        rho = local_density(LINE4, 1.5)
        assert rho.tolist() == [2, 3, 2, 1]

    def test_strict_inequality_at_cutoff(self):
        rho = local_density(np.array([0.0, 1.0]), 1.0)
        assert rho.tolist() == [1, 1]

    def test_monotone_in_cutoff(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(30, 2))
        small = local_density(points, 0.4)
        large = local_density(points, 1.1)
        assert np.all(large >= small)

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError):
            local_density(LINE4, 0.0)


class TestSeparation:
    # rho values below follow the worked example; separation takes them as given
    RHO = np.array([1, 2, 1, 0])

    def test_rank_maximum_gets_farthest_distance(self):
        delta, nearest = separation(LINE4, self.RHO)
        assert delta[1] == 9.0
        assert nearest[1] == -1

    def test_non_maximum_follows_nearest_denser(self):
        delta, nearest = separation(LINE4, self.RHO)
        assert nearest[0] == 1
        assert delta[0] == 1.0

    def test_density_tie_breaks_to_smaller_index(self):
        delta, nearest = separation(np.array([0.0, 3.0]), np.array([5, 5]))
        assert nearest[0] == -1  # node 0 outranks node 1 on the tie
        assert nearest[1] == 0
        assert delta[1] == 3.0

    def test_distance_tie_breaks_to_smaller_index(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        delta, nearest = separation(points, np.array([1, 5, 5]))
        assert nearest[0] == 1  # nodes 1 and 2 are equally close and denser


class TestGammaScores:
    def test_product(self):
        gamma, _ = gamma_scores(np.array([2.0]), np.array([9.0]))
        assert gamma[0] == 18.0

    def test_zero_density_zero_score(self):
        gamma, _ = gamma_scores(np.array([0.0, 1.0]), np.array([50.0, 1.0]))
        assert gamma[0] == 0.0

    def test_ranking_with_tie_rule(self):
        rho = np.array([1, 2, 1, 0])
        delta, _ = separation(LINE4, rho)
        gamma, ranking = gamma_scores(rho, delta)
        assert ranking[0] == 1
        assert ranking[1] == 0  # gamma tie with node 2 resolves to the smaller index
        assert gamma[0] == gamma[2]


class TestAssign:
    def test_every_node_a_center_gives_identity(self):
        points = np.array([0.0, 1.0, 2.0, 10.0])
        prof = compute_profile(points, 1.5)
        part = assign(points, prof, list(range(4)))
        assert part.k == 4
        assert len(set(part.labels.tolist())) == 4

    def test_single_center_single_community(self):
        points = np.array([0.0, 1.0, 2.0, 10.0])
        prof = compute_profile(points, 1.5)
        _, ranking = gamma_scores(prof.rho, prof.delta)
        part = assign(points, prof, ranking[:1])
        assert part.k == 1
        assert np.all(part.labels == 0)

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(12)
        points, truth = two_blobs(rng)
        prof = compute_profile(points, select_dc(points, 5.0))
        _, ranking = gamma_scores(prof.rho, prof.delta)
        part = assign(points, prof, ranking[:2])
        assert nmi(truth, part.labels) == 1.0

    def test_centers_must_be_distinct(self):
        points = np.array([0.0, 1.0, 2.0, 10.0])
        prof = compute_profile(points, 1.5)
        with pytest.raises(ValueError, match="distinct"):
            assign(points, prof, [0, 0])

    def test_one_step_consistency(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(40, 2))
        prof = compute_profile(points, select_dc(points, 10.0))
        _, ranking = gamma_scores(prof.rho, prof.delta)
        centers = ranking[:3]
        part = assign(points, prof, centers)
        center_set = set(int(c) for c in centers)
        for i in range(40):
            if i in center_set:
                continue
            assert part.labels[i] == part.labels[prof.nearest_higher[i]]


class TestInvariances:
    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(25, 2))
        dc = select_dc(points, 8.0)
        prof = compute_profile(points, dc)
        scaled = compute_profile(points * 3.0, dc * 3.0)
        assert np.array_equal(prof.rho, scaled.rho)
        assert np.array_equal(prof.nearest_higher, scaled.nearest_higher)
        assert np.allclose(scaled.delta, prof.delta * 3.0)
        _, rank_a = gamma_scores(prof.rho, prof.delta)
        _, rank_b = gamma_scores(scaled.rho, scaled.delta)
        assert np.array_equal(rank_a, rank_b)
        part_a = assign(points, prof, rank_a[:4])
        part_b = assign(points * 3.0, scaled, rank_b[:4])
        assert np.array_equal(part_a.labels, part_b.labels)

    def test_point_order_invariance_on_separated_blobs(self):
        rng = np.random.default_rng(21)
        points, _ = two_blobs(rng, size_a=15, size_b=18)
        dc = select_dc(points, 5.0)
        prof = compute_profile(points, dc)
        _, ranking = gamma_scores(prof.rho, prof.delta)
        part = assign(points, prof, ranking[:2])

        perm = rng.permutation(points.shape[0])
        shuffled = points[perm]
        prof_p = compute_profile(shuffled, dc)
        _, ranking_p = gamma_scores(prof_p.rho, prof_p.delta)
        part_p = assign(shuffled, prof_p, ranking_p[:2])
        restored = np.empty_like(part_p.labels)
        restored[perm] = part_p.labels
        assert nmi(part.labels, restored) == 1.0

    def test_profile_gamma_consistent(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(30, 3))
        prof = compute_profile(points, select_dc(points, 15.0))
        assert np.allclose(prof.gamma, prof.rho * prof.delta)
