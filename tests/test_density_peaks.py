import numpy as np
import pytest

from isofdp import assign, compute_profile, select_dc
from isofdp.metrics import nmi

from conftest import two_blobs

LINE4 = np.array([0.0, 1.0, 2.0, 10.0])  # pairwise distances 1,1,2,8,9,10


def separation_loop(dist, rho):
    """Reference delta and nearest denser point, one density-ranked point at a time."""
    n = rho.shape[0]
    order = np.lexsort((np.arange(n), -rho))
    delta = np.zeros(n, dtype=float)
    nearest = np.full(n, -1, dtype=np.int64)
    for pos, i in enumerate(order):
        if pos == 0:
            delta[i] = dist[i].max()
            continue
        higher = order[:pos]
        row = dist[i, higher]
        m = row.min()
        delta[i] = m
        nearest[i] = higher[row == m].min()  # distance tie -> smaller index
    return delta, nearest


def assign_loop(rho, gamma, nearest, centers):
    """Reference labels: centers by score rank, then one pass in density order."""
    n = rho.shape[0]
    ordered = sorted((int(c) for c in centers), key=lambda c: (-gamma[c], c))
    labels = np.full(n, -1, dtype=np.int64)
    for lab, c in enumerate(ordered):
        labels[c] = lab
    for i in np.lexsort((np.arange(n), -rho)):
        if labels[i] < 0:
            labels[i] = labels[nearest[i]]
    return labels


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
        rho = compute_profile(LINE4, 100.0).rho
        assert rho.tolist() == [4, 4, 4, 4]

    def test_cutoff_below_all_distances_counts_only_self(self):
        rho = compute_profile(LINE4, 0.5).rho
        assert rho.tolist() == [1, 1, 1, 1]

    def test_hand_counted_line(self):
        # strict cutoff 1.5: neighbors within < 1.5 plus the point itself
        rho = compute_profile(LINE4, 1.5).rho
        assert rho.tolist() == [2, 3, 2, 1]

    def test_strict_inequality_at_cutoff(self):
        rho = compute_profile(np.array([0.0, 1.0]), 1.0).rho
        assert rho.tolist() == [1, 1]

    def test_monotone_in_cutoff(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(30, 2))
        small = compute_profile(points, 0.4).rho
        large = compute_profile(points, 1.1).rho
        assert np.all(large >= small)

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError):
            compute_profile(LINE4, 0.0)


class TestSeparation:
    # LINE4 at cutoff 1.5 has rho [2, 3, 2, 1]: node 1 is the density maximum
    PROF = compute_profile(LINE4, 1.5)

    def test_rank_maximum_gets_farthest_distance(self):
        assert self.PROF.delta[1] == 9.0
        assert self.PROF.nearest_higher[1] == -1

    def test_non_maximum_follows_nearest_denser(self):
        assert self.PROF.nearest_higher[0] == 1
        assert self.PROF.delta[0] == 1.0

    def test_density_tie_breaks_to_smaller_index(self):
        prof = compute_profile(np.array([0.0, 3.0]), 1.0)
        assert prof.rho.tolist() == [1, 1]
        assert prof.nearest_higher[0] == -1  # node 0 outranks node 1 on the tie
        assert prof.nearest_higher[1] == 0
        assert prof.delta[1] == 3.0

    def test_distance_tie_breaks_to_smaller_index(self):
        # nodes 1 and 2 each have a close partner (3 and 4), so both are
        # denser than node 0, and both lie at distance 1 from it
        points = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [1.2, 0.0], [-1.2, 0.0]])
        prof = compute_profile(points, 0.5)
        assert prof.rho.tolist() == [1, 2, 2, 2, 2]
        assert prof.nearest_higher[0] == 1
        assert prof.delta[0] == 1.0


class TestGammaScores:
    def test_product(self):
        prof = compute_profile(LINE4, 1.5)
        assert prof.gamma[1] == 27.0  # rho 3, delta 9

    def test_zero_separation_zero_score(self):
        # node 1 coincides with the denser node 0: delta 0, so gamma 0
        prof = compute_profile(np.array([0.0, 0.0, 5.0]), 1.0)
        assert prof.nearest_higher[1] == 0
        assert prof.delta[1] == 0.0
        assert prof.gamma[1] == 0.0

    def test_ranking_with_tie_rule(self):
        prof = compute_profile(LINE4, 1.5)  # gamma [2, 27, 2, 8]
        assert prof.ranking.tolist() == [1, 3, 0, 2]  # gamma tie 0/2 -> smaller index
        assert prof.gamma[0] == prof.gamma[2]

    def test_ranking_starts_at_density_maximum(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            points = rng.integers(0, 4, size=(n, 2)).astype(float)
            prof = compute_profile(points, float(rng.choice([0.5, 1.0, 1.5, 2.5])))
            top = np.lexsort((np.arange(n), -prof.rho))[0]
            assert prof.ranking[0] == top
            assert prof.nearest_higher[top] == -1


class TestAssign:
    def test_every_node_a_center_gives_identity(self):
        prof = compute_profile(LINE4, 1.5)
        labels = assign(prof, 4)
        assert labels[prof.ranking].tolist() == [0, 1, 2, 3]

    def test_single_center_single_community(self):
        prof = compute_profile(LINE4, 1.5)
        assert np.all(assign(prof, 1) == 0)

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(12)
        points, truth = two_blobs(rng)
        prof = compute_profile(points, select_dc(points, 5.0))
        assert nmi(truth, assign(prof, 2)) == 1.0

    def test_rejects_k_out_of_range(self):
        prof = compute_profile(LINE4, 1.5)
        for k in (0, 5):
            with pytest.raises(ValueError, match="1..4"):
                assign(prof, k)

    def test_one_step_consistency(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(40, 2))
        prof = compute_profile(points, select_dc(points, 10.0))
        labels = assign(prof, 3)
        center_set = set(prof.ranking[:3].tolist())
        for i in range(40):
            if i in center_set:
                continue
            assert labels[i] == labels[prof.nearest_higher[i]]

    def test_matches_loop_references(self):
        # grid points: duplicates, distance ties and rho ties throughout
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 25))
            points = rng.integers(0, 4, size=(n, 2)).astype(float)
            d_c = float(rng.choice([0.5, 1.0, 1.5, 2.5]))
            prof = compute_profile(points, d_c)
            dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
            assert np.array_equal(prof.rho, (dist < d_c).sum(axis=1))
            delta, nearest = separation_loop(dist, prof.rho)
            assert np.array_equal(prof.delta, delta)
            assert np.array_equal(prof.nearest_higher, nearest)
            ranking = sorted(range(n), key=lambda i: (-prof.gamma[i], i))
            assert prof.ranking.tolist() == ranking
            for k in range(1, n + 1):
                expected = assign_loop(prof.rho, prof.gamma, nearest, ranking[:k])
                assert np.array_equal(assign(prof, k), expected)


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
        assert np.array_equal(prof.ranking, scaled.ranking)
        assert np.array_equal(assign(prof, 4), assign(scaled, 4))

    def test_point_order_invariance_on_separated_blobs(self):
        rng = np.random.default_rng(21)
        points, _ = two_blobs(rng, size_a=15, size_b=18)
        dc = select_dc(points, 5.0)
        labels = assign(compute_profile(points, dc), 2)

        perm = rng.permutation(points.shape[0])
        shuffled = assign(compute_profile(points[perm], dc), 2)
        restored = np.empty_like(shuffled)
        restored[perm] = shuffled
        assert nmi(labels, restored) == 1.0

    def test_profile_gamma_consistent(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(30, 3))
        prof = compute_profile(points, select_dc(points, 15.0))
        assert np.array_equal(prof.gamma, prof.rho * prof.delta)
