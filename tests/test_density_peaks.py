import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from isofdp import (
    LfrSpec,
    assign,
    build_neighbor_graph,
    classical_mds,
    compute_profile,
    density_peaks,
    generate_lfr,
    geodesic_distances,
    prepared_distances,
    select_dc,
)
from isofdp.baselines import dbscan_parameter_search
from isofdp.metrics import nmi
from isofdp.partition import normalize_labels

from conftest import (
    reference_compute_profile,
    reference_select_dc,
    tie_heavy_grids,
    two_blobs,
)

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


def assert_matches_reference(points, d_c):
    """``compute_profile`` equals the full-matrix reference byte for byte."""
    got = compute_profile(points, d_c)
    want = reference_compute_profile(points, d_c)
    for field in ("rho", "delta", "gamma", "nearest_higher", "ranking"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert got.d_c == want.d_c
    return got


def loop_reference_grids():
    """The grid inputs of ``test_matches_loop_references``: (points, d_c)."""
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(1, 25))
        points = rng.integers(0, 4, size=(n, 2)).astype(float)
        yield points, float(rng.choice([0.5, 1.0, 1.5, 2.5]))


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


PERCENTILES = (0.1, 1.0, 2.0, 10.0, 37.5, 50.0, 100.0)


def assert_dc_matches_reference(points, pct):
    """``select_dc`` equals the full ``pdist`` partition, error messages included."""
    try:
        want = reference_select_dc(points, pct)
    except (ValueError, ArithmeticError) as err:
        with pytest.raises(type(err)) as got:
            select_dc(points, pct)
        assert str(got.value) == str(err)
        return None
    got = select_dc(points, pct)
    assert type(got) is float
    assert got.hex() == want.hex()
    return got


def lfr_embedding(mu):
    """The n=1000, seed 0 LFR graph at ``mu``, embedded as the pipeline does."""
    g = generate_lfr(LfrSpec(n=1000, mu=mu, seed=0)).graph
    ng = build_neighbor_graph(prepared_distances(g), 10)
    return classical_mds(geodesic_distances(ng), 16).coordinates


def count_calls(monkeypatch, name):
    """Record each call of ``density_peaks.<name>``, which still runs."""
    calls = []
    real = getattr(density_peaks, name)
    monkeypatch.setattr(
        density_peaks, name, lambda *args: calls.append(args) or real(*args)
    )
    return calls


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

    def test_matches_the_full_sort(self):
        floors = 0
        for points in tie_heavy_grids():
            for pct in PERCENTILES:
                assert_dc_matches_reference(points, pct)
            dists = pdist(points)
            floors += np.count_nonzero(dists <= 1e-9 * dists.max()) > 0
        assert floors > 0

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            select_dc(np.zeros((4, 2)), 50.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            select_dc(np.array([1.0]), 50.0)


class TestScreenedCutoff:
    """Byte identity with the ``pdist`` partition where the screened pass is weakest."""

    def test_loop_reference_grids(self):
        for points, _ in loop_reference_grids():
            for pct in PERCENTILES:
                assert_dc_matches_reference(points, pct)

    @pytest.mark.parametrize("shift, scale", [(1e8, 1.0), (0.0, 1e-150), (0.0, 1e150), (-3e5, 1e3)])
    def test_shifted_and_scaled(self, shift, scale):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(300, 16)) * scale + shift
        for pct in (0.5, 2.0, 20.0):
            assert_dc_matches_reference(points, pct)

    def test_coincident_points(self):
        # a clustered set with a fifth of its points repeated, so the rank
        # lands among zeros at small percentiles
        rng = np.random.default_rng(18)
        centers = rng.normal(size=(8, 5)) * 3.0
        points = centers[rng.integers(0, 8, 400)] + rng.normal(size=(400, 5))
        points[::5] = points[1::5]
        assert np.count_nonzero(pdist(points) == 0) == 80
        for pct in (0.01, 0.05, 0.1, 2.0, 50.0):
            assert_dc_matches_reference(points, pct)

    def test_all_coincident_but_one(self):
        points = np.zeros((70, 3))
        points[41] = [1.0, -2.0, 0.5]
        for pct in PERCENTILES:
            assert_dc_matches_reference(points, pct)

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.8])
    def test_embedding_with_coincident_points(self, mu):
        # an LFR embedding as the pipeline makes it: nodes with the same
        # geodesic rows land on the same coordinates, which at seed 0 happens
        # for mu 0.1 and 0.3 only
        points = lfr_embedding(mu)
        assert (np.count_nonzero(pdist(points) == 0) > 0) == (mu < 0.5)
        for pct in (0.001, 2.0, 10.0):
            assert_dc_matches_reference(points, pct)

    def test_ragged_blocks(self, monkeypatch):
        monkeypatch.setattr(density_peaks, "_BLOCK_ROWS", 7)
        for points in tie_heavy_grids():
            for pct in PERCENTILES:
                assert_dc_matches_reference(points, pct)
        rng = np.random.default_rng(19)
        for n in (2, 6, 7, 8, 15, 50, 300):
            assert_dc_matches_reference(rng.normal(size=(n, 3)), 2.0)

    @pytest.mark.parametrize("miss", ["above", "below", "edge"])
    def test_window_miss_runs_another_pass(self, miss, monkeypatch):
        rng = np.random.default_rng(20)
        points = rng.normal(size=(500, 4))
        want = reference_select_dc(points, 2.0)
        # the first window holds only distances above the cutoff, only
        # distances below it, or starts at its square
        first = {
            "above": ((1.5 * want) ** 2, (3.0 * want) ** 2),
            "below": ((0.25 * want) ** 2, (0.5 * want) ** 2),
            "edge": (want**2, np.inf),
        }[miss]
        real = density_peaks._window
        windows = []

        def window(*args):
            windows.append(args)
            return first if len(windows) == 1 else real(*args)

        monkeypatch.setattr(density_peaks, "_window", window)
        passes = count_calls(monkeypatch, "_window_pass")
        assert select_dc(points, 2.0).hex() == want.hex()
        assert len(passes) >= 2 and len(windows) == len(passes)

    def test_one_pass_on_workload_like_sets(self, monkeypatch):
        passes = count_calls(monkeypatch, "_window_pass")
        rng = np.random.default_rng(21)
        for n in (128, 1000):
            centers = rng.normal(size=(n // 40, 16)) * 4.0
            points = centers[rng.integers(0, n // 40, n)] + rng.normal(size=(n, 16))
            assert_dc_matches_reference(points, 2.0)
        assert len(passes) == 2
        # and the pipeline's own embeddings, across the mixing range
        for mu in (0.1, 0.3, 0.5, 0.8):
            points = lfr_embedding(mu)
            for pct in (0.5, 2.0, 5.0):
                assert_dc_matches_reference(points, pct)
        assert len(passes) == 2 + 4 * 3

    @pytest.mark.parametrize("gap, floored", [(2.4e-9, True), (2.5e-9, False)])
    def test_floor_scales_with_the_bounding_box(self, gap, floored):
        # six unit vectors: the largest distance is sqrt(2), the bounding box
        # diagonal sqrt(6), so the floor is 1e-9 * sqrt(6), about 2.45e-9. A
        # seventh point at ``gap`` from the first is under it or over it,
        # and over 1e-9 times the largest distance either way
        points = np.vstack((np.eye(6), np.eye(6)[0] + gap * np.eye(6)[1]))
        for pct in (1.0, 5.0, 10.0):
            assert_dc_matches_reference(points, pct)
        # the gap is the smallest distance: skipped under the floor, kept above
        dists = np.sort(pdist(points))
        assert select_dc(points, 1.0) == dists[1 if floored else 0]

    def test_squares_overflow(self):
        # centered squares beyond the screen's range: every pair is exact
        rng = np.random.default_rng(14)
        points = np.zeros((40, 1))
        points[:38, 0] = rng.normal(size=38)
        points[38:, 0] = [1.2e154, 1.2e154 + 1e150]
        for pct in PERCENTILES:
            assert_dc_matches_reference(points, pct)


class TestScreenBound:
    @pytest.mark.parametrize("dim", [1, 3, 16])
    @pytest.mark.parametrize(
        "shift, scale", [(0.0, 1.0), (1e8, 1.0), (0.0, 1e-150), (0.0, 1e150), (-3e5, 1e3)]
    )
    def test_covers_every_screen_value(self, dim, shift, scale):
        # the sets of test_shifted_and_scaled and an unshifted one: every
        # pair's screen value is within the one bound of its squared cdist
        # value, the bound taken at d = 0
        rng = np.random.default_rng(12)
        points = rng.normal(size=(300, dim)) * scale + shift
        sq, lhs, rhs, buf = density_peaks._operands(points)
        t = density_peaks._screen_bound(sq, dim, 0.0)
        exact = cdist(points, points)
        pairs = 0
        for lo, bi, bj, g in density_peaks._upper_pairs(lhs, rhs, sq, np.inf, buf):
            assert np.all(np.abs(g - exact[bi + lo, bj + lo] ** 2) <= t)
            pairs += bi.size
        assert pairs == 300 * 299 // 2


def window_sets():
    """Sets on which the coordinate-0 window of the d_c and rho passes is weakest, by name.

    Points tied on coordinate 0, all sharing it, and pairs that differ on
    coordinate 0 alone, spread along it.
    """
    rng = np.random.default_rng(22)
    spread = rng.normal(size=(240, 4)) * [8.0, 1.0, 1.0, 1.0]
    tied = spread.copy()
    tied[:, 0] = np.round(tied[:, 0] / 2.0)
    shared = spread.copy()
    shared[:, 0] = 3.0
    return {"tied": tied, "shared": shared, "gap_pairs": gap_pairs(rng, 120)}


def gap_pairs(rng, count):
    """``count`` pairs of points that differ on coordinate 0 alone, the pair k rows 2k and 2k + 1."""
    first = rng.normal(size=(count, 3)) * [8.0, 1.0, 1.0]
    second = first.copy()
    second[:, 0] += rng.uniform(0.5, 1.5, count)
    return np.stack((first, second), axis=1).reshape(2 * count, 3)


class TestWindow:
    """The d_c and rho passes screen only the columns in a window on coordinate 0.

    Every result stays byte-identical to the full ``cdist`` and ``pdist``
    references where the window is tightest: 1-row blocks put each row at
    its own window's edge.
    """

    @staticmethod
    def assert_both_match(points, percentiles=(1.0, 2.0, 5.0)):
        for pct in percentiles:
            d_c = assert_dc_matches_reference(points, pct)
            assert_matches_reference(points, d_c)

    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    @pytest.mark.parametrize("name", ["tied", "shared", "gap_pairs"])
    def test_window_sets(self, name, block_rows, monkeypatch):
        monkeypatch.setattr(density_peaks, "_BLOCK_ROWS", block_rows)
        self.assert_both_match(window_sets()[name])

    @pytest.mark.parametrize("block_rows", [1, 64])
    def test_gaps_at_the_cutoff_and_one_ulp_either_side(self, block_rows, monkeypatch):
        # a pair whose only gap is on coordinate 0, at d_c (not counted), one
        # ulp under it (counted) and one ulp over it (not counted)
        monkeypatch.setattr(density_peaks, "_BLOCK_ROWS", block_rows)
        points = window_sets()["gap_pairs"]
        for k in range(0, 120, 13):
            a, b = points[2 * k], points[2 * k + 1]
            gap = float(cdist(a[None], b[None])[0, 0])
            at = assert_matches_reference(points, gap)
            above = assert_matches_reference(points, float(np.nextafter(gap, np.inf)))
            assert_matches_reference(points, float(np.nextafter(gap, 0.0)))
            assert above.rho[2 * k] >= at.rho[2 * k] + 1

    @pytest.mark.parametrize("dim", [1, 3, 16])
    @pytest.mark.parametrize(
        "shift, scale", [(0.0, 1.0), (1e8, 1.0), (0.0, 1e-150), (0.0, 1e150), (-3e5, 1e3)]
    )
    def test_shifted_and_scaled(self, dim, shift, scale):
        # TestScreenBound's sets, where centering and the screen round most
        rng = np.random.default_rng(12)
        self.assert_both_match(rng.normal(size=(300, dim)) * scale + shift)

    def test_passes_screen_only_the_window(self, monkeypatch):
        # points spread along coordinate 0, so that the window holds few pairs
        n = 2000
        rng = np.random.default_rng(23)
        points = rng.normal(size=(n, 3)) * [0.05, 0.05, 0.05]
        points[:, 0] += rng.uniform(0.0, 100.0, n)
        d_c = select_dc(points, 2.0)
        x0 = np.sort(points[:, 0])
        inside = np.sum(np.searchsorted(x0, x0 + d_c, side="right") - np.arange(n) - 1)
        triangle = n * (n - 1) // 2
        assert inside <= 0.1 * triangle
        screened = []  # pairs a call of _screen computes
        screen = density_peaks._screen
        monkeypatch.setattr(
            density_peaks,
            "_screen",
            lambda lhs, rhs, buf: screened.append(lhs.shape[0] * rhs.shape[0]) or screen(lhs, rhs, buf),
        )
        passes = {}
        for name in ("_local_density", "_window_pass"):
            real = getattr(density_peaks, name)

            def recorded(*args, name=name, real=real):
                start = len(screened)
                out = real(*args)
                passes[name] = sum(screened[start:])
                return out

            monkeypatch.setattr(density_peaks, name, recorded)
        assert select_dc(points, 2.0) == d_c
        assert_matches_reference(points, d_c)
        assert passes["_local_density"] < 0.25 * triangle
        assert passes["_window_pass"] < 0.25 * triangle


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

    def test_rejects_nan_cutoff(self):
        points = np.random.default_rng(17).normal(size=(200, 3))
        with pytest.raises(ValueError, match="positive"):
            compute_profile(points, float("nan"))


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
        for points, d_c in loop_reference_grids():
            n = points.shape[0]
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

    @staticmethod
    def assert_order_free(points, truth, seed):
        """d_c, rho and the DBSCAN grid's pick follow the points through a permutation.

        delta and nearest_higher are not compared: rho ties break by index,
        so another order may pick another nearest denser point.
        """
        perm = np.random.default_rng(seed).permutation(len(points))
        for pct in (0.1, 1.0, 2.0, 10.0, 50.0):
            assert select_dc(points[perm], pct).hex() == select_dc(points, pct).hex()
        d_c = select_dc(points, 2.0)
        assert np.array_equal(compute_profile(points[perm], d_c).rho, compute_profile(points, d_c).rho[perm])
        part, spec, score, _ = dbscan_parameter_search(points, truth)
        moved, moved_spec, moved_score, _ = dbscan_parameter_search(points[perm], truth[perm])
        assert moved_spec == spec
        assert np.array_equal(moved.labels, normalize_labels(part.labels[perm]))
        assert moved_score == score

    def test_point_order_on_tie_heavy_grids(self):
        for seed, points in enumerate(tie_heavy_grids()):
            self.assert_order_free(points, np.arange(len(points)) % 3, seed)

    def test_point_order_on_an_embedding_with_coincident_points(self):
        truth = generate_lfr(LfrSpec(n=1000, mu=0.1, seed=0)).truth
        self.assert_order_free(lfr_embedding(0.1), truth, 0)

    def test_profile_gamma_consistent(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(30, 3))
        prof = compute_profile(points, select_dc(points, 15.0))
        assert np.array_equal(prof.gamma, prof.rho * prof.delta)


class TestMatchesReference:
    """Byte identity with the full-matrix profile where the screen is weakest.

    The blocked profile decides every pair on its ``cdist`` value; these inputs
    put many pairs inside the screen's error band or beyond its range.
    """

    def test_tie_heavy_grids(self):
        for points in tie_heavy_grids():
            for d_c in (0.5, 1.0, 1.5, 2.0, 2.5, select_dc(points, 2.0), select_dc(points, 30.0)):
                assert_matches_reference(points, d_c)

    def test_loop_reference_grids(self):
        for points, d_c in loop_reference_grids():
            assert_matches_reference(points, d_c)

    def test_cutoff_equal_to_a_pair_distance(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(150, 5))
        d_c = float(cdist(points[3:4], points[7:8])[0, 0])
        at = assert_matches_reference(points, d_c)
        # strict: the pair at exactly d_c is not counted, one ulp more is
        above = assert_matches_reference(points, float(np.nextafter(d_c, np.inf)))
        assert above.rho[3] == at.rho[3] + 1 and above.rho[7] == at.rho[7] + 1

    @pytest.mark.parametrize("shift, scale", [(1e8, 1.0), (0.0, 1e-150), (0.0, 1e150)])
    def test_shifted_and_scaled(self, shift, scale):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(300, 16)) * scale + shift
        assert_matches_reference(points, select_dc(points, 2.0))
        assert_matches_reference(points, select_dc(points, 20.0))

    @pytest.mark.parametrize("dim", [1, 33])
    def test_dims(self, dim):
        rng = np.random.default_rng(dim)
        points = rng.normal(size=(200, dim))
        assert_matches_reference(points, select_dc(points, 2.0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_inputs(self, n):
        points = np.arange(n * 2, dtype=float).reshape(n, 2) ** 2
        for d_c in (0.5, 3.0, 100.0):
            assert_matches_reference(points, d_c)

    def test_all_coincident_but_one(self):
        points = np.zeros((70, 3))
        points[41] = [1.0, -2.0, 0.5]
        for d_c in (1e-300, 1.0, 5.0):
            assert_matches_reference(points, d_c)

    def test_ragged_blocks(self, monkeypatch):
        monkeypatch.setattr(density_peaks, "_BLOCK_ROWS", 7)
        for points in tie_heavy_grids():
            assert_matches_reference(points, 1.5)
        rng = np.random.default_rng(13)
        for n in (1, 6, 7, 8, 15, 50):
            points = rng.normal(size=(n, 3))
            assert_matches_reference(points, 1.0)

    def test_squares_overflow(self):
        # a clump and two far outliers: the centered squares are beyond the
        # screen's range, the pair distances are not
        rng = np.random.default_rng(14)
        points = np.zeros((40, 1))
        points[:38, 0] = rng.normal(size=38)
        points[38:, 0] = [1.2e154, 1.2e154 + 1e150]
        for d_c in (0.5, 2e150):
            assert_matches_reference(points, d_c)

    def test_workload_sized_embedding(self):
        rng = np.random.default_rng(15)
        centers = rng.normal(size=(12, 16)) * 4.0
        points = centers[rng.integers(0, 12, 700)] + rng.normal(size=(700, 16))
        for pct in (0.5, 2.0, 10.0):
            assert_matches_reference(points, select_dc(points, pct))


class TestNonFiniteCoordinates:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, bad):
        points = np.random.default_rng(16).normal(size=(10, 2))
        points[3, 1] = bad
        # a numerical failure upstream, which the CLI maps to exit 3
        with pytest.raises(ArithmeticError, match="finite"):
            compute_profile(points, 1.0)
        with pytest.raises(ArithmeticError, match="finite"):
            select_dc(points, 2.0)

    @pytest.mark.parametrize(
        "points",
        [
            [[0.0], [1e155], [1e155 * (1 + 1e-10)]],
            np.random.default_rng(14).normal(size=(30, 3)) * 1e155,
            [[-1e308], [1e308]],
        ],
    )
    def test_overflowing_spread_rejected(self, points):
        # squared distances beyond the float range would make gamma infinite
        # and the ranking arbitrary
        with pytest.raises(ArithmeticError, match="overflow"):
            compute_profile(points, 1e150)
        with pytest.raises(ArithmeticError, match="overflow"):
            select_dc(points, 2.0)


class TestSelectDcPeakMemory:
    def test_peak_is_a_few_blocks(self):
        n = 2000
        points = np.random.default_rng(17).normal(size=(n, 16))
        tracemalloc.start()
        try:
            select_dc(points, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block buffer, the GEMM operands, the pair sample and the window
        assert peak <= 4 * 8 * density_peaks._BLOCK_ROWS * n


class TestProfilePeakMemory:
    def test_peak_is_far_below_one_n_by_n_array(self):
        n = 2000
        points = np.random.default_rng(17).normal(size=(n, 16))
        d_c = select_dc(points, 2.0)
        tracemalloc.start()
        try:
            compute_profile(points, d_c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * n * n
