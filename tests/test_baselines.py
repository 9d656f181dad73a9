import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from isofdp import (
    DbscanSpec,
    GnSpec,
    KmeansSpec,
    LfrSpec,
    baselines,
    dbscan_parameter_search,
    detect_communities,
    generate_gn,
    generate_lfr,
    kmeans,
)
from isofdp.baselines import _lloyd
from isofdp.cli import SUITE_PRESETS
from isofdp.density_peaks import select_dc
from isofdp.metrics import accuracy, nmi

from conftest import (
    reference_dbscan,
    reference_dbscan_labels,
    reference_dbscan_parameter_search,
    tie_heavy_grids,
    two_blobs,
)


class TestKmeans:
    def test_single_cluster(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(12, 2))
        part = kmeans(points, KmeansSpec(k=1, seed=3))
        assert part.k == 1
        assert np.all(part.labels == 0)

    def test_one_point_per_cluster(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(8, 2)) * 10
        part = kmeans(points, KmeansSpec(k=8, seed=3))
        assert sorted(part.labels.tolist()) == list(range(8))
        _, trace = _lloyd(points, 8, np.random.default_rng(3))
        assert trace[-1] == pytest.approx(0.0, abs=1e-18)

    def test_two_blobs(self):
        rng = np.random.default_rng(5)
        points, truth = two_blobs(rng)
        part = kmeans(points, KmeansSpec(k=2, seed=0))
        assert nmi(truth, part.labels) == 1.0

    def test_objective_never_increases(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(60, 3))
        for seed in range(5):
            _, trace = _lloyd(points, 4, np.random.default_rng(seed))
            assert np.all(np.diff(trace) <= 1e-9)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(30, 2))
        a = kmeans(points, KmeansSpec(k=3, seed=11))
        b = kmeans(points, KmeansSpec(k=3, seed=11))
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("seed", range(10))
    def test_fewer_distinct_points_than_k(self, seed):
        # an empty cluster takes a point from a cluster that keeps one, so no
        # cluster the reseeding has already checked is emptied
        points = np.array([[10.0], [100.0], [100.0], [100.0]])
        part = kmeans(points, KmeansSpec(k=3, seed=seed))
        assert sorted(set(part.labels.tolist())) == [0, 1, 2]
        assert part.labels[1] != part.labels[0]

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), KmeansSpec(k=4))

    @pytest.mark.parametrize("k", [0, -1])
    def test_fewer_than_one_cluster_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            KmeansSpec(k=k)


def dbscan_cell(points, spec):
    """One cell of the DBSCAN grid, raw ids with -1 for noise, checked against the per-point reference."""
    raw = baselines._dbscan_raw(cdist(points, points), spec.eps, (spec.min_pts,))[0]
    assert raw.tobytes() == reference_dbscan_labels(points, spec).tobytes()
    return raw


class TestDbscan:
    def test_everything_one_cluster(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(15, 2))
        diameter = 2 * np.abs(points).max() + 1
        part = baselines._as_partition(dbscan_cell(points, DbscanSpec(eps=diameter, min_pts=1)))
        assert part.k == 1

    def test_all_noise_becomes_singletons(self):
        points = np.arange(6, dtype=float)[:, None] * 10
        raw = dbscan_cell(points, DbscanSpec(eps=0.5, min_pts=2))
        assert np.all(raw == -1)
        part = baselines._as_partition(raw)
        assert part.k == 6
        assert part.labels.tolist() == [0, 1, 2, 3, 4, 5]

    def test_two_blobs(self):
        rng = np.random.default_rng(7)
        points, truth = two_blobs(rng)
        raw = dbscan_cell(points, DbscanSpec(eps=3.0, min_pts=4))
        assert nmi(truth, baselines._as_partition(raw).labels) == 1.0

    def test_neighbor_count_includes_self(self):
        # two points at distance 1: each has 2 neighbors within eps=1.5
        points = np.array([[0.0], [1.0]])
        raw = dbscan_cell(points, DbscanSpec(eps=1.5, min_pts=2))
        assert np.all(raw == 0)

    def test_order_independence(self):
        rng = np.random.default_rng(8)
        points, _ = two_blobs(rng, size_a=12, size_b=14, gap=30.0)
        spec = DbscanSpec(eps=3.5, min_pts=3)
        base = baselines._as_partition(dbscan_cell(points, spec))
        for _ in range(3):
            perm = rng.permutation(points.shape[0])
            shuffled = baselines._as_partition(dbscan_cell(points[perm], spec))
            restored = np.empty_like(shuffled.labels)
            restored[perm] = shuffled.labels
            assert nmi(base.labels, restored) == 1.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DbscanSpec(eps=0.0)
        with pytest.raises(ValueError):
            DbscanSpec(eps=1.0, min_pts=0)


def _cross_cluster_ties(points, spec, raw):
    """Border points whose nearest cores within eps lie in different clusters."""
    dist = cdist(points, points)
    core = np.flatnonzero((dist <= spec.eps).sum(axis=1) >= spec.min_pts)
    count = 0
    for i in np.flatnonzero(raw >= 0):
        if i in core:
            continue
        row = np.where(dist[i, core] <= spec.eps, dist[i, core], np.inf)
        count += np.unique(raw[core[row == row.min()]]).size > 1
    return count


class TestDbscanMatchesReference:
    """The vectorized labelling against the per-point loop in ``conftest``.

    Integer coordinates make distances equal eps exactly and put border points
    at equal distance from cores of two clusters.
    """

    @pytest.mark.parametrize("min_pts", [1, 3, 6])
    def test_integer_grid_points(self, min_pts):
        ties = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            points = rng.integers(0, 9, size=(40, 2)).astype(float)
            for eps in (1.0, np.sqrt(2.0), 2.0, np.sqrt(5.0), 3.0):
                spec = DbscanSpec(eps, min_pts)
                raw = dbscan_cell(points, spec)
                ties += _cross_cluster_ties(points, spec, raw)
        # a border point has at most min_pts - 2 others within eps, so it
        # can sit between two cores only when min_pts >= 4
        if min_pts >= 4:
            assert ties > 0

    def test_border_tie_goes_to_smaller_core_index(self):
        # point 0 is a border point at distance 1 from cores 1 and 5, which
        # lie in different clusters
        points = np.array(
            [[0, 0], [1, 0], [2, 0], [1, 1], [2, 1], [-1, 0], [-2, 0], [-1, 1], [-2, 1]],
            dtype=float,
        )
        raw = dbscan_cell(points, DbscanSpec(eps=1.0, min_pts=4))
        assert raw.tolist() == [0, 0, 0, 0, -1, 1, 1, 1, -1]


def _tight_blobs():
    # many small clumps keep the intra-pair share low, so the fixed
    # percentile grid contains an eps of roughly blob scale
    rng = np.random.default_rng(10)
    blobs, labels = [], []
    for c in range(8):
        center = rng.normal(0, 60, size=2)
        blobs.append(rng.normal(0, 0.4, size=(5, 2)) + center)
        labels += [c] * 5
    return np.vstack(blobs), np.array(labels)


def _one_community_clumps():
    # four clumps of one true community: every cell of more than one cluster
    # scores NMI exactly 0, so the best NMI ties across distinct partitions
    # and accuracy, the largest cluster's share, decides
    rng = np.random.default_rng(5)
    sizes = (3, 5, 8, 12)
    points = np.vstack(
        [rng.normal(0, 0.1 * (i + 1), size=(s, 2)) + [30 * i, 0] for i, s in enumerate(sizes)]
    )
    return points, np.zeros(len(points), dtype=int)


def _integer_clumps():
    # integer points in overlapping clumps: several cells share the best
    # (NMI, accuracy)
    rng = np.random.default_rng(12)
    truth = np.repeat(np.arange(3), 12)
    return rng.integers(0, 5, size=(36, 2)) + 4 * truth[:, None], truth


class TestDbscanParameterSearch:
    def test_finds_many_tight_blobs(self):
        points, truth = _tight_blobs()
        part, spec, best_nmi, best_acc = dbscan_parameter_search(points, truth)
        assert best_nmi == 1.0
        assert best_acc == 1.0
        assert part.k == 8
        assert spec.eps > 0

    def test_never_worse_than_single_grid_cells(self):
        rng = np.random.default_rng(11)
        points, truth = two_blobs(rng)
        _, _, best_nmi, _ = dbscan_parameter_search(points, truth)
        for pct in (2, 5, 9):
            cell = reference_dbscan(points, DbscanSpec(eps=select_dc(points, pct), min_pts=4))
            assert best_nmi >= nmi(truth, cell.labels) - 1e-12

    def test_returns_the_first_best_cell(self):
        # the earliest of the cells that share the best score must win
        points, truth = _integer_clumps()
        cells = []
        for pct in range(1, 11):
            for min_pts in (2, 3, 4, 5, 6):
                spec = DbscanSpec(select_dc(points, pct), min_pts)
                labels = reference_dbscan(points, spec).labels
                cells.append(((nmi(truth, labels), accuracy(truth, labels)), spec, labels))
        best = max(score for score, _, _ in cells)
        assert sum(score == best for score, _, _ in cells) > 1
        score, spec, labels = next(cell for cell in cells if cell[0] == best)
        part, got_spec, got_nmi, got_acc = dbscan_parameter_search(points, truth)
        assert got_spec == spec
        assert (got_nmi, got_acc) == score
        assert part.labels.tobytes() == labels.tobytes()


def _assert_same_search(points, truth, **grid):
    part, *got = dbscan_parameter_search(points, truth, **grid)
    want_part, *want = reference_dbscan_parameter_search(points, truth, **grid)
    assert part.labels.tobytes() == want_part.labels.tobytes()
    assert part.k == want_part.k
    assert got == want  # the spec, then NMI and accuracy, compared exactly


@pytest.fixture(scope="module")
def gn_embeddings():
    """24 four-block graphs (z_out 1..8, seeds 0..2) embedded as the gn suite is."""
    preset = SUITE_PRESETS["gn"]
    out = []
    for z_out in range(1, 9):
        for seed in range(3):
            labeled = generate_gn(GnSpec(z_out=z_out, seed=seed))
            res = detect_communities(labeled.graph, knn=preset["knn"], dim=preset["dim"])
            out.append((res.embedding.coordinates, labeled.truth))
    return out


class TestDbscanGridMatchesReference:
    """The batched grid against the cell-by-cell search in ``conftest``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_integer_grid_points(self, seed):
        # eps lands exactly on pair distances, and border points tie
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 9, size=(40, 2)).astype(float)
        _assert_same_search(points, rng.integers(0, 3, size=40))
        _assert_same_search(points, rng.integers(0, 3, size=40), min_pts_values=(6, 1, 4, 4))

    @pytest.mark.parametrize("seed", range(4))
    def test_coincident_points(self, seed):
        # about one pair in ten coincides, so the low percentiles hit the floor
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 3, size=(30, 2)).astype(float)
        points[:10] += 1e-17 * rng.random((10, 2))
        truth = rng.integers(0, 2, size=30)
        assert select_dc(points, 1) > 0
        _assert_same_search(points, truth)
        _assert_same_search(points, truth, percentiles=(0.5, 50, 100, 0.5))

    def test_existing_inputs(self):
        _assert_same_search(*_tight_blobs())
        _assert_same_search(*two_blobs(np.random.default_rng(11)))
        _assert_same_search(*_integer_clumps())

    def test_gn_embeddings(self, gn_embeddings):
        assert len(gn_embeddings) >= 20
        for points, truth in gn_embeddings:
            _assert_same_search(points, truth)

    def test_each_distinct_partition_scored_once(self, monkeypatch, gn_embeddings):
        # NMI once per distinct partition; accuracy only to break NMI ties: at
        # most once per partition met at the best NMI so far while another
        # shares it, and once for the partition returned
        nmi_calls, acc_calls = [], []
        score_nmi, score_acc = baselines._nmi, baselines._accuracy
        monkeypatch.setattr(baselines, "_nmi", lambda c: nmi_calls.append(1) or score_nmi(c))
        monkeypatch.setattr(baselines, "_accuracy", lambda c: acc_calls.append(1) or score_acc(c))
        for points, truth in [*gn_embeddings[:6], _one_community_clumps()]:
            first_seen = {}
            for pct in range(1, 11):
                for min_pts in (2, 3, 4, 5, 6):
                    labels = reference_dbscan(points, DbscanSpec(select_dc(points, pct), min_pts)).labels
                    first_seen.setdefault(labels.tobytes(), nmi(truth, labels))
            tied, level, best = set(), [], -1.0
            for key, score in first_seen.items():
                if score > best:
                    level, best = [key], score
                elif score == best:
                    level.append(key)
                    tied.update(level)
            nmi_calls.clear()
            acc_calls.clear()
            dbscan_parameter_search(points, truth)
            assert len(first_seen) < 50
            assert len(nmi_calls) == len(first_seen)
            assert 1 <= len(acc_calls) <= len(tied) + 1

    def test_nmi_tie_broken_by_accuracy(self):
        points, truth = _one_community_clumps()
        cells = []
        for pct in range(1, 11):
            for min_pts in (2, 3, 4, 5, 6):
                labels = reference_dbscan(points, DbscanSpec(select_dc(points, pct), min_pts)).labels
                cells.append((nmi(truth, labels), accuracy(truth, labels), labels.tobytes()))
        best_nmi = max(cell[0] for cell in cells)
        at_best = [cell for cell in cells if cell[0] == best_nmi]
        assert len({key for _, _, key in at_best}) > 1
        assert len({acc for _, acc, _ in at_best}) > 1
        *_, got_acc = dbscan_parameter_search(points, truth)
        assert got_acc == max(acc for _, acc, _ in at_best) > at_best[0][1]
        _assert_same_search(points, truth)

    def test_long_core_chain(self):
        # one core component spanning 198 points, with a border point at each end
        points = np.arange(200, dtype=float)[:, None]
        raw = dbscan_cell(points, DbscanSpec(eps=1.0, min_pts=3))
        assert np.all(raw == 0)


PERCENTILES = (0.1, 1.0, 2.0, 10.0, 37.5, 50.0, 100.0)


class TestDbscanGridEps:
    def test_eps_values_are_select_dc(self, monkeypatch):
        used = []
        label_cells = baselines._dbscan_raw

        def record(dist, eps, min_pts_values):
            used.append(eps)
            return label_cells(dist, eps, min_pts_values)

        monkeypatch.setattr(baselines, "_dbscan_raw", record)
        floors = 0
        for points in tie_heavy_grids():
            used.clear()
            dbscan_parameter_search(points, np.zeros(len(points), dtype=int), PERCENTILES)
            want = [select_dc(points, pct) for pct in PERCENTILES]
            assert used == want
            floors += select_dc(points, 0.1) > np.sort(pdist(points))[0]
        assert floors > 0

    @pytest.mark.parametrize(
        "points, percentiles",
        [
            (np.arange(6.0), (0,)),
            (np.arange(6.0), (5, 101)),
            (np.zeros((4, 2)), (5,)),
            (np.ones((5, 1)), tuple(range(1, 11))),
            (np.array([[1.0, 2.0]]), (5,)),
        ],
    )
    def test_errors_match_select_dc(self, points, percentiles):
        bad = percentiles[-1]
        with pytest.raises(ValueError) as want:
            select_dc(points, bad)
        with pytest.raises(ValueError) as got:
            dbscan_parameter_search(points, np.zeros(len(points), dtype=int), percentiles)
        assert str(got.value) == str(want.value)

    def test_empty_grid_rejected(self):
        points = np.arange(6.0)
        with pytest.raises(ValueError, match="empty parameter grid"):
            dbscan_parameter_search(points, np.zeros(6, dtype=int), percentiles=())
        with pytest.raises(ValueError, match="empty parameter grid"):
            dbscan_parameter_search(points, np.zeros(6, dtype=int), min_pts_values=())

    def test_truth_of_another_length_rejected(self):
        points = np.arange(6.0)
        with pytest.raises(ValueError, match="one label per point"):
            dbscan_parameter_search(points, np.zeros(5, dtype=int))

    def test_truth_labels_of_any_kind(self):
        points, truth = _integer_clumps()
        want = dbscan_parameter_search(points, truth)
        got = dbscan_parameter_search(points, [f"c{t}" for t in (truth * 7 + 3).tolist()])
        assert got[0].labels.tobytes() == want[0].labels.tobytes()
        assert got[1:] == want[1:]


class TestDbscanGridPeakMemory:
    """One distance matrix plus the pairs of one eps, never one copy per cell."""

    def test_peak_is_under_two_arrays(self):
        labeled = generate_lfr(LfrSpec(n=1000, mu=0.3, seed=0))
        points = detect_communities(labeled.graph, dim=16).embedding.coordinates
        n = len(points)
        tracemalloc.start()
        try:
            dbscan_parameter_search(points, labeled.truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * 8 * n * n


def _bad_points(kind):
    """40 points in two blobs, one coordinate made non-finite or spread until squares overflow."""
    points, _ = two_blobs(np.random.default_rng(3))
    if kind == "nan":
        points[7, 1] = np.nan
    elif kind == "inf":
        points[7, 1] = np.inf
    else:  # finite, but the squared diagonal of the bounding box overflows
        points[7, 1] = 1e200
    return points


_BASELINES = {
    "kmeans": lambda points: kmeans(points, KmeansSpec(k=2)),
    "dbscan_parameter_search": lambda points: dbscan_parameter_search(
        points, np.zeros(len(points), dtype=int)
    ),
}


class TestBaselinesRejectNonFinitePoints:
    @pytest.mark.parametrize("kind", ["nan", "inf", "overflow"])
    @pytest.mark.parametrize("name", sorted(_BASELINES))
    def test_errors_match_select_dc(self, name, kind):
        points = _bad_points(kind)
        with pytest.raises(ArithmeticError) as want:
            select_dc(points)
        with pytest.raises(ArithmeticError) as got:
            _BASELINES[name](points)
        assert str(got.value) == str(want.value)
        assert "coordinates" in str(got.value)
