import itertools
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from isofdp import LfrSpec, accuracy, generate_lfr, nmi

from conftest import child_env

# worked 4-node example: truth (1,1,2,2) against prediction (1,1,1,2)
TRUTH4 = [1, 1, 2, 2]
PRED4 = [1, 1, 1, 2]


def brute_force_accuracy(truth, pred):
    """Try every injective predicted-to-true label map; keep the best score."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    t_labels = sorted(set(truth.tolist()))
    p_labels = sorted(set(pred.tolist()))
    best = 0
    if len(p_labels) <= len(t_labels):
        for image in itertools.permutations(t_labels, len(p_labels)):
            table = dict(zip(p_labels, image))
            best = max(best, sum(1 for t, p in zip(truth, pred) if table[p] == t))
    else:
        for image in itertools.permutations(p_labels, len(t_labels)):
            table = dict(zip(image, t_labels))
            best = max(
                best, sum(1 for t, p in zip(truth, pred) if table.get(p, None) == t)
            )
    return best / truth.size


def lsa_accuracy(truth, pred):
    """Best-mapping accuracy from ``linear_sum_assignment`` on the count table."""
    t = np.unique(truth, return_inverse=True)[1]
    p = np.unique(pred, return_inverse=True)[1]
    counts = np.zeros((t.max() + 1, p.max() + 1), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return counts[linear_sum_assignment(counts, maximize=True)].sum() / t.size


def labels_with(rng, n, k):
    """``n`` labels in random order that use each of ``0..k-1`` at least once."""
    return rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)]))


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0

    def test_single_cluster_prediction_scores_zero(self):
        assert nmi([0, 0, 1, 1], [5, 5, 5, 5]) == 0.0

    def test_degenerate_identical_single_clusters(self):
        assert nmi([3, 3, 3], [8, 8, 8]) == 1.0

    def test_worked_example(self):
        assert nmi(TRUTH4, PRED4) == pytest.approx(0.3456, abs=1e-3)

    def test_symmetry_and_relabel_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(4, 15))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 4, size=n)
            assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
            shuffled = (a + 7) % 11  # arbitrary relabeling
            assert nmi(shuffled, b) == pytest.approx(nmi(a, b), abs=1e-12)

    def test_exactly_symmetric_and_order_free(self):
        # the sums are correctly rounded, so transposing the count table or
        # permuting its rows and columns leaves every bit
        truth = generate_lfr(LfrSpec(n=1000, mu=0.3, seed=0)).truth
        k = int(truth.max()) + 1
        rng = np.random.default_rng(1)
        for _ in range(50):
            noisy = truth.copy()
            flip = rng.random(truth.size) < 0.3
            noisy[flip] = rng.integers(0, k, size=int(flip.sum()))
            perm = rng.permutation(truth.size)
            score = nmi(truth, noisy)
            assert nmi(noisy, truth) == score
            assert nmi(truth[perm], noisy[perm]) == score

    def test_range(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 5, size=n)
            assert 0.0 <= nmi(a, b) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nmi([0, 1], [0, 1, 2])


class TestAccuracy:
    def test_identical(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_label_permutation_absorbed(self):
        assert accuracy([0, 0, 1, 1, 2], [2, 2, 0, 0, 1]) == 1.0

    def test_worked_example(self):
        assert accuracy(TRUTH4, PRED4) == 0.75

    def test_plain_float_for_csv_repr(self):
        assert repr(accuracy(TRUTH4, PRED4)) == "0.75"

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            a = rng.integers(0, 6, size=n)
            b = rng.integers(0, 6, size=n)
            assert accuracy(a, b) == pytest.approx(brute_force_accuracy(a, b), abs=1e-12)

    @pytest.mark.parametrize("r", range(1, 13))
    def test_equals_linear_sum_assignment(self, r):
        # exactly, not approximately: the matched count is an integer
        rng = np.random.default_rng(r)
        for c in range(1, 13):
            for _ in range(4):
                n = int(rng.integers(max(r, c), 80))
                a, b = labels_with(rng, n, r), labels_with(rng, n, c)
                assert accuracy(a, b) == lsa_accuracy(a, b)
                assert accuracy(b, a) == lsa_accuracy(b, a)

    def test_one_community_sides_equal_linear_sum_assignment(self):
        rng = np.random.default_rng(12)
        for k in range(1, 13):
            n = int(rng.integers(k, 60))
            ones, other = np.zeros(n, dtype=int), labels_with(rng, n, k)
            assert accuracy(ones, other) == lsa_accuracy(ones, other)
            assert accuracy(other, ones) == lsa_accuracy(other, ones)
            assert accuracy(ones, ones) == 1.0

    def test_all_singleton_prediction_equals_linear_sum_assignment(self):
        rng = np.random.default_rng(13)
        singletons = rng.permutation(200)
        for k in (1, 2, 4, 17, 200):
            truth = labels_with(rng, 200, k)
            assert accuracy(truth, singletons) == lsa_accuracy(truth, singletons) == k / 200
            assert accuracy(singletons, truth) == lsa_accuracy(singletons, truth)

    def test_tied_optima_equal_linear_sum_assignment(self):
        # uniform tables, where every full matching is optimal, and tables
        # whose rows repeat, where several are
        rng = np.random.default_rng(14)
        for r in range(1, 8):
            for c in range(1, 8):
                m = int(rng.integers(1, 4))
                idx = rng.permutation(r * c * m)
                uniform_t, uniform_p = idx % r, (idx // r) % c
                assert accuracy(uniform_t, uniform_p) == lsa_accuracy(uniform_t, uniform_p)
                assert accuracy(uniform_p, uniform_t) == lsa_accuracy(uniform_p, uniform_t)
                rows = labels_with(rng, 3 * c, c)
                t = np.repeat(np.arange(r), rows.size)
                p = np.tile(rows, r)
                assert accuracy(t, p) == lsa_accuracy(t, p)
                assert accuracy(p, t) == lsa_accuracy(p, t)

    def test_differing_community_counts(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 2, 3]) <= 1.0
        assert accuracy([0, 1, 2, 3], [0, 0, 1, 1]) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0], [0, 1])

    def test_import_leaves_scipy_optimize_unloaded(self):
        # a fresh interpreter imports the package, then runs what the
        # benchmark's warm-up runs: one GN graph through detection, both
        # scores and both baselines
        child = """
import sys
from isofdp import (GnSpec, KmeansSpec, accuracy, dbscan_parameter_search,
                    detect_communities, generate_gn, kmeans, nmi)
print('scipy.optimize' in sys.modules)
labeled = generate_gn(GnSpec(z_out=1, seed=0))
res = detect_communities(labeled.graph, knn=24, dim=3)
for labels in (res.sweep.best.partition.labels,
               kmeans(res.embedding, KmeansSpec(k=4, seed=0)).labels):
    assert 0 < nmi(labeled.truth, labels) <= 1
    assert 0 < accuracy(labeled.truth, labels) <= 1
dbscan_parameter_search(res.embedding, labeled.truth)
print('scipy.optimize' in sys.modules)
"""
        done = subprocess.run(
            [sys.executable, "-c", child],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False"]
