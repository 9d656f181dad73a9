import itertools
import subprocess
import sys

import numpy as np
import pytest

from isofdp import accuracy, nmi

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

    def test_differing_community_counts(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 2, 3]) <= 1.0
        assert accuracy([0, 1, 2, 3], [0, 0, 1, 1]) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0], [0, 1])

    def test_import_leaves_scipy_optimize_unloaded(self):
        # accuracy imports it on its first call; a fresh interpreter shows
        # whether importing the package alone loads it
        child = "import sys, isofdp; print('scipy.optimize' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", child],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"
