"""Agreement scores between two labelings: NMI and best-mapping accuracy."""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

__all__ = [
    "nmi",
    "accuracy",
]


def _as_label_pair(truth, pred):
    """Both labelings as contiguous ids 0..r-1: the scores are sums that no numbering moves."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.shape != pred.shape or truth.ndim != 1:
        raise ValueError("labelings must be 1-D and of equal length")
    if truth.size == 0:
        raise ValueError("labelings must be nonempty")
    return np.unique(truth, return_inverse=True)[1], np.unique(pred, return_inverse=True)[1]


def _counts(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """counts[i, j] = |truth i & pred j|, for labels already 0..r-1 and 0..c-1."""
    r, c = int(t.max()) + 1, int(p.max()) + 1
    return np.bincount(t * c + p, minlength=r * c).reshape(r, c)


def _nmi(counts: np.ndarray) -> float:
    """NMI of a count table, its sums correctly rounded: no row or column order moves it."""
    counts = counts.astype(float)
    n = counts.sum()
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    if counts.shape[0] == 1 or counts.shape[1] == 1:
        return 1.0 if counts.shape == (1, 1) else 0.0
    nz = counts > 0
    mutual = math.fsum(counts[nz] * np.log(counts[nz] * n / np.outer(row, col)[nz]))
    h_row = math.fsum(row * np.log(row / n))
    h_col = math.fsum(col * np.log(col / n))
    value = mutual / np.sqrt(h_row * h_col)
    return float(min(max(value, 0.0), 1.0))


def _accuracy(counts: np.ndarray) -> float:
    # one more on every count makes every pair an edge, so a full matching of
    # the smaller side exists, and adds min(r, c) to each: the best is unmoved.
    # Every entry is stored, so the CSR is built from its arrays, not by a scan
    r, c = counts.shape
    weights = csr_matrix(
        ((counts + 1).ravel(), np.tile(np.arange(c), r), np.arange(0, r * c + 1, c)), shape=(r, c)
    )
    matched = min_weight_full_bipartite_matching(weights, maximize=True)
    return float(counts[matched].sum() / counts.sum())


def nmi(truth, pred) -> float:
    """Normalized mutual information (natural log, geometric normalization).

    When either side has a single community its entropy is zero and the ratio
    is undefined; then the score is 1 if the two labelings induce the same
    set partition and 0 otherwise.
    """
    return _nmi(_counts(*_as_label_pair(truth, pred)))


def accuracy(truth, pred) -> float:
    """Fraction of nodes matched under the best predicted-to-true label mapping.

    The mapping pairs each community of the side with fewer communities with
    its own community of the other side, maximizing the nodes they share: a
    maximum-weight full bipartite matching of the contingency count, solved
    by ``scipy.sparse.csgraph``. The matched count is an exact integer.
    """
    return _accuracy(_counts(*_as_label_pair(truth, pred)))
