"""Agreement scores between two labelings: NMI and best-mapping accuracy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .partition import normalize_labels

__all__ = [
    "ContingencyTable",
    "contingency_table",
    "nmi",
    "max_weight_matching",
    "accuracy",
]


@dataclass(frozen=True)
class ContingencyTable:
    """Cross-tabulation of two labelings: counts[i, j] = |truth i & pred j|."""

    counts: np.ndarray

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def _as_label_pair(truth, pred):
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.shape != pred.shape or truth.ndim != 1:
        raise ValueError("labelings must be 1-D and of equal length")
    if truth.size == 0:
        raise ValueError("labelings must be nonempty")
    return normalize_labels(truth), normalize_labels(pred)


def _counts(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    # t and p are already normalized to 0..r-1 and 0..c-1
    counts = np.zeros((int(t.max()) + 1, int(p.max()) + 1), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return counts


def contingency_table(truth, pred) -> ContingencyTable:
    return ContingencyTable(_counts(*_as_label_pair(truth, pred)))


def nmi(truth, pred) -> float:
    """Normalized mutual information (natural log, geometric normalization).

    When either side has a single community its entropy is zero and the ratio
    is undefined; then the score is 1 if the two labelings induce the same
    set partition and 0 otherwise.
    """
    t, p = _as_label_pair(truth, pred)
    counts = _counts(t, p).astype(float)
    n = counts.sum()
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    if counts.shape[0] == 1 or counts.shape[1] == 1:
        return 1.0 if np.array_equal(t, p) else 0.0
    nz = counts > 0
    mutual = (counts[nz] * np.log(counts[nz] * n / np.outer(row, col)[nz])).sum()
    h_row = (row * np.log(row / n)).sum()
    h_col = (col * np.log(col / n)).sum()
    value = mutual / np.sqrt(h_row * h_col)
    return float(min(max(value, 0.0), 1.0))


def max_weight_matching(weights) -> dict:
    """Injective row -> column map of a nonnegative matrix maximizing total weight."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
        raise ValueError("weights must be a nonempty 2-D matrix")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    rows, cols = linear_sum_assignment(w, maximize=True)
    return {int(r): int(c) for r, c in zip(rows, cols)}


def accuracy(truth, pred) -> float:
    """Fraction of nodes matched under the best predicted-to-true label mapping."""
    ct = contingency_table(truth, pred)
    mapping = max_weight_matching(ct.counts)
    matched = sum(int(ct.counts[r, c]) for r, c in mapping.items())
    return matched / ct.n
