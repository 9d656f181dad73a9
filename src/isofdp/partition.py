"""Partitions of a graph's nodes and their edge-saturation quality.

The quality of a community is how close its induced subgraph is to a clique,
after discounting the n-1 edges a connected group needs anyway. The network
score is the node-count-weighted sum of community qualities; the penalized
variant divides by sqrt(k) so fragmenting into many small dense groups does
not pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .density_peaks import assign
from .graph import Graph

__all__ = [
    "Partition",
    "SweepRecord",
    "SweepResult",
    "normalize_labels",
    "local_partition_density",
    "partition_density",
    "select_k",
]


def normalize_labels(labels) -> np.ndarray:
    """Relabel to contiguous 0..k-1 in order of first occurrence."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse.reshape(-1)]


@dataclass(frozen=True)
class Partition:
    """Node -> community labeling with contiguous labels 0..k-1."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size == 0:
            raise ValueError("empty labeling")
        k = int(labels.max()) + 1
        if sorted(set(labels.tolist())) != list(range(k)):
            raise ValueError("labels must be contiguous 0..k-1 with no empty community")
        return cls(labels, k)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Node count per community."""
        return np.bincount(self.labels, minlength=self.k)

    def internal_edge_counts(self, g: Graph) -> np.ndarray:
        """Edges of ``g`` with both endpoints in the same community."""
        lu, lv = self.labels[g.edge_array.T]
        return np.bincount(lu[lu == lv], minlength=self.k)

    def members(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.labels == c)


def local_partition_density(g: Graph, part: Partition, c: int) -> float:
    """Edge saturation of one community beyond its spanning tree.

    ``(m_c - (n_c - 1)) / (n_c (n_c - 1) / 2 - (n_c - 1))``: 0 for a tree,
    1 for a clique, negative when the community is internally disconnected.
    Communities with at most 2 nodes score 0 (the denominator vanishes).
    """
    if not 0 <= c < part.k:
        raise ValueError(f"community id {c} out of range 0..{part.k - 1}")
    n_c = int(part.sizes[c])
    if n_c <= 2:
        return 0.0
    m_c = int(part.internal_edge_counts(g)[c])
    return (m_c - (n_c - 1)) / (n_c * (n_c - 1) / 2 - (n_c - 1))


def partition_density(g: Graph, part: Partition, penalized: bool = True) -> float:
    """Node-count-weighted partition density of the whole labeling.

    Unpenalized: ``(2/N) * sum_c n_c (m_c - (n_c-1)) / ((n_c-2)(n_c-1))``.
    The penalized variant multiplies by ``1/sqrt(k)``. Communities with at
    most 2 nodes contribute 0. Negative contributions from internally
    disconnected communities are kept, not clamped.
    """
    big = part.sizes > 2
    n_c = part.sizes[big]
    m_c = part.internal_edge_counts(g)[big]
    terms = n_c * (m_c - (n_c - 1)) / ((n_c - 2) * (n_c - 1))
    # summed in community order: ``.sum()`` adds pairwise, in another order
    total = np.cumsum(terms)[-1] if terms.size else 0.0
    d = 2.0 * total / g.node_count
    if penalized:
        d /= np.sqrt(part.k)
    return float(d)


@dataclass(frozen=True)
class SweepRecord:
    k: int
    density: float
    partition: Partition


@dataclass(frozen=True)
class SweepResult:
    """Community-count sweep: penalized density per k and the argmax k_star."""

    records: tuple
    k_star: int

    @property
    def best(self) -> SweepRecord:
        for rec in self.records:
            if rec.k == self.k_star:
                return rec
        raise RuntimeError("k_star missing from sweep records")

    def table(self):
        """(k, density) rows in sweep order."""
        return [(rec.k, rec.density) for rec in self.records]


def select_k(g: Graph, embedding, profile, k_max: int) -> SweepResult:
    """Try every community count 2..k_max and keep the penalized-density peak.

    For each k the top-k score-ranked nodes become centers and the rest follow
    their nearest denser neighbor; ties in the peak density resolve to the
    smallest k. Everything is read from ``profile``: ``embedding`` is not
    used.
    """
    n = g.node_count
    if not 2 <= k_max <= n:
        raise ValueError(f"k_max must be in 2..{n}, got {k_max}")
    records = []
    best_k = None
    best_d = -np.inf
    for k in range(2, k_max + 1):
        part = Partition(assign(profile, k), k)
        d = partition_density(g, part, penalized=True)
        records.append(SweepRecord(k, d, part))
        if d > best_d:
            best_d = d
            best_k = k
    return SweepResult(tuple(records), best_k)
