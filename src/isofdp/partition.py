"""Partitions of a graph's nodes and their edge-saturation quality.

The quality of a community is how close its induced subgraph is to a clique,
after discounting the n-1 edges a connected group needs anyway. The network
score is the node-count-weighted sum of community qualities; the penalized
variant divides by sqrt(k) so fragmenting into many small dense groups does
not pay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import depth_first_order

from .density_peaks import assign
from .graph import Graph

__all__ = [
    "Partition",
    "SweepResult",
    "normalize_labels",
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
        if not np.array_equal(np.unique(labels), np.arange(k)):
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


def _density_term(n_c, m_c):
    """Communities' terms of :func:`partition_density`'s sum, for ``n_c > 2``: ints or arrays."""
    return n_c * (m_c - (n_c - 1)) / ((n_c - 2) * (n_c - 1))


def partition_density(g: Graph, part: Partition, penalized: bool = True) -> float:
    """Node-count-weighted partition density of the whole labeling.

    Unpenalized: ``(2/N) * sum_c n_c (m_c - (n_c-1)) / ((n_c-2)(n_c-1))``.
    The penalized variant multiplies by ``1/sqrt(k)``. Communities with at
    most 2 nodes contribute 0. Negative contributions from internally
    disconnected communities are kept, not clamped. The sum is correctly
    rounded (``math.fsum``): no numbering of the communities moves it.
    """
    big = part.sizes > 2
    n_c = part.sizes[big]
    m_c = part.internal_edge_counts(g)[big]
    d = 2.0 * math.fsum(_density_term(n_c, m_c)) / g.node_count
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
    """Penalized density per k in sweep order, and the first peak with its partition."""

    densities: tuple
    best: SweepRecord

    @property
    def k_star(self) -> int:
        return self.best.k

    @property
    def k_max(self) -> int:
        """The largest community count swept."""
        return self.densities[-1][0]

    def table(self):
        """(k, density) rows in sweep order."""
        return list(self.densities)


def select_k(g: Graph, embedding, profile, k_max: int) -> SweepResult:
    """Try every community count 2..k_max and keep the penalized-density peak.

    For each k the top-k score-ranked nodes become centers and the rest follow
    their nearest denser neighbor; ties in the peak density resolve to the
    smallest k. Everything is read from ``profile``: ``embedding`` is not
    used.

    The densities are updated from k to k+1, not recounted. In a preorder of
    the nearest-denser forest every subtree is one slice, and the new center's
    community is the part of its slice that still carries the label of the
    community it leaves. Only that community and the new one change, and their
    node and internal edge counts follow from the moved nodes' adjacency rows.
    The exact sum of the community terms is kept as one int in units of
    2**-1074, of which every double is a whole multiple, so a step updates it
    in O(1) and its one correctly rounded division gives
    :func:`partition_density`'s ``math.fsum`` to the same bytes. The best
    partition is labeled once, by ``assign``.
    """
    n = g.node_count
    if not 2 <= k_max <= n:
        raise ValueError(f"k_max must be in 2..{n}, got {k_max}")
    up, centers = profile.nearest_higher, profile.ranking[:k_max].tolist()
    kids = np.flatnonzero(up >= 0)
    forest = csr_matrix((np.ones(n - 1), (up[kids], kids)), shape=(n, n))
    order = depth_first_order(forest, centers[0], return_predecessors=False)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    # a subtree ends after its last descendant: follow each node's last child
    last = np.arange(n)
    np.maximum.at(last, pos[up[order[1:]]], np.arange(1, n))
    nxt = last[last]
    while not np.array_equal(nxt, last):
        last, nxt = nxt, nxt[nxt]
    end = (last + 1).tolist()
    # adjacency rows in preorder, each neighbor as its preorder position
    adj = g.adjacency[order]
    indices, indptr, degree = pos[adj.indices], adj.indptr.tolist(), np.diff(adj.indptr)

    label = np.zeros(n, dtype=np.int64)  # by preorder position
    size, inner = [n] + [0] * (k_max - 1), [g.edge_count] + [0] * (k_max - 1)

    def exact(c):  # community c's term in units of 2**-1074; 0 up to 2 nodes
        num, den = _density_term(size[c], inner[c]).as_integer_ratio() if size[c] > 2 else (0, 1)
        return num << (1075 - den.bit_length())

    total, densities, best = exact(0), [], (-np.inf, 0)
    for k in range(1, k_max):
        s = pos[centers[k]]
        e = end[s]
        seg = label[s:e]
        was = int(seg[0])
        moved = seg == was
        seg[moved] = k
        # the moved nodes' neighbors: 2 per edge among them, 1 per edge to
        # the rest of the community they leave
        nbr = label[indices[indptr[s] : indptr[e]][np.repeat(moved, degree[s:e])]]
        both, left = np.count_nonzero(nbr == k), np.count_nonzero(nbr == was)
        total -= exact(was)
        size[k] = np.count_nonzero(moved)
        size[was] -= size[k]
        inner[k] = both // 2
        inner[was] -= left + both // 2
        total += exact(was) + exact(k)
        d = 2.0 * (total / (1 << 1074)) / n
        d /= np.sqrt(k + 1)
        densities.append((k + 1, float(d)))
        if d > best[0]:
            best = (float(d), k + 1)
    density, k = best
    return SweepResult(tuple(densities), SweepRecord(k, density, Partition(assign(profile, k), k)))
