"""Node-pair similarity matrices and their conversion to distances.

The default measure is structure similarity: the overlap of closed
neighborhoods normalized by the geometric mean of their sizes. Alternate
measures compare adjacency rows through the same shared-neighbor count and
are converted to similarities so the downstream distance transform is uniform.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import identity

from .graph import Graph

__all__ = [
    "MEASURES",
    "structure_similarity",
    "similarity_matrix",
    "to_distance",
]

MEASURES = ("structure", "euclidean", "jaccard", "cosine", "hamming")


def structure_similarity(g: Graph, v: int, w: int) -> float:
    """Closed-neighborhood overlap of two nodes, in [0, 1].

    ``N(v)`` is the set of neighbors of ``v`` plus ``v`` itself; the score is
    ``|N(v) & N(w)| / sqrt(|N(v)| * |N(w)|)``.
    """
    n = g.node_count
    if not (0 <= v < n and 0 <= w < n):
        raise IndexError(f"node index out of range for a graph on {n} nodes")
    nv = set(g.neighbor_sets[v])
    nv.add(v)
    nw = set(g.neighbor_sets[w])
    nw.add(w)
    return len(nv & nw) / math.sqrt(len(nv) * len(nw))


def similarity_matrix(g: Graph, measure: str = "structure") -> np.ndarray:
    """Dense symmetric n x n similarity for every node pair under the given measure.

    Each measure is a closed form of the degrees and the exact shared-neighbor
    counts ``a @ a`` of the sparse adjacency (``a + I``, closed neighborhoods,
    for ``structure``); 0/1 rows u, v differ in ``deg[u] + deg[v] - 2 common``
    coordinates. Distance-like measures (euclidean, hamming: the fraction that
    differs) map to similarities via ``s = 1 / (1 + d)``. The diagonal is 1.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; supported: {MEASURES}")
    n = g.node_count
    a = g.adjacency
    deg = g.degrees
    if measure == "structure":
        closed = a + identity(n, dtype=a.dtype, format="csr")
        sizes = deg + 1
        # divide the sparse counts, so the only dense array is the result
        c = (closed @ closed).tocoo()
        c.data = c.data / np.sqrt(sizes[c.row] * sizes[c.col])
        return c.toarray()
    common = (a @ a).toarray()
    if measure == "cosine":
        norms = np.sqrt(deg)
        denom = np.outer(norms, norms)
        values = np.divide(common, denom, out=np.zeros((n, n)), where=denom > 0)
        np.fill_diagonal(values, 1.0)
        return values
    differ = deg[:, None] + deg[None, :] - 2 * common
    if measure == "euclidean":
        return 1.0 / (1.0 + np.sqrt(differ))
    if measure == "hamming":
        return 1.0 / (1.0 + differ / n)
    # jaccard: coordinates set in either row; two empty rows are at distance 0
    union = differ + common
    return 1.0 - np.divide(differ, union, out=np.zeros((n, n)), where=union > 0)


def to_distance(s) -> np.ndarray:
    """Reciprocal transform: off-diagonal ``d = 1/s``, zero similarity -> inf.

    Negative similarities are a domain error.
    """
    values = np.asarray(s, dtype=float)
    if (values < 0).any():
        raise ValueError("similarities must be nonnegative")
    d = np.full(values.shape, np.inf)
    np.divide(1.0, values, out=d, where=values > 0)
    np.fill_diagonal(d, 0.0)
    return d
