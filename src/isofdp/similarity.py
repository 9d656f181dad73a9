"""Node-pair similarity matrices and their conversion to distances.

The default measure is structure similarity: the overlap of closed
neighborhoods normalized by the geometric mean of their sizes. Alternate
measures operate on adjacency-matrix rows and are converted to similarities
so the downstream distance transform is uniform.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import pdist, squareform

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

    ``structure`` uses closed-neighborhood overlap; the others are computed on
    adjacency-matrix rows. Distance-like measures (euclidean, hamming) are
    mapped to similarities via ``s = 1 / (1 + d)``. The diagonal is 1 for every
    measure.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; supported: {MEASURES}")
    a = g.adjacency_matrix()
    n = g.node_count
    if measure == "structure":
        closed = a + np.eye(n)
        counts = closed @ closed.T
        sizes = g.degrees + 1
        values = counts / np.sqrt(np.outer(sizes, sizes))
    elif measure == "euclidean":
        values = 1.0 / (1.0 + squareform(pdist(a, "euclidean")))
    elif measure == "hamming":
        # pdist convention: fraction of coordinates that differ
        values = 1.0 / (1.0 + squareform(pdist(a, "hamming")))
    elif measure == "jaccard":
        values = 1.0 - squareform(pdist(a.astype(bool), "jaccard"))
        np.fill_diagonal(values, 1.0)
    else:  # cosine
        norms = np.sqrt((a * a).sum(axis=1))
        denom = np.outer(norms, norms)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(denom > 0, (a @ a.T) / np.where(denom > 0, denom, 1.0), 0.0)
        np.fill_diagonal(values, 1.0)
    return (values + values.T) / 2.0


def to_distance(s) -> np.ndarray:
    """Reciprocal transform: off-diagonal ``d = 1/s``, zero similarity -> inf.

    Negative similarities are a domain error.
    """
    values = np.asarray(s, dtype=float)
    if (values < 0).any():
        raise ValueError("similarities must be nonnegative")
    with np.errstate(divide="ignore"):
        d = np.where(values > 0, 1.0 / np.where(values > 0, values, 1.0), np.inf)
    np.fill_diagonal(d, 0.0)
    return d
