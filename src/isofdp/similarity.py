"""Node-pair similarity measures and the distances ``d = 1/s`` they give.

The default measure is structure similarity: the overlap of closed
neighborhoods normalized by the geometric mean of their sizes. Alternate
measures compare adjacency rows through the same shared-neighbor count and
are written as similarities so the distance transform is uniform.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import identity

from .graph import Graph

__all__ = [
    "MEASURES",
    "structure_similarity",
    "distance_matrix",
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
    nv = {v, *g.adjacency[v].indices.tolist()}
    nw = {w, *g.adjacency[w].indices.tolist()}
    return len(nv & nw) / math.sqrt(len(nv) * len(nw))


def distance_matrix(g: Graph, measure: str = "structure") -> np.ndarray:
    """Dense symmetric n x n distances ``d = 1/s``: zero similarity -> inf, zero diagonal.

    Each similarity ``s`` is a closed form of the degrees and the exact
    shared-neighbor counts ``c = a @ a`` of the sparse adjacency (``a + I``,
    closed neighborhoods, for ``structure``); 0/1 rows u, v differ in
    ``deg[u] + deg[v] - 2 c`` coordinates. Structure, cosine and jaccard are
    zero off the count's entries, so ``1/s`` is written only there; two
    isolated nodes have jaccard similarity 1. Distance-like measures
    (euclidean, hamming: the fraction that differs) map to similarities via
    ``s = 1 / (1 + x)``, finite for every pair, and are computed in place in
    the one dense array.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; supported: {MEASURES}")
    n = g.node_count
    a = g.adjacency
    deg = g.degrees
    if measure == "structure":
        a = a + identity(n, dtype=a.dtype, format="csr")
    c = (a @ a).tocoo()
    row, col, common = c.row, c.col, c.data
    if measure in ("euclidean", "hamming"):
        degf = deg.astype(float)
        d = degf[:, None] + degf[None, :]
        d[row, col] -= 2 * common
        if measure == "euclidean":
            np.sqrt(d, out=d)
        else:
            d /= n
        d += 1.0
        # s = 1 / (1 + x), then d = 1 / s: 1 + x itself can differ in the last bit
        np.divide(1.0, d, out=d)
        np.divide(1.0, d, out=d)
    else:
        if measure == "structure":
            s = common / np.sqrt((deg[row] + 1) * (deg[col] + 1))
        elif measure == "cosine":
            norms = np.sqrt(deg)
            s = common / (norms[row] * norms[col])
        else:  # jaccard: coordinates set in either row
            differ = deg[row] + deg[col] - 2 * common
            s = 1.0 - differ / (differ + common)
        d = np.full((n, n), np.inf)
        d[row, col] = 1.0 / s
        if measure == "jaccard":
            isolated = np.flatnonzero(deg == 0)
            d[np.ix_(isolated, isolated)] = 1.0
    np.fill_diagonal(d, 0.0)
    return d
