"""Structure similarity between node pairs and the distances ``d = 1/s`` it gives.

Structure similarity is the overlap of two closed neighborhoods normalized by
the geometric mean of their sizes. The distances are scipy's CSR matrix of
the shared-neighbor count, each count overwritten by its distance: as in
``scipy.sparse.csgraph``, an entry that is not stored is no edge, an infinite
distance.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix, identity

from .graph import Graph
from .isomap import _BLOCK_ROWS

__all__ = ["prepared_distances"]


def prepared_distances(g: Graph) -> csr_matrix:
    """Distances ``d = 1/s`` between all nodes, as the CSR matrix of their count.

    Rejects graphs under 4 nodes, where centering and the density statistics
    are degenerate, and edgeless ones, where the similarity tells no nodes apart.

    Each similarity is ``s = c / sqrt((deg[u] + 1)(deg[v] + 1))``, with ``c =
    a @ a`` the exact shared-neighbor counts of the sparse closed
    neighborhoods ``a`` (the adjacency plus the identity). The product is
    returned itself, each entry's count overwritten by its ``1/s``: float64
    distances over int32 column indices, 12 bytes an entry. Within a row the
    entries are in the order the product left them, not in column order.
    Every pair off the count has ``s = 0``, so its distance is inf. The
    diagonal is stored, at 1.0 rather than 0: a node's similarity to itself
    is ``s = 1``, and it is the least distance, as a count is at most the
    geometric mean of its sizes. The matrix is exactly symmetric, which the
    repair of :func:`isofdp.isomap.build_neighbor_graph` relies on.

    No n x n array is built. The product is taken in floats, exact for
    integers under 2**53, and the distances are written over it
    ``_BLOCK_ROWS`` rows at a time, so the stage peaks one block's
    temporaries above the count.
    """
    if g.node_count < 4:
        raise ValueError("graph too small: need at least 4 nodes")
    if g.edge_count == 0:
        raise ValueError("graph has no edges")
    n = g.node_count
    size = g.degrees + 1.0
    # the count in floats, so that each entry's distance is written over it
    a = g.adjacency.astype(float) + identity(n, format="csr")
    # the product's column order within a row is left as it comes: the
    # k-NN graph's rules read columns, not positions
    c = a @ a
    ptr, col, values = c.indptr, c.indices, c.data
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        span = slice(ptr[lo], ptr[hi])
        # the size products are integers under 2**53, so exact
        su = np.repeat(size[lo:hi], np.diff(ptr[lo : hi + 1]))
        su *= size.take(col[span])
        s = np.divide(values[span], np.sqrt(su, out=su), out=su)
        np.divide(1.0, s, out=values[span])
        del su, s  # freed before the next block's are made
    return c
