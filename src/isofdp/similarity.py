"""Structure similarity between node pairs and the distances ``d = 1/s`` it gives.

Structure similarity is the overlap of two closed neighborhoods normalized by
the geometric mean of their sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import identity

from .graph import Graph

__all__ = [
    "DistanceRows",
    "distance_rows",
]

# rows of the count whose distances are written at a time: every temporary
# of distance_rows is one chunk's, a few arrays over its entries
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class DistanceRows:
    """The n x n distances ``d = 1/s``, read a block of rows at a time.

    Built by :func:`distance_rows`. ``columns`` and ``values`` hold one
    column index and one distance per entry of the shared-neighbor count, in
    the count's CSR order, with ``row_ptr`` its row pointer. Within a row the
    entries are in the order the sparse product left them, not in column
    order, and the diagonal is one of them, at distance 1.0: the least
    distance, as a count is at most the geometric mean of its sizes.
    ``values`` is the float64 product's own data, each count overwritten by
    its distance, and ``columns`` its indices, int32 below 2**31 entries: 12
    bytes an entry. Off the count every distance is inf. The array is
    exactly symmetric, which the repair of
    :func:`isofdp.isomap.build_neighbor_graph` relies on.

    Rows are read only through :meth:`ragged`, which gives given rows'
    entries end to end with each row's start, as views for a contiguous run
    of rows; no other module reads the layout. A caller that needs a block
    pads what it reads itself.
    """

    node_count: int
    row_ptr: np.ndarray
    columns: np.ndarray
    values: np.ndarray

    def ragged(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distances and columns of the rows ``rows``, end to end, and where each row starts.

        The rows' count entries, in ``rows``' order, the diagonal's 1.0
        among them, with no padding; row ``rows[r]`` holds the entries from
        ``starts[r]`` up to the next start, or to the end for the last. Every
        row holds at least its diagonal. Ascending contiguous rows come back
        as read-only views of the count's arrays, any others as one gather.
        """
        begin = self.row_ptr[rows]
        if rows.size and np.all(np.diff(rows) == 1):
            span = slice(begin[0], self.row_ptr[rows[-1] + 1])
            values, columns = self.values[span], self.columns[span]
            values.flags.writeable = columns.flags.writeable = False
            return values, columns, begin - begin[0]
        counts = self.row_ptr[rows + 1] - begin
        starts = np.cumsum(counts) - counts
        src = np.repeat(begin - starts, counts)
        src += np.arange(src.size)
        return self.values[src], self.columns[src], starts


def distance_rows(g: Graph) -> DistanceRows:
    """Distances ``d = 1/s`` between all nodes, as a source of row blocks.

    Zero similarity gives inf. The diagonal is stored, at 1.0 rather than 0:
    a node's similarity to itself is ``s = 1``. Each similarity is
    ``s = c / sqrt((deg[u] + 1)(deg[v] + 1))``, with ``c = a @ a`` the exact
    shared-neighbor counts of the sparse closed neighborhoods ``a`` (the
    adjacency plus the identity). ``1/s`` is computed once per count entry
    and written there; every pair off the count has ``s = 0``.

    Only the count is held, so memory is linear in its entries; no n x n
    array is built. The product is taken in floats, exact for integers under
    2**53, and each entry's distance is written over its own count, a chunk
    of ``_CHUNK_ROWS`` rows at a time: the count is held at 12 bytes an
    entry, and the stage peaks one chunk's temporaries above that.
    """
    n = g.node_count
    size = g.degrees + 1.0
    # the count in floats, so that each entry's distance is written over it
    a = g.adjacency.astype(float) + identity(n, format="csr")
    # the product's column order within a row is left as it comes: the
    # blocks scatter by column, and the k-NN graph's rules read columns,
    # not positions
    c = a @ a
    ptr, col, values = c.indptr, c.indices, c.data
    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        span = slice(ptr[lo], ptr[hi])
        # the size products are integers under 2**53, so exact
        su = np.repeat(size[lo:hi], np.diff(ptr[lo : hi + 1]))
        su *= size.take(col[span])
        s = np.divide(values[span], np.sqrt(su, out=su), out=su)
        np.divide(1.0, s, out=values[span])
        del su, s  # freed before the next chunk's are made
    return DistanceRows(n, ptr, col, values)
