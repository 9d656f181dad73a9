"""Node-pair similarity measures and the distances ``d = 1/s`` they give.

The default measure is structure similarity: the overlap of closed
neighborhoods normalized by the geometric mean of their sizes. The
alternates, jaccard and cosine, compare open neighborhoods through the same
shared-neighbor count, so every measure's distance transform is uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import identity

from .graph import Graph

__all__ = [
    "MEASURES",
    "DistanceRows",
    "distance_rows",
]

MEASURES = ("structure", "jaccard", "cosine")

# rows of the count whose distances are written at a time: every temporary
# of distance_rows is one chunk's, a few arrays over its entries
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class DistanceRows:
    """The n x n distances ``d = 1/s`` of one measure, read a block of rows at a time.

    Built by :func:`distance_rows`. ``columns`` and ``values`` hold one
    column index and one distance per entry of the shared-neighbor count, in
    the count's CSR order, with ``row_ptr`` its row pointer. Within a row the
    entries are in the order the sparse product left them, not in column
    order, and the diagonal is one of them wherever ``c[v, v] > 0``.
    ``values`` is the float64 product's own data, each count overwritten by
    its distance, and ``columns`` its indices, int32 below 2**31 entries:
    12 bytes an entry. Off the count every distance is inf, but for
    jaccard's 1.0 between two isolated nodes. ``degrees`` are the float node
    degrees. The array is exactly symmetric, which the repair of
    :func:`isofdp.isomap.build_neighbor_graph` relies on.
    """

    node_count: int
    measure: str
    row_ptr: np.ndarray
    columns: np.ndarray
    values: np.ndarray
    degrees: np.ndarray

    def entries(self, rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Distances of the rows ``rows`` that hold each one's ``width`` nearest, and their columns.

        Both are ``(len(rows), w)``, ``width <= w <= n``: each row's count
        entries, the diagonal read as inf, then inf (column 0); under jaccard
        an isolated node's 1.0 to each isolated node.
        """
        counts = self.row_ptr[rows + 1] - self.row_ptr[rows]
        src = np.repeat(self.row_ptr[rows] - (np.cumsum(counts) - counts), counts)
        src += np.arange(src.size)
        w = max(width, int(counts.max(initial=0)))
        lone = np.flatnonzero(self.degrees[rows] == 0) if self.measure == "jaccard" else rows[:0]
        if lone.size:
            isolated = np.flatnonzero(self.degrees == 0)
            w = max(w, isolated.size)
        vals = np.full((rows.size, w), np.inf)
        columns = np.zeros((rows.size, w), dtype=self.columns.dtype)
        filled = np.arange(w, dtype=counts.dtype) < counts[:, None]
        vals[filled] = self.values[src]
        columns[filled] = self.columns[src]
        if lone.size:  # no count entries: the row is empty up to here
            vals[lone, : isolated.size] = 1.0
            columns[lone, : isolated.size] = isolated
        vals[columns == rows.astype(columns.dtype)[:, None]] = np.inf
        return vals, columns


def distance_rows(g: Graph, measure: str = "structure") -> DistanceRows:
    """Distances ``d = 1/s`` between all nodes, as a source of row blocks.

    Zero similarity gives inf, and the diagonal is zero. Each similarity
    ``s`` is a closed form of the degrees and the exact shared-neighbor
    counts ``c = a @ a`` of the sparse adjacency (``a + I``, closed
    neighborhoods, for ``structure``); 0/1 rows u, v differ in ``deg[u] +
    deg[v] - 2 c`` coordinates. ``1/s`` is computed once per count entry and
    written there; every pair off the count has ``s = 0``, but for
    jaccard's two isolated nodes.

    Only the count and the degrees are held, so memory is linear in the
    count's entries; no n x n array is built. The product is taken in
    floats, exact for integers under 2**53, and each entry's distance is
    written over its own count, a chunk of ``_CHUNK_ROWS`` rows at a time:
    the count is held at 12 bytes an entry, and the stage peaks one chunk's
    temporaries above that.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; supported: {MEASURES}")
    n = g.node_count
    deg = g.degrees.astype(float)
    # the count in floats, so that each entry's distance is written over it
    a = g.adjacency.astype(float)
    if measure == "structure":
        a = a + identity(n, format="csr")
    # the product's column order within a row is left as it comes: the
    # blocks scatter by column, and the k-NN graph's rules read columns,
    # not positions
    c = a @ a
    ptr, col, values = c.indptr, c.indices, c.data
    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        span = slice(ptr[lo], ptr[hi])
        du = np.repeat(deg[lo:hi], np.diff(ptr[lo : hi + 1]))
        _write_distances(measure, values[span], du, deg.take(col[span]))
        del du  # freed before the next chunk's are made
    return DistanceRows(n, measure, ptr, col, values, deg)


def _write_distances(measure: str, common, du, dv) -> None:
    """Writes ``1/s`` over the counts ``common`` of entries between nodes of degrees ``du``, ``dv``.

    ``du`` and ``dv`` are overwritten. In floats the counts, the degrees and
    their sums and size products are integers under 2**53, so exact.
    """
    if measure == "structure":
        du += 1.0
        dv += 1.0
        du *= dv
        s = np.divide(common, np.sqrt(du, out=du), out=du)
    elif measure == "cosine":
        np.sqrt(du, out=du)
        du *= np.sqrt(dv, out=dv)
        s = np.divide(common, du, out=du)
    else:  # jaccard: coordinates set in one row only, of those set in either
        du += dv
        du -= 2.0 * common
        np.add(du, common, out=dv)
        s = np.divide(du, dv, out=dv)
        np.subtract(1.0, s, out=s)
    np.divide(1.0, s, out=common)
