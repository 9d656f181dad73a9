"""Node-pair similarity measures and the distances ``d = 1/s`` they give.

The default measure is structure similarity: the overlap of closed
neighborhoods normalized by the geometric mean of their sizes. Alternate
measures compare adjacency rows through the same shared-neighbor count and
are written as similarities so the distance transform is uniform.
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

MEASURES = ("structure", "euclidean", "jaccard", "cosine", "hamming")

# rows of the count whose distances are written at a time: every temporary
# of distance_rows is one chunk's, a few arrays over its entries
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class DistanceRows:
    """The n x n distances ``d = 1/s`` of one measure, read a block of rows at a time.

    Built by :func:`distance_rows`. ``columns`` and ``values`` hold one
    column index and one number per entry of the shared-neighbor count, in
    the count's CSR order, with ``row_ptr`` its row pointer: ``1/s`` for
    structure, cosine and jaccard, ``2 c`` for euclidean and hamming. Within
    a row the entries are in the order the sparse product left them, not in
    column order, and the diagonal is one of them wherever ``c[v, v] > 0``.
    ``values`` is the float64 product's own data, each count overwritten by
    its distance, and ``columns`` its indices, int32 below 2**31 entries:
    12 bytes an entry.
    ``degrees`` are the float node degrees and ``isolated`` the nodes
    without one. The array is exactly symmetric, which the repair of
    :func:`isofdp.isomap.build_neighbor_graph` relies on.
    """

    node_count: int
    measure: str
    row_ptr: np.ndarray
    columns: np.ndarray
    values: np.ndarray
    degrees: np.ndarray
    isolated: np.ndarray

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo..hi-1``: the bytes the dense n x n array holds there."""
        return self._dense(np.arange(lo, hi), slice(self.row_ptr[lo], self.row_ptr[hi]))

    def entries(self, rows, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The distances of ``rows`` to the other nodes, with the column of each.

        ``rows`` is a slice or an array of row indices. Returns ``values``,
        ``(len(rows), w)`` with the diagonal read as inf, and ``columns``,
        which broadcasts against it, in one of two layouts:

        - padded: each row's finite distances in the count's order, then
          inf (column 0) up to ``w``, the longest row's count or ``width``
          if larger; ``columns`` has the shape of ``values``. A row's finite
          distances are its count entries; under jaccard an isolated node's
          are its 1.0 to each isolated node.
        - dense: the rows of the n x n array, ``w = n``, and ``columns`` is
          ``0..n-1``, one row for all.

        The padded layout is read when its values and columns take less room
        than the dense rows; euclidean and hamming, finite for every pair,
        are always dense.
        """
        n = self.node_count
        ptr = self.row_ptr
        idx = np.arange(rows.start, rows.stop) if isinstance(rows, slice) else rows
        counts = ptr[idx + 1] - ptr[idx]
        if isinstance(rows, slice):
            src = slice(ptr[rows.start], ptr[rows.stop])
        else:  # each row's entries, concatenated
            src = np.repeat(ptr[idx] - (np.cumsum(counts) - counts), counts)
            src += np.arange(src.size)
        lone = np.flatnonzero(self.degrees[idx] == 0) if self.measure == "jaccard" else idx[:0]
        if self.measure in ("euclidean", "hamming"):
            longest = n
        else:
            longest = max(counts.max(initial=0), self.isolated.size if lone.size else 0)
        longest = max(int(longest), width)
        if longest * (self.values.itemsize + self.columns.itemsize) >= n * self.values.itemsize:
            vals = self._dense(idx, src)
            vals[np.arange(idx.size), idx] = np.inf
            return vals, np.arange(n)
        filled = np.arange(longest, dtype=counts.dtype) < counts[:, None]
        vals = np.full((idx.size, longest), np.inf)
        cols = np.zeros((idx.size, longest), dtype=self.columns.dtype)
        vals[filled] = self.values[src]
        cols[filled] = self.columns[src]
        if lone.size:  # no count entries: the row is empty up to here
            vals[lone, : self.isolated.size] = 1.0
            cols[lone, : self.isolated.size] = self.isolated
        vals[cols == idx.astype(cols.dtype)[:, None]] = np.inf
        return vals, cols

    def _dense(self, idx: np.ndarray, src) -> np.ndarray:
        """The dense rows ``idx``, whose count entries are ``src``."""
        n = self.node_count
        d = np.empty((idx.size, n))
        flat = d.reshape(-1)  # a view, as d is contiguous
        at = np.repeat(np.arange(idx.size) * n, self.row_ptr[idx + 1] - self.row_ptr[idx])
        at += self.columns[src]
        if self.measure in ("euclidean", "hamming"):
            np.add(self.degrees[idx, None], self.degrees, out=d)
            flat[at] -= self.values[src]
            if self.measure == "euclidean":
                np.sqrt(d, out=d)
            else:
                d /= n
            d += 1.0
            # s = 1 / (1 + x), then d = 1 / s: 1 + x itself can differ in the last bit
            np.divide(1.0, d, out=d)
            np.divide(1.0, d, out=d)
        else:
            d.fill(np.inf)
            flat[at] = self.values[src]
            if self.measure == "jaccard" and self.isolated.size:
                d[np.ix_(np.flatnonzero(self.degrees[idx] == 0), self.isolated)] = 1.0
        d[np.arange(idx.size), idx] = 0.0
        return d


def distance_rows(g: Graph, measure: str = "structure") -> DistanceRows:
    """Distances ``d = 1/s`` between all nodes, as a source of row blocks.

    Zero similarity gives inf, and the diagonal is zero. Each similarity
    ``s`` is a closed form of the degrees and the exact shared-neighbor
    counts ``c = a @ a`` of the sparse adjacency (``a + I``, closed
    neighborhoods, for ``structure``); 0/1 rows u, v differ in ``deg[u] +
    deg[v] - 2 c`` coordinates. Structure, cosine and jaccard are zero off the
    count's entries, so ``1/s`` is computed once per entry and written only
    there; two isolated nodes have jaccard similarity 1. Distance-like
    measures (euclidean, hamming: the fraction that differs) map to
    similarities via ``s = 1 / (1 + x)``, finite for every pair, and are
    computed from the degrees and the count in each block of rows.

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
    if measure in ("euclidean", "hamming"):
        values *= 2.0
    else:
        for lo in range(0, n, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, n)
            span = slice(ptr[lo], ptr[hi])
            du = np.repeat(deg[lo:hi], np.diff(ptr[lo : hi + 1]))
            _write_distances(measure, values[span], du, deg.take(col[span]))
            del du  # freed before the next chunk's are made
    return DistanceRows(n, measure, ptr, col, values, deg, np.flatnonzero(deg == 0))


def _write_distances(measure: str, common: np.ndarray, du: np.ndarray, dv: np.ndarray) -> None:
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
    else:  # jaccard: coordinates set in either row
        du += dv
        du -= 2.0 * common
        np.add(du, common, out=dv)
        s = np.divide(du, dv, out=dv)
        np.subtract(1.0, s, out=s)
    np.divide(1.0, s, out=common)
