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
    column index and one distance per entry of the shared-neighbor count, in
    the count's CSR order, with ``row_ptr`` its row pointer. Within a row the
    entries are in the order the sparse product left them, not in column
    order, and the diagonal is one of them wherever ``c[v, v] > 0``.
    ``values`` is the float64 product's own data, each count overwritten by
    its distance, and ``columns`` its indices, int32 below 2**31 entries:
    12 bytes an entry. Off the count, structure, cosine and jaccard
    distances are inf, but for jaccard's 1.0 between two isolated nodes;
    euclidean and hamming ones grow strictly with ``deg[u] + deg[v]``.
    ``degrees`` are the float node degrees and ``order`` the nodes in
    (degree, index) order. The array is exactly symmetric, which the repair
    of :func:`isofdp.isomap.build_neighbor_graph` relies on.
    """

    node_count: int
    measure: str
    row_ptr: np.ndarray
    columns: np.ndarray
    values: np.ndarray
    degrees: np.ndarray
    order: np.ndarray

    def entries(self, rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Distances of the rows ``rows`` that hold each one's ``width`` nearest, and their columns.

        Both are ``(len(rows), w)``, ``width <= w <= n``: each row's count
        entries, the diagonal read as inf, then inf (column 0); under jaccard
        an isolated node's 1.0 to each isolated node. Under euclidean and
        hamming, finite for every pair, the first ``longest + width + 1``
        nodes in (degree, index) order come first, ``longest`` the block's
        most count entries in a row, with the row's count distance where it
        has one; its other entries follow. Off the count a distance grows
        strictly with the other node's degree, so no node left out precedes
        ``width`` of these in (distance, column) order.
        """
        head = self.order[:0]
        if self.measure in ("euclidean", "hamming"):
            longest = (self.row_ptr[rows + 1] - self.row_ptr[rows]).max(initial=0)
            head = self.order[: int(longest) + width + 1]
        return self._padded(rows, width, head)

    def nearest_outside(self, rows: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's least (distance, column) outside its ``group``: inf and n where there is none.

        Reads the rows' count entries and, under euclidean and hamming, the
        first node in (degree, index) order outside the row's group, which
        no other node off the count is nearer than: the first node, or the
        first outside that one's group.
        """
        head = self.order[:0]
        if self.measure in ("euclidean", "hamming"):
            head = self.order[[0, np.argmax(group[self.order] != group[self.order[0]])]]
        vals, cols = self._padded(rows, 1, head)
        vals[group.take(cols) == group[rows, None]] = np.inf
        w = vals.min(axis=1, keepdims=True)
        return w[:, 0], np.min(cols, axis=1, where=vals == w, initial=self.node_count)

    def _padded(self, rows, width, head):
        """The distances of ``rows`` to ``head``, then their other count entries, padded with inf.

        ``head`` is in (degree, index) order; a count entry to one of its
        nodes is written at that node.
        """
        n, h = self.node_count, head.size
        counts = self.row_ptr[rows + 1] - self.row_ptr[rows]
        src = np.repeat(self.row_ptr[rows] - (np.cumsum(counts) - counts), counts)
        src += np.arange(src.size)
        if h:
            cols = self.columns[src]
            key, head_key = self.degrees[cols] * n + cols, self.degrees[head] * n + head
            at = np.minimum(np.searchsorted(head_key, key), h - 1)
            inside = head_key[at] == key
            r = np.repeat(np.arange(rows.size), counts)[inside]
            to_head, src, at = src[inside], src[~inside], at[inside]
            counts = counts - np.bincount(r, minlength=rows.size)
        w = max(width, h + int(counts.max(initial=0)))
        lone = np.flatnonzero(self.degrees[rows] == 0) if self.measure == "jaccard" else rows[:0]
        if lone.size:
            isolated = self.order[: np.count_nonzero(self.degrees == 0)]
            w = max(w, isolated.size)
        vals = np.full((rows.size, w), np.inf)
        columns = np.zeros((rows.size, w), dtype=self.columns.dtype)
        if h:
            near = vals[:, :h]
            np.add(self.degrees[rows, None], self.degrees[head], out=near)
            np.divide(1.0, _differing_similarity(self.measure, near, n), out=near)
            columns[:, :h] = head
            vals[r, at] = self.values[to_head]  # its column is the head's
        filled = np.arange(w - h, dtype=counts.dtype) < counts[:, None]
        vals[:, h:][filled] = self.values[src]
        columns[:, h:][filled] = self.columns[src]
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
    deg[v] - 2 c`` coordinates. Distance-like measures (euclidean, hamming:
    the fraction that differs) map to similarities via ``s = 1 / (1 + x)``,
    finite for every pair; the distance is ``1/s`` of that, as ``1 + x``
    itself can differ in the last bit. ``1/s`` is computed once per count
    entry and written there; blocks compute what they read off the count.

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
        _write_distances(measure, values[span], du, deg.take(col[span]), n)
        del du  # freed before the next chunk's are made
    return DistanceRows(n, measure, ptr, col, values, deg, np.argsort(deg, kind="stable"))


def _write_distances(measure: str, common, du, dv, n: int) -> None:
    """Writes ``1/s`` over the counts ``common`` of entries between nodes of degrees ``du``, ``dv``.

    ``du`` and ``dv`` are overwritten, and ``n`` is the node count. In floats
    the counts, the degrees and their sums and size products are integers
    under 2**53, so exact.
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
    else:  # coordinates set in one row only
        du += dv
        du -= 2.0 * common
        if measure == "jaccard":  # of those set in either
            np.add(du, common, out=dv)
            s = np.divide(du, dv, out=dv)
            np.subtract(1.0, s, out=s)
        else:
            s = _differing_similarity(measure, du, n)
    np.divide(1.0, s, out=common)


def _differing_similarity(measure: str, x: np.ndarray, n: int) -> np.ndarray:
    """Writes over ``x`` the euclidean or hamming ``s`` of 0/1 rows that differ in x of n places."""
    if measure == "euclidean":
        np.sqrt(x, out=x)
    else:
        x /= n
    x += 1.0
    return np.divide(1.0, x, out=x)
