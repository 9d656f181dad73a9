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


@dataclass(frozen=True)
class DistanceRows:
    """The n x n distances ``d = 1/s`` of one measure, written a block of rows at a time.

    Built by :func:`distance_rows`. ``offsets`` holds ``u * n + v`` and
    ``values`` one number per entry of the shared-neighbor count, in the
    count's CSR order, with ``row_ptr`` its row pointer: ``1/s`` for
    structure, cosine and jaccard, ``2 c`` for euclidean and hamming.
    ``degrees`` are the float node degrees and ``isolated`` the nodes
    without one. The array is exactly symmetric, which the repair of
    :func:`isofdp.isomap.build_neighbor_graph` relies on.
    """

    node_count: int
    measure: str
    row_ptr: np.ndarray
    offsets: np.ndarray
    values: np.ndarray
    degrees: np.ndarray
    isolated: np.ndarray

    def rows(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows ``lo..hi-1``: the bytes the dense n x n array holds there.

        ``out``, if given, is a C-contiguous ``(hi - lo, n)`` float array to
        write into.
        """
        n = self.node_count
        d = np.empty((hi - lo, n)) if out is None else out
        if not d.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        flat = d.reshape(-1)  # a view, as d is contiguous
        entries = slice(self.row_ptr[lo], self.row_ptr[hi])
        at = self.offsets[entries] - lo * n
        if self.measure in ("euclidean", "hamming"):
            np.add(self.degrees[lo:hi, None], self.degrees, out=d)
            flat[at] -= self.values[entries]
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
            flat[at] = self.values[entries]
            if self.measure == "jaccard" and self.isolated.size:
                lone = self.isolated
                d[np.ix_(lone[(lone >= lo) & (lone < hi)] - lo, lone)] = 1.0
        diag = np.arange(lo, hi)
        d[diag - lo, diag] = 0.0
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
    count's entries; no n x n array is built.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; supported: {MEASURES}")
    n = g.node_count
    a = g.adjacency
    deg = g.degrees
    if measure == "structure":
        a = a + identity(n, dtype=a.dtype, format="csr")
    # the product's column order within a row is left as it comes: the
    # blocks scatter through flat offsets, which need no order
    c = a @ a
    per_row = np.diff(c.indptr)
    col, common = c.indices, c.data
    if measure in ("euclidean", "hamming"):
        values = 2.0 * common
    else:
        if measure == "structure":
            # in floats: the size products are integers under 2**53, so exact
            sizes = deg + 1.0
            s = np.repeat(sizes, per_row)
            s *= sizes.take(col)
            np.divide(common, np.sqrt(s, out=s), out=s)
        elif measure == "cosine":
            norms = np.sqrt(deg)
            s = np.repeat(norms, per_row)
            s *= norms.take(col)
            np.divide(common, s, out=s)
        else:  # jaccard: coordinates set in either row
            differ = np.repeat(deg, per_row)
            differ += deg.take(col)
            differ -= 2 * common
            s = differ / (differ + common)
            np.subtract(1.0, s, out=s)
        values = np.divide(1.0, s, out=s)
    # after the values, so that their temporaries are gone
    offsets = np.repeat(np.arange(n, dtype=np.int64) * n, per_row)
    offsets += col
    return DistanceRows(
        n, measure, c.indptr, offsets, values, deg.astype(float), np.flatnonzero(deg == 0)
    )
