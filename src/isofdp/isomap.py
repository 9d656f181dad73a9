"""Manifold projection of CSR distances: k-NN graph, geodesics, classical MDS.

The distances are a scipy CSR matrix, read a block of rows at a time; an
entry that is not stored is an infinite distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

__all__ = [
    "LANDMARKS",
    "NeighborGraph",
    "Embedding",
    "build_neighbor_graph",
    "geodesic_distances",
    "classical_mds",
    "residual_variances",
]

# rows each k-NN and repair read, and each 1/s write of the distances, takes
# at a time: every temporary of the k-NN graph is one block's, each array at
# most 8 n bytes a row (a block is never wider than n), and 256-row blocks, n
# wide then, raised n=3000's max RSS 6%
_BLOCK_ROWS = 64

# geodesic rows per embedding: every node is a landmark when there are at
# most this many of them; at n=3000, 256 landmarks cost more NMI than 128
LANDMARKS = 128


@dataclass(frozen=True)
class NeighborGraph:
    """Weighted undirected k-NN graph, repaired to be connected.

    ``edges`` holds read-only sorted ``(m, 2)`` int64 rows ``(u, v)``, ``u < v``,
    as ``Graph.edge_array`` does, repair edges included; ``weights`` holds the
    ``(m,)`` float64 distance of each.
    """

    node_count: int
    edges: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional coordinates from landmark MDS.

    ``coordinates`` is n x p, one column per kept eigenvalue of the landmark
    block, ordered by non-increasing eigenvalue. ``truncated`` flags the case
    where fewer positive eigenvalues than requested dimensions were available.
    """

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    requested_dim: int

    @property
    def dim(self) -> int:
        return self.coordinates.shape[1]

    @property
    def truncated(self) -> bool:
        return self.dim < self.requested_dim


def _csr_rows(d: csr_matrix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distances and columns of the rows ``rows`` of ``d``, end to end, and where each row starts.

    The rows' stored entries, in ``rows``' order, the diagonal's 1.0 among
    them, with no padding; row ``rows[r]`` holds the entries from
    ``starts[r]`` up to the next start, or to the end for the last. Every
    row holds at least its diagonal. Ascending contiguous rows come back as
    read-only views of ``d.data`` and ``d.indices``, any others as scipy's
    row gather ``d[rows]``.
    """
    if rows.size and np.all(np.diff(rows) == 1):
        begin = d.indptr[rows]
        span = slice(begin[0], d.indptr[rows[-1] + 1])
        values, columns = d.data[span], d.indices[span]
        values.flags.writeable = columns.flags.writeable = False
        return values, columns, begin - begin[0]
    picked = d[rows]
    return picked.data, picked.indices, picked.indptr[:-1]


def build_neighbor_graph(d: csr_matrix, neighborhood_size: int) -> NeighborGraph:
    """Symmetric k-NN graph over finite distances, joined into one component.

    ``d`` is the CSR matrix :func:`isofdp.similarity.prepared_distances`
    returns, exactly symmetric, its diagonal stored; an entry it does not
    store is an infinite distance. It is read ``_BLOCK_ROWS`` rows at a
    time, so no n x n copy or mask is made. Each row i keeps its first
    ``neighborhood_size`` partners j at a finite distance in
    (distance, j) order, so ties go to the smaller node index, and a row
    with fewer finite distances keeps them all; edge (i, j) is kept when row
    i or row j keeps the other. If the k-NN graph is disconnected, its components are joined
    by their minimum spanning forest over the finite pairs ``u < v``, with
    weight ``d[u, v]`` and ties broken by (w, u, v), which is unique under
    that order: the edges Kruskal would add. Groups that still share no finite distance,
    such as the components of a disconnected graph, are joined by a star of
    bridges from node 0 to each group's smallest node. Each bridge weighs
    twice the largest finite distance, which keeps the groups maximally
    separated in the embedding while letting the projection proceed.

    Every read is one :func:`_csr_rows` call. The k-NN scan pads a block's
    values alone, with inf, at least k + 1 wide, and partitions them: each
    row's k nearest off-diagonal entries lie at or below its (k+1)-th value,
    whatever its diagonal holds, and the row's own entry is dropped from
    those. The forest is found in Borůvka
    rounds: in each row the entries inside the row's own component, its
    diagonal among them, read inf, and one ``np.minimum.reduceat`` gives
    each row's least distance out, a second the least column among the
    entries at it. The first round reads every row; later ones only the
    rows whose partner has since joined their component.
    """
    n = d.shape[0]
    k = int(neighborhood_size)
    if not 1 <= k <= n - 1:
        raise ValueError(f"neighborhood size must be in 1..{n - 1}, got {k}")
    nodes = np.arange(n)
    blocks = [nodes[lo : lo + _BLOCK_ROWS] for lo in range(0, n, _BLOCK_ROWS)]

    keys, weights = [], []
    for rows in blocks:
        values, columns, starts = _csr_rows(d, rows)
        counts = np.diff(starts, append=values.size)
        vals = np.full((rows.size, max(k + 1, int(counts.max()))), np.inf)
        vals[np.arange(vals.shape[1]) < counts[:, None]] = values
        # each row's k nearest off-diagonal entries lie at or below its
        # (k+1)-th value, whatever its diagonal holds; capping an infinite
        # (k+1)-th keeps every entry of a row with at most k off its diagonal
        kth = np.partition(vals, k, axis=1)[:, k : k + 1]
        r, s = np.nonzero(vals <= np.minimum(kth, np.finfo(float).max))
        at = starts[r] + s
        off = columns[at] != rows[r]
        r, at = r[off], at[off]
        # the first k of each row in (row, distance, column) order
        order = np.lexsort((columns[at], values[at], r))
        r, at = r[order], at[order]
        keep = np.arange(r.size) - np.searchsorted(r, r) < k
        bi, at = rows[r[keep]], at[keep]
        bj = columns[at]
        weights.append(values[at])
        keys.append(np.minimum(bi, bj) * n + np.maximum(bi, bj))
    # a pair that both its rows selected comes twice, with one weight
    keys, first = np.unique(np.concatenate(keys), return_index=True)
    if not keys.size:
        raise ValueError("no finite distances at all: no two nodes share a neighbor")
    weights = np.concatenate(weights)[first]

    adj = csr_matrix((np.ones(keys.size), np.divmod(keys, n)), shape=(n, n))
    components, comp = connected_components(adj, directed=False)

    if components > 1:
        # Boruvka rounds from the k-NN components: each takes its lightest
        # finite pair to another, by (w, u, v) over u < v, and those join. As
        # the rows are symmetric, that pair is the least (w, min, max) over
        # the component's rows of each row's least (w, column) outside it
        row_w, row_v = np.empty(n), np.empty(n, dtype=np.int64)
        scan = blocks
        while components > 1:
            for rows in scan:
                # inf for a row with no finite pair outside; every row holds
                # its diagonal, so none is empty
                vals, cols, starts = _csr_rows(d, rows)
                counts = np.diff(starts, append=vals.size)
                vals = np.where(comp.take(cols) == np.repeat(comp[rows], counts), np.inf, vals)
                least = np.minimum.reduceat(vals, starts)
                row_w[rows] = least
                tied = vals == np.repeat(least, counts)
                row_v[rows] = np.minimum.reduceat(np.where(tied, cols, n), starts)
            u, v = np.minimum(nodes, row_v), np.maximum(nodes, row_v)
            order = np.lexsort((v, u, row_w, comp))
            best = order[np.unique(comp[order], return_index=True)[1]]
            best = best[row_w[best] < np.inf]  # a component with no way out
            if not best.size:
                break
            # two components may pick one pair
            joins, pick = np.unique(u[best] * n + v[best], return_index=True)
            keys, weights = np.r_[keys, joins], np.r_[weights, row_w[best[pick]]]
            ju, jv = np.divmod(joins, n)
            merged = csr_matrix((np.ones(joins.size), (comp[ju], comp[jv])), shape=(components,) * 2)
            components, group = connected_components(merged, directed=False)
            comp = group[comp]
            # components only merge, so a row whose partner is still outside
            # its own keeps it; the others are read again
            stale = np.flatnonzero((comp[row_v] == comp) & (row_w < np.inf))
            scan = [stale[i : i + _BLOCK_ROWS] for i in range(0, stale.size, _BLOCK_ROWS)]
        if components > 1:
            # each group's smallest node r, the key of (0, r); node 0's sorts first
            reps = np.sort(np.unique(comp, return_index=True)[1])[1:]
            # every stored distance is finite and the diagonal's 1.0 the
            # least, so the largest stored one is the largest finite distance
            bridge = 2.0 * float(d.data.max())
            keys, weights = np.r_[keys, reps], np.r_[weights, np.full(reps.size, bridge)]
        order = np.argsort(keys)
        keys, weights = keys[order], weights[order]

    edges = np.column_stack(np.divmod(keys, n))
    edges.flags.writeable = False
    weights.flags.writeable = False
    return NeighborGraph(n, edges, weights)


def geodesic_distances(ng: NeighborGraph, landmarks: int = LANDMARKS) -> np.ndarray:
    """Exact shortest paths over the neighbor graph from landmarks, one row each.

    Every node is a landmark when there are at most ``landmarks`` of them,
    and the n x n rows come from one Dijkstra call. Otherwise ``l <=
    landmarks`` are picked by max-min distance: node 0 first, then each time
    the node farthest from the landmarks so far (the first maximum, so ties
    go to the smaller index), until every node is at distance 0 from one.
    Rows are as Dijkstra returns them, symmetric among the landmarks only up
    to rounding: :func:`classical_mds` makes the block it reads exactly
    symmetric. All entries are finite.
    """
    if landmarks < 2:
        raise ValueError(f"landmarks must be >= 2, got {landmarks}")
    n = ng.node_count
    # both directions of each edge, so Dijkstra runs directed: undirected
    # Dijkstra transposes its input on every call, for the same bytes. Built
    # from the arrays, as a sparse sum would drop the zero-weight edges
    u, v = ng.edges.T
    both = csr_matrix((np.r_[ng.weights, ng.weights], (np.r_[u, v], np.r_[v, u])), shape=(n, n))
    rows = [_csgraph_dijkstra(both, indices=np.arange(n) if landmarks >= n else [0])]
    if rows[0].max() == np.inf:
        raise ValueError("neighbor graph is disconnected")
    mind = rows[0].min(axis=0)  # distance to the nearest landmark; all 0 if every node is one
    while len(rows) < landmarks and mind.max() > 0:
        rows.append(_csgraph_dijkstra(both, indices=[int(mind.argmax())]))
        np.minimum(mind, rows[-1][0], out=mind)
    return np.vstack(rows)


def _landmark_block(d: np.ndarray) -> np.ndarray:
    """The distances among the sources of the rows ``d``, the one input MDS reads.

    A row of exact shortest paths is 0 at its source, so the source's column
    is the first zero of the row, or that of a node at distance 0 from it,
    whose column holds the same distances; which nodes the rows come from,
    and in which order, is not read. Each row is then 0 at its source's
    column, which makes the diagonal zero, and the block is made exactly
    symmetric here, as the shortest paths from u to v and from v to u can
    differ in the last bit.
    """
    l, n = d.shape
    cols = d.argmin(axis=1)
    if l > n or d[np.arange(l), cols].any():
        raise ValueError("need l <= n geodesic rows, each 0 at its source")
    block = d[:, cols]
    return np.minimum(block, block.T)


def _top_eigenpairs(block: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The top ``count`` eigenpairs of the centered Gram matrix of a distance block.

    ``-1/2 X (D o D) X``, ``X = I - (1/l) 11^T``, is centered in place on one
    l x l buffer and decomposed by one dense ``eigh`` of its lower triangle
    over the top ``count`` indices, or over all of them when that comes back
    short. Only pairs whose eigenvalue exceeds a tiny share of the largest
    are returned, largest first: none if no eigenvalue is positive.
    """
    b = np.square(block)
    b -= b.mean(axis=0)
    b -= b.mean(axis=1)[:, None]
    b *= -0.5
    l = b.shape[0]
    lo = max(l - count, 0)
    vals, vecs = eigh(b, subset_by_index=[lo, l - 1])
    if vals.size < l - lo:
        # the subset solver can return fewer pairs than asked, or none, when
        # the top eigenvalue repeats more often than asked for
        vals, vecs = eigh(b)
        vals, vecs = vals[lo:], vecs[:, lo:]
    vals, vecs = vals[::-1], vecs[:, ::-1]
    keep = vals > 1e-10 * max(vals[0], 0.0)
    return vals[keep], vecs[:, keep]


def classical_mds(gd, dim: int) -> Embedding:
    """Landmark MDS to ``dim`` coordinates from l x n distance rows, l <= n.

    The rows are read through the exactly symmetric block of distances among
    their sources, with a zero diagonal; :func:`geodesic_distances` gives
    every node's rows when there are at most ``LANDMARKS`` nodes.

    Keeps the top ``dim`` eigenpairs of that ``l x l`` block, from one dense
    ``eigh``, with eigenvalue above a relative positive threshold; when fewer
    are available the embedding carries fewer columns (flagged via
    ``truncated``), except that a fully degenerate input yields a single
    all-zero column. Each column's largest-magnitude entry is made
    nonnegative so the output is sign-deterministic. The solve is O(l^3).

    This is landmark MDS (de Silva & Tenenbaum, NIPS 2003): every node,
    landmarks included, is placed by distance-based triangulation, ``x =
    -1/2 L# (delta_x - mean delta)``, where ``delta_x`` holds its squared
    distances to the landmarks. A landmark lands on its classical MDS
    coordinates, up to rounding.
    """
    if dim < 1:
        raise ValueError("embedding dimension must be >= 1")
    d = np.asarray(gd, dtype=float)
    n = d.shape[1]
    block = _landmark_block(d)
    vals, vecs = _top_eigenpairs(block, dim)
    if not vals.size:
        return Embedding(np.zeros((n, 1)), np.zeros(1), dim)
    flip = vecs[np.abs(vecs).argmax(axis=0), np.arange(vals.size)] < 0
    vecs[:, flip] = -vecs[:, flip]
    coords = vecs * np.sqrt(vals)
    mean_sq = np.square(block).mean(axis=1)
    coords = -0.5 * (np.square(d) - mean_sq[:, None]).T @ (coords / vals)
    return Embedding(coords, vals, dim)


def residual_variances(gd, max_dim: int) -> list:
    """(dim, residual) pairs: share of the positive spectrum left out at each dim.

    The spectrum is the one :func:`classical_mds` keeps from, every
    eigenvalue above its threshold; on ``l x n`` landmark rows it is that of
    the ``l x l`` block.
    """
    block = _landmark_block(np.asarray(gd, dtype=float))
    positive, _ = _top_eigenpairs(block, len(block))
    total = math.fsum(positive)
    return [
        (p, 1.0 - math.fsum(positive[:p]) / total if total > 0 else 0.0) for p in range(1, max_dim + 1)
    ]
