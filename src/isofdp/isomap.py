"""Manifold projection of a distance matrix: k-NN graph, geodesics, classical MDS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra
from scipy.sparse.linalg import eigsh

__all__ = [
    "LANDMARKS",
    "NeighborGraph",
    "Embedding",
    "build_neighbor_graph",
    "geodesic_distances",
    "classical_mds",
    "residual_variances",
]

# rows each k-NN and repair scan takes at a time: one n x n copy or mask would
# be its peak, and at n=3000 256-row blocks already raise the max RSS by 6%
_BLOCK_ROWS = 64

# geodesic rows per embedding: graphs up to this size keep all-pairs geodesics
# and exact MDS; at n=3000, 256 landmarks cost more NMI than 128
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
    """Low-dimensional coordinates from classical MDS.

    ``coordinates`` is n x p with columns scaled by sqrt(eigenvalue) and
    ordered by non-increasing eigenvalue. ``truncated`` flags the case where
    fewer positive eigenvalues than requested dimensions were available.
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


def build_neighbor_graph(d, neighborhood_size: int) -> NeighborGraph:
    """Symmetric k-NN graph over finite distances, joined into one component.

    Edge (i, j) is kept when j is among the ``neighborhood_size`` closest
    finite-distance partners of i, or vice versa; distance ties are broken
    toward the smaller node index, and the weight is read in the row of the
    smaller node that selected the pair. If the k-NN graph is disconnected,
    the globally smallest finite-distance edge joining two components is added
    repeatedly (Kruskal). Groups that still share no finite distance, such as
    the components of a disconnected graph, are joined by a star of bridges
    from node 0 to each group's smallest node. Each bridge weighs twice the
    largest finite distance, which keeps the groups maximally separated in the
    embedding while letting the projection proceed.
    """
    values = np.asarray(d, dtype=float)
    n = values.shape[0]
    k = int(neighborhood_size)
    if not 1 <= k <= n - 1:
        raise ValueError(f"neighborhood size must be in 1..{n - 1}, got {k}")

    keys, weights = [], []
    for lo in range(0, n, _BLOCK_ROWS):
        rows = values[lo : lo + _BLOCK_ROWS]
        b = np.where(np.isfinite(rows), rows, np.inf)
        np.fill_diagonal(b[:, lo:], np.inf)
        # every partner closer than the k-th smallest distance, then those at
        # it in index order until the row has k; none at an infinite k-th.
        # Only rows with more partners at the k-th than room need the count
        kth = np.partition(b, k - 1, axis=1)[:, k - 1 : k]
        below = b < kth
        tied = (b == kth) & np.isfinite(kth)
        room = k - below.sum(axis=1, keepdims=True)
        take = below | tied
        over = np.flatnonzero(tied.sum(axis=1) > room[:, 0])
        take[over] &= below[over] | (np.cumsum(tied[over], axis=1) <= room[over])
        bi, bj = np.divmod(np.flatnonzero(take), n)  # row-major, as np.nonzero
        keys.append(np.minimum(bi + lo, bj) * n + np.maximum(bi + lo, bj))
        weights.append(rows[bi, bj])
    # the first occurrence of a pair comes from the lower row that selected it
    keys, first = np.unique(np.concatenate(keys), return_index=True)
    if not keys.size:
        raise ValueError("no finite distances at all; graph has no edges")
    weights = np.concatenate(weights)[first]

    adj = csr_matrix((np.ones(keys.size), np.divmod(keys, n)), shape=(n, n))
    components, comp = connected_components(adj, directed=False)

    if components > 1:
        # Kruskal from the k-NN components. Pairs within one component never
        # join two, and of those between two components only the first in
        # (w, u, v) order can, so each row block keeps one per component pair
        iu, iv = [], []
        for lo in range(0, n, _BLOCK_ROWS):
            rows = values[lo : lo + _BLOCK_ROWS]
            bu, bv = np.nonzero(np.isfinite(rows) & (comp[lo : lo + len(rows), None] != comp))
            keep = bu + lo < bv
            bu, bv = bu[keep] + lo, bv[keep]
            pair = np.minimum(comp[bu], comp[bv]) * n + np.maximum(comp[bu], comp[bv])
            order = np.lexsort((bv, bu, values[bu, bv], pair))
            first = order[np.unique(pair[order], return_index=True)[1]]
            iu.append(bu[first])
            iv.append(bv[first])
        iu, iv = np.concatenate(iu), np.concatenate(iv)
        w = values[iu, iv]
        joins = []
        for idx in np.lexsort((iv, iu, w)).tolist():
            cu, cv = comp[iu[idx]], comp[iv[idx]]
            if cu != cv:
                comp[comp == cv] = cu
                joins.append(idx)
                components -= 1
                if components == 1:
                    break
        keys, weights = np.r_[keys, iu[joins] * n + iv[joins]], np.r_[weights, w[joins]]
        if components > 1:
            # each group's smallest node r, the key of (0, r); node 0's sorts first
            reps = np.sort(np.unique(comp, return_index=True)[1])[1:]
            # the zero diagonal cannot raise the maximum over positive distances
            bridge = 2.0 * float(values[np.isfinite(values)].max())
            keys, weights = np.r_[keys, reps], np.r_[weights, np.full(reps.size, bridge)]
        order = np.argsort(keys)
        keys, weights = keys[order], weights[order]

    edges = np.column_stack(np.divmod(keys, n))
    edges.flags.writeable = False
    weights.flags.writeable = False
    return NeighborGraph(n, edges, weights)


def geodesic_distances(ng: NeighborGraph, landmarks: int = LANDMARKS) -> np.ndarray:
    """Exact shortest paths over the neighbor graph, from every node or from landmarks.

    With ``landmarks >= n`` the result is the exactly symmetric n x n all-pairs
    array. Otherwise it is the ``l x n`` block of exact rows from ``l <=
    landmarks`` nodes picked by max-min distance: node 0 first, then each time
    the node farthest from the landmarks so far (the first maximum, so ties go
    to the smaller index). The selection stops early once every node is at
    distance 0 from a landmark. All entries are finite.
    """
    if landmarks < 2:
        raise ValueError(f"landmarks must be >= 2, got {landmarks}")
    n = ng.node_count
    # both directions of each edge, so Dijkstra runs directed: undirected
    # Dijkstra transposes its input on every call, for the same bytes. Built
    # from the arrays, as a sparse sum would drop the zero-weight edges
    u, v = ng.edges.T
    both = csr_matrix((np.r_[ng.weights, ng.weights], (np.r_[u, v], np.r_[v, u])), shape=(n, n))
    rows = [_csgraph_dijkstra(both, indices=0)]
    if rows[0].max() == np.inf:
        raise ValueError("neighbor graph is disconnected")
    if landmarks >= n:
        dist = _csgraph_dijkstra(both)
        dist = np.minimum(dist, dist.T)  # enforce exact symmetry
        np.fill_diagonal(dist, 0.0)
        return dist
    mind = rows[0].copy()  # distance from each node to its nearest landmark
    while len(rows) < landmarks and mind.max() > 0:
        rows.append(_csgraph_dijkstra(both, indices=int(mind.argmax())))
        np.minimum(mind, rows[-1], out=mind)
    return np.vstack(rows)


def _centered_gram(d: np.ndarray) -> np.ndarray:
    """The double-centered squared-distance matrix ``-1/2 * X (D o D) X``.

    ``X = I - (1/n) 11^T``; the centering is done by mean subtraction in place
    on one n x n buffer, which is symmetric only up to rounding. Its rank is at
    most n - 1, since the all-ones vector is in its null space.
    """
    b = np.square(d)
    b -= b.mean(axis=0)
    b -= b.mean(axis=1)[:, None]
    b *= -0.5
    return b


def _landmark_block(d: np.ndarray) -> np.ndarray:
    """The distances among the sources of ``l < n`` geodesic rows; ``d`` if square.

    A row of exact shortest paths is 0 at its source, so the source's column
    is the first zero of the row, or that of a node at distance 0 from it,
    whose column holds the same distances. Which nodes the rows come from,
    and in which order, is not read. The block is made exactly symmetric with
    a zero diagonal.
    """
    l, n = d.shape
    if l == n:
        return d
    cols = d.argmin(axis=1)
    if l > n or d[np.arange(l), cols].any():
        raise ValueError("need n x n distances or l < n geodesic rows, each 0 at its source")
    block = d[:, cols]
    block = np.minimum(block, block.T)
    np.fill_diagonal(block, 0.0)
    return block


def classical_mds(gd, dim: int) -> Embedding:
    """Project distances to ``dim`` coordinates: an n x n matrix, or l x n landmark rows.

    Keeps the top ``dim`` eigenpairs with eigenvalue above a relative positive
    threshold; when fewer are available the embedding carries fewer columns
    (flagged via ``truncated``), except that a fully degenerate input yields a
    single all-zero column. Each column's largest-magnitude entry is made
    nonnegative so the output is sign-deterministic.

    Only the top ``min(dim, l - 1)`` eigenpairs are computed, by Lanczos
    iteration (ARPACK) to machine precision. Its start vector and the vectors
    it draws after an invariant subspace (a rank-deficient input) come from a
    fixed seed, so repeated calls return the same bytes.

    Given ``l < n`` rows of exact geodesics from distinct landmarks, as
    :func:`geodesic_distances` returns them, this is landmark MDS (de Silva &
    Tenenbaum, NIPS 2003): the eigenpairs are those of the ``l x l`` landmark
    block, and every node, landmarks included, is placed by distance-based
    triangulation, ``x = -1/2 L# (delta_x - mean delta)``, where ``delta_x``
    holds its squared distances to the landmarks.
    """
    if dim < 1:
        raise ValueError("embedding dimension must be >= 1")
    d = np.asarray(gd, dtype=float)
    n = d.shape[1]
    block = _landmark_block(d)
    l = block.shape[0]
    b = _centered_gram(block)
    if not b.any():
        # all points coincide; ARPACK rejects the zero start residual
        return Embedding(np.zeros((n, 1)), np.zeros(1), dim)
    rng = np.random.default_rng(0)
    eigvals, eigvecs = eigsh(
        b, k=min(dim, l - 1), which="LA", tol=0, v0=rng.standard_normal(l), rng=rng
    )
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    tol = 1e-10 * max(eigvals[0], 0.0)
    keep = int(np.sum(eigvals > tol))
    if keep == 0:
        return Embedding(np.zeros((n, 1)), np.zeros(1), dim)
    vals = eigvals[:keep]
    vecs = eigvecs[:, :keep]
    for j in range(keep):
        anchor = np.argmax(np.abs(vecs[:, j]))
        if vecs[anchor, j] < 0:
            vecs[:, j] = -vecs[:, j]
    coords = vecs * np.sqrt(vals)
    if l < n:
        mean_sq = np.square(block).mean(axis=1)
        coords = -0.5 * (np.square(d) - mean_sq[:, None]).T @ (coords / vals)
    return Embedding(coords, vals, dim)


def residual_variances(gd, max_dim: int) -> list:
    """(dim, residual) pairs: share of the positive spectrum left out at each dim.

    On ``l x n`` landmark rows this is the spectrum of the ``l x l`` block.
    """
    block = _landmark_block(np.asarray(gd, dtype=float))
    eigvals = np.linalg.eigvalsh(_centered_gram(block))[::-1]
    tol = 1e-10 * max(eigvals[0], 0.0)
    positive = eigvals[eigvals > tol]
    total = positive.sum()
    out = []
    for p in range(1, max_dim + 1):
        kept = positive[:p].sum() if total > 0 else 0.0
        out.append((p, float(1.0 - kept / total) if total > 0 else 0.0))
    return out
