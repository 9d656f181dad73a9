"""Manifold projection of a distance matrix: k-NN graph, geodesics, classical MDS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra
from scipy.sparse.linalg import eigsh

__all__ = [
    "NeighborGraph",
    "Embedding",
    "build_neighbor_graph",
    "geodesic_distances",
    "classical_mds",
    "isomap",
    "residual_variances",
]


@dataclass(frozen=True)
class NeighborGraph:
    """Weighted undirected k-NN graph, repaired to be connected.

    ``edges`` holds ``(u, v, weight)`` with ``u < v``; ``neighborhood_size``
    is the k used for candidate selection (edges added by the connectivity
    repair are included).
    """

    node_count: int
    edges: tuple
    neighborhood_size: int


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
    """Symmetric k-NN graph over finite distances, repaired to one component.

    Edge (i, j) is kept when j is among the ``neighborhood_size`` closest
    finite-distance partners of i, or vice versa; distance ties are broken
    toward the smaller node index. If the k-NN graph is disconnected, the
    globally smallest finite-distance edge joining two components is added
    repeatedly until it is connected.
    """
    values = np.asarray(d, dtype=float)
    n = values.shape[0]
    k = int(neighborhood_size)
    if not 1 <= k <= n - 1:
        raise ValueError(f"neighborhood size must be in 1..{n - 1}, got {k}")

    edges = {}
    for i in range(n):
        row = values[i]
        candidates = np.flatnonzero(np.isfinite(row))
        candidates = candidates[candidates != i]
        if candidates.size == 0:
            raise ValueError(f"node {i} has no finite-distance partner")
        order = np.lexsort((candidates, row[candidates]))[:k]
        for j in candidates[order]:
            key = (i, j) if i < j else (j, i)
            edges.setdefault(key, float(row[j]))

    pairs = np.array(list(edges), dtype=np.int64)
    adj = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    components, comp = connected_components(adj, directed=False)

    if components > 1:
        # Kruskal from the k-NN components: pairs within one component can
        # never join two, so only the finite cross pairs are ranked
        iu, iv = np.nonzero(np.isfinite(values) & (comp[:, None] != comp[None, :]))
        upper = iu < iv
        iu, iv = iu[upper], iv[upper]
        w = values[iu, iv]
        for idx in np.lexsort((iv, iu, w)):
            u, v = int(iu[idx]), int(iv[idx])
            if comp[u] != comp[v]:
                comp[comp == comp[v]] = comp[u]
                edges.setdefault((u, v), float(w[idx]))
                components -= 1
                if components == 1:
                    break
        if components > 1:
            raise ValueError(
                "distance matrix splits into groups with no finite distance between them"
            )

    edge_tuple = tuple((u, v, w) for (u, v), w in sorted(edges.items()))
    return NeighborGraph(n, edge_tuple, k)


def geodesic_distances(ng: NeighborGraph) -> np.ndarray:
    """Exact all-pairs shortest paths over the neighbor graph (Dijkstra per source).

    The result is an exactly symmetric n x n array with all entries finite.
    Each edge is stored once, ``u < v``; undirected Dijkstra reads it both ways.
    """
    n = ng.node_count
    u, v, w = np.array(ng.edges, dtype=float).reshape(-1, 3).T
    upper = csr_matrix((w, (u.astype(np.int64), v.astype(np.int64))), shape=(n, n))
    dist = _csgraph_dijkstra(upper, directed=False)
    if np.isinf(dist).any():
        raise ValueError("neighbor graph is disconnected")
    dist = np.minimum(dist, dist.T)  # enforce exact symmetry
    np.fill_diagonal(dist, 0.0)
    return dist


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


def classical_mds(gd, dim: int) -> Embedding:
    """Project a symmetric distance matrix to ``dim`` coordinates.

    Keeps the top ``dim`` eigenpairs with eigenvalue above a relative positive
    threshold; when fewer are available the embedding carries fewer columns
    (flagged via ``truncated``), except that a fully degenerate input yields a
    single all-zero column. Each column's largest-magnitude entry is made
    nonnegative so the output is sign-deterministic.

    Only the top ``min(dim, n - 1)`` eigenpairs are computed, by Lanczos
    iteration (ARPACK) to machine precision. Its start vector and the vectors
    it draws after an invariant subspace (a rank-deficient input) come from a
    fixed seed, so repeated calls return the same bytes.
    """
    if dim < 1:
        raise ValueError("embedding dimension must be >= 1")
    d = np.asarray(gd, dtype=float)
    n = d.shape[0]
    b = _centered_gram(d)
    if not b.any():
        # all points coincide; ARPACK rejects the zero start residual
        return Embedding(np.zeros((n, 1)), np.zeros(1), dim)
    rng = np.random.default_rng(0)
    eigvals, eigvecs = eigsh(
        b, k=min(dim, n - 1), which="LA", tol=0, v0=rng.standard_normal(n), rng=rng
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
    return Embedding(coords, vals, dim)


def isomap(d, neighborhood_size: int = 10, dim: int = 2) -> Embedding:
    """Full projection: neighbor graph, geodesic distances, classical MDS.

    Rejects graphs with fewer than 4 nodes; centering and the downstream
    density statistics are degenerate there.
    """
    values = np.asarray(d, dtype=float)
    if values.shape[0] < 4:
        raise ValueError("pipeline requires at least 4 nodes")
    ng = build_neighbor_graph(values, neighborhood_size)
    gd = geodesic_distances(ng)
    return classical_mds(gd, dim)


def residual_variances(gd, max_dim: int) -> list:
    """(dim, residual) pairs: share of the positive spectrum left out at each dim."""
    eigvals = np.linalg.eigvalsh(_centered_gram(np.asarray(gd, dtype=float)))[::-1]
    tol = 1e-10 * max(eigvals[0], 0.0)
    positive = eigvals[eigvals > tol]
    total = positive.sum()
    out = []
    for p in range(1, max_dim + 1):
        kept = positive[:p].sum() if total > 0 else 0.0
        out.append((p, float(1.0 - kept / total) if total > 0 else 0.0))
    return out
