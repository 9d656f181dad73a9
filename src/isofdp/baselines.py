"""K-means and DBSCAN over the embedded coordinates, for method comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist, squareform

from .density_peaks import _check_cutoff_request, _finite_points, _nearest_rank_cutoffs
from .metrics import _accuracy, _counts, _nmi
from .partition import Partition, normalize_labels

__all__ = ["KmeansSpec", "DbscanSpec", "kmeans", "dbscan_parameter_search"]


# k-means: seeded Lloyd runs per call, and assignment steps per run
_RESTARTS = 10
_MAX_ITERS = 100


@dataclass(frozen=True)
class KmeansSpec:
    k: int
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class DbscanSpec:
    eps: float
    min_pts: int = 4

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


def _plus_plus_init(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        idx = rng.choice(n, p=d2 / total) if total > 0 else rng.integers(n)
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(points, k, rng):
    """One seeded k-means run; returns the labels and the SSE trace."""
    n = points.shape[0]
    centers = _plus_plus_init(points, k, rng)
    labels = np.full(n, -1, dtype=np.int64)
    sse_trace = []
    for _ in range(_MAX_ITERS):
        d2 = cdist(points, centers, "sqeuclidean")
        new_labels = d2.argmin(axis=1)
        sizes = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(sizes == 0):
            # empty cluster: reseed at the point farthest from its assignment,
            # taken from a cluster of two or more so that none empties in turn
            far = int(np.where(sizes[new_labels] > 1, d2[np.arange(n), new_labels], -1.0).argmax())
            sizes[new_labels[far]] -= 1
            sizes[j], new_labels[far], centers[j] = 1, j, points[far]
            d2[:, j] = ((points - centers[j]) ** 2).sum(axis=1)
        sse_trace.append(float(d2[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # per-cluster sums of each coordinate, in point order
        centers = np.stack([np.bincount(labels, x, k) for x in points.T], axis=1) / sizes[:, None]
    return labels, np.asarray(sse_trace)


def kmeans(e, spec: KmeansSpec) -> Partition:
    """Best of ``_RESTARTS`` seeded Lloyd runs by within-cluster SSE."""
    points = _finite_points(e)
    n = points.shape[0]
    if spec.k > n:
        raise ValueError(f"k={spec.k} exceeds the number of points {n}")
    rng = np.random.default_rng(spec.seed)
    best_labels, best_sse = None, np.inf
    for _ in range(_RESTARTS):
        labels, trace = _lloyd(points, spec.k, rng)
        if trace[-1] < best_sse:
            best_sse, best_labels = trace[-1], labels
    return Partition(normalize_labels(best_labels), spec.k)


def _dbscan_raw(dist: np.ndarray, eps: float, min_pts_values) -> np.ndarray:
    """Raw DBSCAN ids, -1 for noise, at one ``eps``: one row per ``min_pts``.

    ``dist`` is the n x n distance matrix. A point is core when at least
    ``min_pts`` points (itself included) lie within ``eps``. Clusters are the
    connected components of core points under eps-reachability.

    One component search labels the core subgraphs of all cells, numbered cell
    after cell; its labels run in node order, as for one cell searched alone.
    Border points join their nearest core within ``eps``, distance ties to the
    smaller index, which makes the result independent of point order.
    """
    n, cells = len(dist), np.asarray(min_pts_values)[:, None]
    i, j = np.divmod(np.flatnonzero(dist <= eps), n)  # j ascends within each row
    count = np.bincount(i, minlength=n)
    # pairs from a point to a core of some cell, by (point, distance, index)
    near = np.flatnonzero((count[i] < cells.max()) & (count[j] >= cells.min()))
    near = near[np.lexsort((dist[i[near], j[near]], i[near]))]
    bi, bj = i[near], j[near]
    # each pair once, as int32: the component search adds the reverse
    cu, cv = i[i < j].astype(np.int32), j[i < j].astype(np.int32)
    del i, j  # at the 10th percentile each is 0.1 n x n arrays
    core = count >= cells
    pos = np.cumsum(core, dtype=np.int32).reshape(core.shape) - 1
    keep = np.minimum(count[cu], count[cv]) >= cells
    rows = np.concatenate([p[cu[k]] for p, k in zip(pos, keep)])
    cols = np.concatenate([p[cv[k]] for p, k in zip(pos, keep)])
    indptr = np.searchsorted(rows, np.arange(pos[-1, -1] + 2)).astype(np.int32)
    del rows, cu, cv, keep  # the component search copies the graph
    graph = csr_matrix((np.ones(cols.size), cols, indptr), shape=(indptr.size - 1,) * 2)
    comp = connected_components(graph, directed=False)[1]
    labels = np.full(core.shape, -1, dtype=np.int64)
    labels[core] = comp
    # each border point's first pair to a core of its cell is the nearest
    c, e = np.nonzero((count[bi] < cells) & (count[bj] >= cells))
    border, first = np.unique(c * n + bi[e], return_index=True)
    labels.flat[border] = labels.flat[(c * n + bj[e])[first]]
    return labels


def _as_partition(raw: np.ndarray) -> Partition:
    # each noise point a singleton: a negative label of its own
    labels = normalize_labels(np.where(raw < 0, -1 - np.arange(raw.size), raw))
    return Partition(labels, int(labels.max()) + 1)


def dbscan_parameter_search(
    e, truth, percentiles=tuple(range(1, 11)), min_pts_values=(2, 3, 4, 5, 6)
):
    """Grid search over eps (distance percentiles) and min_pts, scored by NMI.

    Every cell is DBSCAN at ``DbscanSpec(select_dc(e, pct), min_pts)``, each
    noise point a singleton community, from one distance matrix, one sort of
    the pair distances for all eps and one component search per eps. Returns (partition, spec, nmi, acc) of the best
    cell by (NMI, accuracy); ties keep the earliest grid entry, percentiles
    outermost. Each distinct partition, kept with its first cell, is scored
    once by NMI. Accuracy, a bipartite matching, only breaks NMI ties, so it
    is computed only for the partitions that share the top NMI.
    """
    points = _finite_points(e)
    if not (len(percentiles) and len(min_pts_values)):
        raise ValueError("empty parameter grid")
    truth = np.asarray(truth)
    if truth.shape != (len(points),):
        raise ValueError("truth must hold one label per point")
    truth = np.unique(truth, return_inverse=True)[1]  # once, as _counts reads it
    _check_cutoff_request(len(points), percentiles)
    dist = cdist(points, points)
    # the upper triangle in pdist's order: the same bytes as pdist
    pairs = squareform(dist, force="tovector", checks=False)
    eps_values = _nearest_rank_cutoffs(points, pairs, percentiles)
    del pairs  # half the matrix again; the cells need only dist
    first = {}  # each distinct partition's bytes: its first cell, in grid order
    for eps in eps_values:
        specs = [DbscanSpec(eps, min_pts) for min_pts in min_pts_values]
        for spec, raw in zip(specs, _dbscan_raw(dist, eps, min_pts_values)):
            part = _as_partition(raw)
            first.setdefault(part.labels.tobytes(), (part, spec))
    cells = list(first.values())
    nmis = [_nmi(_counts(truth, part.labels)) for part, _ in cells]
    best_nmi = max(nmis)
    top = [cell for cell, score in zip(cells, nmis) if score == best_nmi]
    accs = [_accuracy(_counts(truth, part.labels)) for part, _ in top]
    part, spec = top[accs.index(max(accs))]
    return part, spec, best_nmi, max(accs)
