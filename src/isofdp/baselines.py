"""K-means and DBSCAN over the embedded coordinates, for method comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from .density_peaks import _as_points, select_dc
from .metrics import accuracy, nmi
from .partition import Partition, normalize_labels

__all__ = [
    "KmeansSpec",
    "DbscanSpec",
    "kmeans",
    "dbscan",
    "dbscan_labels",
    "dbscan_parameter_search",
]


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
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
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
        for j in range(k):
            if (new_labels == j).any():
                continue
            # empty cluster: reseed at the point farthest from its assignment
            cost = d2[np.arange(n), new_labels]
            far = int(cost.argmax())
            centers[j] = points[far]
            new_labels[far] = j
            d2[:, j] = ((points - centers[j]) ** 2).sum(axis=1)
        sse_trace.append(float(d2[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
    return labels, np.asarray(sse_trace)


def kmeans(e, spec: KmeansSpec) -> Partition:
    """Best of ``_RESTARTS`` seeded Lloyd runs by within-cluster SSE."""
    points = _as_points(e)
    n = points.shape[0]
    if spec.k > n:
        raise ValueError(f"k={spec.k} exceeds the number of points {n}")
    rng = np.random.default_rng(spec.seed)
    best_labels, best_sse = None, np.inf
    for _ in range(_RESTARTS):
        labels, trace = _lloyd(points, spec.k, rng)
        if trace[-1] < best_sse:
            best_sse = trace[-1]
            best_labels = labels
    return Partition(normalize_labels(best_labels), spec.k)


def _dbscan_raw(dist: np.ndarray, spec: DbscanSpec) -> np.ndarray:
    """Raw DBSCAN ids over a pairwise distance matrix, -1 for noise."""
    within = dist <= spec.eps
    core = np.flatnonzero(within.sum(axis=1) >= spec.min_pts)
    labels = np.full(dist.shape[0], -1, dtype=np.int64)
    if core.size == 0:
        return labels
    _, labels[core] = connected_components(
        csr_matrix(within[np.ix_(core, core)]), directed=False
    )
    # border points: non-core with a core within eps. argmin over the core
    # columns keeps the first minimum, so ties go to the smaller core index
    rest = np.flatnonzero(labels < 0)
    reach = within[np.ix_(rest, core)]
    border = reach.any(axis=1)
    nearest = np.where(reach, dist[np.ix_(rest, core)], np.inf)[border].argmin(axis=1)
    labels[rest[border]] = labels[core[nearest]]
    return labels


def dbscan_labels(e, spec: DbscanSpec) -> np.ndarray:
    """Raw cluster ids with -1 for noise.

    A point is core when at least ``min_pts`` points (itself included) lie
    within ``eps``. Clusters are the connected components of core points under
    eps-reachability; each border point joins the cluster of its nearest core
    within ``eps`` (ties toward the smaller core index), which makes the result
    independent of point order.
    """
    points = _as_points(e)
    return _dbscan_raw(cdist(points, points), spec)


def _dbscan_partition(dist: np.ndarray, spec: DbscanSpec) -> Partition:
    raw = _dbscan_raw(dist, spec)
    noise = raw < 0
    raw[noise] = raw.max() + 1 + np.arange(np.count_nonzero(noise))
    labels = normalize_labels(raw)
    return Partition(labels, int(labels.max()) + 1)


def dbscan(e, spec: DbscanSpec) -> Partition:
    """DBSCAN with noise points relabeled as singleton communities."""
    points = _as_points(e)
    return _dbscan_partition(cdist(points, points), spec)


def dbscan_parameter_search(
    e,
    truth,
    percentiles=tuple(range(1, 11)),
    min_pts_values=(2, 3, 4, 5, 6),
):
    """Grid search over eps (distance percentiles) and min_pts, scored by NMI.

    Every cell is ``dbscan`` at ``DbscanSpec(select_dc(e, pct), min_pts)``,
    labelled from one pairwise distance matrix built once per call. Cells are
    compared by (NMI, accuracy). Returns (partition, spec, nmi, acc) for the
    best cell; ties keep the earliest grid entry, percentiles outermost.
    """
    points = _as_points(e)
    dist = cdist(points, points)
    best = None
    for pct in percentiles:
        eps = select_dc(points, pct)
        for min_pts in min_pts_values:
            spec = DbscanSpec(eps, min_pts)
            part = _dbscan_partition(dist, spec)
            score = (nmi(truth, part.labels), accuracy(truth, part.labels))
            if best is None or score > best[0]:
                best = (score, part, spec)
    if best is None:
        raise ValueError("empty parameter grid")
    (best_nmi, best_acc), part, spec = best
    return part, spec, best_nmi, best_acc
