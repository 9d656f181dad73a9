"""K-means and DBSCAN over the embedded coordinates, for method comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist, pdist, squareform

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


@dataclass(frozen=True)
class KmeansSpec:
    k: int
    seed: int = 0
    restarts: int = 10
    max_iters: int = 100

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


def _lloyd(points, k, rng, max_iters):
    """One seeded k-means run; returns labels, centers, and the SSE trace."""
    n = points.shape[0]
    centers = _plus_plus_init(points, k, rng)
    labels = np.full(n, -1, dtype=np.int64)
    sse_trace = []
    for _ in range(max_iters):
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
    return labels, centers, np.asarray(sse_trace)


def kmeans(e, spec: KmeansSpec) -> Partition:
    """Best of ``spec.restarts`` seeded Lloyd runs by within-cluster SSE."""
    points = _as_points(e)
    n = points.shape[0]
    if spec.k > n:
        raise ValueError(f"k={spec.k} exceeds the number of points {n}")
    rng = np.random.default_rng(spec.seed)
    best_labels, best_sse = None, np.inf
    for _ in range(spec.restarts):
        labels, _, trace = _lloyd(points, spec.k, rng, spec.max_iters)
        if trace[-1] < best_sse:
            best_sse = trace[-1]
            best_labels = labels
    return Partition(normalize_labels(best_labels), spec.k)


def dbscan_labels(e, spec: DbscanSpec) -> np.ndarray:
    """Raw cluster ids with -1 for noise.

    A point is core when at least ``min_pts`` points (itself included) lie
    within ``eps``. Clusters are the connected components of core points under
    eps-reachability; border points join their nearest core's cluster (ties
    toward the smaller core index), which makes the result independent of
    point order.
    """
    points = _as_points(e)
    n = points.shape[0]
    dist = squareform(pdist(points)) if n > 1 else np.zeros((1, 1))
    within = dist <= spec.eps
    core = within.sum(axis=1) >= spec.min_pts

    labels = np.full(n, -1, dtype=np.int64)
    core_idx = np.flatnonzero(core)
    if core_idx.size:
        _, labels[core_idx] = connected_components(
            within[np.ix_(core_idx, core_idx)], directed=False
        )

    for i in np.flatnonzero(~core):
        reachable = core_idx[within[i, core_idx]]
        if reachable.size == 0:
            continue
        row = dist[i, reachable]
        nearest = reachable[row == row.min()].min()
        labels[i] = labels[nearest]
    return labels


def dbscan(e, spec: DbscanSpec) -> Partition:
    """DBSCAN with noise points relabeled as singleton communities."""
    raw = dbscan_labels(e, spec)
    labels = raw.copy()
    next_label = int(raw.max()) + 1 if (raw >= 0).any() else 0
    for i in np.flatnonzero(raw < 0):
        labels[i] = next_label
        next_label += 1
    labels = normalize_labels(labels)
    return Partition(labels, int(labels.max()) + 1)


def dbscan_parameter_search(
    e,
    truth,
    percentiles=tuple(range(1, 11)),
    min_pts_values=(2, 3, 4, 5, 6),
):
    """Grid search over eps (distance percentiles) and min_pts, scored by NMI.

    Returns (partition, spec, nmi, acc) for the best cell; ties keep the
    earliest grid entry.
    """
    points = _as_points(e)
    best = None
    for pct in percentiles:
        eps = select_dc(points, pct)
        for min_pts in min_pts_values:
            spec = DbscanSpec(eps, min_pts)
            part = dbscan(points, spec)
            score = (nmi(truth, part.labels), accuracy(truth, part.labels))
            if best is None or score > best[0]:
                best = (score, part, spec)
    if best is None:
        raise ValueError("empty parameter grid")
    (best_nmi, best_acc), part, spec = best
    return part, spec, best_nmi, best_acc
