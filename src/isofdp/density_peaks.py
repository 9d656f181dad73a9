"""Density-peaks statistics in the embedded space.

Per point: local density rho (points within the cutoff d_c, itself included),
separation delta (distance to the nearest denser point), their product gamma
whose descending order ranks the center candidates, and the assignment where
each non-center point inherits the community of its nearest denser neighbor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

__all__ = [
    "DensityProfile",
    "select_dc",
    "assign",
    "compute_profile",
]


@dataclass(frozen=True)
class DensityProfile:
    """Per-point density-peaks statistics and the cutoff they were computed at.

    ``nearest_higher`` holds -1 for the unique density-rank maximum (which has
    no denser point); its delta is the distance to the farthest point so it
    tops every ranking. ``ranking`` lists the points by gamma descending, ties
    to the smaller index.
    """

    rho: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    nearest_higher: np.ndarray
    ranking: np.ndarray
    d_c: float


def _as_points(e) -> np.ndarray:
    coords = getattr(e, "coordinates", e)
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    return coords


def _nearest_rank_cutoffs(points: np.ndarray, percentiles) -> list:
    """Nearest-rank percentiles of all pairwise distances, from one partition.

    Distances at most ``1e-9`` times the largest one are rounding noise of
    coincident points; a percentile that lands there takes the smallest
    distance above that floor instead.
    """
    n = points.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points to pick a cutoff")
    for percentile in percentiles:
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    dists = pdist(points)
    first_real = np.count_nonzero(dists <= 1e-9 * dists.max())
    if first_real == dists.size:
        raise ValueError("all points coincide; cannot pick a cutoff")
    # 1-based nearest rank, moved up past the floor
    kths = [max(math.ceil(p / 100.0 * dists.size) - 1, first_real) for p in percentiles]
    dists.partition(kths)  # in place; order statistics need no full sort
    return [float(dists[kth]) for kth in kths]


def select_dc(e, percentile: float = 2.0) -> float:
    """Cutoff distance at a nearest-rank percentile of all pairwise distances.

    Distances at most ``1e-9`` times the largest one are rounding noise of
    coincident points. When the percentile lands there, the cutoff is the
    smallest distance above that floor instead.

    Raises:
        ValueError: all points coincide, so no distance is above the floor.
    """
    return _nearest_rank_cutoffs(_as_points(e), [percentile])[0]


def compute_profile(e, d_c: float) -> DensityProfile:
    """All density-peaks statistics for one embedding at one cutoff.

    Density rank is rho descending with index ascending as tiebreak; delta is
    the distance to the nearest point of higher density rank, distance ties
    to the smaller index.
    """
    if d_c <= 0:
        raise ValueError("cutoff distance must be positive")
    points = _as_points(e)
    dist = cdist(points, points)
    n = dist.shape[0]
    # strict inequality: points exactly at the cutoff do not count. The zero
    # self-distance always passes, so rho >= 1; a point with no close
    # neighbor still carries weight and its center score stays positive.
    rho = (dist < d_c).sum(axis=1).astype(np.int64)
    order = np.lexsort((np.arange(n), -rho))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    top = order[0]
    farthest = dist[top].max()
    # in place: a second n x n array would raise the peak memory
    dist[rank[:, None] <= rank[None, :]] = np.inf
    nearest = dist.argmin(axis=1)  # first minimum: distance tie -> smaller index
    delta = dist[np.arange(n), nearest]
    delta[top] = farthest
    nearest[top] = -1
    gamma = rho * delta
    ranking = np.lexsort((np.arange(n), -gamma))
    return DensityProfile(rho, delta, gamma, nearest, ranking, float(d_c))


def assign(profile: DensityProfile, k: int) -> np.ndarray:
    """Labels with the top-k ranked points as centers 0..k-1, in rank order.

    Every other point takes the label of its nearest denser neighbor. The
    density maximum always ranks first: its rho and delta bound every other
    point's, since the maximum is denser than all of them. So every chain of
    nearest denser neighbors ends at a center, and following the pointers
    (by doubling) labels every point.
    """
    n = profile.ranking.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    centers = profile.ranking[:k]
    up = profile.nearest_higher.copy()
    up[centers] = centers
    while True:
        nxt = up[up]
        if np.array_equal(nxt, up):
            break
        up = nxt
    label_of = np.empty(n, dtype=np.int64)
    label_of[centers] = np.arange(k)
    return label_of[up]
