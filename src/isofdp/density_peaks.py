"""Density-peaks statistics in the embedded space.

Per point: local density rho (points within the cutoff d_c, itself included),
separation delta (distance to the nearest denser point), their product gamma
used to rank center candidates, and the one-pass assignment where each
non-center point inherits the community of its nearest denser neighbor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .partition import Partition

__all__ = [
    "DensityProfile",
    "select_dc",
    "local_density",
    "separation",
    "gamma_scores",
    "assign",
    "compute_profile",
]


@dataclass(frozen=True)
class DensityProfile:
    """Per-point density-peaks statistics and the cutoff they were computed at.

    ``nearest_higher`` holds -1 for the unique density-rank maximum (which has
    no denser point); its delta is the distance to the farthest point so it
    tops every ranking.
    """

    rho: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    nearest_higher: np.ndarray
    d_c: float


def _as_points(e) -> np.ndarray:
    coords = getattr(e, "coordinates", e)
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    return coords


def _pairwise(points: np.ndarray) -> np.ndarray:
    return squareform(pdist(points)) if points.shape[0] > 1 else np.zeros((1, 1))


def select_dc(e, percentile: float = 2.0) -> float:
    """Cutoff distance at a nearest-rank percentile of all pairwise distances.

    Distances at most ``1e-9`` times the largest one are rounding noise of
    coincident points. When the percentile lands there, the cutoff is the
    smallest distance above that floor instead.

    Raises:
        ValueError: all points coincide, so no distance is above the floor.
    """
    points = _as_points(e)
    n = points.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points to pick a cutoff")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    dists = np.sort(pdist(points))
    rank = math.ceil(percentile / 100.0 * dists.size)  # 1-based nearest rank
    first_real = np.searchsorted(dists, 1e-9 * dists[-1], side="right")
    if first_real == dists.size:
        raise ValueError("all points coincide; cannot pick a cutoff")
    return float(dists[max(rank - 1, first_real)])


def _rank_order(rho: np.ndarray) -> np.ndarray:
    # densest first; equal densities rank the smaller index higher
    return np.lexsort((np.arange(rho.shape[0]), -rho))


def _local_density(dist: np.ndarray, d_c: float) -> np.ndarray:
    # strict inequality: points exactly at the cutoff do not count. The zero
    # self-distance always passes, so rho >= 1; a point with no close
    # neighbor still carries weight and its center score stays positive.
    return (dist < d_c).sum(axis=1).astype(np.int64)


def _separation(dist: np.ndarray, rho: np.ndarray):
    n = rho.shape[0]
    order = _rank_order(rho)
    delta = np.zeros(n, dtype=float)
    nearest = np.full(n, -1, dtype=np.int64)
    for pos, i in enumerate(order):
        if pos == 0:
            delta[i] = dist[i].max()
            continue
        higher = order[:pos]
        row = dist[i, higher]
        m = row.min()
        delta[i] = m
        nearest[i] = higher[row == m].min()  # distance tie -> smaller index
    return delta, nearest


def local_density(e, d_c: float) -> np.ndarray:
    """Number of points strictly closer than ``d_c``, the point itself included.

    Counting the point itself keeps every point's density positive, so a
    region whose members have no close neighbor can still surface a center
    (its score rho * delta would otherwise be pinned to zero).
    """
    if d_c <= 0:
        raise ValueError("cutoff distance must be positive")
    return _local_density(_pairwise(_as_points(e)), d_c)


def separation(e, rho: np.ndarray):
    """Distance to (and index of) the nearest point of higher density rank.

    Density rank is rho descending with index ascending as tiebreak. The rank
    maximum gets the distance to the farthest point and index -1.
    """
    return _separation(_pairwise(_as_points(e)), np.asarray(rho))


def gamma_scores(rho: np.ndarray, delta: np.ndarray):
    """Center scores ``gamma = rho * delta`` and their descending ranking.

    Ranking ties break toward the smaller index.
    """
    rho = np.asarray(rho, dtype=float)
    delta = np.asarray(delta, dtype=float)
    gamma = rho * delta
    ranking = np.lexsort((np.arange(gamma.shape[0]), -gamma))
    return gamma, ranking


def compute_profile(e, d_c: float) -> DensityProfile:
    """All density-peaks statistics for one embedding at one cutoff."""
    if d_c <= 0:
        raise ValueError("cutoff distance must be positive")
    points = _as_points(e)
    dist = _pairwise(points)
    rho = _local_density(dist, d_c)
    delta, nearest = _separation(dist, rho)
    gamma, _ = gamma_scores(rho, delta)
    return DensityProfile(rho, delta, gamma, nearest, float(d_c))


def assign(e, profile: DensityProfile, centers) -> Partition:
    """Label centers 0..k-1 by score rank, then propagate down the density order.

    Every non-center point takes the community of its nearest denser neighbor;
    a single pass in decreasing density rank suffices because that neighbor is
    always processed first.
    """
    points = _as_points(e)
    n = points.shape[0]
    centers = [int(c) for c in centers]
    if len(set(centers)) != len(centers):
        raise ValueError("centers must be distinct")
    ordered = sorted(centers, key=lambda c: (-profile.gamma[c], c))
    labels = np.full(n, -1, dtype=np.int64)
    for lab, c in enumerate(ordered):
        labels[c] = lab
    for i in _rank_order(profile.rho):
        if labels[i] >= 0:
            continue
        nh = profile.nearest_higher[i]
        if nh < 0 or labels[nh] < 0:
            raise ValueError(
                f"point {i} cannot reach a center through denser neighbors"
            )
        labels[i] = labels[nh]
    return Partition(labels, len(centers))
