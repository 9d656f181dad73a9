"""Density-peaks statistics in the embedded space.

Per point: local density rho (points within the cutoff d_c, itself included),
separation delta (distance to the nearest denser point), their product gamma
whose descending order ranks the center candidates, and the assignment where
each non-center point inherits the community of its nearest denser neighbor.

rho and delta are taken over row blocks of ``_BLOCK_ROWS``, the block size of
the k-NN scan, so no n x n array is built: a GEMM screen sorts the pairs, and
every decision falls on the pair's exact ``cdist`` value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .isomap import _BLOCK_ROWS

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


def _finite_points(e) -> np.ndarray:
    """``_as_points``, rejecting NaN and infinite coordinates.

    So that every squared distance is finite, it also rejects points whose
    bounding box has a squared diagonal beyond the float range.
    """
    points = _as_points(e)
    if not np.isfinite(points).all():
        raise ValueError("coordinates must be finite")
    if points.size:
        with np.errstate(over="ignore"):
            spread = np.square(points.max(axis=0) - points.min(axis=0)).sum()
        if not np.isfinite(spread):
            raise ValueError("coordinates spread too wide: squared distances overflow")
    return points


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
        ValueError: a coordinate is NaN or infinite, squared distances
            overflow, or all points coincide, so no distance is above the floor.
    """
    return _nearest_rank_cutoffs(_finite_points(e), [percentile])[0]


def _exact_distances(rows, cols, bi, bj) -> np.ndarray:
    """``cdist(rows, cols)[bi, bj]``, computed for the columns ``bj`` names only.

    ``cdist`` computes each entry on its own, so these are the bytes the full
    n x n matrix holds for the same pairs; the work is at most one block.
    """
    named = np.zeros(cols.shape[0], dtype=bool)
    named[bj] = True
    used = np.flatnonzero(named)
    return cdist(rows, cols[used])[bi, np.searchsorted(used, bj)]


def _screen_slack(sq: np.ndarray, dim: int, d_c: float) -> np.ndarray:
    """Per row i, a bound t_i on how far any screen value of row i may be off.

    The screen value of a pair is ``s_i + s_j - 2 c_i . c_j`` on the centered
    coordinates c, with ``s_i = |c_i|^2``, and the decision value is the
    square of its ``cdist`` entry; both approximate ``|p_i - p_j|^2``. With
    ``u = 2**-53`` and ``gamma_m = m u / (1 - m u)`` (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1), whatever order a sum
    is taken in:

    - centering rounds each coordinate of c_i by at most ``u |c_i|``, which
      moves the squared distance by at most ``(4u + 2u^2)(s_i + s_j)``; the
      common shift's own rounding cancels in the difference;
    - the norms carry ``gamma_dim``; the GEMM's dot product of
      ``[-2 c_i, 1]`` and ``[c_j, s_j]`` carries ``gamma_{dim+1}`` on at most
      ``s_i + 2 s_j``; the thresholds ``d_c^2 -+ t - s_i`` round three times:
      at most ``(3 dim + 3) u (s_i + s_j) + 3 u (d_c^2 + t)``;
    - ``cdist`` rounds each difference, square and the sum (``gamma_{dim+2}``),
      then the root: its square is within ``(dim + 4) u |p_i - p_j|^2``, and
      ``|p_i - p_j|^2 <= 2 (s_i + s_j)``.

    The sum is under ``(5 dim + 15) u (s_i + max s) + 3 u (d_c^2 + t)``, and
    kappa = ``8 (dim + 4)`` is 1.6 times its coefficients or more, which
    covers the ``(1 - m u)^-1`` factors and the rounding of t itself.
    Products that underflow are each off by at most half the smallest
    subnormal, which the ``kappa * eta`` term covers.

    Beyond ``max s = 2**1020`` the GEMM itself could overflow; an infinite t
    then sends every pair to the exact path, as an overflowed ``d_c^2`` does.
    """
    top = sq.max(initial=0.0)
    if not top <= 2.0**1020:
        return np.full(sq.shape, np.inf)
    kappa = 8.0 * (dim + 4)
    eps = np.finfo(float)
    return kappa * (eps.epsneg * (sq + top + d_c * d_c) + eps.smallest_subnormal)


def compute_profile(e, d_c: float) -> DensityProfile:
    """All density-peaks statistics for one embedding at one cutoff.

    rho counts the points strictly closer than ``d_c``, the point itself
    included. Density rank is rho descending with index ascending as
    tiebreak; delta is the distance to the nearest point of higher density
    rank, distance ties to the smaller index.

    No n x n array is built. Two passes run over ``_BLOCK_ROWS``-row blocks,
    each screened by one GEMM on centered coordinates, whose error is bounded
    per row (see :func:`_screen_slack`). The screen only sorts pairs out: a
    pair is counted in rho, or dropped, when its screen value is clear of
    ``d_c^2`` by the bound, and every other pair and every candidate for the
    nearest denser point is decided on its own ``cdist`` value. So the result
    is byte-identical to the one full ``cdist`` matrix would give, whatever
    order the GEMM sums in.

    Raises:
        ValueError: ``d_c`` is not positive (NaN included), a coordinate is
            NaN or infinite, or squared distances overflow.
    """
    if not d_c > 0:
        raise ValueError("cutoff distance must be positive")
    points = _finite_points(e)
    n, dim = points.shape
    # a screen value or threshold that overflows is inf or NaN, and either
    # sends its pairs to the exact path
    with np.errstate(over="ignore", invalid="ignore"):
        c = points - points.mean(axis=0)
        sq = np.einsum("ij,ij->i", c, c)
        slack = _screen_slack(sq, dim, d_c)
        # [-2 c_i, 1] . [c_j, |c_j|^2] is the screen value less |c_i|^2, so
        # one GEMM gives a block of them
        lhs = np.hstack((-2.0 * c, np.ones((n, 1))))
        rhs = np.hstack((c, sq[:, None]))
        buf = np.empty(min(_BLOCK_ROWS, n) * n)
        rho = _local_density(points, lhs, rhs, sq, slack, d_c, buf)
        order = np.lexsort((np.arange(n), -rho))
        delta, nearest = _separation(points[order], lhs[order], rhs[order], slack[order], order, buf)
    gamma = rho * delta
    ranking = np.lexsort((np.arange(n), -gamma))
    return DensityProfile(rho, delta, gamma, nearest, ranking, float(d_c))


def _screen(lhs, rhs, buf) -> np.ndarray:
    """``lhs @ rhs.T`` written into the front of the flat buffer ``buf``."""
    shape = (lhs.shape[0], rhs.shape[0])
    return np.matmul(lhs, rhs.T, out=buf[: shape[0] * shape[1]].reshape(shape))


def _local_density(points, lhs, rhs, sq, slack, d_c, buf) -> np.ndarray:
    """rho from the upper triangle: each pair counted once, at both ends.

    A pair counts unchecked when its screen value is under ``d_c^2 - t``, is
    dropped unchecked when it is over ``d_c^2 + t`` (kept as ``not >``, so a
    NaN screen value is checked), and is otherwise decided by ``cdist < d_c``:
    strict, so points exactly at the cutoff do not count. The point itself
    always counts, so rho >= 1; a point with no close neighbor still carries
    weight and its center score stays positive.
    """
    n = points.shape[0]
    # the thresholds, with |c_i|^2 moved to their side
    count_below = (d_c * d_c - slack) - sq
    drop_above = (d_c * d_c + slack) - sq
    rho = np.ones(n, dtype=np.int64)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        h = _screen(lhs[lo:hi], rhs[lo:], buf)
        bi, bj = np.divmod(np.flatnonzero(~(h > drop_above[lo:hi, None])), n - lo)
        upper = bj > bi
        bi, bj = bi[upper], bj[upper]
        counted = h[bi, bj] < count_below[bi + lo]
        check = np.flatnonzero(~counted)
        if check.size:
            d = _exact_distances(points[lo:hi], points[lo:], bi[check], bj[check])
            counted[check] = d < d_c
        rho += np.bincount(np.concatenate((bi[counted], bj[counted])) + lo, minlength=n)
    return rho


def _separation(points, lhs, rhs, slack, order, buf):
    """delta and the nearest denser point, from rows in density-rank order.

    ``points``, ``lhs``, ``rhs`` and ``slack`` are in rank order, so a row's
    denser points are exactly the rows before it. Its candidates are those
    whose screen value is at most the row's screen minimum plus ``2 t``: any
    other is farther than the candidate at that minimum, by the bound on
    both. The candidates' ``cdist`` values decide, distance ties to the
    smaller index. The density maximum has no denser point; its delta is the
    largest value of its ``cdist`` row, so it tops every ranking, and its
    pointer is -1.
    """
    n = points.shape[0]
    delta = np.empty(n)
    nearest = np.empty(n, dtype=np.int64)
    step = np.arange(_BLOCK_ROWS)
    later = step[:, None] <= step  # rank not higher: no candidate
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        h = _screen(lhs[lo:hi], rhs[:hi], buf)
        np.copyto(h[:, lo:], np.inf, where=later[: hi - lo, : hi - lo])
        bound = h.min(axis=1) + 2.0 * slack[lo:hi]
        bi, bj = np.divmod(np.flatnonzero(~(h > bound[:, None])), hi)
        denser = bj < bi + lo
        bi, bj = bi[denser], bj[denser]
        d = _exact_distances(points[lo:hi], points[:hi], bi, bj)
        # per row the smallest distance, then the smallest index: the first
        # of each row's run in (row, distance, index) order
        j = order[bj]
        best = np.lexsort((j, d, bi))
        row = bi[best]
        first = best[np.concatenate(([True], row[1:] != row[:-1]))[: row.size]]
        at = order[bi[first] + lo]
        delta[at] = d[first]
        nearest[at] = j[first]
    delta[order[0]] = cdist(points[:1], points).max()
    nearest[order[0]] = -1
    return delta, nearest


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
