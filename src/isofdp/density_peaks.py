"""Density-peaks statistics in the embedded space.

Per point: local density rho (points within the cutoff d_c, itself included),
separation delta (distance to the nearest denser point), their product gamma
whose descending order ranks the center candidates, and the assignment where
each non-center point inherits the community of its nearest denser neighbor.

The cutoff d_c, rho and delta are taken over row blocks of ``_BLOCK_ROWS``,
the block size of the k-NN scan, so no n x n array is built: a GEMM screen
sorts the pairs, and every decision falls on the pair's exact ``cdist`` value.
The d_c and rho passes screen only a window of columns on coordinate 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

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
    bounding box has a squared diagonal beyond the float range. Both are
    numerical failures of whatever gave the points: ``ArithmeticError``.
    """
    points = _as_points(e)
    if not np.isfinite(points).all():
        raise ArithmeticError("coordinates must be finite")
    if points.size:
        with np.errstate(over="ignore"):
            spread = np.square(points.max(axis=0) - points.min(axis=0)).sum()
        if not np.isfinite(spread):
            raise ArithmeticError("coordinates spread too wide: squared distances overflow")
    return points


def _check_cutoff_request(n: int, percentiles) -> None:
    """The checks every percentile cutoff makes before it reads a distance."""
    if n < 2:
        raise ValueError("need at least 2 points to pick a cutoff")
    for percentile in percentiles:
        _check_percentile(percentile)


def _check_percentile(percentile: float) -> None:
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")


def _noise_floor(points: np.ndarray) -> tuple[float, float]:
    """The bounding box's diagonal, and the noise floor: ``1e-9`` times it.

    Distances at most the floor are rounding noise of coincident points. The
    diagonal is at least the largest distance and at most sqrt(dim) times it,
    and takes no pass over the pairs.

    Raises:
        ValueError: all points coincide.
    """
    extent = points.max(axis=0) - points.min(axis=0)
    diagonal = float(np.sqrt(np.square(extent).sum()))
    if diagonal == 0.0:
        raise ValueError("all points coincide; cannot pick a cutoff")
    return diagonal, 1e-9 * diagonal


def _nearest_rank_cutoffs(points: np.ndarray, dists: np.ndarray, percentiles) -> list:
    """:func:`select_dc` at each percentile, from one partition of all pair distances ``dists``.

    A percentile that lands at or under the noise floor takes the smallest
    distance above it instead. ``dists`` is partitioned in place.
    """
    first_real = np.count_nonzero(dists <= _noise_floor(points)[1])
    # 1-based nearest rank, moved up past the floor
    kths = [max(math.ceil(p / 100.0 * dists.size) - 1, first_real) for p in percentiles]
    dists.partition(kths)  # order statistics need no full sort
    return [float(dists[kth]) for kth in kths]


_EPS = np.finfo(float).epsneg

# the pairs that place select_dc's window are those among every 8th point,
# and among at most this many points
_SAMPLE = 512


def select_dc(e, percentile: float = 2.0) -> float:
    """Cutoff distance at a nearest-rank percentile of all pairwise distances.

    Rodriguez & Laio (Science 2014) choose ``d_c`` so that a point has a small
    percentage of the others as neighbours on average; here it is the
    nearest-rank percentile of the n(n-1)/2 pair distances. Distances at most
    ``1e-9`` times the bounding box's diagonal are rounding noise of
    coincident points. When the percentile lands there, the cutoff is the
    smallest distance above that floor instead.

    No list of all distances is built. The screen values of the pairs among
    a strided sample of points place a window of squared distances around
    the wanted rank. One pass over the upper triangle in
    ``_BLOCK_ROWS``-row blocks, screened by the GEMM of
    :func:`compute_profile`, counts the pairs surely below the window and
    keeps the screen values inside it. Their partition gives the rank's
    screen value H, and only the pairs within the screen's error bound of H
    are computed by ``cdist``, which decides: the result is the value a full
    sort of ``pdist`` would give. If the window missed the rank, the pass
    runs again with a wider one. The same pass counts the pairs at or under
    the floor, by their ``cdist`` values.

    The sample is drawn from the points in their given order. The passes
    then read them sorted by centered coordinate 0, sorted once: as a
    projection never lengthens a distance, a block of rows screens only the
    columns whose coordinate 0 is within the root of the window's top cut
    of its last row's, widened by the slack :func:`_gap_bound` derives.

    Raises:
        ArithmeticError: a coordinate is NaN or infinite, or squared
            distances overflow.
        ValueError: all points coincide, so no distance is above the floor.
    """
    points = _finite_points(e)
    n, dim = points.shape
    _check_cutoff_request(n, [percentile])
    size = n * (n - 1) // 2
    rank = math.ceil(percentile / 100.0 * size) - 1
    diagonal, floor = _noise_floor(points)
    # every distance is at most the diagonal, padded for its rounding
    high = diagonal * (1.0 + 8.0 * (dim + 2) * _EPS)
    with np.errstate(over="ignore", invalid="ignore"):
        sq, lhs, rhs, buf = _operands(points)
        # a pair's screen value g is within tol / 2 of its squared cdist
        # value, and so is each cut below, up to the diameter's square
        tol = 2.0 * _screen_bound(sq, dim, high)
        sample, spread = _pair_sample(lhs, rhs, sq, buf)
        lo_cut, hi_cut = _window(sample, rank, size, spread, tol)
        # the passes read the points in coordinate-0 order, each block its window
        by_x = np.argsort(rhs[:, 0], kind="stable")
        points, lhs, rhs, sq = points[by_x], lhs[by_x], rhs[by_x], sq[by_x]
        while True:
            below, kept, keys, first_real = _window_pass(
                points, lhs, rhs, sq, lo_cut, hi_cut, floor, floor * floor + tol, buf
            )
            r = max(rank, first_real)
            at = r - below
            if 0 <= at < kept.size:
                h = np.partition(kept, at)[at]
                low_miss = h - 2.0 * tol < lo_cut
                if not (low_miss or h + 2.0 * tol > hi_cut):
                    break
            else:
                low_miss = at < 0
            # the r-th distance is outside the window, on the side that missed:
            # close the window just past that edge and move the far edge out
            spread *= 4.0
            wide_lo, wide_hi = _window(sample, r, size, spread, tol)
            if low_miss:
                lo_cut, hi_cut = (wide_lo if wide_lo < lo_cut else -np.inf), lo_cut + 6.0 * tol
            else:
                lo_cut, hi_cut = hi_cut - 6.0 * tol, (wide_hi if wide_hi > hi_cut else np.inf)
        # the r-th squared distance is within tol / 2 of h: pairs farther from
        # h than 2 tol are settled by the screen, the rest by cdist
        ahead = below + np.count_nonzero(kept < h - 2.0 * tol)
        band = ~(kept < h - 2.0 * tol) & ~(kept > h + 2.0 * tol)
    exact = _pair_distances(points, keys[band])
    return float(np.partition(exact, r - ahead)[r - ahead])


def _pair_sample(lhs, rhs, sq, buf):
    """Screen values of the pairs among every ``step``-th point, and the window's half-width.

    The fraction of a point's pairs under a cut varies from point to point
    by about its own mean, so the sample's fraction is off by about that
    over the root of the sampled point count; the relative half-width is
    six times that.
    """
    step = max(8, -(-sq.shape[0] // _SAMPLE))
    lhs, rhs, sq = lhs[::step], rhs[::step], sq[::step]
    sample = [g for _, _, _, g in _upper_pairs(lhs, rhs, sq, np.inf, buf)]
    return np.concatenate(sample), 6.0 / math.sqrt(sq.shape[0])


def _window(sample, r, size, spread, tol):
    """Cuts on the screen value that should hold the r-th of ``size`` squared distances.

    The sample's own rank for r, give or take ``spread`` times itself and
    two more; a side that runs off the sample is open. Each cut lies ``3
    tol`` outside its sample value, so even a window of tied values holds
    the band of ``2 tol`` around H that the end needs.
    """
    k = (r + 0.5) / size * sample.size
    lo, hi = math.floor(k * (1.0 - spread) - 2.0), math.ceil(k * (1.0 + spread) + 2.0)
    inside = [i for i in (lo, hi) if 0 <= i < sample.size]
    values = dict(zip(inside, np.partition(sample, inside)[inside])) if inside else {}
    lo_cut = values[lo] - 3.0 * tol if lo in values else -np.inf
    hi_cut = values[hi] + 3.0 * tol if hi in values else np.inf
    return lo_cut, hi_cut


def _window_pass(points, lhs, rhs, sq, lo_cut, hi_cut, floor, floor_cut, buf):
    """One screened pass over the pairs i < j, sorted by their screen value g.

    Returns the number of pairs with ``g < lo_cut``; the g and the key ``i * n
    + j`` of each pair inside the window (NaN counts as inside); and the
    number of pairs whose ``cdist`` value is at most ``floor``, all of which
    have ``g <= floor_cut``.
    """
    n = points.shape[0]
    below = coincident = 0
    kept, keys = [], []
    for lo, bi, bj, g in _upper_pairs(lhs, rhs, sq, max(hi_cut, floor_cut), buf):
        under = g < lo_cut
        below += np.count_nonzero(under)
        inside = ~under & ~(g > hi_cut)
        kept.append(g[inside])
        keys.append((bi[inside] + lo) * n + bj[inside] + lo)
        small = ~(g > floor_cut)
        if small.any():
            near = _exact_distances(points[lo : lo + _BLOCK_ROWS], points[lo:], bi[small], bj[small])
            coincident += np.count_nonzero(near <= floor)
    return below, np.concatenate(kept), np.concatenate(keys), coincident


def _upper_pairs(lhs, rhs, sq, cut, buf):
    """The pairs i < j whose screen value g is not over ``cut``, NaN included.

    Yields, per ``_BLOCK_ROWS``-row block, (lo, rows from lo, columns from lo, g).

    The operands come sorted by centered coordinate 0, ``rhs[:, 0]``, and a
    block of rows lo..hi-1 screens only the columns from lo whose coordinate
    0 is at most ``x0[hi-1] + w``: :func:`_gap_bound` shows that no pair
    beyond is yielded. An infinite or NaN cut reads every column, in any
    order of the operands.
    """
    n = sq.shape[0]
    x0 = rhs[:, 0]
    w = _gap_bound(x0, sq, lhs.shape[1] - 1, cut)
    # g <= cut where the block's value, g less s_i, is under cut - s_i
    select = cut - sq
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        # an infinite w finds every column, whatever their order
        end = int(np.searchsorted(x0, x0[hi - 1] + w, side="right"))
        h = _screen(lhs[lo:hi], rhs[lo:end], buf)
        bi, bj = np.divmod(np.flatnonzero(~(h > select[lo:hi, None])), end - lo)
        upper = bj > bi
        bi, bj = bi[upper], bj[upper]
        yield lo, bi, bj, h[bi, bj] + sq[bi + lo]


def _gap_bound(x0, sq, dim, cut) -> float:
    """w: how far apart on centered coordinate 0 a pair that passes ``cut`` can lie.

    A pair i < j of operands sorted by ``x0`` that :func:`_upper_pairs`
    yields at ``cut`` has ``x0[j] <= fl(x0[k] + w)`` for every ``k >= i``.
    inf when ``cut`` is infinite or NaN, or the screen has no bound. With
    ``u = 2**-53``, ``r`` the largest ``|x0|`` and ``t`` the bound of
    :func:`_screen_bound` taken at ``d^2 = max(cut, 0)``:

    - a pair passes when its GEMM value is at most ``cut - s_i`` as rounded;
      by the items of :func:`_screen_bound`, that cut's rounding among them,
      the pair's exact squared distance is then at most ``cut + t``;
    - a projection never lengthens a distance, so its exact gap on
      coordinate 0 is at most ``sqrt(cut + t)``, and centering rounds each
      of ``x0[i]``, ``x0[j]`` by at most ``u r``: ``x0[j] - x0[i] <=
      sqrt(cut + t) + 2 u r``;
    - ``x0[k] >= x0[i]``, and the sum ``x0[k] + w`` rounds down by at most
      ``u (r + w)``, so ``w (1 - u) >= sqrt(cut + t) + 3 u r`` suffices;
    - ``w = (sqrt(cut + t) + 4 u r) (1 + 8 u)`` rounds five times, each a
      factor of at least ``1 - u``, which the ``8 u`` more than makes up.
    """
    cut = max(cut, 0.0)
    if not cut < math.inf:
        return math.inf
    t = _screen_bound(sq, dim, math.sqrt(cut))
    r = float(np.abs(x0).max(initial=0.0))
    return (math.sqrt(cut + t) + 4.0 * _EPS * r) * (1.0 + 8.0 * _EPS)


def _pair_distances(points, keys) -> np.ndarray:
    """``cdist`` values of the pairs keyed ``i * n + j``, a block of rows at a time."""
    n = points.shape[0]
    i, j = np.divmod(keys, n)
    block = i // _BLOCK_ROWS
    out = np.empty(keys.size)
    for b in np.unique(block):
        at = np.flatnonzero(block == b)
        lo = int(b) * _BLOCK_ROWS
        out[at] = _exact_distances(points[lo : lo + _BLOCK_ROWS], points, i[at] - lo, j[at])
    return out


def _exact_distances(rows, cols, bi, bj) -> np.ndarray:
    """``cdist(rows, cols)[bi, bj]``, computed for the columns ``bj`` names only.

    ``cdist`` computes each entry on its own, so these are the bytes the full
    n x n matrix holds for the same pairs; the work is at most one block.
    """
    named = np.zeros(cols.shape[0], dtype=bool)
    named[bj] = True
    used = np.flatnonzero(named)
    return cdist(rows, cols[used])[bi, np.searchsorted(used, bj)]


def _operands(points):
    """The screen's norms, GEMM operands and block buffer, on centered coordinates c.

    With ``s_i = |c_i|^2``, ``[-2 c_i, 1] . [c_j, s_j]`` is the screen value less s_i.
    """
    n = points.shape[0]
    c = points - points.mean(axis=0)
    sq = np.einsum("ij,ij->i", c, c)
    lhs = np.hstack((-2.0 * c, np.ones((n, 1))))
    rhs = np.hstack((c, sq[:, None]))
    return sq, lhs, rhs, np.empty(min(_BLOCK_ROWS, n) * n)


def _screen_bound(sq: np.ndarray, dim: int, d: float) -> float:
    """``t = kappa (u (2 max s + d^2) + eta)``: how far any screen value may be off.

    The screen value of a pair is ``s_i + s_j - 2 c_i . c_j`` on the centered
    coordinates c, with ``s_i = |c_i|^2``, and the decision value is the
    square of its ``cdist`` entry; both approximate ``|p_i - p_j|^2``. With
    ``u = 2**-53`` and ``gamma_m = m u / (1 - m u)`` (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1), whatever order a sum
    is taken in, and for cuts up to ``d^2``:

    - centering rounds each coordinate of c_i by at most ``u |c_i|``, which
      moves the squared distance by at most ``(4u + 2u^2)(s_i + s_j)``; the
      common shift's own rounding cancels in the difference;
    - the norms carry ``gamma_dim``; the GEMM's dot product of
      ``[-2 c_i, 1]`` and ``[c_j, s_j]`` carries ``gamma_{dim+1}`` on at most
      ``s_i + 2 s_j``; adding s_i back, a cut ``d^2 -+ t`` and the cut less
      s_i round once each: ``(3 dim + 5) u (s_i + s_j) + 3 u (d^2 + t)``;
    - ``cdist`` rounds each difference, square and the sum (``gamma_{dim+2}``),
      then the root: its square is within ``(dim + 4) u |p_i - p_j|^2``, and
      ``|p_i - p_j|^2 <= 2 (s_i + s_j)``.

    As ``s_i <= max s``, the sum is under ``(10 dim + 34) u max s + 3 u (d^2
    + t)``, and kappa = ``8 (dim + 4)`` is 1.6 times its coefficients or
    more, which covers the ``(1 - m u)^-1`` factors and the rounding of t.
    Products that underflow are each off by at most half the smallest
    subnormal eta, which the ``kappa eta`` term covers. Beyond ``max s =
    2**1020`` the GEMM itself could overflow; an infinite t then sends every
    pair to the exact path, as an overflowed ``d^2`` does.
    """
    top = float(sq.max(initial=0.0))
    if not top <= 2.0**1020:
        return math.inf
    return 8.0 * (dim + 4) * (_EPS * (2.0 * top + d * d) + np.finfo(float).smallest_subnormal)


def compute_profile(e, d_c: float) -> DensityProfile:
    """All density-peaks statistics for one embedding at one cutoff.

    rho counts the points strictly closer than ``d_c``, the point itself
    included. Density rank is rho descending with index ascending as
    tiebreak; delta is the distance to the nearest point of higher density
    rank, distance ties to the smaller index.

    No n x n array is built. Two passes run over ``_BLOCK_ROWS``-row blocks,
    each screened by one GEMM on centered coordinates, whose error has one
    bound for the embedding (see :func:`_screen_bound`). The screen only
    sorts pairs out: a pair is counted in rho, or dropped, when its screen
    value is clear of ``d_c^2`` by the bound, and every other pair and every
    candidate for the nearest denser point is decided on its own ``cdist``
    value. So the result is byte-identical to the one full ``cdist`` matrix
    would give, whatever order the GEMM sums in.

    The rho pass reads the points sorted by centered coordinate 0 and maps
    rho back: a block of rows screens only the columns whose coordinate 0
    is within ``d_c`` of its last row's, widened by the screen's bound and
    the slack :func:`_gap_bound` derives, as no pair farther apart on one
    coordinate can be closer than ``d_c``. The delta pass reads every
    denser point.

    Raises:
        ValueError: ``d_c`` is not positive (NaN included).
        ArithmeticError: a coordinate is NaN or infinite, or squared
            distances overflow.
    """
    if not d_c > 0:
        raise ValueError("cutoff distance must be positive")
    points = _finite_points(e)
    n, dim = points.shape
    # a screen value or cut that overflows is inf or NaN and sends its pairs to cdist
    with np.errstate(over="ignore", invalid="ignore"):
        sq, lhs, rhs, buf = _operands(points)
        t = _screen_bound(sq, dim, d_c)
        # rho over the points in coordinate-0 order, each block its window
        by_x = np.argsort(rhs[:, 0], kind="stable")
        rho = np.empty(n, dtype=np.int64)
        rho[by_x] = _local_density(points[by_x], lhs[by_x], rhs[by_x], sq[by_x], t, d_c, buf)
        order = np.lexsort((np.arange(n), -rho))
        delta, nearest = _separation(points[order], lhs[order], rhs[order], t, order, buf)
    gamma = rho * delta
    ranking = np.lexsort((np.arange(n), -gamma))
    return DensityProfile(rho, delta, gamma, nearest, ranking, float(d_c))


def _screen(lhs, rhs, buf) -> np.ndarray:
    """``lhs @ rhs.T`` written into the front of the flat buffer ``buf``."""
    shape = (lhs.shape[0], rhs.shape[0])
    return np.matmul(lhs, rhs.T, out=buf[: shape[0] * shape[1]].reshape(shape))


def _local_density(points, lhs, rhs, sq, t, d_c, buf) -> np.ndarray:
    """rho from the upper triangle: each pair counted once, at both ends.

    A pair counts unchecked when its screen value is under ``d_c^2 - t``, is
    dropped unchecked when it is over ``d_c^2 + t``, t the screen's bound (a
    NaN screen value is checked), and is otherwise decided by ``cdist <
    d_c``: strict, so points exactly at the cutoff do not count. The point
    itself always counts, so rho >= 1; a point with no close neighbor still
    carries weight and its center score stays positive.
    """
    n = points.shape[0]
    rho = np.ones(n, dtype=np.int64)
    for lo, bi, bj, g in _upper_pairs(lhs, rhs, sq, d_c * d_c + t, buf):
        counted = g < d_c * d_c - t
        check = np.flatnonzero(~counted)
        if check.size:
            d = _exact_distances(points[lo : lo + _BLOCK_ROWS], points[lo:], bi[check], bj[check])
            counted[check] = d < d_c
        rho += np.bincount(np.concatenate((bi[counted], bj[counted])) + lo, minlength=n)
    return rho


def _separation(points, lhs, rhs, t, order, buf):
    """delta and the nearest denser point, from rows in density-rank order.

    ``points``, ``lhs`` and ``rhs`` are in rank order, so a row's denser
    points are exactly the rows before it. Its candidates are those whose
    screen value is at most the row's screen minimum plus ``2 t``, t the
    screen's bound: any other is farther than the candidate at that minimum,
    by the bound on both. The candidates' ``cdist`` values decide, distance
    ties to the smaller index. The density maximum has no denser point; its
    delta is the largest value of its ``cdist`` row, so it tops every
    ranking, and its pointer is -1.
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
        bound = h.min(axis=1) + 2.0 * t
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
