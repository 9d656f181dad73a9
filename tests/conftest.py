"""Shared fixtures and independent reference implementations (oracles)."""

import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix, identity
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist, pdist, squareform

import isofdp
from isofdp import DbscanSpec, Graph, GnSpec, LfrSpec, Partition, generate_gn, generate_lfr
from isofdp.density_peaks import DensityProfile, _finite_points, assign, select_dc
from isofdp.isomap import _csr_rows
from isofdp.metrics import accuracy, nmi
from isofdp.partition import SweepRecord, SweepResult, normalize_labels, partition_density


def floyd_warshall(weights: np.ndarray) -> np.ndarray:
    """Min-plus closure of a weight matrix; reference for shortest paths."""
    d = np.array(weights, dtype=float)
    np.fill_diagonal(d, 0.0)
    for k in range(d.shape[0]):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def dense_adjacency(g) -> np.ndarray:
    a = np.zeros((g.node_count, g.node_count))
    u, v = g.edge_array.T
    a[u, v] = a[v, u] = 1.0
    return a


def dense_similarity(g) -> np.ndarray:
    """Reference: the dense structure similarity kernel on 0/1 closed-neighborhood rows."""
    closed = dense_adjacency(g) + np.eye(g.node_count)
    sizes = g.degrees + 1
    values = (closed @ closed.T) / np.sqrt(np.outer(sizes, sizes))
    return (values + values.T) / 2.0


def reference_distances(g) -> np.ndarray:
    """The masked reciprocal of the dense oracle: inf where s == 0, zero diagonal.

    Reference for the rows of ``isofdp.prepared_distances``. Those rows
    store each node's own distance as 1/s = 1.0; this dense matrix has 0
    there, and :func:`dense_rows` zeroes the diagonal to compare.
    """
    sim = dense_similarity(g)
    d = np.full(sim.shape, np.inf)
    np.divide(1.0, sim, out=d, where=sim > 0)
    np.fill_diagonal(d, 0.0)
    return d


def reference_count_entries(g):
    """Reference for the entries of ``isofdp.prepared_distances``.

    The whole int64 product ``c = a @ a`` of the closed neighborhoods
    ``a + I``, then each entry's ``1/s`` over all of it at once, in the
    product's order. Returns ``row_ptr``, ``columns`` and ``values``.
    """
    n = g.node_count
    a = g.adjacency + identity(n, dtype=g.adjacency.dtype, format="csr")
    c = a @ a
    rows = np.repeat(np.arange(n), np.diff(c.indptr))
    col, common = c.indices, c.data
    sizes = g.degrees + 1.0
    s = common / np.sqrt(sizes[rows] * sizes[col])
    return c.indptr, col, 1.0 / s


def dense_rows(source, rows) -> np.ndarray:
    """The rows ``rows`` of CSR distances as a dense array: inf off the entries, 0 on the diagonal.

    Read through the row reader of ``isofdp.isomap.build_neighbor_graph``.
    """
    vals, cols, starts = _csr_rows(source, rows)
    d = np.full((rows.size, source.shape[1]), np.inf)
    d[np.repeat(np.arange(rows.size), np.diff(starts, append=vals.size)), cols] = vals
    d[np.arange(rows.size), rows] = 0.0
    return d


def full_rows(source) -> np.ndarray:
    """Every row of CSR distances at once: the dense n x n array."""
    return dense_rows(source, np.arange(source.shape[0]))


def distance_source(values) -> csr_matrix:
    """CSR distances whose rows are a dense distance array.

    Finite off-diagonal entries become the matrix's entries; everything else
    (inf, NaN, -inf) reads inf, and the diagonal reads zero. As the sparse
    product leaves them, each row's entries include the diagonal (1/s = 1)
    and come in an order other than column order: a seeded shuffle, reversed
    where it came out sorted. An array that is not symmetric is rejected, as
    every ``prepared_distances`` matrix is. As there, the bridges of
    ``build_neighbor_graph`` read the largest entry as the largest finite
    distance, so an array whose finite distances are all below 1.0 gets
    bridges of 2.0.
    """
    d = np.array(values, dtype=float)
    n = d.shape[0]
    d[~np.isfinite(d)] = np.inf
    np.fill_diagonal(d, np.inf)
    if not np.array_equal(d, d.T):
        raise ValueError("distances must be symmetric")
    np.fill_diagonal(d, 1.0)
    rng = np.random.default_rng(0)
    columns = []
    for row in d:
        cols = rng.permutation(np.flatnonzero(row < np.inf))
        columns.append(cols[::-1] if np.all(np.diff(cols) > 0) else cols)
    row_ptr = np.r_[0, np.cumsum([c.size for c in columns])]
    cols = np.concatenate(columns).astype(np.int32)
    values = d[np.repeat(np.arange(n), np.diff(row_ptr)), cols]
    return csr_matrix((values, cols, row_ptr), shape=(n, n))


def erdos_renyi(n, p, seed):
    """G(n, p): each pair joined with probability ``p``, from one seeded draw."""
    rng = np.random.default_rng(seed)
    return Graph.from_edges(n, np.argwhere(np.triu(rng.random((n, n)) < p, 1)))


def random_tree(n, seed):
    """A tree in which each node after the first joins a uniformly drawn earlier one."""
    rng = np.random.default_rng(seed)
    return Graph.from_edges(n, [(int(rng.integers(0, v)), v) for v in range(1, n)])


def grid(rows, cols):
    """The ``rows`` x ``cols`` lattice, node ``r * cols + c``."""
    at = np.arange(rows * cols).reshape(rows, cols)
    pairs = np.vstack([np.c_[at[:, :-1].ravel(), at[:, 1:].ravel()], np.c_[at[:-1].ravel(), at[1:].ravel()]])
    return Graph.from_edges(rows * cols, pairs)


def hypercube(dim):
    """The ``dim``-cube: nodes are bit strings, joined when they differ in one bit."""
    n = 1 << dim
    return Graph.from_edges(n, [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# a hub joined to 110 leaves, the last of which starts a 40-node path, and 3
# isolated nodes: at 64-row blocks, the leaves' blocks are nearly n wide and
# the path's narrow
HUB_AND_PATH = Graph.from_edges(
    154, [(0, i) for i in range(1, 111)] + [(i, i + 1) for i in range(110, 150)]
)


REFERENCE_GRAPHS = {
    "gn": generate_gn(GnSpec(z_out=5, seed=3)).graph,
    "star": Graph.from_edges(8, [(0, i) for i in range(1, 8)]),
    "path": Graph.from_edges(8, [(i, i + 1) for i in range(7)]),
    "k33": Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "two_k5_isolated": Graph.from_edges(
        11, [(i, j) for c in (0, 5) for i in range(c, c + 5) for j in range(i + 1, c + 5)]
    ),
    "edgeless": Graph.from_edges(5, []),
    # every pair shares a neighbor, so every distance is finite: the rows
    # hold all n - 1 partners and the k-NN graph needs no bridge
    "wheel": Graph.from_edges(
        8, [(0, i) for i in range(1, 8)] + [(i, i % 7 + 1) for i in range(1, 8)]
    ),
    "friendship": Graph.from_edges(7, [(0, i) for i in range(1, 7)] + [(1, 2), (3, 4), (5, 6)]),
    "fan": Graph.from_edges(8, [(0, i) for i in range(1, 8)] + [(i, i + 1) for i in range(1, 7)]),
    "k6": Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)]),
    "octahedron": Graph.from_edges(
        6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j != i + 3]
    ),
    # diameter 2 and no triangle: finite for every pair, as closed
    # neighborhoods overlap between neighbors too
    "petersen": Graph.from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    ),
    # diameter 2 as well: a 4-cycle and a 5-cycle, the two sides of K2,6,
    # five triangles on one edge, and a dense G(n, p)
    "cycle4": cycle(4),
    "cycle5": cycle(5),
    "k2_6": Graph.from_edges(8, [(i, j) for i in range(2) for j in range(2, 8)]),
    "book5": Graph.from_edges(7, [(0, 1)] + [(e, p) for p in range(2, 7) for e in (0, 1)]),
    "er30_dense": erdos_renyi(30, 0.5, 0),
    # regular graphs, whose distances tie by hop count alone: a long cycle,
    # the 3-cube and 4-cube, and the 5-prism
    "cycle9": cycle(9),
    "cube3": hypercube(3),
    "cube4": hypercube(4),
    "prism5": Graph.from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
    ),
    # degrees 1 to 4 side by side: lattices, trees and cliques on paths
    "grid3x4": grid(3, 4),
    "ladder6": grid(2, 6),
    "binary_tree15": Graph.from_edges(15, [((v - 1) // 2, v) for v in range(1, 15)]),
    "random_tree30": random_tree(30, 0),
    "caterpillar": Graph.from_edges(
        15, [(i, i + 1) for i in range(4)] + [(i, 5 + 2 * i + j) for i in range(5) for j in range(2)]
    ),
    "double_star": Graph.from_edges(10, [(0, 1)] + [(h, 2 + 4 * h + j) for h in range(2) for j in range(4)]),
    "barbell": Graph.from_edges(
        9, [(i, j) for c in (0, 5) for i in range(c, c + 4) for j in range(i + 1, c + 4)] + [(3, 4), (4, 5)]
    ),
    "lollipop": Graph.from_edges(
        9, [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(i, i + 1) for i in range(4, 8)]
    ),
    "k4_pendants": Graph.from_edges(
        8, [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(i, i + 4) for i in range(4)]
    ),
    # five components of two nodes: each pair finite, every other pair inf
    "matching": Graph.from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)]),
    # sparse G(n, p) with isolated nodes and several components
    "er40_sparse_s0": erdos_renyi(40, 0.06, 0),
    "er40_sparse_s1": erdos_renyi(40, 0.06, 1),
    # more than one 64-row block: power-law degrees up to 49, and a hub whose
    # leaves' rows are nearly n wide beside a path's narrow ones
    "lfr200": generate_lfr(LfrSpec(n=200, mu=0.3, seed=0)).graph,
    "hub_and_path": HUB_AND_PATH,
}

# the reference graphs the distance stage takes: it rejects the edgeless one
DISTANCE_GRAPHS = {name: g for name, g in REFERENCE_GRAPHS.items() if g.edge_count}

# the reference graphs whose count holds every pair
ALL_FINITE = (
    "book5", "cycle4", "cycle5", "er30_dense", "fan", "friendship", "k2_6", "k33", "k6",
    "octahedron", "petersen", "star", "wheel",
)


def edge_set(ng) -> set:
    """Edges ``(u, v, w)`` of a neighbor graph as a set of Python tuples."""
    u, v = ng.edges.T.tolist()
    return set(zip(u, v, ng.weights.tolist()))


def neighbor_graph_matrix(ng) -> np.ndarray:
    """Dense weight matrix of a neighbor graph, inf where no edge."""
    w = np.full((ng.node_count, ng.node_count), np.inf)
    for u, v, weight in edge_set(ng):
        w[u, v] = weight
        w[v, u] = weight
    np.fill_diagonal(w, 0.0)
    return w


def reference_bridge(values: np.ndarray) -> np.ndarray:
    """Distance matrix with the groups that share no finite distance joined.

    A star of bridges from node 0 to the smallest node of every other group,
    each twice the largest finite distance, written into a copy of the matrix.
    The k-NN graph of the result is the reference for the bridging that
    ``build_neighbor_graph`` does itself.
    """
    finite = np.isfinite(values)
    if finite.all():
        return values
    n_comp, comp = connected_components(csr_matrix(finite), directed=False)
    if n_comp == 1:
        return values
    if n_comp == values.shape[0]:
        raise ValueError("no finite distances at all; graph has no edges")
    bridge = 2.0 * float(values[finite].max())
    out = values.copy()
    hub, *reps = np.sort(np.unique(comp, return_index=True)[1])
    out[hub, reps] = out[reps, hub] = bridge
    return out


def reference_neighbor_graph(values: np.ndarray, k: int) -> set:
    """Edges ``(u, v, w)`` of the k-NN graph, joined by whole-matrix Kruskal.

    Each node's k closest finite partners (ties to the smaller index); then
    every finite pair between two k-NN components is ranked by (w, u, v) and
    taken while it joins two groups; then the star of bridges from node 0 at
    twice the largest finite distance. Reference for ``build_neighbor_graph``.
    """
    n = values.shape[0]
    finite = np.isfinite(values)
    edges = {}
    for i in range(n):
        partners = [j for j in range(n) if j != i and finite[i, j]]
        for j in sorted(partners, key=lambda j: (values[i, j], j))[:k]:
            edges.setdefault((min(i, j), max(i, j)), float(values[i, j]))
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        parent[root(u)] = root(v)
    pairs = [(float(values[u, v]), u, v) for u, v in zip(*np.nonzero(finite)) if u < v]
    for w, u, v in sorted(pairs):
        if root(u) != root(v):
            parent[root(u)] = root(v)
            edges[(int(u), int(v))] = w
    groups = {}
    for x in range(n):
        groups.setdefault(root(x), x)
    for r in sorted(groups.values())[1:]:
        edges[(0, r)] = 2.0 * float(values[finite].max())
    return {(u, v, w) for (u, v), w in edges.items()}


def reference_compute_profile(e, d_c: float) -> DensityProfile:
    """The density profile from one full ``cdist`` matrix.

    rho counts the row's distances strictly under ``d_c``; the n x n matrix,
    masked to inf wherever the column's density rank is not higher, gives
    delta and the nearest denser point by a row-wise argmin (first minimum:
    distance tie -> smaller index). Reference for ``isofdp.compute_profile``.
    """
    if d_c <= 0:
        raise ValueError("cutoff distance must be positive")
    points = _finite_points(e)
    dist = cdist(points, points)
    n = dist.shape[0]
    rho = (dist < d_c).sum(axis=1).astype(np.int64)
    order = np.lexsort((np.arange(n), -rho))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    top = order[0]
    farthest = dist[top].max()
    dist[rank[:, None] <= rank[None, :]] = np.inf
    nearest = dist.argmin(axis=1)
    delta = dist[np.arange(n), nearest]
    delta[top] = farthest
    nearest[top] = -1
    gamma = rho * delta
    ranking = np.lexsort((np.arange(n), -gamma))
    return DensityProfile(rho, delta, gamma, nearest, ranking, float(d_c))


def reference_select_dc(e, percentile: float = 2.0) -> float:
    """The cutoff from a partition of every ``pdist`` value.

    The nearest-rank percentile of all pair distances; distances at most
    ``1e-9`` times the bounding box's diagonal are rounding noise, and a rank
    that lands there moves up to the first distance above them. Reference
    for ``isofdp.select_dc``, with its errors.
    """
    points = _finite_points(e)
    if not np.isfinite(points).all():
        raise ArithmeticError("coordinates must be finite")
    if points.shape[0] < 2:
        raise ValueError("need at least 2 points to pick a cutoff")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    dists = pdist(points)
    first_real = np.count_nonzero(dists <= 1e-9 * np.sqrt(np.square(np.ptp(points, axis=0)).sum()))
    if first_real == dists.size:
        raise ValueError("all points coincide; cannot pick a cutoff")
    kth = max(math.ceil(percentile / 100.0 * dists.size) - 1, first_real)
    dists.partition(kth)
    return float(dists[kth])


def reference_community_densities(g, part) -> list:
    """Each community's D_c of Ahn, Bagrow & Lehmann, from its size and internal edges.

    ``(m_c - (n_c - 1)) / (n_c (n_c - 1) / 2 - (n_c - 1))``: 0 for a tree,
    1 for a clique, negative when the community is internally disconnected,
    and 0 for at most 2 nodes, where the denominator vanishes. Reference for
    the terms of ``isofdp.partition_density``.
    """
    sizes = np.bincount(part.labels, minlength=part.k).tolist()
    inner = [0] * part.k
    for u, v in g.edge_array.tolist():
        if part.labels[u] == part.labels[v]:
            inner[part.labels[u]] += 1
    return [
        (m - (n - 1)) / (n * (n - 1) / 2 - (n - 1)) if n > 2 else 0.0
        for n, m in zip(sizes, inner)
    ]


def reference_select_k(g, profile, k_max):
    """The count sweep with every k labeled and scored from scratch.

    For each k in 2..k_max, ``assign`` labels the nodes and
    ``partition_density`` counts every edge again; the first peak wins.
    Reference for ``isofdp.select_k``.
    """
    densities, best = [], None
    for k in range(2, k_max + 1):
        part = Partition(assign(profile, k), k)
        d = partition_density(g, part, penalized=True)
        densities.append((k, d))
        if best is None or d > best.density:
            best = SweepRecord(k, d, part)
    return SweepResult(tuple(densities), best)


def reference_dbscan_labels(e, spec) -> np.ndarray:
    """Raw DBSCAN ids with -1 for noise, one border point at a time.

    A point is core when at least ``min_pts`` points (itself included) lie
    within ``eps``. Clusters are the connected components of core points under
    eps-reachability; border points join their nearest core's cluster (ties
    toward the smaller core index), which makes the result independent of
    point order. Reference for ``isofdp.baselines._dbscan_raw``.
    """
    points = _finite_points(e)
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


def reference_dbscan(e, spec) -> Partition:
    """:func:`reference_dbscan_labels` as a partition, each noise point a singleton community."""
    raw = reference_dbscan_labels(e, spec)
    noise = raw < 0
    raw[noise] = raw.max() + 1 + np.arange(np.count_nonzero(noise))
    labels = normalize_labels(raw)
    return Partition(labels, int(labels.max()) + 1)


def reference_dbscan_parameter_search(
    e, truth, percentiles=tuple(range(1, 11)), min_pts_values=(2, 3, 4, 5, 6)
):
    """The DBSCAN grid one cell at a time, each cell scored on its own.

    Every cell is :func:`reference_dbscan` at ``DbscanSpec(select_dc(e, pct),
    min_pts)``, computed here with a fresh core subgraph and component search; cells are compared by
    (NMI, accuracy), ties to the earliest grid entry, percentiles outermost.
    Returns (partition, spec, nmi, acc). Reference for
    ``isofdp.dbscan_parameter_search``.
    """
    points = _finite_points(e)
    dist = cdist(points, points)
    best = None
    for pct in percentiles:
        eps = select_dc(points, pct)
        for min_pts in min_pts_values:
            spec = DbscanSpec(eps, min_pts)
            within = dist <= spec.eps
            core = np.flatnonzero(within.sum(axis=1) >= spec.min_pts)
            raw = np.full(dist.shape[0], -1, dtype=np.int64)
            if core.size:
                _, raw[core] = connected_components(
                    csr_matrix(within[np.ix_(core, core)]), directed=False
                )
                rest = np.flatnonzero(raw < 0)
                reach = within[np.ix_(rest, core)]
                border = reach.any(axis=1)
                nearest = np.where(reach, dist[np.ix_(rest, core)], np.inf)[border].argmin(axis=1)
                raw[rest[border]] = raw[core[nearest]]
            noise = raw < 0
            raw[noise] = raw.max() + 1 + np.arange(np.count_nonzero(noise))
            labels = normalize_labels(raw)
            part = Partition(labels, int(labels.max()) + 1)
            score = (nmi(truth, part.labels), accuracy(truth, part.labels))
            if best is None or score > best[0]:
                best = (score, part, spec)
    if best is None:
        raise ValueError("empty parameter grid")
    (best_nmi, best_acc), part, spec = best
    return part, spec, best_nmi, best_acc


def reference_min_degree_for_mean(avg_degree, exponent, max_degree):
    """The degree floor in 1..max_degree whose power-law mean is nearest ``avg_degree``.

    One normalized weight vector per candidate floor, scanned upward; a
    strictly smaller error replaces the pick, so the smallest floor wins
    ties, and a floor whose weights all underflow (no mean) never wins.
    Reference for ``isofdp.generators._min_degree_for_mean``.
    """
    best, best_err = 1, np.inf
    with np.errstate(invalid="ignore"):
        for low in range(1, max_degree + 1):
            support = np.arange(low, max_degree + 1, dtype=float)
            weights = support ** (-exponent)
            err = abs(float((support * (weights / weights.sum())).sum()) - avg_degree)
            if err < best_err:
                best, best_err = low, err
    return best


def tie_heavy_grids(count=20):
    """Small integer point sets whose pair distances tie often.

    1e-17 noise on a third of the points puts distances between coincident
    points under ``select_dc``'s floor. Sets whose points all coincide are
    skipped.
    """
    rng = np.random.default_rng(3)
    for _ in range(count):
        points = rng.integers(0, 4, size=(int(rng.integers(2, 60)), 2)).astype(float)
        points[: len(points) // 3] += 1e-17 * rng.random((len(points) // 3, 2))
        if pdist(points).max() > 0:
            yield points


def random_connected_graph(rng, n, extra_edges):
    """Connected undirected weighted graph: random spanning path + extras."""
    order = rng.permutation(n)
    edges = {}
    for a, b in zip(order[:-1], order[1:]):
        u, v = (int(a), int(b)) if a < b else (int(b), int(a))
        edges[(u, v)] = float(rng.uniform(0.1, 5.0))
    while len(edges) < n - 1 + extra_edges:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.setdefault((int(u), int(v)), float(rng.uniform(0.1, 5.0)))
    return edges


def two_blobs(rng, size_a=20, size_b=20, gap=50.0, spread=1.0):
    """Two well-separated Gaussian clumps plus their planted labels."""
    a = rng.normal(0.0, spread, size=(size_a, 2))
    b = rng.normal(0.0, spread, size=(size_b, 2)) + np.array([gap, 0.0])
    points = np.vstack([a, b])
    labels = np.array([0] * size_a + [1] * size_b)
    return points, labels


def disjoint_cliques_graph(sizes):
    """Graph made of disjoint cliques; returns (graph, membership labels)."""
    edges = []
    labels = []
    start = 0
    for c, size in enumerate(sizes):
        for i in range(start, start + size):
            for j in range(i + 1, start + size):
                edges.append((i, j))
        labels.extend([c] * size)
        start += size
    return Graph.from_edges(start, edges), np.array(labels)


@pytest.fixture(scope="session")
def lesmis_graph():
    nx = pytest.importorskip("networkx")
    g = nx.les_miserables_graph()
    tokens = sorted(g.nodes())
    index = {t: i for i, t in enumerate(tokens)}
    pairs = [(index[u], index[v]) for u, v in g.edges()]
    return Graph.from_edges(len(tokens), pairs, tokens=tokens)


@pytest.fixture(scope="session")
def karate_club():
    """Zachary's karate club and its two factions, the ``club`` of each member."""
    nx = pytest.importorskip("networkx")
    g = nx.karate_club_graph()
    nodes = sorted(g.nodes())
    clubs = sorted({g.nodes[v]["club"] for v in nodes})
    truth = np.array([clubs.index(g.nodes[v]["club"]) for v in nodes])
    return Graph.from_edges(len(nodes), list(g.edges())), truth


@pytest.fixture(scope="module")
def lfr_graph():
    """The LFR graph at n=2000, mu 0.3, that the memory bounds are measured on."""
    return generate_lfr(LfrSpec(n=2000, mu=0.3, seed=0)).graph


def traced_peak(fn, *args, **kwargs):
    """The ``tracemalloc`` peak of one call: what it allocates, not what it was given."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child_env() -> dict:
    """This process's environment, with the imported ``isofdp`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = str(Path(isofdp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
