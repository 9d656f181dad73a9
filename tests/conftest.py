"""Shared fixtures and independent reference implementations (oracles)."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from isofdp import Graph


def floyd_warshall(weights: np.ndarray) -> np.ndarray:
    """Min-plus closure of a weight matrix; reference for shortest paths."""
    d = np.array(weights, dtype=float)
    np.fill_diagonal(d, 0.0)
    for k in range(d.shape[0]):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def neighbor_graph_matrix(ng) -> np.ndarray:
    """Dense weight matrix of a neighbor graph, inf where no edge."""
    w = np.full((ng.node_count, ng.node_count), np.inf)
    for u, v, weight in ng.edges:
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
