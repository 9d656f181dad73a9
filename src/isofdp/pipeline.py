"""End-to-end detection: similarity, embedding, density peaks, count selection."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .density_peaks import DensityProfile, compute_profile, select_dc
from .graph import Graph
from .isomap import Embedding, isomap
from .partition import Partition, SweepResult, select_k
from .similarity import similarity_matrix, to_distance

__all__ = [
    "DetectionResult",
    "default_k_max",
    "detect_communities",
    "prepared_distances",
]


def _bridge_disconnected(values: np.ndarray) -> np.ndarray:
    """Join groups that share no finite distance with synthetic long edges.

    Nodes with zero similarity across graph components would otherwise have
    no geodesic at all. A star of bridges between component representatives,
    each twice the largest finite dissimilarity, keeps such groups maximally
    separated in the embedding while letting the projection proceed.
    """
    finite = np.isfinite(values)
    if finite.all():
        return values
    n_comp, comp = connected_components(csr_matrix(finite), directed=False)
    if n_comp == 1:
        return values
    if n_comp == values.shape[0]:
        raise ValueError("no finite distances at all; graph has no edges")
    # the zero diagonal cannot raise the maximum over positive distances
    bridge = 2.0 * float(values[finite].max())
    out = values.copy()
    # each component's smallest node, bridged to node 0's component
    hub, *reps = np.sort(np.unique(comp, return_index=True)[1])
    out[hub, reps] = out[reps, hub] = bridge
    return out


def prepared_distances(g: Graph, measure: str = "structure") -> np.ndarray:
    """Similarity-derived distance matrix, bridged to a single finite component."""
    return _bridge_disconnected(to_distance(similarity_matrix(g, measure)))


def default_k_max(n: int) -> int:
    """Sweep upper bound: generous for small graphs, ~2*sqrt(n) for large ones."""
    return min(math.ceil(2 * math.sqrt(n)), n - 1)


@dataclass(frozen=True)
class DetectionResult:
    """Everything the pipeline produced for one graph."""

    graph: Graph
    embedding: Embedding
    d_c: float
    profile: DensityProfile
    sweep: SweepResult
    timings: dict

    @property
    def k_star(self) -> int:
        return self.sweep.k_star

    @property
    def partition(self) -> Partition:
        return self.sweep.best.partition

    def communities_by_token(self) -> dict:
        labels = self.partition.labels
        return {tok: int(labels[i]) for i, tok in enumerate(self.graph.tokens)}


def detect_communities(
    g: Graph,
    measure: str = "structure",
    knn: int = 10,
    dim: int = 2,
    dc_percentile: float = 2.0,
    k_max: int | None = None,
) -> DetectionResult:
    """Run the full pipeline on one graph and pick the best community count.

    ``knn`` is clamped to n-1 so small graphs work with the default
    neighborhood size. ``k_max`` defaults to :func:`default_k_max`.
    """
    n = g.node_count
    if n < 4:
        raise ValueError("graph too small: need at least 4 nodes")
    k_max = default_k_max(n) if k_max is None else min(int(k_max), n)
    timings = {}

    start = time.perf_counter()
    dmat = prepared_distances(g, measure)
    timings["similarity"] = time.perf_counter() - start

    start = time.perf_counter()
    embedding = isomap(dmat, min(knn, n - 1), dim)
    timings["embedding"] = time.perf_counter() - start

    start = time.perf_counter()
    d_c = select_dc(embedding, dc_percentile)
    profile = compute_profile(embedding, d_c)
    timings["density"] = time.perf_counter() - start

    start = time.perf_counter()
    sweep = select_k(g, embedding, profile, k_max)
    timings["sweep"] = time.perf_counter() - start

    return DetectionResult(g, embedding, d_c, profile, sweep, timings)
