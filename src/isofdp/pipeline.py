"""End-to-end detection: similarity, embedding, density peaks, count selection."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .density_peaks import DensityProfile, compute_profile, select_dc
from .graph import Graph
from .isomap import Embedding, build_neighbor_graph, classical_mds, geodesic_distances
from .partition import Partition, SweepResult, select_k
from .similarity import similarity_matrix, to_distance

__all__ = [
    "DetectionResult",
    "default_k_max",
    "detect_communities",
    "prepared_distances",
]


def prepared_distances(g: Graph, measure: str = "structure") -> np.ndarray:
    """Similarity-derived distance matrix; inf where two nodes share nothing."""
    return to_distance(similarity_matrix(g, measure))


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
    if g.edge_count == 0:
        raise ValueError("graph has no edges")
    k_max = default_k_max(n) if k_max is None else min(int(k_max), n)
    timings = {}

    start = time.perf_counter()
    dmat = prepared_distances(g, measure)
    timings["similarity"] = time.perf_counter() - start

    start = time.perf_counter()
    ng = build_neighbor_graph(dmat, min(knn, n - 1))
    # the k-NN graph holds all that is used of the distances; freeing them
    # before the geodesics keeps one n x n array fewer alive at the peak
    del dmat
    embedding = classical_mds(geodesic_distances(ng), dim)
    timings["embedding"] = time.perf_counter() - start

    start = time.perf_counter()
    d_c = select_dc(embedding, dc_percentile)
    profile = compute_profile(embedding, d_c)
    timings["density"] = time.perf_counter() - start

    start = time.perf_counter()
    sweep = select_k(g, embedding, profile, k_max)
    timings["sweep"] = time.perf_counter() - start

    return DetectionResult(g, embedding, d_c, profile, sweep, timings)
