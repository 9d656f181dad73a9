"""End-to-end detection: similarity, embedding, density peaks, count selection."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from inspect import signature

from .density_peaks import DensityProfile, _check_percentile, compute_profile, select_dc
from .graph import Graph
from .isomap import Embedding, build_neighbor_graph, classical_mds, geodesic_distances
from .partition import Partition, SweepResult, select_k
from .similarity import prepared_distances

__all__ = [
    "DetectionResult",
    "default_k_max",
    "detect_communities",
]


def default_k_max(n: int) -> int:
    """Sweep upper bound: generous for small graphs, ~2*sqrt(n) for large ones."""
    return min(math.ceil(2 * math.sqrt(n)), n - 1)


@dataclass(frozen=True)
class DetectionResult:
    """Everything the pipeline produced for one graph.

    ``timings`` holds the seconds of each stage call under its
    ``<module>.<function>`` name, in call order.
    """

    graph: Graph
    embedding: Embedding
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


def _check_settings(
    knn: int, dim: int, dc_percentile: float | None = None, k_max: int | None = None
) -> None:
    """Rejects settings under their lower bounds before any stage runs; None is not checked.

    The upper bounds depend on n, and :func:`detect_communities` clamps to them.
    """
    if knn < 1:
        raise ValueError(f"knn must be >= 1, got {knn}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dc_percentile is not None:
        _check_percentile(dc_percentile)
    if k_max is not None and k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")


def detect_communities(
    g: Graph,
    knn: int = 10,
    dim: int = 2,
    dc_percentile: float = signature(select_dc).parameters["percentile"].default,
    k_max: int | None = None,
) -> DetectionResult:
    """Run the full pipeline on one graph and pick the best community count.

    ``knn`` is clamped to n-1 so small graphs work with the default
    neighborhood size. ``k_max`` defaults to :func:`default_k_max` and is
    clamped to n. The embedding is landmark MDS (see :func:`classical_mds`)
    from at most ``isomap.LANDMARKS`` geodesic rows: every node is a landmark
    when there are at most that many of them.
    """
    _check_settings(knn, dim, dc_percentile, k_max)
    n = g.node_count
    k_max = default_k_max(n) if k_max is None else min(int(k_max), n)
    timings = {}

    def timed(name, stage, *args):
        start = time.perf_counter()
        out = stage(*args)
        timings[name] = time.perf_counter() - start
        return out

    dmat = timed("pipeline.prepared_distances", prepared_distances, g)
    ng = timed("isomap.build_neighbor_graph", build_neighbor_graph, dmat, min(knn, n - 1))
    # the k-NN graph holds all that is used of the distances; freeing the
    # count before the geodesics lowers the peak
    del dmat
    gd = timed("isomap.geodesic_distances", geodesic_distances, ng)
    embedding = timed("isomap.classical_mds", classical_mds, gd, dim)
    # and the embedding all that is used of the geodesics
    del gd
    d_c = timed("density_peaks.select_dc", select_dc, embedding, dc_percentile)
    profile = timed("density_peaks.compute_profile", compute_profile, embedding, d_c)
    sweep = timed("partition.select_k", select_k, g, embedding, profile, k_max)
    return DetectionResult(g, embedding, profile, sweep, timings)
