"""End-to-end detection: similarity, embedding, density peaks, count selection."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from inspect import signature

from .density_peaks import DensityProfile, _check_percentile, compute_profile, select_dc
from .graph import Graph
from .isomap import Embedding, build_neighbor_graph, classical_mds, geodesic_distances
from .partition import Partition, SweepResult, select_k
from .similarity import prepared_distances

__all__ = [
    "DetectionResult",
    "cluster_embedding",
    "default_k_max",
    "detect_communities",
    "embed_graph",
]

_DC_PERCENTILE = signature(select_dc).parameters["percentile"].default


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


def _check_settings(knn=None, dim=None, dc_percentile=None, k_max=None) -> None:
    """Rejects settings under their lower bounds before any stage runs; None is not checked.

    The upper bounds depend on n, and the stages clamp to them.
    """
    for name, value, low in (("knn", knn, 1), ("dim", dim, 1), ("k_max", k_max, 2)):
        if value is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if dc_percentile is not None:
        _check_percentile(dc_percentile)


def _timed(timings: dict, name: str, stage, *args, **kwargs):
    """``stage(*args, **kwargs)``, its seconds recorded in ``timings[name]``."""
    start = time.perf_counter()
    out = stage(*args, **kwargs)
    timings[name] = time.perf_counter() - start
    return out


def _geodesics(g: Graph, knn: int, dim: int, timings: dict):
    """The geodesic rows of ``g``'s k-NN graph, at the landmark floor ``dim`` sets.

    Checks ``knn`` and ``dim``, then runs the distance, k-NN graph and
    geodesic stages, each timed into ``timings``; ``knn`` is clamped to n-1.
    :func:`embed_graph` reads the embedding from these rows, and ``isofdp
    embed --dim-sweep`` its residual variances.
    """
    _check_settings(knn, dim)
    knn = min(knn, g.node_count - 1)
    dmat = _timed(timings, "pipeline.prepared_distances", prepared_distances, g)
    ng = _timed(timings, "isomap.build_neighbor_graph", build_neighbor_graph, dmat, knn)
    # the k-NN graph holds all that is used of the distances; freeing the
    # count before the geodesics lowers the peak
    del dmat
    return _timed(timings, "isomap.geodesic_distances", geodesic_distances, ng, dim=dim)


def embed_graph(g: Graph, knn: int = 10, dim: int = 2) -> tuple[Embedding, dict]:
    """The Isomap half of the pipeline: ``g``'s embedding and its four stage timings.

    ``knn`` is clamped to n-1 so small graphs work with the default
    neighborhood size. The embedding is landmark MDS (see :func:`classical_mds`)
    from at most ``isomap.LANDMARKS`` geodesic rows: every node is a landmark
    when there are at most that many of them. A larger graph takes as many
    as :func:`geodesic_distances` picks for ``dim``, at least ``2 * dim``
    and 32, and ``embedding.landmarks`` records the count. The timings are
    seconds under each stage's ``<module>.<function>`` name, in call order.
    """
    timings = {}
    # the geodesic rows are freed on return: the embedding is all that is used of them
    gd = _geodesics(g, knn, dim, timings)
    return _timed(timings, "isomap.classical_mds", classical_mds, gd, dim), timings


def cluster_embedding(
    g: Graph, embedding: Embedding, dc_percentile: float = _DC_PERCENTILE, k_max: int | None = None
) -> DetectionResult:
    """The density-peaks half of the pipeline, on an embedding of ``g`` the caller already has.

    Picks ``d_c``, computes the density profile and sweeps the community
    count up to ``k_max``, which defaults to :func:`default_k_max` and is
    clamped to n. The result's timings are those of these three stages.
    """
    _check_settings(dc_percentile=dc_percentile, k_max=k_max)
    k_max = default_k_max(g.node_count) if k_max is None else min(int(k_max), g.node_count)
    timings = {}
    d_c = _timed(timings, "density_peaks.select_dc", select_dc, embedding, dc_percentile)
    profile = _timed(timings, "density_peaks.compute_profile", compute_profile, embedding, d_c)
    sweep = _timed(timings, "partition.select_k", select_k, g, embedding, profile, k_max)
    return DetectionResult(g, embedding, profile, sweep, timings)


def detect_communities(
    g: Graph,
    knn: int = 10,
    dim: int = 2,
    dc_percentile: float = _DC_PERCENTILE,
    k_max: int | None = None,
) -> DetectionResult:
    """Run the full pipeline on one graph and pick the best community count.

    :func:`embed_graph` at ``knn`` and ``dim``, then
    :func:`cluster_embedding` at ``dc_percentile`` and ``k_max``, after
    every setting is checked; the result's timings are all seven stages'.
    """
    _check_settings(knn, dim, dc_percentile, k_max)
    embedding, timings = embed_graph(g, knn, dim)
    result = cluster_embedding(g, embedding, dc_percentile, k_max)
    return replace(result, timings=timings | result.timings)
