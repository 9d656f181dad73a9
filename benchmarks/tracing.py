"""Spans around the package's public calls, kept in memory until the run ends.

A span records its layer name, the graph it belongs to (``request``), its
parent span, start and end. A layer's self time is its span's duration minus
the time its child spans cover. With ``memory=True`` each span also records
its peak ``tracemalloc`` allocation above the level at which it started;
numpy reports its array allocations to ``tracemalloc``.

``traced_detect`` rebuilds ``isofdp.pipeline.detect_communities`` from the
public calls it makes, one span per call; the benchmark checks that its labels
equal the real pipeline's byte for byte.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

from scipy.spatial.distance import pdist

from isofdp.density_peaks import compute_profile, select_dc
from isofdp.isomap import build_neighbor_graph, classical_mds, geodesic_distances
from isofdp.partition import select_k
from isofdp.pipeline import default_k_max, prepared_distances


@dataclass
class Span:
    name: str
    request: int
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0
    error: bool = False
    peak_bytes: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans for one single-threaded run."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.request = -1  # set by the caller before each graph
        self.spans = []
        self._open = []  # indices of open spans, innermost last
        self._base = []  # traced bytes when each open span started
        self._peak = []  # highest traced bytes seen so far in each open span

    @contextmanager
    def span(self, name: str):
        """Time the enclosed call; yields a dict for the call's work counts."""
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peak:
                self._peak[-1] = max(self._peak[-1], peak)
            tracemalloc.reset_peak()
            self._base.append(current)
            self._peak.append(current)
        parent = self._open[-1] if self._open else None
        s = Span(name, self.request, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s.counts
        except BaseException:
            s.error = True
            raise
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if self.memory:
                peak = max(self._peak.pop(), tracemalloc.get_traced_memory()[1])
                s.peak_bytes = peak - self._base.pop()
                if self._peak:
                    self._peak[-1] = max(self._peak[-1], peak)
                tracemalloc.reset_peak()

    def layer_totals(self) -> dict:
        """Per layer name: calls, errors, self seconds, summed counts, peak bytes."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        out = {}
        for s, covered in zip(self.spans, child_s):
            t = out.setdefault(
                s.name, {"calls": 0, "errors": 0, "self_s": 0.0, "peak_bytes": 0, "counts": {}}
            )
            t["calls"] += 1
            t["errors"] += int(s.error)
            t["self_s"] += (s.end - s.start) - covered
            if s.peak_bytes is not None:
                t["peak_bytes"] = max(t["peak_bytes"], s.peak_bytes)
            for key, value in s.counts.items():
                t["counts"][key] = t["counts"].get(key, 0) + value
        return out

    def records(self) -> list:
        """The spans as plain dicts, for writing out at the end of a run."""
        return [vars(s) for s in self.spans]


def traced_detect(tracer: Tracer, g, knn: int, dim: int, dc_percentile: float = 2.0):
    """``detect_communities`` at its defaults, one span per layer call.

    Returns ``(embedding, sweep)``.
    """
    with tracer.span("pipeline.detect_communities"):
        n = g.node_count
        if n < 4:
            raise ValueError("graph too small: need at least 4 nodes")
        k_max = default_k_max(n)
        with tracer.span("pipeline.prepared_distances"):
            dmat = prepared_distances(g)
        with tracer.span("isomap.build_neighbor_graph") as counts:
            ng = build_neighbor_graph(dmat, min(knn, n - 1))
            counts["edges"] = len(ng.edges)
        with tracer.span("isomap.geodesic_distances") as counts:
            gd = geodesic_distances(ng)
            counts["bytes_out"] = n * n * 8
        with tracer.span("isomap.classical_mds"):
            embedding = classical_mds(gd, dim)
        with tracer.span("density_peaks.select_dc"):
            d_c = select_dc(embedding, dc_percentile)
        if d_c <= 0:
            # the fallback of pipeline.detect_communities, verbatim
            positive = pdist(embedding.coordinates)
            positive = positive[positive > 0]
            if positive.size == 0:
                raise ValueError("all embedded points coincide; cannot pick a cutoff")
            d_c = float(positive.min())
        with tracer.span("density_peaks.compute_profile"):
            profile = compute_profile(embedding, d_c)
        with tracer.span("partition.select_k") as counts:
            sweep = select_k(g, embedding, profile, k_max)
            counts["k_evaluated"] = k_max - 1
            counts["edge_visits"] = (k_max - 1) * g.edge_count
    return embedding, sweep
