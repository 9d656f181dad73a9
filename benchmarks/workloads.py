"""Benchmark workloads: which graphs each one runs and with which settings.

Inputs come from the package's own generators. Every generator seed derives
from the workload seed through ``isofdp.cli.subseed``, exactly as
``isofdp benchmark`` derives it, so graph ``(param, trial)`` here is the CLI's
trial ``(param, trial)`` at master seed ``--seed``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from isofdp import GnSpec, LfrSpec, generate_gn, generate_lfr
from isofdp.cli import SUITE_PRESETS, subseed
from isofdp.graph import Graph

# stream ids of cli.subseed: 0 seeds the generator, 1 seeds k-means
_STREAM_GENERATOR = 0
_STREAM_KMEANS = 1


@dataclass(frozen=True)
class Workload:
    """One fixed pass of graphs, run back to back by a single caller.

    ``params`` are out-degrees (gn) or mixing fractions (lfr); each gets
    ``trials`` graphs. ``baselines`` adds k-means and the DBSCAN grid search
    per graph, as the CLI's default ``--methods`` does.
    """

    name: str
    suite: str
    params: tuple
    trials: int
    baselines: bool
    lfr_n: int = 1000

    @property
    def knn(self) -> int:
        return SUITE_PRESETS[self.suite]["knn"]

    @property
    def dim(self) -> int:
        return SUITE_PRESETS[self.suite]["dim"]


# Why these three (see BENCHMARK.json): gn-suite is many tiny graphs where the
# Python loops and the DBSCAN baseline do the work and the dense kernels are
# about 1%; lfr-mu is the paper's power-law experiment at the CLI's default
# size, split between embedding and count sweep, with quality moving from
# exact to collapse across mu; lfr-3k is one large graph where the dense
# n x n kernels and peak memory dominate.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gn-suite", "gn", tuple(range(1, 9)), trials=10, baselines=True),
        Workload("lfr-mu", "lfr", tuple(i / 10 for i in range(1, 9)), trials=1, baselines=False),
        Workload("lfr-3k", "lfr", (0.3,), trials=1, baselines=False, lfr_n=3000),
    )
}


@dataclass(frozen=True)
class Case:
    """One benchmark graph with its planted truth."""

    param: float
    trial: int
    graph: Graph
    truth: np.ndarray
    kmeans_seed: int

    @property
    def k_true(self) -> int:
        return int(self.truth.max()) + 1


def param_key(suite: str, param) -> int:
    """The CLI's integer key for a parameter: z_out itself, or round(mu*1000)."""
    return int(param) if suite == "gn" else int(round(param * 1000))


def no_span(name):
    """Stand-in for ``Tracer.span`` when nothing is traced."""
    return nullcontext({})


def make_cases(wl: Workload, seed: int, span=no_span) -> list:
    """All graphs of one pass, in the CLI's order (param, then trial).

    ``span(name)`` wraps each generator call, so a tracer can time it.
    """
    cases = []
    for param in wl.params:
        key = param_key(wl.suite, param)
        for trial in range(wl.trials):
            gen_seed = subseed(seed, wl.suite, key, trial, _STREAM_GENERATOR)
            if wl.suite == "gn":
                with span("generators.generate_gn"):
                    labeled = generate_gn(GnSpec(z_out=param, seed=gen_seed))
            else:
                with span("generators.generate_lfr"):
                    labeled = generate_lfr(LfrSpec(n=wl.lfr_n, mu=param, seed=gen_seed))
            km_seed = subseed(seed, wl.suite, key, trial, _STREAM_KMEANS)
            cases.append(Case(param, trial, labeled.graph, labeled.truth, km_seed))
    return cases
