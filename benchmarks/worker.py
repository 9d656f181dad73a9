"""One benchmark child process: set up a workload, run it, print one JSON line.

Modes:
  setup    generate the inputs and warm up, then report the set-up time;
  measure  set up, then run whole passes of the workload back to back (one
           caller, closed loop) until ``--seconds`` have elapsed, checking
           every graph's output; reports the end-to-end metrics;
  trace    set up with generator spans, run the untraced loop as the
           reference, then one traced pass and one memory-traced pass;
           reports the per-layer metrics and writes the spans to
           ``.bench_out/`` in the checkout.

Started by ``run.py``, which pins the BLAS pool and measures set-up several
times; run that, not this.
"""

import time

_STARTED = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import isofdp  # noqa: E402
from isofdp import (  # noqa: E402
    GnSpec,
    KmeansSpec,
    accuracy,
    dbscan_parameter_search,
    detect_communities,
    generate_gn,
    kmeans,
    nmi,
)
from isofdp.pipeline import default_k_max  # noqa: E402
from tracing import Tracer, traced_detect  # noqa: E402
from workloads import WORKLOADS, Case, Workload, make_cases, no_span  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

_GRID = inspect.signature(dbscan_parameter_search).parameters
DBSCAN_GRID_CELLS = len(_GRID["percentiles"].default) * len(_GRID["min_pts_values"].default)

# (name, unit, better) of every metric a mode reports; BENCHMARK.json lists the
# same names and units. run.py adds setup_s to the measured ones.
END_TO_END = (
    ("graphs_per_s", "1/s", "higher"),
    ("graph_s_p50", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("nmi_mean", "ratio", "higher"),
)

LAYERS = (
    "generators.generate_gn",
    "generators.generate_lfr",
    "pipeline.detect_communities",
    "pipeline.prepared_distances",
    "isomap.build_neighbor_graph",
    "isomap.geodesic_distances",
    "isomap.classical_mds",
    "density_peaks.select_dc",
    "density_peaks.compute_profile",
    "partition.select_k",
    "baselines.kmeans",
    "baselines.dbscan_parameter_search",
    "metrics.nmi",
    "metrics.accuracy",
)
LAYER_COUNTS = {
    "isomap.build_neighbor_graph": (("edges", "count"),),
    "isomap.geodesic_distances": (("bytes_out", "bytes"),),
    "partition.select_k": (("k_evaluated", "count"), ("edge_visits", "count")),
    "baselines.dbscan_parameter_search": (("grid_cells", "count"),),
}
PEAK_MB_LAYERS = (
    "pipeline.detect_communities",
    "pipeline.prepared_distances",
    "isomap.classical_mds",
    "density_peaks.compute_profile",
)
PER_LAYER = (
    tuple(
        spec
        for layer in LAYERS
        for spec in (
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.errors", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            *((f"{layer}.{key}", unit, "lower") for key, unit in LAYER_COUNTS.get(layer, ())),
        )
    )
    + tuple((f"{layer}.peak_mb", "MB", "lower") for layer in PEAK_MB_LAYERS)
    + (
        ("partition.select_k.kstar_within10_frac", "ratio", "higher"),
        ("baselines.kmeans.nmi_mean", "ratio", "higher"),
        ("baselines.dbscan_parameter_search.nmi_mean", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.memory_overhead_frac", "ratio", "lower"),
    )
)


@dataclass(frozen=True)
class Outcome:
    """What one graph produced; ``sweep`` is dropped once the graph is checked."""

    labels: np.ndarray
    k_star: int
    nmi: float
    acc: float
    sweep: object = None
    kmeans_labels: np.ndarray | None = None
    kmeans_nmi: float | None = None
    kmeans_acc: float | None = None
    dbscan_labels: np.ndarray | None = None
    dbscan_nmi: float | None = None
    dbscan_acc: float | None = None


def plain_detect(g, knn, dim):
    res = detect_communities(g, knn=knn, dim=dim)
    return res.embedding, res.sweep


def run_case(case: Case, wl: Workload, detect=plain_detect, span=no_span) -> Outcome:
    """The per-trial work of ``isofdp benchmark`` for one graph."""
    embedding, sweep = detect(case.graph, wl.knn, wl.dim)
    labels = sweep.best.partition.labels
    with span("metrics.nmi"):
        s_nmi = nmi(case.truth, labels)
    with span("metrics.accuracy"):
        s_acc = accuracy(case.truth, labels)
    out = Outcome(labels, sweep.k_star, s_nmi, s_acc, sweep)
    if not wl.baselines:
        return out
    with span("baselines.kmeans"):
        km = kmeans(embedding, KmeansSpec(k=case.k_true, seed=case.kmeans_seed))
    with span("metrics.nmi"):
        km_nmi = nmi(case.truth, km.labels)
    with span("metrics.accuracy"):
        km_acc = accuracy(case.truth, km.labels)
    with span("baselines.dbscan_parameter_search") as counts:
        db, _, db_nmi, db_acc = dbscan_parameter_search(embedding, case.truth)
        counts["grid_cells"] = DBSCAN_GRID_CELLS
    return replace(
        out,
        kmeans_labels=km.labels,
        kmeans_nmi=km_nmi,
        kmeans_acc=km_acc,
        dbscan_labels=db.labels,
        dbscan_nmi=db_nmi,
        dbscan_acc=db_acc,
    )


def penalized_density(g, labels: np.ndarray) -> float:
    """Penalized partition density, computed independently of ``isofdp.partition``."""
    edges = np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2)
    k = int(labels.max()) + 1
    sizes = np.bincount(labels, minlength=k).astype(float)
    lu, lv = labels[edges[:, 0]], labels[edges[:, 1]]
    internal = np.bincount(lu[lu == lv], minlength=k).astype(float)
    big = sizes > 2
    n_c, m_c = sizes[big], internal[big]
    total = (n_c * (m_c - (n_c - 1)) / ((n_c - 2) * (n_c - 1))).sum()
    return 2.0 * total / (g.node_count * math.sqrt(k))


def _is_partition(labels, n: int, k: int) -> bool:
    return (
        isinstance(labels, np.ndarray)
        and labels.shape == (n,)
        and np.array_equal(np.unique(labels), np.arange(k))
    )


def check(case: Case, out: Outcome) -> list:
    """Problems with one graph's output; empty when it is correct.

    The labels must be n contiguous ids 0..k*-1 with 2 <= k* <= k_max, k* must
    be the first maximum of the sweep, and the sweep's density at k* must match
    an independent recomputation from the labels and the graph.
    """
    n = case.graph.node_count
    problems = []
    if not 2 <= out.k_star <= default_k_max(n):
        problems.append(f"k*={out.k_star} outside 2..{default_k_max(n)}")
    if not _is_partition(out.labels, n, out.k_star):
        problems.append("labels are not n contiguous ids 0..k*-1")
    else:
        table = out.sweep.table()
        best = max(d for _, d in table)
        if next(k for k, d in table if d == best) != out.k_star:
            problems.append("k* is not the first maximum of the sweep")
        elif not math.isclose(penalized_density(case.graph, out.labels), best, rel_tol=1e-9, abs_tol=1e-12):
            problems.append("sweep density at k* disagrees with the labels")
    if out.kmeans_labels is not None and not _is_partition(out.kmeans_labels, n, case.k_true):
        problems.append("k-means labels are not n ids covering 0..k_true-1")
    if out.dbscan_labels is not None and not _is_partition(
        out.dbscan_labels, n, int(out.dbscan_labels.max()) + 1
    ):
        problems.append("DBSCAN labels are not n contiguous ids")
    return problems


def _same_labels(a: Outcome, b: Outcome) -> bool:
    pairs = [(a.labels, b.labels), (a.kmeans_labels, b.kmeans_labels), (a.dbscan_labels, b.dbscan_labels)]
    return all(
        (x is None and y is None) or (x is not None and y is not None and x.tobytes() == y.tobytes())
        for x, y in pairs
    )


class Tally:
    """Attempts, failures and the first few problems, across every pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, case, fn):
        """Call ``fn()``; returns (outcome, seconds), or (None, None) if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failing graph is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.fail(case, f"{type(exc).__name__}: {exc}")
            return None, None
        return out, time.perf_counter() - start

    def fail(self, case, problem):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"param={case.param:g} trial={case.trial}: {problem}")


def checked(tally: Tally, case: Case, out: Outcome, reference: Outcome | None):
    """Check one output (and that it repeats ``reference``); returns it without its sweep."""
    problems = check(case, out)
    if reference is not None and not _same_labels(out, reference):
        problems.append("labels differ from the first run of this graph")
    if problems:
        tally.fail(case, "; ".join(problems))
    return replace(out, sweep=None)


def closed_loop(cases: list, wl: Workload, seconds: float, tally: Tally):
    """Whole passes over ``cases`` back to back until ``seconds`` have elapsed.

    Returns the first successful outcome per case and every case's timings.
    """
    first = [None] * len(cases)
    times = [[] for _ in cases]
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for i, case in enumerate(cases):
            out, dt = tally.run(case, partial(run_case, case, wl))
            if out is None:
                continue
            times[i].append(dt)
            out = checked(tally, case, out, first[i])
            if first[i] is None:
                first[i] = out
        passes += 1
    return first, times, passes


def warm_up():
    """One small graph through every layer, so lazy set-up is paid before timing."""
    labeled = generate_gn(GnSpec(z_out=1, seed=0))
    case = Case(1, 0, labeled.graph, labeled.truth, 0)
    run_case(case, Workload("warm-up", "gn", (1,), 1, baselines=True))


def setup(wl: Workload, seed: int, span=no_span) -> list:
    cases = make_cases(wl, seed, span)
    warm_up()
    return cases


def digest(arrays: list) -> str | None:
    """SHA-256 over the labelings in order, as little-endian int64; None if there are none."""
    if not arrays:
        return None
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


def tail(samples: list):
    """Highest of a few percentiles with at least 10 samples above it, or None."""
    s = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        idx = math.ceil(p / 100 * len(s)) - 1  # nearest rank
        if idx >= 0 and len(s) - 1 - idx >= 10:
            return {"percentile": p, "value": s[idx], "samples": len(s), "beyond": len(s) - 1 - idx}
    return None


def _mean(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def _within10(case: Case, out: Outcome) -> bool:
    return abs(out.k_star - case.k_true) <= 0.1 * case.k_true


def quality(cases: list, first: list) -> dict:
    done = [(c, o) for c, o in zip(cases, first) if o is not None]
    return {
        "nmi_mean": _mean(o.nmi for _, o in done),
        "kstar_within10_frac": _mean(float(_within10(c, o)) for c, o in done),
        "kmeans_nmi_mean": _mean(o.kmeans_nmi for _, o in done),
        "dbscan_nmi_mean": _mean(o.dbscan_nmi for _, o in done),
        "label_digests": {
            name: digest([getattr(o, attr) for _, o in done if getattr(o, attr) is not None])
            for name, attr in (("isofdp", "labels"), ("kmeans", "kmeans_labels"), ("dbscan", "dbscan_labels"))
        },
        "per_graph": [
            {"param": c.param, "trial": c.trial, "k_true": c.k_true, "k_star": o.k_star, "nmi": o.nmi, "acc": o.acc}
            for c, o in done
        ],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def measure(wl: Workload, seed: int, seconds: float, started: float) -> dict:
    """Set-up time, the closed-loop end-to-end metrics and their detail."""
    cases = setup(wl, seed)
    setup_s = time.perf_counter() - started
    tally = Tally()
    first, times, passes = closed_loop(cases, wl, seconds, tally)
    flat = [t for ts in times for t in ts]
    if not flat:
        raise RuntimeError("no graph of the workload completed")
    q = quality(cases, first)
    values = {
        "graphs_per_s": len(flat) / sum(flat),
        "graph_s_p50": statistics.median(flat),
        "peak_rss_mb": peak_rss_mb(),
        "nmi_mean": q.pop("nmi_mean"),
    }
    return {
        "setup_s": setup_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END},
        "detail": {
            "passes": passes,
            "graphs_per_pass": len(cases),
            "graph_s_tail": tail(flat),
            "failed_frac": tally.failed / tally.attempted,
            "problems": tally.problems,
            **q,
        },
    }


def _traced_pass(cases, wl, tracer, tally, reference):
    """Run ``cases`` through the traced replica; returns seconds per case index."""
    seconds = {}
    for i, case in cases:
        tracer.request = i
        fn = partial(run_case, case, wl, partial(traced_detect, tracer), tracer.span)
        out, dt = tally.run(case, fn)
        if out is None:
            continue
        seconds[i] = dt
        checked(tally, case, out, reference[i])
        if reference[i] is None:
            tally.fail(case, "replica ran but detect_communities did not")
    return seconds


def _overhead(traced: dict, times: list) -> float:
    both = [i for i in traced if times[i]]
    base = sum(statistics.median(times[i]) for i in both)
    return sum(traced[i] for i in both) / base - 1.0 if base > 0 else 0.0


def trace(wl: Workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics from one traced pass and one memory-traced pass.

    The untraced closed loop runs first, as in ``measure``; its outputs are the
    reference the traced replica must match byte for byte, and its timings the
    base of the tracing overhead. The memory pass covers only the first graph:
    all graphs of a workload share n, which sets the dense layers' peaks, and
    tracemalloc slows the Python-heavy layers three- to sixfold.
    """
    tracer = Tracer()
    cases = setup(wl, seed, tracer.span)
    tally = Tally()
    first, times, passes = closed_loop(cases, wl, seconds, tally)
    traced = _traced_pass(list(enumerate(cases)), wl, tracer, tally, first)

    mem = Tracer(memory=True)
    tracemalloc.start()
    try:
        mem_traced = _traced_pass([(0, cases[0])], wl, mem, tally, first)
    finally:
        tracemalloc.stop()

    totals, mem_totals = tracer.layer_totals(), mem.layer_totals()
    empty = {"calls": 0, "errors": 0, "self_s": 0.0, "peak_bytes": 0, "counts": {}}
    values = {}
    for layer in LAYERS:
        t = totals.get(layer, empty)
        values[f"{layer}.calls"] = t["calls"]
        values[f"{layer}.errors"] = t["errors"]
        values[f"{layer}.self_s"] = t["self_s"]
        for key, _ in LAYER_COUNTS.get(layer, ()):
            values[f"{layer}.{key}"] = t["counts"].get(key, 0)
    for layer in PEAK_MB_LAYERS:
        values[f"{layer}.peak_mb"] = mem_totals.get(layer, empty)["peak_bytes"] / 2**20
    q = quality(cases, first)
    values["partition.select_k.kstar_within10_frac"] = q["kstar_within10_frac"]
    values["baselines.kmeans.nmi_mean"] = q["kmeans_nmi_mean"] or 0.0
    values["baselines.dbscan_parameter_search.nmi_mean"] = q["dbscan_nmi_mean"] or 0.0
    values["trace.overhead_frac"] = _overhead(traced, times)
    values["trace.memory_overhead_frac"] = _overhead(mem_traced, times)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER},
        "detail": {
            "passes": passes,
            "graphs_per_pass": len(cases),
            "traced_graphs": len(traced),
            "memory_traced_graphs": len(mem_traced),
            "failed_frac": tally.failed / tally.attempted,
            "problems": tally.problems,
            "label_digests": q["label_digests"],
        },
        "spans": tracer.records() + mem.records(),
    }


def environment() -> dict:
    blas = {}
    for mod in (np, scipy):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = dep.get("openblas configuration") or f"{dep.get('name')} {dep.get('version')}"
    return {
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    source = Path(isofdp.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"error: imported isofdp from {source}, not from this checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.mode == "setup":
        setup(wl, args.seed)
        result = {"setup_s": time.perf_counter() - _STARTED}
    elif args.mode == "measure":
        result = measure(wl, args.seed, args.seconds, _STARTED)
    else:
        result = trace(wl, args.seed, args.seconds)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans_{wl.name}_seed{args.seed}.json"
        spans_path.write_text(json.dumps(result.pop("spans")))
        result["detail"]["spans_file"] = str(spans_path.relative_to(ROOT))
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
