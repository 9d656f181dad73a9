"""Command-line interface: detect, benchmark, generate, eval, embed.

Exit codes: 0 success, 1 input parse error, 2 infeasible configuration,
3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import typing

import numpy as np

from . import __version__
from .baselines import KmeansSpec, dbscan_parameter_search, kmeans
from .density_peaks import _check_percentile
from .generators import GenerationError, GnSpec, LfrSpec, generate_gn, generate_lfr
from .graph import Graph, GraphParseError, load_edge_list, load_gml, to_edge_list
from .isomap import build_neighbor_graph, classical_mds, geodesic_distances, residual_variances
from .metrics import accuracy, nmi
from .pipeline import _check_settings, detect_communities
from .reports import (
    atomic_write_text,
    build_report,
    decision_graph_rows,
    embedding_header,
    embedding_rows,
    load_labels,
    report_json,
    save_labels,
    write_csv,
)
from .similarity import prepared_distances

# Parameters used for each benchmark suite unless overridden on the command
# line. The embedding dimension tracks the community count: 4 well-separated
# groups need 3 axes, the power-law benchmarks with ~25-30 communities need
# more room.
SUITE_PRESETS = {
    "gn": {"knn": 24, "dim": 3},
    "lfr": {"knn": 10, "dim": 16},
}

_SUITE_CODE = {"gn": 1, "lfr": 2}
_METHODS = ("isofdp", "kmeans_iso", "dbscan_iso")
_STREAM_GENERATOR = 0
_STREAM_KMEANS = 1

# per command, the prefix of its LfrSpec flags and their fields, in the flags'
# order; benchmark draws mu and the seed from --mu and --seed
_LFR_FLAGS = {
    "generate": (
        "",
        ("mu", "n", "avg_degree", "max_degree", "t1", "t2", "min_community", "max_community", "seed"),
    ),
    "benchmark": ("lfr_", ("n", "avg_degree", "max_degree", "min_community", "max_community")),
}


def subseed(master: int, suite: str, param_key: int, trial: int, stream: int) -> int:
    """Deterministic per-trial seed: counter scheme over the master seed.

    ``SeedSequence([master, suite_code, param_key, trial, stream])`` lets any
    single trial be regenerated in isolation.
    """
    seq = np.random.SeedSequence(
        [master, _SUITE_CODE[suite], param_key, trial, stream]
    )
    return int(seq.generate_state(1, np.uint64)[0])


def _parse_values(text: str, integer: bool, check=lambda value: None):
    """Range syntax ``a..b`` (inclusive), comma list, or scalar.

    Ranges step by 1 between integral endpoints and by 0.1 otherwise
    (``1..5`` -> 1,2,3,4,5; ``0.1..0.4`` -> 0.1,0.2,0.3,0.4). ``check`` raises
    ValueError for a value outside the flag's domain: it sees both ends of a
    range before the range is built, then every value.

    Raises:
        ValueError: a range that is not finite, or whose upper end is below its lower end.
    """
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = float(lo_s), float(hi_s)
        if not math.isfinite(hi - lo):  # a NaN or infinite end, or a span past the float range
            raise ValueError(f"range {text!r} is not finite")
        if hi < lo:
            raise ValueError(f"empty range {text!r}: the upper end is below the lower end")
        if integer:
            lo, hi = int(lo_s), int(hi_s)
        check(lo)
        check(hi)
        if integer:
            values = list(range(lo, hi + 1))
        else:
            step = 1.0 if lo.is_integer() and hi.is_integer() else 0.1
            count = math.floor((hi - lo + 1e-9) / step) + 1
            values = [round(lo + i * step, 10) for i in range(count)]
    else:
        values = [int(p) if integer else float(p) for p in text.split(",")]
    for value in values:
        check(value)
    return values


def _default(call, name: str):
    """The default value of parameter ``name`` of a function or dataclass."""
    return inspect.signature(call).parameters[name].default


def _add_lfr_flags(p, command: str) -> None:
    """The ``LfrSpec`` flags of ``command``, each typed and defaulted as its field."""
    prefix, names = _LFR_FLAGS[command]
    types = typing.get_type_hints(LfrSpec)
    for name in names:
        default = _default(LfrSpec, name)
        given = {"required": True} if default is inspect.Parameter.empty else {"default": default}
        p.add_argument("--" + (prefix + name).replace("_", "-"), type=types[name], **given)


def _lfr_spec(args, command: str, **fields) -> LfrSpec:
    """The ``LfrSpec`` of the flags :func:`_add_lfr_flags` gave ``command``, and ``fields``."""
    prefix, names = _LFR_FLAGS[command]
    return LfrSpec(**{name: getattr(args, prefix + name) for name in names}, **fields)


def _load_graph(path: str, fmt: str | None) -> tuple[Graph, str]:
    """The graph in ``path`` and its format, by file extension when ``fmt`` is None."""
    if fmt is None:
        fmt = "gml" if path.endswith(".gml") else "edges"
    with open(path, "r", encoding="utf-8") as fh:
        return (load_gml(fh) if fmt == "gml" else load_edge_list(fh)), fmt


def _labels_for_graph(g: Graph, label_map: dict) -> np.ndarray:
    missing = [t for t in g.tokens if t not in label_map]
    if missing:
        raise ValueError(f"label file is missing {len(missing)} node(s), e.g. {missing[0]!r}")
    return np.array([label_map[t] for t in g.tokens], dtype=np.int64)


def cmd_detect(args) -> int:
    g, fmt = _load_graph(args.input, args.format)
    result = detect_communities(
        g,
        knn=args.knn,
        dim=args.dim,
        dc_percentile=args.dc_percentile,
        k_max=args.kmax,
    )
    metrics = {}
    truth = None
    if args.truth:
        with open(args.truth, "r", encoding="utf-8") as fh:
            truth = _labels_for_graph(g, load_labels(fh))
        pred = result.partition.labels
        metrics = {"nmi": nmi(truth, pred), "acc": accuracy(truth, pred)}

    config = {
        "command": "detect",
        "input": args.input,
        "format": fmt,
        "knn": args.knn,
        "dim": args.dim,
        "dc_percentile": args.dc_percentile,
        "kmax": result.sweep.k_max,
        "out_dir": args.out_dir,
        "version": __version__,
    }
    os.makedirs(args.out_dir, exist_ok=True)
    report = build_report(config, result, metrics)
    atomic_write_text(os.path.join(args.out_dir, "report.json"), report_json(report))
    write_csv(
        os.path.join(args.out_dir, "sweep.csv"),
        ["k", "penalized_density"],
        [[k, repr(float(d))] for k, d in result.sweep.table()],
    )
    write_csv(
        os.path.join(args.out_dir, "decision_graph.csv"),
        ["token", "rho", "delta", "gamma"],
        decision_graph_rows(result),
    )
    write_csv(
        os.path.join(args.out_dir, "embedding.csv"),
        embedding_header(result.embedding.dim),
        embedding_rows(g.tokens, result.embedding.coordinates),
    )
    line = f"k_star={result.k_star} communities over {g.node_count} nodes -> {args.out_dir}"
    if metrics:
        line += f" (nmi={metrics['nmi']:.4f} acc={metrics['acc']:.4f})"
    print(line)
    return 0


def _benchmark_instance(suite, param, trial, args):
    param_key = param if suite == "gn" else int(round(param * 1000))
    gen_seed = subseed(args.seed, suite, param_key, trial, _STREAM_GENERATOR)
    if suite == "gn":
        labeled = generate_gn(GnSpec(z_out=param, seed=gen_seed))
    else:
        labeled = generate_lfr(_lfr_spec(args, "benchmark", mu=param, seed=gen_seed))
    return labeled, param_key


def cmd_benchmark(args) -> int:
    suite = args.suite
    presets = SUITE_PRESETS[suite]
    knn = args.knn if args.knn is not None else presets["knn"]
    dim = args.dim if args.dim is not None else presets["dim"]
    if suite == "gn":
        params = _parse_values(args.zout, integer=True, check=GnSpec)
    else:
        params = _parse_values(
            args.mu, integer=False, check=lambda mu: _lfr_spec(args, "benchmark", mu=mu)
        )
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or not set(methods) <= set(_METHODS):
        raise ValueError(f"--methods {args.methods!r}: choose from {', '.join(_METHODS)}")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.dc_sweep:
        values = _parse_values(args.dc_sweep, integer=False, check=_check_percentile)
        runs = [(f"isofdp[dc={pct:g}]", pct) for pct in values]
    else:
        runs = [(method, args.dc_percentile) for method in _METHODS if method in methods]
    for _, pct in runs:
        _check_settings(knn, dim, pct, args.kmax)

    rows = []
    for param in params:
        for trial in range(args.trials):
            labeled, param_key = _benchmark_instance(suite, param, trial, args)
            g, truth = labeled.graph, labeled.truth
            detected = {}
            for method, pct in runs:
                if pct not in detected:
                    detected[pct] = detect_communities(
                        g, knn=knn, dim=dim, dc_percentile=pct, k_max=args.kmax
                    )
                res = detected[pct]
                if method == "kmeans_iso":
                    km_seed = subseed(args.seed, suite, param_key, trial, _STREAM_KMEANS)
                    k_true = int(truth.max()) + 1
                    part = kmeans(res.embedding, KmeansSpec(k=k_true, seed=km_seed))
                elif method == "dbscan_iso":
                    part = dbscan_parameter_search(res.embedding, truth)[0]
                else:
                    part = res.partition
                scores = nmi(truth, part.labels), accuracy(truth, part.labels)
                rows.append([param, trial, method, *scores, part.k])

    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"benchmark_{suite}.csv")
    write_csv(out_path, ["param", "trial", "method", "nmi", "acc", "k_detected"], rows)

    # per-(param, method) averages over trials
    summary = {}
    for param, _, method, *scores, _ in rows:
        summary.setdefault((param, method), []).append(scores)
    print(f"suite={suite} trials={args.trials} knn={knn} dim={dim} -> {out_path}")
    for (param, method), scores in sorted(summary.items()):
        arr = np.array(scores)
        print(
            f"  param={param:g} method={method}: mean_nmi={arr[:, 0].mean():.4f} "
            f"mean_acc={arr[:, 1].mean():.4f}"
        )
    return 0


def cmd_generate(args) -> int:
    if args.family == "gn":
        labeled = generate_gn(GnSpec(z_out=args.zout, seed=args.seed))
        name = args.name or f"gn_zout{args.zout}_seed{args.seed}"
    else:
        labeled = generate_lfr(_lfr_spec(args, "generate"))
        name = args.name or f"lfr_mu{args.mu:g}_seed{args.seed}"
    os.makedirs(args.out_dir, exist_ok=True)
    edge_path = os.path.join(args.out_dir, f"{name}.edges")
    truth_path = os.path.join(args.out_dir, f"{name}.truth")
    atomic_write_text(edge_path, to_edge_list(labeled.graph))
    save_labels(truth_path, labeled.graph.tokens, labeled.truth)
    print(
        f"{labeled.graph.node_count} nodes, {labeled.graph.edge_count} edges, "
        f"{int(labeled.truth.max()) + 1} communities -> {edge_path}, {truth_path}"
    )
    return 0


def cmd_eval(args) -> int:
    with open(args.truth, "r", encoding="utf-8") as fh:
        truth_map = load_labels(fh)
    with open(args.pred, "r", encoding="utf-8") as fh:
        pred_map = load_labels(fh)
    if set(truth_map) != set(pred_map):
        raise ValueError("truth and prediction files cover different node tokens")
    tokens = sorted(truth_map)
    truth = np.array([truth_map[t] for t in tokens])
    pred = np.array([pred_map[t] for t in tokens])
    print(json.dumps({"nmi": nmi(truth, pred), "acc": accuracy(truth, pred)}))
    return 0


def cmd_embed(args) -> int:
    if args.dim_sweep is not None and args.dim_sweep < 1:
        raise ValueError(f"--dim-sweep must be >= 1, got {args.dim_sweep}")
    _check_settings(args.knn, args.dim)
    g, _ = _load_graph(args.input, args.format)
    dmat = prepared_distances(g)
    ng = build_neighbor_graph(dmat, min(args.knn, g.node_count - 1))
    gd = geodesic_distances(ng)
    os.makedirs(args.out_dir, exist_ok=True)
    if args.dim_sweep is not None:
        rows = [[p, repr(r)] for p, r in residual_variances(gd, args.dim_sweep)]
        out = os.path.join(args.out_dir, "embedding_sweep.csv")
        write_csv(out, ["dim", "residual_variance"], rows)
        print(f"residual variances for dim 1..{args.dim_sweep} -> {out}")
        return 0
    emb = classical_mds(gd, args.dim)
    out = os.path.join(args.out_dir, "embedding.csv")
    write_csv(out, embedding_header(emb.dim), embedding_rows(g.tokens, emb.coordinates))
    print(f"{g.node_count} nodes embedded into {emb.dim} dimensions -> {out}")
    return 0


def _add_graph_input(p):
    p.add_argument("--input", required=True, help="path to the network file")
    p.add_argument("--format", choices=["edges", "gml"], default=None,
                   help="input format (default: by file extension)")
    p.add_argument("--knn", type=int, default=_default(detect_communities, "knn"),
                   help="neighborhood size for the k-NN graph")
    p.add_argument("--dim", type=int, default=_default(detect_communities, "dim"),
                   help="embedding dimension")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isofdp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"isofdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect communities in one network")
    _add_graph_input(p)
    p.add_argument("--dc-percentile", type=float,
                   default=_default(detect_communities, "dc_percentile"),
                   help="pairwise-distance percentile fixing the density cutoff")
    p.add_argument("--kmax", type=int, default=None,
                   help="largest community count to try (default ~2*sqrt(n))")
    p.add_argument("--truth", default=None, help="optional token<TAB>community file")
    p.add_argument("--out-dir", default="isofdp-out")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("benchmark", help="run seeded benchmark suites")
    p.add_argument("--suite", choices=["gn", "lfr"], required=True)
    p.add_argument("--zout", default="1..8", help="gn: out-degree values, e.g. 1..8 or 6")
    p.add_argument("--mu", default="0.1..0.8", help="lfr: mixing values, e.g. 0.1..0.8")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--methods", default=",".join(_METHODS))
    p.add_argument("--dc-sweep", default=None,
                   help="run isofdp only, once per cutoff percentile, e.g. 1..5")
    p.add_argument("--knn", type=int, default=None, help="override the suite preset")
    p.add_argument("--dim", type=int, default=None, help="override the suite preset")
    p.add_argument("--dc-percentile", type=float,
                   default=_default(detect_communities, "dc_percentile"))
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="master seed; trials derive from it")
    p.add_argument("--out-dir", default="isofdp-out")
    _add_lfr_flags(p, "benchmark")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("generate", help="write a benchmark instance to disk")
    fam = p.add_subparsers(dest="family", required=True)
    pg = fam.add_parser("gn", help="four 32-node blocks, degree 16")
    pg.add_argument("--zout", type=int, required=True)
    pg.add_argument("--seed", type=int, default=_default(GnSpec, "seed"))
    pg.add_argument("--out-dir", default=".")
    pg.add_argument("--name", default=None)
    pg.set_defaults(func=cmd_generate)
    pl = fam.add_parser("lfr", help="power-law degrees and community sizes")
    _add_lfr_flags(pl, "generate")
    pl.add_argument("--out-dir", default=".")
    pl.add_argument("--name", default=None)
    pl.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="score a prediction against ground truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("embed", help="write the embedding (or a dimension sweep)")
    _add_graph_input(p)
    p.add_argument("--dim-sweep", type=int, default=None,
                   help="report residual variance for dims 1..N instead")
    p.add_argument("--out-dir", default="isofdp-out")
    p.set_defaults(func=cmd_embed)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # before ValueError, which UnicodeDecodeError and LinAlgError subclass
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (GenerationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
