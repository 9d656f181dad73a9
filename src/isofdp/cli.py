"""Command-line interface: detect, benchmark, generate, eval, embed.

Exit codes: 0 success, 1 input parse error, 2 infeasible configuration,
3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .baselines import KmeansSpec, dbscan_parameter_search, kmeans
from .generators import GenerationError, GnSpec, LfrSpec, generate_gn, generate_lfr
from .graph import Graph, GraphParseError, load_edge_list, load_gml, to_edge_list
from .isomap import residual_variances, geodesic_distances, build_neighbor_graph
from .metrics import accuracy, nmi
from .pipeline import default_k_max, detect_communities, prepared_distances
from .reports import (
    atomic_write_text,
    build_report,
    decision_graph_rows,
    embedding_rows,
    load_labels,
    report_json,
    save_labels,
    write_csv,
)
from .similarity import MEASURES

# Parameters used for each benchmark suite unless overridden on the command
# line. The embedding dimension tracks the community count: 4 well-separated
# groups need 3 axes, the power-law benchmarks with ~25-30 communities need
# more room.
SUITE_PRESETS = {
    "gn": {"knn": 24, "dim": 3},
    "lfr": {"knn": 10, "dim": 16},
}

_SUITE_CODE = {"gn": 1, "lfr": 2}
_STREAM_GENERATOR = 0
_STREAM_KMEANS = 1


def subseed(master: int, suite: str, param_key: int, trial: int, stream: int) -> int:
    """Deterministic per-trial seed: counter scheme over the master seed.

    ``SeedSequence([master, suite_code, param_key, trial, stream])`` lets any
    single trial be regenerated in isolation.
    """
    seq = np.random.SeedSequence(
        [master, _SUITE_CODE[suite], param_key, trial, stream]
    )
    return int(seq.generate_state(1, np.uint64)[0])


def _parse_values(text: str, integer: bool):
    """Range syntax ``a..b`` (inclusive), comma list, or scalar.

    Ranges step by 1 between integral endpoints and by 0.1 otherwise
    (``1..5`` -> 1,2,3,4,5; ``0.1..0.4`` -> 0.1,0.2,0.3,0.4).
    """
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        if integer:
            return list(range(int(lo_s), int(hi_s) + 1))
        lo, hi = float(lo_s), float(hi_s)
        step = 1.0 if lo == int(lo) and hi == int(hi) else 0.1
        out = []
        v = lo
        while v <= hi + 1e-9:
            out.append(round(v, 10))
            v += step
        return out
    parts = text.split(",")
    return [int(p) if integer else float(p) for p in parts]


def _load_graph(path: str, fmt: str | None) -> Graph:
    if fmt is None:
        fmt = "gml" if path.endswith(".gml") else "edges"
    with open(path, "r", encoding="utf-8") as fh:
        return load_gml(fh) if fmt == "gml" else load_edge_list(fh)


def _labels_for_graph(g: Graph, label_map: dict) -> np.ndarray:
    missing = [t for t in g.tokens if t not in label_map]
    if missing:
        raise ValueError(f"label file is missing {len(missing)} node(s), e.g. {missing[0]!r}")
    return np.array([label_map[t] for t in g.tokens], dtype=np.int64)


def cmd_detect(args) -> int:
    g = _load_graph(args.input, args.format)
    result = detect_communities(
        g,
        measure=args.measure,
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
        "format": args.format or ("gml" if args.input.endswith(".gml") else "edges"),
        "measure": args.measure,
        "knn": args.knn,
        "dim": args.dim,
        "dc_percentile": args.dc_percentile,
        "kmax": args.kmax if args.kmax is not None else default_k_max(g.node_count),
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
    dim = result.embedding.dim
    write_csv(
        os.path.join(args.out_dir, "embedding.csv"),
        ["token"] + [f"x{j + 1}" for j in range(dim)],
        embedding_rows(result),
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
        labeled = generate_lfr(
            LfrSpec(
                n=args.lfr_n,
                mu=param,
                avg_degree=args.lfr_avg_degree,
                max_degree=args.lfr_max_degree,
                min_community=args.lfr_min_community,
                max_community=args.lfr_max_community,
                seed=gen_seed,
            )
        )
    return labeled, param_key


def cmd_benchmark(args) -> int:
    suite = args.suite
    presets = SUITE_PRESETS[suite]
    knn = args.knn if args.knn is not None else presets["knn"]
    dim = args.dim if args.dim is not None else presets["dim"]
    if suite == "gn":
        params = _parse_values(args.zout, integer=True)
    else:
        params = _parse_values(args.mu, integer=False)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    dc_values = (
        _parse_values(args.dc_sweep, integer=False) if args.dc_sweep else None
    )

    rows = []
    for param in params:
        for trial in range(args.trials):
            labeled, param_key = _benchmark_instance(suite, param, trial, args)
            g, truth = labeled.graph, labeled.truth
            k_true = int(truth.max()) + 1

            if dc_values is not None:
                for pct in dc_values:
                    res = detect_communities(
                        g, knn=knn, dim=dim, dc_percentile=pct, k_max=args.kmax
                    )
                    lab = res.partition.labels
                    rows.append(
                        [
                            param,
                            trial,
                            f"isofdp[dc={pct:g}]",
                            repr(nmi(truth, lab)),
                            repr(accuracy(truth, lab)),
                            res.k_star,
                        ]
                    )
                continue

            res = None
            if "isofdp" in methods or "kmeans_iso" in methods or "dbscan_iso" in methods:
                res = detect_communities(
                    g, knn=knn, dim=dim, dc_percentile=args.dc_percentile, k_max=args.kmax
                )
            if "isofdp" in methods:
                lab = res.partition.labels
                rows.append(
                    [param, trial, "isofdp", repr(nmi(truth, lab)), repr(accuracy(truth, lab)), res.k_star]
                )
            if "kmeans_iso" in methods:
                km_seed = subseed(args.seed, suite, param_key, trial, _STREAM_KMEANS)
                part = kmeans(res.embedding, KmeansSpec(k=k_true, seed=km_seed))
                rows.append(
                    [param, trial, "kmeans_iso", repr(nmi(truth, part.labels)), repr(accuracy(truth, part.labels)), part.k]
                )
            if "dbscan_iso" in methods:
                part, _, best_n, best_a = dbscan_parameter_search(res.embedding, truth)
                rows.append([param, trial, "dbscan_iso", repr(best_n), repr(best_a), part.k])

    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"benchmark_{suite}.csv")
    write_csv(out_path, ["param", "trial", "method", "nmi", "acc", "k_detected"], rows)

    # per-(param, method) averages over trials
    summary = {}
    for param, _, method, s_nmi, s_acc, _ in rows:
        summary.setdefault((param, method), []).append((float(s_nmi), float(s_acc)))
    print(f"suite={suite} trials={args.trials} knn={knn} dim={dim} -> {out_path}")
    for (param, method), scores in sorted(summary.items(), key=lambda kv: (kv[0][0], kv[0][1])):
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
        labeled = generate_lfr(
            LfrSpec(
                n=args.n,
                mu=args.mu,
                avg_degree=args.avg_degree,
                max_degree=args.max_degree,
                t1=args.t1,
                t2=args.t2,
                min_community=args.min_community,
                max_community=args.max_community,
                seed=args.seed,
            )
        )
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
    g = _load_graph(args.input, args.format)
    if g.node_count < 4:
        raise ValueError("graph too small: need at least 4 nodes")
    dmat = prepared_distances(g, args.measure)
    ng = build_neighbor_graph(dmat, min(args.knn, g.node_count - 1))
    gd = geodesic_distances(ng)
    os.makedirs(args.out_dir, exist_ok=True)
    if args.dim_sweep:
        rows = [[p, repr(r)] for p, r in residual_variances(gd, args.dim_sweep)]
        out = os.path.join(args.out_dir, "embedding_sweep.csv")
        write_csv(out, ["dim", "residual_variance"], rows)
        print(f"residual variances for dim 1..{args.dim_sweep} -> {out}")
        return 0
    from .isomap import classical_mds

    emb = classical_mds(gd, args.dim)
    rows = ([tok] + [repr(float(x)) for x in emb.coordinates[i]] for i, tok in enumerate(g.tokens))
    out = os.path.join(args.out_dir, "embedding.csv")
    write_csv(out, ["token"] + [f"x{j + 1}" for j in range(emb.dim)], rows)
    print(f"{g.node_count} nodes embedded into {emb.dim} dimensions -> {out}")
    return 0


def _add_graph_input(p):
    p.add_argument("--input", required=True, help="path to the network file")
    p.add_argument("--format", choices=["edges", "gml"], default=None,
                   help="input format (default: by file extension)")
    p.add_argument("--measure", choices=list(MEASURES), default="structure")
    p.add_argument("--knn", type=int, default=10, help="neighborhood size for the k-NN graph")
    p.add_argument("--dim", type=int, default=2, help="embedding dimension")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isofdp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"isofdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect communities in one network")
    _add_graph_input(p)
    p.add_argument("--dc-percentile", type=float, default=2.0,
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
    p.add_argument("--methods", default="isofdp,kmeans_iso,dbscan_iso")
    p.add_argument("--dc-sweep", default=None,
                   help="run isofdp only, once per cutoff percentile, e.g. 1..5")
    p.add_argument("--knn", type=int, default=None, help="override the suite preset")
    p.add_argument("--dim", type=int, default=None, help="override the suite preset")
    p.add_argument("--dc-percentile", type=float, default=2.0)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="master seed; trials derive from it")
    p.add_argument("--out-dir", default="isofdp-out")
    p.add_argument("--lfr-n", type=int, default=1000)
    p.add_argument("--lfr-avg-degree", type=float, default=20.0)
    p.add_argument("--lfr-max-degree", type=int, default=50)
    p.add_argument("--lfr-min-community", type=int, default=20)
    p.add_argument("--lfr-max-community", type=int, default=60)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("generate", help="write a benchmark instance to disk")
    fam = p.add_subparsers(dest="family", required=True)
    pg = fam.add_parser("gn", help="four 32-node blocks, degree 16")
    pg.add_argument("--zout", type=int, required=True)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out-dir", default=".")
    pg.add_argument("--name", default=None)
    pg.set_defaults(func=cmd_generate)
    pl = fam.add_parser("lfr", help="power-law degrees and community sizes")
    pl.add_argument("--mu", type=float, required=True)
    pl.add_argument("--n", type=int, default=1000)
    pl.add_argument("--avg-degree", type=float, default=20.0)
    pl.add_argument("--max-degree", type=int, default=50)
    pl.add_argument("--t1", type=float, default=2.0)
    pl.add_argument("--t2", type=float, default=1.0)
    pl.add_argument("--min-community", type=int, default=20)
    pl.add_argument("--max-community", type=int, default=60)
    pl.add_argument("--seed", type=int, default=0)
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
    except (GenerationError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError, ArithmeticError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
