"""Self-test of the benchmark: output schema, metric names, output checks, and
agreement with ``isofdp benchmark`` on a small subset of each workload.

Run from the root of a checkout (takes about 15 s):

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import csv
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run
import worker
from isofdp.cli import _parse_values
from isofdp.cli import main as cli_main
from isofdp.pipeline import default_k_max
from workloads import WORKLOADS, make_cases

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = replace(WORKLOADS["gn-suite"], name="tiny", params=(2, 7), trials=1)


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_spec_lists_exactly_the_reported_metrics():
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    e2e = {e["name"]: (e["unit"], e["better"]) for e in SPEC["end_to_end"]}
    assert e2e == {"setup_s": ("s", "lower"), **{n: (u, b) for n, u, b in worker.END_TO_END}}
    layer = {e["name"]: (e["unit"], e["better"]) for e in SPEC["per_layer"]}
    assert layer == {n: (u, b) for n, u, b in worker.PER_LAYER}


def test_workloads_use_the_cli_parameter_ranges():
    assert WORKLOADS["gn-suite"].params == tuple(_parse_values("1..8", integer=True))
    assert WORKLOADS["lfr-mu"].params == tuple(_parse_values("0.1..0.8", integer=False))


def test_measure_result_line_schema():
    measured = worker.measure(TINY, seed=3, seconds=0, started=time.perf_counter())
    measured["env"] = worker.environment()
    detail, result = run.combine([{"setup_s": 0.5}, {"setup_s": 0.7}], measured)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["setup_s_samples"][:2] == [0.5, 0.7]
    assert len(detail["label_digests"]["isofdp"]) == 64
    json.dumps([detail, result])


def test_trace_reports_every_layer_metric():
    traced = worker.trace(TINY, seed=3, seconds=0)
    assert traced["failed"] == 0
    metrics = traced["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units(SPEC["per_layer"])
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["pipeline.detect_communities.calls"] == 2
    assert value["generators.generate_gn.calls"] == 2
    assert value["generators.generate_lfr.calls"] == 0
    assert value["isomap.geodesic_distances.bytes_out"] == 2 * 128 * 128 * 8
    assert value["partition.select_k.k_evaluated"] == 2 * (default_k_max(128) - 1)
    assert value["baselines.dbscan_parameter_search.grid_cells"] == 2 * worker.DBSCAN_GRID_CELLS
    assert all(value[f"{layer}.errors"] == 0 for layer in worker.LAYERS)
    assert all(value[f"{layer}.peak_mb"] > 0 for layer in worker.PEAK_MB_LAYERS)
    assert all(value[f"{layer}.self_s"] >= 0 for layer in worker.LAYERS)
    assert {s["request"] for s in traced["spans"] if s["name"].startswith("generators.")} == {-1}


def test_check_flags_wrong_outputs():
    case = make_cases(TINY, 3)[0]
    out = worker.run_case(case, TINY)
    assert worker.check(case, out) == []
    assert worker.check(case, replace(out, labels=out.labels[:-1]))
    assert worker.check(case, replace(out, k_star=out.k_star + 1))
    merged = out.labels.copy()
    merged[merged == 1] = 0
    assert worker.check(case, replace(out, labels=merged))
    assert worker.check(case, replace(out, kmeans_labels=out.kmeans_labels * 0))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "gn-suite", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _cli_rows(tmp_path, argv, suite):
    assert cli_main(["benchmark", "--suite", suite, "--out-dir", str(tmp_path), *argv]) == 0
    with open(tmp_path / f"benchmark_{suite}.csv", newline="") as fh:
        return [
            (float(r["param"]), int(r["trial"]), r["method"], float(r["nmi"]), float(r["acc"]), int(r["k_detected"]))
            for r in csv.DictReader(fh)
        ]


def _our_rows(wl, seed):
    rows = []
    for case in make_cases(wl, seed):
        out = worker.run_case(case, wl)
        rows.append((case.param, case.trial, "isofdp", out.nmi, out.acc, out.k_star))
        if wl.baselines:
            rows.append((case.param, case.trial, "kmeans_iso", out.kmeans_nmi, out.kmeans_acc, case.k_true))
            dbscan_k = int(out.dbscan_labels.max()) + 1
            rows.append((case.param, case.trial, "dbscan_iso", out.dbscan_nmi, out.dbscan_acc, dbscan_k))
    return rows


@pytest.mark.parametrize("seed", [0, 11])
def test_gn_suite_matches_cli(tmp_path, seed):
    wl = replace(WORKLOADS["gn-suite"], params=(1, 7), trials=2)
    cli = _cli_rows(tmp_path, ["--zout", "1,7", "--trials", "2", "--seed", str(seed)], "gn")
    assert _our_rows(wl, seed) == cli


def test_lfr_mu_matches_cli(tmp_path):
    wl = replace(WORKLOADS["lfr-mu"], params=(0.1, 0.7))
    cli = _cli_rows(tmp_path, ["--mu", "0.1,0.7", "--trials", "1", "--seed", "4", "--methods", "isofdp"], "lfr")
    assert _our_rows(wl, 4) == cli
