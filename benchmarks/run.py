"""isofdp benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload gn-suite --seed 1 --seconds 20 --trace 0

Workloads are listed in ``workloads.py`` and BENCHMARK.json. Each run happens
in fresh child processes with the BLAS pool pinned to ``BLAS_THREADS`` (never
more than the CPUs this process may use), importing ``isofdp`` from ``src/``
of the checkout. With ``--trace 0`` set-up is measured in ``SETUP_REPEATS`` children
and the median reported; the last of them then runs the workload. With
``--trace 1`` one child runs the untraced loop, a traced pass and a
memory-traced pass, and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the detail: environment, label digests, per-graph scores and any
problems found. Exit code 0 means a result was printed; anything else means
the benchmark could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: on a small shared machine two threads made lfr-3k's per-graph
# time spread about three times wider across runs (10% against 3%).
BLAS_THREADS = 1
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
WORKLOAD_NAMES = ("gn-suite", "lfr-mu", "lfr-3k")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    return dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )


def run_child(args, mode: str, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed(f"{mode} child exceeded the time limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise ChildFailed(f"{mode} child printed no result") from exc


def combine(setups: list, measured: dict) -> tuple:
    """Final (detail, result) of a ``--trace 0`` run from its children."""
    samples = [s["setup_s"] for s in setups] + [measured["setup_s"]]
    metrics = {"setup_s": {"value": statistics.median(samples), "unit": "s"}, **measured["metrics"]}
    detail = {"setup_s_samples": samples, **measured["detail"], "env": measured["env"]}
    return detail, result_line(measured, metrics)


def result_line(measured: dict, metrics: dict) -> dict:
    return {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not (ROOT / "src" / "isofdp" / "__init__.py").is_file():
        print(f"error: no isofdp source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            measured = run_child(args, "trace", deadline)
            detail = {**measured["detail"], "env": measured["env"]}
            result = result_line(measured, measured["metrics"])
        else:
            setups = [run_child(args, "setup", deadline) for _ in range(SETUP_REPEATS - 1)]
            detail, result = combine(setups, run_child(args, "measure", deadline))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(json.dumps({"detail": {**header, **detail}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
