"""Labels and density profiles must not depend on the BLAS thread count.

Two fresh interpreters, one per thread count, since OpenBLAS reads
``OPENBLAS_NUM_THREADS`` once, when numpy is imported. Their embeddings may
differ in the last bits (a threaded product or eigensolver sums in another
order); the partitions and k* must not, neither on the LFR graph's 32 landmarks
nor on the GN graphs, where every node is one. Nor may the density profile or the cutoff
``select_dc`` picks: their GEMM screens may round differently, but every
decision is taken on ``cdist``.
"""

import json
import subprocess
import sys

from conftest import child_env

CHILD = """
import hashlib
import json

import numpy as np

from isofdp import (
    GnSpec, LfrSpec, compute_profile, detect_communities, generate_gn, generate_lfr, select_dc,
)

labeled = generate_lfr(LfrSpec(n=1000, mu=0.4, seed=1))
res = detect_communities(labeled.graph, knn=10, dim=16, k_max=64)
# n=128: every node a landmark, one eigh of the whole block
gn = [
    detect_communities(generate_gn(GnSpec(z_out=z_out, seed=0)).graph, knn=24, dim=3)
    for z_out in range(1, 9)
]
points = np.random.default_rng(0).normal(size=(700, 16))
prof = compute_profile(points, select_dc(points, 2.0))
fields = (prof.rho, prof.delta, prof.gamma, prof.nearest_higher, prof.ranking)
cutoffs = np.array([select_dc(points, pct) for pct in (0.1, 2.0, 10.0, 50.0)])
print(json.dumps({
    "k_star": res.k_star,
    "labels": res.partition.labels.tolist(),
    "gn_k_star": [r.k_star for r in gn],
    "gn_labels": [r.partition.labels.tolist() for r in gn],
    "profile": hashlib.sha256(b"".join(f.tobytes() for f in fields)).hexdigest(),
    "d_c": hashlib.sha256(cutoffs.tobytes()).hexdigest(),
}))
"""


def detect_with_threads(threads: int) -> dict:
    env = child_env()
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_labels_invariant_to_blas_thread_count():
    one, two = detect_with_threads(1), detect_with_threads(2)
    assert one["k_star"] == two["k_star"]
    assert one["labels"] == two["labels"]
    assert one["gn_k_star"] == two["gn_k_star"]
    assert one["gn_labels"] == two["gn_labels"]
    assert one["profile"] == two["profile"]
    assert one["d_c"] == two["d_c"]
