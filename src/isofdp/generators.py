"""Seeded synthetic benchmarks with planted community labels.

Two families: the classic 128-node four-block benchmark controlled by the
number of out-of-block links per node, and the power-law benchmark with
heterogeneous degrees and community sizes controlled by a mixing fraction.
All randomness flows from a single 64-bit seed through numpy's default
generator (PCG64), so identical specs reproduce identical edge sets on any
platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

__all__ = [
    "GenerationError",
    "GnSpec",
    "LfrSpec",
    "LabeledGraph",
    "generate_gn",
    "generate_lfr",
]


class GenerationError(RuntimeError):
    """Benchmark spec could not be realized."""


@dataclass(frozen=True)
class LabeledGraph:
    """A generated graph together with its planted community per node."""

    graph: Graph
    truth: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "truth", np.asarray(self.truth, dtype=np.int64))


@dataclass(frozen=True)
class GnSpec:
    """128 nodes, four blocks of 32, per-node degree 16 split in/out of block."""

    z_out: int
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.z_out <= 16:
            raise ValueError(f"z_out must be in 0..16, got {self.z_out}")

    @property
    def z_in(self) -> int:
        return 16 - self.z_out


@dataclass(frozen=True, kw_only=True)
class LfrSpec:
    """Power-law benchmark parameters.

    Degrees follow a truncated power law with exponent ``t1`` whose lower
    bound is solved so the mean matches ``avg_degree``; community sizes follow
    exponent ``t2`` on [min_community, max_community]. Each node spends a
    ``mu`` fraction of its links outside its own community.
    """

    n: int = 1000
    mu: float
    avg_degree: float = 20.0
    max_degree: int = 50
    t1: float = 2.0
    t2: float = 1.0
    min_community: int = 20
    max_community: int = 60
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie strictly between 0 and 1")
        if not self.min_community <= self.max_community <= self.n:
            raise ValueError("need min_community <= max_community <= n")
        if self.avg_degree > self.max_degree:
            raise ValueError("avg_degree cannot exceed max_degree")


# swap repair budget of _match_stubs: rounds over all pairs, partners per bad pair
_MAX_ROUNDS = 200
_SWAP_TRIES = 24


def _match_stubs(stubs, rng, valid_pair=None):
    """Pair stub endpoints into the set of distinct simple edges ``(u, v)``, ``u < v``.

    Random matching followed by swap repair: offending pairs (self-loops,
    constraint violations, duplicates) trade endpoints with random partners
    until clean or the round budget runs out. Unrepairable pairs are dropped.
    """
    stubs = np.asarray(stubs, dtype=np.int64)
    if stubs.size % 2 != 0:
        raise ValueError("stub count must be even")
    if stubs.size == 0:
        return set()
    pairs = stubs[rng.permutation(stubs.size)].reshape(-1, 2).tolist()
    n_pairs = len(pairs)

    def ok(u, v):
        return u != v and (valid_pair is None or valid_pair(u, v))

    for _ in range(_MAX_ROUNDS):
        seen = {}
        bad = []
        for idx, (u, v) in enumerate(pairs):
            if not ok(u, v):
                bad.append(idx)
                continue
            key = (u, v) if u < v else (v, u)
            if key in seen:
                bad.append(idx)
            else:
                seen[key] = idx
        if not bad:
            break
        progress = False
        for idx in bad:
            u, v = pairs[idx]
            for _ in range(_SWAP_TRIES):
                other = int(rng.integers(n_pairs))
                if other == idx:
                    continue
                a, b = pairs[other]
                if not (ok(u, b) and ok(a, v)):
                    continue
                k1 = (u, b) if u < b else (b, u)
                k2 = (a, v) if a < v else (v, a)
                if k1 in seen or k2 in seen or k1 == k2:
                    continue
                pairs[idx] = [u, b]
                pairs[other] = [a, v]
                progress = True
                break
        if not progress:
            break

    return {(u, v) if u < v else (v, u) for u, v in pairs if ok(u, v)}


def generate_gn(spec: GnSpec) -> LabeledGraph:
    """Four 32-node blocks; every node gets z_in in-block and z_out out-of-block links.

    Wiring is exact-degree stub matching, so each node's degree is 16 up to
    the rare unrepairable collision. Marginally, an in-block pair is connected
    with probability z_in/31 and a cross pair with z_out/96.
    """
    rng = np.random.default_rng(spec.seed)
    edges = set()
    for block in range(4):
        members = np.arange(block * 32, (block + 1) * 32)
        if spec.z_in == 0:
            continue
        edges |= _match_stubs(np.repeat(members, spec.z_in), rng)
    if spec.z_out > 0:
        block_of = np.arange(128) // 32
        edges |= _match_stubs(
            np.repeat(np.arange(128), spec.z_out),
            rng,
            valid_pair=lambda u, v: block_of[u] != block_of[v],
        )
    truth = np.repeat(np.arange(4), 32)
    return LabeledGraph(Graph.from_edges(128, edges), truth)


def _power_law_weights(exponent, low, high):
    support = np.arange(low, high + 1, dtype=float)
    weights = support ** (-exponent)
    return support, weights / weights.sum()


def _min_degree_for_mean(avg_degree, exponent, max_degree):
    """Integer lower bound whose truncated power-law mean is closest to the target."""
    best, best_err = 1, np.inf
    for low in range(1, max_degree + 1):
        support, p = _power_law_weights(exponent, low, max_degree)
        err = abs(float((support * p).sum()) - avg_degree)
        if err < best_err:
            best, best_err = low, err
    return best


def _draw_power_law(rng, exponent, low, high, size):
    support, p = _power_law_weights(exponent, low, high)
    return rng.choice(np.arange(low, high + 1), size=size, p=p)


def _draw_community_sizes(rng, spec: LfrSpec, max_tries=100):
    for _ in range(max_tries):
        sizes = []
        total = 0
        while total < spec.n:
            s = int(_draw_power_law(rng, spec.t2, spec.min_community, spec.max_community, 1)[0])
            sizes.append(s)
            total += s
        excess = total - spec.n
        guard = 0
        while excess > 0 and guard < 100 * len(sizes):
            i = int(rng.integers(len(sizes)))
            room = sizes[i] - spec.min_community
            if room > 0:
                take = min(excess, room)
                sizes[i] -= take
                excess -= take
            guard += 1
        if excess == 0:
            return np.asarray(sizes, dtype=np.int64)
    raise GenerationError("community sizes never summed to n; spec too tight")


def _assign_members(rng, sizes, intra_deg, max_tries=50):
    """Place nodes into communities large enough for their in-community degree."""
    n = intra_deg.shape[0]
    order = np.argsort(-intra_deg, kind="stable")
    for _ in range(max_tries):
        capacity = sizes.copy()
        community = np.full(n, -1, dtype=np.int64)
        feasible = True
        for i in order:
            candidates = np.flatnonzero((capacity > 0) & (sizes > intra_deg[i]))
            if candidates.size == 0:
                feasible = False
                break
            c = int(rng.choice(candidates))
            community[i] = c
            capacity[c] -= 1
        if feasible:
            return community
    raise GenerationError("could not fit intra-degrees into the drawn community sizes")


def generate_lfr(spec: LfrSpec) -> LabeledGraph:
    """Power-law benchmark: degrees and community sizes drawn, stubs matched.

    Each node's links split into ``round((1 - mu) * degree)`` in-community
    stubs and the rest out-of-community; per-community parity is fixed by
    flipping one in-community stub outward. In-community and cross-community
    stub pools are matched separately with swap repair.
    """
    rng = np.random.default_rng(spec.seed)
    min_degree = _min_degree_for_mean(spec.avg_degree, spec.t1, spec.max_degree)
    degrees = _draw_power_law(rng, spec.t1, min_degree, spec.max_degree, spec.n)
    if degrees.sum() % 2 != 0:
        # make the stub total even without leaving the degree bounds
        i = int(rng.integers(spec.n))
        degrees[i] += 1 if degrees[i] < spec.max_degree else -1

    intra_deg = np.floor((1.0 - spec.mu) * degrees + 0.5).astype(np.int64)
    if intra_deg.max() >= spec.max_community:
        raise GenerationError(
            "largest intra-degree cannot fit inside the largest allowed community"
        )

    sizes = _draw_community_sizes(rng, spec)
    community = _assign_members(rng, sizes, intra_deg)

    # per-community stub-sum parity: flip one intra stub to an inter stub
    for c in range(sizes.shape[0]):
        members = np.flatnonzero(community == c)
        if intra_deg[members].sum() % 2 == 0:
            continue
        with_stub = members[intra_deg[members] > 0]
        intra_deg[int(rng.choice(with_stub))] -= 1
    inter_deg = degrees - intra_deg

    edges = set()
    for c in range(sizes.shape[0]):
        members = np.flatnonzero(community == c)
        stubs = np.repeat(members, intra_deg[members])
        edges |= _match_stubs(stubs, rng)

    inter_stubs = np.repeat(np.arange(spec.n), inter_deg)
    edges |= _match_stubs(
        inter_stubs, rng, valid_pair=lambda u, v: community[u] != community[v]
    )

    graph = Graph.from_edges(spec.n, edges)
    if (graph.degrees == 0).any():
        raise GenerationError("wiring produced an isolated node; try another seed")
    u, v = graph.edge_array.T
    achieved = np.count_nonzero(community[u] != community[v]) / graph.edge_count
    if abs(achieved - spec.mu) > 0.03:
        raise GenerationError(
            f"achieved mixing {achieved:.3f} strays more than 0.03 from mu={spec.mu}"
        )
    return LabeledGraph(graph, community)
