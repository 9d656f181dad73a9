"""Seeded synthetic benchmarks with planted community labels.

Two families: the classic 128-node four-block benchmark controlled by the
number of out-of-block links per node, and the power-law benchmark with
heterogeneous degrees and community sizes controlled by a mixing fraction.
All randomness flows from a single 64-bit seed through numpy's default
generator (PCG64), so identical specs reproduce identical edge sets on any
platform.
"""

from __future__ import annotations

import bisect
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
        if self.min_community < 1:
            raise ValueError("min_community must be at least 1")
        for name in ("avg_degree", "t1", "t2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.max_degree > self.n - 1:
            raise ValueError("max_degree cannot exceed n - 1")
        if self.avg_degree < 1:
            raise ValueError("avg_degree must be at least 1: every node has a link")
        if self.avg_degree > self.max_degree:
            raise ValueError("avg_degree cannot exceed max_degree")
        # the draws divide the weights by their sum; the degree floor also sums
        # each degree times its weight
        with np.errstate(over="ignore"):
            degrees, weights = _power_law(self.t1, 1, self.max_degree)
            sums = {
                "t1": (degrees * weights).sum(),
                "t2": _power_law(self.t2, self.min_community, self.max_community)[1].sum(),
            }
        for name, total in sums.items():
            if not 0.0 < total < np.inf:
                raise ValueError(
                    f"{name} = {getattr(self, name)} makes the power-law weights overflow or vanish"
                )


# swap repair budget of _match_stubs: rounds over all pairs, partners per bad
# pair. A round's partners are drawn ahead in one batch, enough for every try
# the round can make; the draws it leaves unread start the next round's batch
_MAX_ROUNDS = 200
_SWAP_TRIES = 24
# fresh draws of all community sizes before generate_lfr gives up
_SIZE_TRIES = 100


def _match_stubs(stubs, rng, group):
    """Pair stub endpoints into distinct simple edges: ``(m, 2)`` int64 rows, either order.

    ``group`` holds one label per node, indexable by node id (a list, for
    speed); no pair may join two nodes with the same label, so giving every
    node its own label forbids only self-loops. Random matching followed by
    swap repair: offending pairs (same label, duplicates) trade endpoints with
    random partners until clean or the round budget runs out. Unrepairable
    pairs are dropped.

    Partners are drawn in batches (see ``_SWAP_TRIES``). All draws share the
    bound ``n_pairs``, under which PCG64 yields the same values batched as one
    at a time, so at the end the generator is rewound and advanced by the
    draws actually read: it ends where one draw per try would leave it.
    """
    stubs = np.asarray(stubs, dtype=np.int64)
    if stubs.size % 2 != 0:
        raise ValueError("stub count must be even")
    if stubs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    us, vs = stubs[rng.permutation(stubs.size)].reshape(-1, 2).T.tolist()
    n_pairs = len(us)
    span = len(group)
    start = rng.bit_generator.state
    draws = []
    read = 0

    def key(x, y):  # one int per unordered pair
        return x * span + y if x < y else y * span + x

    # the pass after the last round only scans, so ``bad`` ends up describing
    # the final pairs
    for rounds_left in range(_MAX_ROUNDS, -1, -1):
        # a pair is bad when its labels match or an earlier pair has its key
        seen = set()
        bad = []
        for idx, u, v in zip(range(n_pairs), us, vs):
            k = key(u, v)
            if group[u] == group[v] or k in seen:
                bad.append(idx)
            else:
                seen.add(k)
        if not bad or not rounds_left:
            break
        short = read + len(bad) * _SWAP_TRIES - len(draws)
        if short > 0:
            draws += rng.integers(n_pairs, size=short).tolist()
        progress = False
        for idx in bad:
            u, v = us[idx], vs[idx]
            for other in draws[read : read + _SWAP_TRIES]:
                read += 1
                if other == idx:
                    continue
                a, b = us[other], vs[other]
                if group[u] == group[b] or group[a] == group[v]:
                    continue
                k1 = key(u, b)
                k2 = key(a, v)
                if k1 in seen or k2 in seen or k1 == k2:
                    continue
                vs[idx], vs[other] = b, v
                progress = True
                break
        if not progress:
            break

    rng.bit_generator.state = start
    rng.integers(n_pairs, size=read)
    return np.delete(np.array([us, vs], dtype=np.int64).T, bad, axis=0)


def generate_gn(spec: GnSpec) -> LabeledGraph:
    """Four 32-node blocks; every node gets z_in in-block and z_out out-of-block links.

    Wiring is exact-degree stub matching, so each node's degree is 16 up to
    the rare unrepairable collision. Marginally, an in-block pair is connected
    with probability z_in/31 and a cross pair with z_out/96.
    """
    rng = np.random.default_rng(spec.seed)
    nodes = list(range(128))
    block_of = [u // 32 for u in nodes]
    parts = [
        _match_stubs(np.repeat(np.arange(block * 32, (block + 1) * 32), spec.z_in), rng, nodes)
        for block in range(4)
    ]
    parts.append(_match_stubs(np.repeat(np.arange(128), spec.z_out), rng, block_of))
    truth = np.repeat(np.arange(4), 32)
    return LabeledGraph(Graph.from_edges(128, np.concatenate(parts)), truth)


def _power_law(exponent, low, high):
    """The integers ``low..high`` and their unnormalised weights ``k ** -exponent``."""
    values = np.arange(low, high + 1)
    return values, values.astype(float) ** (-exponent)


def _min_degree_for_mean(avg_degree, exponent, max_degree):
    """Integer lower bound whose truncated power-law mean is closest to the target.

    Every floor's mean from two suffix sums; ties go to the smallest floor, and
    a floor whose weights all underflow has no mean (0/0) and never wins.
    """
    support, weights = _power_law(exponent, 1, max_degree)
    with np.errstate(invalid="ignore"):
        mean = np.cumsum((support * weights)[::-1])[::-1] / np.cumsum(weights[::-1])[::-1]
    return int(np.nanargmin(np.abs(mean - avg_degree))) + 1


def _draw_community_sizes(rng, spec: LfrSpec):
    values, weights = _power_law(spec.t2, spec.min_community, spec.max_community)
    p = weights / weights.sum()
    for _ in range(_SIZE_TRIES):
        sizes = []
        total = 0
        while total < spec.n:
            s = int(rng.choice(values, size=1, p=p)[0])
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


def _assign_members(rng, sizes, intra_deg):
    """Place nodes into communities large enough for their in-community degree.

    Nodes go in order of falling intra-degree, each to a uniform pick among
    the communities with room that are larger than its intra-degree. As the
    degree falls, communities only join that set, by falling size, or leave
    it when full, so it is kept as one sorted list. Every node placed before
    a node went into a community larger than that node's intra-degree, so
    whether the set runs empty does not depend on the picks: one pass decides.
    """
    order = np.argsort(-intra_deg, kind="stable").tolist()
    need = intra_deg.tolist()
    size_of = sizes.tolist()
    by_size = np.argsort(-sizes, kind="stable").tolist()
    capacity = size_of.copy()
    community = [-1] * len(need)
    eligible = []
    joined = 0
    for i in order:
        while joined < len(by_size) and size_of[by_size[joined]] > need[i]:
            bisect.insort(eligible, by_size[joined])
            joined += 1
        if not eligible:
            raise GenerationError("could not fit intra-degrees into the drawn community sizes")
        pick = int(rng.integers(len(eligible)))
        c = eligible[pick]
        community[i] = c
        capacity[c] -= 1
        if capacity[c] == 0:
            del eligible[pick]
    return np.asarray(community, dtype=np.int64)


def generate_lfr(spec: LfrSpec) -> LabeledGraph:
    """Power-law benchmark: degrees and community sizes drawn, stubs matched.

    Each node's links split into ``round((1 - mu) * degree)`` in-community
    stubs and the rest out-of-community; per-community parity is fixed by
    flipping one in-community stub outward. In-community and cross-community
    stub pools are matched separately with swap repair.
    """
    rng = np.random.default_rng(spec.seed)
    min_degree = _min_degree_for_mean(spec.avg_degree, spec.t1, spec.max_degree)
    values, weights = _power_law(spec.t1, min_degree, spec.max_degree)
    degrees = rng.choice(values, size=spec.n, p=weights / weights.sum())
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
    # each community's members in ascending order; every community is full
    members_of = np.split(np.argsort(community, kind="stable"), np.cumsum(sizes)[:-1])

    # per-community stub-sum parity: flip one intra stub to an inter stub
    for members in members_of:
        if intra_deg[members].sum() % 2 == 0:
            continue
        with_stub = members[intra_deg[members] > 0]
        intra_deg[int(rng.choice(with_stub))] -= 1
    inter_deg = degrees - intra_deg

    nodes = list(range(spec.n))
    parts = [
        _match_stubs(np.repeat(members, intra_deg[members]), rng, nodes) for members in members_of
    ]
    parts.append(_match_stubs(np.repeat(np.arange(spec.n), inter_deg), rng, community.tolist()))

    graph = Graph.from_edges(spec.n, np.concatenate(parts))
    if (graph.degrees == 0).any():
        raise GenerationError("wiring produced an isolated node; try another seed")
    u, v = graph.edge_array.T
    achieved = np.count_nonzero(community[u] != community[v]) / graph.edge_count
    if abs(achieved - spec.mu) > 0.03:
        raise GenerationError(
            f"achieved mixing {achieved:.3f} strays more than 0.03 from mu={spec.mu}"
        )
    return LabeledGraph(graph, community)
