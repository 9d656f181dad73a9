"""Undirected simple graphs: construction, file formats, basic queries.

Node identifiers found in input files ("tokens") are arbitrary strings. They
are mapped to dense indices 0..n-1 in first-seen order; all computation runs
on the dense form and exports map indices back to tokens.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _components

logger = logging.getLogger(__name__)

__all__ = [
    "Graph",
    "GraphParseError",
    "load_edge_list",
    "load_gml",
    "connected_components",
    "to_edge_list",
    "to_gml",
    "to_json",
    "from_json",
]

_COMMENT_PREFIXES = ("#", "%")


class GraphParseError(ValueError):
    """Malformed input file: edge list, GML or ``token<TAB>community`` labels."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on dense indices 0..node_count-1.

    ``edges`` holds each undirected pair once, as ``(u, v)`` with ``u < v``;
    ``edge_array`` is the same set as sorted ``(m, 2)`` int64 rows, read by
    the vectorized per-edge computations. Instances are safe to share across
    workers; all derived views are read-only caches.
    """

    node_count: int
    edges: frozenset
    id_map: dict

    def __post_init__(self):
        n = self.node_count
        for u, v in self.edges:
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge ({u}, {v}) for a graph on {n} nodes")
        if sorted(self.id_map.values()) != list(range(n)):
            raise ValueError("id_map must be a bijection onto 0..n-1")

    @classmethod
    def from_edges(cls, node_count, pairs, tokens=None):
        """Build from index pairs; tokens default to decimal indices.

        Self-loops are ignored and duplicate pairs collapse, so generator
        output can be passed through unfiltered.
        """
        edges = set()
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                continue
            edges.add((u, v) if u < v else (v, u))
        if tokens is None:
            tokens = [str(i) for i in range(node_count)]
        if len(tokens) != node_count:
            raise ValueError("token list length must equal node_count")
        id_map = {str(t): i for i, t in enumerate(tokens)}
        return cls(node_count, frozenset(edges), id_map)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def tokens(self):
        """Index -> original token."""
        out = [""] * self.node_count
        for tok, i in self.id_map.items():
            out[i] = tok
        return out

    @cached_property
    def neighbor_sets(self):
        adj = [set() for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return [frozenset(s) for s in adj]

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as read-only sorted ``(m, 2)`` int64 rows ``(u, v)``, ``u < v``."""
        arr = np.array(sorted(self.edges), dtype=np.int64).reshape(-1, 2)
        arr.flags.writeable = False
        return arr

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.node_count)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (float64, zero diagonal)."""
        a = np.zeros((self.node_count, self.node_count), dtype=np.float64)
        u, v = self.edge_array.T
        a[u, v] = a[v, u] = 1.0
        return a

    def sorted_edges(self):
        return sorted(self.edges)


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    return str(source)


def load_edge_list(source) -> Graph:
    """Parse an edge list: two whitespace-separated node tokens per line.

    Blank lines and lines starting with ``#`` or ``%`` are skipped. Duplicate
    and reversed-duplicate edges collapse to a single edge; self-loops are
    dropped and counted in a warning.

    Raises:
        GraphParseError: a non-comment line does not hold exactly 2 tokens.
    """
    text = _read_text(source)
    id_map = {}
    edges = set()
    self_loops = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(
                f"line {lineno}: expected 2 node tokens, found {len(parts)}"
            )
        a = id_map.setdefault(parts[0], len(id_map))
        b = id_map.setdefault(parts[1], len(id_map))
        if a == b:
            self_loops += 1
            continue
        edges.add((a, b) if a < b else (b, a))
    if self_loops:
        logger.warning("dropped %d self-loop(s) from edge list", self_loops)
    return Graph(len(id_map), frozenset(edges), id_map)


_GML_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]]+')


def _unquote(value: str) -> str:
    if len(value) >= 2 and value.startswith('"') and value.endswith('"'):
        return value[1:-1]
    return value


def _gml_items(tokens):
    """Parse GML tokens into (key, value) pairs.

    Values are raw strings, or nested item lists for bracketed blocks. An
    explicit stack of the enclosing lists keeps any nesting depth off the
    call stack. Blocks still open at the end of input close there; a closing
    bracket with no open block ends the input.
    """
    items = []
    enclosing = []
    pos = 0
    while pos < len(tokens):
        key = tokens[pos]
        pos += 1
        if key == "]":
            if not enclosing:
                break
            items = enclosing.pop()
            continue
        if pos >= len(tokens):
            raise GraphParseError(f"dangling key {key!r} at end of GML input")
        val = tokens[pos]
        pos += 1
        if val == "[":
            sub = []
            items.append((key, sub))
            enclosing.append(items)
            items = sub
        else:
            items.append((key, val))
    return enclosing[0] if enclosing else items


def load_gml(source) -> Graph:
    """Parse the minimal GML subset: a ``graph`` block with node/edge records.

    Each ``node`` record must carry ``id``; ``label`` is used as the node
    token when present, otherwise the id itself. Each ``edge`` record must
    carry ``source`` and ``target`` referring to declared ids. Normalization
    (duplicate collapse, self-loop drop) matches :func:`load_edge_list`.
    """
    tokens = _GML_TOKEN.findall(_read_text(source))
    items = _gml_items(tokens)
    graph_block = next(
        (v for k, v in items if k == "graph" and isinstance(v, list)), None
    )
    if graph_block is None:
        raise GraphParseError("no graph [ ... ] block found")

    index_of = {}  # GML id -> dense index
    id_map = {}  # token -> dense index
    for kind, block in graph_block:
        if kind != "node" or not isinstance(block, list):
            continue
        fields = {k: v for k, v in block if not isinstance(v, list)}
        if "id" not in fields:
            raise GraphParseError("node record without an id")
        gml_id = fields["id"]
        if gml_id in index_of:
            raise GraphParseError(f"duplicate node id {gml_id}")
        token = _unquote(fields.get("label", gml_id))
        if token in id_map:
            raise GraphParseError(f"duplicate node token {token!r}")
        index_of[gml_id] = len(index_of)
        id_map[token] = index_of[gml_id]

    edges = set()
    self_loops = 0
    for kind, block in graph_block:
        if kind != "edge" or not isinstance(block, list):
            continue
        fields = {k: v for k, v in block if not isinstance(v, list)}
        if "source" not in fields or "target" not in fields:
            raise GraphParseError("edge record without source/target")
        try:
            u = index_of[fields["source"]]
            v = index_of[fields["target"]]
        except KeyError as exc:
            raise GraphParseError(
                f"edge references undeclared node id {exc.args[0]}"
            ) from None
        if u == v:
            self_loops += 1
            continue
        edges.add((u, v) if u < v else (v, u))
    if self_loops:
        logger.warning("dropped %d self-loop(s) from GML input", self_loops)
    return Graph(len(index_of), frozenset(edges), id_map)


def connected_components(g: Graph) -> np.ndarray:
    """Per-node int64 component labels: 0-based, ordered by smallest member index.

    Isolated nodes are components of their own.
    """
    n = g.node_count
    u, v = g.edge_array.T
    adj = csr_matrix((np.ones(u.size), (u, v)), shape=(n, n))
    return _components(adj, directed=False)[1].astype(np.int64)


def to_edge_list(g: Graph) -> str:
    """Serialize as dense-index edge list, edges sorted."""
    lines = [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def to_gml(g: Graph) -> str:
    """Serialize as minimal GML; node ids are dense indices, labels the tokens."""
    out = ["graph ["]
    for i, tok in enumerate(g.tokens):
        out.append(f'  node [ id {i} label "{tok}" ]')
    for u, v in g.sorted_edges():
        out.append(f"  edge [ source {u} target {v} ]")
    out.append("]")
    return "\n".join(out) + "\n"


def to_json(g: Graph) -> str:
    """Canonical JSON export: ``{"nodes": [tokens...], "edges": [[u, v], ...]}``."""
    payload = {"nodes": g.tokens, "edges": [list(e) for e in g.sorted_edges()]}
    return json.dumps(payload)


def from_json(text: str) -> Graph:
    payload = json.loads(text)
    return Graph.from_edges(
        len(payload["nodes"]), payload["edges"], tokens=payload["nodes"]
    )
