"""Undirected simple graphs: construction, file formats, basic queries.

Node identifiers found in input files ("tokens") are arbitrary strings. They
are mapped to dense indices 0..n-1 in first-seen order; all computation runs
on the dense form and exports map indices back to tokens.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix

logger = logging.getLogger(__name__)

__all__ = [
    "Graph",
    "GraphParseError",
    "load_edge_list",
    "load_gml",
    "to_edge_list",
    "to_gml",
]

_COMMENT_PREFIXES = ("#", "%")


class GraphParseError(ValueError):
    """Malformed input file: edge list, GML or ``token<TAB>community`` labels."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph on dense indices 0..node_count-1.

    Besides ``node_count`` it holds two fields: ``edge_array``, each
    undirected pair once as sorted, distinct, read-only ``(m, 2)`` int64 rows
    ``(u, v)`` with ``u < v``, and ``tokens``, a tuple of one distinct string
    per node. An int64 array given as ``edge_array`` is kept, not copied, and
    made read-only. Instances are safe to share across workers; all derived
    views are read-only caches.
    """

    node_count: int
    edge_array: np.ndarray
    tokens: tuple

    def __post_init__(self):
        n = self.node_count
        edges = np.asarray(self.edge_array, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edge_array must have shape (m, 2), got {edges.shape}")
        u, v = edges.T
        bad = np.flatnonzero((u < 0) | (u >= v) | (v >= n))
        if bad.size:
            raise ValueError(f"bad edge {tuple(edges[bad[0]].tolist())} for a graph on {n} nodes")
        # sorted and distinct: each row strictly after the one before
        if not ((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all():
            raise ValueError("edge_array rows must be sorted and distinct")
        tokens = tuple(map(str, self.tokens))
        if len(tokens) != n or len(set(tokens)) != n:
            raise ValueError("tokens must be one distinct string per node")
        edges.flags.writeable = False
        object.__setattr__(self, "edge_array", edges)
        object.__setattr__(self, "tokens", tokens)

    @classmethod
    def from_edges(cls, node_count, pairs, tokens=None):
        """Build from index pairs; tokens default to decimal indices.

        Self-loops are ignored and duplicate pairs collapse, so generator
        output can be passed through unfiltered. An ``(m, 2)`` integer array
        is read as it is, not row by row.
        """
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs) or np.empty((0, 2))
        edges = np.asarray(pairs, dtype=np.int64)
        edges = np.sort(edges[edges[:, 0] != edges[:, 1]], axis=1)
        # sorted rows, then the first of each run of equal ones
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        first = np.ones(len(edges), dtype=bool)
        first[1:] = (edges[1:] != edges[:-1]).any(axis=1)
        return cls(node_count, edges[first], range(node_count) if tokens is None else tokens)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        same = (self.node_count, self.tokens) == (other.node_count, other.tokens)
        return same and np.array_equal(self.edge_array, other.edge_array)

    @property
    def edge_count(self) -> int:
        return self.edge_array.shape[0]

    @property
    def edges(self) -> frozenset:
        """The edge set as ``(u, v)`` tuples, built anew on each call."""
        return frozenset(map(tuple, self.edge_array.tolist()))

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.node_count)

    @cached_property
    def adjacency(self) -> csr_matrix:
        """Symmetric 0/1 adjacency as int64 CSR with zero diagonal; ``.data`` is read-only."""
        n = self.node_count
        u, v = self.edge_array.T
        ones = np.ones(2 * u.size, dtype=np.int64)
        a = csr_matrix((ones, (np.r_[u, v], np.r_[v, u])), shape=(n, n))
        a.data.flags.writeable = False
        return a


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
    pairs = []
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
        pairs.append((a, b))
    self_loops = sum(a == b for a, b in pairs)
    if self_loops:
        logger.warning("dropped %d self-loop(s) from edge list", self_loops)
    return Graph.from_edges(len(id_map), pairs, tokens=list(id_map))


_GML_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]]+')


def _unquote(value: str) -> str:
    if len(value) >= 2 and value.startswith('"') and value.endswith('"'):
        return value[1:-1]
    return value


def _gml_items(tokens):
    """Parse GML tokens into (key, value) pairs.

    Values are raw strings, or nested item lists for bracketed blocks. An
    explicit stack of the enclosing lists keeps any nesting depth off the
    call stack. A closing bracket with no open block ends the input.

    Raises:
        GraphParseError: a key has no value (a closing bracket or the end of
            input where it belongs), or the input ends inside a block.
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
        if val == "]":
            raise GraphParseError(f"key {key!r} has no value")
        if val == "[":
            sub = []
            items.append((key, sub))
            enclosing.append(items)
            items = sub
        else:
            items.append((key, val))
    if enclosing:
        raise GraphParseError("input ends inside a block")
    return items


def _gml_fields(kind: str, block: list, keys: tuple) -> dict:
    """The plain key-value pairs of one ``kind`` record; one of ``keys`` may appear once."""
    fields = {}
    for k, v in block:
        if isinstance(v, list):
            continue
        if k in fields and k in keys:
            raise GraphParseError(f"{kind} record repeats key {k!r}")
        fields[k] = v
    return fields


def load_gml(source) -> Graph:
    """Parse the minimal GML subset: a ``graph`` block with node/edge records.

    Each ``node`` record must carry ``id``; ``label`` is used as the node
    token when present, otherwise the id itself. Each ``edge`` record must
    carry ``source`` and ``target`` referring to declared ids. A record may
    hold each of those keys once. Duplicates collapse and self-loops drop as
    in :meth:`Graph.from_edges`, with a warning that counts the self-loops.
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
        fields = _gml_fields("node", block, ("id", "label"))
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

    pairs = []
    for kind, block in graph_block:
        if kind != "edge" or not isinstance(block, list):
            continue
        fields = _gml_fields("edge", block, ("source", "target"))
        if "source" not in fields or "target" not in fields:
            raise GraphParseError("edge record without source/target")
        try:
            pairs.append((index_of[fields["source"]], index_of[fields["target"]]))
        except KeyError as exc:
            raise GraphParseError(
                f"edge references undeclared node id {exc.args[0]}"
            ) from None
    self_loops = sum(u == v for u, v in pairs)
    if self_loops:
        logger.warning("dropped %d self-loop(s) from GML input", self_loops)
    return Graph.from_edges(len(index_of), pairs, tokens=list(id_map))


def to_edge_list(g: Graph) -> str:
    """Serialize as dense-index edge list, edges sorted."""
    lines = [f"{u} {v}" for u, v in g.edge_array.tolist()]
    return "\n".join(lines) + ("\n" if lines else "")


def to_gml(g: Graph) -> str:
    """Serialize as minimal GML; node ids are dense indices, labels the tokens.

    Raises:
        ValueError: a token holds a double quote, which a GML string cannot carry.
    """
    out = ["graph ["]
    for i, tok in enumerate(g.tokens):
        if '"' in tok:
            raise ValueError(f"token {tok!r} holds a double quote, which GML cannot write")
        out.append(f'  node [ id {i} label "{tok}" ]')
    for u, v in g.edge_array.tolist():
        out.append(f"  edge [ source {u} target {v} ]")
    out.append("]")
    return "\n".join(out) + "\n"

