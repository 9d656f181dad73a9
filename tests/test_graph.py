import os

import numpy as np
import pytest

from isofdp import (
    Graph,
    GraphParseError,
    load_edge_list,
    load_gml,
    to_edge_list,
    to_gml,
)

DATA_REAL = os.path.join(os.path.dirname(__file__), "..", "data", "real")


class TestLoadEdgeList:
    def test_minimal_path(self):
        g = load_edge_list("0 1\n1 2")
        assert g.node_count == 3
        assert g.edge_count == 2

    def test_duplicates_and_self_loops_normalized(self):
        g = load_edge_list("a b\nb a\na a")
        assert g.node_count == 2
        assert g.edge_count == 1

    def test_first_seen_order(self):
        g = load_edge_list("x y\nz x")
        assert g.tokens == ("x", "y", "z")
        assert g.edge_array.tolist() == [[0, 1], [0, 2]]

    def test_comments_and_blanks_skipped(self):
        g = load_edge_list("# header\n\n% other\n0 1\n")
        assert g.edge_count == 1

    def test_bad_line_reports_line_number(self):
        with pytest.raises(GraphParseError, match="line 2"):
            load_edge_list("0 1\n0 1 2\n")
        with pytest.raises(GraphParseError, match="expected 2"):
            load_edge_list("solo")


class TestLoadGml:
    def test_minimal(self):
        text = 'graph [ node [ id 1 ] node [ id 2 ] edge [ source 1 target 2 ] ]'
        g = load_gml(text)
        assert g.node_count == 2
        assert g.edge_count == 1

    def test_labels_become_tokens(self):
        text = (
            'graph [\n node [ id 0 label "alpha" ]\n node [ id 1 label "beta" ]\n'
            " edge [ source 0 target 1 ]\n]"
        )
        g = load_gml(text)
        assert g.tokens == ("alpha", "beta")
        assert g.edge_array.tolist() == [[0, 1]]

    def test_missing_graph_block(self):
        with pytest.raises(GraphParseError, match="graph"):
            load_gml('node [ id 1 ]')

    def test_edge_to_undeclared_id(self):
        text = "graph [ node [ id 1 ] edge [ source 1 target 9 ] ]"
        with pytest.raises(GraphParseError, match="undeclared"):
            load_gml(text)

    def test_normalization_matches_edge_list(self):
        text = (
            "graph [ node [ id 1 ] node [ id 2 ] "
            "edge [ source 1 target 2 ] edge [ source 2 target 1 ] "
            "edge [ source 1 target 1 ] ]"
        )
        g = load_gml(text)
        assert g.edge_count == 1

    def test_stray_closing_bracket_ends_the_input(self):
        g = load_gml("graph [ node [ id 1 ] node [ id 2 ] ] ] edge [ source 1 target 2 ]")
        assert (g.node_count, g.edge_count) == (2, 0)
        with pytest.raises(GraphParseError, match="graph"):
            load_gml("] graph [ node [ id 1 ] ]")

    def test_closing_bracket_is_not_a_value(self):
        # the bracket would close nothing, and the records after it would nest
        # inside the node
        text = (
            "graph [ node [ id 0 ] node [ id 5 label ] node [ id 6 ] "
            "edge [ source 0 target 5 ] edge [ source 5 target 6 ] ]"
        )
        with pytest.raises(GraphParseError, match="key 'label' has no value"):
            load_gml(text)

    @pytest.mark.parametrize(
        "text",
        [
            "graph [ node [ id 1 ] node [ id 2 ] edge [ source 1 target 2 ]",
            "graph [ node [ id 1 node [ id 2 ] edge [ source 1 target 2 ] ]",
        ],
    )
    def test_block_open_at_the_end_of_input(self, text):
        with pytest.raises(GraphParseError, match="input ends inside a block"):
            load_gml(text)

    def test_deeply_nested_block_is_ignored(self):
        depth = 10_000
        nested = "meta [ " * depth + "x 1 " + "] " * depth
        text = f"graph [ node [ id 1 ] node [ id 2 ] {nested} edge [ source 1 target 2 ] ]"
        g = load_gml(text)
        assert g.node_count == 2
        assert g.edge_count == 1


class TestEdgeArray:
    def test_never_equal_to_another_type(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert g.__eq__(g.edge_array) is NotImplemented
        assert g != [(0, 1)]

    def test_sorted_read_only_rows(self):
        g = Graph.from_edges(4, [(3, 2), (0, 1), (2, 0)])
        assert g.edge_array.dtype == np.int64
        assert g.edge_array.tolist() == [[0, 1], [0, 2], [2, 3]]
        with pytest.raises(ValueError):
            g.edge_array[0, 0] = 1

    def test_degrees_and_adjacency_match_edge_loop(self):
        g = load_edge_list("0 1\n1 2\n2 0\n2 3\n5 4")
        deg = np.zeros(g.node_count, dtype=np.int64)
        adj = np.zeros((g.node_count, g.node_count), dtype=np.int64)
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
            adj[u, v] = adj[v, u] = 1
        assert g.degrees.tolist() == deg.tolist()
        assert np.array_equal(g.adjacency.toarray(), adj)
        with pytest.raises(ValueError):
            g.adjacency.data[0] = 2

    def test_edgeless_graph(self):
        g = Graph.from_edges(3, [])
        assert g.edge_array.shape == (0, 2)
        assert g.degrees.tolist() == [0, 0, 0]


class TestRoundTrips:
    def test_gml_round_trip_exact(self):
        g = load_edge_list("a b\nb c\nc a\nd a")
        again = load_gml(to_gml(g))
        assert again.node_count == g.node_count
        assert again.edge_array.tobytes() == g.edge_array.tobytes()
        assert again.tokens == g.tokens == ("a", "b", "c", "d")

    def test_gml_rejects_a_token_with_a_quote(self):
        # a GML string cannot carry a double quote: 'label "a"b"' would read
        # back as another graph
        g = Graph.from_edges(2, [(0, 1)], tokens=['a"b', "c"])
        with pytest.raises(ValueError, match="double quote"):
            to_gml(g)

    def test_edge_list_round_trip_token_faithful(self):
        rng = np.random.default_rng(3)
        pairs = set()
        n = 12
        for _ in range(20):
            u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
            pairs.add((int(u), int(v)))
        g = Graph.from_edges(n, pairs)
        again = load_edge_list(to_edge_list(g))
        # tokens carry the original indices; map them back before comparing
        recovered = {
            tuple(sorted((int(again.tokens[u]), int(again.tokens[v]))))
            for u, v in again.edges
        }
        assert recovered == g.edges
        assert again.node_count == g.node_count

    def test_degree_sum_is_twice_edge_count(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(5, 40))
            pairs = set()
            for _ in range(int(rng.integers(4, 60))):
                u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
                pairs.add((int(u), int(v)))
            g = Graph.from_edges(n, pairs)
            assert g.degrees.sum() == 2 * g.edge_count


class TestValidation:
    def test_rejects_bad_edge_indices(self):
        # out of range, negative, reversed, self-loop
        for row in ([0, 5], [-1, 1], [1, 0], [1, 1]):
            with pytest.raises(ValueError, match="bad edge"):
                Graph(2, np.array([row]), ("a", "b"))

    def test_rejects_unsorted_or_repeated_rows(self):
        for rows in ([[1, 2], [0, 1]], [[0, 1], [0, 1]], [[0, 2], [0, 1]]):
            with pytest.raises(ValueError, match="sorted and distinct"):
                Graph(3, np.array(rows), ("a", "b", "c"))

    def test_rejects_non_bijective_tokens(self):
        with pytest.raises(ValueError, match="one distinct"):
            Graph(2, np.empty((0, 2), dtype=np.int64), ("a", "a"))
        with pytest.raises(ValueError, match="one distinct"):
            Graph(2, np.empty((0, 2), dtype=np.int64), ("a",))
        with pytest.raises(ValueError, match="one distinct"):
            Graph.from_edges(3, [(0, 1)], tokens=["a", "b"])

    def test_rejects_pairs_that_are_not_pairs(self):
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            Graph.from_edges(3, [(0, 1, 2), (1, 2, 0)])

    def test_direct_construction_keeps_the_array_read_only(self):
        rows = np.array([[0, 1], [1, 2]], dtype=np.int64)
        g = Graph(3, rows, ["a", "b", "c"])
        assert g.edge_array is rows
        with pytest.raises(ValueError):
            rows[0, 0] = 2
        assert g.tokens == ("a", "b", "c")
        assert Graph(3, [[0, 1], [1, 2]], g.tokens) == g
        assert g == Graph.from_edges(3, [(2, 1), (1, 0)], tokens=["a", "b", "c"])


class TestFromEdges:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_reference(self, seed):
        # duplicates, reversed pairs, self-loops and isolated nodes, against
        # normalization by Python sets
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 30))
        count = int(rng.integers(0, 3 * n))
        touched = rng.integers(0, n - 3, size=(count, 2)).tolist()  # top 3 nodes isolated
        pairs = touched + touched[: count // 3] + [[v, u] for u, v in touched[: count // 4]]
        pairs += [[u, u] for u, _ in touched[: count // 5]]
        rng.shuffle(pairs)
        ref = np.array(sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}), dtype=np.int64)
        g = Graph.from_edges(n, pairs)
        assert g.edge_array.dtype == np.int64
        assert g.edge_array.tobytes() == ref.tobytes()
        assert g.edge_array.shape == (len(ref), 2)
        assert g.edges == frozenset(map(tuple, ref.tolist()))
        assert g.degrees[n - 3 :].tolist() == [0, 0, 0]
        assert g.tokens == tuple(str(i) for i in range(n))

    def test_accepts_sets_generators_and_arrays(self):
        want = [[0, 1], [1, 2]]
        for pairs in ({(1, 0), (1, 2)}, ((u, u + 1) for u in range(2)), np.array([[2, 1], [0, 1]])):
            assert Graph.from_edges(3, pairs).edge_array.tolist() == want


class TestRealNetworks:
    def test_les_miserables_counts(self, lesmis_graph):
        assert lesmis_graph.node_count == 77
        assert lesmis_graph.edge_count == 254

    def test_les_miserables_gml_round_trip(self, lesmis_graph):
        again = load_gml(to_gml(lesmis_graph))
        assert again.node_count == 77
        assert again.edge_count == 254
        assert again.edges == lesmis_graph.edges

    @pytest.mark.parametrize(
        "name,nodes,edges",
        [("football.gml", 115, 613), ("dolphins.gml", 62, 159), ("jazz.gml", 198, 2742)],
    )
    def test_dataset_counts(self, name, nodes, edges):
        path = os.path.join(DATA_REAL, name)
        if not os.path.exists(path):
            pytest.skip(f"{name} not present; see README for dataset sources")
        with open(path, "r", encoding="utf-8") as fh:
            g = load_gml(fh)
        assert g.node_count == nodes
        assert g.edge_count == edges
