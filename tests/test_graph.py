import os

import numpy as np
import pytest

from isofdp import (
    Graph,
    GraphParseError,
    connected_components,
    from_json,
    load_edge_list,
    load_gml,
    to_edge_list,
    to_gml,
    to_json,
)

DATA_REAL = os.path.join(os.path.dirname(__file__), "..", "data", "real")


def component_oracle(n, edges):
    """Label propagation to a fixed point; independent of the BFS in the library."""
    labels = list(range(n))
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            m = min(labels[u], labels[v])
            if labels[u] != m or labels[v] != m:
                labels[u] = labels[v] = m
                changed = True
    canonical = {}
    return np.array([canonical.setdefault(lab, len(canonical)) for lab in labels])


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
        assert g.id_map == {"x": 0, "y": 1, "z": 2}

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
        assert g.id_map == {"alpha": 0, "beta": 1}

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

    def test_deeply_nested_block_is_ignored(self):
        depth = 10_000
        nested = "meta [ " * depth + "x 1 " + "] " * depth
        text = f"graph [ node [ id 1 ] node [ id 2 ] {nested} edge [ source 1 target 2 ] ]"
        g = load_gml(text)
        assert g.node_count == 2
        assert g.edge_count == 1


class TestEdgeArray:
    def test_sorted_read_only_rows(self):
        g = Graph.from_edges(4, [(3, 2), (0, 1), (2, 0)])
        assert g.edge_array.dtype == np.int64
        assert g.edge_array.tolist() == [[0, 1], [0, 2], [2, 3]]
        with pytest.raises(ValueError):
            g.edge_array[0, 0] = 1

    def test_degrees_and_adjacency_match_edge_loop(self):
        g = load_edge_list("0 1\n1 2\n2 0\n2 3\n5 4")
        deg = np.zeros(g.node_count, dtype=np.int64)
        adj = np.zeros((g.node_count, g.node_count))
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
            adj[u, v] = adj[v, u] = 1.0
        assert g.degrees.tolist() == deg.tolist()
        assert np.array_equal(g.adjacency_matrix(), adj)

    def test_edgeless_graph(self):
        g = Graph.from_edges(3, [])
        assert g.edge_array.shape == (0, 2)
        assert g.degrees.tolist() == [0, 0, 0]
        assert connected_components(g).tolist() == [0, 1, 2]


class TestConnectedComponents:
    def test_path(self):
        g = load_edge_list("0 1\n1 2")
        assert connected_components(g).tolist() == [0, 0, 0]

    def test_two_disjoint_edges(self):
        g = load_edge_list("0 1\n2 3")
        assert connected_components(g).tolist() == [0, 0, 1, 1]

    def test_matches_label_propagation_oracle(self):
        rng = np.random.default_rng(7)
        n = 50
        pairs = set()
        for _ in range(55):
            u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
            pairs.add((int(u), int(v)))
        g = Graph.from_edges(n, pairs)
        expected = component_oracle(n, sorted(pairs))
        assert connected_components(g).tolist() == expected.tolist()


class TestRoundTrips:
    def test_gml_round_trip_exact(self):
        g = load_edge_list("a b\nb c\nc a\nd a")
        again = load_gml(to_gml(g))
        assert again.node_count == g.node_count
        assert again.edges == g.edges
        assert again.id_map == g.id_map

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

    def test_json_round_trip_exact(self):
        g = load_edge_list("a b\nb c\nd c")
        again = from_json(to_json(g))
        assert again == g

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
        with pytest.raises(ValueError):
            Graph(2, frozenset({(0, 5)}), {"a": 0, "b": 1})

    def test_rejects_non_bijective_id_map(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset(), {"a": 0, "b": 0})


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
