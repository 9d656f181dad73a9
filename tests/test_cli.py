import json
import os

import pytest

from isofdp import Graph, GnSpec, generate_gn, to_gml
from isofdp.cli import main, _parse_values
from isofdp.reports import load_labels, save_labels
from isofdp.similarity import MEASURES

from conftest import disjoint_cliques_graph


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def gn_instance(tmp_path):
    out = tmp_path / "data"
    assert run(["generate", "gn", "--zout", 4, "--seed", 3, "--out-dir", out]) == 0
    return out / "gn_zout4_seed3.edges", out / "gn_zout4_seed3.truth"


class TestParseValues:
    def test_integer_range(self):
        assert _parse_values("1..5", integer=True) == [1, 2, 3, 4, 5]

    def test_float_range_tenth_step(self):
        assert _parse_values("0.1..0.4", integer=False) == [0.1, 0.2, 0.3, 0.4]

    def test_integral_float_range_unit_step(self):
        assert _parse_values("1..5", integer=False) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_comma_list(self):
        assert _parse_values("2,4,8", integer=True) == [2, 4, 8]


class TestGenerate:
    def test_gn_files(self, gn_instance):
        edges_path, truth_path = gn_instance
        assert os.path.exists(edges_path)
        with open(truth_path, encoding="utf-8") as fh:
            labels = load_labels(fh)
        assert len(labels) == 128
        assert set(labels.values()) == {0, 1, 2, 3}

    def test_lfr_files(self, tmp_path):
        code = run(
            ["generate", "lfr", "--mu", 0.3, "--n", 300, "--min-community", 15,
             "--max-community", 40, "--seed", 2, "--out-dir", tmp_path]
        )
        assert code == 0
        assert os.path.exists(tmp_path / "lfr_mu0.3_seed2.edges")
        assert os.path.exists(tmp_path / "lfr_mu0.3_seed2.truth")


class TestDetect:
    def test_artifacts_and_report_schema(self, gn_instance, tmp_path):
        edges_path, truth_path = gn_instance
        out = tmp_path / "out"
        code = run(
            ["detect", "--input", edges_path, "--truth", truth_path,
             "--knn", 24, "--dim", 3, "--out-dir", out]
        )
        assert code == 0
        for name in ("report.json", "sweep.csv", "decision_graph.csv", "embedding.csv"):
            assert os.path.exists(out / name)
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"config", "k_star", "communities", "sweep", "metrics", "timings_ms"}
        assert report["k_star"] == 4
        assert len(report["communities"]) == 128
        assert report["metrics"]["nmi"] == 1.0
        assert report["config"]["knn"] == 24
        # every CSV artifact has a header row
        assert (out / "sweep.csv").read_text().splitlines()[0] == "k,penalized_density"
        assert (out / "decision_graph.csv").read_text().splitlines()[0] == "token,rho,delta,gamma"
        assert (out / "embedding.csv").read_text().splitlines()[0] == "token,x1,x2,x3"

    def test_report_deterministic_apart_from_timings(self, gn_instance, tmp_path):
        edges_path, _ = gn_instance
        reports = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(["detect", "--input", edges_path, "--out-dir", out]) == 0
            payload = json.loads((out / "report.json").read_text())
            payload.pop("timings_ms")
            payload["config"].pop("out_dir")
            reports.append(json.dumps(payload, sort_keys=True))
        assert reports[0] == reports[1]

    def test_seed_flag_removed(self, gn_instance, tmp_path):
        # detection draws no random numbers, so it takes no seed
        edges_path, _ = gn_instance
        with pytest.raises(SystemExit) as exc:
            run(["detect", "--input", edges_path, "--seed", 1, "--out-dir", tmp_path / "o"])
        assert exc.value.code == 2

    def test_too_small_graph_exits_2(self, tmp_path):
        path = tmp_path / "tiny3.edges"
        path.write_text("0 1\n1 2\n")
        assert run(["detect", "--input", path, "--out-dir", tmp_path / "o"]) == 2

    def test_parse_error_exits_1(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b c\n")
        assert run(["detect", "--input", path, "--out-dir", tmp_path / "o"]) == 1

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["detect", "--input", tmp_path / "nope.edges"]) == 2

    def test_deeply_nested_gml_block_loads(self, tmp_path):
        depth = 10_000
        text = to_gml(generate_gn(GnSpec(z_out=2, seed=0)).graph)
        nested = "meta [ " * depth + "x 1 " + "] " * depth
        path = tmp_path / "deep.gml"
        path.write_text(text.replace("graph [", "graph [ " + nested, 1))
        assert run(["detect", "--input", path, "--out-dir", tmp_path / "o"]) == 0

    @pytest.mark.parametrize(
        "line, message",
        [("1\t0\textra", "line 2: expected"), ("1\tzero", "line 2: community 'zero'")],
    )
    def test_malformed_truth_exits_1(self, gn_instance, tmp_path, capsys, line, message):
        edges_path, _ = gn_instance
        truth = tmp_path / "bad.truth"
        truth.write_text(f"0\t0\n{line}\n")
        code = run(["detect", "--input", edges_path, "--truth", truth, "--out-dir", tmp_path / "o"])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_truth_missing_nodes_exits_2(self, gn_instance, tmp_path):
        edges_path, _ = gn_instance
        truth = tmp_path / "short.truth"
        save_labels(truth, ["0", "1"], [0, 0])
        code = run(["detect", "--input", edges_path, "--truth", truth, "--out-dir", tmp_path / "o"])
        assert code == 2


SHAPES = {
    "clique6": disjoint_cliques_graph([6])[0],
    "star7": Graph.from_edges(7, [(0, i) for i in range(1, 7)]),
    "path8": Graph.from_edges(8, [(i, i + 1) for i in range(7)]),
    "k33": Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "two_k5_isolated": Graph.from_edges(11, disjoint_cliques_graph([5, 5])[0].edges),
    "edgeless5": Graph.from_edges(5, []),
}


class TestDegenerateShapes:
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_detect_exits_0_or_2(self, tmp_path, shape, measure):
        path = tmp_path / f"{shape}.gml"
        path.write_text(to_gml(SHAPES[shape]))
        code = run(["detect", "--input", path, "--measure", measure, "--out-dir", tmp_path / "o"])
        assert code in ((2,) if shape == "edgeless5" else (0, 2))
        assert (code == 0) == os.path.exists(tmp_path / "o" / "report.json")


class TestEval:
    def test_perfect_agreement(self, gn_instance, capsys):
        _, truth_path = gn_instance
        assert run(["eval", "--truth", truth_path, "--pred", truth_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"nmi": 1.0, "acc": 1.0}

    def test_worked_example(self, tmp_path, capsys):
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        save_labels(truth, ["a", "b", "c", "d"], [1, 1, 2, 2])
        save_labels(pred, ["a", "b", "c", "d"], [1, 1, 1, 2])
        assert run(["eval", "--truth", truth, "--pred", pred]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["nmi"] == pytest.approx(0.3456, abs=1e-3)
        assert out["acc"] == 0.75

    def test_token_mismatch_exits_2(self, tmp_path):
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        save_labels(truth, ["a", "b"], [0, 1])
        save_labels(pred, ["a", "x"], [0, 1])
        assert run(["eval", "--truth", truth, "--pred", pred]) == 2

    @pytest.mark.parametrize(
        "line, message",
        [("b 1 2", "line 2: expected"), ("b 1.5", "line 2: community '1.5'")],
    )
    def test_malformed_label_file_exits_1(self, tmp_path, capsys, line, message):
        good = tmp_path / "good.txt"
        bad = tmp_path / "bad.txt"
        save_labels(good, ["a", "b"], [0, 1])
        bad.write_text(f"a 0\n{line}\n")
        assert run(["eval", "--truth", bad, "--pred", good]) == 1
        assert message in capsys.readouterr().err
        assert run(["eval", "--truth", good, "--pred", bad]) == 1


class TestBenchmark:
    def test_rows_and_summary(self, tmp_path):
        out = tmp_path / "bench"
        code = run(
            ["benchmark", "--suite", "gn", "--zout", 3, "--trials", 2,
             "--methods", "isofdp,kmeans_iso", "--seed", 5, "--out-dir", out]
        )
        assert code == 0
        lines = (out / "benchmark_gn.csv").read_text().splitlines()
        assert lines[0] == "param,trial,method,nmi,acc,k_detected"
        assert len(lines) == 1 + 2 * 2  # two trials x two methods

    def test_byte_identical_reruns(self, tmp_path):
        args = ["benchmark", "--suite", "gn", "--zout", 2, "--trials", 2,
                "--methods", "isofdp", "--seed", 9]
        assert run(args + ["--out-dir", tmp_path / "r1"]) == 0
        assert run(args + ["--out-dir", tmp_path / "r2"]) == 0
        a = (tmp_path / "r1" / "benchmark_gn.csv").read_bytes()
        b = (tmp_path / "r2" / "benchmark_gn.csv").read_bytes()
        assert a == b

    def test_dc_sweep_mode(self, tmp_path):
        out = tmp_path / "sweep"
        code = run(
            ["benchmark", "--suite", "gn", "--zout", 6, "--trials", 1,
             "--dc-sweep", "1..3", "--seed", 1, "--out-dir", out]
        )
        assert code == 0
        lines = (out / "benchmark_gn.csv").read_text().splitlines()
        methods = {line.split(",")[2] for line in lines[1:]}
        assert methods == {"isofdp[dc=1]", "isofdp[dc=2]", "isofdp[dc=3]"}


class TestEmbed:
    def test_embedding_file(self, gn_instance, tmp_path):
        edges_path, _ = gn_instance
        out = tmp_path / "emb"
        assert run(["embed", "--input", edges_path, "--dim", 3, "--out-dir", out]) == 0
        lines = (out / "embedding.csv").read_text().splitlines()
        assert lines[0] == "token,x1,x2,x3"
        assert len(lines) == 129

    def test_dim_sweep(self, gn_instance, tmp_path):
        edges_path, _ = gn_instance
        out = tmp_path / "sweep"
        assert run(["embed", "--input", edges_path, "--dim-sweep", 5, "--out-dir", out]) == 0
        lines = (out / "embedding_sweep.csv").read_text().splitlines()
        assert lines[0] == "dim,residual_variance"
        assert len(lines) == 6
        residuals = [float(line.split(",")[1]) for line in lines[1:]]
        assert residuals == sorted(residuals, reverse=True)
