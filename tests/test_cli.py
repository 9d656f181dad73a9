import csv
import dataclasses
import functools
import inspect
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from isofdp import (
    Graph,
    GnSpec,
    GraphParseError,
    LfrSpec,
    accuracy,
    dbscan_parameter_search,
    detect_communities,
    generate_gn,
    generate_lfr,
    load_gml,
    nmi,
    select_dc,
    to_edge_list,
    to_gml,
)
from isofdp import cli
from isofdp.cli import SUITE_PRESETS, _STREAM_GENERATOR, build_parser, main, _parse_values, subseed
from isofdp.isomap import classical_mds, geodesic_distances
from isofdp.reports import embedding_header, embedding_rows, load_labels, save_labels

from conftest import REFERENCE_GRAPHS, child_env, disjoint_cliques_graph


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

    @pytest.mark.parametrize("integer", [True, False])
    def test_reversed_range_rejected(self, integer):
        with pytest.raises(ValueError, match="empty range"):
            _parse_values("5..1", integer=integer)

    @pytest.mark.parametrize("integer", [True, False])
    @pytest.mark.parametrize("text", ["1..inf", "inf..inf", "-inf..1", "0.1..nan", "nan..1", "1..nan"])
    def test_non_finite_end_rejected(self, text, integer):
        with pytest.raises(ValueError, match=f"range {re.escape(repr(text))} is not finite"):
            _parse_values(text, integer=integer)

    def test_float_ranges_match_the_stepping_loop(self):
        # each value is lo + i * step, rounded: the same floats as adding the
        # step over and over, on ends on and off the tenth grid
        ends = [i / 10 for i in range(81)] + [0.15, 0.333, 1.05, 2.5, 7.25]
        for lo in ends:
            for hi in ends:
                if lo <= hi:
                    text = f"{lo!r}..{hi!r}"
                    assert _parse_values(text, integer=False) == _stepped_range(lo, hi), text

    def test_step_below_the_spacing_of_the_ends(self):
        # 1e17 + 1.0 == 1e17, so a stepping loop never passed the upper end
        assert _capped_child("print(_parse_values('1e17..1e17', integer=False))", 10) == (
            0, "[1e+17]\n", ""
        )


def _stepped_range(lo, hi):
    """The float range as a loop that adds the step until it passes the upper end."""
    step = 1.0 if lo.is_integer() and hi.is_integer() else 0.1
    out, v = [], lo
    while v <= hi + 1e-9:
        out.append(round(v, 10))
        v += step
    return out


def _capped_child(code, seconds):
    """(exit code, stdout, stderr) of ``code`` run after importing ``_parse_values`` and ``main``.

    The child runs with one BLAS thread and 1 GiB of address space, under a
    timeout, so a loop that never ends fails the test in seconds, by a
    ``MemoryError`` or the timeout, rather than hanging it or filling memory.
    """
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from isofdp.cli import _parse_values, main\n" + code
    )
    env = dict(child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=seconds
    )
    return done.returncode, done.stdout, done.stderr


DETECT = inspect.signature(detect_communities).parameters
SPEC_DEFAULTS = {
    spec: {
        f.name: f.default for f in dataclasses.fields(spec) if f.default is not dataclasses.MISSING
    }
    for spec in (GnSpec, LfrSpec)
}


class TestDefaults:
    """Each CLI default is the default of the call the flag feeds."""

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["detect", "--input", "g.edges"], ["knn", "dim", "dc_percentile"]),
            (["embed", "--input", "g.edges"], ["knn", "dim"]),
            (["benchmark", "--suite", "gn"], ["dc_percentile"]),
        ],
    )
    def test_detection_flags(self, argv, names):
        args = build_parser().parse_args(argv)
        for name in names:
            assert getattr(args, name) == DETECT[name].default, name

    def test_detection_percentile_is_select_dc_default(self):
        want = inspect.signature(select_dc).parameters["percentile"].default
        assert DETECT["dc_percentile"].default == want

    def test_generate_gn(self):
        args = build_parser().parse_args(["generate", "gn", "--zout", "4"])
        assert set(SPEC_DEFAULTS[GnSpec]) == {"seed"}
        assert args.seed == SPEC_DEFAULTS[GnSpec]["seed"]

    def test_generate_lfr(self):
        args = build_parser().parse_args(["generate", "lfr", "--mu", "0.3"])
        for name, default in SPEC_DEFAULTS[LfrSpec].items():
            assert getattr(args, name) == default, name
            assert type(getattr(args, name)) is type(default), name

    def test_benchmark_lfr_flags(self):
        args = build_parser().parse_args(["benchmark", "--suite", "lfr"])
        # no --lfr-t1/--lfr-t2 flags, and a trial's generator seed derives from --seed
        for name, default in SPEC_DEFAULTS[LfrSpec].items():
            if name not in ("seed", "t1", "t2"):
                assert getattr(args, f"lfr_{name}") == default, name


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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--min-community", 0, "min_community must be at least 1"),
            ("--avg-degree", 0, "avg_degree must be at least 1"),
        ],
    )
    def test_degree_or_size_below_one_exits_2(self, tmp_path, capsys, flag, value, message):
        # every node has a degree and a community of at least 1, so such a
        # spec is infeasible: refused up front, before any draw can warn
        out = tmp_path / "data"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["generate", "lfr", "--mu", 0.3, flag, value, "--out-dir", out])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", 100, "--max-degree", 100], "max_degree cannot exceed n - 1"),
            (["--avg-degree", "nan"], "avg_degree must be finite"),
            (["--t1", "inf"], "t1 must be finite"),
            (["--t1", "nan"], "t1 must be finite"),
            (["--t2", "nan"], "t2 must be finite"),
            (["--t1", -200], "t1 = -200.0 makes the power-law weights overflow or vanish"),
            (["--t2", -200], "t2 = -200.0 makes the power-law weights overflow or vanish"),
        ],
    )
    def test_impossible_spec_exits_2(self, tmp_path, capsys, flags, message):
        # refused by the spec, before the generator draws or warns
        out = tmp_path / "data"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["generate", "lfr", "--mu", 0.3, *flags, "--out-dir", out])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("family", [["gn", "--zout", 4], ["lfr", "--mu", 0.3]])
    def test_negative_seed_exits_2(self, tmp_path, capsys, family):
        out = tmp_path / "data"
        assert run(["generate", *family, "--seed", -1, "--out-dir", out]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not os.path.exists(out)

    def test_negative_t2_with_finite_weights_generates(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["generate", "lfr", "--mu", 0.3, "--t2", -5, "--out-dir", tmp_path])
        assert code == 0
        assert capsys.readouterr().out.startswith("1000 nodes, 9966 edges, 21 communities -> ")


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
        assert set(report) == {
            "config", "k_star", "communities", "sweep", "metrics", "embedding", "timings_ms"
        }
        # every node of the GN graph is a landmark
        assert report["embedding"] == {"landmarks": 128, "dim": 3, "truncated": False}
        assert report["k_star"] == 4
        assert len(report["communities"]) == 128
        assert report["metrics"]["nmi"] == 1.0
        assert report["config"]["knn"] == 24
        assert report["config"]["format"] == "edges"
        # one timing per stage call, under the benchmark's layer names
        assert set(report["timings_ms"]) == {
            "pipeline.prepared_distances",
            "isomap.build_neighbor_graph",
            "isomap.geodesic_distances",
            "isomap.classical_mds",
            "density_peaks.select_dc",
            "density_peaks.compute_profile",
            "partition.select_k",
        }
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

    def test_report_records_the_swept_kmax(self, gn_instance, tmp_path):
        # the sweep stops at n = 128 whatever --kmax asks for
        edges_path, _ = gn_instance
        out = tmp_path / "out"
        assert run(["detect", "--input", edges_path, "--kmax", 500, "--out-dir", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["kmax"] == 128
        assert report["sweep"][-1][0] == 128

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"knn": 0}, "knn must be >= 1, got 0"),
            ({"dim": 0}, "dim must be >= 1, got 0"),
            ({"dc_percentile": 0.0}, "percentile must be in (0, 100], got 0.0"),
            ({"dc_percentile": 100.5}, "percentile must be in (0, 100], got 100.5"),
            ({"dc_percentile": float("nan")}, "percentile must be in (0, 100], got nan"),
            ({"k_max": 1}, "k_max must be >= 2, got 1"),
        ],
    )
    def test_settings_checked_before_the_distances(self, monkeypatch, setting, message):
        def no_distances(g):
            raise AssertionError("the distances were computed before every setting was checked")

        monkeypatch.setattr(sys.modules["isofdp.pipeline"], "prepared_distances", no_distances)
        with pytest.raises(ValueError) as err:
            detect_communities(REFERENCE_GRAPHS["gn"], **setting)
        assert str(err.value) == message

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("graph [ node [ id 0 ] label", "dangling key 'label'"),
            ('graph [ node [ label "a" ] ]', "node record without an id"),
            ("graph [ node [ id 0 ] node [ id 0 ] ]", "duplicate node id 0"),
            ('graph [ node [ id 0 label "a" ] node [ id 1 label "a" ] ]', "duplicate node token 'a'"),
            ("graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 ] ]", "edge record without"),
            ("graph [ node [ id 0 label ] node [ id 1 ] ]", "key 'label' has no value"),
            ("graph [ node [ id 0 id 7 ] node [ id 1 ] ]", "node record repeats key 'id'"),
            (
                "graph [ node [ id 0 ] node [ id 1 ] node [ id 2 ] edge [ source 0 target 1 target 2 ] ]",
                "edge record repeats key 'target'",
            ),
            (
                "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 ]",
                "input ends inside a block",
            ),
        ],
    )
    def test_malformed_gml_exits_1(self, tmp_path, capsys, text, message):
        with pytest.raises(GraphParseError, match=re.escape(message)):
            load_gml(text)
        path = tmp_path / "bad.gml"
        path.write_text(text)
        assert run(["detect", "--input", path, "--out-dir", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_numerical_failure_exits_3(self, gn_instance, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, yet it is a numerical failure, not an
        # infeasible configuration
        def fail(*args):
            raise np.linalg.LinAlgError("eigh did not converge")

        monkeypatch.setattr(sys.modules["isofdp.pipeline"], "classical_mds", fail)
        edges_path, _ = gn_instance
        assert run(["detect", "--input", edges_path, "--out-dir", tmp_path / "o"]) == 3
        assert capsys.readouterr().err.startswith("error: numerical failure")

    def test_non_finite_coordinates_exit_3(self, gn_instance, tmp_path, monkeypatch, capsys):
        # a NaN from the embedding is a numerical failure, not an infeasible input
        def nan_mds(*args):
            embedding = classical_mds(*args)
            embedding.coordinates[0, 0] = np.nan
            return embedding

        monkeypatch.setattr(sys.modules["isofdp.pipeline"], "classical_mds", nan_mds)
        edges_path, _ = gn_instance
        assert run(["detect", "--input", edges_path, "--out-dir", tmp_path / "o"]) == 3
        assert capsys.readouterr().err.startswith("error: numerical failure")

    @pytest.mark.parametrize("command", ["detect", "embed"])
    def test_measure_flag_removed(self, gn_instance, tmp_path, capsys, command):
        # structure similarity is the only measure, so there is nothing to choose
        edges_path, _ = gn_instance
        with pytest.raises(SystemExit) as exc:
            run([command, "--input", edges_path, "--measure", "structure", "--out-dir", tmp_path / "o"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --measure" in capsys.readouterr().err

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

    def test_repeated_truth_token_exits_1(self, gn_instance, tmp_path, capsys):
        # the last line for a token used to win, and nmi was reported against it
        edges_path, truth_path = gn_instance
        lines = truth_path.read_text().splitlines()
        token, community = lines[0].split("\t")
        truth = tmp_path / "twice.truth"
        truth.write_text("\n".join([*lines, f"{token}\t{int(community) + 1}"]) + "\n")
        code = run(["detect", "--input", edges_path, "--truth", truth, "--out-dir", tmp_path / "o"])
        assert code == 1
        assert f"line {len(lines) + 1}: token {token!r} repeats line 1" in capsys.readouterr().err

    def test_truth_missing_nodes_exits_2(self, gn_instance, tmp_path):
        edges_path, _ = gn_instance
        truth = tmp_path / "short.truth"
        save_labels(truth, ["0", "1"], [0, 0])
        code = run(["detect", "--input", edges_path, "--truth", truth, "--out-dir", tmp_path / "o"])
        assert code == 2


class TestNotUtf8:
    """An input file that is not UTF-8 text is an input parse error: exit 1, one line.

    ``UnicodeDecodeError`` subclasses ``ValueError``, which exits 2.
    """

    @staticmethod
    def assert_exits_1(argv, files, which, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"\xff\xfe" + files[which].read_bytes())
        files = {**files, which: bad}
        assert run([*argv, *[a for item in files.items() for a in item]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "UTF-8" in err and "Traceback" not in err

    @pytest.mark.parametrize("which", ["--input", "--truth"])
    def test_detect(self, gn_instance, tmp_path, capsys, which):
        edges_path, truth_path = gn_instance
        files = {"--input": edges_path, "--truth": truth_path}
        out = tmp_path / "o"
        self.assert_exits_1(["detect", "--out-dir", out], files, which, tmp_path, capsys)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("which", ["--truth", "--pred"])
    def test_eval(self, gn_instance, tmp_path, capsys, which):
        _, truth_path = gn_instance
        files = {"--truth": truth_path, "--pred": truth_path}
        self.assert_exits_1(["eval"], files, which, tmp_path, capsys)


class TestFileSystemErrors:
    """A path the file system refuses is an infeasible configuration: exit 2, one line."""

    @staticmethod
    def assert_exits_2(argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_directory_as_detect_input(self, tmp_path, capsys):
        out = tmp_path / "o"
        self.assert_exits_2(["detect", "--input", tmp_path, "--out-dir", out], capsys)
        assert not os.path.exists(out)

    def test_directory_as_truth(self, gn_instance, tmp_path, capsys):
        edges_path, _ = gn_instance
        out = tmp_path / "o"
        self.assert_exits_2(["detect", "--input", edges_path, "--truth", tmp_path, "--out-dir", out], capsys)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("which", ["--truth", "--pred"])
    def test_directory_as_eval_file(self, gn_instance, tmp_path, capsys, which):
        _, truth_path = gn_instance
        files = {"--truth": truth_path, "--pred": truth_path, which: tmp_path}
        self.assert_exits_2(["eval", *[a for item in files.items() for a in item]], capsys)

    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("command", ["detect", "embed"])
    def test_out_dir_that_is_a_file(self, gn_instance, tmp_path, capsys, command, below):
        # the file itself (FileExistsError), or a directory under it (NotADirectoryError)
        edges_path, _ = gn_instance
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if below else taken
        self.assert_exits_2([command, "--input", edges_path, "--out-dir", out], capsys)
        assert taken.read_text() == ""


SHAPES = {
    "bridged_k5": Graph.from_edges(10, [*disjoint_cliques_graph([5, 5])[0].edges, (4, 5)]),
    "clique6": disjoint_cliques_graph([6])[0],
    # 1 and 2, and 4 and 5, are structurally equivalent: their adjacency rows are equal
    "diamonds": Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)]),
    "star7": Graph.from_edges(7, [(0, i) for i in range(1, 7)]),
    "path8": Graph.from_edges(8, [(i, i + 1) for i in range(7)]),
    "k33": Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "two_k5_isolated": Graph.from_edges(11, disjoint_cliques_graph([5, 5])[0].edges),
    "edgeless5": Graph.from_edges(5, []),
    # every distance finite
    "wheel8": REFERENCE_GRAPHS["wheel"],
    "friendship7": REFERENCE_GRAPHS["friendship"],
    "petersen": REFERENCE_GRAPHS["petersen"],
    "k2_6": REFERENCE_GRAPHS["k2_6"],
    # inf beyond two hops: regular, lattice, tree and clique-on-path shapes
    "cycle9": REFERENCE_GRAPHS["cycle9"],
    "cube3": REFERENCE_GRAPHS["cube3"],
    "grid3x4": REFERENCE_GRAPHS["grid3x4"],
    "binary_tree15": REFERENCE_GRAPHS["binary_tree15"],
    "barbell": REFERENCE_GRAPHS["barbell"],
    "lollipop": REFERENCE_GRAPHS["lollipop"],
    # only pairs share a neighbor: every group is bridged
    "matching": REFERENCE_GRAPHS["matching"],
}


class TestDegenerateShapes:
    def detect(self, tmp_path, shape):
        path = tmp_path / f"{shape}.gml"
        path.write_text(to_gml(SHAPES[shape]))
        code = run(["detect", "--input", path, "--out-dir", tmp_path / "o"])
        assert code in ((2,) if shape == "edgeless5" else (0, 2))
        assert (code == 0) == os.path.exists(tmp_path / "o" / "report.json")

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_detect_exits_0_or_2(self, tmp_path, shape):
        self.detect(tmp_path, shape)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_detect_from_five_landmarks_exits_0_or_2(self, tmp_path, monkeypatch, shape):
        # every shape has 5 to 15 nodes, so by default every node is a landmark
        five = functools.partial(geodesic_distances, landmarks=5)
        monkeypatch.setattr(sys.modules["isofdp.pipeline"], "geodesic_distances", five)
        self.detect(tmp_path, shape)


def degenerate_shape(shape, n):
    """A star, a clique, or one edge or one triangle followed by isolated nodes, on ``n`` nodes."""
    edges = {
        "star": [(0, i) for i in range(1, n)],
        "clique": [(i, j) for i in range(n) for j in range(i + 1, n)],
        "edge": [(0, 1)],
        "triangle": [(0, 1), (1, 2), (0, 2)],
    }[shape]
    return Graph.from_edges(n, edges)


class TestDegenerateShapesAcrossDims:
    # the landmark blocks of these shapes repeat their top eigenvalue; sizes
    # either side of LANDMARKS (128) take every node as a landmark, or as
    # many as the covering radius needs (120 for the star, 128 for the rest)
    @pytest.mark.parametrize("n", [8, 20, 29, 41, 128, 130])
    @pytest.mark.parametrize("shape", ["clique", "edge", "star", "triangle"])
    def test_detect_returns_or_exits_0_or_2(self, tmp_path, capsys, shape, n):
        g = degenerate_shape(shape, n)
        path = tmp_path / f"{shape}{n}.gml"
        path.write_text(to_gml(g))
        for dim in (1, 2, 3):
            try:
                detect_communities(g, dim=dim)
            except (ValueError, ArithmeticError):
                pass
            out = tmp_path / f"dim{dim}"
            code = run(["detect", "--input", path, "--dim", dim, "--out-dir", out])
            assert code in (0, 2)
            assert (code == 0) == os.path.exists(out / "report.json")
            assert "Traceback" not in capsys.readouterr().err


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

    def test_repeated_token_exits_1(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        twice = tmp_path / "twice.txt"
        save_labels(good, ["a", "b"], [0, 1])
        twice.write_text("a 0\nb 1\na 1\n")
        for files in ([twice, good], [good, twice]):
            assert run(["eval", "--truth", files[0], "--pred", files[1]]) == 1
            assert "line 3: token 'a' repeats line 1" in capsys.readouterr().err

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

    def test_dbscan_row_is_the_grid_search_on_the_same_embedding(self, tmp_path):
        out = tmp_path / "bench"
        argv = ["benchmark", "--suite", "gn", "--zout", 4, "--trials", 1, "--methods", "dbscan_iso"]
        assert run(argv + ["--out-dir", out]) == 0
        with open(out / "benchmark_gn.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        labeled = generate_gn(GnSpec(z_out=4, seed=subseed(0, "gn", 4, 0, _STREAM_GENERATOR)))
        res = detect_communities(labeled.graph, **SUITE_PRESETS["gn"])
        part, _, score, acc = dbscan_parameter_search(res.embedding, labeled.truth)
        assert rows == [["4", "0", "dbscan_iso", repr(score), repr(acc), str(part.k)]]

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

    @staticmethod
    def count_calls(monkeypatch, name):
        """Counts the calls of the stage ``name`` that ``isofdp.pipeline`` makes."""
        pipeline = sys.modules["isofdp.pipeline"]
        stage, calls = getattr(pipeline, name), []

        def counting(*args, **kwargs):
            calls.append(name)
            return stage(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counting)
        return calls

    def test_dc_sweep_embeds_each_graph_once(self, tmp_path, monkeypatch):
        distances = self.count_calls(monkeypatch, "prepared_distances")
        cutoffs = self.count_calls(monkeypatch, "select_dc")
        argv = ["benchmark", "--suite", "gn", "--zout", "5,6", "--trials", 2, "--dc-sweep", "1..3"]
        assert run(argv + ["--out-dir", tmp_path / "sweep"]) == 0
        assert (len(distances), len(cutoffs)) == (2 * 2, 2 * 2 * 3)

    def test_dc_sweep_rows_are_detect_communities_at_each_percentile(self, tmp_path):
        out = tmp_path / "sweep"
        argv = ["benchmark", "--suite", "gn", "--zout", 6, "--trials", 1, "--dc-sweep", "1..3"]
        assert run(argv + ["--out-dir", out]) == 0
        with open(out / "benchmark_gn.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        labeled = generate_gn(GnSpec(z_out=6, seed=subseed(0, "gn", 6, 0, _STREAM_GENERATOR)))
        expected = []
        for pct in (1.0, 2.0, 3.0):
            res = detect_communities(labeled.graph, **SUITE_PRESETS["gn"], dc_percentile=pct)
            labels = res.partition.labels
            expected.append(
                ["6", "0", f"isofdp[dc={pct:g}]", repr(nmi(labeled.truth, labels)),
                 repr(accuracy(labeled.truth, labels)), str(res.k_star)]
            )
        assert rows == expected

    def test_kmeans_alone_runs_no_density_stage(self, tmp_path, monkeypatch):
        def no_cutoff(*args):
            raise AssertionError("kmeans_iso ran select_dc")

        monkeypatch.setattr(sys.modules["isofdp.pipeline"], "select_dc", no_cutoff)
        argv = ["benchmark", "--suite", "gn", "--zout", 4, "--trials", 2, "--methods", "kmeans_iso"]
        assert run(argv + ["--out-dir", tmp_path / "km"]) == 0
        assert len((tmp_path / "km" / "benchmark_gn.csv").read_text().splitlines()) == 1 + 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--methods", "bogus"], "--methods"),
            (["--methods", "isofdp,kmeans"], "--methods"),
            (["--methods", ","], "--methods"),
            (["--zout", "5..1"], "empty range"),
            (["--trials", 0], "--trials"),
            (["--trials", -2], "--trials"),
        ],
    )
    def test_malformed_options_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "bench"
        argv = ["benchmark", "--suite", "gn", "--zout", 3, "--trials", 1, "--out-dir", out]
        assert run(argv + flags) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_reversed_mu_range_exits_2(self, tmp_path):
        out = tmp_path / "bench"
        assert run(["benchmark", "--suite", "lfr", "--mu", "0.5..0.1", "--out-dir", out]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flags, text",
        [
            (["--suite", "lfr", "--mu", "1..inf"], "1..inf"),
            (["--suite", "lfr", "--mu", "inf..inf"], "inf..inf"),
            (["--suite", "lfr", "--mu", "0.1..nan"], "0.1..nan"),
            (["--suite", "gn", "--zout", "1..inf"], "1..inf"),
            (["--suite", "gn", "--zout", 3, "--dc-sweep", "1..nan"], "1..nan"),
        ],
    )
    def test_non_finite_range_end_exits_2(self, tmp_path, capsys, flags, text):
        out = tmp_path / "bench"
        assert run(["benchmark", *flags, "--trials", 1, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: range {text!r} is not finite\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("text", ["0.1..inf", "-1e308..1e308"])
    def test_unending_range_exits_2(self, tmp_path, text):
        # a stepping loop never reached the upper end: 0.1 steps toward inf,
        # and steps of 1 that leave -1e308 where it is
        out = tmp_path / "bench"
        argv = ["benchmark", "--suite", "lfr", f"--mu={text}", "--trials", "1", "--out-dir", str(out)]
        code, stdout, stderr = _capped_child(f"sys.exit(main({argv!r}))", 10)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: range {text!r} is not finite\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--suite", "gn", "--zout", "0..1000000000"], "z_out must be in 0..16, got 1000000000"),
            (
                ["--suite", "gn", "--zout", "6", "--dc-sweep", "1..1000000000"],
                "percentile must be in (0, 100], got 1000000000.0",
            ),
            (["--suite", "lfr", "--mu", "0.5..1e9"], "mu must lie strictly between 0 and 1"),
        ],
    )
    def test_range_end_outside_the_domain_exits_2(self, tmp_path, flags, message):
        # both ends are checked before the range is built: its 10^9 values
        # would not fit in the child's 1 GiB
        out = tmp_path / "bench"
        argv = ["benchmark", *flags, "--trials", "1", "--out-dir", str(out)]
        code, stdout, stderr = _capped_child(f"sys.exit(main({argv!r}))", 10)
        assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--suite", "gn", "--zout", "3,17"], "z_out must be in 0..16, got 17"),
            (["--suite", "gn", "--zout=-1..3"], "z_out must be in 0..16, got -1"),
            (["--suite", "lfr", "--mu", "0.3,1"], "mu must lie strictly between 0 and 1"),
            (
                ["--suite", "lfr", "--mu", "0.3", "--lfr-max-degree", 5000],
                "max_degree cannot exceed n - 1",
            ),
            (
                ["--suite", "gn", "--zout", "3", "--dc-sweep", "2,0"],
                "percentile must be in (0, 100], got 0.0",
            ),
            # detect_communities' own settings, checked by it again per graph
            (
                ["--suite", "lfr", "--mu", "0.3", "--dc-percentile", 0],
                "percentile must be in (0, 100], got 0.0",
            ),
            (["--suite", "lfr", "--mu", "0.3", "--knn", 0], "knn must be >= 1, got 0"),
            (["--suite", "lfr", "--mu", "0.3", "--dim", 0], "dim must be >= 1, got 0"),
            (["--suite", "lfr", "--mu", "0.3", "--kmax", 1], "k_max must be >= 2, got 1"),
            (["--suite", "gn", "--zout", "3", "--seed", -5], "--seed must be >= 0, got -5"),
            (["--suite", "lfr", "--mu", "0.3", "--seed", -1], "--seed must be >= 0, got -1"),
        ],
    )
    def test_every_value_checked_before_the_first_graph(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        def no_graph(spec):
            raise AssertionError("a graph was generated before every value was checked")

        monkeypatch.setattr(cli, "generate_gn", no_graph)
        monkeypatch.setattr(cli, "generate_lfr", no_graph)
        out = tmp_path / "bench"
        assert run(["benchmark", *flags, "--trials", 1, "--out-dir", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(out)


UNEMBEDDABLE = {
    "edgeless6": Graph.from_edges(6, []),
    "path3": Graph.from_edges(3, [(0, 1), (1, 2)]),
}


class TestEmbed:
    @pytest.mark.parametrize("shape", sorted(UNEMBEDDABLE))
    def test_unembeddable_graph_exits_2(self, tmp_path, shape):
        # detect and embed share one check: both reject what one rejects
        path = tmp_path / f"{shape}.gml"
        path.write_text(to_gml(UNEMBEDDABLE[shape]))
        for command in ("detect", "embed"):
            out = tmp_path / command
            code = run([command, "--input", path, "--out-dir", out])
            assert code == 2
            assert not os.path.exists(out)

    def test_embedding_file(self, gn_instance, tmp_path):
        edges_path, _ = gn_instance
        out = tmp_path / "emb"
        assert run(["embed", "--input", edges_path, "--dim", 3, "--out-dir", out]) == 0
        lines = (out / "embedding.csv").read_text().splitlines()
        assert lines[0] == "token,x1,x2,x3"
        assert len(lines) == 129

    @pytest.mark.parametrize("dim", [1, 3, 16])
    def test_header_width_is_the_row_width(self, dim):
        coordinates = np.arange(2.0 * dim).reshape(2, dim)
        rows = list(embedding_rows(["a", "b"], coordinates))
        assert [len(row) for row in rows] == [len(embedding_header(dim))] * 2

    @pytest.mark.parametrize(
        "family, knn, dim, landmarks",
        [
            ("gn", 12, 4, 128),  # every node a landmark: the all-pairs geodesics
            ("lfr", 10, 16, 32),  # n=1000: the landmark rows
        ],
    )
    def test_detect_writes_the_same_embedding(self, gn_instance, tmp_path, family, knn, dim, landmarks):
        # both run pipeline.embed_graph
        edges_path, _ = gn_instance
        if family == "lfr":
            edges_path = tmp_path / "lfr.edges"
            edges_path.write_text(to_edge_list(generate_lfr(LfrSpec(n=1000, mu=0.3, seed=0)).graph))
        flags = ["--input", edges_path, "--knn", knn, "--dim", dim]
        for command in ("detect", "embed"):
            assert run([command, *flags, "--out-dir", tmp_path / command]) == 0
        detected = (tmp_path / "detect" / "embedding.csv").read_bytes()
        assert detected == (tmp_path / "embed" / "embedding.csv").read_bytes()
        report = json.loads((tmp_path / "detect" / "report.json").read_text())
        assert report["embedding"] == {"landmarks": landmarks, "dim": dim, "truncated": False}

    @pytest.mark.parametrize(
        "graph, dim, line",
        [
            ("gn", 3, "128 nodes embedded into 3 dimensions from 128 landmarks"),
            ("clique6", 8, "6 nodes embedded into 5 of the 8 requested dimensions from 6 landmarks"),
        ],
    )
    def test_summary_gives_the_landmarks_and_a_truncation(
        self, gn_instance, tmp_path, capsys, graph, dim, line
    ):
        # the same facts as report.json's embedding block
        path = gn_instance[0]
        if graph == "clique6":
            path = tmp_path / "clique6.edges"
            path.write_text(to_edge_list(disjoint_cliques_graph([6])[0]))
        capsys.readouterr()
        out = tmp_path / "emb"
        assert run(["embed", "--input", path, "--dim", dim, "--out-dir", out]) == 0
        assert capsys.readouterr().out == f"{line} -> {out / 'embedding.csv'}\n"

    def test_detect_and_embed_read_the_same_landmarks_past_128_nodes(self, tmp_path):
        # at dim 40 both take the floor of 80 landmarks, not 32
        labeled = generate_lfr(LfrSpec(n=300, mu=0.3, min_community=15, max_community=40, seed=4))
        path = tmp_path / "lfr.edges"
        path.write_text(to_edge_list(labeled.graph))
        flags = ["--input", path, "--dim", 40]
        for command in ("detect", "embed"):
            assert run([command, *flags, "--out-dir", tmp_path / command]) == 0
        detected = (tmp_path / "detect" / "embedding.csv").read_bytes()
        assert detected == (tmp_path / "embed" / "embedding.csv").read_bytes()
        report = json.loads((tmp_path / "detect" / "report.json").read_text())
        assert report["embedding"] == {"landmarks": 80, "dim": 40, "truncated": False}

    def test_landmark_floor_follows_the_widest_dim(self, gn_instance, tmp_path, monkeypatch):
        calls = []

        def recording(ng, **kwargs):
            calls.append(kwargs)
            return geodesic_distances(ng, **kwargs)

        monkeypatch.setattr(sys.modules["isofdp.pipeline"], "geodesic_distances", recording)
        edges_path, _ = gn_instance
        for flags in (["--dim", 3], ["--dim", 3, "--dim-sweep", 40], ["--dim", 50, "--dim-sweep", 5]):
            assert run(["embed", "--input", edges_path, *flags, "--out-dir", tmp_path / "o"]) == 0
        assert calls == [{"dim": 3}, {"dim": 40}, {"dim": 50}]

    def test_dim_sweep(self, gn_instance, tmp_path):
        edges_path, _ = gn_instance
        out = tmp_path / "sweep"
        assert run(["embed", "--input", edges_path, "--dim-sweep", 5, "--out-dir", out]) == 0
        lines = (out / "embedding_sweep.csv").read_text().splitlines()
        assert lines[0] == "dim,residual_variance"
        assert len(lines) == 6
        residuals = [float(line.split(",")[1]) for line in lines[1:]]
        assert residuals == sorted(residuals, reverse=True)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dim", 0], "dim must be >= 1, got 0"),
            (["--knn", 0], "knn must be >= 1, got 0"),
            (["--knn", -2, "--dim-sweep", 3], "knn must be >= 1, got -2"),
        ],
    )
    def test_settings_checked_before_the_distances(
        self, gn_instance, tmp_path, monkeypatch, capsys, flags, message
    ):
        def no_distances(g):
            raise AssertionError("the distances were computed before every setting was checked")

        monkeypatch.setattr(sys.modules["isofdp.pipeline"], "prepared_distances", no_distances)
        edges_path, _ = gn_instance
        assert run(["embed", "--input", edges_path, *flags, "--out-dir", tmp_path / "o"]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_dim_sweep_above_n_minus_1_exits_2(self, tmp_path, monkeypatch, capsys):
        # l <= n landmarks have at most n - 1 nonzero eigenvalues: every row
        # past n - 1 read 0.0, and --dim-sweep 1000000 wrote 10^6 of them
        path = tmp_path / "clique6.edges"
        path.write_text(to_edge_list(disjoint_cliques_graph([6])[0]))
        assert run(["embed", "--input", path, "--dim-sweep", 5, "--out-dir", tmp_path / "ok"]) == 0
        assert len((tmp_path / "ok" / "embedding_sweep.csv").read_text().splitlines()) == 1 + 5
        capsys.readouterr()

        def no_distances(g):
            raise AssertionError("a stage ran before --dim-sweep was checked")

        monkeypatch.setattr(sys.modules["isofdp.pipeline"], "prepared_distances", no_distances)
        out = tmp_path / "sweep"
        assert run(["embed", "--input", path, "--dim-sweep", 6, "--out-dir", out]) == 2
        assert capsys.readouterr().err == "error: --dim-sweep must be in 1..n - 1 = 5, got 6\n"
        assert not os.path.exists(out)

    def test_huge_dim_sweep_exits_2_at_once(self, tmp_path):
        # in a child capped at 1 GiB: 10^9 rows would not fit
        path = tmp_path / "clique6.edges"
        path.write_text(to_edge_list(disjoint_cliques_graph([6])[0]))
        out = tmp_path / "sweep"
        argv = ["embed", "--input", str(path), "--dim-sweep", "1000000000", "--out-dir", str(out)]
        code, stdout, stderr = _capped_child(f"sys.exit(main({argv!r}))", 10)
        assert (code, stdout) == (2, "")
        assert stderr == "error: --dim-sweep must be in 1..n - 1 = 5, got 1000000000\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("count", [0, -3])
    def test_nonpositive_dim_sweep_exits_2(self, gn_instance, tmp_path, capsys, count):
        edges_path, _ = gn_instance
        out = tmp_path / "sweep"
        assert run(["embed", "--input", edges_path, "--dim-sweep", count, "--out-dir", out]) == 2
        assert "--dim-sweep" in capsys.readouterr().err
        assert not os.path.exists(out)
