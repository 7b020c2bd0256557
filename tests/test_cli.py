import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import cliquerep
from cliquerep import (
    BoundReport,
    CliquePartition,
    GreedyDecomposition,
    SetRepresentation,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph,
    path_graph,
    to_edge_list,
    to_graph6,
    validate_partition,
)
from cliquerep.cli import run

PACKAGE = Path(cliquerep.__file__).resolve().parent


def write_k22_g6(tmp_path):
    path = tmp_path / "k22.g6"
    path.write_text(to_graph6(complete_bipartite(2, 2)) + "\n")
    return str(path)


def write_k3_el(tmp_path):
    path = tmp_path / "k3.el"
    path.write_text(to_edge_list(complete_graph(3)))
    return str(path)


class TestPartition:
    def test_greedy_k22(self, tmp_path, capsys):
        code = run(["partition", write_k22_g6(tmp_path), "--method", "greedy"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["ordered"] is True
        assert len(doc["cliques"]) == 4

    def test_erdos(self, tmp_path, capsys):
        code = run(["partition", write_k3_el(tmp_path), "--method", "erdos"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["ordered"] is False

    def test_erdos_on_a_long_path(self, tmp_path, capsys):
        g = path_graph(1100)
        path = tmp_path / "p1100.el"
        path.write_text(to_edge_list(g))
        code = run(["partition", str(path), "--method", "erdos"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert validate_partition(g, CliquePartition.from_json(doc, g)) == []

    def test_erdos_rejects_strategy_flags(self, tmp_path, capsys):
        code = run(["partition", write_k3_el(tmp_path), "--method", "erdos",
                    "--strategy", "random", "--seed", "3"])
        capsys.readouterr()
        assert code == 2

    def test_seeded(self, tmp_path, capsys):
        code = run(["partition", write_k22_g6(tmp_path), "--method", "greedy",
                    "--strategy", "random", "--seed", "7"])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["cliques"]) == 4

    def test_seed_without_random_rejected(self, tmp_path, capsys):
        code = run(["partition", write_k22_g6(tmp_path), "--method", "greedy",
                    "--seed", "7"])
        capsys.readouterr()
        assert code == 2

    def test_random_without_seed_rejected(self, tmp_path, capsys):
        code = run(["partition", write_k22_g6(tmp_path), "--method", "greedy",
                    "--strategy", "random"])
        capsys.readouterr()
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        argv = ["partition", write_k22_g6(tmp_path), "--method", "greedy",
                "--strategy", "random", "--seed", "11"]
        code1 = run(argv)
        out1 = capsys.readouterr().out
        code2 = run(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_output_round_trips_through_parser(self, tmp_path, capsys):
        g = complete_bipartite(2, 2)
        run(["partition", write_k22_g6(tmp_path), "--method", "greedy"])
        doc = json.loads(capsys.readouterr().out)
        d = GreedyDecomposition.from_json(doc, g)
        assert d.to_json() == doc
        run(["partition", write_k22_g6(tmp_path), "--method", "erdos"])
        doc = json.loads(capsys.readouterr().out)
        p = CliquePartition.from_json(doc, g)
        assert p.to_json() == doc

    def test_dot_matches_clique_order(self, tmp_path, capsys):
        run(["partition", write_k3_el(tmp_path), "--method", "greedy"])
        doc = json.loads(capsys.readouterr().out)
        run(["partition", write_k3_el(tmp_path), "--method", "greedy",
             "--output", "dot"])
        dot = capsys.readouterr().out
        assert dot.startswith("graph cliques {")
        for k, cl in enumerate(doc["cliques"]):
            if len(cl) > 1:
                assert f'label="c{k}"' in dot

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(complete_graph(3))))
        code = run(["partition", "-", "--format", "graph6", "--method", "greedy"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["cliques"] == [[0, 1, 2]]

    def test_stdin_needs_format(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("C~"))
        code = run(["partition", "-", "--method", "greedy"])
        err = capsys.readouterr().err
        assert code == 2
        assert "format" in err


class TestRepresent:
    def test_augmented_complete_graph(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text(to_graph6(complete_graph(4)))
        code = run(["represent", str(path), "--method", "greedy", "--augment"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["ground_size"] == 4
        rep = SetRepresentation.from_json(doc, complete_graph(4))
        assert rep.to_json() == doc

    def test_unaugmented(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text(to_graph6(complete_graph(4)))
        code = run(["represent", str(path), "--method", "greedy"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["ground_size"] == 1

    def test_erdos_dot(self, tmp_path, capsys):
        code = run(["represent", write_k3_el(tmp_path), "--method", "erdos",
                    "--output", "dot"])
        dot = capsys.readouterr().out
        assert code == 0
        assert dot.startswith("graph sets {")


class TestVerify:
    def test_partition_missing_edge(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"n": 3, "ordered": False, "cliques": [[0, 1], [1, 2]]}))
        code = run(["verify", "partition", write_k3_el(tmp_path), str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False
        assert any(v.get("pair") == [0, 2] for v in doc["violations"])

    def test_valid_partition(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(
            {"n": 3, "ordered": False, "cliques": [[0, 1, 2]]}))
        code = run(["verify", "partition", write_k3_el(tmp_path), str(good)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc == {"valid": True, "violations": []}

    def test_greedy_artifact(self, tmp_path, capsys):
        art = tmp_path / "greedy.json"
        art.write_text(json.dumps(
            {"n": 3, "ordered": True, "cliques": [[0, 1], [1, 2], [0, 2]]}))
        code = run(["verify", "greedy", write_k3_el(tmp_path), str(art)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert any(v["kind"] == "not_maximal" for v in doc["violations"])

    def test_representation_require_distinct(self, tmp_path, capsys):
        art = tmp_path / "rep.json"
        art.write_text(json.dumps(
            {"n": 3, "ground_size": 1, "sets": [[0], [0], [0]]}))
        code = run(["verify", "representation", write_k3_el(tmp_path), str(art)])
        assert code == 0
        capsys.readouterr()
        code = run(["verify", "representation", write_k3_el(tmp_path), str(art),
                    "--require-distinct"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert any(v["kind"] == "duplicate_sets" for v in doc["violations"])

    def test_malformed_artifact(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run(["verify", "partition", write_k3_el(tmp_path), str(bad)])
        capsys.readouterr()
        assert code == 2

    def test_deeply_nested_artifact(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        code = run(["verify", "partition", write_k3_el(tmp_path), str(deep)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: artifact JSON is nested too deeply\n"

    def test_mismatched_n(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 4, "ordered": False, "cliques": []}))
        code = run(["verify", "partition", write_k3_el(tmp_path), str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "does not match" in err


class TestOracle:
    def test_cp_value(self, tmp_path, capsys):
        code = run(["oracle", "cp", write_k22_g6(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["value"] == 4
        assert len(doc["witness"]["cliques"]) == 4

    def test_omega_value(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text(to_graph6(complete_graph(4)))
        code = run(["oracle", "omega", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["value"] == 4
        assert doc["witness"]["ground_size"] == 4

    #: Witnesses recorded before the exact searches shared one kernel.
    WITNESSES = {
        ("cp", "petersen"): {"value": 15, "witness": {"n": 10, "ordered": False, "cliques": [
            [0, 1], [0, 4], [0, 5], [1, 2], [1, 6], [2, 3], [2, 7], [3, 4], [3, 8],
            [4, 9], [5, 7], [5, 8], [6, 8], [6, 9], [7, 9]]}},
        ("cp", "c5"): {"value": 5, "witness": {"n": 5, "ordered": False, "cliques": [
            [0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]}},
        ("omega", "c5"): {"value": 5, "witness": {"n": 5, "ground_size": 5, "sets": [
            [0, 1], [0, 2], [2, 3], [3, 4], [1, 4]]}},
        ("cp", "k22"): {"value": 4, "witness": {"n": 4, "ordered": False, "cliques": [
            [0, 2], [0, 3], [1, 2], [1, 3]]}},
        ("omega", "k22"): {"value": 4, "witness": {"n": 4, "ground_size": 4, "sets": [
            [0, 1], [2, 3], [0, 2], [1, 3]]}},
        # the only graph here with triangles, so the only one whose witness
        # depends on trying larger cliques first
        ("cp", "diamond"): {"value": 3, "witness": {"n": 4, "ordered": False, "cliques": [
            [0, 1, 2], [0, 3], [2, 3]]}},
        ("omega", "diamond"): {"value": 3, "witness": {"n": 4, "ground_size": 3, "sets": [
            [0, 1], [0], [0, 2], [1, 2]]}},
    }

    def test_witnesses_are_pinned(self, tmp_path, capsys):
        outer = [(v, (v + 1) % 5) for v in range(5)]
        inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
        spokes = [(v, v + 5) for v in range(5)]
        graphs = {"petersen": graph(10, outer + inner + spokes), "c5": cycle_graph(5),
                  "k22": complete_bipartite(2, 2),
                  "diamond": graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])}
        for (quantity, name), expected in self.WITNESSES.items():
            path = tmp_path / f"{name}.el"
            path.write_text(to_edge_list(graphs[name]))
            code = run(["oracle", quantity, str(path)])
            assert code == 0
            assert json.loads(capsys.readouterr().out) == expected, (quantity, name)

    def test_budget_exceeded(self, tmp_path, capsys):
        path = tmp_path / "big.el"
        path.write_text(to_edge_list(complete_graph(7)))
        code = run(["oracle", "omega", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "budget" in err


class TestSweep:
    def test_n4(self, capsys):
        code = run(["sweep", "--n", "4"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["violations"] == []
        assert doc["graphs_checked"] == 64
        assert doc["bound"] == 4
        assert BoundReport.from_json(doc).n == 4

    def test_n4_with_seeds(self, capsys):
        code = run(["sweep", "--n", "4", "--seeds", "1,2,3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["strategies"] == ["lex", "random:1", "random:2", "random:3"]

    def test_out_of_range(self, capsys):
        code = run(["sweep", "--n", "3"])
        capsys.readouterr()
        assert code == 2


class TestOptimizedInterpreter:
    """Postconditions are explicit checks, so `python -O` changes nothing."""

    def test_package_has_no_assert(self):
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_oracle_omega_is_identical_under_O(self, tmp_path):
        path = tmp_path / "k22.g6"
        path.write_text(to_graph6(complete_bipartite(2, 2)))
        env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
        outs = [
            subprocess.run([sys.executable, *flags, "-m", "cliquerep.cli", "oracle", "omega",
                            str(path)], env=env, capture_output=True, timeout=60)
            for flags in ([], ["-O"])
        ]
        assert [p.returncode for p in outs] == [0, 0]
        assert outs[0].stdout == outs[1].stdout != b""


class TestUsage:
    def test_unknown_flag(self, capsys):
        code = run(["partition", "x.g6", "--method", "greedy", "--frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_missing_subcommand(self, capsys):
        code = run([])
        capsys.readouterr()
        assert code == 2

    def test_unreadable_input(self, capsys):
        code = run(["partition", "/nonexistent/g.g6", "--method", "greedy"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_extension_needs_format(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text("C~")
        code = run(["partition", str(path), "--method", "greedy"])
        capsys.readouterr()
        assert code == 2

    def test_explicit_format_overrides_extension(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text("C~")
        code = run(["partition", str(path), "--format", "graph6",
                    "--method", "greedy"])
        capsys.readouterr()
        assert code == 0

    def test_help_exits_zero(self, capsys):
        code = run(["--help"])
        capsys.readouterr()
        assert code == 0

    def test_parse_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.el"
        path.write_text("n=2\n0 0\n")
        code = run(["partition", str(path), "--method", "greedy"])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err
