import ast
import contextlib
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliquerep
from cliquerep import (
    CliquePartition,
    GreedyDecomposition,
    SetRepresentation,
    augment_to_distinct,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_partition,
    exhaustive_bound_check,
    graph,
    greedy_decomposition,
    min_clique_partition,
    min_distinct_representation,
    path_graph,
    representation_from_partition,
    to_edge_list,
    to_graph6,
    validate_greedy,
    validate_partition,
    validate_representation,
)
from cliquerep import cli
from cliquerep.cli import _print_rows, run
from helpers import graphs, random_graph

PACKAGE = Path(cliquerep.__file__).resolve().parent


def write_k22_g6(tmp_path):
    path = tmp_path / "k22.g6"
    path.write_text(to_graph6(complete_bipartite(2, 2)) + "\n")
    return str(path)


def write_k3_el(tmp_path):
    path = tmp_path / "k3.el"
    path.write_text(to_edge_list(complete_graph(3)))
    return str(path)


def write_pin_graph(tmp_path):
    # the triangle 0 1 2, the pendant edge 2 3 and the isolated vertex 4
    path = tmp_path / "pin.el"
    path.write_text(to_edge_list(graph(5, [(0, 1), (0, 2), (1, 2), (2, 3)])))
    return str(path)


def invalid_report(violations) -> str:
    return json.dumps({"valid": False, "violations": violations}, indent=2, sort_keys=True) + "\n"


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

    @pytest.mark.parametrize("method", ["greedy", "erdos"])
    def test_zero_vertices(self, tmp_path, capsys, method):
        el = tmp_path / "z.el"
        el.write_text("n=0\n")
        docs = []
        for argv in (["partition"], ["represent"], ["represent", "--augment"]):
            code = run([argv[0], str(el), "--method", method, *argv[1:]])
            assert code == 0
            docs.append(json.loads(capsys.readouterr().out))
        ordered = method == "greedy"
        assert docs == [{"n": 0, "ordered": ordered, "cliques": []},
                        {"n": 0, "ground_size": 0, "sets": []},
                        {"n": 0, "ground_size": 0, "sets": []}]
        (tmp_path / "p.json").write_text(json.dumps(docs[0]))
        kind = "greedy" if ordered else "partition"
        code = run(["verify", kind, str(el), str(tmp_path / "p.json")])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"valid": True, "violations": []}

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
        # The pin graph's isolated vertex gets a trivial clique.
        for path in (write_k3_el(tmp_path), write_pin_graph(tmp_path)):
            run(["partition", path, "--method", "greedy"])
            doc = json.loads(capsys.readouterr().out)
            run(["partition", path, "--method", "greedy", "--output", "dot"])
            dot = capsys.readouterr().out
            assert dot.startswith("graph cliques {")
            for k, cl in enumerate(doc["cliques"]):
                if len(cl) > 1:
                    assert f'label="c{k}"' in dot
                else:
                    assert f'  {cl[0]} [color=' in dot and f'xlabel="c{k}"' in dot

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

    @pytest.fixture(scope="class")
    def large(self, tmp_path_factory):
        """The benchmark's seed-13 G(500, 1/2) and K_{250,250}, as edge lists."""
        work = tmp_path_factory.mktemp("large")
        graphs = {"g500": random_graph(random.Random("large-graphs:13:g500"), 500, 0.5),
                  "k250": complete_bipartite(250, 250)}
        for name, g in graphs.items():
            (work / f"{name}.el").write_text(to_edge_list(g))
        return work, graphs

    @pytest.mark.parametrize("name", ["g500", "k250"])
    @pytest.mark.parametrize("method", ["greedy", "erdos"])
    def test_unchecked_construction_is_a_valid_representation(self, large, name, method):
        # represent builds the sets of its own construction without checking
        # the partition first: its output must still pass the validator, and
        # equal what the checking public function prints.
        work, graphs = large
        g = graphs[name]
        built = greedy_decomposition(g) if method == "greedy" else erdos_partition(g)
        checked = representation_from_partition(built)
        for augment in (False, True):
            argv = ["represent", str(work / f"{name}.el"), "--method", method]
            code, out = run_on_text(argv + ["--augment"] * augment, "")
            assert code == 0
            rep = SetRepresentation.from_json(json.loads(out), g)
            assert validate_representation(g, rep, require_distinct=augment) == []
            want = io.StringIO()
            with contextlib.redirect_stdout(want):
                _print_rows((augment_to_distinct(checked) if augment else checked).to_json(),
                            "sets")
            assert out == want.getvalue()


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

    def test_repeated_member_under_graph6_padding(self, tmp_path, capsys):
        # "Bc" is the edge {0, 1} on n=3 with 1-bits in its padding; the
        # partition repeats vertex 0 and still has the size sum of a valid one.
        graph_path = tmp_path / "g.g6"
        graph_path.write_text("Bc\n")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3, "ordered": False, "cliques": [[0, 1], [0, 0], [2]]}))
        assert run(["verify", "partition", str(graph_path), str(bad)]) == 1
        assert json.loads(capsys.readouterr().out)["valid"] is False

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

    def test_every_partition_violation_kind_is_pinned(self, tmp_path, capsys):
        art = tmp_path / "p.json"
        art.write_text(json.dumps({"n": 5, "ordered": False, "cliques": [
            [], [0, 7], [1, 1], [2, 3], [2, 3], [0, 3], [0, 1], [0, 2]]}))
        code = run(["verify", "partition", write_pin_graph(tmp_path), str(art)])
        assert code == 1
        assert capsys.readouterr().out == invalid_report([
            {"kind": "empty_clique", "position": 0},
            {"kind": "bad_vertex", "position": 1, "vertex": 7},
            {"kind": "repeated_vertex", "position": 2, "vertices": [1, 1]},
            {"kind": "duplicate_clique", "position": 4, "vertices": [2, 3]},
            {"kind": "not_a_clique", "pair": [0, 3], "position": 5},
            {"expected": 1, "kind": "miscovered_edge", "observed": 0, "pair": [1, 2]},
            {"expected": 1, "kind": "miscovered_edge", "observed": 2, "pair": [2, 3]},
            {"expected": 0, "kind": "covered_nonedge", "observed": 1, "pair": [0, 3]},
            {"kind": "isolated_vertex_uncovered", "vertex": 4},
        ])

    def test_partition_positions_index_the_artifact(self, tmp_path, capsys):
        # [3, 1] is entry 3 of the file and entry 2 once the cliques are sorted.
        path = tmp_path / "p4.el"
        path.write_text(to_edge_list(path_graph(4)))
        art = tmp_path / "p.json"
        art.write_text(json.dumps({"n": 4, "ordered": False,
                                   "cliques": [[2, 3], [1, 2], [0, 1], [3, 1]]}))
        assert run(["verify", "partition", str(path), str(art)]) == 1
        assert capsys.readouterr().out == invalid_report([
            {"kind": "not_a_clique", "pair": [1, 3], "position": 3},
            {"expected": 0, "kind": "covered_nonedge", "observed": 1, "pair": [1, 3]},
        ])

    def test_every_representation_violation_kind_is_pinned(self, tmp_path, capsys):
        art = tmp_path / "r.json"
        art.write_text(json.dumps({"n": 5, "ground_size": 5, "sets": [
            [0, 1], [1, 0], [2, 9], [9, 0, 2], []]}))
        code = run(["verify", "representation", write_pin_graph(tmp_path), str(art),
                    "--require-distinct"])
        assert code == 1
        assert capsys.readouterr().out == invalid_report([
            {"element": 9, "kind": "element_out_of_range", "vertex": 2},
            {"element": 9, "kind": "element_out_of_range", "vertex": 3},
            {"kind": "empty_set", "vertex": 4},
            {"element": 3, "kind": "unused_element"},
            {"element": 4, "kind": "unused_element"},
            {"expected": 1, "kind": "wrong_intersection", "observed": 2, "pair": [0, 1]},
            {"expected": 1, "kind": "wrong_intersection", "observed": 0, "pair": [0, 2]},
            {"expected": 0, "kind": "wrong_intersection", "observed": 1, "pair": [0, 3]},
            {"expected": 1, "kind": "wrong_intersection", "observed": 0, "pair": [1, 2]},
            {"expected": 0, "kind": "wrong_intersection", "observed": 1, "pair": [1, 3]},
            {"expected": 1, "kind": "wrong_intersection", "observed": 2, "pair": [2, 3]},
            {"kind": "duplicate_sets", "vertices": [0, 1]},
        ])

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

    UNDECODABLE = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"

    @pytest.mark.parametrize("graph_bytes, artifact_bytes, err", [
        (b"\xff\n", b"{}", f"error: graph input is not UTF-8: {UNDECODABLE}\n"),
        (b"n=3\n0 1\n", b"\xff", f"error: artifact is not UTF-8: {UNDECODABLE}\n"),
        (b"n=3\n0 1\n", b'{"n": 3, "ordered"',
         "error: artifact is not valid JSON: Expecting ':' delimiter: line 1 column 19 (char 18)\n"),
        (b"n=3\n0 1\n", b"",
         "error: artifact is not valid JSON: Expecting value: line 1 column 1 (char 0)\n"),
        (b"n=3\n0 1\n", b"[" + b"9" * 5000 + b"]",
         "error: artifact JSON cannot be read: Exceeds the limit (4300 digits) for integer"
         " string conversion: value has 5000 digits; use sys.set_int_max_str_digits()"
         " to increase the limit\n"),
    ], ids=["graph-not-utf8", "artifact-not-utf8", "truncated-json", "empty-artifact",
            "long-integer"])
    def test_undecodable_file_is_named(self, tmp_path, capsys, graph_bytes, artifact_bytes, err):
        (tmp_path / "g.el").write_bytes(graph_bytes)
        (tmp_path / "a.json").write_bytes(artifact_bytes)
        code = run(["verify", "partition", str(tmp_path / "g.el"), str(tmp_path / "a.json")])
        assert (code, *capsys.readouterr()) == (2, "", err)

    @pytest.mark.parametrize("on_stdin", ["graph", "artifact"])
    def test_undecodable_stdin_is_named(self, tmp_path, capsys, monkeypatch, on_stdin):
        (tmp_path / "g.el").write_bytes(b"n=3\n0 1\n")
        (tmp_path / "a.json").write_bytes(b"{}")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
        if on_stdin == "graph":
            argv, what = ["-", str(tmp_path / "a.json"), "--format", "edgelist"], "graph input"
        else:
            argv, what = [str(tmp_path / "g.el"), "-"], "artifact"
        code = run(["verify", "partition", *argv])
        assert (code, *capsys.readouterr()) == (
            2, "", f"error: {what} is not UTF-8: {self.UNDECODABLE}\n")

    def test_ground_size_beyond_the_set_entries(self, tmp_path, capsys):
        # an id no set holds is unused, so this can never be valid; reporting
        # two million unused ids one by one took gigabytes
        art = tmp_path / "rep.json"
        art.write_text(json.dumps(
            {"n": 3, "ground_size": 2_000_000, "sets": [[0], [0], [0]]}))
        start = time.perf_counter()
        code = run(["verify", "representation", write_k3_el(tmp_path), str(art)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: artifact 'ground_size' exceeds the number of set entries\n"
        assert elapsed < 1.0

    def test_small_unused_ids_are_reported(self, tmp_path, capsys):
        art = tmp_path / "rep.json"
        art.write_text(json.dumps(
            {"n": 3, "ground_size": 3, "sets": [[0], [0], [0]]}))
        code = run(["verify", "representation", write_k3_el(tmp_path), str(art)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["violations"] == [{"kind": "unused_element", "element": 1},
                                     {"kind": "unused_element", "element": 2}]

    @pytest.mark.parametrize("kind", ["partition", "representation", "greedy"])
    def test_graph_and_artifact_both_on_stdin(self, capsys, monkeypatch, kind):
        # The graph read would take all of stdin and leave the artifact none.
        stdin = io.StringIO(to_graph6(complete_graph(3)))
        monkeypatch.setattr("sys.stdin", stdin)
        code = run(["verify", kind, "-", "-", "--format", "graph6"])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: the graph and the artifact cannot both be read from stdin\n")
        assert stdin.tell() == 0

    @pytest.mark.parametrize("kind", ["partition", "greedy"])
    def test_require_distinct_is_rejected_for_cliques(self, tmp_path, capsys, kind):
        # Only a representation's sets can repeat; the flag is not ignored.
        art = tmp_path / "p.json"
        art.write_text(json.dumps({"n": 3, "ordered": False, "cliques": [[0, 1, 2]]}))
        code = run(["verify", kind, write_k3_el(tmp_path), str(art), "--require-distinct"])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: --require-distinct applies to verify representation only\n")

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

    def test_dot_output(self, tmp_path, capsys):
        nodes = ["  0;", "  1;", "  2;", "  3;"]
        expected = {
            "cp": ["graph cliques {", *nodes,
                   '  0 -- 2 [label="c0", color="#1b9e77"];',
                   '  0 -- 3 [label="c1", color="#d95f02"];',
                   '  1 -- 2 [label="c2", color="#7570b3"];',
                   '  1 -- 3 [label="c3", color="#e7298a"];', "}"],
            "omega": ["graph sets {",
                      '  0 [label="0: {0,1}"];', '  1 [label="1: {2,3}"];',
                      '  2 [label="2: {0,2}"];', '  3 [label="3: {1,3}"];',
                      '  0 -- 2 [label="e0"];', '  0 -- 3 [label="e1"];',
                      '  1 -- 2 [label="e2"];', '  1 -- 3 [label="e3"];', "}"],
        }
        for quantity, lines in expected.items():
            assert run(["oracle", quantity, write_k22_g6(tmp_path), "--output", "dot"]) == 0
            assert capsys.readouterr() == ("\n".join(lines) + "\n", "")

    def test_budget_exceeded(self, tmp_path, capsys):
        # one vertex past the cap both exact searches share
        path = tmp_path / "big.el"
        path.write_text(to_edge_list(complete_graph(11)))
        code = run(["oracle", "omega", str(path)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: n=11 exceeds the n<=10 search budget\n")


class TestSweep:
    def test_n4(self, capsys):
        code = run(["sweep", "--n", "4"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["violations"] == []
        assert doc["graphs_checked"] == 64
        assert doc["bound"] == 4
        assert doc == exhaustive_bound_check(4, [None]).to_json()

    def test_n4_with_seeds(self, capsys):
        code = run(["sweep", "--n", "4", "--seeds", "1,2,3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["strategies"] == ["lex", "random:1", "random:2", "random:3"]

    @pytest.mark.parametrize("seeds", ["x", "1,,2", ",", "1.5", "2,seven"])
    def test_bad_seeds_name_the_flag(self, capsys, seeds):
        code = run(["sweep", "--n", "4", "--seeds", seeds])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: --seeds must be comma-separated integers, got {seeds!r}\n")

    def test_seeds_allow_spaces_and_negatives(self, capsys):
        code = run(["sweep", "--n", "4", "--seeds= 5, -2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["strategies"] == ["lex", "random:5", "random:-2"]

    def test_out_of_range(self, capsys):
        code = run(["sweep", "--n", "3"])
        capsys.readouterr()
        assert code == 2


def dumped(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_on_text(argv: list[str], text: str) -> tuple[int, str]:
    """run(argv) with text on standard input; returns (code, stdout)."""
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def construction_doc(g, argv: list[str]) -> dict:
    """The document a partition or represent command prints, built with the
    library."""
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else None
    built = erdos_partition(g) if "erdos" in argv else greedy_decomposition(g, seed)
    if argv[0] == "partition":
        return built.to_json()
    r = representation_from_partition(built)
    return (augment_to_distinct(r) if "--augment" in argv else r).to_json()


#: n = 0 gives empty 'cliques' and 'sets' arrays; isolated vertices give
#: singleton cliques.
JSON_GRAPHS = {
    "n0": empty_graph(0),
    "empty3": empty_graph(3),
    "isolated": graph(7, [(0, 1), (1, 2), (0, 2), (2, 4)]),
    "k5": complete_graph(5),
    "k33": complete_bipartite(3, 3),
}

CONSTRUCTIONS = [
    ["partition", "--method", "greedy"],
    ["partition", "--method", "greedy", "--strategy", "random", "--seed", "3"],
    ["partition", "--method", "erdos"],
    ["represent", "--method", "greedy"],
    ["represent", "--method", "greedy", "--augment"],
    ["represent", "--method", "erdos"],
    ["represent", "--method", "erdos", "--augment"],
]


class TestJsonBytes:
    """Every JSON document on stdout is byte for byte
    json.dumps(doc, indent=2, sort_keys=True) plus a newline."""

    @pytest.mark.parametrize("name, argv", [
        (name, argv) for name in sorted(JSON_GRAPHS) for argv in CONSTRUCTIONS
    ], ids=lambda x: x if isinstance(x, str) else " ".join(x))
    def test_constructions(self, name, argv):
        g = JSON_GRAPHS[name]
        code, out = run_on_text([argv[0], "-", "--format", "edgelist", *argv[1:]],
                                to_edge_list(g))
        assert code == 0
        assert out == dumped(construction_doc(g, argv))

    @given(graphs(max_n=40), st.sampled_from(CONSTRUCTIONS))
    @settings(max_examples=60)
    def test_constructions_on_random_graphs(self, g, argv):
        code, out = run_on_text([argv[0], "-", "--format", "edgelist", *argv[1:]],
                                to_edge_list(g))
        assert code == 0
        assert out == dumped(construction_doc(g, argv))

    def test_empty_and_negative_rows(self, capsys):
        doc = {"n": 3, "ground_size": 12, "sets": [[], [-1, 10**30], [0]]}
        _print_rows(doc, "sets")
        assert capsys.readouterr().out == dumped(doc)

    @pytest.mark.parametrize("name", ["isolated", "k5", "k33"])
    def test_verify(self, tmp_path, name):
        g = JSON_GRAPHS[name]
        p = erdos_partition(g)
        d = greedy_decomposition(g)
        r = augment_to_distinct(representation_from_partition(d))
        broken = CliquePartition(g, p.cliques[1:] + ((0, 0), (), p.cliques[-1]))
        tampered = SetRepresentation(g, r.sets[1:] + r.sets[:1], r.ground_size + 1)
        check = {
            # The artifact's cliques in file order, members sorted.
            "partition": lambda doc: validate_partition(g, CliquePartition(
                g, tuple(tuple(sorted(c)) for c in doc["cliques"]))),
            "greedy": lambda doc: validate_greedy(g, GreedyDecomposition.from_json(doc, g)),
            "representation": lambda doc: validate_representation(
                g, SetRepresentation.from_json(doc, g)),
        }
        cases = [("partition", p), ("partition", broken), ("greedy", d), ("greedy", p),
                 ("representation", r), ("representation", tampered)]
        (tmp_path / "g.el").write_text(to_edge_list(g))
        kinds = set()
        for kind, artifact in cases:
            doc = artifact.to_json()
            problems = check[kind](doc)
            (tmp_path / "a.json").write_text(json.dumps(doc))
            code, out = run_on_text(["verify", kind, str(tmp_path / "g.el"),
                                     str(tmp_path / "a.json")], "")
            assert code == (1 if problems else 0)
            assert out == dumped({"valid": not problems,
                                  "violations": [v.to_json() for v in problems]})
            kinds.add(bool(problems))
        assert kinds == {True, False}

    @pytest.mark.parametrize("name", ["n0", "isolated", "k33"])
    def test_oracle(self, name):
        g = JSON_GRAPHS[name]
        value, witness = min_clique_partition(g)
        code, out = run_on_text(["oracle", "cp", "-", "--format", "edgelist"], to_edge_list(g))
        assert (code, out) == (0, dumped({"value": value, "witness": witness.to_json()}))
        if g.n <= 6:
            value, r = min_distinct_representation(g)
            code, out = run_on_text(["oracle", "omega", "-", "--format", "edgelist"],
                                    to_edge_list(g))
            assert (code, out) == (0, dumped({"value": value, "witness": r.to_json()}))

    def test_sweep(self):
        code, out = run_on_text(["sweep", "--n", "4", "--seeds", "1,2"], "")
        assert (code, out) == (0, dumped(exhaustive_bound_check(4, [None, 1, 2]).to_json()))


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

    def test_ingest_and_output_are_identical_under_O(self, tmp_path):
        g = random_graph(random.Random(200), 200, 0.5)
        (tmp_path / "g.el").write_text(to_edge_list(g))
        r = augment_to_distinct(representation_from_partition(greedy_decomposition(g)))
        (tmp_path / "valid.json").write_text(json.dumps(r.to_json()))
        tampered = SetRepresentation(g, r.sets[1:] + r.sets[:1], r.ground_size)
        (tmp_path / "tampered.json").write_text(json.dumps(tampered.to_json()))
        commands = [
            (["partition", "g.el", "--method", "erdos"], 0),
            (["represent", "g.el", "--method", "greedy", "--augment"], 0),
            (["verify", "representation", "g.el", "valid.json", "--require-distinct"], 0),
            (["verify", "representation", "g.el", "tampered.json"], 1),
            (["sweep", "--n", "5", "--seeds", "1,2"], 0),
        ]
        env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
        for argv, code in commands:
            outs = [
                subprocess.run([sys.executable, *flags, "-m", "cliquerep.cli", *argv],
                               cwd=tmp_path, env=env, capture_output=True, timeout=120)
                for flags in ([], ["-O"])
            ]
            plain, optimized = [(p.returncode, p.stdout, p.stderr) for p in outs]
            assert plain == optimized, argv
            assert plain[0] == code and plain[1] != b"", argv


class TestByteOrderMark:
    """One leading U+FEFF, as some editors write, is dropped from every
    input, file or stdin, before it is parsed."""

    G = graph(5, [(0, 1), (0, 2), (1, 2), (2, 3)])
    TEXT = {"edgelist": to_edge_list(G), "graph6": to_graph6(G) + "\n"}
    ARTIFACT = json.dumps(greedy_decomposition(G).to_json())

    @pytest.mark.parametrize("fmt, name", [("edgelist", "g.el"), ("graph6", "g.g6")])
    def test_graph_file(self, tmp_path, fmt, name):
        path = tmp_path / name
        outs = []
        for prefix in ("", "\ufeff"):
            path.write_text(prefix + self.TEXT[fmt])
            outs.append(run_on_text(["partition", str(path), "--method", "greedy"], ""))
        assert outs[0] == outs[1] and outs[0][0] == 0

    @pytest.mark.parametrize("fmt", ["edgelist", "graph6"])
    def test_graph_on_stdin(self, fmt):
        argv = ["represent", "-", "--format", fmt, "--method", "erdos"]
        plain, marked = (run_on_text(argv, prefix + self.TEXT[fmt]) for prefix in ("", "\ufeff"))
        assert plain == marked and plain[0] == 0

    def test_graph_file_under_an_ascii_locale(self, tmp_path):
        # Files are read as UTF-8 whatever the locale's encoding.
        (tmp_path / "plain.el").write_bytes(b"n=3\n0 1\n")
        (tmp_path / "bom.el").write_bytes(b"\xef\xbb\xbfn=3\n0 1\n")
        env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), LC_ALL="C",
                   PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        plain, marked = (
            subprocess.run([sys.executable, "-m", "cliquerep.cli", "partition", name,
                            "--method", "greedy"],
                           cwd=tmp_path, env=env, capture_output=True, timeout=60)
            for name in ("plain.el", "bom.el")
        )
        assert (marked.returncode, marked.stderr) == (0, b"")
        assert marked.stdout == plain.stdout != b""

    def test_artifact_file_and_stdin(self, tmp_path):
        graph_path = tmp_path / "g.el"
        graph_path.write_text(to_edge_list(self.G))
        art = tmp_path / "a.json"
        outs = []
        for prefix in ("", "\ufeff"):
            art.write_text(prefix + self.ARTIFACT)
            outs.append(run_on_text(["verify", "greedy", str(graph_path), str(art)], ""))
            outs.append(run_on_text(["verify", "greedy", str(graph_path), "-"],
                                    prefix + self.ARTIFACT))
        assert outs == [(0, dumped({"valid": True, "violations": []}))] * 4


@pytest.mark.parametrize("subcommand", ["partition", "represent"])
class TestStrategyFlags:
    @pytest.mark.parametrize("flags, message", [
        (["--method", "greedy", "--seed", "7"], "--seed requires --strategy random"),
        (["--method", "greedy", "--strategy", "random"], "--strategy random requires --seed"),
        (["--method", "erdos", "--seed", "3"], "--strategy/--seed apply to --method greedy only"),
        (["--method", "erdos", "--strategy", "random"],
         "--strategy/--seed apply to --method greedy only"),
    ])
    def test_error_line(self, tmp_path, capsys, subcommand, flags, message):
        code = run([subcommand, write_k3_el(tmp_path), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_graph_is_loaded_before_the_flags_are_checked(self, tmp_path, capsys, subcommand):
        code = run([subcommand, str(tmp_path / "missing.el"), "--method", "erdos", "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: [Errno 2] No such file or directory")


class TestCyclicCollector:
    """run pauses the cyclic garbage collector for one command and leaves it
    as it found it, however the command ends."""

    @pytest.fixture
    def collector(self):
        """Sets the collector's state for a test and puts it back after."""
        was = gc.isenabled()
        yield lambda on: gc.enable() if on else gc.disable()
        if was:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("on", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored_on_every_exit(self, tmp_path, capsys, monkeypatch, collector, on):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3, "ordered": False, "cliques": [[0, 1], [1, 2]]}))
        loop = tmp_path / "loop.el"
        loop.write_text("n=2\n0 0\n")
        k3 = write_k3_el(tmp_path)
        paused = []

        def greedy(g, seed=None):
            paused.append(not gc.isenabled())
            return greedy_decomposition(g, seed)

        monkeypatch.setattr(cli, "greedy_decomposition", greedy)
        collector(on)
        for argv, code in [
            (["partition", k3, "--method", "greedy"], 0),
            (["verify", "partition", k3, str(bad)], 1),
            (["partition", str(loop), "--method", "greedy"], 2),
            (["--help"], 0),
            (["partition", k3, "--method", "lex"], 2),
        ]:
            assert run(argv) == code
            assert gc.isenabled() is on
        assert paused == [True]

        def broken(g, seed=None):
            raise RuntimeError("broken")

        monkeypatch.setattr(cli, "greedy_decomposition", broken)
        with pytest.raises(RuntimeError):
            run(["partition", k3, "--method", "greedy"])
        assert gc.isenabled() is on
        capsys.readouterr()

    def test_commands_leave_no_cycles_behind(self, tmp_path, capsys, monkeypatch, collector):
        # With the collector paused, a reference cycle made per graph or per
        # clique would live until the command ends; argparse's parser leaves
        # about 300 unreachable objects. The graph has 3825 erdos cliques and
        # 1220 greedy ones, and the sweep checks 1024 graphs in process. The
        # collector stays off from one count to the next, so each count
        # finds all that its command left.
        monkeypatch.setenv("CLIQUEREP_THREADS", "1")
        g = random_graph(random.Random(1), 160, 0.3)
        path = tmp_path / "g.el"
        path.write_text(to_edge_list(g))
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(representation_from_partition(erdos_partition(g)).to_json()))
        collector(False)
        for argv in (["sweep", "--n", "5"], ["partition", str(path), "--method", "erdos"],
                     ["represent", str(path), "--method", "greedy", "--augment"],
                     ["verify", "representation", str(path), str(rep)]):
            gc.collect()
            assert run(argv) == 0
            assert gc.collect() < 1000, argv
        capsys.readouterr()


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

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_thread_count_must_be_positive(self, monkeypatch, capsys, value):
        monkeypatch.setenv("CLIQUEREP_THREADS", value)
        assert run(["sweep", "--n", "4"]) == 2
        assert capsys.readouterr() == (
            "", f"error: CLIQUEREP_THREADS must be a positive integer, got {value!r}\n")

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

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # A 1 GB address-space cap makes the vertex-order list for n = 10^12
        # fail at once, so the test never touches real memory.
        path = tmp_path / "huge.el"
        path.write_text("n=1000000000000\n0 1\n")
        env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "cliquerep.cli", "partition", str(path), "--method", "greedy"],
            env=env, capture_output=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"error: out of memory\n")
        # The same in process, where a line trace of the suite sees the handler.
        def exhausted(g, seed=None):
            raise MemoryError
        monkeypatch.setattr(cli, "greedy_decomposition", exhausted)
        assert run(["partition", write_k3_el(tmp_path), "--method", "greedy"]) == 2
        assert capsys.readouterr() == ("", "error: out of memory\n")

    @pytest.mark.parametrize("text, n", [
        ("n=1000000000\n0 1\n1 2\n", 10**9),
        (f"n={10**20}\n0 {10**20 - 1}\n", 10**20),
    ], ids=["huge-n", "huge-index"])
    @pytest.mark.parametrize("argv, message", [
        (["oracle", "cp", "huge.el"], "error: n={n} exceeds the n<=10 search budget\n"),
        (["verify", "partition", "huge.el", "small.json"],
         "error: artifact n=3 does not match graph n={n}\n"),
    ], ids=["oracle", "verify"])
    def test_huge_vertex_count_keeps_its_own_error(self, tmp_path, argv, message, text, n):
        # Parsing allocates nothing sized by n or by an endpoint, so under
        # the 1 GB cap each command reaches the check that rejects the input
        # by its header.
        (tmp_path / "huge.el").write_text(text)
        (tmp_path / "small.json").write_text('{"n": 3, "ordered": false, "cliques": []}')
        env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "cliquerep.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        )
        expected = (2, b"", message.format(n=n).encode())
        assert (proc.returncode, proc.stdout, proc.stderr) == expected

    @pytest.mark.parametrize("argv", [
        ["partition", "--method", "greedy"], ["partition", "--method", "erdos"],
        ["represent", "--method", "greedy"], ["represent", "--method", "erdos"],
        ["verify", "partition"], ["verify", "greedy"],
    ])
    def test_vertex_count_beyond_an_index_is_one_error_line(self, tmp_path, capsys, argv):
        # No list of 10^20 entries can exist, so each command fails before
        # allocating anything.
        n = 10**20
        path = tmp_path / "huge.el"
        path.write_text(f"n={n}\n0 1\n")
        artifact = tmp_path / "huge.json"
        ordered = argv[1] == "greedy"
        artifact.write_text(json.dumps({"n": n, "ordered": ordered, "cliques": [[0, 1]]}))
        if argv[0] == "verify":
            args = argv + [str(path), str(artifact)]
        else:
            args = argv[:1] + [str(path)] + argv[1:]
        assert run(args) == 2
        assert capsys.readouterr() == ("", "error: input too large for this machine\n")

    @pytest.mark.parametrize("name, message", [
        ("missing.el", "[Errno 2] No such file or directory: 'missing.el'"),
        ("dir.el", "[Errno 21] Is a directory: 'dir.el'"),
    ], ids=["missing", "directory"])
    def test_unreadable_file_error_line(self, tmp_path, monkeypatch, capsys, name, message):
        # Undecodable files have their own lines in TestVerify.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir.el").mkdir()
        assert run(["partition", name, "--method", "greedy"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_importing_the_cli_leaves_out_costly_stdlib_modules(self):
        # Each of these costs start-up time that every CLI run pays; -S keeps
        # site hooks from loading any of them beforehand.
        costly = ("dataclasses", "inspect", "typing", "pathlib", "random")
        env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys, cliquerep.cli; print([m for m in {costly!r} if m in sys.modules])"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_importing_the_cli_leaves_out_multiprocessing(self):
        # Only a pooled sweep needs it, and it is a large share of start-up.
        # Every other module it loads is the standard library's or its own:
        # -S keeps site hooks from loading third-party modules beforehand.
        env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, cliquerep.cli; print('multiprocessing' in sys.modules); "
             "print(sorted(m for m in sys.modules if m != '__main__' and m.split('.')[0] "
             "not in (*sys.stdlib_module_names, 'cliquerep')))"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n[]\n")
