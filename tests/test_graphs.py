import pickle
import random
import time
import tracemalloc
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquerep import (
    Graph,
    GraphParseError,
    augment_to_distinct,
    canonical_form,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degree,
    edge_bitmask,
    empty_graph,
    enumerate_labeled_graphs,
    erdos_partition,
    graph,
    graph_from_bitmask,
    greedy_decomposition,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    path_graph,
    representation_from_partition,
    to_edge_list,
    to_graph6,
    validate_partition,
    validate_representation,
)
from cliquerep.graphs import (
    _CHUNK,
    _MASKS_UP_TO_N,
    _clique_bits,
    _labeled_graphs,
    _mask_pairs,
    _plain_edge_list,
    bits,
)
from helpers import iso_classes_by_permutation, random_graph, remove_edges


def nx_from_graph6(text: str) -> Graph:
    """Independent graph6 decoder (networkx) for cross-checking ours."""
    g = nx.from_graph6_bytes(text.encode("ascii"))
    return graph(g.number_of_nodes(), g.edges())


def nx_to_graph6(g: Graph) -> str:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx.to_graph6_bytes(h, header=False).decode("ascii").strip()


def parse_error(text: str) -> str:
    with pytest.raises(GraphParseError) as info:
        parse_graph6(text)
    return str(info.value)


@st.composite
def graphs(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    return graph_from_bitmask(n, draw(st.integers(0, (1 << m) - 1)))


class TestGraphType:
    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            Graph(-1, frozenset())

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(0, 2)}))

    def test_rejects_unnormalized_edge(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(2, 1)}))
        with pytest.raises(ValueError, match=r"^edge \(0, 1, 2\) is not a pair$"):
            Graph(3, frozenset({(0, 1, 2)}))
        with pytest.raises(ValueError, match=r"^edge 5 is not a pair$"):
            Graph(3, [5])
        # A non-iterable edge set, or an unhashable pair, raised TypeError.
        for edges in (5, [[0, 1]]):
            with pytest.raises(ValueError, match=r"^edges must be an iterable of hashable pairs$"):
                Graph(3, edges)

    def test_rejects_numpy_endpoints(self):
        np = pytest.importorskip("numpy")
        # 1 << np.int64(70) overflows, so such an edge would vanish from adj.
        with pytest.raises(ValueError, match="not an int"):
            graph(80, [(np.int64(0), np.int64(70))])

    def test_rejects_vertex_counts_and_endpoints_that_are_not_ints(self):
        with pytest.raises(ValueError, match="not an int"):
            graph(3, [(0, 1.5)])
        with pytest.raises(ValueError, match="not an int"):
            graph(3, [(True, 2)])
        with pytest.raises(ValueError, match="must be an int"):
            Graph(2.5, frozenset())

    def test_cycles_need_three_vertices(self):
        with pytest.raises(ValueError, match="at least 3 vertices"):
            cycle_graph(2)

    def test_bipartite_parts_are_non_negative(self):
        for a, b in ((-1, 3), (3, -1)):
            with pytest.raises(ValueError, match=rf"^part sizes must be non-negative, got {a} and {b}$"):
                complete_bipartite(a, b)

    @pytest.mark.parametrize("build, args, bad", [
        (complete_graph, (3.0,), 3.0),
        (path_graph, (3.0,), 3.0),
        (cycle_graph, (3.0,), 3.0),
        (complete_bipartite, (1.0, 2), 1.0),
        (complete_bipartite, (True, 2), True),
        (complete_bipartite, (2, True), True),
    ], ids=["complete", "path", "cycle", "bipartite-float", "bipartite-bool", "bipartite-bool-b"])
    def test_builder_counts_must_be_ints(self, build, args, bad):
        # Floats raised TypeError from range; complete_bipartite(True, 2)
        # returned K_{1,2}.
        with pytest.raises(ValueError) as info:
            build(*args)
        assert str(info.value) == f"vertex count must be an int, got {bad!r}"

    def test_builder_normalizes_and_rejects_loops(self):
        g = graph(3, [(2, 0), (0, 1)])
        assert g.edges == frozenset({(0, 2), (0, 1)})
        # Graph keeps frozenset(edges): an iterator was read up by the checks
        # and left the empty graph, and a list kept its duplicates and made
        # the graph unequal to graph(...) and unhashable.
        p3 = graph(3, [(0, 1), (1, 2)])
        for edges in (iter([(0, 1), (1, 2)]), [(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 1)]):
            built = Graph(3, edges)
            assert type(built.edges) is frozenset and built.edges == p3.edges
            same_graph(None, built, p3)
        with pytest.raises(ValueError):
            graph(3, [(1, 1)])
        # Pairs in any order and of any iterable type, repeated or not, give
        # the graph of their normalized tuples.
        rng = random.Random(3)
        for n in range(2, 9):
            pairs = [rng.sample(range(n), 2) for _ in range(rng.randrange(2 * n))]
            expected = Graph(n, {(min(e), max(e)) for e in pairs})
            for shaped in (pairs, map(tuple, pairs), (iter(e) for e in pairs), pairs + pairs):
                same_graph(None, graph(n, shaped), expected)

    @pytest.mark.parametrize("edges, message", [
        ([(0, "a")], "edge (0, 'a') has an endpoint that is not an int"),
        ([(0, None)], "edge (0, None) has an endpoint that is not an int"),
        ([5], "edge 5 is not a pair"),
        (5, "edges must be an iterable of pairs"),
        ([(0, 1.5)], "edge (0, 1.5) has an endpoint that is not an int"),
        ([(0, 1, 2)], "edge (0, 1, 2) is not a pair"),
        ([(1, 1)], "self-loop on vertex 1"),
    ], ids=["str", "none", "int", "not-iterable", "float", "triple", "loop"])
    def test_builder_names_each_malformed_pair(self, edges, message):
        # The first four raised TypeError, from the u < v compare, from
        # unpacking and from the loop.
        with pytest.raises(ValueError) as info:
            graph(3, edges)
        assert str(info.value) == message

    def test_adjacency_masks(self):
        g = path_graph(3)
        assert g.adj == (0b010, 0b101, 0b010)


class TestGraph6:
    def test_k4(self):
        assert parse_graph6("C~") == complete_graph(4)
        assert parse_graph6("C~") == nx_from_graph6("C~")

    def test_empty_on_4(self):
        assert parse_graph6("C?") == empty_graph(4)
        assert parse_graph6("C?") == nx_from_graph6("C?")

    def test_empty_input(self):
        assert parse_error("") == "empty graph6 input"

    def test_optional_prefix(self):
        assert parse_graph6(">>graph6<<C~\n") == complete_graph(4)

    def test_truncated(self):
        assert parse_error("D") == "byte 1: truncated bit field (0 data bytes, need 2)"

    def test_trailing_data(self):
        assert parse_error("C~~") == "byte 2: unexpected trailing character '~'"

    def test_padding_bits_are_not_edges(self):
        # The last data byte of "Bc" is 100100: one pair bit, then padding.
        g = parse_graph6("Bc")
        assert g.edges == {(0, 1)} and g.adj == (0b10, 0b1, 0)

    def test_long_form_rejected(self):
        assert parse_error("~??") == "byte 0: long-form graph6 (n > 62) is not supported"

    def test_out_of_range_character(self):
        assert parse_error("C!") == "byte 1: character '!' out of range"

    def test_header_out_of_range(self):
        assert parse_error("!??") == "byte 0: header byte '!' out of range"

    @pytest.mark.parametrize("text, message", [
        (">>graph6<<", "empty graph6 input"),
        (">>graph6<<D?", "byte 2: truncated bit field (1 data bytes, need 2)"),
        ("~", "byte 0: long-form graph6 (n > 62) is not supported"),
        ("\x7f", "byte 0: header byte '\\x7f' out of range"),
        ("D!", "byte 2: truncated bit field (1 data bytes, need 2)"),
        ("C!~", "byte 2: unexpected trailing character '~'"),
        ("D~!", "byte 2: character '!' out of range"),
    ])
    def test_error_offsets_and_check_order(self, text, message):
        # Offsets count from after the prefix, and the length is checked
        # before the characters.
        assert parse_error(text) == message

    @pytest.mark.parametrize("g, encoded", [
        (empty_graph(0), "?"),
        (empty_graph(1), "@"),
        (cycle_graph(7), "FhCKG"),
        (complete_graph(62), "}" + "~" * 315 + "_"),
    ])
    def test_encoding_pins(self, g, encoded):
        assert to_graph6(g) == encoded
        assert parse_graph6(encoded) == g

    def test_encode_rejects_large_n(self):
        with pytest.raises(ValueError):
            to_graph6(empty_graph(63))

    def test_matches_networkx_exhaustively_small(self):
        for n in range(6):
            for g in enumerate_labeled_graphs(n):
                encoded = to_graph6(g)
                assert encoded == nx_to_graph6(g)
                assert parse_graph6(encoded) == g

    @given(graphs(max_n=7))
    def test_round_trip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    @given(st.integers(8, 62), st.randoms(use_true_random=False))
    @settings(max_examples=25)
    def test_round_trip_larger(self, n, rnd):
        g = graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rnd.random() < 0.3])
        s = to_graph6(g)
        assert parse_graph6(s) == g
        assert s == nx_to_graph6(g)


class TestEdgeList:
    def test_path(self):
        assert parse_edge_list("n=3\n0 1\n1 2") == path_graph(3)

    def test_isolated_vertices_survive(self):
        assert parse_edge_list("n=2\n") == empty_graph(2)

    def test_self_loop(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("n=2\n0 0")

    def test_missing_header(self):
        with pytest.raises(GraphParseError, match="header"):
            parse_edge_list("0 1\n")
        with pytest.raises(GraphParseError, match="header"):
            parse_edge_list("# only a comment\n")

    def test_out_of_range(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("n=2\n0 2")

    def test_duplicate_edge(self):
        with pytest.raises(GraphParseError, match="duplicate"):
            parse_edge_list("n=3\n0 1\n1 0")

    def test_comments_and_blanks_ignored(self):
        text = "# a path\nn=3\n\n0 1\n# middle\n1 2\n"
        assert parse_edge_list(text) == path_graph(3)

    def test_bad_tokens(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("n=2\n0 x")
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("n=2\n0 1 2")
        with pytest.raises(GraphParseError):
            parse_edge_list("n=-1\n")

    @pytest.mark.parametrize("text, message", [
        ("", "missing 'n=<count>' header"),
        ("# only a comment\n\n   \n", "missing 'n=<count>' header"),
        ("# c\n\nnodes=3\n", "line 3: expected 'n=<count>' header, got 'nodes=3'"),
        ("  0 1  \n", "line 1: expected 'n=<count>' header, got '0 1'"),
        ("\n# c\nn=x\n", "line 3: bad vertex count 'x'"),
        ("n=\n", "line 1: bad vertex count ''"),
        ("n=3.0\n", "line 1: bad vertex count '3.0'"),
        ("# c\nn=-2\n0 1\n", "line 2: negative vertex count"),
        ("n=3\n# 0 1\n\n0 1 2\n", "line 4: expected 'u v', got '0 1 2'"),
        ("n=3\n  0  \n", "line 2: expected 'u v', got '0'"),
        ("n=3\nx y z\n", "line 2: expected 'u v', got 'x y z'"),
        ("n=3\n0 1\n\t1 x \n", "line 3: non-integer endpoint in '1 x'"),
        ("n=3\n1.5 2\n", "line 2: non-integer endpoint in '1.5 2'"),
        ("n=1\n# c\n0 0\n", "line 3: self-loop on vertex 0"),
        ("n=3\n-1 -1\n", "line 2: self-loop on vertex -1"),
        ("n=3\n2 -0\n0 -0\n", "line 3: self-loop on vertex 0"),
        ("n=2\n0 2\n", "line 2: endpoint out of range for n=2"),
        ("n=3\n\n-1 2\n", "line 3: endpoint out of range for n=3"),
        ("n=0\n0 1\n", "line 2: endpoint out of range for n=0"),
        ("n=3\n0 1\n# c\n\n1 0\n", "line 5: duplicate edge (0, 1)"),
        ("n=4\n2 3\n 3   2 \n", "line 3: duplicate edge (2, 3)"),
        ("n=3\n1234567890 1\n", "line 2: endpoint out of range for n=3"),
        ("n=3\n-" + "1" * 5000 + " 2\n", "line 2: endpoint out of range for n=3"),
        ("n=3\n0 +" + "9" * 5000 + "\n", "line 2: endpoint out of range for n=3"),
        ("n=3\n0 x" + "9" * 5000 + "\n",
         "line 2: non-integer endpoint in '0 x" + "9" * 37 + "'... (5003 characters)"),
    ])
    def test_error_lines_and_check_order(self, text, message):
        # Blank and comment lines count towards the line number; each line
        # is checked for its token count, integers, self-loop, range and
        # duplicate in that order, so 'n=1' then '0 0' is a self-loop.
        with pytest.raises(GraphParseError) as info:
            parse_edge_list(text)
        assert str(info.value) == message

    @given(graphs(max_n=7))
    def test_round_trip(self, g):
        text = to_edge_list(g)
        assert parse_edge_list(text) == g
        assert _plain_edge_list(text) == g

    @pytest.mark.parametrize("text, n, edges", [
        ("n=3\n01 2\n", 3, [(1, 2)]),
        ("n=007\n0 1\n", 7, [(0, 1)]),
        ("n=3\r\n0 1\r\n", 3, [(0, 1)]),
        ("n=3\n0 1", 3, [(0, 1)]),
        ("# G\r\nn=4096\r\n\r\n4095 0\r\n# c\r\n1  2\r\n 3 4095 \r\n", 4096,
         [(0, 4095), (1, 2), (3, 4095)]),
        ("n=4097\n4096 0\n", 4097, [(0, 4096)]),
    ])
    def test_inputs_outside_the_plain_layout_parse(self, text, n, edges):
        # Leading zeros, '\r\n', comments, a missing final newline and
        # n > _MASKS_UP_TO_N are not what to_edge_list writes, so the line
        # walk reads them, into an edge set.
        assert _plain_edge_list(text) is None
        for read_first in ("adj", "edges"):
            g = parse_edge_list(text)
            assert type(g.__dict__["edges"]) is frozenset and "adj" not in g.__dict__
            same_graph(read_first, g, graph(n, edges))

    def test_huge_vertex_count_allocates_nothing(self):
        # The walk keeps an edge set, so a header or an endpoint far beyond
        # memory neither fails nor hides a line error.
        n = 10**20
        with pytest.raises(GraphParseError, match="^line 2: self-loop on vertex 0$"):
            parse_edge_list(f"n={n}\n0 0\n")
        with pytest.raises(GraphParseError, match="^line 4: duplicate edge"):
            parse_edge_list(f"n={n}\n0 1\n1 2\n1 0\n")
        g = parse_edge_list(f"n={n}\n0 1\n")
        assert g.n == n and g.edges == {(0, 1)}
        g = parse_edge_list(f"n={n}\n0 {n - 1}\n")
        assert g.n == n and g.edges == {(0, n - 1)}

    @pytest.mark.parametrize("n", [_MASKS_UP_TO_N, _MASKS_UP_TO_N + 1])
    def test_either_side_of_the_mask_limit(self, n):
        edges = [(0, n - 1), (1, 2), (2, n - 1), (n - 2, n - 1)]
        text = f"n={n}\n" + "".join(f"{v} {u}\n" for u, v in edges)
        same_graph("adj", parse_edge_list(text), graph(n, edges))
        # The bulk reader takes plain text up to the limit only.
        assert _plain_edge_list(text) == (graph(n, edges) if n <= _MASKS_UP_TO_N else None)
        with pytest.raises(GraphParseError, match=f"^line 6: duplicate edge \\(0, {n - 1}\\)$"):
            parse_edge_list(text + f"0 {n - 1}\n")
        same_graph("adj", graph_from_bitmask(n, 0b101), graph(n, [(0, 1), (0, 3)]))


def parse_outcome(text: str) -> Graph | str:
    """The graph parse_edge_list gives for text, or its error text."""
    try:
        return parse_edge_list(text)
    except GraphParseError as error:
        return str(error)


def one_line_later(message: str) -> str:
    """A 'line <k>: ...' error message as it reads with one more line
    before the input."""
    number, rest = message.removeprefix("line ").split(":", 1)
    return f"line {int(number) + 1}:{rest}"


#: Lines to insert into an edge list, formatted with a non-edge a < b, an
#: edge u < v, a vertex w, an endpoint far at or past n, and big = 10**9 + b.
INSERTED_LINES = {
    "new edge": "{a} {b}",
    "new edge reversed": "{b} {a}",
    "self-loop": "{w} {w}",
    "out of range": "{a} {far}",
    "duplicate": "{u} {v}",
    "reversed duplicate": "{v} {u}",
    "leading zero": "0{a} {b}",
    "ten digits": "{a} {big}",
    "ten digits, leading zeros": "{a:010d} {b}",
    "tab": "{a}\t{b}",
    "double space": "{a}  {b}",
    "leading space": " {a} {b}",
    "trailing space": "{a} {b} ",
    "carriage return": "{a} {b}\r",
    "plus sign": "+{a} {b}",
    "minus zero": "{a} -0",
    "arabic-indic digit": "{a} \u0663",
    "one endpoint": "{a}",
    "three endpoints": "{a} {b} {w}",
    "comment": "# c",
    "blank": "",
    "spaces": "   ",
}
#: The kinds that keep a text in the plain layout and valid.
PLAIN_KINDS = {"new edge", "new edge reversed"}


def assert_agrees_with_the_walk(text: str) -> Graph | str:
    """parse_edge_list(text) gives what the line walk gives on text pushed
    down one line, where the header is no longer on line 1; returns it."""
    outcome = parse_outcome(text)
    walked = parse_outcome("\n" + text)
    if isinstance(outcome, Graph):
        same_graph("adj", outcome, walked)
    else:
        assert walked == one_line_later(outcome)
    return outcome


class TestPlainEdgeList:
    """The bulk reader of the layout to_edge_list writes against the line
    walk, which reads a text with a leading newline."""

    @pytest.mark.parametrize("kind", INSERTED_LINES)
    def test_one_inserted_line_against_the_walk(self, kind):
        rng = random.Random(f"plain:{kind}")
        for _ in range(12):
            n = rng.randint(3, 100)
            g = random_graph(rng, n, rng.choice([0.05, 0.3, 0.7]))
            if not g.edges or len(g.edges) == n * (n - 1) // 2:
                continue
            u, v = rng.choice(sorted(g.edges))
            a, b = rng.choice([e for e in combinations(range(n), 2) if e not in g.edges])
            line = INSERTED_LINES[kind].format(a=a, b=b, u=u, v=v, w=rng.randrange(n),
                                               far=n + rng.randrange(3), big=10**9 + b)
            lines = to_edge_list(g).split("\n")
            lines.insert(rng.randint(1, len(lines) - 1), line)
            text = "\n".join(lines)
            outcome = assert_agrees_with_the_walk(text)
            if kind in PLAIN_KINDS:
                added = tuple(map(int, line.split()))
                assert _plain_edge_list(text) == outcome == graph(n, [*g.edges, added])
            else:
                assert _plain_edge_list(text) is None

    def test_missing_final_newline(self):
        rng = random.Random(5)
        for n in (0, 1, 2, 30, 100):
            text = to_edge_list(random_graph(rng, n, 0.3))[:-1]
            assert_agrees_with_the_walk(text)
            assert _plain_edge_list(text) is None

    def test_errors_in_later_chunks(self):
        # Over two chunks: a duplicate whose copies fall in different
        # chunks, and an out-of-range endpoint in the last chunk.
        rng = random.Random(128)
        g = random_graph(rng, 400, 0.5)
        text = to_edge_list(g)
        assert len(text) > 2 * _CHUNK
        assert _plain_edge_list(text) == assert_agrees_with_the_walk(text) == g
        (u, v) = min(g.edges)
        duplicate = text + f"{v} {u}\n"
        out_of_range = text + f"0 {g.n}\n"
        for bad in (duplicate, out_of_range):
            assert _plain_edge_list(bad) is None
            assert isinstance(assert_agrees_with_the_walk(bad), str)
        assert parse_outcome(duplicate).endswith(f"duplicate edge {(u, v)}")
        assert parse_outcome(out_of_range).endswith(f"endpoint out of range for n={g.n}")

    @pytest.mark.parametrize("slot", ["u", "v"])
    @pytest.mark.parametrize("where", ["first chunk", "later chunk"])
    def test_an_endpoint_at_or_above_n_fails_its_index(self, slot, where):
        # The bulk reader's range test is the indexing of its masks: an
        # endpoint at n, or of ten digits, in either slot of a line in the
        # first chunk or after chunks already ORed, gives None and the walk's
        # error.
        g = random_graph(random.Random(f"range:{slot}:{where}"), 400, 0.5)
        lines = to_edge_list(g).split("\n")
        assert len(lines[0]) + 1 + _CHUNK < len("\n".join(lines[:-100]))
        index = 3 if where == "first chunk" else len(lines) - 100
        for far in (g.n, 10**9 + 7):
            u, v = map(int, lines[index].split())
            bad = list(lines)
            bad[index] = f"{far} {v}" if slot == "u" else f"{u} {far}"
            text = "\n".join(bad)
            assert _plain_edge_list(text) is None
            assert parse_outcome(text) == (
                f"line {index + 1}: endpoint out of range for n={g.n}")

    #: Lines that pass, or nearly pass, the bulk reader's separator test
    #: but not its layout, each with what the walk makes of it: an edge or
    #: the end of its error message. The 5000-digit endpoint is past the
    #: interpreter's int-digit limit, where it has one, and past n either way.
    NEARLY_PLAIN = {
        "empty second token": ("1 ", "expected 'u v', got '1'"),
        "empty first token": (" 1", "expected 'u v', got '1'"),
        "leading zero": ("01 2", (1, 2)),
        "ten digits": ("0 1234567890", "endpoint out of range for n={n}"),
        "5000 digits": ("0 " + "1" * 5000, "endpoint out of range for n={n}"),
        "arabic-indic digit": ("0 \u0661", (0, 1)),
        "three endpoints": ("1 2 3", "expected 'u v', got '1 2 3'"),
    }

    @pytest.mark.parametrize("kind", NEARLY_PLAIN)
    @pytest.mark.parametrize("where", ["alone", "last in the first chunk",
                                       "first in the second chunk"])
    def test_nearly_plain_lines(self, kind, where):
        line, outcome = self.NEARLY_PLAIN[kind]
        if where == "alone":
            n, before, after = 3, [], []
        else:
            # Plain edges fill the first chunk up to the faulty line or up
            # to its end, on vertices 10 and up, apart from the faulty line's.
            n, after = 4096, [(5, 6)]
            fill = _CHUNK - (len(line) + 1 if where.startswith("last") else 0)
            before = plain_edges_filling(fill, random.Random(kind))
        head = f"n={n}\n"
        text = head + "".join(f"{u} {v}\n" for u, v in before) + line + "\n"
        text += "".join(f"{u} {v}\n" for u, v in after)
        if where != "alone":
            assert text[len(head) + _CHUNK - 1] == "\n"
        assert _plain_edge_list(text) is None
        if isinstance(outcome, tuple):
            expected = graph(n, [*before, outcome, *after])
            same_graph("adj", assert_agrees_with_the_walk(text), expected)
        else:
            message = f"line {len(before) + 2}: " + outcome.format(n=n)
            assert assert_agrees_with_the_walk(text) == message

    def test_peak_memory_is_below_the_walks(self):
        # On G(1000, 0.4), decoding the whole body at once peaked at 64 MB,
        # against 39 MB for the walk's edge set and 0.6 MB chunk by chunk. G(1000, 0.1)
        # keeps the traced walk to about 2 s.
        rng = random.Random(1000)
        text = "n=1000\n" + "".join(f"{u} {v}\n" for u, v in combinations(range(1000), 2)
                                    if rng.random() < 0.1)
        peaks = []
        for version in (text, "\n" + text):
            tracemalloc.start()
            try:
                parse_edge_list(version)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1]


def plain_edges_filling(length: int, rng: random.Random) -> list[tuple[int, int]]:
    """Distinct edges u < v on vertices 10..4095 whose plain lines 'u v\\n'
    take exactly length characters, at least 21."""
    sizes = [10] * ((length - 21) // 10)
    rest = length - 10 * len(sizes)
    sizes += [rest // 3 + (k < rest % 3) for k in range(3)]
    edges: list[tuple[int, int]] = []
    for size in sizes:
        while True:
            digits = rng.randint(max(2, size - 6), min(4, size - 4))
            u = rng.randrange(10 ** (digits - 1), 10 ** digits)
            v = rng.randrange(10 ** (size - digits - 3), 10 ** (size - digits - 2))
            e = (min(u, v), max(u, v))
            if u != v and e[1] < 4096 and e not in edges:
                edges.append(e)
                break
    return edges


def same_graph(read_first, g: Graph, expected: Graph) -> None:
    """g, a parsed graph, equals expected, a graph built from its edge set,
    in every way a caller can see, when read_first is read from g first."""
    if read_first:
        getattr(g, read_first)
    assert g == expected and expected == g
    assert hash(g) == hash(expected)
    assert g.edges == expected.edges and g.adj == expected.adj
    assert repr(g) == repr(expected)


@pytest.mark.parametrize("read_first", ["adj", "edges", None])
class TestParsedGraphsMatchBuiltGraphs:
    """The graphs the parsers and graph_from_bitmask return, from masks or
    from an edge set, are the graphs graph(n, edges) builds."""

    def test_graph6(self, read_first):
        rng = random.Random(62)
        for n in range(63):
            g = graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < rng.random()])
            same_graph(read_first, parse_graph6(to_graph6(g)), g)

    def test_edge_list(self, read_first):
        rng = random.Random(100)
        for n in range(101):
            g = graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.3])
            lines = [f"# G({n}, 0.3)", f"n={n}", ""]
            edges = sorted(g.edges)
            rng.shuffle(edges)
            for u, v in edges:
                lines.append(f"{v} {u}" if rng.random() < 0.5 else f" {u}\t{v} ")
                if rng.random() < 0.1:
                    lines.append(rng.choice(["", "# comment", "   "]))
            text = "\n".join(lines)
            same_graph(read_first, parse_edge_list(text), g)

    def test_bitmask(self, read_first):
        rng = random.Random(7)
        cases = [(4, mask) for mask in range(1 << 6)]
        cases += [(7, rng.getrandbits(21)) for _ in range(200)]
        for n, mask in cases:
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
            same_graph(read_first, graph_from_bitmask(n, mask), g)


class TestParsedGraphsBuildNoEdgeSet:
    def test_constructions_and_validators_read_only_masks(self):
        g = parse_edge_list(to_edge_list(random_graph(random.Random(60), 60, 0.5)))
        for seed in (None, 3):
            d = greedy_decomposition(g, seed)
            r = augment_to_distinct(representation_from_partition(d))
            assert validate_representation(g, r, require_distinct=True) == []
        p = erdos_partition(g)
        assert validate_partition(g, p) == []
        assert validate_representation(g, representation_from_partition(p)) == []
        assert "edges" not in g.__dict__


class TestQueries:
    def test_degree_complete(self):
        assert degree(complete_graph(4), 0) == 3

    def test_degree_empty(self):
        assert degree(empty_graph(4), 2) == 0

    def test_degree_biregular(self):
        k22 = complete_bipartite(2, 2)
        assert [degree(k22, v) for v in range(4)] == [2, 2, 2, 2]

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            degree(empty_graph(2), 2)

    @pytest.mark.parametrize("v", [1.0, True])
    def test_degree_of_a_vertex_that_is_not_an_int(self, v):
        # 1.0 used to fail on tuple indexing, and True answered for vertex 1.
        with pytest.raises(ValueError, match=rf"^vertex {v!r} is not an int$"):
            degree(path_graph(3), v)

    @given(graphs())
    def test_degree_sum_is_twice_edges(self, g):
        assert sum(degree(g, v) for v in range(g.n)) == 2 * len(g.edges)

    def test_induced_triangle_of_k4(self):
        sub, labels = induced_subgraph(complete_graph(4), {0, 1, 2})
        assert sub == complete_graph(3)
        assert labels == (0, 1, 2)

    def test_induced_path_of_cycle(self):
        sub, labels = induced_subgraph(cycle_graph(4), {0, 1, 2})
        assert sub == path_graph(3)
        assert labels == (0, 1, 2)

    def test_induced_empty_subset(self):
        sub, labels = induced_subgraph(complete_graph(4), set())
        assert sub == empty_graph(0)
        assert labels == ()

    def test_induced_relabels(self):
        sub, labels = induced_subgraph(path_graph(4), {1, 3})
        assert sub == empty_graph(2)
        assert labels == (1, 3)

    def test_induced_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(empty_graph(2), {5})

    @pytest.mark.parametrize("vertices", [[1.0, 2], [1, True], [True, 1]])
    def test_induced_on_a_vertex_that_is_not_an_int(self, vertices):
        # [1.0, 2] used to keep the label 1.0; a set would merge True with 1.
        with pytest.raises(ValueError, match=r"^vertex (1\.0|True) is not an int$"):
            induced_subgraph(path_graph(3), vertices)

    @given(graphs())
    def test_induced_full_set_is_identity(self, g):
        sub, labels = induced_subgraph(g, range(g.n))
        assert sub == g
        assert labels == tuple(range(g.n))

    def test_remove_all_triangle_edges(self):
        assert remove_edges(complete_graph(3), complete_graph(3).edges) == empty_graph(3)

    def test_remove_nothing(self):
        assert remove_edges(path_graph(3), []) == path_graph(3)

    def test_remove_triangle_from_k4(self):
        left = remove_edges(complete_graph(4), [(0, 1), (0, 2), (1, 2)])
        assert left == graph(4, [(0, 3), (1, 3), (2, 3)])

    def test_remove_absent_edge(self):
        with pytest.raises(ValueError):
            remove_edges(path_graph(3), [(0, 2)])


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_labeled_graphs(0)) == 1
        assert sum(1 for _ in enumerate_labeled_graphs(2)) == 2
        assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
        assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64

    def test_order_is_bitmask_ascending(self):
        for i, g in enumerate(enumerate_labeled_graphs(4)):
            assert edge_bitmask(g) == i

    def test_all_distinct(self):
        seen = {g.edges for g in enumerate_labeled_graphs(4)}
        assert len(seen) == 64

    def test_walk_matches_graph_from_bitmask(self):
        # The walk steps neighbour masks; each graph must be the one
        # graph_from_bitmask builds, in every way a caller can see.
        for n in range(6):
            walked = list(enumerate_labeled_graphs(n))
            assert len(walked) == 1 << n * (n - 1) // 2
            for mask, g in enumerate(walked):
                want = graph_from_bitmask(n, mask)
                assert (g.n, g.adj, g.edges) == (want.n, want.adj, want.edges)
                assert g == want and hash(g) == hash(want) and repr(g) == repr(want)
                assert pickle.loads(pickle.dumps(g)) == want

    def test_walk_across_cut_points(self):
        # A sweep chunk walks lo..hi-1 only; the chunks' rows, laid end to
        # end, are the whole walk's. An empty range yields nothing.
        whole = list(_labeled_graphs(5, 0, 1024))
        cuts = (0, 1, 333, 1023, 1024)
        parts = [rows for lo, hi in zip(cuts, cuts[1:]) for rows in _labeled_graphs(5, lo, hi)]
        assert parts == whole == [g.adj for g in enumerate_labeled_graphs(5)]
        for lo in (0, 333, 1024):
            assert list(_labeled_graphs(5, lo, lo)) == []

    def test_clique_bits_hold_each_vertex_set_with_its_pairs(self):
        for n in range(8):
            table = _clique_bits(n)
            sets = [cl for k in range(1, n + 1) for cl in combinations(range(n), k)]
            assert sorted(table) == sorted(sets) and len(table) == (1 << n) - 1
            for cl, (m, pair_mask) in table.items():
                assert list(bits(m)) == list(cl)
                assert list(_mask_pairs(n, pair_mask)) == list(combinations(cl, 2))

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            list(enumerate_labeled_graphs(8))
        with pytest.raises(ValueError):
            list(enumerate_labeled_graphs(-1))

    def test_bitmask_round_trip(self):
        for mask in (0, 1, 37, 63):
            assert edge_bitmask(graph_from_bitmask(4, mask)) == mask
        assert edge_bitmask(graph_from_bitmask(3, 7)) == 7
        for n, mask in ((3, 8), (3, -1), (0, 1)):
            with pytest.raises(ValueError, match=rf"^mask {mask} out of range for n={n}$"):
                graph_from_bitmask(n, mask)
        with pytest.raises(ValueError, match=r"^vertex count must be non-negative, got -1$"):
            graph_from_bitmask(-1, 0)

    @pytest.mark.parametrize("n, mask, message", [
        (True, 0, "vertex count must be an int, got True"),
        (3.0, 1, "vertex count must be an int, got 3.0"),
        (3, 1.0, "mask must be an int, got 1.0"),
        (3, True, "mask must be an int, got True"),
    ], ids=["n-bool", "n-float", "mask-float", "mask-bool"])
    def test_bitmask_arguments_must_be_ints(self, n, mask, message):
        # As in Graph: True built Graph(n=True), 1.0 raised AttributeError
        # and 3.0 TypeError.
        with pytest.raises(ValueError) as info:
            graph_from_bitmask(n, mask)
        assert str(info.value) == message

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_enumeration_count_must_be_an_int(self, n):
        with pytest.raises(ValueError, match=r"^enumeration supports"):
            list(enumerate_labeled_graphs(n))

    def test_bitmask_range_check_builds_no_big_int(self):
        # The range check must not build 1 << (n(n-1)/2): that int is 26.7 MB
        # at n=20000, and a huge negative n would ask for far more.
        tracemalloc.start()
        try:
            assert graph_from_bitmask(20000, 0).n == 20000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError, match="^vertex count must be non-negative"):
            graph_from_bitmask(-10**6, 0)

    def test_edge_bitmask_buffer_ends_at_the_highest_pair(self):
        # A buffer of n(n-1)/2 bits peaked at 200 MB for one edge at n=40000
        # and would ask for about 62 GB at n = 10**6.
        tracemalloc.start()
        try:
            assert edge_bitmask(Graph(40000, {(0, 1)})) == 1
            assert edge_bitmask(Graph(10**6, {(0, 2)})) == 2
            assert edge_bitmask(empty_graph(10**6)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bitmask_round_trip_larger(self):
        rnd = random.Random(3)
        for n in (8, 30, 61):
            mask = rnd.getrandbits(n * (n - 1) // 2)
            assert edge_bitmask(graph_from_bitmask(n, mask)) == mask

    def test_bitmask_of_a_long_path(self):
        # Building a dict of all n(n-1)/2 pair positions took 1.5 s here and
        # kept about 300 MB cached; decoding by testing mask >> k & 1 for
        # every pair copied the mask once per pair, 2.5 s at n=800 (2-core
        # x86 VM, Python 3.11).
        g = path_graph(2000)
        start = time.perf_counter()
        mask = edge_bitmask(g)
        assert time.perf_counter() - start < 0.1
        assert mask == sum(1 << (u * (2 * 2000 - u - 1) // 2) for u in range(1999))
        start = time.perf_counter()
        assert graph_from_bitmask(2000, mask) == g
        assert time.perf_counter() - start < 1.0


class TestCanonicalForm:
    def test_relabelings_agree(self):
        a = graph(3, [(0, 1), (1, 2)])
        b = graph(3, [(1, 0), (0, 2)])  # same path, center at 0
        assert canonical_form(a) == canonical_form(b)

    def test_distinguishes_classes(self):
        assert canonical_form(path_graph(3)) != canonical_form(complete_graph(3))

    def test_class_counts(self):
        for n, expected in ((3, 4), (4, 11), (5, 34)):
            classes = {canonical_form(g) for g in enumerate_labeled_graphs(n)}
            assert len(classes) == expected

    def test_class_count_matches_permutation_oracle(self):
        graphs3 = list(enumerate_labeled_graphs(3))
        assert iso_classes_by_permutation(graphs3) == 4
        classes = {canonical_form(g) for g in graphs3}
        assert len(classes) == 4

    def test_n5_count_matches_networkx(self):
        # Bucket by degree sequence first, then settle with nx.is_isomorphic.
        buckets = {}
        for g in enumerate_labeled_graphs(5):
            key = tuple(sorted(degree(g, v) for v in range(5)))
            buckets.setdefault(key, []).append(g)
        count = 0
        for members in buckets.values():
            reps = []
            for g in members:
                h = nx.Graph()
                h.add_nodes_from(range(5))
                h.add_edges_from(g.edges)
                if not any(nx.is_isomorphic(h, r) for r in reps):
                    reps.append(h)
            count += len(reps)
        assert count == 34

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            canonical_form(empty_graph(9))

    @given(graphs(max_n=5), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_invariant_under_permutation(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        relabeled = graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_form(relabeled) == canonical_form(g)
