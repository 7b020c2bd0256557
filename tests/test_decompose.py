import hashlib
import json
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquerep import (
    CliquePartition,
    GreedyDecomposition,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_partition,
    graph,
    graph_from_bitmask,
    greedy_decomposition,
    enumerate_labeled_graphs,
    path_graph,
    quarter_square,
    representation_from_partition,
    distinctness,
    validate_greedy,
    validate_partition,
)
from cliquerep import decompose, exhaustive_bound_check, oracle
from cliquerep.decompose import _vertex_order
from cliquerep.graphs import ENUMERATION_MAX_N, Graph, _labeled_graphs
from helpers import (
    as_partition,
    graphs,
    random_graph,
    reference_erdos,
    reference_greedy,
    remove_edges,
    sparse_random_graph,
)


#: A greedy seed: None for the lexicographic run.
seeds = st.none() | st.integers(0, 2**63)


def condition_one_holds(p: CliquePartition) -> bool:
    return distinctness(representation_from_partition(p)).is_family


class TestStrategy:
    def test_lexicographic_order(self):
        assert _vertex_order(4, None) == (0, 1, 2, 3)

    def test_seeded_is_reproducible(self):
        a = _vertex_order(8, 42)
        b = _vertex_order(8, 42)
        assert a == b
        assert sorted(a) == list(range(8))

    def test_different_seeds_differ_somewhere(self):
        orders = {_vertex_order(8, s) for s in range(20)}
        assert len(orders) > 1

    def test_a_strategy_is_its_seed(self):
        # Seed 0 is a seeded order, not the lexicographic one.
        assert _vertex_order(8, 0) != _vertex_order(8, None)
        g = path_graph(8)
        assert greedy_decomposition(g, 0) != greedy_decomposition(g)
        assert greedy_decomposition(g, 0).sequence == reference_greedy(g, 0)
        assert exhaustive_bound_check(4, [0]).strategies == ("random:0",)

    def test_describe(self):
        assert exhaustive_bound_check(4, [None, 7]).strategies == ("lex", "random:7")

    @pytest.mark.parametrize("seed", [True, 1.0, "x", [1]], ids=["bool", "float", "str", "list"])
    def test_seeds_must_be_ints(self, seed):
        # True and 1.0 ran as seed 1, labelled "random:True" by a sweep; "x"
        # ran, and [1] raised TypeError from random.
        message = rf"^seed must be an int or None, got {re.escape(repr(seed))}$"
        for run in (lambda: _vertex_order(4, seed), lambda: greedy_decomposition(path_graph(4), seed),
                    lambda: exhaustive_bound_check(4, [None, seed])):
            with pytest.raises(ValueError, match=message):
                run()


class TestGreedy:
    def test_complete_graph_is_one_clique(self):
        d = greedy_decomposition(complete_graph(4))
        assert d.sequence == ((0, 1, 2, 3),)

    def test_k22_needs_the_full_budget(self):
        k22 = graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        d = greedy_decomposition(k22)
        assert len(d.sequence) == 4 == quarter_square(4)
        assert all(len(c) == 2 for c in d.sequence)

    def test_path(self):
        d = greedy_decomposition(path_graph(3))
        assert sorted(d.sequence) == [(0, 1), (1, 2)]
        assert len(d.sequence) == 2 <= quarter_square(3)

    def test_trivial_cliques_come_last(self):
        g = graph(4, [(1, 2)])  # vertices 0 and 3 isolated
        d = greedy_decomposition(g)
        assert d.sequence == ((1, 2), (0,), (3,))

    def test_empty_graph(self):
        d = greedy_decomposition(empty_graph(3))
        assert d.sequence == ((0,), (1,), (2,))

    def test_zero_vertices(self):
        assert greedy_decomposition(empty_graph(0)).sequence == ()

    def test_seeded_changes_the_sequence(self):
        g = cycle_graph(5)
        lex = greedy_decomposition(g).sequence
        seqs = {greedy_decomposition(g, s).sequence for s in range(10)}
        assert any(s != lex for s in seqs)

    @given(graphs(), seeds)
    def test_always_valid(self, g, seed):
        d = greedy_decomposition(g, seed)
        assert validate_greedy(g, d) == []
        assert validate_partition(g, as_partition(d)) == []

    @given(graphs(), seeds)
    def test_deterministic(self, g, seed):
        assert greedy_decomposition(g, seed) == greedy_decomposition(g, seed)

    def test_exhaustive_small_all_valid(self):
        for n in range(5):
            for g in enumerate_labeled_graphs(n):
                for s in (None, 1, 2):
                    d = greedy_decomposition(g, s)
                    assert not validate_greedy(g, d)


def _seeded_via_lex(g, seed):
    """The seeded run predicted from the lexicographic one: relabel g by
    sigma(order[i]) = i, run lex, and map each clique back through
    sigma^-1."""
    order = _vertex_order(g.n, seed)
    sigma = {v: i for i, v in enumerate(order)}
    relabeled = graph(g.n, [(sigma[u], sigma[v]) for u, v in g.edges])
    lex = greedy_decomposition(relabeled).sequence
    return tuple(tuple(sorted(order[i] for i in cl)) for cl in lex)


class TestSeededIsRelabeledLex:
    """A seeded run on g is the lexicographic run on the relabeled graph:
    the sweep derives every seeded run's results from this."""

    SEEDS = range(1, 11)

    def test_every_graph_up_to_n5(self):
        for n in range(6):
            for g in enumerate_labeled_graphs(n):
                for seed in self.SEEDS:
                    assert greedy_decomposition(g, seed).sequence == _seeded_via_lex(g, seed)

    def test_every_seventh_graph_at_n6(self):
        for mask in range(0, 1 << 15, 7):
            g = graph_from_bitmask(6, mask)
            for seed in self.SEEDS:
                assert greedy_decomposition(g, seed).sequence == _seeded_via_lex(g, seed)

    @given(graphs(max_n=12), st.integers(-2**70, 2**70))
    @settings(max_examples=200)
    def test_any_graph_any_seed(self, g, seed):
        assert greedy_decomposition(g, seed).sequence == _seeded_via_lex(g, seed)


class TestReferenceGreedy:
    """Exact sequences against the direct order-scanning greedy, which knows
    nothing of the relabeling: a drift in lexicographic tie-breaking shows
    here, where TestSeededIsRelabeledLex (lex on both sides) cannot see it."""

    SEEDS = [None, *range(1, 11)]

    def assert_matches(self, g, seeds=SEEDS):
        for s in seeds:
            assert greedy_decomposition(g, s).sequence == reference_greedy(g, s), (g, s)

    def test_every_graph_up_to_n5(self):
        for n in range(6):
            for g in enumerate_labeled_graphs(n):
                self.assert_matches(g)

    def test_every_seventh_graph_at_n6(self):
        for mask in range(0, 1 << 15, 7):
            self.assert_matches(graph_from_bitmask(6, mask))

    def test_seeded_random_graphs_up_to_n200(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(6, 200)
            g = sparse_random_graph(rng, n, rng.random())
            self.assert_matches(g, [None, rng.randrange(10**6)])

    def test_complete_bipartite_and_complete(self):
        self.assert_matches(complete_bipartite(30, 30))
        self.assert_matches(complete_graph(12))


class TestGreedyTail:
    """On at most ENUMERATION_MAX_N vertices, the run from the last five
    starts on, h = n - 5 and up, is memoized by their residual rows as they
    stand: a cold and a warm cache give the reference sequence. A larger
    graph runs uncached: it leaves the greedy-tail and erdos-base tables as
    they were and still gives the reference sequence."""

    SEEDS = [None, 0, 1, 2, 3]

    def assert_cold_and_warm(self, monkeypatch, graphs):
        real = decompose._greedy_tail
        keys = []
        monkeypatch.setattr(decompose, "_greedy_tail",
                            lambda h, rows: keys.append((h, rows)) or real(h, rows))
        want = {(g, s): reference_greedy(g, s) for g in graphs for s in self.SEEDS}
        real.cache_clear()
        for _ in ("cold", "warm"):
            for (g, s), sequence in want.items():
                assert greedy_decomposition(g, s).sequence == sequence, (g, s)
        assert real.cache_info().hits >= len(want)
        assert len(keys) == 2 * len(want)
        return keys

    def test_seeded_masks_at_n7(self, monkeypatch):
        rng = random.Random(7)
        graphs = [graph_from_bitmask(7, rng.randrange(1 << 21)) for _ in range(3000)]
        keys = self.assert_cold_and_warm(monkeypatch, graphs)
        assert {(h, len(rows)) for h, rows in keys} == {(2, 5)}
        # Rows as they stand: below 1 << 7, with no bit below h = 2.
        assert all(type(r) is int and 0 <= r < 1 << 7 and not r & 0b11
                   for _, rows in keys for r in rows)

    def test_large_graphs(self):
        rng = random.Random(8)
        graphs = [random_graph(rng, 12, 0.5), random_graph(rng, 60, 0.5),
                  complete_bipartite(5, 5), path_graph(40),
                  random_graph(random.Random(100), 100, 0.9)]
        # reference_erdos shares the cached n <= 4 base case: run it first.
        want_erdos = [reference_erdos(g) for g in graphs]
        tail, base = decompose._greedy_tail, decompose._erdos_base
        before = tail.cache_info(), base.cache_info()
        assert before[0].maxsize is not None and before[1].maxsize is not None
        for g, erdos in zip(graphs, want_erdos):
            for s in self.SEEDS:
                assert greedy_decomposition(g, s).sequence == reference_greedy(g, s), (g, s)
            assert erdos_partition(g).cliques == erdos, g
        assert (tail.cache_info(), base.cache_info()) == before


def windmill(blades: list[int]) -> Graph:
    """Cliques of blades[i] + 1 vertices, each blade's own vertices after
    the earlier blades', all sharing vertex 0."""
    edges, v = [], 1
    for size in blades:
        members = [0, *range(v, v + size)]
        edges += combinations(members, 2)
        v += size
    return graph(v, edges)


def book(triangles: int, squares: int) -> Graph:
    """Pages on the spine 0 1: a triangle page is one vertex joined to both,
    a square page two adjacent vertices, one joined to 0 and one to 1."""
    n = 2 + triangles + 2 * squares
    edges = [(0, 1)]
    edges += [(e, p) for p in range(2, 2 + triangles) for e in (0, 1)]
    edges += [e for p in range(2 + triangles, n, 2) for e in ((0, p), (1, p + 1), (p, p + 1))]
    return graph(n, edges)


class TestEdgeFastPath:
    """Above ENUMERATION_MAX_N the greedy run takes every start itself, and
    an edge in no residual triangle is taken whole in one step. On graphs
    where one start takes edges and larger cliques in turn, the sequence is
    the direct order-scanning reference's, lexicographic and seeded."""

    SEEDS = [None, 1, 2, 3]

    @staticmethod
    def mixes(sequence) -> bool:
        """Whether some start of the sequence takes both an edge and a
        clique of three or more (members ascend, so a clique's first member
        is its start)."""
        sizes: dict[int, set[int]] = {}
        for cl in sequence:
            sizes.setdefault(cl[0], set()).add(min(len(cl), 3))
        return any(s >= {2, 3} for s in sizes.values())

    def assert_matches(self, g):
        assert g.n > ENUMERATION_MAX_N
        for s in self.SEEDS:
            assert greedy_decomposition(g, s).sequence == reference_greedy(g, s), (g, s)

    @pytest.mark.parametrize("g", [
        windmill([1, 2, 1, 3, 1, 1, 2]),
        windmill([2, 1, 1, 4, 1]),
        book(4, 3),
        book(1, 5),
        # a star on 0 with the matching 1 2, 4 5, 7 8 among its leaves
        graph(11, [(0, v) for v in range(1, 11)] + [(1, 2), (4, 5), (7, 8)]),
        # K_{4,8} with a matching, then with a path, inside the side of 8
        graph(12, [(u, v) for u in range(4) for v in range(4, 12)] + [(4, 5), (7, 8)]),
        graph(12, [(u, v) for u in range(4) for v in range(4, 12)] + [(5, 6), (6, 7), (9, 10)]),
    ], ids=["windmill-a", "windmill-b", "book-a", "book-b", "star-matching",
            "kab-matching", "kab-path"])
    def test_shapes(self, g):
        assert self.mixes(greedy_decomposition(g).sequence)
        self.assert_matches(g)

    def test_sparse_random_graphs(self):
        rng = random.Random(47)
        graphs = [sparse_random_graph(rng, n, 4 / n) for n in rng.choices(range(8, 300), k=40)]
        for g in graphs:
            self.assert_matches(g)
        assert any(self.mixes(greedy_decomposition(g).sequence) for g in graphs)


def test_cores_leave_their_rows_alone():
    # _greedy_run and _erdos_cliques work on copies of the rows: a caller's
    # list is as it was after each call, and a second call gives the same
    # cliques.
    samples = [g.adj for n in range(6) for g in enumerate_labeled_graphs(n)]
    samples.append(random_graph(random.Random(60), 60, 0.5).adj)
    samples.append(random_graph(random.Random(100), 100, 0.9).adj)
    for adj in samples:
        rows = list(adj)
        for core in (decompose._greedy_run, decompose._erdos_cliques):
            first = core(rows)
            assert rows == list(adj), (adj, core.__name__)
            assert core(rows) == first, (adj, core.__name__)


@st.composite
def large_graphs(draw):
    """Graphs with 60 to 2000 vertices and at most about 20000 edges."""
    n = draw(st.integers(60, 2000))
    p = draw(st.floats(0, 1)) * min(1.0, 20000 / (n * (n - 1) // 2))
    return sparse_random_graph(random.Random(draw(st.integers(0, 2**32))), n, p)


class TestLargeGraphs:
    @given(large_graphs(), seeds)
    @settings(max_examples=15)
    def test_greedy_is_valid(self, g, seed):
        assert validate_greedy(g, greedy_decomposition(g, seed)) == []

    @given(large_graphs())
    @settings(max_examples=5)
    def test_erdos_contract(self, g):
        p = erdos_partition(g)
        assert validate_partition(g, p) == []
        assert len(p.cliques) <= quarter_square(g.n)
        assert all(len(c) <= 3 for c in p.cliques)
        incidence = [[] for _ in range(g.n)]
        for k, cl in enumerate(p.cliques):
            for v in cl:
                incidence[v].append(k)
        assert len(set(map(tuple, incidence))) == g.n


class TestValidateGreedy:
    def test_edge_partition_of_triangle_not_maximal(self):
        k3 = complete_graph(3)
        d = GreedyDecomposition(k3, ((0, 1), (1, 2), (0, 2)))
        problems = validate_greedy(k3, d)
        assert any(v.kind == "not_maximal" and v.position == 0 and v.vertex == 2
                   for v in problems)

    def test_whole_triangle_ok(self):
        k3 = complete_graph(3)
        assert validate_greedy(k3, GreedyDecomposition(k3, ((0, 1, 2),))) == []

    def test_cycle_edges_any_order_ok(self):
        c4 = cycle_graph(4)
        seq = ((1, 2), (0, 1), (2, 3), (0, 3))
        assert validate_greedy(c4, GreedyDecomposition(c4, seq)) == []

    def test_double_cover_and_uncovered(self):
        g = graph(4, [(0, 1), (2, 3)])
        d = GreedyDecomposition(g, ((0, 1), (0, 1)))
        kinds = {v.kind for v in validate_greedy(g, d)}
        assert "double_cover" in kinds
        assert "duplicate_clique" in kinds
        assert "uncovered_edge" in kinds

    def test_missing_isolated_vertex(self):
        g = graph(2, [])
        d = GreedyDecomposition(g, ((0,),))
        kinds = {v.kind for v in validate_greedy(g, d)}
        assert kinds == {"isolated_vertex_uncovered"}

    def test_not_a_clique(self):
        g = path_graph(3)
        d = GreedyDecomposition(g, ((0, 1, 2),))
        assert any(v.kind == "not_a_clique" and v.pair == (0, 2)
                   for v in validate_greedy(g, d))

    def test_garbage_entries(self):
        g = path_graph(2)
        d = GreedyDecomposition(g, ((), (0, 5), (1, 1)))
        kinds = {v.kind for v in validate_greedy(g, d)}
        assert {"empty_clique", "bad_vertex", "repeated_vertex"} <= kinds


class TestValidatePartition:
    def test_triangle_whole(self):
        k3 = complete_graph(3)
        assert validate_partition(k3, CliquePartition.from_cliques(k3, [(0, 1, 2)])) == []

    def test_uncovered_pair(self):
        k3 = complete_graph(3)
        p = CliquePartition.from_cliques(k3, [(0, 1), (1, 2)])
        problems = validate_partition(k3, p)
        assert [v for v in problems
                if v.kind == "miscovered_edge" and v.pair == (0, 2) and v.observed == 0]

    def test_isolated_convention(self):
        g = empty_graph(2)
        good = CliquePartition.from_cliques(g, [(0,), (1,)])
        assert validate_partition(g, good) == []
        bad = CliquePartition.from_cliques(g, [(0,)])
        problems = validate_partition(g, bad)
        assert [v for v in problems
                if v.kind == "isolated_vertex_uncovered" and v.vertex == 1]

    def test_covered_nonedge(self):
        g = path_graph(3)
        p = CliquePartition.from_cliques(g, [(0, 1, 2)])
        kinds = {v.kind for v in validate_partition(g, p)}
        assert "not_a_clique" in kinds
        assert "covered_nonedge" in kinds

    def test_double_cover_counts(self):
        k3 = complete_graph(3)
        p = CliquePartition.from_cliques(k3, [(0, 1, 2), (0, 1)])
        assert [v for v in validate_partition(k3, p)
                if v.kind == "miscovered_edge" and v.pair == (0, 1) and v.observed == 2]

    def test_extra_trivial_cliques_are_legal(self):
        g = path_graph(2)
        p = CliquePartition.from_cliques(g, [(0, 1), (0,)])
        assert validate_partition(g, p) == []

    def test_empty_graph_empty_partition(self):
        g = empty_graph(0)
        assert validate_partition(g, CliquePartition.from_cliques(g, [])) == []


class TestErdosPartition:
    def test_k23_uses_the_full_budget(self):
        k23 = complete_bipartite(2, 3)
        p = erdos_partition(k23)
        assert validate_partition(k23, p) == []
        assert len(p.cliques) == 6 == quarter_square(5)
        assert all(len(c) == 2 for c in p.cliques)

    def test_k4_matches_brute_force_minimum(self):
        # K4 and every other graph with n <= 4 runs the base case alone: its
        # search must find the minimum on each of the 1 + 2 + 8 + 64 of them
        checked = 0
        for n in range(1, 5):
            for g in enumerate_labeled_graphs(n):
                p = erdos_partition(g)
                assert validate_partition(g, p) == []
                assert all(len(c) <= 3 for c in p.cliques)
                assert condition_one_holds(p)
                assert len(p.cliques) == _brute_min_small_partition(g), g.edges
                checked += 1
        assert checked == 75
        assert len(erdos_partition(complete_graph(4)).cliques) == 4

    def test_empty_graph_on_4(self):
        p = erdos_partition(empty_graph(4))
        assert p.cliques == ((0,), (1,), (2,), (3,))
        assert len(p.cliques) == 4 == quarter_square(4)

    def test_zero_vertices_give_the_empty_partition(self):
        assert erdos_partition(empty_graph(0)).cliques == ()

    def test_single_vertex(self):
        assert erdos_partition(empty_graph(1)).cliques == ((0,),)

    def test_deterministic(self):
        g = cycle_graph(6)
        assert erdos_partition(g) == erdos_partition(g)

    def test_dense_graphs_take_the_triangle_branch(self):
        # every vertex of K5/K6 has degree above floor(n/2), so the
        # construction must pair neighbors into triangles
        for n in (5, 6):
            k = complete_graph(n)
            p = erdos_partition(k)
            assert validate_partition(k, p) == []
            assert any(len(c) == 3 for c in p.cliques)
            assert len(p.cliques) <= quarter_square(n)
            assert condition_one_holds(p)

    def test_exhaustive_n4_bound_and_distinctness(self):
        for g in enumerate_labeled_graphs(4):
            p = erdos_partition(g)
            assert validate_partition(g, p) == []
            assert all(len(c) <= 3 for c in p.cliques)
            assert len(p.cliques) <= quarter_square(4)
            assert condition_one_holds(p)

    def test_labeled_base_cache_is_bounded_and_order_free(self):
        # A labeled key at n=5 is 4 of the 5 vertices plus a subset of the
        # 6 pairs among them, so one pass fills at most 5 * 64 entries.
        base = decompose._erdos_base
        assert base.cache_info().maxsize is not None
        base.cache_clear()
        for g in enumerate_labeled_graphs(5):
            erdos_partition(g)
        assert 0 < base.cache_info().currsize <= 5 * 64
        base.cache_clear()
        for g in reversed(list(enumerate_labeled_graphs(5))):
            assert erdos_partition(g).cliques == reference_erdos(g), g.edges

    #: (n, mask) -> erdos_partition cliques, recorded before the search
    #: kernel was shared, for every base graph whose result changes when the
    #: triangles through an edge are tried before the edge itself.
    EDGE_FIRST = {
        (3, 7): [[0, 1], [0, 2], [1, 2]],
        (4, 11): [[0, 1], [0, 2], [1, 2], [3]],
        (4, 21): [[0, 1], [0, 3], [1, 3], [2]],
        (4, 31): [[0, 1, 2], [0, 3], [1, 3]],
        (4, 38): [[0, 2], [0, 3], [1], [2, 3]],
        (4, 47): [[0, 1], [0, 2, 3], [1, 2]],
        (4, 55): [[0, 1], [0, 2, 3], [1, 3]],
        (4, 56): [[0], [1, 2], [1, 3], [2, 3]],
        (4, 59): [[0, 1], [0, 2], [1, 2, 3]],
        (4, 61): [[0, 1], [0, 3], [1, 2, 3]],
        (4, 62): [[0, 2], [0, 3], [1, 2, 3]],
        (4, 63): [[0, 1], [0, 2], [0, 3], [1, 2, 3]],
    }

    def test_base_tie_breaks_try_the_edge_before_triangles(self):
        for (n, mask), cliques in self.EDGE_FIRST.items():
            p = erdos_partition(graph_from_bitmask(n, mask))
            assert p.to_json()["cliques"] == cliques, (n, mask)

    def test_matches_the_reference_on_small_graphs(self):
        for n in (5, 6):
            for i, g in enumerate(enumerate_labeled_graphs(n)):
                if n == 5 or i % 13 == 0:
                    assert erdos_partition(g).cliques == reference_erdos(g), (n, i)

    def test_matches_the_reference_on_random_graphs(self):
        rng = random.Random(2026)
        for _ in range(40):
            n = rng.randint(5, 300)
            p = rng.choice([0.01, 0.05, 0.3, 0.5, 0.7, 0.9, 1.0])
            g = graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            assert erdos_partition(g).cliques == reference_erdos(g), (n, p)

    def test_matches_the_reference_on_a_long_path(self):
        g = path_graph(2000)
        assert erdos_partition(g).cliques == reference_erdos(g)

    @given(graphs(min_n=1))
    @settings(max_examples=80)
    def test_contract_holds(self, g):
        p = erdos_partition(g)
        assert validate_partition(g, p) == []
        assert all(len(c) <= 3 for c in p.cliques)
        if g.n >= 4:
            assert len(p.cliques) <= quarter_square(g.n)
            assert condition_one_holds(p)


def _degrees(g):
    return list(map(int.bit_count, g.adj))


class TestErdosLoops:
    """_erdos_cliques runs one of two deletion loops, chosen by a density
    rule; each gives the reference cliques on graphs on both sides of it."""

    def loop_graphs(self):
        rng = random.Random(38)
        yield from (complete_graph(n) for n in range(8, 31))
        for n in range(8, 31, 2):
            yield remove_edges(complete_graph(n), [(v, v + 1) for v in range(0, n, 2)])
        yield from (complete_bipartite(a, b) for a, b in [(4, 4), (5, 9), (20, 20), (31, 50)])
        for _ in range(12):
            n = rng.randint(8, 200)
            yield random_graph(rng, n, rng.uniform(0.9, 0.99))
        yield graph(1000, [(0, v) for v in range(1, 1000)])
        yield graph(1000, [(v, 999) for v in range(999)])
        yield path_graph(2000)
        yield sparse_random_graph(random.Random(1200), 1200, 4 / 1200)

    def test_each_loop_matches_the_reference(self):
        for g in self.loop_graphs():
            want = reference_erdos(g)
            for loop in (decompose._erdos_sparse, decompose._erdos_dense):
                alive, rows, cliques = loop(g.adj, _degrees(g))
                cliques += decompose._erdos_base.__wrapped__(alive, rows)
                assert tuple(sorted(cliques)) == want, (loop.__name__, g.n)

    def test_the_rule_splits_these_graphs(self, monkeypatch):
        # The dense loop runs when n > 7 and the mean degree exceeds n/8.
        taken = []
        for name in ("_erdos_sparse", "_erdos_dense"):
            real = getattr(decompose, name)
            monkeypatch.setattr(decompose, name, lambda rows, deg, real=real, name=name:
                                taken.append(name) or real(rows, deg))

        def loop(g):
            erdos_partition(g)
            return taken.pop()

        assert {loop(complete_graph(n)) for n in range(8, 31)} == {"_erdos_dense"}
        assert loop(random_graph(random.Random(500), 500, 0.5)) == "_erdos_dense"
        assert loop(complete_bipartite(31, 50)) == "_erdos_dense"
        # K_8 less a perfect matching: mean degree 6 against 1.
        assert loop(remove_edges(complete_graph(8), [(0, 1), (2, 3), (4, 5), (6, 7)])) == "_erdos_dense"
        # 4 edges on 8 vertices: mean degree 1, not above 1.
        assert loop(graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])) == "_erdos_sparse"
        assert loop(complete_graph(7)) == "_erdos_sparse"
        assert loop(path_graph(2000)) == "_erdos_sparse"
        assert loop(graph(1000, [(0, v) for v in range(1, 1000)])) == "_erdos_sparse"
        assert loop(sparse_random_graph(random.Random(1200), 1200, 4 / 1200)) == "_erdos_sparse"
        assert taken == []
        # The sweep's graphs, n <= 7, never take the dense loop: the densest
        # 256 masks of n = 6 and n = 7 give the same results with it refused.
        want = [oracle._sweep_range(n, (1 << n * (n - 1) // 2) - 256, 1 << n * (n - 1) // 2)
                for n in (6, 7)]

        def refuse(rows, deg):
            raise AssertionError("the dense loop ran on a sweep graph")

        monkeypatch.setattr(decompose, "_erdos_dense", refuse)
        assert [oracle._sweep_range(n, (1 << n * (n - 1) // 2) - 256, 1 << n * (n - 1) // 2)
                for n in (6, 7)] == want
        assert set(taken) == {"_erdos_sparse"}

    def test_the_pairing_removes_each_triangle_it_forms(self, monkeypatch):
        # No edge of a triangle the pairing appends is left in the rows, at
        # either end, so neither loop clears one itself. Only K_7 of these
        # pairs in the per-edge loop.
        real = decompose._pair_neighbours
        formed = []

        def checked(adj, x, nbr_mask, r, cliques):
            start = len(cliques)
            used = real(adj, x, nbr_mask, r, cliques)
            assert len(cliques) - start == r
            for triangle in cliques[start:]:
                for u, w in combinations(triangle, 2):
                    assert not adj[u] >> w & 1 and not adj[w] >> u & 1, (triangle, u, w)
            formed.append(r)
            return used

        monkeypatch.setattr(decompose, "_pair_neighbours", checked)
        for g in (*self.loop_graphs(), complete_graph(7)):
            erdos_partition(g)
        assert sum(formed) > 1000

    def test_a_stalled_pairing_raises(self):
        # Vertex 0 has three neighbours and none of them are adjacent: no
        # pair among them can be matched.
        adj = [0b1110, 0b1, 0b1, 0b1]
        with pytest.raises(RuntimeError, match="^neighborhood pairing stalled at 0 of 1 edges"):
            decompose._pair_neighbours(adj, 0, 0b1110, 1, [])

    #: sha256 of json.dumps(erdos_partition(g).to_json()), recorded before
    #: _erdos_cliques had a dense loop. G(n, p) is
    #: random_graph(random.Random(n), n, p).
    DIGESTS = {
        (100, 0.5): "f66a993f8a31f1cbd5666de2dee1b493402fb0f9c01b0684e6659747d080639e",
        (100, 0.9): "1575f534a870a4f587d2eed1aee45113df1f7f18f6972b5f5b17fc533fa4d688",
        (300, 0.5): "d28765f19b25c1685d2abf7f6a0d4e2510f59e23c0379c91a3f8897cf144f0e8",
        (300, 0.9): "49b10b99b74d24a1b4a620e40069882ca164a728da043f2e35d242666678d825",
        (500, 0.5): "34b6b353ccd68498fa076b9ae3f49fe580b3f16a7e72a7981cb7b9f99110b810",
        (500, 0.9): "d28211a6ffc6652b64a59933a032120ada18a646e04986b7fd001e8b8e884e80",
        "K_250,250": "017552e7d165c32866b98b82a02aa6ffda285e4da62d9ce32b7c5dd382ce542e",
        "K_30": "48765c45c222fd9d22deeeb969d115e0981728546f40ee6f0fb0ea4b13117710",
    }

    def test_pinned_digests(self):
        special = {"K_250,250": complete_bipartite(250, 250), "K_30": complete_graph(30)}
        for key, digest in self.DIGESTS.items():
            g = special[key] if key in special else random_graph(random.Random(key[0]), *key)
            text = json.dumps(erdos_partition(g).to_json())
            assert hashlib.sha256(text.encode()).hexdigest() == digest, key


def test_small_graph_digests():
    # sha256 of the reprs of _erdos_cliques and of _greedy_run on the rows
    # of every labeled graph with n <= 6, in _labeled_graphs order,
    # recorded before _pair_neighbours removed whole triangles.
    erdos, greedy = hashlib.sha256(), hashlib.sha256()
    for n in range(7):
        for rows in _labeled_graphs(n, 0, 1 << n * (n - 1) // 2):
            erdos.update(repr(decompose._erdos_cliques(rows)).encode())
            greedy.update(repr(decompose._greedy_run(rows)).encode())
    assert erdos.hexdigest() == "a7d37f278f8e1616cb91633d80f2b5aad3ee37d499232be3d6db7cfd6db1a717"
    assert greedy.hexdigest() == "82d94784897ec92700e6a733e08065345aca2b93728c14d8a74901427c0b85db"


def _brute_min_small_partition(g) -> int:
    """Independent minimum over partitions into cliques of <= 3 vertices with
    pairwise-distinct incidence sets: enumerate every way to split the edges
    into edges/triangles, then charge forced trivial cliques."""
    edges = sorted(g.edges)
    best = [None]

    def rec(remaining, blocks):
        if not remaining:
            incidence = {v: frozenset(i for i, b in enumerate(blocks) if v in b)
                         for v in range(g.n)}
            iso = [v for v in range(g.n) if g.adj[v] == 0]
            groups = {}
            for v in range(g.n):
                if g.adj[v]:
                    groups.setdefault(incidence[v], []).append(v)
            extras = sum(len(m) - 1 for m in groups.values() if len(m) > 1)
            cost = len(blocks) + len(iso) + extras
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        (u, v), rest = remaining[0], remaining[1:]
        rec(rest, blocks + [(u, v)])
        for w in range(g.n):
            if w in (u, v):
                continue
            a, b = (min(u, w), max(u, w)), (min(v, w), max(v, w))
            if a in rest and b in rest:
                nxt = [e for e in rest if e not in (a, b)]
                rec(nxt, blocks + [tuple(sorted((u, v, w)))])

    rec(edges, [])
    return best[0]


class TestQuarterSquare:
    def test_values(self):
        assert [quarter_square(n) for n in range(1, 8)] == [0, 1, 2, 4, 6, 9, 12]

    def test_recursion_identity_small(self):
        for n in range(1, 2000):
            assert quarter_square(n) == quarter_square(n - 1) + n // 2


class TestJsonRoundTrip:
    def test_partition(self):
        k3 = complete_graph(3)
        p = CliquePartition.from_cliques(k3, [(0, 1, 2)])
        assert CliquePartition.from_json(p.to_json(), k3) == p

    def test_decomposition(self):
        g = path_graph(3)
        d = greedy_decomposition(g)
        assert GreedyDecomposition.from_json(d.to_json(), g) == d

    def test_rejects_mismatched_n(self):
        k3 = complete_graph(3)
        doc = {"n": 4, "ordered": False, "cliques": [[0, 1, 2]]}
        with pytest.raises(ValueError, match="does not match"):
            CliquePartition.from_json(doc, k3)

    def test_rejects_bad_schema(self):
        k3 = complete_graph(3)
        for doc, message in (
            ([], "artifact must be a JSON object"),
            ({"n": 3, "cliques": [[0]]}, "artifact is missing the 'ordered' key"),
            ({"n": 3, "ordered": 1, "cliques": []}, "artifact 'ordered' must be a boolean"),
            ({"n": 3, "ordered": False, "cliques": {}}, "artifact 'cliques' must be an array"),
            ({"n": 3, "ordered": False, "cliques": [[0, "x"]]},
             "each clique must be an array of integers"),
        ):
            with pytest.raises(ValueError) as exc:
                CliquePartition.from_json(doc, k3)
            assert str(exc.value) == message
