import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquerep import (
    LEXICOGRAPHIC,
    CliquePartition,
    GreedyDecomposition,
    GreedyStrategy,
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
    seeded_strategy,
    validate_greedy,
    validate_partition,
)
from cliquerep import decompose
from helpers import reference_greedy, sparse_random_graph


@st.composite
def graphs(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    return graph_from_bitmask(n, draw(st.integers(0, (1 << m) - 1)))


@st.composite
def strategies(draw):
    if draw(st.booleans()):
        return LEXICOGRAPHIC
    return seeded_strategy(draw(st.integers(0, 2**63)))


def condition_one_holds(p: CliquePartition) -> bool:
    return distinctness(representation_from_partition(p)).is_family


class TestStrategy:
    def test_lexicographic_order(self):
        assert LEXICOGRAPHIC.vertex_order(4) == (0, 1, 2, 3)

    def test_seeded_is_reproducible(self):
        a = seeded_strategy(42).vertex_order(8)
        b = seeded_strategy(42).vertex_order(8)
        assert a == b
        assert sorted(a) == list(range(8))

    def test_different_seeds_differ_somewhere(self):
        orders = {seeded_strategy(s).vertex_order(8) for s in range(20)}
        assert len(orders) > 1

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            GreedyStrategy("seeded-random")
        with pytest.raises(ValueError):
            GreedyStrategy("lexicographic", seed=3)
        with pytest.raises(ValueError):
            GreedyStrategy("alphabetical")

    def test_describe(self):
        assert LEXICOGRAPHIC.describe() == "lex"
        assert seeded_strategy(7).describe() == "random:7"


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
        seqs = {greedy_decomposition(g, seeded_strategy(s)).sequence for s in range(10)}
        assert any(s != lex for s in seqs)

    @given(graphs(), strategies())
    def test_always_valid(self, g, strategy):
        d = greedy_decomposition(g, strategy)
        assert validate_greedy(g, d) == []
        assert validate_partition(g, d.as_partition()) == []

    @given(graphs(), strategies())
    def test_deterministic(self, g, strategy):
        assert greedy_decomposition(g, strategy) == greedy_decomposition(g, strategy)

    def test_exhaustive_small_all_valid(self):
        strats = [LEXICOGRAPHIC, seeded_strategy(1), seeded_strategy(2)]
        for n in range(5):
            for g in enumerate_labeled_graphs(n):
                for s in strats:
                    d = greedy_decomposition(g, s)
                    assert not validate_greedy(g, d)


def _seeded_via_lex(g, strategy):
    """The seeded run predicted from the lexicographic one: relabel g by
    sigma(order[i]) = i, run lex, and map each clique back through
    sigma^-1."""
    order = strategy.vertex_order(g.n)
    sigma = {v: i for i, v in enumerate(order)}
    relabeled = graph(g.n, [(sigma[u], sigma[v]) for u, v in g.edges])
    lex = greedy_decomposition(relabeled, LEXICOGRAPHIC).sequence
    return tuple(tuple(sorted(order[i] for i in cl)) for cl in lex)


class TestSeededIsRelabeledLex:
    """A seeded run on g is the lexicographic run on the relabeled graph:
    the sweep derives every seeded strategy's results from this."""

    SEEDS = range(1, 11)

    def test_every_graph_up_to_n5(self):
        for n in range(6):
            for g in enumerate_labeled_graphs(n):
                for seed in self.SEEDS:
                    s = seeded_strategy(seed)
                    assert greedy_decomposition(g, s).sequence == _seeded_via_lex(g, s)

    def test_every_seventh_graph_at_n6(self):
        for mask in range(0, 1 << 15, 7):
            g = graph_from_bitmask(6, mask)
            for seed in self.SEEDS:
                s = seeded_strategy(seed)
                assert greedy_decomposition(g, s).sequence == _seeded_via_lex(g, s)

    @given(graphs(max_n=12), st.integers(-2**70, 2**70))
    @settings(max_examples=200)
    def test_any_graph_any_seed(self, g, seed):
        s = seeded_strategy(seed)
        assert greedy_decomposition(g, s).sequence == _seeded_via_lex(g, s)


class TestReferenceGreedy:
    """Exact sequences against the direct order-scanning greedy, which knows
    nothing of the relabeling: a drift in lexicographic tie-breaking shows
    here, where TestSeededIsRelabeledLex (lex on both sides) cannot see it."""

    STRATEGIES = [LEXICOGRAPHIC] + [seeded_strategy(s) for s in range(1, 11)]

    def assert_matches(self, g, strategies=STRATEGIES):
        for s in strategies:
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
            self.assert_matches(g, [LEXICOGRAPHIC, seeded_strategy(rng.randrange(10**6))])

    def test_complete_bipartite_and_complete(self):
        self.assert_matches(complete_bipartite(30, 30))
        self.assert_matches(complete_graph(12))


@st.composite
def large_graphs(draw):
    """Graphs with 60 to 2000 vertices and at most about 20000 edges."""
    n = draw(st.integers(60, 2000))
    p = draw(st.floats(0, 1)) * min(1.0, 20000 / (n * (n - 1) // 2))
    return sparse_random_graph(random.Random(draw(st.integers(0, 2**32))), n, p)


class TestLargeGraphs:
    @given(large_graphs(), strategies())
    @settings(max_examples=15)
    def test_greedy_is_valid(self, g, strategy):
        assert validate_greedy(g, greedy_decomposition(g, strategy)) == []

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
        k4 = complete_graph(4)
        p = erdos_partition(k4)
        assert validate_partition(k4, p) == []
        assert all(len(c) <= 3 for c in p.cliques)
        assert condition_one_holds(p)
        assert len(p.cliques) == _brute_min_small_partition(k4) == 4

    def test_empty_graph_on_4(self):
        p = erdos_partition(empty_graph(4))
        assert p.cliques == ((0,), (1,), (2,), (3,))
        assert len(p.cliques) == 4 == quarter_square(4)

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError):
            erdos_partition(empty_graph(0))

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

    def test_base_cases_are_memoized_on_at_most_75_inputs(self):
        for g in enumerate_labeled_graphs(5):
            erdos_partition(g)
        assert 0 < decompose._erdos_base_local.cache_info().currsize <= 1 + 2 + 8 + 64

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

    @given(graphs(min_n=1))
    @settings(max_examples=80)
    def test_contract_holds(self, g):
        p = erdos_partition(g)
        assert validate_partition(g, p) == []
        assert all(len(c) <= 3 for c in p.cliques)
        if g.n >= 4:
            assert len(p.cliques) <= quarter_square(g.n)
            assert condition_one_holds(p)


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
        for doc in (
            [],
            {"n": 3, "cliques": [[0]]},
            {"n": 3, "ordered": 1, "cliques": []},
            {"n": 3, "ordered": False, "cliques": [[0, "x"]]},
        ):
            with pytest.raises(ValueError):
                CliquePartition.from_json(doc, k3)
