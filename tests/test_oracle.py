import hashlib
import json
import os
import random
import time
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquerep import (
    CliquePartition,
    GreedyDecomposition,
    all_clique_partitions,
    check_rs_bound,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    edge_bitmask,
    empty_graph,
    enumerate_labeled_graphs,
    exhaustive_bound_check,
    graph,
    graph_from_bitmask,
    greedy_decomposition,
    min_clique_partition,
    min_distinct_representation,
    path_graph,
    quarter_square,
    validate_partition,
    validate_representation,
)
from cliquerep import decompose, oracle
from cliquerep.decompose import (
    _cliques_needed,
    _cliques_through_edge,
    _edge_or_triangles,
    _vertex_order,
)
from cliquerep.graphs import bits
from helpers import (
    brute_cp,
    brute_omega,
    graphs,
    has_triangle,
    random_graph,
    reference_edge_partitions,
    reference_lemma6,
    reference_rs_bound,
    reference_sweep,
    sparse_random_graph,
    with_extra_trivial,
)


@pytest.mark.parametrize("search", [min_clique_partition, min_distinct_representation],
                         ids=["cp", "omega"])
def test_budget(search):
    # Both exact searches share one cap.
    cap = oracle.CP_MAX_N
    with pytest.raises(ValueError, match=rf"^n={cap + 1} exceeds the n<={cap} search budget$"):
        search(empty_graph(cap + 1))


class TestMinCliquePartition:
    def test_complete_graph(self):
        value, witness = min_clique_partition(complete_graph(4))
        assert value == 1
        assert witness.cliques == ((0, 1, 2, 3),)

    def test_k22(self):
        value, witness = min_clique_partition(complete_bipartite(2, 2))
        assert value == 4
        assert validate_partition(complete_bipartite(2, 2), witness) == []

    def test_pentagon(self):
        c5 = cycle_graph(5)
        assert not has_triangle(c5)
        value, _ = min_clique_partition(c5)
        assert value == len(c5.edges) == 5

    def test_isolated_vertices_counted(self):
        g = graph(4, [(0, 1)])
        value, witness = min_clique_partition(g)
        assert value == 3
        assert witness.cliques == ((0, 1), (2,), (3,))

    def test_petersen(self):
        # triangle-free and 3-regular, so the minimum is one clique per edge
        outer = [(v, (v + 1) % 5) for v in range(5)]
        inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
        spokes = [(v, v + 5) for v in range(5)]
        g = graph(10, outer + inner + spokes)
        assert not has_triangle(g)
        value, _ = min_clique_partition(g)
        assert value == 15

    def test_matches_set_partition_oracle_exhaustively(self):
        for n in range(5):
            for g in enumerate_labeled_graphs(n):
                value, witness = min_clique_partition(g)
                assert value == brute_cp(g)
                assert validate_partition(g, witness) == []
                assert len(witness.cliques) == value


def dense_panel(count):
    """The first count graphs of the fixed G(10, 36) panel (p = 0.8) of the
    exact-search benchmark, drawn the same way with the stdlib."""
    rng = random.Random("exact-search:panel")
    pairs = list(combinations(range(10), 2))
    return [graph(10, sorted(rng.sample(pairs, 36))) for _ in range(count)]


def cliques_needed(adj, limit=float("inf")):
    """_cliques_needed on a whole graph: its non-isolated vertices are free."""
    return _cliques_needed(adj, reduce(or_, adj, 0), limit)


class TestCliquesNeededBound:
    #: Branching nodes (calls of the options callback) of
    #: min_clique_partition on the first dense panel graphs. With the
    #: "one more clique" bound they were 334065, 73290 and 125139, 6657,
    #: 3230 and 2450 while forced edges still called options, and 5113,
    #: 2465 and 1833 while the bound was evaluated after every forced edge
    #: (a cut inside a forced run is now delayed to the run's end).
    NODES = [5152, 2484, 1838]

    #: Bound evaluations (calls of _cliques_needed), one per node visited,
    #: the root included, on the same graphs. A node ends with its run of
    #: forced edges, so the bound is evaluated once per run; it was 28462,
    #: 11932 and 9606 while every forced edge was a node of its own.
    BOUND_CALLS = [27023, 11227, 9010]

    #: min_clique_partition witnesses on the same graphs, recorded under
    #: the "one more clique" bound: a stronger bound must not change them.
    WITNESSES = [
        [[0, 1, 2, 5], [0, 3, 4, 6], [0, 7, 8, 9], [1, 4, 7], [1, 6, 9], [1, 8],
         [2, 4, 9], [2, 6, 7], [3, 8], [4, 5, 8], [5, 9]],
        [[0, 1, 3, 7], [0, 2, 9], [0, 6], [0, 8], [1, 4, 8], [1, 5, 9], [2, 3, 4, 5],
         [3, 6, 8, 9], [4, 7, 9], [5, 6], [5, 7, 8]],
        [[0, 1, 2, 3, 5, 6, 7], [0, 4, 8], [0, 9], [1, 4], [2, 8, 9], [3, 4, 9], [4, 6],
         [4, 7], [7, 8], [7, 9]],
    ]

    #: Branching nodes of min_distinct_representation over all 1024
    #: labeled 5-vertex graphs (3660 while forced edges still called
    #: options), its bound evaluations there (5707 with one per forced
    #: edge), and the sha256 of its results there, one json.dumps([value,
    #: witness], sort_keys=True) per graph in mask order.
    OMEGA_NODES = 808
    OMEGA_BOUND_CALLS = 2855
    OMEGA_DIGEST = "11bf6b99acd19dbce9d3b2d5a5573dc55fb22d86d5e50feb1d79451eba99351c"

    @pytest.fixture
    def option_calls(self, monkeypatch):
        """Counts calls of the options callback, one per branching node."""
        calls = [0]
        options = oracle._cliques_through_edge

        def counting(residual, u, v):
            calls[0] += 1
            return options(residual, u, v)

        monkeypatch.setattr(oracle, "_cliques_through_edge", counting)
        return calls

    @pytest.fixture
    def bound_calls(self, monkeypatch):
        """Counts calls of _cliques_needed, one per node the search visits."""
        calls = [0]
        needed = decompose._cliques_needed

        def counting(residual, free, limit):
            calls[0] += 1
            return needed(residual, free, limit)

        monkeypatch.setattr(decompose, "_cliques_needed", counting)
        return calls

    def test_branching_nodes_are_pinned(self, option_calls):
        nodes = []
        for g in dense_panel(len(self.NODES)):
            option_calls[0] = 0
            min_clique_partition(g)
            nodes.append(option_calls[0])
        assert nodes == self.NODES

    def test_bound_calls_are_pinned(self, bound_calls):
        calls = []
        for g in dense_panel(len(self.BOUND_CALLS)):
            bound_calls[0] = 0
            min_clique_partition(g)
            calls.append(bound_calls[0])
        assert calls == self.BOUND_CALLS

    def test_omega_nodes_and_witnesses_are_pinned(self, option_calls, bound_calls):
        digest = hashlib.sha256()
        for g in enumerate_labeled_graphs(5):
            value, witness = min_distinct_representation(g)
            digest.update(json.dumps([value, witness.to_json()], sort_keys=True).encode())
        assert option_calls[0] == self.OMEGA_NODES
        assert bound_calls[0] == self.OMEGA_BOUND_CALLS
        assert digest.hexdigest() == self.OMEGA_DIGEST

    @pytest.mark.slow
    def test_worst_known_n10_graph_within_the_readme_budget(self, option_calls):
        # K_10 minus {1,2} and {1,8}, the slowest of the 836 n=10 graphs the
        # README's "Search budgets" names; VM slowdowns reach 1.7x.
        g = graph(10, [e for e in complete_graph(10).edges if e not in ((1, 2), (1, 8))])
        start = time.perf_counter()
        value, witness = min_clique_partition(g)
        assert time.perf_counter() - start < 60
        # 230373 while the bound was evaluated after every forced edge
        assert option_calls[0] == 231032
        assert value == 8
        assert witness.cliques == ((0, 1), (0, 2, 3, 4, 5, 6, 7, 8, 9), (1, 3), (1, 4),
                                   (1, 5), (1, 6), (1, 7), (1, 9))

    @pytest.mark.slow
    def test_worst_known_n10_graph_within_the_omega_budget(self, option_calls):
        # The same graph, the slowest cp graph, under min_distinct_representation.
        g = graph(10, [e for e in complete_graph(10).edges if e not in ((1, 2), (1, 8))])
        start = time.perf_counter()
        value, witness = min_distinct_representation(g)
        assert time.perf_counter() - start < 60
        assert option_calls[0] == 232311
        assert value == 9
        assert witness.to_json() == {
            "n": 10, "ground_size": 9,
            "sets": [[0, 1], [0, 2, 3, 4, 5, 6, 7], [1], [1, 2], [1, 3], [1, 4], [1, 5],
                     [1, 6], [1, 8], [1, 7]]}

    def test_witnesses_are_pinned(self):
        for g, cliques in zip(dense_panel(len(self.WITNESSES)), self.WITNESSES):
            value, witness = min_clique_partition(g)
            assert witness.to_json() == {"n": 10, "ordered": False, "cliques": cliques}
            assert value == len(cliques)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_minimum_and_bound_against_the_unpruned_enumeration(self, g):
        # all_clique_partitions passes no prune, so it never reads the bound
        value = min(len(p.cliques) for p in all_clique_partitions(g))
        assert min_clique_partition(g)[0] == value
        isolated = sum(1 for m in g.adj if m == 0)
        assert cliques_needed(g.adj) <= value - isolated

    def test_bound_on_known_graphs(self):
        # K_n: one clique; K_{a,b}: all a*b edges, since I is one side and
        # every neighborhood is independent; C5: I = {0, 2}, two edges each
        assert cliques_needed(complete_graph(6).adj) == 1
        assert cliques_needed(complete_bipartite(3, 4).adj) == 12
        assert cliques_needed(cycle_graph(5).adj) == 4
        assert cliques_needed(empty_graph(4).adj) == 0

    def test_early_stop_against_the_full_bound(self):
        # Below limit the count is the full bound; at or above it, the
        # count may stop anywhere from limit up to the full bound.
        rng = random.Random("cliques-needed:limit")
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            full = cliques_needed(g.adj)
            for limit in range(full + 2):
                need = cliques_needed(g.adj, limit)
                if full < limit:
                    assert need == full
                else:
                    assert limit <= need <= full


def brute_options(adj, u, v):
    """Every clique of adj through the edge (u, v) with its mask, from the
    subsets of the common neighbours: largest first, lexicographic within
    a size, as u, v and then the others ascending."""
    common = list(bits(adj[u] & adj[v]))
    found = []
    for k in range(len(common), -1, -1):
        for rest in combinations(common, k):
            if all(adj[a] >> b & 1 for a, b in combinations(rest, 2)):
                members = (u, v) + rest
                found.append((members, sum(1 << w for w in members)))
    return found


class TestSearchOptions:
    """The option contract of the kernel: each option is a clique through
    the branching edge with its vertex mask, in a fixed order."""

    def seeded_edges(self):
        rng = random.Random("search-options")
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.3, 1.0))
            for u, v in sorted(g.edges):
                yield list(g.adj), u, v

    def test_cliques_through_edge_against_the_subsets(self):
        for adj, u, v in self.seeded_edges():
            options = _cliques_through_edge(adj, u, v)
            # each clique once, in the brute force's order, with its mask
            assert options == brute_options(adj, u, v)
            if u < v < min(bits(adj[u] & adj[v]), default=v + 1):
                # sorted tuples, as at the kernel's smallest uncovered edge
                assert all(cl == tuple(sorted(cl)) for cl, _ in options)

    def test_edge_or_triangles_puts_the_edge_first(self):
        for adj, u, v in self.seeded_edges():
            common = list(bits(adj[u] & adj[v]))
            base = 1 << u | 1 << v
            assert _edge_or_triangles(adj, u, v) == [((u, v), base)] + [
                ((u, v, w), base | 1 << w) for w in common]


class TestWitnessIdentity:
    """sha256 digests of the search's outputs on every small labeled graph,
    in mask order. Node and bound counts may move when the kernel's costs
    change; these may not."""

    def test_min_clique_partition_on_every_n6_graph(self):
        # one json.dumps([value, cliques]) per graph
        digest = hashlib.sha256()
        for g in enumerate_labeled_graphs(6):
            value, witness = min_clique_partition(g)
            digest.update(json.dumps([value, witness.to_json()["cliques"]]).encode())
        assert digest.hexdigest() == (
            "37a5b4efc01410335ed9bcab3eb9b14c411cb5ea75a5e245fb2a0fa291c67b2f")

    def test_all_clique_partitions_in_order_up_to_n5(self):
        # one json.dumps of the yielded partitions' clique lists per graph
        digest = hashlib.sha256()
        at_n5 = 0
        for n in range(6):
            for g in enumerate_labeled_graphs(n):
                parts = [p.to_json()["cliques"] for p in all_clique_partitions(g)]
                at_n5 += len(parts) if n == 5 else 0
                digest.update(json.dumps(parts).encode())
        assert at_n5 == 2625
        assert digest.hexdigest() == (
            "b940637bf004356d5826fc67417f3c5049b17d909c59f2abfa0ba35a047928b8")


class TestAllCliquePartitions:
    def test_triangle_has_two(self):
        k3 = complete_graph(3)
        parts = list(all_clique_partitions(k3))
        assert len(parts) == 2
        assert all(validate_partition(k3, p) == [] for p in parts)

    def test_k4_has_six(self):
        parts = list(all_clique_partitions(complete_graph(4)))
        assert len(parts) == 6
        assert len(set(parts)) == 6

    def test_every_partition_valid_and_unique(self):
        for n in range(5):
            for g in enumerate_labeled_graphs(n):
                parts = list(all_clique_partitions(g))
                assert len(set(parts)) == len(parts)
                for p in parts:
                    assert validate_partition(g, p) == []

    def test_order_is_pinned(self):
        # sha256 of json.dumps of the 16 partitions' clique lists, as yielded
        g = graph(5, [e for e in complete_graph(5).edges if e != (0, 1)])
        parts = [p.to_json()["cliques"] for p in all_clique_partitions(g)]
        assert len(parts) == 16
        assert hashlib.sha256(json.dumps(parts).encode()).hexdigest() == (
            "b017ff3f115fc12ba6bb336b0a79602542c274181921ec8830ec14ab1166aef8")

    @given(graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_same_sequence_as_the_unpruned_reference(self, g):
        iso = [(v,) for v in range(g.n) if g.adj[v] == 0]
        expected = [tuple(sorted(chosen + iso)) for chosen in reference_edge_partitions(g)]
        assert [p.cliques for p in all_clique_partitions(g)] == expected

    def test_results_are_in_normal_form(self):
        # The searches build CliquePartition without from_cliques, as the
        # kernel's cliques are already sorted: the results must be what
        # from_cliques would have made.
        for n in range(6):
            for g in enumerate_labeled_graphs(n):
                for p in [min_clique_partition(g)[1], *all_clique_partitions(g)]:
                    assert p == CliquePartition.from_cliques(g, p.cliques)

    def test_extra_trivial_variants(self):
        g = path_graph(2)
        parts = list(with_extra_trivial(g, all_clique_partitions(g)))
        # one edge partition x subsets of {0, 1}
        assert len(parts) == 4
        assert all(validate_partition(g, p) == [] for p in parts)

    def test_minimum_agrees_with_search(self):
        for g in enumerate_labeled_graphs(4):
            sizes = [len(p.cliques) for p in all_clique_partitions(g)]
            assert min(sizes) == min_clique_partition(g)[0]


class TestMinDistinctRepresentation:
    def test_complete_graphs_need_n(self):
        for n in (4, 5, 6):
            value, witness = min_distinct_representation(complete_graph(n))
            assert value == n
            assert witness.ground_size == n

    def test_k4_minimality_against_raw_families(self):
        assert brute_omega(complete_graph(4), max_ground=4) == 4

    def test_k22(self):
        value, witness = min_distinct_representation(complete_bipartite(2, 2))
        assert value == 4 == quarter_square(4)
        assert validate_representation(complete_bipartite(2, 2), witness,
                                       require_distinct=True) == []

    def test_edge_plus_two_isolated(self):
        g = graph(4, [(0, 1)])
        value, _ = min_distinct_representation(g)
        assert value == brute_omega(g, max_ground=4) == 4

    def test_matches_raw_family_oracle_exhaustively_small(self):
        for n in range(4):
            for g in enumerate_labeled_graphs(n):
                value, witness = min_distinct_representation(g)
                assert value == brute_omega(g)
                assert validate_representation(g, witness, require_distinct=True) == []
                assert witness.ground_size == value

    def test_chain_cp_le_omega_le_bound(self):
        samples = [(n, g) for n in (4, 5) for g in enumerate_labeled_graphs(n)]
        # Past the exhaustive range: 30 seeded G(n, p) each at n = 7, 8, with
        # p from 0.1 to 1, so the last few are nearly complete.
        for n in (7, 8):
            rng = random.Random(f"chain:{n}")
            samples += [(n, random_graph(rng, n, 0.1 + 0.9 * i / 29)) for i in range(30)]
        for n, g in samples:
            cp_value, _ = min_clique_partition(g)
            omega_value, _ = min_distinct_representation(g)
            assert cp_value <= omega_value <= quarter_square(n)

    def test_search_does_not_consult_the_bound_it_is_checked_against(self, monkeypatch):
        # A search pruned against a zero bound would find no partition at all.
        small = list(enumerate_labeled_graphs(4))
        want = [min_distinct_representation(g) for g in small]
        monkeypatch.setattr(oracle, "quarter_square", lambda n: 0)
        assert [min_distinct_representation(g) for g in small] == want

    def test_cp_le_omega_below_four(self):
        # the quarter-square cap starts at n=4; the cp <= omega half does not
        for n in (1, 2, 3):
            for g in enumerate_labeled_graphs(n):
                assert min_clique_partition(g)[0] <= min_distinct_representation(g)[0]

    @given(st.integers(0, (1 << 10) - 1))
    @settings(max_examples=40)
    def test_cp_at_most_greedy_size(self, mask):
        g = graph_from_bitmask(5, mask)
        cp_value, _ = min_clique_partition(g)
        d = greedy_decomposition(g)
        assert cp_value <= len(d.sequence)
        if all(g.adj[v] for v in range(g.n)):
            # without isolated vertices the sequence is all non-trivial
            assert cp_value <= sum(1 for c in d.sequence if len(c) >= 2)


class TestExhaustiveBoundCheck:
    def test_n4_lexicographic(self):
        report = exhaustive_bound_check(4, [None])
        assert report.graphs_checked == 64
        assert report.bound == 4
        assert report.violations == ()
        assert report.max_cliques_seen == 4
        assert report.max_elements_seen == 4
        assert report.strategies == ("lex",)

    def test_empty_graph_drives_max_cliques(self):
        # the edgeless graph alone already needs n trivial cliques
        report = exhaustive_bound_check(4, [None])
        d = greedy_decomposition(empty_graph(4))
        assert len(d.sequence) == 4 <= report.max_cliques_seen

    def test_workers_do_not_change_the_report(self, monkeypatch):
        monkeypatch.setenv("CLIQUEREP_THREADS", "1")
        a = exhaustive_bound_check(5, [None, 3])
        monkeypatch.setenv("CLIQUEREP_THREADS", "2")
        b = exhaustive_bound_check(5, [None, 3])
        assert a == b

    def test_workers_do_not_change_the_report_in_a_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("CLIQUEREP_THREADS", "2")
        assert oracle._worker_count((1 << 15) // oracle._MIN_CHUNK_MASKS) == 2
        monkeypatch.setenv("CLIQUEREP_THREADS", "1")
        a = exhaustive_bound_check(6, [None, 3, 4])
        monkeypatch.setenv("CLIQUEREP_THREADS", "2")
        b = exhaustive_bound_check(6, [None, 3, 4])
        assert a == b

    def test_n6_report_with_ten_seeds(self, monkeypatch):
        monkeypatch.setenv("CLIQUEREP_THREADS", "1")
        report = exhaustive_bound_check(6, [None, *range(1, 11)])
        assert report.graphs_checked == 32768
        assert report.max_cliques_seen == 9
        assert report.max_elements_seen == 9
        assert report.violations == ()

    @pytest.mark.slow
    def test_n7_report_with_ten_seeds(self):
        assert exhaustive_bound_check(7, [None, *range(1, 11)]).to_json() == {
            "n": 7,
            "graphs_checked": 2097152,
            "bound": 12,
            "strategies": ["lex"] + [f"random:{s}" for s in range(1, 11)],
            "max_cliques_seen": 12,
            "max_elements_seen": 12,
            "violations": [],
        }

    @pytest.mark.parametrize("seeds", [(None, 1, 2, 3), (5, None, 5)])
    def test_violations_match_the_reference_sweep(self, monkeypatch, seeds):
        # Two below the true bound, so every greedy run and erdos breach it.
        bound = quarter_square(5) - 2
        monkeypatch.setattr(oracle, "quarter_square", lambda n: n * n // 4 - 2)
        monkeypatch.setenv("CLIQUEREP_THREADS", "1")
        report = exhaustive_bound_check(5, seeds)
        max_cliques, max_elements, violations = reference_sweep(5, seeds, bound)
        assert {v.strategy for v in violations} == set(report.strategies) | {"erdos"}
        assert report.violations == tuple(violations)
        assert report.max_cliques_seen == max_cliques
        assert report.max_elements_seen == max_elements

    def test_every_element_count_matches_the_transforms(self, monkeypatch):
        # Below any count, so every greedy run on every graph reports its
        # augmented_elements; the reference builds each one with
        # augment_to_distinct(representation_from_partition(d)).
        seeds = (None, 1, 2, 3)
        monkeypatch.setattr(oracle, "quarter_square", lambda n: -1)
        monkeypatch.setenv("CLIQUEREP_THREADS", "1")
        report = exhaustive_bound_check(5, seeds)
        max_cliques, max_elements, violations = reference_sweep(5, seeds, -1)
        counts = [v for v in report.violations if v.check == "augmented_elements"]
        assert len(counts) == 1024 * len(seeds)
        assert report.violations == tuple(violations)
        assert (report.max_cliques_seen, report.max_elements_seen) == (max_cliques, max_elements)

    def test_every_greedy_run_is_validated(self, monkeypatch):
        # The stand-in drops the greedy run's edge {2, 3} on one graph.
        target = graph(4, [(0, 1), (2, 3)])
        real = oracle.greedy_decomposition
        monkeypatch.setattr(oracle, "greedy_decomposition", lambda g: (
            GreedyDecomposition(g, ((0, 1),)) if g.edges == target.edges else real(g)))
        monkeypatch.setenv("CLIQUEREP_THREADS", "1")
        with pytest.raises(ValueError, match="^invalid partition"):
            exhaustive_bound_check(4, [None])

    def test_erdos_invalid_and_distinctness_are_reported(self, monkeypatch):
        # The real construction never breaches these checks. On this graph
        # the stand-in leaves edge {2, 3} uncovered (one finding) and gives
        # 0, 1 one incidence set and 2, 3 another: 4 vertices, 2 distinct sets.
        target = graph(4, [(0, 1), (2, 3)])
        real = oracle.erdos_partition
        monkeypatch.setattr(oracle, "erdos_partition", lambda g: (
            CliquePartition(g, ((0, 1),)) if g.edges == target.edges else real(g)))
        monkeypatch.setenv("CLIQUEREP_THREADS", "1")
        mask = edge_bitmask(target)
        report = exhaustive_bound_check(4, [None])
        assert report.violations == (
            oracle.BoundViolation(mask, "erdos", "erdos_invalid", 1, 0),
            oracle.BoundViolation(mask, "erdos", "erdos_distinctness", 4 - 2, 0),
        )
        assert report.to_json()["violations"] == [
            {"graph": mask, "strategy": "erdos", "check": "erdos_invalid",
             "observed": 1, "bound": 0},
            {"graph": mask, "strategy": "erdos", "check": "erdos_distinctness",
             "observed": 2, "bound": 0},
        ]

    # Mask 9 on n=4 is the path 0-1-2 plus vertex 3. The first three
    # stand-ins have the pair count of a valid partition, so the one-pass
    # check rejects them later: on the cover compare, an empty clique, a
    # repeated clique. The last lists vertex 0 twice in clique 0, whose
    # incidence set is then vertex 1's: distinctness compares sets.
    @pytest.mark.parametrize("cliques, expected", [
        (((0, 1), (0, 2), (3,)), (("erdos_invalid", 3),)),
        (((0, 1), (1, 2), (3,), ()), (("erdos_invalid", 1),)),
        (((0, 1), (1, 2), (3,), (3,)), (("erdos_invalid", 1),)),
        (((0, 0, 1), (2,), (3,)), (("erdos_invalid", 3), ("erdos_distinctness", 1))),
        # 4 is no vertex: one finding, and no vertex's set takes clique 3.
        (((0, 1), (1, 2), (3,), (4,)), (("erdos_invalid", 1),)),
        # 0.0 is vertex 0 to the validator, so the partition is valid.
        (((0.0, 1), (1, 2), (3,)), ()),
        # -1 is no vertex: vertex 3 keeps an empty set, so only vertex 1
        # repeats a set (vertex 0's), not vertex 3 (vertex 2's).
        (((0, 1), (2, -1)), (("erdos_invalid", 3), ("erdos_distinctness", 1))),
    ])
    def test_erdos_stand_ins_with_the_right_pair_count(self, monkeypatch, cliques, expected):
        real = oracle.erdos_partition
        monkeypatch.setattr(oracle, "erdos_partition", lambda g: (
            CliquePartition(g, cliques) if edge_bitmask(g) == 9 else real(g)))
        monkeypatch.setenv("CLIQUEREP_THREADS", "1")
        assert exhaustive_bound_check(4, [None]).violations == tuple(
            oracle.BoundViolation(9, "erdos", check, observed, 0) for check, observed in expected)

    def test_greedy_stand_in_with_the_right_pair_count(self, monkeypatch):
        real = oracle.greedy_decomposition
        monkeypatch.setattr(oracle, "greedy_decomposition", lambda g: (
            GreedyDecomposition(g, ((0, 1), (0, 2), (3,))) if edge_bitmask(g) == 9 else real(g)))
        monkeypatch.setenv("CLIQUEREP_THREADS", "1")
        with pytest.raises(ValueError) as info:
            exhaustive_bound_check(4, [None])
        assert str(info.value).startswith(
            "invalid partition: {'kind': 'not_a_clique', 'position': 1")

    def test_mask_stepping_across_chunk_edges(self, monkeypatch):
        # A range builds its first graph from the mask and steps the masks
        # of every later one. Two below the true bound, so every range has
        # findings and violations to merge.
        monkeypatch.setattr(oracle, "quarter_square", lambda n: n * n // 4 - 2)
        real = oracle.greedy_decomposition
        seen = []
        monkeypatch.setattr(oracle, "greedy_decomposition",
                            lambda g: seen.append(g) or real(g))
        whole = oracle._sweep_range(5, 0, 1024)
        cuts = (0, 1, 333, 1023, 1024)
        parts = [oracle._sweep_range(5, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        assert len(seen) == 2 * 1024
        for i, g in enumerate(seen):
            want = graph_from_bitmask(5, i % 1024)
            assert (g.n, g.adj, g.edges) == (want.n, want.adj, want.edges)
        assert whole[2] and whole[3]
        assert max(p[0] for p in parts) == whole[0]
        assert max(p[1] for p in parts) == whole[1]
        assert [f for p in parts for f in p[2]] == whole[2]
        assert [v for p in parts for v in p[3]] == whole[3]

    def test_valid_runs_with_int_equal_members_take_the_validators(self, monkeypatch):
        # Members that only equal their vertices fail the one-pass check, so
        # every run goes through the validators, which accept it: the report
        # is unchanged, element counts included, with no erdos_invalid.
        class Vertex(int):
            pass

        def members(cliques):
            return tuple(tuple(True if v == 1 else Vertex(v) for v in cl) for cl in cliques)

        seeds = (None, 1, 2)
        monkeypatch.setattr(oracle, "quarter_square", lambda n: -1)
        monkeypatch.setenv("CLIQUEREP_THREADS", "1")
        expected = exhaustive_bound_check(5, seeds)
        real_greedy, real_erdos = oracle.greedy_decomposition, oracle.erdos_partition
        monkeypatch.setattr(oracle, "greedy_decomposition", lambda g: GreedyDecomposition(
            g, members(real_greedy(g).sequence)))
        monkeypatch.setattr(oracle, "erdos_partition", lambda g: CliquePartition(
            g, members(real_erdos(g).cliques)))
        calls = []
        for name in ("_partition_cliques", "validate_partition"):
            real = getattr(oracle, name)
            monkeypatch.setattr(oracle, name, lambda g, c, real=real, name=name: (
                calls.append(name), real(g, c))[1])
        report = exhaustive_bound_check(5, seeds)
        assert calls.count("_partition_cliques") == calls.count("validate_partition") == 1024
        counts = [v for v in report.violations if v.check == "augmented_elements"]
        assert len(counts) == 1024 * len(seeds)
        assert "erdos_invalid" not in {v.check for v in report.violations}
        assert report == expected

    def test_relabel_mask_matches_graph_relabeling(self):
        order = _vertex_order(6, 7)
        for mask in range(0, 1 << 15, 97):
            g = graph_from_bitmask(6, mask)
            moved = graph(6, [(order[u], order[v]) for u, v in g.edges])
            assert oracle._relabel_mask(6, mask, order) == edge_bitmask(moved)

    def test_worker_count_is_clamped(self, monkeypatch):
        cpus = os.cpu_count() or 1
        monkeypatch.setenv("CLIQUEREP_THREADS", str(10**9))
        assert oracle._worker_count(8) == min(cpus, 8)
        assert oracle._worker_count(0) == 1
        assert oracle._worker_count(512) == min(cpus, 512)
        for bad in ("-3", "0"):
            monkeypatch.setenv("CLIQUEREP_THREADS", bad)
            with pytest.raises(ValueError, match="must be a positive integer"):
                oracle._worker_count(8)
        monkeypatch.delenv("CLIQUEREP_THREADS")
        assert oracle._worker_count(512) == min(cpus, 512)

    def test_invariant_violations_iff_maxima_exceed(self):
        report = exhaustive_bound_check(4, [None, 9])
        assert (report.violations == ()) == (
            report.max_cliques_seen <= report.bound
            and report.max_elements_seen <= report.bound
        )

    def test_rejects_out_of_range_n(self):
        with pytest.raises(ValueError):
            exhaustive_bound_check(3, [None])
        with pytest.raises(ValueError):
            exhaustive_bound_check(8, [None])

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError, match="at least one greedy seed"):
            exhaustive_bound_check(4, [])

    def test_json_round_trip(self):
        doc = exhaustive_bound_check(4, [None, 2]).to_json()
        assert json.loads(json.dumps(doc)) == doc

    def test_thread_env_cap(self, monkeypatch):
        monkeypatch.setenv("CLIQUEREP_THREADS", "1")
        report = exhaustive_bound_check(4, [None])
        assert report.graphs_checked == 64
        monkeypatch.setenv("CLIQUEREP_THREADS", "zero")
        with pytest.raises(ValueError):
            exhaustive_bound_check(4, [None])


class TestLemma6Check:
    def test_triangle_duplicates_certified(self):
        k3 = complete_graph(3)
        p = CliquePartition.from_cliques(k3, [(0, 1, 2)])
        assert reference_lemma6(k3, p.cliques) == []

    def test_k22_vacuous(self):
        k22 = complete_bipartite(2, 2)
        p = CliquePartition.from_cliques(k22, k22.edges)
        assert reference_lemma6(k22, p.cliques) == []

    def test_exhaustive_small(self):
        for n in range(1, 5):
            for g in enumerate_labeled_graphs(n):
                for p in with_extra_trivial(g, all_clique_partitions(g)):
                    assert reference_lemma6(g, p.cliques) == []

    def test_exhaustive_n5(self):
        # Extra trivial cliques only shrink duplicate classes, so the
        # extra-free partitions cover every duplicate pair that can occur.
        for g in enumerate_labeled_graphs(5):
            for p in all_clique_partitions(g):
                assert reference_lemma6(g, p.cliques) == []

    def test_reference_reports_both_kinds_on_non_partitions(self):
        # The reference does not validate, so covers that are not
        # partitions show what it would report: on K4, 0 and 1 share two
        # cliques; on K3, the edge {0, 1} extends by 2.
        k4 = complete_graph(4)
        assert [v.to_json() for v in reference_lemma6(k4, [(0, 1, 2), (0, 1, 3), (2, 3)])] == [
            {"kind": "multi_membership", "pair": [0, 1], "observed": 2, "expected": 1}]
        k3 = complete_graph(3)
        assert [v.to_json() for v in reference_lemma6(k3, [(0, 1)])] == [
            {"kind": "not_maximal", "pair": [0, 1], "vertices": [0, 1], "vertex": 2}]


class TestRsBoundCheck:
    def test_path(self):
        p3 = path_graph(3)
        d = greedy_decomposition(p3)
        assert check_rs_bound(p3, d) == []

    def test_complete_graph_vacuous(self):
        k4 = complete_graph(4)
        assert check_rs_bound(k4, greedy_decomposition(k4)) == []

    def test_rejects_invalid_decomposition(self):
        k3 = complete_graph(3)
        bad = GreedyDecomposition(k3, ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(ValueError, match="invalid decomposition"):
            check_rs_bound(k3, bad)

    def test_finding_on_an_unvalidated_sequence(self, monkeypatch):
        # No valid sequence breaches the bound. With validation patched out,
        # K3 as its three edges has every edge touching two other cliques.
        monkeypatch.setattr(oracle, "validate_greedy", lambda g, d: [])
        k3 = complete_graph(3)
        edges = ((0, 1), (0, 2), (1, 2))
        found = check_rs_bound(k3, GreedyDecomposition(k3, edges))
        assert [v.to_json() for v in found] == [
            {"kind": "rs_bound", "position": j, "pair": list(e), "observed": 2, "expected": 1}
            for j, e in enumerate(edges)]

    def test_degree_one_pair_exempt(self):
        g = graph(2, [(0, 1)])
        assert check_rs_bound(g, greedy_decomposition(g)) == []

    def test_fuzz_never_fires(self):
        rng = random.Random(1234)
        for i in range(300):
            g = random_graph(rng, rng.randint(5, 9), rng.uniform(0.1, 0.9))
            d = greedy_decomposition(g, None if i % 3 == 0 else rng.getrandbits(32))
            assert check_rs_bound(g, d) == []

    def test_matches_the_reference(self):
        rng = random.Random(99)
        cases = [(g, None) for n in range(6) for g in enumerate_labeled_graphs(n)]
        cases += [(random_graph(rng, rng.randint(5, 30), rng.random()), rng.getrandbits(32))
                  for _ in range(100)]
        for g, seed in cases:
            d = greedy_decomposition(g, seed)
            assert check_rs_bound(g, d) == reference_rs_bound(g, d)

    def test_linear_on_a_large_sparse_graph(self):
        # Scanning the whole sequence for every 2-clique took 4.1 s on this
        # graph (2-core x86 VM, Python 3.11).
        n = 4000
        g = sparse_random_graph(random.Random(8), n, 3 / n)
        d = greedy_decomposition(g)
        start = time.perf_counter()
        assert check_rs_bound(g, d) == []
        assert time.perf_counter() - start < 0.5


class TestMonotonicitysmall:
    def test_cp_and_omega_monotone_under_induced_subgraphs(self):
        from cliquerep import induced_subgraph

        for g in enumerate_labeled_graphs(4):
            cp_value, _ = min_clique_partition(g)
            omega_value, _ = min_distinct_representation(g)
            for mask in range(1 << 4):
                sub, _ = induced_subgraph(g, [v for v in range(4) if mask >> v & 1])
                assert min_clique_partition(sub)[0] <= cp_value
                assert min_distinct_representation(sub)[0] <= omega_value
