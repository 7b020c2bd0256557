import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquerep import (
    LEXICOGRAPHIC,
    BoundReport,
    CliquePartition,
    GreedyDecomposition,
    all_clique_partitions,
    check_lemma6,
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
    seeded_strategy,
    validate_partition,
    validate_representation,
)
from cliquerep import oracle
from helpers import brute_cp, brute_omega, has_triangle, random_graph, reference_sweep


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

    def test_budget(self):
        with pytest.raises(ValueError, match="budget"):
            min_clique_partition(empty_graph(11))

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

    def test_extra_trivial_variants(self):
        g = path_graph(2)
        parts = list(all_clique_partitions(g, extra_trivial=True))
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

    def test_budget(self):
        with pytest.raises(ValueError, match="budget"):
            min_distinct_representation(empty_graph(7))

    def test_chain_cp_le_omega_le_bound(self):
        for n in (4, 5):
            for g in enumerate_labeled_graphs(n):
                cp_value, _ = min_clique_partition(g)
                omega_value, _ = min_distinct_representation(g)
                assert cp_value <= omega_value <= quarter_square(n)

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
        report = exhaustive_bound_check(4, [LEXICOGRAPHIC])
        assert report.graphs_checked == 64
        assert report.bound == 4
        assert report.violations == ()
        assert report.max_cliques_seen == 4
        assert report.max_elements_seen == 4
        assert report.strategies == ("lex",)

    def test_empty_graph_drives_max_cliques(self):
        # the edgeless graph alone already needs n trivial cliques
        report = exhaustive_bound_check(4, [LEXICOGRAPHIC])
        d = greedy_decomposition(empty_graph(4))
        assert len(d.sequence) == 4 <= report.max_cliques_seen

    def test_workers_do_not_change_the_report(self):
        strategies = [LEXICOGRAPHIC, seeded_strategy(3)]
        a = exhaustive_bound_check(5, strategies, workers=1)
        b = exhaustive_bound_check(5, strategies, workers=2)
        assert a == b

    def test_workers_do_not_change_the_report_in_a_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert oracle._worker_count(2, (1 << 15) // oracle._MIN_CHUNK_MASKS) == 2
        strategies = [LEXICOGRAPHIC, seeded_strategy(3), seeded_strategy(4)]
        a = exhaustive_bound_check(6, strategies, workers=1)
        b = exhaustive_bound_check(6, strategies, workers=2)
        assert a == b

    def test_n6_report_with_ten_seeds(self):
        strategies = [LEXICOGRAPHIC] + [seeded_strategy(s) for s in range(1, 11)]
        report = exhaustive_bound_check(6, strategies, workers=1)
        assert report.graphs_checked == 32768
        assert report.max_cliques_seen == 9
        assert report.max_elements_seen == 9
        assert report.violations == ()

    @pytest.mark.slow
    def test_n7_report_with_ten_seeds(self):
        strategies = [LEXICOGRAPHIC] + [seeded_strategy(s) for s in range(1, 11)]
        assert exhaustive_bound_check(7, strategies).to_json() == {
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
        # Two below the true bound, so every strategy and erdos breach it.
        strategies = [LEXICOGRAPHIC if s is None else seeded_strategy(s) for s in seeds]
        bound = quarter_square(5) - 2
        monkeypatch.setattr(oracle, "quarter_square", lambda n: n * n // 4 - 2)
        report = exhaustive_bound_check(5, strategies, workers=1)
        max_cliques, max_elements, violations = reference_sweep(5, strategies, bound)
        assert {v.strategy for v in violations} == {s.describe() for s in strategies} | {"erdos"}
        assert report.violations == tuple(violations)
        assert report.max_cliques_seen == max_cliques
        assert report.max_elements_seen == max_elements

    def test_relabel_mask_matches_graph_relabeling(self):
        order = seeded_strategy(7).vertex_order(6)
        for mask in range(0, 1 << 15, 97):
            g = graph_from_bitmask(6, mask)
            moved = graph(6, [(order[u], order[v]) for u, v in g.edges])
            assert oracle._relabel_mask(6, mask, order) == edge_bitmask(moved)

    def test_worker_count_is_clamped(self, monkeypatch):
        cpus = os.cpu_count() or 1
        monkeypatch.setenv("CLIQUEREP_THREADS", str(10**9))
        assert oracle._worker_count(None, 8) == min(cpus, 8)
        assert oracle._worker_count(None, 0) == 1
        assert oracle._worker_count(10**9, 512) == min(cpus, 512)
        monkeypatch.setenv("CLIQUEREP_THREADS", "-3")
        assert oracle._worker_count(None, 8) == 1

    def test_invariant_violations_iff_maxima_exceed(self):
        report = exhaustive_bound_check(4, [LEXICOGRAPHIC, seeded_strategy(9)])
        assert (report.violations == ()) == (
            report.max_cliques_seen <= report.bound
            and report.max_elements_seen <= report.bound
        )

    def test_rejects_out_of_range_n(self):
        with pytest.raises(ValueError):
            exhaustive_bound_check(3, [LEXICOGRAPHIC])
        with pytest.raises(ValueError):
            exhaustive_bound_check(8, [LEXICOGRAPHIC])

    def test_json_round_trip(self):
        report = exhaustive_bound_check(4, [LEXICOGRAPHIC])
        assert BoundReport.from_json(report.to_json()) == report

    def test_thread_env_cap(self, monkeypatch):
        monkeypatch.setenv("CLIQUEREP_THREADS", "1")
        report = exhaustive_bound_check(4, [LEXICOGRAPHIC])
        assert report.graphs_checked == 64
        monkeypatch.setenv("CLIQUEREP_THREADS", "zero")
        with pytest.raises(ValueError):
            exhaustive_bound_check(4, [LEXICOGRAPHIC])


class TestLemma6Check:
    def test_triangle_duplicates_certified(self):
        k3 = complete_graph(3)
        p = CliquePartition.from_cliques(k3, [(0, 1, 2)])
        assert check_lemma6(k3, p) == []

    def test_k22_vacuous(self):
        k22 = complete_bipartite(2, 2)
        p = CliquePartition.from_cliques(k22, k22.edges)
        assert check_lemma6(k22, p) == []

    def test_rejects_invalid_partition(self):
        k3 = complete_graph(3)
        with pytest.raises(ValueError, match="invalid partition"):
            check_lemma6(k3, CliquePartition.from_cliques(k3, [(0, 1)]))

    def test_exhaustive_small(self):
        for n in range(1, 5):
            for g in enumerate_labeled_graphs(n):
                for p in all_clique_partitions(g, extra_trivial=True):
                    assert check_lemma6(g, p) == []

    def test_exhaustive_n5(self):
        # Extra trivial cliques only shrink duplicate classes, so the
        # extra-free partitions cover every duplicate pair that can occur.
        for g in enumerate_labeled_graphs(5):
            for p in all_clique_partitions(g):
                assert check_lemma6(g, p) == []


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

    def test_degree_one_pair_exempt(self):
        g = graph(2, [(0, 1)])
        assert check_rs_bound(g, greedy_decomposition(g)) == []

    def test_fuzz_never_fires(self):
        rng = random.Random(1234)
        for i in range(300):
            g = random_graph(rng, rng.randint(5, 9), rng.uniform(0.1, 0.9))
            strategy = LEXICOGRAPHIC if i % 3 == 0 else seeded_strategy(rng.getrandbits(32))
            d = greedy_decomposition(g, strategy)
            assert check_rs_bound(g, d) == []


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
