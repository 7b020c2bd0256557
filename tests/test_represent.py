import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquerep import (
    CliquePartition,
    GreedyDecomposition,
    SetRepresentation,
    Violation,
    augment_to_distinct,
    complete_graph,
    distinctness,
    empty_graph,
    erdos_partition,
    graph,
    graph_from_bitmask,
    greedy_decomposition,
    partition_from_representation,
    path_graph,
    representation_from_partition,
    validate_representation,
)
from cliquerep.graphs import ENUMERATION_MAX_N
from helpers import as_partition, has_edge, random_graph, representations_equivalent


@st.composite
def graphs(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    return graph_from_bitmask(n, draw(st.integers(0, (1 << m) - 1)))


@st.composite
def partitions(draw):
    """Valid partitions sampled through the two constructions."""
    g = draw(graphs(min_n=1))
    if draw(st.booleans()):
        return erdos_partition(g)
    return as_partition(greedy_decomposition(g, draw(st.integers(0, 2**32))))


def rep(host, sets, ground) -> SetRepresentation:
    return SetRepresentation(host, tuple(frozenset(s) for s in sets), ground)


class TestForwardMap:
    def test_path(self):
        p3 = path_graph(3)
        p = CliquePartition.from_cliques(p3, [(0, 1), (1, 2)])
        r = representation_from_partition(p)
        assert [sorted(s) for s in r.sets] == [[0], [0, 1], [1]]
        assert r.ground_size == 2

    def test_triangle_single_clique(self):
        k3 = complete_graph(3)
        r = representation_from_partition(CliquePartition.from_cliques(k3, [(0, 1, 2)]))
        assert r.sets == (frozenset({0}),) * 3
        assert r.ground_size == 1
        report = distinctness(r)
        assert report.classes == ((0, 1, 2),)
        assert not report.is_family

    def test_k22_edge_partition(self):
        k22 = graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        p = CliquePartition.from_cliques(k22, k22.edges)
        r = representation_from_partition(p)
        assert r.ground_size == 4
        assert all(len(s) == 2 for s in r.sets)
        assert len(set(r.sets)) == 4
        for u in range(4):
            for v in range(u + 1, 4):
                want = 1 if has_edge(k22, u, v) else 0
                assert len(r.sets[u] & r.sets[v]) == want

    def test_greedy_decomposition_uses_sequence_positions(self):
        g = path_graph(3)
        d = greedy_decomposition(g)
        r = representation_from_partition(d)
        assert r.ground_size == len(d.sequence)
        for k, cl in enumerate(d.sequence):
            for v in cl:
                assert k in r.sets[v]

    def test_rejects_invalid_partition(self):
        k3 = complete_graph(3)
        bad = CliquePartition.from_cliques(k3, [(0, 1)])
        with pytest.raises(ValueError, match="invalid partition"):
            representation_from_partition(bad)

    def test_invalid_sequence_names_the_element(self):
        # Clique 1 of the sequence, element 1, is not a clique; sorted, it
        # would come first.
        d = GreedyDecomposition(path_graph(3), ((1, 2), (0, 2)))
        with pytest.raises(ValueError) as err:
            representation_from_partition(d)
        assert str(err.value) == (
            "invalid partition: {'kind': 'not_a_clique', 'position': 1, 'pair': [0, 2]}")

    @pytest.mark.parametrize("method", ["erdos", "greedy"])
    def test_rejects_an_edge_covered_twice_on_a_large_graph(self, method):
        # The CLI trusts its own constructions; the public function checks
        # whatever it is handed. One edge clique of a valid g500 partition
        # becomes an edge that a triangle already covers, so that edge is
        # covered twice and the dropped one not at all.
        g = random_graph(random.Random("large-graphs:13:g500"), 500, 0.5)
        assert g.n > ENUMERATION_MAX_N
        if method == "erdos":
            cliques = list(erdos_partition(g).cliques)
        else:
            cliques = list(greedy_decomposition(g).sequence)
        covered = next(c for c in cliques if len(c) == 3)[:2]
        k = next(k for k, c in enumerate(cliques) if len(c) == 2)
        dropped, cliques[k] = cliques[k], covered
        bad = (CliquePartition(g, tuple(cliques)) if method == "erdos"
               else GreedyDecomposition(g, tuple(cliques)))
        pair, observed = min((covered, 2), (dropped, 0))
        first = Violation("miscovered_edge", pair=pair, observed=observed, expected=1)
        with pytest.raises(ValueError) as err:
            representation_from_partition(bad)
        assert str(err.value) == f"invalid partition: {first.to_json()}"

    def test_rejects_a_hand_built_sequence_above_the_enumeration_cap(self):
        # The triangle 0 1 2 and the path 2 3 4, plus edges 5 6 and 7 8;
        # clique 2 repeats the triangle's edge 0 1 in place of the edge 3 4.
        g = graph(9, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (5, 6), (7, 8)])
        assert g.n > ENUMERATION_MAX_N
        d = GreedyDecomposition(g, ((0, 1, 2), (2, 3), (0, 1), (5, 6), (7, 8)))
        with pytest.raises(ValueError) as err:
            representation_from_partition(d)
        assert str(err.value) == (
            "invalid partition: "
            "{'kind': 'miscovered_edge', 'pair': [0, 1], 'observed': 2, 'expected': 1}")

    @given(partitions())
    @settings(max_examples=60)
    def test_ground_size_equals_clique_count(self, p):
        r = representation_from_partition(p)
        assert r.ground_size == len(p.cliques)
        assert validate_representation(p.host, r) == []


class TestInverseMap:
    def test_path_round_trip(self):
        p3 = path_graph(3)
        p = CliquePartition.from_cliques(p3, [(0, 1), (1, 2)])
        assert partition_from_representation(representation_from_partition(p)) == p

    def test_edge_plus_isolated(self):
        host = graph(3, [(0, 1)])
        r = rep(host, [{0}, {0}, {1}], 2)
        p = partition_from_representation(r)
        assert p.cliques == ((0, 1), (2,))

    def test_trivial_elements_become_trivial_cliques(self):
        host = graph(2, [(0, 1)])
        r = rep(host, [{0, 1}, {0, 2}], 3)
        p = partition_from_representation(r)
        assert p.cliques == ((0,), (0, 1), (1,))

    def test_duplicate_singleton_elements_collapse(self):
        host = empty_graph(1)
        r = rep(host, [{0, 1}], 2)
        p = partition_from_representation(r)
        assert p.cliques == ((0,),)
        assert len(p.cliques) <= r.ground_size

    def test_rejects_broken_intersections(self):
        host = complete_graph(2)
        with pytest.raises(ValueError, match="wrong_intersection"):
            partition_from_representation(rep(host, [{0}, {1}], 2))

    def test_rejects_unused_element(self):
        # Element 1 is unused; a ground size past the two set entries would
        # be rejected before any finding.
        host = complete_graph(2)
        with pytest.raises(ValueError, match="unused_element"):
            partition_from_representation(rep(host, [{0}, {0}], 2))

    @given(partitions())
    @settings(max_examples=60)
    def test_forward_then_back_is_identity(self, p):
        assert partition_from_representation(representation_from_partition(p)) == p

    @given(partitions())
    @settings(max_examples=60)
    def test_back_then_forward_up_to_renaming(self, p):
        r = representation_from_partition(p)
        again = representation_from_partition(partition_from_representation(r))
        assert representations_equivalent(r, again)


class TestAugment:
    def test_triangle(self):
        k3 = complete_graph(3)
        r = representation_from_partition(CliquePartition.from_cliques(k3, [(0, 1, 2)]))
        a = augment_to_distinct(r)
        assert [sorted(s) for s in a.sets] == [[0], [0, 1], [0, 2]]
        assert a.ground_size == 3
        assert validate_representation(k3, a, require_distinct=True) == []

    def test_complete_graph_uses_n_elements(self):
        k4 = complete_graph(4)
        r = representation_from_partition(greedy_decomposition(k4))
        a = augment_to_distinct(r)
        assert a.ground_size == 4

    def test_distinct_input_returned_unchanged(self):
        p3 = path_graph(3)
        r = representation_from_partition(CliquePartition.from_cliques(p3, [(0, 1), (1, 2)]))
        assert augment_to_distinct(r) is r

    def test_growth_matches_duplicate_classes(self):
        # 5 vertices on one clique -> one duplicate class of size 5.
        k5 = complete_graph(5)
        r = representation_from_partition(CliquePartition.from_cliques(k5, [tuple(range(5))]))
        a = augment_to_distinct(r)
        assert a.ground_size == r.ground_size + 4

    @given(partitions())
    @settings(max_examples=60)
    def test_preserves_intersections_and_fixes_duplicates(self, p):
        r = representation_from_partition(p)
        classes = distinctness(r).classes
        expected_growth = sum(len(c) - 1 for c in classes)
        a = augment_to_distinct(r)
        assert a.ground_size == r.ground_size + expected_growth
        assert validate_representation(p.host, a, require_distinct=True) == []
        for u in range(p.host.n):
            for v in range(u + 1, p.host.n):
                assert len(a.sets[u] & a.sets[v]) == len(r.sets[u] & r.sets[v])
        # untouched vertices keep their exact sets
        for cls in classes:
            assert a.sets[cls[0]] == r.sets[cls[0]]


class TestDistinctness:
    def test_path_all_singletons(self):
        p3 = path_graph(3)
        r = representation_from_partition(CliquePartition.from_cliques(p3, [(0, 1), (1, 2)]))
        report = distinctness(r)
        assert report.is_family
        assert report.classes == ((0,), (1,), (2,))

    def test_star_partitioned_into_edges(self):
        star = graph(4, [(0, 1), (0, 2), (0, 3)])
        p = CliquePartition.from_cliques(star, star.edges)
        r = representation_from_partition(p)
        report = distinctness(r)
        assert report.is_family
        assert len(report.classes) == 4
        assert sorted(r.sets[v] for v in (1, 2, 3)) == [frozenset({0}), frozenset({1}), frozenset({2})]
        assert r.sets[0] == frozenset({0, 1, 2})

    def test_classes_partition_the_vertices(self):
        k3 = complete_graph(3)
        r = representation_from_partition(CliquePartition.from_cliques(k3, [(0, 1, 2)]))
        report = distinctness(r)
        assert sorted(v for c in report.classes for v in c) == [0, 1, 2]


class TestValidateRepresentation:
    def test_valid_path_with_distinct(self):
        p3 = path_graph(3)
        r = representation_from_partition(CliquePartition.from_cliques(p3, [(0, 1), (1, 2)]))
        assert validate_representation(p3, r, require_distinct=True) == []

    def test_duplicate_class_reported(self):
        k3 = complete_graph(3)
        r = representation_from_partition(CliquePartition.from_cliques(k3, [(0, 1, 2)]))
        problems = validate_representation(k3, r, require_distinct=True)
        assert [v for v in problems if v.kind == "duplicate_sets" and v.vertices == (0, 1, 2)]
        assert validate_representation(k3, r) == []

    def test_missing_intersection(self):
        k2 = complete_graph(2)
        problems = validate_representation(k2, rep(k2, [{0}, {1}], 2))
        assert [v for v in problems
                if v.kind == "wrong_intersection" and v.pair == (0, 1)
                and v.observed == 0 and v.expected == 1]

    def test_empty_set_and_unused_element(self):
        g = empty_graph(2)
        problems = validate_representation(g, rep(g, [set(), {0, 2}], 2))
        kinds = {v.kind for v in problems}
        assert "empty_set" in kinds
        assert "unused_element" in kinds

    def test_element_out_of_range(self):
        g = empty_graph(1)
        problems = validate_representation(g, rep(g, [{5}], 1))
        assert [v for v in problems if v.kind == "element_out_of_range" and v.element == 5]

    @pytest.mark.parametrize("odd", [1.0, True, "a"], ids=["float", "bool", "str"])
    def test_element_ids_must_be_ints(self, odd):
        # On P3, ({0}, {0, odd}, {1}): a float or True passed as element 1,
        # and "a" made sorting the set raise TypeError.
        p3 = path_graph(3)
        r = rep(p3, [{0}, {0, odd}, {1}], 2)
        problems = validate_representation(p3, r)
        assert problems == [
            Violation("element_out_of_range", vertex=1, element=odd),
            Violation("wrong_intersection", pair=(1, 2), observed=0, expected=1),
        ]
        with pytest.raises(ValueError, match=r"^invalid representation: .*element_out_of_range"):
            partition_from_representation(r)

    @pytest.mark.parametrize("odd, wrong", [
        (5, []),
        ("x", [Violation("wrong_intersection", pair=(1, 2), observed=0, expected=1)]),
    ], ids=["int", "str"])
    def test_out_of_range_int_ids_still_intersect(self, odd, wrong):
        # On P3, ({0}, {0, odd}, {odd}) over ground size 1: an int id out of
        # range still covers the edge {1, 2}; an id that is not an int
        # counts in no intersection.
        p3 = path_graph(3)
        assert validate_representation(p3, rep(p3, [{0}, {0, odd}, {odd}], 1)) == [
            Violation("element_out_of_range", vertex=1, element=odd),
            Violation("element_out_of_range", vertex=2, element=odd),
            *wrong,
        ]

    def test_odd_element_ids_follow_the_int_ids_in_repr_order(self):
        g = empty_graph(1)
        problems = validate_representation(g, rep(g, [{"b", 5, 0, 2.5, "a"}], 1))
        assert [(v.kind, v.element) for v in problems] == [
            ("element_out_of_range", e) for e in (5, "a", "b", 2.5)]

    @pytest.mark.parametrize("size, message", [
        (2.0, "must be an integer"),
        ("2", "must be an integer"),
        (True, "must be an integer"),
        (-1, "must be non-negative"),
        (5, "exceeds the number of set entries"),
        (10**30, "exceeds the number of set entries"),
    ], ids=["float", "str", "bool", "negative", "past-entries", "huge"])
    def test_ground_size_is_checked_as_from_json_checks_it(self, size, message):
        # On P3, 2.0 and "2" raised TypeError, True was taken as 1, and
        # 10**30 listed every unused id without end.
        p3 = path_graph(3)
        r = rep(p3, [{0}, {0, 1}, {1}], size)
        for call in (lambda: validate_representation(p3, r),
                     lambda: partition_from_representation(r),
                     lambda: augment_to_distinct(r)):
            start = time.perf_counter()
            with pytest.raises(ValueError) as info:
                call()
            assert time.perf_counter() - start < 0.1
            assert str(info.value) == f"artifact 'ground_size' {message}"
        with pytest.raises(ValueError) as info:
            SetRepresentation.from_json({"n": 3, "ground_size": size, "sets": [[0], [0, 1], [1]]}, p3)
        assert str(info.value) == f"artifact 'ground_size' {message}"

    def test_size_mismatch(self):
        g = empty_graph(2)
        problems = validate_representation(g, rep(g, [{0}], 1))
        assert [v for v in problems if v.kind == "size_mismatch"]


class TestEquivalence:
    def test_renamed_elements_are_equivalent(self):
        host = path_graph(3)
        a = rep(host, [{0}, {0, 1}, {1}], 2)
        b = rep(host, [{1}, {1, 0}, {0}], 2)
        assert representations_equivalent(a, b)

    def test_different_shape_not_equivalent(self):
        host = path_graph(3)
        a = rep(host, [{0}, {0, 1}, {1}], 2)
        c = rep(host, [{0}, {0}, {1}], 2)
        assert not representations_equivalent(a, c)

    def test_different_hosts_not_equivalent(self):
        a = rep(path_graph(2), [{0}, {0}], 1)
        b = rep(empty_graph(2), [{0}, {1}], 2)
        assert not representations_equivalent(a, b)


class TestJson:
    def test_round_trip(self):
        p3 = path_graph(3)
        r = representation_from_partition(CliquePartition.from_cliques(p3, [(0, 1), (1, 2)]))
        assert SetRepresentation.from_json(r.to_json(), p3) == r

    def test_sets_are_sorted_in_json(self):
        host = graph(2, [(0, 1)])
        r = rep(host, [{1, 0}, {0, 2}], 3)
        assert r.to_json()["sets"] == [[0, 1], [0, 2]]

    def test_rejects_bad_schema(self):
        p3 = path_graph(3)
        for doc in (
            {"n": 3, "sets": [[0], [0], [0]]},
            {"n": 3, "ground_size": "1", "sets": [[0], [0], [0]]},
            {"n": 2, "ground_size": 1, "sets": [[0], [0], [0]]},
            {"n": 3, "ground_size": -1, "sets": [[0], [0], [0]]},
            {"n": 3, "ground_size": 1, "sets": [[0], [0]]},
            {"n": 3, "ground_size": 1, "sets": [[0], [0], ["x"]]},
            {"n": 3, "ground_size": 4, "sets": [[0], [0], [0]]},
        ):
            with pytest.raises(ValueError):
                SetRepresentation.from_json(doc, p3)

    @pytest.mark.parametrize("load, header, rows", [
        (CliquePartition.from_json, {"n": 3, "ordered": False}, {"cliques": [[0, 1], [1, 2]]}),
        (GreedyDecomposition.from_json, {"n": 3, "ordered": True}, {"cliques": [[0, 1], [1, 2]]}),
        (SetRepresentation.from_json, {"n": 3, "ground_size": 2}, {"sets": [[0], [0, 1], [1]]}),
    ])
    def test_member_types(self, load, header, rows):
        # Exact ints in exact lists, all the JSON decoder makes, pass one
        # bulk test; anything else is rejected with one message, int and
        # list subclasses included.
        class Vertex(int):
            pass

        class Row(list):
            pass

        p3 = path_graph(3)
        (key, (first, *rest)), = rows.items()
        message = f"each {key[:-1]} must be an array of integers"
        assert load({**header, **rows}, p3) is not None
        for row in (Row(first), [Vertex(v) for v in first],
                    [True, 1], [0.0, 1], [[0], 1], [None], (0, 1), "01", 0):
            with pytest.raises(ValueError) as exc:
                load({**header, key: [row, *rest]}, p3)
            assert str(exc.value) == message

    @pytest.mark.parametrize("load, keys", [
        (CliquePartition.from_json, ("n", "ordered", "cliques")),
        (GreedyDecomposition.from_json, ("n", "ordered", "cliques")),
        (SetRepresentation.from_json, ("n", "ground_size", "sets")),
    ])
    def test_header_messages(self, load, keys):
        # The artifact kinds share these checks; keys are checked in order.
        full = {"n": 3, "ordered": False, "cliques": [], "ground_size": 0, "sets": []}
        header = {k: full[k] for k in keys}
        for doc, message in (
            ([], "artifact must be a JSON object"),
            ({}, "artifact is missing the 'n' key"),
            ({"n": 3}, f"artifact is missing the {keys[1]!r} key"),
            ({"n": 3, keys[1]: full[keys[1]]}, f"artifact is missing the {keys[2]!r} key"),
            ({**header, "n": True}, "artifact 'n' must be an integer"),
            ({**header, "n": 4}, "artifact n=4 does not match graph n=3"),
        ):
            with pytest.raises(ValueError) as exc:
                load(doc, path_graph(3))
            assert str(exc.value) == message
