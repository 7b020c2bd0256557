"""validate_partition, validate_representation and validate_greedy against
the direct algorithms in helpers.py, finding for finding and in order, on
valid and tampered artifacts and on partitions at the edges of
validate_partition's exact-cover check; vertices equal to an int without
being one, through the validators and the steps that follow them; and
their cost on a large sparse graph and on one large clique."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquerep import (
    CliquePartition,
    Graph,
    GreedyDecomposition,
    SetRepresentation,
    augment_to_distinct,
    check_rs_bound,
    complete_graph,
    erdos_partition,
    graph,
    greedy_decomposition,
    path_graph,
    representation_from_partition,
    validate_greedy,
    validate_partition,
    validate_representation,
)
from helpers import (
    as_partition,
    graphs,
    random_graph,
    reference_validate_greedy,
    reference_validate_partition,
    reference_validate_representation,
    sparse_random_graph,
)


def valid_partition(rng: random.Random, g: Graph) -> CliquePartition:
    if rng.random() < 0.5:
        return erdos_partition(g)
    return as_partition(greedy_decomposition(g, rng.randrange(2**32)))


def tamper_partition(rng: random.Random, p: CliquePartition) -> CliquePartition:
    """Up to four edits: drop, add, duplicate or extend a clique, or add an
    empty clique, an out-of-range vertex or a repeated vertex."""
    n = p.host.n
    cliques = [list(c) for c in p.cliques]
    for _ in range(rng.randrange(5)):
        op = rng.randrange(7)
        if op == 0 and cliques:
            cliques.pop(rng.randrange(len(cliques)))
        elif op == 1:
            cliques.append(rng.sample(range(n), rng.randint(1, min(n, 5))))
        elif op == 2 and cliques:
            cliques.append(list(rng.choice(cliques)))
        elif op == 3 and cliques:
            rng.choice(cliques).append(rng.randrange(n))
        elif op == 4:
            cliques.append([])
        elif op == 5 and cliques:
            rng.choice(cliques).append(rng.choice([-1, n, n + 2]))
        elif op == 6 and cliques:
            cl = rng.choice(cliques)
            cl.append(cl[0] if cl else 0)
    return CliquePartition.from_cliques(p.host, cliques)


def tamper_representation(rng: random.Random, r: SetRepresentation) -> SetRepresentation:
    """Up to four edits: remove or add an element (ids from -2 to
    ground_size + 2), move ground_size by 2, or merge two vertices' sets."""
    sets = [set(s) for s in r.sets]
    ground = r.ground_size
    for _ in range(rng.randrange(5)):
        op = rng.randrange(4)
        u, v = rng.randrange(len(sets)), rng.randrange(len(sets))
        if op == 0 and sets[v]:
            sets[v].discard(rng.choice(sorted(sets[v])))
        elif op == 1:
            sets[v].add(rng.randint(-2, ground + 2))
        elif op == 2:
            ground = max(0, ground + rng.choice((-2, 2)))
        elif op == 3:
            sets[u] |= sets[v]
            sets[v] = set(sets[u])
    return SetRepresentation(r.host, tuple(frozenset(s) for s in sets), ground)


def tamper_sequence(rng: random.Random, d: GreedyDecomposition) -> GreedyDecomposition:
    """Up to four edits: drop, insert, duplicate, extend or shorten a
    clique, insert an empty clique, add an out-of-range or a repeated
    vertex, or shuffle the order."""
    n = d.host.n
    cliques = [list(c) for c in d.sequence]
    for _ in range(rng.randrange(5)):
        op = rng.randrange(8)
        at = rng.randrange(len(cliques) + 1)
        if op == 0 and cliques:
            cliques.pop(rng.randrange(len(cliques)))
        elif op == 1:
            cliques.insert(at, rng.sample(range(n), rng.randint(1, min(n, 5))))
        elif op == 2 and cliques:
            cliques.insert(at, list(rng.choice(cliques)))
        elif op == 3 and cliques:
            rng.choice(cliques).append(rng.randrange(n))
        elif op == 4 and cliques:
            cl = rng.choice(cliques)
            if cl:
                cl.pop(rng.randrange(len(cl)))
        elif op == 5:
            cliques.insert(at, [])
        elif op == 6 and cliques:
            cl = rng.choice(cliques)
            cl.append(rng.choice([-1, n, n + 2, cl[0] if cl else 0]))
        elif op == 7:
            rng.shuffle(cliques)
    return GreedyDecomposition(d.host, tuple(map(tuple, cliques)))


def assert_same_findings(rng: random.Random, g: Graph) -> None:
    p = valid_partition(rng, g)
    for q in (p, tamper_partition(rng, p)):
        got = [v.to_json() for v in validate_partition(g, q)]
        assert got == [v.to_json() for v in reference_validate_partition(g, q)]
    r = representation_from_partition(p)
    if rng.random() < 0.5:
        r = augment_to_distinct(r)
    for s in (r, tamper_representation(rng, r)):
        for distinct in (False, True):
            got = [v.to_json() for v in validate_representation(g, s, distinct)]
            want = reference_validate_representation(g, s, distinct)
            assert got == [v.to_json() for v in want]
    d = greedy_decomposition(g, rng.randrange(2**32))
    for e in (d, tamper_sequence(rng, d)):
        got = [v.to_json() for v in validate_greedy(g, e)]
        assert got == [v.to_json() for v in reference_validate_greedy(g, e)]


class TestSameFindingsAsTheReference:
    @given(graphs(min_n=1, max_n=10), st.randoms(use_true_random=False))
    @settings(max_examples=400)
    def test_small_graphs(self, g, rng):
        assert_same_findings(rng, g)

    def test_random_graphs(self):
        rng = random.Random(5)
        for _ in range(12):
            n = rng.randint(20, 300)
            p = rng.choice((0.01, 0.05, 0.2, 0.5, 0.9))
            assert_same_findings(rng, random_graph(rng, n, p))


# Each partition passes or fails the exact-cover check on one condition.
EXACT_COVER_EDGES = {
    # Σ C(|C|, 2) = |E|, but (0, 1) is covered twice and (2, 3) not at all.
    "double_and_missed": (graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
                          ((0, 1), (0, 1, 2))),
    # The covered pairs are exactly E, one pair too many times.
    "edge_inside_triangle": (complete_graph(3), ((0, 1), (0, 1, 2))),
    # Vertex 3 is isolated and has no trivial clique.
    "isolated_uncovered": (graph(4, [(0, 1), (1, 2)]), ((0, 1), (1, 2))),
    # A trivial clique on a vertex with edges is allowed.
    "extra_trivial": (path_graph(3), ((0, 1), (1,), (1, 2))),
    # Neither a repeated trivial clique nor an empty one changes the count
    # or the cover masks.
    "repeated_trivial": (path_graph(3), ((0, 1), (1,), (1,), (1, 2))),
    "empty_clique": (path_graph(3), ((0, 1), (), (1, 2))),
    # Σ C(|C|, 2) = |E| and every vertex is covered, but (0, 0, 1) holds
    # one pair where its size counts three, so (0, 2) and (1, 2) are missed.
    "repeated_member": (complete_graph(3), ((0, 0, 1), (2,))),
    # (0, True) equals (0, 1): a duplicate clique.
    "true_beside_one": (path_graph(3), ((0, True), (0, 1), (1, 2))),
}


@pytest.mark.parametrize("case", sorted(EXACT_COVER_EDGES))
def test_exact_cover_edges_match_the_reference(case):
    g, cliques = EXACT_COVER_EDGES[case]
    p = CliquePartition(g, cliques)
    got = [v.to_json() for v in validate_partition(g, p)]
    assert got == [v.to_json() for v in reference_validate_partition(g, p)]
    assert (got == []) == (case == "extra_trivial")


def assert_steps_take_members_as_ints(g, cliques):
    """The steps that validate and then use a partition or a sequence give
    the result they give for the same cliques with members mapped to int."""
    ints = tuple(tuple(map(int, cl)) for cl in cliques)
    want = representation_from_partition(CliquePartition(g, ints))
    assert representation_from_partition(CliquePartition(g, cliques)) == want
    assert representation_from_partition(GreedyDecomposition(g, cliques)) == want
    assert check_rs_bound(g, GreedyDecomposition(g, cliques)) == check_rs_bound(
        g, GreedyDecomposition(g, ints))


@pytest.mark.parametrize("cliques", [((0, 1.0), (1, 2)), ((0, True), (True, 2))])
def test_vertices_equal_to_an_int_count_as_that_vertex(cliques):
    g = graph(3, [(0, 1), (1, 2)])
    assert validate_partition(g, CliquePartition(g, cliques)) == []
    assert validate_greedy(g, GreedyDecomposition(g, cliques)) == []
    assert_steps_take_members_as_ints(g, cliques)


def test_numpy_integer_vertices_past_the_int64_shift_range():
    np = pytest.importorskip("numpy")
    g = path_graph(70)
    cliques = tuple((np.int64(v), np.int64(v + 1)) for v in range(69))
    assert validate_partition(g, CliquePartition(g, cliques)) == []
    assert validate_greedy(g, GreedyDecomposition(g, cliques)) == []
    assert_steps_take_members_as_ints(g, cliques)


def test_a_member_equal_to_no_vertex_is_a_bad_vertex():
    g = graph(3, [(0, 1), (1, 2)])
    cliques = ((0, 1.5), (1, 2))
    got = validate_partition(g, CliquePartition(g, cliques))
    assert [v.to_json() for v in got] == [
        {"kind": "bad_vertex", "position": 0, "vertex": 1.5},
        {"kind": "miscovered_edge", "pair": [0, 1], "observed": 0, "expected": 1},
    ]
    got = validate_greedy(g, GreedyDecomposition(g, cliques))
    assert [v.to_json() for v in got] == [
        {"kind": "bad_vertex", "position": 0, "vertex": 1.5},
        {"kind": "uncovered_edge", "pair": [0, 1]},
    ]


def test_linear_on_a_large_sparse_graph():
    # Intersecting the sets of all n(n-1)/2 vertex pairs took 35 s on this
    # graph (2-core x86 VM, Python 3.11).
    n = 10_000
    g = sparse_random_graph(random.Random(6), n, 3 / n)
    d = greedy_decomposition(g)
    r = augment_to_distinct(representation_from_partition(d))
    p = as_partition(d)
    for check in (lambda: validate_partition(g, p),
                  lambda: validate_representation(g, r, require_distinct=True)):
        start = time.perf_counter()
        assert check() == []
        assert time.perf_counter() - start < 2.0


def test_linear_in_the_members_of_a_large_clique():
    # Counting the 1,124,250 vertex pairs of the clique one by one took
    # 3.0 s, and looking each pair up in the edge set 0.82 s (2-core x86
    # VM, Python 3.11).
    g = complete_graph(1500)
    p = CliquePartition.from_cliques(g, [range(g.n)])
    r = representation_from_partition(p)
    d = GreedyDecomposition(g, p.cliques)
    for check, limit in ((lambda: validate_partition(g, p), 1.0),
                         (lambda: validate_representation(g, r), 1.0),
                         (lambda: validate_greedy(g, d), 0.1)):
        start = time.perf_counter()
        assert check() == []
        assert time.perf_counter() - start < limit
