"""validate_partition, validate_representation and validate_greedy against
the direct algorithms in helpers.py, finding for finding and in order, on
valid and tampered artifacts and on partitions that only just fail or pass
an exact cover; the sweep's one-pass check against the walk's verdict;
members equal to an int without being one, which are no vertices, through
the validators and the steps that follow them; and their cost on a large
sparse graph and on one large clique."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquerep import (
    CliquePartition,
    Graph,
    GreedyDecomposition,
    SetRepresentation,
    Violation,
    augment_to_distinct,
    check_rs_bound,
    complete_graph,
    edge_bitmask,
    enumerate_labeled_graphs,
    erdos_partition,
    graph,
    greedy_decomposition,
    path_graph,
    representation_from_partition,
    validate_greedy,
    validate_partition,
    validate_representation,
)
from cliquerep import decompose
from cliquerep.decompose import _duplicates_on_mask, _erdos_cliques, _greedy_run
from cliquerep.graphs import ENUMERATION_MAX_N, _labeled_graphs
from helpers import (
    as_partition,
    graphs,
    random_graph,
    reference_duplicates_and_widest,
    reference_validate_greedy,
    reference_validate_partition,
    reference_validate_representation,
    sparse_random_graph,
)


def valid_partition(rng: random.Random, g: Graph) -> CliquePartition:
    if rng.random() < 0.5:
        return erdos_partition(g)
    return as_partition(greedy_decomposition(g, rng.randrange(2**32)))


def equal_non_int(rng: random.Random, cliques: list[list]) -> None:
    """Replace one member of a non-empty clique with an equal member that
    is not an int: True for 1, else the float."""
    cl = rng.choice(cliques)
    if cl:
        k = rng.randrange(len(cl))
        cl[k] = True if cl[k] == 1 else float(cl[k])


def tamper_partition(rng: random.Random, p: CliquePartition) -> CliquePartition:
    """Up to four edits: drop, add, duplicate or extend a clique, or add an
    empty clique, an out-of-range vertex, a repeated vertex or a member
    equal to a vertex that is not an int."""
    n = p.host.n
    cliques = [list(c) for c in p.cliques]
    for _ in range(rng.randrange(5)):
        op = rng.randrange(8)
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
        elif op == 7 and cliques:
            equal_non_int(rng, cliques)
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
    vertex, put in a member equal to a vertex that is not an int, or
    shuffle the order."""
    n = d.host.n
    cliques = [list(c) for c in d.sequence]
    for _ in range(rng.randrange(5)):
        op = rng.randrange(9)
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
        elif op == 8 and cliques:
            equal_non_int(rng, cliques)
    return GreedyDecomposition(d.host, tuple(map(tuple, cliques)))


def assert_one_pass_verdicts(g: Graph, cliques, valid: bool) -> None:
    """The sweep's one-pass check fails exactly on an invalid partition:
    it sends a construction that _duplicates_on_mask does not accept to the
    transforms' raise or to the validators. The check's table has 2^n
    entries, so it is checked at the orders a sweep visits."""
    if g.n <= ENUMERATION_MAX_N:
        assert (_duplicates_on_mask(g.n, edge_bitmask(g), cliques) is None) == (not valid)


def assert_same_findings(rng: random.Random, g: Graph) -> None:
    p = valid_partition(rng, g)
    for q in (p, tamper_partition(rng, p)):
        got = [v.to_json() for v in validate_partition(g, q)]
        assert got == [v.to_json() for v in reference_validate_partition(g, q)]
        assert_one_pass_verdicts(g, q.cliques, got == [])
    r = representation_from_partition(p)
    if rng.random() < 0.5:
        r = augment_to_distinct(r)
    for s in (r, tamper_representation(rng, r)):
        if s.ground_size > sum(map(len, s.sets)):
            # A ground size moved past the set entries is rejected outright.
            with pytest.raises(ValueError, match="^artifact 'ground_size' exceeds"):
                validate_representation(g, s)
            continue
        for distinct in (False, True):
            got = [v.to_json() for v in validate_representation(g, s, distinct)]
            want = reference_validate_representation(g, s, distinct)
            assert got == [v.to_json() for v in want]
    d = greedy_decomposition(g, rng.randrange(2**32))
    for e in (d, tamper_sequence(rng, d)):
        got = [v.to_json() for v in validate_greedy(g, e)]
        assert got == [v.to_json() for v in reference_validate_greedy(g, e)]
        partition = CliquePartition(g, e.sequence)
        assert_one_pass_verdicts(g, e.sequence, validate_partition(g, partition) == [])


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


def edge_incidence(rng: random.Random, g: Graph) -> SetRepresentation:
    """A valid distinct-set representation built without the program:
    element k is the k-th edge in a shuffled order, and a vertex whose set
    is empty or repeats an earlier vertex's gets a fresh element."""
    edges = sorted(g.edges)
    rng.shuffle(edges)
    sets = [set() for _ in range(g.n)]
    for k, (u, v) in enumerate(edges):
        sets[u].add(k)
        sets[v].add(k)
    seen, ground = set(), len(edges)
    for s in sets:
        if not s or frozenset(s) in seen:
            s.add(ground)
            ground += 1
        seen.add(frozenset(s))
    return SetRepresentation(g, tuple(map(frozenset, sets)), ground)


def move_element(rng: random.Random, sets: list[set], u: int, k: int) -> int:
    """Move element k from u's set to a third vertex's set that lacks it;
    return that vertex."""
    dst = rng.choice([w for w, s in enumerate(sets) if k not in s])
    sets[u].remove(k)
    sets[dst].add(k)
    return dst


def one_fault_representations(rng: random.Random, r: SetRepresentation):
    """Copies of r, each with one fault: an element moved to a third vertex,
    added to a third set or dropped, an id past the ground set, a huge id in
    two adjacent sets, an id that is not an int, an emptied set, a set
    copied onto another vertex, and an unused id."""
    g = r.host

    def copy(edit, ground=r.ground_size):
        sets = [set(s) for s in r.sets]
        edit(sets)
        return SetRepresentation(g, tuple(map(frozenset, sets)), ground)

    def pick(sets):
        return rng.choice([v for v, s in enumerate(sets) if s])

    def move(sets):
        u = pick(sets)
        move_element(rng, sets, u, rng.choice(sorted(sets[u])))

    def add_to_third(sets):
        k = rng.choice(sorted(sets[pick(sets)]))
        sets[rng.choice([w for w, s in enumerate(sets) if k not in s])].add(k)

    def drop(sets):
        v = pick(sets)
        sets[v].discard(rng.choice(sorted(sets[v])))

    def huge_in_adjacent(sets):
        u, v = rng.choice(sorted(g.edges))
        sets[u].add(10**30)
        sets[v].add(10**30)

    yield copy(move)
    yield copy(add_to_third)
    yield copy(drop)
    yield copy(lambda sets: sets[pick(sets)].add(rng.choice((-1, r.ground_size))))
    yield copy(huge_in_adjacent)
    yield copy(lambda sets: sets[pick(sets)].add(rng.choice((0.0, True, "x"))))
    yield copy(lambda sets: sets[rng.randrange(g.n)].clear())
    yield copy(lambda sets: sets.__setitem__(rng.randrange(g.n), set(sets[pick(sets)])))
    yield copy(lambda sets: None, r.ground_size + 1)


def test_same_findings_as_the_reference_on_larger_representations():
    # Edge-incidence sets and the representations of greedy and erdos
    # partitions, on seeded graphs with 60 to 150 vertices, valid and with
    # each single fault.
    rng = random.Random(43)
    kinds = set()
    for _ in range(4):
        g = random_graph(rng, rng.randint(60, 150), rng.choice((0.05, 0.2, 0.5)))
        for r in (edge_incidence(rng, g),
                  representation_from_partition(greedy_decomposition(g, rng.randrange(2**32))),
                  representation_from_partition(erdos_partition(g))):
            for s in (r, *one_fault_representations(rng, r)):
                for distinct in (False, True):
                    got = [v.to_json() for v in validate_representation(g, s, distinct)]
                    want = reference_validate_representation(g, s, distinct)
                    assert got == [v.to_json() for v in want]
                    kinds.update(v["kind"] for v in got)
    assert kinds == {"empty_set", "element_out_of_range", "unused_element",
                     "wrong_intersection", "duplicate_sets"}


def test_pairs_are_counted_only_at_the_failing_vertices(monkeypatch):
    # The element of an edge {u, v} moved from u to a third vertex breaks
    # a pair at each of the three, so they fail the per-vertex test; no
    # other vertex's pairs are counted.
    rng = random.Random(300)
    g = random_graph(rng, 300, 0.5)
    r = edge_incidence(rng, g)
    sets = [set(s) for s in r.sets]
    u, v = rng.choice(sorted(g.edges))
    [k] = sets[u] & sets[v]
    dst = move_element(rng, sets, u, k)
    bad = SetRepresentation(g, tuple(map(frozenset, sets)), r.ground_size)
    counted = []
    real = decompose._miscounted_above
    monkeypatch.setattr(decompose, "_miscounted_above",
                        lambda v, row, own: counted.append(v) or real(v, row, own))
    got = validate_representation(g, bad)
    assert got == reference_validate_representation(g, bad)
    assert {w for f in got for w in f.pair} == {u, v, dst}
    assert counted == sorted({u, v, dst})
    counted.clear()
    assert validate_representation(g, r) == [] and counted == []


def test_partition_pairs_are_counted_only_at_the_failing_vertices(monkeypatch):
    # A non-neighbour x of a's first member joins clique a, and member y of
    # clique b moves into clique c, a, b and c disjoint and x in none of
    # them: every pair at x, y and the members of a, b and c then has a
    # wrong count, and no pair elsewhere does.
    rng = random.Random(301)
    g = random_graph(rng, 300, 0.5)
    p = erdos_partition(g)
    cliques = [list(cl) for cl in p.cliques]
    a, b, c = rng.sample([cl for cl in cliques if len(cl) == 3], 3)
    while len({*a, *b, *c}) < 9:
        a, b, c = rng.sample([cl for cl in cliques if len(cl) == 3], 3)
    x = rng.choice([v for v in range(g.n)
                    if v not in (*a, *b, *c) and (min(v, a[0]), max(v, a[0])) not in g.edges])
    failing = sorted({x, *a, *b, *c})
    a.append(x)
    y = b.pop(rng.randrange(len(b)))
    c.append(y)
    bad = CliquePartition(g, tuple(map(tuple, cliques)))
    counted = []
    real = decompose._miscounted_above
    monkeypatch.setattr(decompose, "_miscounted_above",
                        lambda v, row, own: counted.append(v) or real(v, row, own))
    got = validate_partition(g, bad)
    assert got == reference_validate_partition(g, bad)
    assert {w for f in got if f.kind != "not_a_clique" for w in f.pair} == {*failing}
    assert counted == failing
    counted.clear()
    assert validate_partition(g, p) == [] and counted == []


def mask_check_faults(g: Graph, cliques: tuple) -> list[tuple]:
    """Copies of a valid partition's cliques, each with one fault: an empty
    clique, a repeated member, a duplicate trivial clique, a verbatim copy
    of the first non-trivial clique, a non-edge pair,
    a doubly covered edge, an isolated vertex left uncovered, and vertex 1
    (or 0 when n = 1) replaced by a member that is no vertex, n and -1
    among them, or that only equals it: 1.0, True and np.int64."""
    np = pytest.importorskip("numpy")
    n = g.n
    out = [cliques + ((),), cliques + ((0,), (0,))]
    cl = next(c for c in cliques if len(c) > 1) if g.edges else cliques[0]
    out.append(cliques + (cl + (cl[0],),))
    if g.edges:
        out.append(cliques + (cl,))
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in g.edges]
    if non_edges:
        out.append(cliques + (non_edges[0],))
    if g.edges:
        out.append(cliques + (min(g.edges),))
    isolated = [(v,) for v in range(n) if g.adj[v] == 0]
    if isolated:
        out.append(tuple(c for c in cliques if c != isolated[0]))
    v = 1 if n > 1 else 0
    at = next(i for i, c in enumerate(cliques) if v in c)
    for bad in (n, -1, float(v), v == 1, np.int64(v)):
        swapped = tuple(bad if w == v else w for w in cliques[at])
        out.append(cliques[:at] + (swapped,) + cliques[at + 1:])
    return out


def test_mask_check_matches_validate_partition_on_every_small_graph():
    # On every labeled graph with n <= 5: the greedy runs, the erdos
    # partition, tampered copies and one-fault copies. The check accepts
    # exactly what validate_partition accepts, and then counts the fresh
    # elements augment_to_distinct attaches and the widest non-trivial
    # clique.
    rng = random.Random(34)
    accepted = rejected = 0
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            mask = edge_bitmask(g)
            runs = [greedy_decomposition(g, s).sequence for s in (None, 0, 1, 2)]
            valid = [*runs, erdos_partition(g).cliques]
            tampered = [tamper_partition(rng, CliquePartition(g, c)).cliques for c in valid]
            faults = mask_check_faults(g, runs[0])
            for cliques in valid + tampered + faults:
                p = CliquePartition(g, cliques)
                found = _duplicates_on_mask(n, mask, cliques)
                assert (found is not None) == (validate_partition(g, p) == []), (g, cliques)
                if found is None:
                    rejected += 1
                    continue
                accepted += 1
                duplicates, widest = found
                r = representation_from_partition(p)
                assert duplicates == augment_to_distinct(r).ground_size - r.ground_size
                assert widest == max((len(c) for c in cliques if len(c) >= 2), default=0)
            for cliques in faults:
                assert _duplicates_on_mask(n, mask, cliques) is None, (g, cliques)
    # 1,099 graphs, each with 5 valid constructions and at least 9 faults.
    assert accepted >= 5 * 1099 and rejected >= 9 * 1099


def test_mask_check_counts_as_the_incidence_keys_on_every_graph_up_to_n6():
    # The lexicographic greedy run and the erdos partition of every labeled
    # graph with n <= 6, as the sweep makes them, then the same partition
    # with each clique's members reversed and the cliques shuffled: the
    # check's count and width are those of the clique-position keys.
    rng = random.Random(42)
    checked = 0
    for n in range(1, 7):
        for mask, rows in enumerate(_labeled_graphs(n, 0, 1 << n * (n - 1) // 2)):
            for cliques in (_greedy_run(rows), _erdos_cliques(rows)):
                want = reference_duplicates_and_widest(n, cliques)
                assert _duplicates_on_mask(n, mask, cliques) == want, (n, mask, cliques)
                moved = [cl[::-1] for cl in cliques]
                rng.shuffle(moved)
                assert _duplicates_on_mask(n, mask, moved) == want, (n, mask, moved)
                checked += 1
    assert checked == 2 * sum(1 << n * (n - 1) // 2 for n in range(1, 7))


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
    # (0, True) equals (0, 1), but True is no vertex: a bad_vertex, and the
    # later (0, 1) is no duplicate of it.
    "true_beside_one": (path_graph(3), ((0, True), (0, 1), (1, 2))),
    # A clique that fails two shape tests at once, a repeat and a member
    # that is no vertex, gets only its bad_vertex findings.
    "repeat_and_out_of_range": (path_graph(3), ((0, 0, 5), (0, 1), (1, 2))),
    "repeat_and_true": (path_graph(3), ((1, 1, True), (0, 1), (1, 2))),
}


@pytest.mark.parametrize("case", sorted(EXACT_COVER_EDGES))
def test_exact_cover_edges_match_the_reference(case):
    g, cliques = EXACT_COVER_EDGES[case]
    p = CliquePartition(g, cliques)
    got = [v.to_json() for v in validate_partition(g, p)]
    assert got == [v.to_json() for v in reference_validate_partition(g, p)]
    assert (got == []) == (case == "extra_trivial")


def assert_steps_reject(g, cliques, first):
    """The steps that validate and then use a partition or a sequence raise
    on the first finding."""
    for p in (CliquePartition(g, cliques), GreedyDecomposition(g, cliques)):
        with pytest.raises(ValueError) as info:
            representation_from_partition(p)
        assert str(info.value) == f"invalid partition: {first}"
    with pytest.raises(ValueError) as info:
        check_rs_bound(g, GreedyDecomposition(g, cliques))
    assert str(info.value) == f"invalid decomposition: {first}"


@pytest.mark.parametrize("cliques, partition, greedy", [
    (((0, 1.0), (1, 2)),
     [{"kind": "bad_vertex", "position": 0, "vertex": 1.0},
      {"kind": "miscovered_edge", "pair": [0, 1], "observed": 0, "expected": 1}],
     [{"kind": "bad_vertex", "position": 0, "vertex": 1.0},
      {"kind": "uncovered_edge", "pair": [0, 1]}]),
    (((0, True), (True, 2)),
     [{"kind": "bad_vertex", "position": 0, "vertex": True},
      {"kind": "bad_vertex", "position": 1, "vertex": True},
      {"kind": "miscovered_edge", "pair": [0, 1], "observed": 0, "expected": 1},
      {"kind": "miscovered_edge", "pair": [1, 2], "observed": 0, "expected": 1}],
     [{"kind": "bad_vertex", "position": 0, "vertex": True},
      {"kind": "bad_vertex", "position": 1, "vertex": True},
      {"kind": "uncovered_edge", "pair": [0, 1]},
      {"kind": "uncovered_edge", "pair": [1, 2]}]),
], ids=["float", "bool"])
def test_vertices_equal_to_an_int_are_bad_vertices(cliques, partition, greedy):
    # A vertex is exactly an int, as a Graph endpoint is.
    g = path_graph(3)
    assert [v.to_json() for v in validate_partition(g, CliquePartition(g, cliques))] == partition
    assert [v.to_json() for v in validate_greedy(g, GreedyDecomposition(g, cliques))] == greedy
    assert_steps_reject(g, cliques, partition[0])


def test_numpy_integer_vertices_past_the_int64_shift_range():
    # 1 << np.int64(70) overflows; such members are bad_vertex findings and
    # never reach a shift.
    np = pytest.importorskip("numpy")
    g = path_graph(70)
    cliques = tuple((np.int64(v), np.int64(v + 1)) for v in range(69))
    for check, reference, artifact in (
            (validate_partition, reference_validate_partition, CliquePartition(g, cliques)),
            (validate_greedy, reference_validate_greedy, GreedyDecomposition(g, cliques))):
        got = check(g, artifact)
        assert got == reference(g, artifact)
        assert [v.kind for v in got[:138]] == ["bad_vertex"] * 138
        assert "bad_vertex" not in {v.kind for v in got[138:]}
    assert_steps_reject(g, cliques, {"kind": "bad_vertex", "position": 0, "vertex": np.int64(0)})


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
    # One member mask per element, each as wide as its highest member: the
    # traced peak was 16.1 MB, against 11.58 MB for member lists (Python
    # 3.11). The bound is 1.5 times the member lists' peak.
    tracemalloc.start()
    try:
        assert validate_representation(g, r, require_distinct=True) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 11.58e6


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
    # Faulty ones take milliseconds too once g.adj is built: the one clique
    # on K_1500 plus an isolated vertex, and K_1500's clique with the edge
    # (0, 1) again.
    h = Graph(1501, g.edges)
    q = CliquePartition(h, (tuple(range(h.n)),))
    assert h.adj
    start = time.perf_counter()
    kinds = [f.kind for f in validate_partition(h, q)]
    assert time.perf_counter() - start < 1.0
    assert kinds == ["not_a_clique"] * 1500 + ["covered_nonedge"] * 1500 + [
        "isolated_vertex_uncovered"]
    q = CliquePartition(g, (*p.cliques, (0, 1)))
    start = time.perf_counter()
    got = validate_partition(g, q)
    assert time.perf_counter() - start < 1.0
    assert got == [Violation("miscovered_edge", pair=(0, 1), observed=2, expected=1)]
