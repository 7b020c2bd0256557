"""Every greedy clique decomposition of every graph on at most seven
vertices, up to isomorphism.

The paper bounds any greedy decomposition by floor(n^2/4) cliques, and so
the distinct representation built from one by floor(n^2/4) elements. The
sweep checks the lexicographic run and its relabelings only; this module
takes each of the 209 classes of networkx's graph atlas with n <= 6 (and,
in the slow tier, the 1,044 with n = 7) and follows every choice a greedy
step has: at each residual graph, every maximal clique of at least two
vertices, found here by Bron-Kerbosch with a pivot on bitmasks. Nothing
below calls the library to search, except the tables of cp and omega per
class, which tests/test_ilp_oracle.py checks against an integer program at
n <= 6.
"""

from functools import cache

import networkx as nx
import pytest

from cliquerep import (
    CliquePartition,
    GreedyDecomposition,
    augment_to_distinct,
    check_rs_bound,
    enumerate_labeled_graphs,
    graph,
    greedy_decomposition,
    min_clique_partition,
    min_distinct_representation,
    representation_from_partition,
    validate_partition,
)

MAX_N = 6


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def maximal_cliques(rows: tuple[int, ...]) -> list[int]:
    """Masks of the maximal cliques of at least two vertices, by
    Bron-Kerbosch with the pivot of most candidate neighbours."""
    found = []

    def extend(clique, cand, done):
        if not cand and not done:
            if clique.bit_count() >= 2:
                found.append(clique)
            return
        pivot = max(_bits(cand | done), key=lambda u: (rows[u] & cand).bit_count())
        for v in _bits(cand & ~rows[pivot]):
            extend(clique | 1 << v, cand & rows[v], done & rows[v])
            cand &= ~(1 << v)
            done |= 1 << v

    extend(0, (1 << len(rows)) - 1, 0)
    return found


def _residual(residual: tuple[int, ...], clique: int) -> tuple[int, ...]:
    """The rows once the edges of clique (a mask) are deleted."""
    return tuple(row & ~clique if clique >> v & 1 else row for v, row in enumerate(residual))


def greedy_partitions(rows: tuple[int, ...]) -> dict[frozenset[int], tuple[int, ...]]:
    """The clique sets, as masks, of every greedy decomposition of rows,
    each with the first sequence found for it: take any maximal clique of
    the residual, delete its edges, repeat until no edge is left. Memoized
    on the labeled residual rows."""

    @cache
    def rest(residual):
        options = maximal_cliques(residual)
        if not options:
            return {frozenset(): ()}
        out = {}
        for clique in options:
            for p, sequence in rest(_residual(residual, clique)).items():
                out.setdefault(p | {clique}, (clique, *sequence))
        return out

    return rest(rows)


def _classes(orders):
    """(n, networkx graph, rows, greedy partitions) of each atlas class on n
    vertices, n in orders: each partition, with the trivial clique of each
    isolated vertex, as a sorted tuple of sorted cliques, maps to one greedy
    sequence for it, trivial cliques last."""
    out = []
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n not in orders:
            continue
        rows = tuple(sum(1 << w for w in h[v]) for v in range(n))
        trivial = [(v,) for v in range(n) if not rows[v]]
        partitions = {}
        for p, sequence in greedy_partitions(rows).items():
            key = tuple(sorted([tuple(_bits(c)) for c in p] + trivial))
            partitions[key] = tuple(tuple(_bits(c)) for c in sequence) + tuple(trivial)
        out.append((n, h, rows, partitions))
    return out


CLASSES = _classes(range(MAX_N + 1))


def _balanced_bipartite(n):
    return nx.complete_bipartite_graph(n // 2, n - n // 2)


def _graph(n, rows):
    return graph(n, [(u, w) for u in range(n) for w in _bits(rows[u] >> u + 1 << u + 1)])


def _exact(n, rows):
    g = _graph(n, rows)
    return min_clique_partition(g)[0], min_distinct_representation(g)[0]


#: (cp, omega) of each class, in CLASSES order, by the library's searches.
EXACT = [_exact(n, rows) for n, _, rows, _ in CLASSES]


@cache
def _order_seven():
    """The 1,044 classes on seven vertices, as CLASSES lists them, and
    their (cp, omega): built on first use, by the slow tests only."""
    classes = _classes((7,))
    return classes, [_exact(n, rows) for n, _, rows, _ in classes]


def _column(n, j, classes=CLASSES, exact=EXACT):
    """{class: its value in column j of exact (0 cp, 1 omega)} on n vertices."""
    return {h: row[j] for (k, h, *_), row in zip(classes, exact) if k == n}


def _longest(n, classes=CLASSES):
    """{class: the most non-trivial cliques in one of its greedy
    partitions} on n vertices."""
    return {h: max(sum(len(c) > 1 for c in p) for p in partitions)
            for k, h, _, partitions in classes if k == n}


def _priced(classes):
    """{class: the largest ground size of the distinct representation built
    from one of its greedy partitions}, each partition checked valid first;
    isolated vertices carry their trivial cliques."""
    priced = {}
    for n, h, rows, partitions in classes:
        g = _graph(n, rows)
        for cliques in partitions:
            p = CliquePartition.from_cliques(g, cliques)
            assert validate_partition(g, p) == [], (rows, cliques)
            price = augment_to_distinct(representation_from_partition(p)).ground_size
            priced[h] = max(priced.get(h, 0), price)
    return priced


def _assert_peak(values, n, count=1):
    """The values, one per class on n vertices, peak at floor(n^2/4) on
    count classes; one class is K_{floor(n/2),ceil(n/2)}."""
    assert max(values.values()) == n * n // 4, n
    extremal = [h for h, value in values.items() if value == n * n // 4]
    assert len(extremal) == count, n
    if count == 1:
        assert nx.is_isomorphic(extremal[0], _balanced_bipartite(n)), n


def test_the_atlas_gives_every_class():
    counts = [sum(1 for n, *_ in CLASSES if n == k) for k in range(MAX_N + 1)]
    assert counts == [1, 1, 2, 4, 11, 34, 156]
    assert sum(len(partitions) for *_, partitions in CLASSES) == 370


def test_the_longest_greedy_decomposition_has_a_quarter_square_of_cliques():
    for n in range(MAX_N + 1):
        longest = _longest(n)
        if n >= 2:
            _assert_peak(longest, n)
        else:
            assert max(longest.values()) == 0


def test_every_greedy_partition_is_valid_and_its_distinct_price_within_the_bound():
    priced = _priced(CLASSES)
    for n in range(4, MAX_N + 1):
        top = {h: price for h, price in priced.items() if h.number_of_nodes() == n}
        _assert_peak(top, n, 6 if n == 4 else 1)


def test_the_library_runs_are_greedy_decompositions():
    for n, _, rows, partitions in CLASSES:
        g = _graph(n, rows)
        for seed in (None, *range(1, 11)):
            run = greedy_decomposition(g, seed).sequence
            assert tuple(sorted(run)) in partitions, (rows, seed)


def test_cp_and_omega_peak_at_a_quarter_square():
    # Trivial cliques count towards omega, so at n = 4 more classes reach
    # the peak for it than for cp.
    for n in range(4, MAX_N + 1):
        for j, at_four in ((0, 2), (1, 6)):
            _assert_peak(_column(n, j), n, at_four if n == 4 else 1)


def _positive_gaps(n, classes=CLASSES, exact=EXACT):
    """How many classes on n vertices have omega > cp. The gap column
    omega - cp is never negative: K_n pays n - 1 trivial cliques on top of
    its one clique, and no other class pays as much."""
    omegas = _column(n, 1, classes, exact)
    gaps = {h: omegas[h] - cp for h, cp in _column(n, 0, classes, exact).items()}
    assert min(gaps.values()) >= 0, n
    if n >= 1:
        assert max(gaps.values()) == n - 1, n
        extremal = [h for h, gap in gaps.items() if gap == n - 1]
        assert len(extremal) == 1, n
        assert nx.is_isomorphic(extremal[0], nx.complete_graph(n)), n
    return sum(gap > 0 for gap in gaps.values())


def _triangle_free(classes=CLASSES, exact=EXACT):
    """How many classes have no triangle, each checked to need one clique
    per edge: no edge lies in a larger clique, so cp is |E| plus the
    isolated vertices; by Mantel's theorem K_{n/2,n/2} has the most edges."""
    triangle_free = 0
    for (n, h, *_), (cp, _) in zip(classes, exact):
        if not any(nx.triangles(h).values()):
            assert cp == h.number_of_edges() + nx.number_of_isolates(h), nx.to_graph6_bytes(h)
            triangle_free += 1
    return triangle_free


def test_distinct_sets_cost_at_most_n_minus_one_more_than_a_partition():
    assert [_positive_gaps(n) for n in range(MAX_N + 1)] == [0, 0, 1, 2, 5, 13, 46]


def test_a_triangle_free_class_needs_one_clique_per_edge():
    # 1, 1, 2, 3, 7, 14 and 38 classes for n = 0..6 (OEIS A006785).
    assert _triangle_free() == 66


def test_every_labeled_greedy_sequence_up_to_n5_is_within_the_bound():
    # An independent count: every sequence of maximal cliques on every
    # labeled graph, with no memo and no isomorphism classes.
    def lengths(residual):
        options = maximal_cliques(residual)
        if not options:
            yield 0
        for clique in options:
            yield from (1 + k for k in lengths(_residual(residual, clique)))

    total, longest = 0, []
    for n in range(1, 6):
        found = [k for g in enumerate_labeled_graphs(n) for k in lengths(g.adj)]
        total += len(found)
        longest.append(max(found))
    assert total == 30299
    assert longest == [0, 1, 2, 4, 6]


def test_the_two_clique_lemma_holds_on_one_sequence_per_partition():
    # check_rs_bound also replays each sequence through validate_greedy.
    checked = 0
    for n, _, rows, partitions in CLASSES:
        g = _graph(n, rows)
        for sequence in partitions.values():
            assert check_rs_bound(g, GreedyDecomposition(g, sequence)) == [], (rows, sequence)
            checked += 1
    assert checked == 370


@pytest.mark.slow
def test_every_greedy_decomposition_at_n7_is_within_the_bound():
    # 1,044 classes with 3,467 greedy partitions in all, about 5 s, nearly
    # all of it the memo. Each partition is valid and one sequence for it
    # passes check_rs_bound. The longest decomposition has 12 non-trivial
    # cliques and the dearest distinct representation 12 elements, each on
    # K_{3,4} alone.
    classes, _ = _order_seven()
    assert len(classes) == 1044
    assert sum(len(partitions) for *_, partitions in classes) == 3467
    _assert_peak(_longest(7, classes), 7)
    _assert_peak(_priced(classes), 7)
    for n, _, rows, partitions in classes:
        g = _graph(n, rows)
        for sequence in partitions.values():
            assert check_rs_bound(g, GreedyDecomposition(g, sequence)) == [], (rows, sequence)


@pytest.mark.slow
def test_cp_and_omega_at_n7_peak_at_a_quarter_square():
    # Both peak at 12 on K_{3,4} alone. omega > cp on 204 classes, and the
    # 107 triangle-free classes (OEIS A006785) need one clique per edge.
    classes, exact = _order_seven()
    for j in (0, 1):
        _assert_peak(_column(7, j, classes, exact), 7)
    assert _positive_gaps(7, classes, exact) == 204
    assert _triangle_free(classes, exact) == 107
