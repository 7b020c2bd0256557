"""Every greedy clique decomposition of every graph on at most six vertices,
up to isomorphism.

The paper bounds any greedy decomposition by floor(n^2/4) cliques, and so
the distinct representation built from one by floor(n^2/4) elements. The
sweep checks the lexicographic run and its relabelings only; this module
takes each of the 209 classes of networkx's graph atlas with n <= 6 and
follows every choice a greedy step has: at each residual graph, every
maximal clique of at least two vertices, found here by Bron-Kerbosch with a
pivot on bitmasks. Nothing below calls the library to search.
"""

from functools import cache

import networkx as nx

from cliquerep import (
    CliquePartition,
    augment_to_distinct,
    graph,
    greedy_decomposition,
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


def greedy_partitions(rows: tuple[int, ...]) -> frozenset[frozenset[int]]:
    """The clique sets, as masks, of every greedy decomposition of rows:
    take any maximal clique of the residual, delete its edges, repeat until
    no edge is left. Memoized on the labeled residual rows."""

    @cache
    def rest(residual):
        options = maximal_cliques(residual)
        if not options:
            return frozenset([frozenset()])
        out = set()
        for clique in options:
            after = tuple(row & ~clique if clique >> v & 1 else row
                          for v, row in enumerate(residual))
            out.update(p | {clique} for p in rest(after))
        return frozenset(out)

    return rest(rows)


def _classes():
    """(n, networkx graph, rows, greedy partitions with the trivial clique
    of each isolated vertex, as sorted tuples of sorted cliques)."""
    out = []
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n > MAX_N:
            break
        rows = tuple(sum(1 << w for w in h[v]) for v in range(n))
        trivial = [(v,) for v in range(n) if not rows[v]]
        partitions = {tuple(sorted([tuple(_bits(c)) for c in p] + trivial))
                      for p in greedy_partitions(rows)}
        out.append((n, h, rows, partitions))
    return out


CLASSES = _classes()


def _balanced_bipartite(n):
    return nx.complete_bipartite_graph(n // 2, n - n // 2)


def _graph(n, rows):
    return graph(n, [(u, w) for u in range(n) for w in _bits(rows[u] >> u + 1 << u + 1)])


def test_the_atlas_gives_every_class():
    counts = [sum(1 for n, *_ in CLASSES if n == k) for k in range(MAX_N + 1)]
    assert counts == [1, 1, 2, 4, 11, 34, 156]
    assert sum(len(partitions) for *_, partitions in CLASSES) == 370


def test_the_longest_greedy_decomposition_has_a_quarter_square_of_cliques():
    for n in range(MAX_N + 1):
        longest = {}
        for k, h, _, partitions in CLASSES:
            if k == n:
                longest[h] = max(sum(len(c) > 1 for c in p) for p in partitions)
        assert max(longest.values()) == n * n // 4, n
        if n >= 2:
            extremal = [h for h, size in longest.items() if size == n * n // 4]
            assert len(extremal) == 1, n
            assert nx.is_isomorphic(extremal[0], _balanced_bipartite(n)), n


def test_every_greedy_partition_is_valid_and_its_distinct_price_within_the_bound():
    # Priced as the ground size of the distinct representation built from
    # the partition; isolated vertices carry their trivial cliques.
    priced = {}
    for n, h, rows, partitions in CLASSES:
        g = _graph(n, rows)
        for cliques in partitions:
            p = CliquePartition.from_cliques(g, cliques)
            assert validate_partition(g, p) == [], (rows, cliques)
            price = augment_to_distinct(representation_from_partition(p)).ground_size
            priced[h] = max(priced.get(h, 0), price)
    for n in range(4, MAX_N + 1):
        top = {h: price for h, price in priced.items() if h.number_of_nodes() == n}
        assert max(top.values()) == n * n // 4, n
        extremal = [h for h, price in top.items() if price == n * n // 4]
        if n == 4:
            assert len(extremal) == 6
        else:
            assert len(extremal) == 1, n
            assert nx.is_isomorphic(extremal[0], _balanced_bipartite(n)), n


def test_the_library_runs_are_greedy_decompositions():
    for n, _, rows, partitions in CLASSES:
        g = _graph(n, rows)
        for seed in (None, *range(1, 11)):
            run = greedy_decomposition(g, seed).sequence
            assert tuple(sorted(run)) in partitions, (rows, seed)
