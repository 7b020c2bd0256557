"""Shared test utilities: random graphs (seeded, and a Hypothesis strategy)
and independent brute-force oracles that never call the code paths they
check, except where a docstring names the shared part."""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations

from hypothesis import strategies as st

from cliquerep import (
    BoundViolation,
    Clique,
    CliquePartition,
    GreedyDecomposition,
    Graph,
    SetRepresentation,
    Violation,
    augment_to_distinct,
    degree,
    erdos_partition,
    graph,
    graph_from_bitmask,
    greedy_decomposition,
    representation_from_partition,
    distinctness,
    validate_partition,
)
from cliquerep.graphs import bits


@st.composite
def graphs(draw, min_n=0, max_n=7):
    """Hypothesis strategy: a labeled graph on min_n..max_n vertices, drawn
    as an edge bitmask."""
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    return graph_from_bitmask(n, draw(st.integers(0, (1 << m) - 1)))


def has_edge(g: Graph, u: int, v: int) -> bool:
    return (min(u, v), max(u, v)) in g.edges


def as_partition(d: GreedyDecomposition) -> CliquePartition:
    """The cliques of a greedy sequence as an unordered partition."""
    return CliquePartition.from_cliques(d.host, d.sequence)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph(n, edges)


def sparse_random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p) in O(n + m) time by skipping geometrically over the vertex
    pairs (Batagelj and Brandes 2005), so that n in the thousands is cheap
    when p is small."""
    edges = []
    if p > 0:
        log_q = math.log1p(-p) if p < 1 else -math.inf
        v, w = 1, -1
        while v < n:
            skip = math.log(1.0 - rng.random()) / log_q  # inf when p is tiny
            w += 1 + int(min(skip, n * n))
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                edges.append((w, v))
    return graph(n, edges)


def remove_edges(g: Graph, edges_to_remove) -> Graph:
    """Same vertices, minus the given edges; every edge must be present."""
    drop = set()
    for u, v in edges_to_remove:
        pair = (u, v) if u < v else (v, u)
        if pair not in g.edges:
            raise ValueError(f"edge {pair} not present in the graph")
        drop.add(pair)
    return Graph(g.n, g.edges - drop)


def representations_equivalent(a: SetRepresentation, b: SetRepresentation) -> bool:
    """True when b is a bijective relabeling of a's element ids: same host,
    same ground size and the same multiset of element member sets."""
    if a.host != b.host or a.ground_size != b.ground_size:
        return False

    def member_sets(r: SetRepresentation) -> list[tuple[int, ...]]:
        return sorted(tuple(v for v, s in enumerate(r.sets) if e in s)
                      for e in range(r.ground_size))

    return member_sets(a) == member_sets(b)


def reference_greedy(g: Graph, seed: int | None) -> tuple[Clique, ...]:
    """The greedy sequence computed the direct way: scan the vertex order for
    the first vertex, its mate and every growth step, in the original labels.
    The order is drawn here rather than taken from the library."""
    order = list(range(g.n))
    if seed is not None:
        random.Random(seed).shuffle(order)
    residual = list(g.adj)
    sequence: list[Clique] = []
    while True:
        first = next((v for v in order if residual[v]), None)
        if first is None:
            break
        mate = next(v for v in order if residual[first] >> v & 1)
        mask = (1 << first) | (1 << mate)
        common = residual[first] & residual[mate]
        while common:
            grow = next(v for v in order if common >> v & 1)
            mask |= 1 << grow
            common &= residual[grow]
        members = tuple(bits(mask))
        for u, v in combinations(members, 2):
            residual[u] &= ~(1 << v)
            residual[v] &= ~(1 << u)
        sequence.append(members)
    sequence.extend((v,) for v in order if g.adj[v] == 0)
    return tuple(sequence)


def reference_erdos(g: Graph) -> tuple[Clique, ...]:
    """erdos_partition's cliques computed the direct way: every step
    recounts every degree and compacts every adjacency mask to local
    indices, tracking the original labels alongside. Only the n <= 4 base
    case is shared with the code under test."""
    adj, labels = list(g.adj), list(range(g.n))
    cliques: list[Clique] = []
    while len(adj) > 4:
        n = len(adj)
        deg = [m.bit_count() for m in adj]
        x = min(range(n), key=lambda v: (deg[v], v))
        lx, nbr_mask = labels[x], adj[x]
        if nbr_mask == 0:
            cliques.append((lx,))
        r = deg[x] - n // 2
        used = 0
        matches: list[tuple[int, int]] = []
        for u in bits(nbr_mask):
            if len(matches) >= r:
                break
            if used >> u & 1:
                continue
            cand = adj[u] & nbr_mask & ~used & ~(1 << u)
            if cand:
                w = (cand & -cand).bit_length() - 1
                matches.append((u, w))
                used |= (1 << u) | (1 << w)
        assert len(matches) >= r
        for u, w in matches:
            adj[u] &= ~(1 << w)
            adj[w] &= ~(1 << u)
            cliques.append((lx, labels[u], labels[w]))
        cliques.extend((lx, labels[u]) for u in bits(nbr_mask & ~used))
        low = (1 << x) - 1
        adj = [(m & low) | (m >> (x + 1)) << x for v, m in enumerate(adj) if v != x]
        labels = labels[:x] + labels[x + 1:]
    # On at most 4 vertices erdos_partition runs only its base case.
    base = graph(len(adj), [(u, v) for u, m in enumerate(adj) for v in bits(m) if u < v])
    cliques.extend(tuple(labels[v] for v in cl) for cl in erdos_partition(base).cliques)
    return tuple(sorted(tuple(sorted(c)) for c in cliques))


def reference_check_shape(n: int, i: int, cl: Clique, seen: set[Clique],
                          out: list[Violation]) -> bool:
    """The findings on clique i itself, checked one by one: empty, each
    member that is no vertex (exactly an int in range(n)), repeated
    vertices, then a repeat of an earlier well-shaped clique (only those go
    into seen). False when the clique's pairs cannot be checked."""
    if len(cl) == 0:
        out.append(Violation("empty_clique", position=i))
        return False
    bad = [v for v in cl if type(v) is not int or not 0 <= v < n]
    if bad:
        out.extend(Violation("bad_vertex", position=i, vertex=v) for v in bad)
        return False
    if len(set(cl)) != len(cl):
        out.append(Violation("repeated_vertex", position=i, vertices=cl))
        return False
    if cl in seen:
        out.append(Violation("duplicate_clique", position=i, vertices=cl))
    seen.add(cl)
    return True


def reference_validate_partition(g: Graph, p: CliquePartition) -> list[Violation]:
    """validate_partition the direct way: check each clique's shape and
    count its pairs, then scan every edge and every counted pair in sorted
    order."""
    out: list[Violation] = []
    seen: set[Clique] = set()
    counts: dict[tuple[int, int], int] = {}
    for i, cl in enumerate(p.cliques):
        if not reference_check_shape(g.n, i, cl, seen, out):
            continue
        for u, v in combinations(sorted(cl), 2):
            counts[(u, v)] = counts.get((u, v), 0) + 1
            if not has_edge(g, u, v):
                out.append(Violation("not_a_clique", position=i, pair=(u, v)))
    for u, v in sorted(g.edges):
        c = counts.get((u, v), 0)
        if c != 1:
            out.append(Violation("miscovered_edge", pair=(u, v), observed=c, expected=1))
    for pair, c in sorted(counts.items()):
        if pair not in g.edges:
            out.append(Violation("covered_nonedge", pair=pair, observed=c, expected=0))
    for v in range(g.n):
        if g.adj[v] == 0 and (v,) not in seen:
            out.append(Violation("isolated_vertex_uncovered", vertex=v))
    return out


def reference_lemma6(g: Graph, cliques) -> list[Violation]:
    """Lemma 6 tested directly on the cliques, which are not validated:
    group the vertices by their sets of clique positions; in each group of
    two or more, the shared set must be one clique (then it is each
    member's only clique), and that clique must be maximal in g, so no
    outside vertex is adjacent to all of it. One finding per pair of a
    group: multi_membership when the shared set is not one clique,
    not_maximal naming the lowest extending vertex otherwise.

    On a valid partition it always returns [], which is why the library has
    no lemma 6 check of its own. Every vertex lies in some clique, and u, v
    with the same two or more cliques would have {u, v} covered twice. So
    their shared clique C is u's only clique, and a vertex x outside C
    adjacent to all of C would put the edge {u, x} in a clique through u,
    which is C."""
    cliques = [tuple(cl) for cl in cliques]
    groups: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        key = frozenset(k for k, cl in enumerate(cliques) if v in cl)
        groups.setdefault(key, []).append(v)
    out: list[Violation] = []
    for key, members in sorted(groups.items(), key=lambda item: sorted(item[0])):
        for u, v in combinations(members, 2):
            if len(key) != 1:
                out.append(Violation("multi_membership", pair=(u, v),
                                     observed=len(key), expected=1))
                continue
            shared = cliques[min(key)]
            outside = [x for x in range(g.n) if x not in shared
                       and all(has_edge(g, x, y) for y in shared)]
            if outside:
                out.append(Violation("not_maximal", pair=(u, v),
                                     vertices=shared, vertex=outside[0]))
    return out


def with_extra_trivial(g: Graph, partitions):
    """Each partition, then its variants with extra trivial cliques on
    non-isolated vertices, smallest sets of them first."""
    non_iso = [v for v in range(g.n) if g.adj[v]]
    for p in partitions:
        for size in range(len(non_iso) + 1):
            for extra in combinations(non_iso, size):
                yield CliquePartition.from_cliques(g, p.cliques + tuple((v,) for v in extra))


def reference_validate_greedy(g: Graph, d: GreedyDecomposition) -> list[Violation]:
    """validate_greedy the direct way: replay the sequence pair by pair
    against the set of residual edges, with the lowest outside vertex joined
    to every member by a residual edge as the not-maximal witness."""
    out: list[Violation] = []
    seen: set[Clique] = set()
    residual = set(g.edges)
    for i, cl in enumerate(d.sequence):
        if not reference_check_shape(g.n, i, cl, seen, out):
            continue
        ok_pairs = []
        for u, v in combinations(sorted(cl), 2):
            if not has_edge(g, u, v):
                out.append(Violation("not_a_clique", position=i, pair=(u, v)))
            elif (u, v) not in residual:
                out.append(Violation("double_cover", position=i, pair=(u, v)))
            else:
                ok_pairs.append((u, v))
        witness = next((w for w in range(g.n) if w not in cl and all(
            (min(w, x), max(w, x)) in residual for x in cl)), None)
        if witness is not None:
            out.append(Violation("not_maximal", position=i, vertex=witness))
        residual.difference_update(ok_pairs)
    out.extend(Violation("uncovered_edge", pair=pair) for pair in sorted(residual))
    for v in range(g.n):
        if g.adj[v] == 0 and (v,) not in seen:
            out.append(Violation("isolated_vertex_uncovered", vertex=v))
    return out


def reference_rs_bound(g: Graph, d: GreedyDecomposition) -> list[Violation]:
    """check_rs_bound on a valid sequence the direct way: for each 2-clique,
    scan the whole sequence for the other cliques touching it."""
    out: list[Violation] = []
    for j, cl in enumerate(d.sequence):
        if len(cl) != 2:
            continue
        x, y = cl
        if degree(g, x) <= 1 and degree(g, y) <= 1:
            continue
        touching = {c for i, c in enumerate(d.sequence)
                    if i != j and (x in c or y in c)}
        if len(touching) > g.n - 2:
            out.append(Violation("rs_bound", position=j, pair=(x, y),
                                 observed=len(touching), expected=g.n - 2))
    return out


def reference_validate_representation(
    g: Graph, r: SetRepresentation, require_distinct: bool = False
) -> list[Violation]:
    """validate_representation the direct way: intersect the two sets of
    every vertex pair. An id that is not exactly an int is out of range,
    after the set's int ids in repr order, and counts in no intersection.
    Only the duplicate classes (distinctness) are shared with the code
    under test."""
    if len(r.sets) != g.n:
        return [Violation("size_mismatch", observed=len(r.sets), expected=g.n)]
    out: list[Violation] = []
    used: set[int] = set()
    ints = [{e for e in s if type(e) is int} for s in r.sets]
    for v, s in enumerate(r.sets):
        if not s:
            out.append(Violation("empty_set", vertex=v))
        for e in sorted(ints[v]):
            if not 0 <= e < r.ground_size:
                out.append(Violation("element_out_of_range", vertex=v, element=e))
            else:
                used.add(e)
        for e in sorted((e for e in s if type(e) is not int), key=repr):
            out.append(Violation("element_out_of_range", vertex=v, element=e))
    for e in range(r.ground_size):
        if e not in used:
            out.append(Violation("unused_element", element=e))
    for u, v in combinations(range(g.n), 2):
        want = 1 if has_edge(g, u, v) else 0
        got = len(ints[u] & ints[v])
        if got != want:
            out.append(Violation("wrong_intersection", pair=(u, v), observed=got, expected=want))
    if require_distinct:
        for cls in distinctness(r).classes:
            if len(cls) > 1:
                out.append(Violation("duplicate_sets", vertices=cls))
    return out


def reference_edge_partitions(g: Graph):
    """Every partition of g's edges into cliques, as lists of sorted tuples,
    by plain recursion without a bound: branch on the smallest uncovered
    edge (u, v) over every clique of uncovered edges through it, largest
    first and lexicographic within a size, one branch per clique, forced
    edges included."""

    def rec(residual: frozenset, chosen: list):
        if not residual:
            yield list(chosen)
            return
        u, v = min(residual)
        common = [w for w in range(g.n)
                  if (min(u, w), max(u, w)) in residual and (min(v, w), max(v, w)) in residual]
        for size in range(len(common), -1, -1):
            for extra in combinations(common, size):
                if all(pair in residual for pair in combinations(extra, 2)):
                    cl = (u, v) + extra
                    yield from rec(residual - set(combinations(cl, 2)), chosen + [cl])

    yield from rec(frozenset(g.edges), [])


def has_triangle(g: Graph) -> bool:
    for u, v in sorted(g.edges):
        if g.adj[u] & g.adj[v]:
            return True
    return False


def brute_cp(g: Graph) -> int:
    """Clique-partition number by filtering every set partition of the edge
    set: a block is usable iff it is the full edge set of its vertex set.
    Exponential in the edge count; keep it to graphs with <= 10 edges."""
    edges = sorted(g.edges)
    isolated = sum(1 for v in range(g.n) if g.adj[v] == 0)
    if not edges:
        return isolated
    best = [len(edges)]

    def block_ok(block: list[tuple[int, int]]) -> bool:
        vertices = sorted({v for e in block for v in e})
        return len(block) == len(vertices) * (len(vertices) - 1) // 2

    def rec(remaining: list[tuple[int, int]], blocks: list[list[tuple[int, int]]]) -> None:
        if len(blocks) >= best[0]:
            return
        if not remaining:
            if all(block_ok(b) for b in blocks):
                best[0] = len(blocks)
            return
        first, rest = remaining[0], remaining[1:]
        for b in blocks:
            b.append(first)
            rec(rest, blocks)
            b.pop()
        blocks.append([first])
        rec(rest, blocks)
        blocks.pop()

    rec(edges, [])
    return best[0] + isolated


def brute_omega(g: Graph, max_ground: int = 5) -> int | None:
    """Distinct-family intersection number by raw enumeration of families of
    distinct non-empty subsets of a k-element ground set, k ascending.
    Returns None when no family of size <= max_ground works."""
    pair_target = {
        (u, v): (1 if has_edge(g, u, v) else 0)
        for u, v in combinations(range(g.n), 2)
    }
    if g.n == 0:
        return 0
    for k in range(1, max_ground + 1):
        subsets = [frozenset(s)
                   for size in range(1, k + 1)
                   for s in combinations(range(k), size)]
        for chosen in permutations(subsets, g.n):
            if all(len(chosen[u] & chosen[v]) == want
                   for (u, v), want in pair_target.items()):
                if frozenset().union(*chosen) == frozenset(range(k)):
                    return k
    return None


def iso_classes_by_permutation(graphs: list[Graph]) -> int:
    """Count isomorphism classes by trying every vertex bijection against the
    class representatives found so far."""
    reps: list[Graph] = []
    for g in graphs:
        if not any(_isomorphic(g, r) for r in reps):
            reps.append(g)
    return len(reps)


def _isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    for perm in permutations(range(a.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in b.edges
               for u, v in a.edges):
            return True
    return False


def reference_duplicates_and_widest(n: int, cliques) -> tuple[int, int]:
    """(duplicates, widest) of a valid partition on n vertices, as the
    sweep's one-pass check reports them: the vertices whose incidence set,
    a bitmask of clique positions, an earlier vertex has, and the size of
    the widest clique of two or more vertices (0 when there is none)."""
    keys = [0] * n
    for i, cl in enumerate(cliques):
        for v in cl:
            keys[v] |= 1 << i
    return n - len(set(keys)), max((len(cl) for cl in cliques if len(cl) > 1), default=0)


def reference_sweep(n: int, seeds, bound: int) -> tuple[int, int, list[BoundViolation]]:
    """The sweep as a plain loop: every seed's greedy run on every
    labeled graph, then the recursive partition's checks, per graph in that
    order. Returns (max_cliques_seen, max_elements_seen, violations)."""
    max_cliques = 0
    max_elements = 0
    violations: list[BoundViolation] = []
    for mask in range(1 << (n * (n - 1) // 2)):
        g = graph_from_bitmask(n, mask)
        for seed in seeds:
            label = "lex" if seed is None else f"random:{seed}"
            d = greedy_decomposition(g, seed)
            total = len(d.sequence)
            nontrivial = sum(1 for c in d.sequence if len(c) >= 2)
            max_cliques = max(max_cliques, total)
            if nontrivial > bound:
                violations.append(BoundViolation(mask, label, "greedy_cliques",
                                                 nontrivial, bound))
            if total > bound:
                violations.append(BoundViolation(mask, label, "greedy_cliques_with_trivial",
                                                 total, bound))
            aug = augment_to_distinct(representation_from_partition(d))
            max_elements = max(max_elements, aug.ground_size)
            if aug.ground_size > bound:
                violations.append(BoundViolation(mask, label, "augmented_elements",
                                                 aug.ground_size, bound))
        p = erdos_partition(g)
        count = len(p.cliques)
        max_cliques = max(max_cliques, count)
        if count > bound:
            violations.append(BoundViolation(mask, "erdos", "erdos_cliques", count, bound))
        oversize = max((len(c) for c in p.cliques), default=0)
        if oversize > 3:
            violations.append(BoundViolation(mask, "erdos", "erdos_clique_size", oversize, 3))
        problems = validate_partition(g, p)
        if problems:
            violations.append(BoundViolation(mask, "erdos", "erdos_invalid",
                                             len(problems), 0))
        sets = [tuple(k for k, cl in enumerate(p.cliques) if v in cl) for v in range(n)]
        duplicates = n - len(set(sets))
        if duplicates:
            violations.append(BoundViolation(mask, "erdos", "erdos_distinctness",
                                             duplicates, 0))
    return max_cliques, max_elements, violations
