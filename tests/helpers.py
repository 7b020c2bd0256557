"""Shared test utilities: deterministic random graphs and independent
brute-force oracles that never call the code paths they check."""

from __future__ import annotations

import random
from itertools import combinations, permutations

from cliquerep import (
    BoundViolation,
    Graph,
    augment_to_distinct,
    erdos_partition,
    graph,
    graph_from_bitmask,
    greedy_decomposition,
    representation_from_partition,
    validate_partition,
)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph(n, edges)


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
        (u, v): (1 if g.has_edge(u, v) else 0)
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


def reference_sweep(n: int, strategies, bound: int) -> tuple[int, int, list[BoundViolation]]:
    """The sweep as a plain loop: every strategy's greedy run on every
    labeled graph, then the recursive partition's checks, per graph in that
    order. Returns (max_cliques_seen, max_elements_seen, violations)."""
    max_cliques = 0
    max_elements = 0
    violations: list[BoundViolation] = []
    for mask in range(1 << (n * (n - 1) // 2)):
        g = graph_from_bitmask(n, mask)
        for strategy in strategies:
            label = strategy.describe()
            d = greedy_decomposition(g, strategy)
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
