"""Clique partitions and greedy maximal-clique decompositions.

Two constructions live here. The greedy decomposition repeatedly removes a
maximal clique from the residual graph until no edge is left, then covers
vertices that were isolated from the start with trivial cliques. The
edge/triangle partition stays within the floor(n^2/4) clique budget while
keeping every vertex's clique-incidence set distinct from every other
vertex's (for n >= 4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .graphs import Graph, bits, lowest_bit

Clique = tuple[int, ...]

LEXICOGRAPHIC_KIND = "lexicographic"
SEEDED_KIND = "seeded-random"


def quarter_square(n: int) -> int:
    """floor(n*n / 4): the clique budget every construction here respects."""
    return n * n // 4


@dataclass(frozen=True)
class GreedyStrategy:
    """Tie-breaking rule for greedy clique growth.

    "lexicographic" always prefers lower vertex indices. "seeded-random" runs
    the identical procedure under a vertex permutation drawn from the seed,
    so a fixed seed reproduces the exact decomposition.
    """

    kind: str = LEXICOGRAPHIC_KIND
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (LEXICOGRAPHIC_KIND, SEEDED_KIND):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == SEEDED_KIND and self.seed is None:
            raise ValueError("seeded-random strategy needs a seed")
        if self.kind == LEXICOGRAPHIC_KIND and self.seed is not None:
            raise ValueError("lexicographic strategy takes no seed")

    def describe(self) -> str:
        return "lex" if self.kind == LEXICOGRAPHIC_KIND else f"random:{self.seed}"

    def vertex_order(self, n: int) -> tuple[int, ...]:
        """Vertices in priority order (highest priority first)."""
        order = list(range(n))
        if self.kind == SEEDED_KIND:
            random.Random(self.seed).shuffle(order)
        return tuple(order)


LEXICOGRAPHIC = GreedyStrategy()


def seeded_strategy(seed: int) -> GreedyStrategy:
    return GreedyStrategy(SEEDED_KIND, seed)


@dataclass(frozen=True)
class Violation:
    """One validator finding.

    `kind` names what failed; the optional fields carry whichever coordinates
    make the finding reproducible (clique position, vertex pair, ...).
    """

    kind: str
    position: int | None = None
    pair: tuple[int, int] | None = None
    vertex: int | None = None
    vertices: tuple[int, ...] | None = None
    element: int | None = None
    observed: int | None = None
    expected: int | None = None

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        for name in ("position", "pair", "vertex", "vertices", "element",
                     "observed", "expected"):
            value = getattr(self, name)
            if value is not None:
                doc[name] = list(value) if isinstance(value, tuple) else value
        return doc


@dataclass(frozen=True)
class CliquePartition:
    """Unordered clique partition of a host graph.

    Every edge lies in exactly one clique, trivial (single-vertex) cliques
    are allowed anywhere and required for isolated vertices, and no two
    cliques share the same vertex set. Cliques are stored sorted.
    """

    host: Graph
    cliques: tuple[Clique, ...]

    @classmethod
    def from_cliques(cls, host: Graph, cliques: Iterable[Iterable[int]]) -> "CliquePartition":
        normalized = sorted(tuple(sorted(c)) for c in cliques)
        return cls(host, tuple(normalized))

    def to_json(self) -> dict:
        return {
            "n": self.host.n,
            "ordered": False,
            "cliques": [list(c) for c in self.cliques],
        }

    @classmethod
    def from_json(cls, doc: dict, host: Graph) -> "CliquePartition":
        return cls.from_cliques(host, _cliques_from_json(doc, host))


@dataclass(frozen=True)
class GreedyDecomposition:
    """Ordered clique sequence; each entry was maximal in the residual graph
    obtained by deleting all earlier entries' edges."""

    host: Graph
    sequence: tuple[Clique, ...]

    def as_partition(self) -> CliquePartition:
        return CliquePartition.from_cliques(self.host, self.sequence)

    def to_json(self) -> dict:
        return {
            "n": self.host.n,
            "ordered": True,
            "cliques": [list(c) for c in self.sequence],
        }

    @classmethod
    def from_json(cls, doc: dict, host: Graph) -> "GreedyDecomposition":
        cliques = _cliques_from_json(doc, host)
        return cls(host, tuple(tuple(sorted(c)) for c in cliques))


def _cliques_from_json(doc: dict, host: Graph) -> list[list[int]]:
    if not isinstance(doc, dict):
        raise ValueError("artifact must be a JSON object")
    for key in ("n", "ordered", "cliques"):
        if key not in doc:
            raise ValueError(f"artifact is missing the {key!r} key")
    if not isinstance(doc["n"], int) or isinstance(doc["n"], bool):
        raise ValueError("artifact 'n' must be an integer")
    if doc["n"] != host.n:
        raise ValueError(f"artifact n={doc['n']} does not match graph n={host.n}")
    if not isinstance(doc["ordered"], bool):
        raise ValueError("artifact 'ordered' must be a boolean")
    cliques = doc["cliques"]
    if not isinstance(cliques, list):
        raise ValueError("artifact 'cliques' must be an array")
    for c in cliques:
        if not isinstance(c, list) or any(
            not isinstance(v, int) or isinstance(v, bool) for v in c
        ):
            raise ValueError("each clique must be an array of integers")
    return cliques


def greedy_decomposition(g: Graph, strategy: GreedyStrategy = LEXICOGRAPHIC) -> GreedyDecomposition:
    """Remove one maximal clique of the residual graph at a time.

    Each clique is seeded at the highest-priority vertex that still has a
    residual edge and grown by repeatedly adding the highest-priority vertex
    adjacent to all current members. Once every edge is covered, vertices
    isolated in g get one trivial clique each, in priority order.

    Relabeling order[i] to i once makes priority bit order, so every choice
    takes the lowest bit and a seeded run is the lexicographic run on the
    relabeled graph.
    """
    order = strategy.vertex_order(g.n)
    rank = {v: i for i, v in enumerate(order)}
    residual = [0] * g.n
    for u, v in g.edges:
        residual[rank[u]] |= 1 << rank[v]
        residual[rank[v]] |= 1 << rank[u]
    isolated = [(order[i],) for i, m in enumerate(residual) if m == 0]
    sequence: list[Clique] = []
    # Residual edges only disappear, so a seed left without one is done.
    for seed in range(g.n):
        while residual[seed]:
            mask, common = 1 << seed, residual[seed]
            while common:
                grow = lowest_bit(common)
                mask |= 1 << grow
                common &= residual[grow]
            members = list(bits(mask))
            for i in members:
                residual[i] &= ~mask
            sequence.append(tuple(sorted(order[i] for i in members)))
    sequence.extend(isolated)
    return GreedyDecomposition(g, tuple(sequence))


def _check_shape(n: int, i: int, cl: Clique, seen: set[Clique], out: list[Violation]) -> bool:
    """Append the findings on clique i itself (empty, vertices out of range,
    repeated vertices, a repeat of an earlier clique) to out; False when its
    vertex pairs cannot be checked."""
    if len(cl) == 0:
        out.append(Violation("empty_clique", position=i))
        return False
    bad = [v for v in cl if not 0 <= v < n]
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


def _extension(adj: Sequence[int], clique: Clique) -> int | None:
    """The lowest vertex outside the non-empty clique that is adjacent to
    all of its members, or None when the clique is maximal in adj."""
    common = adj[clique[0]]
    for v in clique:
        common &= adj[v] & ~(1 << v)
    return lowest_bit(common) if common else None


def validate_greedy(g: Graph, d: GreedyDecomposition) -> list[Violation]:
    """Replay the sequence against the residual graph; empty result iff valid.

    Findings per position: vertices out of range, repeats inside a clique,
    duplicate cliques, non-adjacent pairs, pairs covered twice, and a witness
    vertex whenever the clique was not maximal in its residual. Edges never
    covered and isolated vertices without a trivial clique are reported at
    the end.
    """
    out: list[Violation] = []
    residual = list(g.adj)
    seen: set[Clique] = set()
    for i, cl in enumerate(d.sequence):
        if not _check_shape(g.n, i, cl, seen, out):
            continue
        ok_pairs = []
        for u, v in combinations(sorted(cl), 2):
            if not g.has_edge(u, v):
                out.append(Violation("not_a_clique", position=i, pair=(u, v)))
            elif not residual[u] >> v & 1:
                out.append(Violation("double_cover", position=i, pair=(u, v)))
            else:
                ok_pairs.append((u, v))
        witness = _extension(residual, cl)
        if witness is not None:
            out.append(Violation("not_maximal", position=i, vertex=witness))
        for u, v in ok_pairs:
            residual[u] &= ~(1 << v)
            residual[v] &= ~(1 << u)
    for u in range(g.n):
        rest = residual[u] >> (u + 1) << (u + 1)
        for v in bits(rest):
            out.append(Violation("uncovered_edge", pair=(u, v)))
    for v in range(g.n):
        if g.adj[v] == 0 and (v,) not in seen:
            out.append(Violation("isolated_vertex_uncovered", vertex=v))
    return out


def validate_partition(g: Graph, p: CliquePartition) -> list[Violation]:
    """Check the clique-partition contract; empty result iff valid.

    Reports adjacent pairs covered a number of times other than once,
    non-adjacent pairs covered at all, members that are not cliques,
    duplicate cliques, and isolated vertices lacking a trivial clique.
    """
    out: list[Violation] = []
    seen: set[Clique] = set()
    counts: dict[tuple[int, int], int] = {}
    for i, cl in enumerate(p.cliques):
        if not _check_shape(g.n, i, cl, seen, out):
            continue
        for u, v in combinations(sorted(cl), 2):
            counts[(u, v)] = counts.get((u, v), 0) + 1
            if not g.has_edge(u, v):
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


def erdos_partition(g: Graph) -> CliquePartition:
    """Partition the edges into at most floor(n^2/4) cliques of <= 3 vertices
    whose clique-incidence sets are pairwise distinct (for n >= 4).

    Deletes one vertex per step until at most 4 are left. If some vertex has
    degree <= floor(n/2), its edges are covered directly. Otherwise take a
    minimum-degree vertex x with degree floor(n/2)+r, greedily pair up 2r of
    its neighbors along r disjoint neighborhood edges (the minimum-degree
    hypothesis guarantees the pairing never stalls; we check and fail loudly
    rather than assume), remove those edges, and cover x's edges with r
    triangles plus single edges. The remaining base graph (n <= 4) is solved
    by exhaustive search for a minimum partition with the distinctness
    property. Trivial cliques created for vertices isolated at inner steps
    are kept: the distinctness property can depend on them.
    """
    if g.n < 1:
        raise ValueError("need at least one vertex")
    adj, labels = list(g.adj), list(range(g.n))
    cliques: list[Clique] = []
    while len(adj) > 4:
        n = len(adj)
        deg = [m.bit_count() for m in adj]
        x = min(range(n), key=lambda v: (deg[v], v))
        lx, nbr_mask = labels[x], adj[x]
        if nbr_mask == 0:
            cliques.append((lx,))
        # r > 0 exactly when every degree exceeds floor(n/2): then pair up
        # 2r of x's neighbors and cover those edges of x with triangles.
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
                w = lowest_bit(cand)
                matches.append((u, w))
                used |= (1 << u) | (1 << w)
        if len(matches) < r:
            raise RuntimeError(
                f"neighborhood pairing stalled at {len(matches)} of {r} edges; "
                "the minimum-degree guarantee was violated"
            )
        for u, w in matches:
            adj[u] &= ~(1 << w)
            adj[w] &= ~(1 << u)
            cliques.append((lx, labels[u], labels[w]))
        cliques.extend((lx, labels[u]) for u in bits(nbr_mask & ~used))
        adj, labels = _drop_vertex(adj, labels, x)
    cliques.extend([labels[v] for v in cl] for cl in _erdos_base_local(tuple(adj)))
    return CliquePartition.from_cliques(g, cliques)


def _drop_vertex(adj: list[int], labels: list[int], x: int) -> tuple[list[int], list[int]]:
    """Delete vertex x, compacting bit positions above it down by one."""
    low = (1 << x) - 1
    new_adj = []
    for v, m in enumerate(adj):
        if v == x:
            continue
        new_adj.append((m & low) | (m >> (x + 1)) << x)
    return new_adj, labels[:x] + labels[x + 1:]


@lru_cache(maxsize=None)
def _erdos_base_local(adj: tuple[int, ...]) -> tuple[Clique, ...]:
    """Minimum partition of an n <= 4 graph on local vertices 0..n-1 into
    cliques of <= 3 vertices with pairwise-distinct incidence sets; memoized
    on the adjacency tuple, of which there are at most 75.

    The budget |E| + n + 1 exceeds the cost of every partition, so it never
    prunes and the first cheapest partition in branching order wins.
    """
    budget = sum(m.bit_count() for m in adj) // 2 + len(adj) + 1
    return tuple(_min_distinct(adj, _edge_or_triangles, budget))


def _edge_or_triangles(residual: list[int], u: int, v: int) -> list[Clique]:
    """The edge (u, v) itself, then each residual triangle through it. This
    order is part of erdos_partition's output: trying the triangles first
    picks a different, equally cheap base partition on 11 of the 75 base
    graphs (12 when the whole order is reversed)."""
    return [(u, v)] + [(u, v, w) for w in bits(residual[u] & residual[v])]


def _cliques_through_edge(adj: list[int], u: int, v: int) -> list[Clique]:
    """All cliques of the (residual) graph containing edge (u, v), largest
    first and lexicographic within a size. Each appears exactly once."""
    found: list[int] = []

    def grow(mask: int, cand: int) -> None:
        found.append(mask)
        c = cand
        while c:
            low = c & -c
            w = low.bit_length() - 1
            c ^= low
            grow(mask | low, cand & adj[w] & ~((low << 1) - 1))

    grow((1 << u) | (1 << v), adj[u] & adj[v])
    cliques = [tuple(bits(m)) for m in found]
    cliques.sort(key=lambda t: (-len(t), t))
    return cliques


def _smallest_uncovered(residual: list[int]) -> tuple[int, int] | None:
    for u, mask in enumerate(residual):
        if mask:
            return u, lowest_bit(mask)
    return None


def _edge_partitions(
    adj: Sequence[int],
    options: Callable[[list[int], int, int], list[Clique]],
    prune: Callable[[int], bool] | None = None,
) -> Iterator[list[Clique]]:
    """Every partition of the edges of adj (neighbor bitmasks) into cliques:
    the clique-partition branch and bound of Orlin (1977).

    Branches on the smallest uncovered edge (u, v) over options(residual, u,
    v), the residual cliques through it to try, in order; if they are all
    the residual cliques through it, each edge partition is yielded exactly
    once. A node whose prune(depth) holds, depth being the number of cliques
    chosen so far, is cut before branching. The yielded list is the live
    search state, valid until the next step, and is extended by copying.
    Leaves and cut nodes are handled in their parent's loop, so only nodes
    that branch pay for a generator.
    """
    residual = list(adj)
    chosen: list[Clique] = []

    def rec(u: int, v: int) -> Iterator[list[Clique]]:
        for cl in options(residual, u, v):
            pairs = list(combinations(cl, 2))
            for a, b in pairs:
                residual[a] &= ~(1 << b)
                residual[b] &= ~(1 << a)
            chosen.append(cl)
            edge = _smallest_uncovered(residual)
            if edge is None:
                yield chosen
            elif prune is None or not prune(len(chosen)):
                yield from rec(*edge)
            chosen.pop()
            for a, b in pairs:
                residual[a] |= 1 << b
                residual[b] |= 1 << a

    edge = _smallest_uncovered(residual)
    if edge is None:
        yield chosen
    elif prune is None or not prune(0):
        yield from rec(*edge)


def _min_distinct(
    adj: Sequence[int],
    options: Callable[[list[int], int, int], list[Clique]],
    budget: int,
) -> list[Clique] | None:
    """Cheapest clique partition of adj with pairwise-distinct incidence
    sets that uses fewer than budget cliques, or None if there is none.

    Searches the edge partitions that options allows. A completed edge
    partition is charged one trivial clique per isolated vertex plus one per
    extra member of each group of vertices with identical incidence sets
    (the cheapest way to split such a group, since a fresh trivial clique
    can collide with nothing). Of equally cheap partitions the first found
    wins.
    """
    n = len(adj)
    iso = [(v,) for v in range(n) if adj[v] == 0]
    best: list[Clique] | None = None
    for chosen in _edge_partitions(adj, options, lambda depth: depth + 1 + len(iso) >= budget):
        keys = _incidence(n, chosen)
        extras = [v for group in _group_equal(keys) if keys[group[0]] for v in group[1:]]
        cost = len(chosen) + len(iso) + len(extras)
        if cost < budget:
            budget = cost
            best = chosen + iso + [(v,) for v in sorted(extras)]
    return best


def _incidence(n: int, cliques: Iterable[Clique]) -> list[tuple[int, ...]]:
    """Per vertex, the positions of the cliques containing it, ascending."""
    out: list[list[int]] = [[] for _ in range(n)]
    for k, cl in enumerate(cliques):
        for v in cl:
            out[v].append(k)
    return [tuple(ks) for ks in out]


def _group_equal(keys: Iterable[Hashable]) -> list[list[int]]:
    """Positions of equal keys, one ascending group per distinct key, groups
    in order of first occurrence."""
    groups: dict[Hashable, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())
