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
from dataclasses import dataclass, fields
from functools import lru_cache, reduce
from itertools import chain, compress
from operator import attrgetter, mul, or_
from typing import Callable, Iterable, Iterator, Sequence

from .graphs import Edge, Graph, _bit_flags, bits

Clique = tuple[int, ...]
#: A clique the search may take, with its vertex mask.
_Option = tuple[Clique, int]


def quarter_square(n: int) -> int:
    """floor(n*n / 4): the clique budget every construction here respects."""
    return n * n // 4


def _vertex_order(n: int, seed: int | None) -> tuple[int, ...]:
    """Vertices in greedy priority order (highest first): lexicographic
    without a seed, else a permutation drawn from the seed (0 included)."""
    order = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(order)
    return tuple(order)


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
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values if v is not None}


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


def _check_header(doc: dict, host: Graph, keys: tuple[str, ...]) -> None:
    """Reject an artifact that is not a JSON object, lacks one of keys (in
    their order), or whose 'n' is not an integer equal to host's order."""
    if not isinstance(doc, dict):
        raise ValueError("artifact must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ValueError(f"artifact is missing the {key!r} key")
    if not isinstance(doc["n"], int) or isinstance(doc["n"], bool):
        raise ValueError("artifact 'n' must be an integer")
    if doc["n"] != host.n:
        raise ValueError(f"artifact n={doc['n']} does not match graph n={host.n}")


def _cliques_from_json(doc: dict, host: Graph) -> list[list[int]]:
    _check_header(doc, host, ("n", "ordered", "cliques"))
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


def greedy_decomposition(g: Graph, seed: int | None = None) -> GreedyDecomposition:
    """Remove one maximal clique of the residual graph at a time.

    Each clique starts at the highest-priority vertex that still has a
    residual edge and grows by repeatedly adding the highest-priority vertex
    adjacent to all current members. Once every edge is covered, vertices
    isolated in g get one trivial clique each, in priority order.

    Priority is lexicographic (lower vertex first) when seed is None, and
    otherwise a vertex permutation drawn from the seed (0 included), so a
    fixed seed reproduces the exact decomposition. Relabeling order[i] to i
    once makes priority bit order, so every choice takes the lowest bit and
    a seeded run is the lexicographic run on the relabeled graph.
    """
    order = _vertex_order(g.n, seed)
    if seed is None:
        residual = list(g.adj)  # the lexicographic relabeling is the identity
    else:
        # Vertex order[i] becomes i: its row is the sum, that is the OR,
        # of its neighbours' new bits.
        adj = g.adj
        moved = [0] * g.n
        for i, v in enumerate(order):
            moved[v] = 1 << i
        residual = [sum(compress(moved, _bit_flags(adj[v]))) for v in order]
    isolated = [(order[i],) for i, m in enumerate(residual) if m == 0]
    sequence: list[Clique] = []
    # Residual edges only disappear, so a start left without one is done.
    for start in range(g.n):
        while residual[start]:
            members, mask, common = [start], 1 << start, residual[start]
            while common:
                low = common & -common
                grow = low.bit_length() - 1
                members.append(grow)
                mask |= low
                common &= residual[grow]
            for i in members:
                residual[i] &= ~mask
            # Members ascend: start's residual neighbors all lie above it and
            # each growth step takes the lowest bit left. A seeded run maps
            # them back to the original labels and sorts.
            if seed is not None:
                members = sorted(map(order.__getitem__, members))
            sequence.append(tuple(members))
    sequence.extend(isolated)
    return GreedyDecomposition(g, tuple(sequence))


def _int_cliques(cliques: Sequence[Clique]) -> Sequence[Clique]:
    """cliques itself when every member is an exact int, else a copy with
    every member mapped through int. For cliques whose members all equal
    vertices: one equal to an int without being one (1.0, True, a numpy
    integer) counts as that vertex, and bit shifts and indexing need the
    int."""
    if {*map(type, chain.from_iterable(cliques))} <= {int}:
        return cliques
    return tuple(tuple(map(int, cl)) for cl in cliques)


def _shaped(
    n: int, cliques: Sequence[Clique], seen: set[Clique], out: list[Violation]
) -> list[tuple[int, Clique]]:
    """(position, clique) for each clique whose vertex pairs can be checked,
    members as ints (_int_cliques). The findings on each clique itself
    (empty, members that are not vertices, repeated vertices, a repeat of
    an earlier clique) go to out in clique order; a caller that adds its
    own findings per position sorts out by position, stably, to put them
    after these. A clique of distinct members, all vertices, costs one
    intersection. Every clique goes into seen: one equal to a misshapen
    clique is misshapen too."""
    vertices = frozenset(range(n))
    positions: list[int] = []
    kept: list[Clique] = []
    for i, cl in enumerate(cliques):
        count = len(seen)
        seen.add(cl)
        if not cl or len(vertices.intersection(cl)) != len(cl):
            if not cl:
                out.append(Violation("empty_clique", position=i))
                continue
            bad = [v for v in cl if v not in vertices]
            if bad:
                out.extend(Violation("bad_vertex", position=i, vertex=v) for v in bad)
                continue
            if len(set(cl)) != len(cl):
                out.append(Violation("repeated_vertex", position=i, vertices=cl))
                continue
        if len(seen) == count:
            out.append(Violation("duplicate_clique", position=i, vertices=cl))
        positions.append(i)
        kept.append(cl)
    return list(zip(positions, _int_cliques(kept)))


def _extension(adj: Sequence[int], clique: Clique) -> int | None:
    """The lowest vertex outside the non-empty clique that is adjacent to
    all of its members, or None when the clique is maximal in adj."""
    common = adj[clique[0]]
    for v in clique:
        common &= adj[v] & ~(1 << v)
    return (common & -common).bit_length() - 1 if common else None


def validate_greedy(g: Graph, d: GreedyDecomposition) -> list[Violation]:
    """Replay the sequence against the residual graph; empty result iff valid.

    Findings per position: vertices out of range, repeats inside a clique,
    duplicate cliques, non-adjacent pairs, pairs covered twice, and a witness
    vertex whenever the clique was not maximal in its residual. Edges never
    covered and isolated vertices without a trivial clique are reported at
    the end. The residual is one neighbour bitmask per vertex: costs
    O((n + sum of |clique|) * ceil(n/64)) word operations plus one step per
    finding.
    """
    out: list[Violation] = []
    adj = g.adj
    residual = list(adj)
    seen: set[Clique] = set()
    for i, cl in _shaped(g.n, d.sequence, seen, out):
        mask = 0
        for v in cl:
            mask |= 1 << v
        for u in sorted(cl):
            for v in bits(mask & ~residual[u] >> u + 1 << u + 1):
                kind = "double_cover" if adj[u] >> v & 1 else "not_a_clique"
                out.append(Violation(kind, position=i, pair=(u, v)))
        witness = _extension(residual, cl)
        if witness is not None:
            out.append(Violation("not_maximal", position=i, vertex=witness))
        for v in cl:
            residual[v] &= ~mask
    # Each clique's own findings, then the replay's on it, in clique order.
    out.sort(key=attrgetter("position"))
    for u in range(g.n):
        rest = residual[u] >> (u + 1) << (u + 1)
        for v in bits(rest):
            out.append(Violation("uncovered_edge", pair=(u, v)))
    for v in range(g.n):
        if adj[v] == 0 and (v,) not in seen:
            out.append(Violation("isolated_vertex_uncovered", vertex=v))
    return out


def validate_partition(g: Graph, p: CliquePartition) -> list[Violation]:
    """Check the clique-partition contract; empty result iff valid.

    Reports adjacent pairs covered a number of times other than once,
    non-adjacent pairs covered at all, members that are not cliques,
    duplicate cliques, and isolated vertices lacking a trivial clique.

    One pass first tests for an exact cover (_covers_exactly): distinct,
    non-empty cliques of vertices given as exact ints, sum C(k, 2) = |E|
    pairs over their sizes k, and for every vertex v the OR of the masks of
    the cliques through v equal to adj[v] | 1 << v. The OR test makes the
    covered pairs exactly the edges and puts every vertex in some clique,
    an isolated one in its trivial clique; the count then covers no edge
    twice and leaves no room for a repeated member, whose clique covers
    fewer than C(k, 2) pairs. A valid partition so costs two ORs per member
    plus one compare per vertex. Only otherwise is every clique walked for
    findings, in O((n + sum of |clique|) * ceil(n/64)) word operations, the
    order of building g.adj, plus one step per finding and sorting the
    findings.
    """
    return [] if _covers_exactly(g, p.cliques) else _partition_findings(g, p.cliques)


def _covers_exactly(g: Graph, cliques: Sequence[Clique]) -> bool:
    """Whether cliques is a valid partition of g with every member an
    exact int, by the test validate_partition describes. The count comes
    first, from the sizes alone, so a missing or extra clique fails before
    any member is read. A member that only equals its vertex (1.0, True, a
    numpy integer) makes this False; the walk decides those."""
    n = g.n
    sizes = list(map(len, cliques))
    ends = sum(map(int.bit_count, g.adj))  # twice the edge count
    if (sum(map(mul, sizes, sizes)) - sum(sizes) != ends or not all(sizes)
            or len(set(cliques)) != len(cliques)):
        return False
    cover = [0] * n
    for cl in cliques:
        mask = 0
        for v in cl:
            if type(v) is not int or not 0 <= v < n:
                return False
            mask |= 1 << v
        for v in cl:
            cover[v] |= mask
    return cover == [a | 1 << v for v, a in enumerate(g.adj)]


def _checked_duplicates(g: Graph, cliques: Sequence[Clique]) -> int | None:
    """When cliques pass _covers_exactly's test, the number of vertices
    whose incidence set, as a clique-position bitmask, an earlier vertex
    has: the fresh elements augment_to_distinct would attach. Else None,
    which leaves the verdict to the validators: the cliques may be invalid,
    or valid with a member that only equals its vertex. The sweep's form:
    one walk makes the test and builds the keys. The forms stay apart, as
    a merge costs one side: a second walk for the keys slows the n = 6
    sweep by 12-20%, keys built in _covers_exactly triple its time."""
    n = g.n
    adj = g.adj
    sizes = list(map(len, cliques))
    if (sum(map(mul, sizes, sizes)) - sum(sizes) != sum(map(int.bit_count, adj))
            or not all(sizes) or len(set(cliques)) != len(cliques)):
        return None
    cover = [0] * n
    keys = [0] * n
    for k, cl in enumerate(cliques):
        mask = 0
        for v in cl:
            if type(v) is not int or not 0 <= v < n:
                return None
            mask |= 1 << v
        bit = 1 << k
        for v in cl:
            cover[v] |= mask
            keys[v] |= bit
    if cover != [a | 1 << v for v, a in enumerate(adj)]:
        return None
    return n - len(set(keys))


def _partition_findings(g: Graph, cliques: Sequence[Clique]) -> list[Violation]:
    """validate_partition's findings on a clique sequence, positions as in
    the sequence, found by walking every clique."""
    out: list[Violation] = []
    # g.adj first: for an n too large to hold it fails at once, where the
    # vertex set would fill memory one vertex at a time.
    adj = g.adj
    seen: set[Clique] = set()
    checked = _shaped(g.n, cliques, seen, out)
    bad = _miscovered(g, (cl for _, cl in checked))
    if not all(adjacent for _, _, adjacent in bad):
        # Some clique holds a non-adjacent pair. Each clique's findings
        # stay together and in clique order: the sort by position is stable.
        for i, cl in checked:
            mask = sum(1 << v for v in cl)
            out.extend(Violation("not_a_clique", position=i, pair=(u, w))
                       for u in sorted(cl) for w in bits(mask & ~adj[u] >> u + 1 << u + 1))
        out.sort(key=attrgetter("position"))
    out.extend(Violation("miscovered_edge", pair=pair, observed=c, expected=1)
               for pair, c, adjacent in bad if adjacent)
    out.extend(Violation("covered_nonedge", pair=pair, observed=c, expected=0)
               for pair, c, adjacent in bad if not adjacent)
    for v in range(g.n):
        if adj[v] == 0 and (v,) not in seen:
            out.append(Violation("isolated_vertex_uncovered", vertex=v))
    return out


def _partition_cliques(g: Graph, cliques: Sequence[Clique]) -> Sequence[Clique]:
    """cliques, with every member an int, when they form a valid partition
    of g as validate_partition decides; else ValueError naming the first
    finding, positions as in the sequence. A valid sequence that fails
    _covers_exactly has a member that only equals its vertex: only then
    are the members mapped through int."""
    if _covers_exactly(g, cliques):
        return cliques
    problems = _partition_findings(g, cliques)
    if problems:
        raise ValueError(f"invalid partition: {problems[0].to_json()}")
    return _int_cliques(cliques)


def _miscovered(g: Graph, groups: Iterable[Sequence[int]]) -> list[tuple[Edge, int, int]]:
    """(pair, count, adjacency) for every pair u < w whose count, the
    number of groups (of distinct vertices: cliques, or an element's
    members) holding both, is not its adjacency in g, pairs ascending. Each
    group ORs its member mask, minus the member, into each member's cover
    mask, counting the pairs already there; one XOR of cover[u] against
    g.adj[u] per vertex finds the rest. O((n + sum of |group|) * ceil(n/64))
    word operations, plus one step per finding and the sort."""
    adj = g.adj
    cover = [0] * g.n
    repeats: dict[Edge, int] = {}
    for members in groups:
        mask = 0
        for v in members:
            mask |= 1 << v
        for v in members:
            add = mask ^ 1 << v
            twice = cover[v] & add
            if twice:
                for w in bits(twice >> v + 1 << v + 1):
                    repeats[v, w] = repeats.get((v, w), 1) + 1
            cover[v] |= add
    bad = [(pair, c, 1) for pair, c in repeats.items() if adj[pair[0]] >> pair[1] & 1]
    for u, c in enumerate(cover):
        diff = (c ^ adj[u]) >> u + 1
        if diff:
            for w in bits(diff << u + 1):
                if c >> w & 1:
                    bad.append(((u, w), repeats.get((u, w), 1), 0))
                else:
                    bad.append(((u, w), 0, 1))
    return sorted(bad)


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
    property, memoized on the survivors and their neighbour masks in the
    original labels (_erdos_base), so a base graph seen before costs one
    lookup. Trivial cliques created for vertices isolated at inner steps are
    kept: the distinctness property can depend on them.
    """
    # Vertices keep their labels and a deleted vertex is cleared from its
    # neighbors' masks. by_degree[d] holds the survivors of degree d, so the
    # lowest bit of the first non-empty one is the minimum-degree survivor
    # with the lowest label.
    adj = list(g.adj)
    deg = [m.bit_count() for m in adj]
    by_degree = [0] * g.n
    for v, d in enumerate(deg):
        by_degree[d] |= 1 << v
    alive = (1 << g.n) - 1
    cliques: list[Clique] = []
    for n in range(g.n, 4, -1):
        d = 0
        while not by_degree[d]:
            d += 1
        # x's bit, set in alive, by_degree[d] and each neighbour's mask:
        # XOR with it clears it there.
        xbit = by_degree[d] & -by_degree[d]
        x = xbit.bit_length() - 1
        by_degree[d] ^= xbit
        alive ^= xbit
        nbr_mask = adj[x]
        if nbr_mask == 0:
            cliques.append((x,))
        # r > 0 exactly when every degree exceeds floor(n/2): then pair up
        # 2r of x's neighbors and cover those edges of x with triangles.
        # The cliques are sorted at the end, so each is added when found.
        r = d - n // 2
        used = 0
        if r > 0:
            matched = 0
            rest = nbr_mask
            while rest and matched < r:
                ubit = rest & -rest
                rest ^= ubit
                if used & ubit:
                    continue
                u = ubit.bit_length() - 1
                # Matched edges leave the masks at once: they join used
                # vertices only, which cand leaves out.
                cand = adj[u] & nbr_mask & ~used & ~ubit
                if cand:
                    wbit = cand & -cand
                    w = wbit.bit_length() - 1
                    adj[u] ^= wbit
                    adj[w] ^= ubit
                    used |= ubit | wbit
                    matched += 1
                    cliques.append(tuple(sorted((x, u, w))))
            if matched < r:
                raise RuntimeError(
                    f"neighborhood pairing stalled at {matched} of {r} edges; "
                    "the minimum-degree guarantee was violated"
                )
        rest = nbr_mask
        while rest:
            ubit = rest & -rest
            rest ^= ubit
            u = ubit.bit_length() - 1
            if not used & ubit:
                cliques.append((x, u) if x < u else (u, x))
            adj[u] ^= xbit
            by_degree[deg[u]] ^= ubit
            deg[u] = du = adj[u].bit_count()
            by_degree[du] |= ubit
    cliques.extend(_erdos_base(alive, tuple(compress(adj, _bit_flags(alive)))))
    cliques.sort()
    return CliquePartition(g, tuple(cliques))


@lru_cache(maxsize=4096)
def _erdos_base(alive: int, adj: tuple[int, ...]) -> tuple[Clique, ...]:
    """Minimum partition of the base graph on the <= 4 survivors in alive
    into cliques of <= 3 vertices with pairwise-distinct incidence sets, as
    sorted cliques in the original labels; adj holds the survivors'
    neighbour masks in those labels. Every deleted vertex has left its
    neighbours' masks, so the key determines the base graph. Memoized in a
    bounded cache: a sweep at n <= 7 has at most C(7, 4) * 64 = 2,240 keys,
    and a large graph makes one call.

    The search runs on local labels 0..k-1, and the first cheapest
    partition in branching order wins.
    """
    labels = list(bits(alive))
    local = [sum(1 << j for j, w in enumerate(labels) if m >> w & 1) for m in adj]
    found = _min_distinct(local, _edge_or_triangles)
    return tuple(tuple(sorted(labels[v] for v in cl)) for cl in found)


def _edge_or_triangles(residual: list[int], u: int, v: int) -> list[_Option]:
    """The edge (u, v) itself, then each residual triangle through it, each
    with its mask. This order is part of erdos_partition's output: trying
    the triangles first picks a different, equally cheap base partition on
    11 of the 75 base graphs (12 when the whole order is reversed)."""
    mask = 1 << u | 1 << v
    return [((u, v), mask)] + [((u, v, w), mask | 1 << w)
                               for w in bits(residual[u] & residual[v])]


def _cliques_through_edge(adj: list[int], u: int, v: int) -> list[_Option]:
    """All cliques of the (residual) graph containing edge (u, v), each with
    its mask, largest first and lexicographic within a size. Each appears
    exactly once, as u, v and then its other members ascending: a sorted
    tuple when u < v < every common neighbor, as at the kernel's smallest
    uncovered edge."""
    stack = [((u, v), 1 << u | 1 << v, adj[u] & adj[v])]
    found: list[_Option] = []
    while stack:
        members, mask, cand = stack.pop()
        found.append((members, mask))
        # Children go on highest first, so they come off lowest first and
        # found lists the cliques in lexicographic order. A child extends
        # by w and keeps the candidates above w that are adjacent to w.
        above = 0
        while cand:
            w = cand.bit_length() - 1
            bit = 1 << w
            cand ^= bit
            stack.append((members + (w,), mask | bit, above & adj[w]))
            above |= bit
    # A stable sort by size keeps the lexicographic order within a size.
    found.sort(key=lambda option: len(option[0]), reverse=True)
    return found


def _cliques_needed(residual: Sequence[int], free: int, limit: int) -> int:
    """A lower bound on the number of cliques in any partition of the edges
    of residual (symmetric neighbor bitmasks), counted only until it
    reaches limit; free is the mask of its non-isolated vertices, the OR of
    its rows. The full bound is returned when it is below limit, else some
    count of at least limit: the caller needs no more to cut.

    Takes a greedy independent set I of the non-isolated vertices and adds,
    for each v in I, the size of a greedy independent set of v's neighbors.
    Two non-adjacent neighbors of v need different cliques through v, and no
    clique holds two vertices of I, so the counts add up.
    """
    need = 0
    while free:
        low = free & -free
        nbrs = residual[low.bit_length() - 1]
        free &= ~(nbrs | low)
        while nbrs:
            low = nbrs & -nbrs
            nbrs &= ~(residual[low.bit_length() - 1] | low)
            need += 1
            if need >= limit:
                return need
    return need


def _edge_partitions(
    adj: Sequence[int],
    options: Callable[[list[int], int, int], list[_Option]],
    budget: list[int] | None = None,
) -> Iterator[list[Clique]]:
    """Every partition of the edges of adj (neighbor bitmasks) into cliques:
    the clique-partition branch and bound of Orlin (1977).

    Branches on the smallest uncovered edge (u, v) over options(residual, u,
    v), the residual cliques through it to try, in order, each with its
    vertex mask; if they are all the residual cliques through it, each edge
    partition is yielded exactly once. When u and v have no common residual
    neighbor, options must return exactly the edge (u, v), as
    _cliques_through_edge and _edge_or_triangles do: such a forced edge is
    taken without calling it. A node is the root or a branching option,
    followed by its whole run of forced smallest edges.

    budget, a one-item list the caller may lower between yields, is the
    number of cliques a partition must stay below. It is read once per
    node, at the end of its run, and a node is cut when the fewest cliques
    any completion below it can have reach it: a branching node before it
    branches, a leaf before it is yielded, so every yielded partition stays
    below the budget read there. That fewest is the cliques chosen so far
    plus _cliques_needed(residual), which is 0 at a leaf. The bound is
    called once per node, with the room the budget leaves, and stops
    counting once it proves the cut, so a cut node pays only for that
    part. A run does not branch, so a cut that its middle would allow is
    only delayed to its end. Without a budget the bound is never computed.
    The yielded list is the live search state, valid until the next step,
    and is extended by copying.

    The search is one loop in one frame, with an explicit stack of the
    branching nodes: each keeps its remaining options, the number of
    cliques chosen above it, and a copy of its residual and of free, which
    are restored before its next option is taken. free, the non-isolated
    vertex mask the bound starts from, is the OR of the rows at the root
    and loses a vertex when its row empties. Its lowest vertex u (all rows
    below u are empty) has the smallest uncovered edge, to u's lowest
    neighbor. These are costs only: which nodes are visited, in what order,
    and what the budget cuts follow from the rules above.
    """
    residual = list(adj)
    free = reduce(or_, residual, 0)
    chosen: list[Clique] = []
    stack: list[tuple[Iterator[_Option], int, list[int], int]] = []
    while True:
        while free:
            ubit = free & -free
            u = ubit.bit_length() - 1
            row = residual[u]
            vbit = row & -row
            v = vbit.bit_length() - 1
            other = residual[v]
            if row & other:
                break
            residual[u] = row = row ^ vbit
            residual[v] = other = other ^ ubit
            if not row:
                free ^= ubit
            if not other:
                free ^= vbit
            chosen.append((u, v))
        if budget is None or _cliques_needed(
                residual, free, room := budget[0] - len(chosen)) < room:
            if not free:
                yield chosen
            else:
                stack.append((iter(options(residual, u, v)), len(chosen), residual.copy(), free))
        # Back up to the deepest branching node with an option left.
        while stack:
            rest, depth, saved, free = stack[-1]
            option = next(rest, None)
            if option is not None:
                break
            stack.pop()
        else:
            return
        residual[:] = saved
        del chosen[depth:]
        cl, mask = option
        keep = ~mask
        for a in cl:
            residual[a] = row = residual[a] & keep
            if not row:
                free ^= 1 << a
        chosen.append(cl)


def _min_distinct(
    adj: Sequence[int],
    options: Callable[[list[int], int, int], list[_Option]],
) -> list[Clique]:
    """Cheapest clique partition of adj with pairwise-distinct incidence sets.

    Searches the edge partitions that options allows. A completed edge
    partition is charged one trivial clique per isolated vertex plus one per
    extra member of each group of vertices with identical incidence sets
    (the cheapest way to split such a group, since a fresh trivial clique
    can collide with nothing). Of equally cheap partitions the first found
    wins.
    """
    n = len(adj)
    # Incidence keys are clique-position bitmasks; isolated vertices start
    # from distinct negative keys, so only the others can repeat a key.
    iso: list[Clique] = []
    start: list[int] = []
    for v, m in enumerate(adj):
        if m:
            start.append(0)
        else:
            start.append(~v)
            iso.append((v,))
    # No partition costs more than |E| + n (a clique per edge, a trivial
    # clique per vertex), so the first leaf found beats this budget. The
    # kernel's budget leaves out the trivial cliques of isolated vertices,
    # which every partition pays.
    budget = [sum(map(int.bit_count, adj)) // 2 + n + 1 - len(iso)]
    for chosen in _edge_partitions(adj, options, budget):
        keys = start.copy()
        bit = 1
        for cl in chosen:
            for v in cl:
                keys[v] |= bit
            bit <<= 1
        cost = len(chosen) + n - len(set(keys))
        if cost < budget[0]:
            budget[0], best, best_keys = cost, chosen.copy(), keys
    # Every vertex whose key an earlier vertex already has gets a trivial
    # clique, in vertex order.
    seen: set[int] = set()
    extras = [(v,) for v, key in enumerate(best_keys) if key in seen or seen.add(key)]
    return best + iso + extras


def _incidence(n: int, cliques: Iterable[Clique]) -> list[tuple[int, ...]]:
    """Per vertex, the positions of the cliques containing it, ascending."""
    out: list[list[int]] = [[] for _ in range(n)]
    for k, cl in enumerate(cliques):
        for v in cl:
            out[v].append(k)
    return [tuple(ks) for ks in out]

