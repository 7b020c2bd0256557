"""Clique partitions and greedy maximal-clique decompositions.

Two constructions live here. The greedy decomposition repeatedly removes a
maximal clique from the residual graph until no edge is left, then covers
vertices that were isolated from the start with trivial cliques. The
edge/triangle partition stays within the floor(n^2/4) clique budget while
keeping every vertex's clique-incidence set distinct from every other
vertex's (for n >= 4).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache, reduce
from itertools import chain, compress, repeat
from operator import attrgetter, or_

from .graphs import ENUMERATION_MAX_N, Edge, Graph, _bit_flags, _clique_bits, _Record, bits

Clique = tuple[int, ...]
#: A clique the search may take, with its vertex mask.
_Option = tuple[Clique, int]


def quarter_square(n: int) -> int:
    """floor(n*n / 4): the clique budget every construction here respects."""
    return n * n // 4


def _vertex_order(n: int, seed: int | None) -> tuple[int, ...]:
    """Vertices in greedy priority order (highest first): lexicographic
    for seed None, else a permutation drawn from an int seed (0 included)."""
    if seed is not None and type(seed) is not int:
        raise ValueError(f"seed must be an int or None, got {seed!r}")
    order = list(range(n))
    if seed is not None:
        import random

        random.Random(seed).shuffle(order)
    return tuple(order)


class Violation(_Record):
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
        values = ((name, getattr(self, name)) for name in self._fields)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values if v is not None}


class CliquePartition(_Record):
    """Unordered clique partition of a host graph.

    Every edge lies in exactly one clique, trivial (single-vertex) cliques
    are allowed anywhere and required for isolated vertices, and no two
    cliques share the same vertex set. from_cliques stores them sorted; the
    plain constructor keeps the order given (verify keeps file positions).
    """

    host: Graph
    cliques: tuple[Clique, ...]

    @classmethod
    def from_cliques(cls, host: Graph, cliques: Iterable[Iterable[int]]) -> "CliquePartition":
        normalized = sorted(tuple(sorted(c)) for c in cliques)
        return cls(host, tuple(normalized))

    def to_json(self) -> dict:
        return {**_cliques_doc(self), "cliques": [list(c) for c in self.cliques]}

    @classmethod
    def from_json(cls, doc: dict, host: Graph) -> "CliquePartition":
        return cls.from_cliques(host, _cliques_from_json(doc, host))


class GreedyDecomposition(_Record):
    """Ordered clique sequence; each entry was maximal in the residual graph
    obtained by deleting all earlier entries' edges."""

    host: Graph
    sequence: tuple[Clique, ...]

    def to_json(self) -> dict:
        return {**_cliques_doc(self), "cliques": [list(c) for c in self.sequence]}

    @classmethod
    def from_json(cls, doc: dict, host: Graph) -> "GreedyDecomposition":
        cliques = _cliques_from_json(doc, host)
        return cls(host, tuple(tuple(sorted(c)) for c in cliques))


def _cliques_doc(p: CliquePartition | GreedyDecomposition) -> dict:
    """p's JSON document with its cliques as the stored tuples, which
    json.dumps writes as arrays, byte for byte; to_json lists them."""
    ordered = isinstance(p, GreedyDecomposition)
    return {"n": p.host.n, "ordered": ordered, "cliques": p.sequence if ordered else p.cliques}


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
    if not _int_arrays(cliques):
        raise ValueError("each clique must be an array of integers")
    return cliques


def _int_arrays(rows: list) -> bool:
    """Whether every row is exactly a list and every member exactly an int,
    tested in bulk; the JSON decoder makes nothing else."""
    return {*map(type, rows)} <= {list} and {*map(type, chain.from_iterable(rows))} <= {int}


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

    The run itself is _greedy_run, on g's rows or the relabeled ones.
    """
    if seed is None:
        # The lexicographic relabeling is the identity.
        return GreedyDecomposition(g, tuple(_greedy_run(g.adj)))
    order = _vertex_order(g.n, seed)
    # Vertex order[i] becomes i: its row is the sum, that is the OR, of its
    # neighbours' new bits. The cliques are then mapped back and sorted.
    adj = g.adj
    moved = [0] * g.n
    for i, v in enumerate(order):
        moved[v] = 1 << i
    rows = [sum(compress(moved, _bit_flags(adj[v]))) for v in order]
    return GreedyDecomposition(g, tuple(
        tuple(sorted(map(order.__getitem__, cl))) for cl in _greedy_run(rows)))


def _greedy_run(rows: Sequence[int]) -> list[Clique]:
    """The lexicographic greedy run on neighbour rows, then the trivial
    clique of each isolated vertex, ascending; rows are not changed.

    Once the starts below h = n - 5 have run, every residual edge lies
    among the last five vertices. On at most ENUMERATION_MAX_N vertices,
    where a sweep meets each of the 2^10 such tails many times, the rest of
    the run is looked up in a bounded cache on those residual rows as they
    stand (_greedy_tail). A larger graph runs every start itself: it shares
    nothing with other graphs.
    """
    residual = list(rows)
    n = len(rows)
    if n > ENUMERATION_MAX_N:
        sequence = _greedy_cliques(residual, range(n))
    else:
        h = max(n - 5, 0)
        sequence = _greedy_cliques(residual, range(h))
        sequence += _greedy_tail(h, tuple(residual[h:]))
    if 0 in rows:
        sequence += [(v,) for v, row in enumerate(rows) if not row]
    return sequence


def _greedy_cliques(residual: list[int], starts: range) -> list[Clique]:
    """The cliques the greedy run takes from each start in turn, removing
    their edges from residual; members ascend, in residual's labels."""
    sequence: list[Clique] = []
    # Residual edges only disappear, so a start left without one is done.
    for start in starts:
        first = 1 << start
        while row := residual[start]:
            low = row & -row
            grow = low.bit_length() - 1
            common = row & residual[grow]
            if not common:
                # No residual triangle on the edge: it is the whole clique.
                residual[start] ^= low
                residual[grow] ^= first
                sequence.append((start, grow))
                continue
            members, mask = [start, grow], first | low
            while common:
                low = common & -common
                grow = low.bit_length() - 1
                members.append(grow)
                mask |= low
                common &= residual[grow]
            keep = ~mask
            for i in members:
                residual[i] &= keep
            # Members ascend: start's residual neighbors all lie above it and
            # each growth step takes the lowest bit left.
            sequence.append(tuple(members))
    return sequence


@lru_cache(maxsize=4096)
def _greedy_tail(h: int, rows: tuple[int, ...]) -> tuple[Clique, ...]:
    """The greedy run's cliques, in its labels, from start h on, once no
    residual edge touches a vertex below h; rows are the residual rows of
    h, h+1, ..., as they stand. Only graphs of at most ENUMERATION_MAX_N
    vertices come here, so each row is below 1 << 7; a sweep uses one h
    and so at most 2^10 keys."""
    return tuple(_greedy_cliques([0] * h + list(rows), range(h, h + len(rows))))


def _shaped(
    adj: Sequence[int], cliques: Sequence[Clique], out: list[Violation]
) -> tuple[list[tuple[int, Clique, int]], list[int]]:
    """(position, clique, vertex mask) for each clique whose pairs can be
    checked, and the isolated vertices of adj's graph without a trivial
    clique among these, ascending. One loop over a clique's members tests
    each for being a vertex (exactly an int in range(n)) and ORs it into
    the mask; a member that is not ends the loop, and the clique gets a
    bad_vertex finding for each such member and no other. Otherwise the
    clique is tested for being empty, for repeated vertices (fewer mask
    bits than members) and for repeating an earlier clique. Findings go to
    out in clique order; a caller that adds its own findings per position
    sorts out by position, stably, to put them after these."""
    n = len(adj)
    checked: list[tuple[int, Clique, int]] = []
    seen: set[Clique] = set()
    for i, cl in enumerate(cliques):
        mask = 0
        for v in cl:
            if type(v) is not int or not 0 <= v < n:
                out.extend(Violation("bad_vertex", position=i, vertex=w) for w in cl
                           if type(w) is not int or not 0 <= w < n)
                break
            mask |= 1 << v
        else:
            if not cl:
                out.append(Violation("empty_clique", position=i))
            elif mask.bit_count() != len(cl):
                out.append(Violation("repeated_vertex", position=i, vertices=cl))
            else:
                count = len(seen)
                seen.add(cl)
                if len(seen) == count:
                    out.append(Violation("duplicate_clique", position=i, vertices=cl))
                checked.append((i, cl, mask))
    return checked, [v for v, row in enumerate(adj) if row == 0 and (v,) not in seen]


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
    checked, isolated = _shaped(adj, d.sequence, out)
    for i, cl, mask in checked:
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
    out.extend(Violation("isolated_vertex_uncovered", vertex=v) for v in isolated)
    return out


def validate_partition(g: Graph, p: CliquePartition) -> list[Violation]:
    """Check the clique-partition contract; empty result iff valid.

    Reports adjacent pairs covered a number of times other than once,
    non-adjacent pairs covered at all, members that are not cliques,
    duplicate cliques, and isolated vertices lacking a trivial clique.

    One walk decides validity and finds the faults (_partition_findings).
    Each clique's members are tested and ORed into its vertex mask in one
    loop (_shaped); each vertex's clique masks then go through the
    per-vertex test that validate_representation shares (_wrong_pairs),
    with clique k as element k, and pairs are counted only above the
    vertices that fail it. That is O((n + sum of |clique|) * ceil(n/64))
    word operations, the order of building g.adj, plus one step per
    finding and sorting the findings. g.adj is read first, so an n too
    large to hold it fails at once.
    """
    return _partition_findings(g.adj, p.cliques)


def _duplicates_on_mask(
    n: int, mask: int, cliques: Sequence[Clique]
) -> tuple[int, int] | None:
    """When cliques are a valid partition of the graph with edge bitmask
    mask on n vertices, (duplicates, widest): the number of vertices whose
    incidence set an earlier vertex has (the fresh elements
    augment_to_distinct would attach), and the size of the widest clique of
    two or more vertices (0 when there is none). Else None.

    The sweep's only pass over a construction, reading no neighbour masks.
    Once a clique's members are seen to be exact ints, the order's table
    (_clique_bits) gives its vertex mask and pair bits, or misses on an
    empty clique, a repeated member or a non-vertex. The pair bits must be
    disjoint and OR to mask, and the vertex masks OR to all n vertices. The
    cliques are then distinct without a set of them: two equal cliques of
    two or more vertices share a pair, and a repeated trivial clique meets
    the mask of the trivial cliques before it. Two vertices then share an
    incidence set only when it is one clique of two or more vertices, the
    only clique of both (a second would cover their pair twice): each such
    clique adds its members that lie in no other clique, less one."""
    table = _clique_bits(n)
    covered = vertices = multi = trivial = widest = 0
    wide = []
    for cl in cliques:
        for v in cl:
            if type(v) is not int:
                return None
        found = table.get(cl) or table.get(tuple(sorted(cl)))
        if found is None:
            return None
        members, pairs = found
        if pairs:
            if covered & pairs:
                return None
            covered |= pairs
            wide.append(members)
            size = len(cl)
            if size > widest:
                widest = size
        elif trivial & members:
            return None
        else:
            trivial |= members
        multi |= vertices & members
        vertices |= members
    if covered != mask or vertices != (1 << n) - 1:
        return None
    duplicates = 0
    for members in wide:
        single = (members & ~multi).bit_count()
        if single > 1:
            duplicates += single - 1
    return duplicates, widest


def _partition_findings(adj: Sequence[int], cliques: Sequence[Clique]) -> list[Violation]:
    """validate_partition's findings on a clique sequence over the
    neighbour rows adj, positions as in the sequence: none exactly when the
    cliques form a valid partition, so this walk alone decides validity.
    Each checked clique's member mask joins the list of each of its
    members, for the per-vertex test (_wrong_pairs); only the cliques that
    hold an end of a covered non-edge are walked for not_a_clique pairs."""
    out: list[Violation] = []
    checked, isolated = _shaped(adj, cliques, out)
    owns: list[list[int]] = [[] for _ in adj]
    for _, cl, mask in checked:
        for v in cl:
            owns[v].append(mask)
    bad = _wrong_pairs(adj, owns)
    ends = reduce(or_, (1 << u | 1 << w for (u, w), _, adjacent in bad if not adjacent), 0)
    if ends:
        # A clique holding a non-adjacent pair holds both its ends. Each
        # clique's findings stay together and in clique order: the sort by
        # position is stable.
        for i, cl, mask in checked:
            if mask & ends:
                out.extend(Violation("not_a_clique", position=i, pair=(u, w))
                           for u in sorted(cl) for w in bits(mask & ~adj[u] >> u + 1 << u + 1))
        out.sort(key=attrgetter("position"))
    out.extend(Violation("miscovered_edge", pair=pair, observed=c, expected=1)
               for pair, c, adjacent in bad if adjacent)
    out.extend(Violation("covered_nonedge", pair=pair, observed=c, expected=0)
               for pair, c, adjacent in bad if not adjacent)
    out.extend(Violation("isolated_vertex_uncovered", vertex=v) for v in isolated)
    return out


def _check_partition(adj: Sequence[int], cliques: Sequence[Clique]) -> None:
    """ValueError naming the first finding, positions as in the sequence,
    unless cliques form a valid partition of the graph with neighbour rows
    adj: the one walk validate_partition makes (_partition_findings)."""
    if findings := _partition_findings(adj, cliques):
        raise ValueError(f"invalid partition: {findings[0].to_json()}")


def _wrong_pairs(adj: Sequence[int], owns: Iterable[list[int]]) -> list[tuple[Edge, int, int]]:
    """(pair, count, adjacency) for every pair u < w whose count, the
    number of groups holding both, is not its adjacency in the neighbour
    rows adj, pairs ascending. owns gives, for each vertex u in turn, the
    member masks of the groups holding u, each group a set of vertices
    (a clique or an element's members). Vertex u passes when its masks OR
    to adj[u] plus u's own bit and hold, less u once per mask,
    adj[u].bit_count() members: then each neighbour shares exactly one
    group with u and no other vertex shares any. Both ends of a wrong pair
    fail, so pairs are counted only above the failing vertices
    (_miscounted_above). O(sum of |owns[u]| * ceil(n/64)) word operations
    plus one step per finding."""
    bad: list[tuple[Edge, int, int]] = []
    for u, (own, row) in enumerate(zip(owns, adj)):
        if (reduce(or_, own, 1 << u) != row | 1 << u
                or sum(map(int.bit_count, own)) - len(own) != row.bit_count()):
            bad.extend(_miscounted_above(u, row, own))
    return bad


def _miscounted_above(u: int, row: int, own: list[int]) -> list[tuple[Edge, int, int]]:
    """(pair, count, adjacency) for every pair (u, w) with w > u whose
    count, the number of masks in own (u's member masks) holding w, is not
    w's bit in u's neighbour row, w ascending. O(|own| * ceil(n/64)) word
    operations plus one step per count above 1."""
    cover = 0
    repeats: dict[int, int] = {}
    for mask in own:
        mask = mask >> u + 1 << u + 1
        twice = cover & mask
        if twice:
            for w in bits(twice):
                repeats[w] = repeats.get(w, 1) + 1
        cover |= mask
    above = row >> u + 1 << u + 1
    bad = [((u, w), c, 1) for w, c in repeats.items() if above >> w & 1]
    bad.extend(((u, w), repeats.get(w, 1), 0) if cover >> w & 1 else ((u, w), 0, 1)
               for w in bits(cover ^ above))
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
    property. Trivial cliques created for vertices isolated at inner steps
    are kept: the distinctness property can depend on them.

    The deletion order is the smallest-last order of Matula and Beck
    (1983), ties to the lowest label. _erdos_cliques picks one of two loops
    that keep it: on a dense graph of more than ENUMERATION_MAX_N vertices,
    with a mean degree above n/8, one that holds the degrees bit-sliced and
    reads the single-edge cliques off the rows once at the end; on any
    other, one step per edge. Both give the same partition.
    """
    return CliquePartition(g, tuple(_erdos_cliques(g.adj)))


def _erdos_cliques(rows: Sequence[int]) -> list[Clique]:
    """erdos_partition's cliques, sorted, on neighbour rows, which are not
    changed: the deletions work on a copy. Only here does the vertex count
    decide which loop deletes down to the base and how the base is found.
    At n <= ENUMERATION_MAX_N, every sweep graph, only _erdos_sparse runs;
    it clears a deleted vertex's row and its bit in every other row, so
    (alive, rows) determines the base graph, which is looked up in the
    bounded table _erdos_base. A larger graph runs _erdos_dense when its
    mean degree exceeds n/8, so that the final read of the rows walks fewer
    than eight bit positions per edge, else _erdos_sparse, and searches its
    base uncached, so no table key grows with n."""
    n = len(rows)
    deg = list(map(int.bit_count, rows))
    if n <= ENUMERATION_MAX_N:
        alive, adj, cliques = _erdos_sparse(rows, deg)
        cliques += _erdos_base(alive, tuple(adj))
    else:
        loop = _erdos_dense if 8 * sum(deg) > n * n else _erdos_sparse
        alive, adj, cliques = loop(rows, deg)
        cliques += _erdos_base.__wrapped__(alive, adj)
    cliques.sort()
    return cliques


def _erdos_sparse(rows: Sequence[int], deg: list[int]) -> tuple[int, list[int], list[Clique]]:
    """Delete down to the base by one step per deleted vertex's neighbour:
    it changes degree bucket, and its edge, unless _pair_neighbours took it
    in a triangle, is recorded and cleared. About seven integer operations
    per edge. deg holds the rows' bit counts, updated in place. Returns
    alive, the rows with deleted vertices' rows and bits clear, and the cliques."""
    # Vertices keep their labels, and a deleted vertex's mask is cleared, as
    # is its bit in its neighbors' masks. by_degree[d] holds the survivors
    # of degree d, so the lowest bit of the first non-empty one is the
    # minimum-degree survivor with the lowest label.
    adj = list(rows)
    by_degree = [0] * len(adj)
    for v, d in enumerate(deg):
        by_degree[d] |= 1 << v
    alive = (1 << len(adj)) - 1
    cliques: list[Clique] = []
    for n in range(len(adj), 4, -1):
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
        # The cliques are sorted at the end, so each is added when found.
        r = d - n // 2
        used = _pair_neighbours(adj, x, nbr_mask, r, cliques) if r > 0 else 0
        adj[x] = 0
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
    return alive, adj, cliques


def _erdos_dense(rows: Sequence[int], deg: list[int]) -> tuple[int, list[int], list[Clique]]:
    """Delete down to the base with bit-sliced degrees, touching no single
    edge until the end: O(width) integer operations per deleted vertex,
    where width is the bit length of the largest degree, plus the pairing
    steps and one pass over every bit position of the rows. deg holds the
    rows' bit counts. Returns alive, the rows and the cliques found.

    level[j] is the mask of the vertices whose degree has bit j set.
    Deleting x lowers the degrees of all its surviving neighbours at once,
    by a borrow that runs up through the levels (_lower), and the matched
    neighbours lose one more the same way. One top-down pass over the
    levels, restricted to alive, finds the minimum-degree survivor with the
    lowest label. Rows keep the bits of deleted vertices, so every read
    masks them with alive; _pair_neighbours removes each triangle. Once
    four vertices are left, the edges still in the rows are the
    single-edge cliques, except those between two survivors: those are the
    base graph's."""
    adj = list(rows)
    n = len(adj)
    level = [sum(1 << v for v, d in enumerate(deg) if d >> j & 1)
             for j in range(max(deg).bit_length())]
    alive = (1 << n) - 1
    cliques: list[Clique] = []
    for size in range(n, 4, -1):
        # Keep, from the highest level down, the candidates with that
        # degree bit clear when there are any; d collects the bits.
        cand = alive
        d = 0
        for lv in reversed(level):
            d += d
            clear = cand & ~lv
            if clear:
                cand = clear
            else:
                d += 1
        xbit = cand & -cand
        x = xbit.bit_length() - 1
        alive ^= xbit
        nbr_mask = adj[x] & alive
        if not nbr_mask:
            cliques.append((x,))
            continue
        r = d - size // 2
        if r > 0:
            _lower(level, _pair_neighbours(adj, x, nbr_mask, r, cliques))
        _lower(level, nbr_mask)
    # Each remaining edge once, from its lower end's row. The edges share
    # one int per vertex.
    labels = list(range(n))
    for u, row in zip(labels, adj):
        if alive >> u & 1:
            row &= ~alive
        cliques += zip(repeat(u), compress(labels[u + 1:], _bit_flags(row >> u + 1)))
    return alive, adj, cliques


def _lower(level: list[int], mask: int) -> None:
    """Subtract one from the bit-sliced counters (level[j] holds bit j of
    each) of the vertices in mask, none of them at zero: the borrow moves
    up a level wherever the bit was clear."""
    for j, lv in enumerate(level):
        level[j] = lv ^ mask
        mask &= ~lv
        if not mask:
            return


def _pair_neighbours(adj: list[int], x: int, nbr_mask: int, r: int,
                     cliques: list[Clique]) -> int:
    """Pair up 2r of x's neighbours nbr_mask along r disjoint edges u < w
    among them, greedily in label order (a w below u would have been
    visited first, unmatched, and taken u), add each triangle with x to
    cliques, remove its three edges from adj at both ends, and return the
    mask of the matched neighbours. Called when x has the minimum degree
    floor(n/2) + r with r > 0 on n survivors, which guarantees the pairing;
    it is checked rather than assumed. Only the rows' bits in nbr_mask are
    read, and x's row is not read."""
    xbit = 1 << x
    used = 0
    matched = 0
    rest = nbr_mask
    while rest and matched < r:
        ubit = rest & -rest
        rest ^= ubit
        if used & ubit:
            continue
        u = ubit.bit_length() - 1
        # A triangle's edges leave the rows at once: they join x and
        # used vertices only, which cand leaves out.
        cand = adj[u] & nbr_mask & ~used & ~ubit
        if cand:
            wbit = cand & -cand
            w = wbit.bit_length() - 1
            adj[u] ^= wbit | xbit
            adj[w] ^= ubit | xbit
            used |= ubit | wbit
            matched += 1
            cliques.append((x, u, w) if x < u else (u, x, w) if x < w else (u, w, x))
    if matched < r:
        raise RuntimeError(
            f"neighborhood pairing stalled at {matched} of {r} edges; "
            "the minimum-degree guarantee was violated"
        )
    adj[x] ^= used
    return used


@lru_cache(maxsize=4096)
def _erdos_base(alive: int, adj: Sequence[int]) -> tuple[Clique, ...]:
    """Minimum partition of the base graph on the <= 4 survivors in alive
    into cliques of <= 3 vertices with pairwise-distinct incidence sets, as
    sorted cliques in the original labels; adj holds every vertex's
    neighbour mask in those labels. Only the survivors' masks are read,
    and in them only the survivors' bits. Memoized in a bounded cache: on
    graphs of at most 7 vertices there are at most C(7, 4) * 64 = 2,240
    keys whose deleted vertices' rows and bits are clear.

    The search runs on local labels 0..k-1, and the first cheapest
    partition in branching order wins.
    """
    labels = list(bits(alive))
    local = [sum(1 << j for j, w in enumerate(labels) if adj[v] >> w & 1) for v in labels]
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
    uncovered edge.

    Each is (u, v) plus a clique of the common neighbors cand, and whether
    a set of them is a clique depends only on their rows inside cand. So
    the options are looked up in a bounded cache (_cliques_in) under u, v,
    cand and those rows, ascending: a dense G(10, 36) search meets 77 to
    369 such keys, and 89% of its calls hit. Each call returns a new list."""
    cand = adj[u] & adj[v]
    key = [u, v, cand]
    # Walked inline: the bits() generator doubles the cost of the key.
    rest = cand
    while rest:
        low = rest & -rest
        key.append(adj[low.bit_length() - 1] & cand)
        rest ^= low
    return list(_cliques_in(*key))


@lru_cache(maxsize=128)
def _cliques_in(u: int, v: int, cand: int, *rows: int) -> tuple[_Option, ...]:
    """The options of _cliques_through_edge from its key: rows holds each
    common neighbor's row inside cand, ascending."""
    inner = dict(zip(bits(cand), rows))
    stack = [((u, v), 1 << u | 1 << v, cand)]
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
            stack.append((members + (w,), mask | bit, above & inner[w]))
            above |= bit
    # A stable sort by size keeps the lexicographic order within a size.
    found.sort(key=lambda option: len(option[0]), reverse=True)
    return tuple(found)


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
    price: Callable[[list[Clique]], int] | None = None,
) -> Iterator[list[Clique]]:
    """Clique partitions of adj (neighbor bitmasks): the trivial clique of
    each isolated vertex, chosen at the root, and a partition of the edges
    into cliques, by the clique-partition branch and bound of Orlin (1977).

    Branches on the smallest uncovered edge (u, v) over options(residual, u,
    v), the residual cliques through it to try, in order, each with its
    vertex mask; if they are all the residual cliques through it, each edge
    partition is reached exactly once. When u and v have no common residual
    neighbor, options must return exactly the edge (u, v), as
    _cliques_through_edge and _edge_or_triangles do: such a forced edge is
    taken without calling it. A node is the root or a branching option,
    followed by its whole run of forced smallest edges.

    Without a price every partition is yielded and no bound is computed.
    With one, price(chosen) is a partition's cost, from its clique count up
    to |E| + n, and a partition is yielded only when cheaper than the
    budget, which its cost then becomes: the last one yielded is the first
    cheapest in branching order. The budget starts at |E| + n + 1 and is
    read once per node, at the end of its run. A node is cut when the
    cliques chosen so far plus _cliques_needed(residual), a lower bound on
    the cliques any completion adds (0 at a leaf), reach it: a branching
    node before it branches, a leaf before it is priced. The bound gets the
    room the budget leaves and stops counting once it proves the cut, so a
    cut node pays only for that part. A run does not branch, so a cut that
    its middle would allow is only delayed to its end. The yielded list is
    the live search state, valid until the next step, and is extended by
    copying; its length is the partition's clique count.

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
    budget = sum(map(int.bit_count, residual)) // 2 + len(residual) + 1
    chosen: list[Clique] = [(v,) for v, row in enumerate(residual) if not row]
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
        if price is None or _cliques_needed(
                residual, free, room := budget - len(chosen)) < room:
            if free:
                stack.append((iter(options(residual, u, v)), len(chosen), residual.copy(), free))
            elif price is None:
                yield chosen
            elif (cost := price(chosen)) < budget:
                budget = cost
                yield chosen
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

    Searches the clique partitions that options allows. The kernel prices a
    completed partition at its cliques plus one per extra member of each
    group of vertices with identical incidence sets (the cheapest way to
    split such a group, since a fresh trivial clique can collide with
    nothing). An isolated vertex's trivial clique gives it a key of its
    own. Of equally cheap partitions the first found wins.
    """
    n = len(adj)
    keys: list[int] = []

    def price(chosen: list[Clique]) -> int:
        # Incidence keys are clique-position bitmasks. The kernel yields a
        # partition right after pricing it, so keys are then its keys.
        nonlocal keys
        keys = [0] * n
        bit = 1
        for cl in chosen:
            for v in cl:
                keys[v] |= bit
            bit <<= 1
        return len(chosen) + n - len(set(keys))

    for chosen in _edge_partitions(adj, options, price):
        best, best_keys = chosen.copy(), keys
    # Every vertex whose key an earlier vertex already has gets a trivial
    # clique, in vertex order.
    seen: set[int] = set()
    extras = [(v,) for v, key in enumerate(best_keys) if key in seen or seen.add(key)]
    return best + extras


def _incidence(n: int, cliques: Iterable[Clique]) -> list[list[int]]:
    """Per vertex, the positions of the cliques containing it, ascending."""
    out: list[list[int]] = [[] for _ in range(n)]
    for k, cl in enumerate(cliques):
        for v in cl:
            out[v].append(k)
    return out

