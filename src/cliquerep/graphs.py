"""Simple undirected graphs on dense vertices 0..n-1.

Covers text ingestion (graph6 short form and a small edge-list format),
basic queries, and exhaustive labeled-graph enumeration for desk-scale
verification sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator

Edge = tuple[int, int]

#: Exhaustive enumeration ceiling: 2^21 labeled graphs at n = 7.
ENUMERATION_MAX_N = 7
#: Canonical forms try all n! relabelings; capped before the factorial hurts.
CANONICAL_MAX_N = 8
#: Short-form graph6 encodes the vertex count in a single header byte.
GRAPH6_MAX_N = 62

_GRAPH6_PREFIX = ">>graph6<<"


class GraphParseError(ValueError):
    """Text input does not encode a graph in the expected format."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex count plus a set of (u, v) pairs, u < v.

    No self-loops, no duplicate edges, every endpoint below n. Instances are
    hashable and safe to share between concurrent workers.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair")
            u, v = e
            if not 0 <= u < v < self.n:
                raise ValueError(f"edge {e!r} out of range for n={self.n}")

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Neighbor bitmasks: bit v of adj[u] is set iff {u, v} is an edge."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


def graph(n: int, edges: Iterable[Iterable[int]] = ()) -> Graph:
    """Build a Graph from any iterable of endpoint pairs, normalizing order."""
    normalized = set()
    for e in edges:
        u, v = e
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        normalized.add((u, v) if u < v else (v, u))
    return Graph(n, frozenset(normalized))


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with one side on 0..a-1 and the other on a..a+b-1."""
    return Graph(a + b, frozenset((u, v) for u in range(a) for v in range(a, a + b)))


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((v, v + 1) for v in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return graph(n, [(v, (v + 1) % n) for v in range(n)])


def degree(g: Graph, v: int) -> int:
    """Number of edges incident to v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    return g.adj[v].bit_count()


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by a vertex subset, relabeled down to 0..k-1.

    Returns (subgraph, labels) where labels[i] is the original index of the
    subgraph's vertex i.
    """
    labels = tuple(sorted(set(vertices)))
    for v in labels:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    index = {old: new for new, old in enumerate(labels)}
    edges = frozenset(
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    )
    return Graph(len(labels), edges), labels


def remove_edges(g: Graph, edges_to_remove: Iterable[Iterable[int]]) -> Graph:
    """Same vertices, minus the given edges; every edge must be present."""
    drop = set()
    for e in edges_to_remove:
        u, v = e
        pair = (u, v) if u < v else (v, u)
        if pair not in g.edges:
            raise ValueError(f"edge {pair} not present in the graph")
        drop.add(pair)
    return Graph(g.n, g.edges - drop)


@lru_cache(maxsize=None)
def _vertex_pairs(n: int) -> tuple[Edge, ...]:
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=None)
def _pair_index(n: int) -> dict[Edge, int]:
    return {pair: k for k, pair in enumerate(_vertex_pairs(n))}


def graph_from_bitmask(n: int, mask: int) -> Graph:
    """Graph whose edge set is the given subset of vertex pairs.

    Bit k selects the k-th pair of combinations(range(n), 2); the same
    convention is used by edge_bitmask, _relabel_mask,
    enumerate_labeled_graphs, and canonical_form.
    """
    pairs = _vertex_pairs(n)
    if not 0 <= mask < 1 << len(pairs):
        raise ValueError(f"mask {mask} out of range for n={n}")
    return Graph(n, frozenset(pairs[k] for k in range(len(pairs)) if mask >> k & 1))


def edge_bitmask(g: Graph) -> int:
    """Inverse of graph_from_bitmask."""
    index = _pair_index(g.n)
    mask = 0
    for e in g.edges:
        mask |= 1 << index[e]
    return mask


def _relabel_mask(n: int, mask: int, labels: tuple[int, ...]) -> int:
    """Edge bitmask of the graph that has edge {labels[u], labels[v]} for
    every edge {u, v} of `mask`."""
    pairs, index = _vertex_pairs(n), _pair_index(n)
    out = 0
    for k in bits(mask):
        u, v = pairs[k]
        a, b = labels[u], labels[v]
        out |= 1 << index[(a, b) if a < b else (b, a)]
    return out


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices, bitmask ascending."""
    if not 0 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"enumeration supports 0 <= n <= {ENUMERATION_MAX_N}, got {n}")
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_bitmask(n, mask)


def canonical_form(g: Graph) -> int:
    """Minimum edge bitmask over all vertex relabelings.

    Two graphs get the same canonical form exactly when they are isomorphic.
    """
    if g.n > CANONICAL_MAX_N:
        raise ValueError(f"canonical form supports n <= {CANONICAL_MAX_N}, got {g.n}")
    mask = edge_bitmask(g)
    return min(_relabel_mask(g.n, mask, perm) for perm in permutations(range(g.n)))


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 graph (n <= 62).

    Layout: header byte 63+n, then ceil(n(n-1)/2 / 6) data bytes carrying the
    upper triangle of the adjacency matrix column by column, six bits per
    byte offset by 63, most significant bit first. An optional '>>graph6<<'
    prefix is stripped; byte offsets in errors refer to the payload after it.
    """
    s = text.strip()
    if s.startswith(_GRAPH6_PREFIX):
        s = s[len(_GRAPH6_PREFIX):]
    if not s:
        raise GraphParseError("empty graph6 input")
    head = ord(s[0])
    if head == 126:
        raise GraphParseError("byte 0: long-form graph6 (n > 62) is not supported")
    if not 63 <= head <= 63 + GRAPH6_MAX_N:
        raise GraphParseError(f"byte 0: header byte {s[0]!r} out of range")
    n = head - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    data = s[1:]
    if len(data) < need:
        raise GraphParseError(
            f"byte {len(s)}: truncated bit field ({len(data)} data bytes, need {need})"
        )
    if len(data) > need:
        raise GraphParseError(
            f"byte {1 + need}: unexpected trailing character {data[need]!r}"
        )
    values = []
    for i, ch in enumerate(data):
        c = ord(ch)
        if not 63 <= c <= 126:
            raise GraphParseError(f"byte {1 + i}: character {ch!r} out of range")
        values.append(c - 63)
    edges = set()
    k = 0
    for col in range(1, n):
        for row in range(col):
            if values[k // 6] >> (5 - k % 6) & 1:
                edges.add((row, col))
            k += 1
    return Graph(n, frozenset(edges))


def to_graph6(g: Graph) -> str:
    """Encode in short-form graph6; inverse of parse_graph6."""
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 short form caps at n={GRAPH6_MAX_N}, got {g.n}")
    nbits = g.n * (g.n - 1) // 2
    values = [0] * ((nbits + 5) // 6)
    k = 0
    for col in range(1, g.n):
        for row in range(col):
            if (row, col) in g.edges:
                values[k // 6] |= 1 << (5 - k % 6)
            k += 1
    return chr(63 + g.n) + "".join(chr(63 + v) for v in values)


def parse_edge_list(text: str) -> Graph:
    """Parse the 'n=<count>' header plus 'u v' lines format.

    Lines starting with '#' and blank lines are ignored. The explicit header
    keeps isolated vertices alive through serialization.
    """
    n: int | None = None
    edges: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            if not line.startswith("n="):
                raise GraphParseError(
                    f"line {lineno}: expected 'n=<count>' header, got {line!r}"
                )
            try:
                n = int(line[2:])
            except ValueError:
                raise GraphParseError(
                    f"line {lineno}: bad vertex count {line[2:]!r}"
                ) from None
            if n < 0:
                raise GraphParseError(f"line {lineno}: negative vertex count")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(
                f"line {lineno}: non-integer endpoint in {line!r}"
            ) from None
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop on vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: endpoint out of range for n={n}")
        pair = (u, v) if u < v else (v, u)
        if pair in edges:
            raise GraphParseError(f"line {lineno}: duplicate edge {pair}")
        edges.add(pair)
    if n is None:
        raise GraphParseError("missing 'n=<count>' header")
    return Graph(n, frozenset(edges))


def to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format; inverse of parse_edge_list."""
    lines = [f"n={g.n}"] + [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest_bit(mask: int) -> int:
    """Index of the least significant set bit; mask must be non-zero."""
    return (mask & -mask).bit_length() - 1
