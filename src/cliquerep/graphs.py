"""Simple undirected graphs on dense vertices 0..n-1.

Covers text ingestion (graph6 short form and a small edge-list format),
basic queries, and exhaustive labeled-graph enumeration for desk-scale
verification sweeps.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import combinations, compress, permutations

Edge = tuple[int, int]

#: Exhaustive enumeration ceiling: 2^21 labeled graphs at n = 7.
ENUMERATION_MAX_N = 7
#: Canonical forms try all n! relabelings; capped before the factorial hurts.
CANONICAL_MAX_N = 8
#: Short-form graph6 encodes the vertex count in a single header byte.
GRAPH6_MAX_N = 62
#: The bulk edge-list reader takes n up to this and builds the neighbour
#: masks as it reads, at most n * n / 8 bytes (2 MB). Any larger n goes to
#: the line walk, which keeps an edge set, so a header declaring a huge n,
#: or an edge on a huge vertex index, allocates nothing sized by n.
_MASKS_UP_TO_N = 4096
#: The plain edge-list reader takes the body this many characters at a
#: time, so its memory beyond the masks does not grow with the input.
_CHUNK = 1 << 14

_GRAPH6_PREFIX = ">>graph6<<"
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
#: str.translate tables of the plain edge-list reader: one deletes the
#: ASCII digits, leaving a plain chunk's separators; one turns both
#: separators into commas, leaving a JSON array's body.
_SEPARATORS = str.maketrans("", "", "0123456789")
_COMMAS = str.maketrans(" \n", ",,")


class GraphParseError(ValueError):
    """Text input does not encode a graph in the expected format."""


def _clip(text: str) -> str:
    """repr(text) for an error line, cut to text's first 40 characters,
    then '...' and its length, so one line stays short whatever the input."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


class _cached:
    """A property computed on first access and stored in the instance
    __dict__ under the function's name, which later lookups find first.
    Unlike functools.cached_property before Python 3.12, it takes no lock."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class _init:
    """A record's __init__, compiled on first lookup, so the package import
    does not pay for the constructors that a command never calls."""

    def __get__(self, obj, cls):
        params = ", ".join(f"{f}=_cls.{f}" if f in vars(cls) else f for f in cls._fields)
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in cls._fields)
        scope = {"_set": object.__setattr__, "_cls": cls}
        exec(f"def __init__(self, {params}):{body}", scope)
        cls.__init__ = init = scope["__init__"]
        return init.__get__(obj, cls)


class _Record:
    """An immutable value: a subclass declares its fields as annotations, in
    order, with any default beside one. Two records are equal when they are
    of the same class and their fields are equal; the hash is that of the
    field values, and the repr lists them as Name(field=value, ...).
    Records are not dataclasses: importing dataclasses and running its
    decorators took about three quarters of a 17 ms package import."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        if "__init__" not in vars(cls):
            if sorted(defaulted := [f in vars(cls) for f in cls._fields]) != defaulted:
                raise TypeError(f"{cls.__name__}: a field without a default follows a default")
            cls.__init__ = _init()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({values})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Record):
    """Immutable simple graph: vertex count plus a set of (u, v) pairs, u < v.

    No self-loops, no duplicate edges, every endpoint below n. Instances are
    hashable and safe to share between concurrent workers.

    Graph(n, edges) keeps frozenset(edges) and makes its neighbour masks on
    the first read of adj. Two paths instead build the masks first and
    derive the edge set when it is first read (_from_adj): the bulk
    edge-list reader and enumerate_labeled_graphs, which wraps the rows of
    the labeled-graph walk (_labeled_graphs). Equality, hashing and repr
    read the edge set either way.
    """

    n: int
    edges: frozenset[Edge]

    def __init__(self, n: int, edges: Iterable[Edge]) -> None:
        if _count(n) < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        try:
            edges = frozenset(edges)
        except TypeError:
            raise ValueError("edges must be an iterable of hashable pairs") from None
        for e in edges:
            if type(e) is not tuple or len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair")
            u, v = e
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge {e!r} has an endpoint that is not an int")
            if not 0 <= u < v < n:
                raise ValueError(f"edge {e!r} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @_cached
    def adj(self) -> tuple[int, ...]:
        """Neighbor bitmasks: bit v of adj[u] is set iff {u, v} is an edge."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @_cached
    def edges(self) -> frozenset[Edge]:
        """The (u, v) pairs, u < v. Graph(n, edges) stores them; a graph from
        _from_adj derives them on first read, (u, v) for each bit v above u
        in adj[u]."""
        return frozenset((u, v) for u, mask in enumerate(self.adj)
                         for v in bits(mask >> u + 1 << u + 1))

    @classmethod
    def _from_adj(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A Graph from masks that _plain_edge_list built or _labeled_graphs
        walked, both checked; its edge set is derived from them when first
        read."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, adj=adj)
        return g

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


def _count(n: int) -> int:
    """n, if exactly an int: a bool, a float or a numpy int is no vertex count."""
    if type(n) is not int:
        raise ValueError(f"vertex count must be an int, got {n!r}")
    return n


def graph(n: int, edges: Iterable[Iterable[int]] = ()) -> Graph:
    """Build a Graph from any iterable of endpoint pairs, normalizing order.
    A malformed pair raises ValueError naming it, as Graph does."""
    try:
        edges = iter(edges)
    except TypeError:
        raise ValueError("edges must be an iterable of pairs") from None
    normalized = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise ValueError(f"edge {e!r} is not a pair") from None
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        try:
            normalized.add((u, v) if u < v else (v, u))
        except TypeError:  # endpoints that do not compare, or do not hash
            raise ValueError(f"edge {e!r} has an endpoint that is not an int") from None
    return Graph(n, normalized)


def empty_graph(n: int) -> Graph:
    return Graph(n, ())


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(_count(n)), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with one side on 0..a-1 and the other on a..a+b-1."""
    if _count(a) < 0 or _count(b) < 0:
        raise ValueError(f"part sizes must be non-negative, got {a} and {b}")
    return Graph(a + b, ((u, v) for u in range(a) for v in range(a, a + b)))


def path_graph(n: int) -> Graph:
    return Graph(n, ((v, v + 1) for v in range(_count(n) - 1)))


def cycle_graph(n: int) -> Graph:
    if _count(n) < 3:
        raise ValueError("cycles need at least 3 vertices")
    return graph(n, [(v, (v + 1) % n) for v in range(n)])


def _check_vertex(g: Graph, v: int) -> None:
    """ValueError unless v is a vertex of g: exactly an int, as Graph's
    endpoints are, in range(g.n)."""
    if type(v) is not int:
        raise ValueError(f"vertex {v!r} is not an int")
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")


def degree(g: Graph, v: int) -> int:
    """Number of edges incident to v."""
    _check_vertex(g, v)
    return g.adj[v].bit_count()


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by a vertex subset, relabeled down to 0..k-1.

    Returns (subgraph, labels) where labels[i] is the original index of the
    subgraph's vertex i.
    """
    # Each vertex is checked before the set, where True would merge with 1.
    vertices = tuple(vertices)
    for v in vertices:
        _check_vertex(g, v)
    labels = tuple(sorted(set(vertices)))
    index = {old: new for new, old in enumerate(labels)}
    edges = ((index[u], index[v]) for u, v in g.edges if u in index and v in index)
    return Graph(len(labels), edges), labels


def _pair_position(n: int, u: int, v: int) -> int:
    """Position of the pair u < v in combinations(range(n), 2): the
    n-1-i pairs led by each i < u come first."""
    return u * (2 * n - u - 1) // 2 + v - u - 1


@lru_cache(maxsize=8)
def _clique_bits(n: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """Each sorted tuple of distinct vertices of range(n), at least one,
    mapped to (its vertex mask, the edge bitmask of the pairs inside it):
    2^n - 1 entries."""
    out = {}
    for m in range(1, 1 << n):
        cl = tuple(bits(m))
        out[cl] = m, sum(1 << _pair_position(n, u, v) for u, v in combinations(cl, 2))
    return out


def _mask_pairs(n: int, mask: int) -> Iterator[Edge]:
    """The pairs of combinations(range(n), 2) whose bit is set in mask.

    One linear pass over the mask's bit flags: testing mask >> k & 1 for
    every k would copy the mask once per pair."""
    return compress(combinations(range(n), 2), _bit_flags(mask))


def _bit_flags(mask: int) -> bytes:
    """Byte k is bit k of mask, 0 or 1, up to its highest set bit: its
    reversed binary digits, for itertools.compress."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def graph_from_bitmask(n: int, mask: int) -> Graph:
    """Graph whose edge set is the given subset of vertex pairs.

    Bit k selects the k-th pair of combinations(range(n), 2); the same
    convention is used by edge_bitmask, _relabel_mask, _clique_bits, the
    labeled-graph walk (_labeled_graphs), and canonical_form.
    """
    _count(n)
    if type(mask) is not int:
        raise ValueError(f"mask must be an int, got {mask!r}")
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if mask < 0 or mask.bit_length() > n * (n - 1) // 2:
        raise ValueError(f"mask {mask} out of range for n={n}")
    return Graph(n, _mask_pairs(n, mask))


def edge_bitmask(g: Graph) -> int:
    """Inverse of graph_from_bitmask. The bits are set in a byte buffer:
    or-ing each into a growing int would copy the int once per edge. The
    buffer ends at the highest bit set, not at bit n(n-1)/2."""
    positions = [_pair_position(g.n, u, v) for u, v in g.edges]
    buf = bytearray((max(positions, default=-1) >> 3) + 1)
    for k in positions:
        buf[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(buf, "little")


def _relabel_mask(n: int, mask: int, labels: tuple[int, ...]) -> int:
    """Edge bitmask of the graph that has edge {labels[u], labels[v]} for
    every edge {u, v} of `mask`."""
    out = 0
    for u, v in _mask_pairs(n, mask):
        a, b = labels[u], labels[v]
        out |= 1 << (_pair_position(n, a, b) if a < b else _pair_position(n, b, a))
    return out


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices, bitmask ascending, as
    graph_from_bitmask builds them: each row tuple of _labeled_graphs
    wrapped in a Graph."""
    if type(n) is not int or not 0 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"enumeration supports 0 <= n <= {ENUMERATION_MAX_N}, got {n}")
    for adj in _labeled_graphs(n, 0, 1 << (n * (n - 1) // 2)):
        yield Graph._from_adj(n, adj)


def _labeled_graphs(n: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """The neighbour-mask tuples of the edge bitmasks lo..hi-1 on n
    vertices, in order; a caller that needs a Graph wraps them (_from_adj).
    The masks of lo come from its pairs; the step from mask to mask + 1
    toggles the pairs whose bits are set in mask ^ (mask + 1), the lowest."""
    pairs = list(combinations(range(n), 2))
    adj = [0] * n
    step = _mask_pairs(n, lo)
    for mask in range(lo, hi):
        for u, v in step:
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        yield tuple(adj)
        step = pairs[:(mask ^ (mask + 1)).bit_length()]


def canonical_form(g: Graph) -> int:
    """Minimum edge bitmask over all vertex relabelings.

    Two graphs get the same canonical form exactly when they are isomorphic.
    """
    if g.n > CANONICAL_MAX_N:
        raise ValueError(f"canonical form supports n <= {CANONICAL_MAX_N}, got {g.n}")
    mask = edge_bitmask(g)
    return min(_relabel_mask(g.n, mask, perm) for perm in permutations(range(g.n)))


def _graph6_pairs(n: int) -> Iterator[Edge]:
    """The pairs row < col in graph6 bit order: the upper triangle of the
    adjacency matrix column by column."""
    return ((row, col) for col in range(1, n) for row in range(col))


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
    need = (n * (n - 1) // 2 + 5) // 6
    data = s[1:]
    if len(data) < need:
        raise GraphParseError(
            f"byte {len(s)}: truncated bit field ({len(data)} data bytes, need {need})"
        )
    if len(data) > need:
        raise GraphParseError(
            f"byte {1 + need}: unexpected trailing character {data[need]!r}"
        )
    for i, ch in enumerate(data):
        if not 63 <= ord(ch) <= 126:
            raise GraphParseError(f"byte {1 + i}: character {ch!r} out of range")
    digits = "".join(f"{ord(ch) - 63:06b}" for ch in data)
    return Graph(n, compress(_graph6_pairs(n), digits.encode().translate(_BIT_BYTES)))


def to_graph6(g: Graph) -> str:
    """Encode in short-form graph6; inverse of parse_graph6."""
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 short form caps at n={GRAPH6_MAX_N}, got {g.n}")
    digits = "".join("1" if pair in g.edges else "0" for pair in _graph6_pairs(g.n))
    digits += "0" * (-len(digits) % 6)
    return chr(63 + g.n) + "".join(
        chr(63 + int(digits[k:k + 6], 2)) for k in range(0, len(digits), 6)
    )


def parse_edge_list(text: str) -> Graph:
    """Parse the 'n=<count>' header plus 'u v' lines format.

    Lines starting with '#' and blank lines are ignored. The explicit header
    keeps isolated vertices alive through serialization. One walk over the
    lines checks the header, then per edge line the token count, the
    integers, self-loops, the endpoint range and duplicates, in that order.
    It collects the edge set, whose size finds duplicates, and builds
    nothing sized by n; Graph re-checks the edges.

    Text in the plain layout that to_edge_list writes is read in bulk
    first (_plain_edge_list); any other text, and any text with an error,
    goes to the walk, which alone names errors.
    """
    g = _plain_edge_list(text)
    if g is not None:
        return g
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            break
    else:
        raise GraphParseError("missing 'n=<count>' header")
    if not line.startswith("n="):
        raise GraphParseError(f"line {lineno}: expected 'n=<count>' header, got {_clip(line)}")
    try:
        n = int(line[2:])
    except ValueError:
        raise GraphParseError(f"line {lineno}: bad vertex count {_clip(line[2:])}") from None
    if n < 0:
        raise GraphParseError(f"line {lineno}: negative vertex count")
    edges: set[Edge] = set()
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {_clip(raw.strip())}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            # int() refuses a sign and decimal digits only past the
            # interpreter's digit limit, which n's digits kept within: then
            # the longest endpoint exceeds n, unless it starts with a zero.
            digits = [p[p[0] in "+-":] for p in parts]
            if all(map(str.isdecimal, digits)) and int(max(digits, key=len)[0]):
                raise GraphParseError(f"line {lineno}: endpoint out of range for n={n}") from None
            raise GraphParseError(
                f"line {lineno}: non-integer endpoint in {_clip(raw.strip())}"
            ) from None
        if u > v:
            u, v = v, u
        elif u == v:
            raise GraphParseError(f"line {lineno}: self-loop on vertex {u}")
        if u < 0 or v >= n:
            raise GraphParseError(f"line {lineno}: endpoint out of range for n={n}")
        count = len(edges)
        edges.add((u, v))
        if len(edges) == count:
            raise GraphParseError(f"line {lineno}: duplicate edge {(u, v)}")
    return Graph(n, edges)


def _plain_edge_list(text: str) -> Graph | None:
    """The graph of text if it is in the plain layout and valid, else None.

    Plain is what to_edge_list writes: 'n=<count>' on line 1 with
    n <= _MASKS_UP_TO_N, then one 'u v' per line with a single space, every
    line ending in '\\n', and decimal integers of at most 9 digits without
    leading zeros. The body is read in chunks of about _CHUNK characters,
    each cut after a newline. A chunk with its ASCII digits deleted must be
    one ' \\n' per line; with both separators made commas, the C JSON
    decoder reads its endpoints, and fails (ValueError) on an empty token,
    a leading zero or more digits than the interpreter's int-digit limit,
    where it has one. Each edge ORs a precomputed bit into both endpoints'
    masks, and the indexing is the range test: an endpoint at or above n,
    10 or more digits included, raises IndexError, and the sign and digit
    rules leave no negative one. An edge sets two new bits, a repeated
    edge none and a self-loop one, so the masks hold two bits per line
    exactly when every line is a new edge. This raises nothing: the walk
    in parse_edge_list reports whatever makes this return None.
    """
    import json
    import re

    head = re.match(r"n=(0|[1-9][0-9]{0,3})\n", text)
    if head is None or text[-1] != "\n":
        return None
    n = int(head[1])
    if n > _MASKS_UP_TO_N:
        return None
    bit = [1 << v for v in range(n)]
    masks = [0] * n
    count = 0
    start = head.end()
    while start < len(text):
        stop = text.rfind("\n", start, start + _CHUNK) + 1
        chunk = text[start:stop]  # empty if a line outruns the chunk
        if not chunk or chunk.translate(_SEPARATORS) != " \n" * chunk.count("\n"):
            return None
        try:
            ends = json.loads("[" + chunk.translate(_COMMAS)[:-1] + "]")
        except ValueError:
            return None
        pairs = iter(ends)
        try:
            for u, v in zip(pairs, pairs):
                masks[u] |= bit[v]
                masks[v] |= bit[u]
        except IndexError:  # an endpoint at or above n
            return None
        count += len(ends)
        start = stop
    if sum(map(int.bit_count, masks)) != count:
        return None
    return Graph._from_adj(n, tuple(masks))


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
