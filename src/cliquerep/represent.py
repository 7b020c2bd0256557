"""Set-family representations of graphs, tied to clique partitions both ways.

Clique k of a partition becomes element k; each vertex collects the elements
of the cliques containing it; pairwise intersection sizes then land exactly
on adjacency. The inverse direction reads each element's member set back off
as a clique. Duplicate vertex sets can be split apart by attaching fresh
elements that appear nowhere else, which never disturbs an intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .decompose import (
    CliquePartition,
    GreedyDecomposition,
    Violation,
    _group_equal,
    _incidence,
    validate_partition,
)
from .graphs import Graph


@dataclass(frozen=True)
class SetRepresentation:
    """Per-vertex element sets over a dense ground set 0..ground_size-1.

    For a valid representation, |sets[u] & sets[v]| is 1 when {u, v} is an
    edge of the host and 0 otherwise, every set is non-empty, and every
    element id occurs in at least one set.
    """

    host: Graph
    sets: tuple[frozenset[int], ...]
    ground_size: int

    def to_json(self) -> dict:
        return {
            "n": self.host.n,
            "ground_size": self.ground_size,
            "sets": [sorted(s) for s in self.sets],
        }

    @classmethod
    def from_json(cls, doc: dict, host: Graph) -> "SetRepresentation":
        if not isinstance(doc, dict):
            raise ValueError("artifact must be a JSON object")
        for key in ("n", "ground_size", "sets"):
            if key not in doc:
                raise ValueError(f"artifact is missing the {key!r} key")
        if not isinstance(doc["n"], int) or isinstance(doc["n"], bool):
            raise ValueError("artifact 'n' must be an integer")
        if doc["n"] != host.n:
            raise ValueError(f"artifact n={doc['n']} does not match graph n={host.n}")
        if not isinstance(doc["ground_size"], int) or isinstance(doc["ground_size"], bool):
            raise ValueError("artifact 'ground_size' must be an integer")
        if doc["ground_size"] < 0:
            raise ValueError("artifact 'ground_size' must be non-negative")
        sets = doc["sets"]
        if not isinstance(sets, list) or len(sets) != host.n:
            raise ValueError("artifact 'sets' must be an array with one entry per vertex")
        for s in sets:
            if not isinstance(s, list) or any(
                not isinstance(e, int) or isinstance(e, bool) for e in s
            ):
                raise ValueError("each set must be an array of integers")
        return cls(host, tuple(frozenset(s) for s in sets), doc["ground_size"])


@dataclass(frozen=True)
class DistinctnessReport:
    """Vertices grouped by exact set equality; is_family iff all groups are
    singletons (i.e. the representation uses pairwise-distinct sets)."""

    classes: tuple[tuple[int, ...], ...]
    is_family: bool


def representation_from_partition(
    p: CliquePartition | GreedyDecomposition,
) -> SetRepresentation:
    """Element k is the k-th clique; sets[v] collects the cliques through v.

    For an unordered partition, elements follow the stored lexicographic
    clique order; for a greedy decomposition, sequence positions. The ground
    size equals the number of cliques. Invalid partitions are rejected; the
    intersection property of the output then follows from the partition's.
    """
    host = p.host
    if isinstance(p, GreedyDecomposition):
        cliques = p.sequence
        problems = validate_partition(host, p.as_partition())
    else:
        cliques = p.cliques
        problems = validate_partition(host, p)
    if problems:
        raise ValueError(f"invalid partition: {problems[0].to_json()}")
    sets = tuple(frozenset(ks) for ks in _incidence(host.n, cliques))
    return SetRepresentation(host, sets, len(cliques))


def partition_from_representation(r: SetRepresentation) -> CliquePartition:
    """Each element's member set becomes a clique.

    Elements inducing identical vertex sets (only possible for trivial
    cliques) collapse to a single clique, so the result can have fewer
    cliques than the ground size. The input must satisfy the intersection
    property, and the output partition is then valid.
    """
    problems = validate_representation(r.host, r)
    if problems:
        raise ValueError(f"invalid representation: {problems[0].to_json()}")
    return CliquePartition.from_cliques(r.host, set(_induced_sets(r)))


def augment_to_distinct(r: SetRepresentation) -> SetRepresentation:
    """Split duplicate classes apart with fresh single-occurrence elements.

    Within each group of identical sets, the lowest-index vertex keeps its
    set and each other member gains one fresh element. Fresh elements occur
    in exactly one set, so no pairwise intersection changes. Already-distinct
    representations are returned unchanged.
    """
    fresh = sorted(v for group in _group_equal(r.sets) for v in group[1:])
    if not fresh:
        return r
    sets = list(r.sets)
    for k, v in enumerate(fresh, start=r.ground_size):
        sets[v] = sets[v] | {k}
    return SetRepresentation(r.host, tuple(sets), r.ground_size + len(fresh))


def distinctness(r: SetRepresentation) -> DistinctnessReport:
    """Group vertices by exact set equality."""
    classes = tuple(tuple(vs) for vs in _group_equal(r.sets))
    return DistinctnessReport(classes, all(len(c) == 1 for c in classes))


def validate_representation(
    g: Graph, r: SetRepresentation, require_distinct: bool = False
) -> list[Violation]:
    """Check the representation contract; empty result iff valid.

    Reports every pair whose intersection size misses its adjacency value,
    empty sets, element ids outside 0..ground_size-1, unused element ids,
    and, when require_distinct is set, every duplicate class.
    """
    if len(r.sets) != g.n:
        return [Violation("size_mismatch", observed=len(r.sets), expected=g.n)]
    out: list[Violation] = []
    used: set[int] = set()
    for v, s in enumerate(r.sets):
        if not s:
            out.append(Violation("empty_set", vertex=v))
        for e in sorted(s):
            if not 0 <= e < r.ground_size:
                out.append(Violation("element_out_of_range", vertex=v, element=e))
            else:
                used.add(e)
    for e in range(r.ground_size):
        if e not in used:
            out.append(Violation("unused_element", element=e))
    for u, v in combinations(range(g.n), 2):
        want = 1 if g.has_edge(u, v) else 0
        got = len(r.sets[u] & r.sets[v])
        if got != want:
            out.append(Violation("wrong_intersection", pair=(u, v), observed=got, expected=want))
    if require_distinct:
        for cls in distinctness(r).classes:
            if len(cls) > 1:
                out.append(Violation("duplicate_sets", vertices=cls))
    return out


def representations_equivalent(a: SetRepresentation, b: SetRepresentation) -> bool:
    """True when b is a bijective relabeling of a's element ids."""
    if a.host != b.host or a.ground_size != b.ground_size:
        return False
    return sorted(_induced_sets(a)) == sorted(_induced_sets(b))


def _induced_sets(r: SetRepresentation) -> list[tuple[int, ...]]:
    members: list[list[int]] = [[] for _ in range(r.ground_size)]
    for v, s in enumerate(r.sets):
        for e in s:
            if 0 <= e < r.ground_size:
                members[e].append(v)
    return [tuple(vs) for vs in members]
