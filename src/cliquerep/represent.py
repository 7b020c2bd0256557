"""Set-family representations of graphs, tied to clique partitions both ways.

Clique k of a partition becomes element k; each vertex collects the elements
of the cliques containing it; pairwise intersection sizes then land exactly
on adjacency. The inverse direction reads each element's member set back off
as a clique. Duplicate vertex sets can be split apart by attaching fresh
elements that appear nowhere else, which never disturbs an intersection.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from itertools import chain

from .decompose import (
    Clique,
    CliquePartition,
    GreedyDecomposition,
    Violation,
    _check_header,
    _check_partition,
    _incidence,
    _int_arrays,
    _wrong_pairs,
)
from .graphs import Graph, _Record


class SetRepresentation(_Record):
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
        _check_header(doc, host, ("n", "ground_size", "sets"))
        _check_ground_size(doc["ground_size"])
        sets = doc["sets"]
        if not isinstance(sets, list) or len(sets) != host.n:
            raise ValueError("artifact 'sets' must be an array with one entry per vertex")
        if not _int_arrays(sets):
            raise ValueError("each set must be an array of integers")
        _check_ground_size(doc["ground_size"], sets)
        return cls(host, tuple(frozenset(s) for s in sets), doc["ground_size"])


def _check_ground_size(size: object, sets: list | tuple | None = None) -> None:
    """ValueError unless size is exactly a non-negative int and at most the
    entries of sets, if given: every element id must occur in some set, and
    listing each unused id of a larger size is unbounded work."""
    if type(size) is not int:
        raise ValueError("artifact 'ground_size' must be an integer")
    if size < 0:
        raise ValueError("artifact 'ground_size' must be non-negative")
    if sets is not None and size > sum(map(len, sets)):
        raise ValueError("artifact 'ground_size' exceeds the number of set entries")


class DistinctnessReport(_Record):
    """Vertices grouped by exact set equality; is_family iff all groups are
    singletons (i.e. the representation uses pairwise-distinct sets)."""

    classes: tuple[tuple[int, ...], ...]
    is_family: bool


def representation_from_partition(
    p: CliquePartition | GreedyDecomposition,
) -> SetRepresentation:
    """Element k is the k-th clique; sets[v] collects the cliques through v.

    Elements follow a partition's stored clique order, which from_cliques
    and the constructions sort, or a greedy decomposition's sequence. The
    ground size equals the number of cliques. Invalid partitions are
    rejected by the one walk validate_partition makes, which raises on its
    first finding; a greedy sequence is checked in sequence order, so the
    position an error names is the bad clique's element. The intersection
    property of the output then follows from the partition's.
    """
    cliques = p.sequence if isinstance(p, GreedyDecomposition) else p.cliques
    _check_partition(p.host.adj, cliques)
    return _representation(p.host, cliques)


def _representation(host: Graph, cliques: Sequence[Clique]) -> SetRepresentation:
    """representation_from_partition without its check, for cliques that
    already form a valid partition of host: the CLI's own constructions."""
    sets = tuple(map(frozenset, _incidence(host.n, cliques)))
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
    # Valid, so every element id is in range: element k's members are
    # the vertices whose sets hold k.
    return CliquePartition.from_cliques(r.host, set(map(tuple, _incidence(r.ground_size, r.sets))))


def augment_to_distinct(r: SetRepresentation) -> SetRepresentation:
    """Split duplicate classes apart with fresh single-occurrence elements.

    Within each group of identical sets, the lowest-index vertex keeps its
    set and each other member gains one fresh element. Fresh elements occur
    in exactly one set, so no pairwise intersection changes. Already-distinct
    representations are returned unchanged. A ground size from_json rejects
    raises its ValueError.
    """
    _check_ground_size(r.ground_size, r.sets)
    fresh = sorted(v for group in distinctness(r).classes for v in group[1:])
    if not fresh:
        return r
    sets = list(r.sets)
    for k, v in enumerate(fresh, start=r.ground_size):
        sets[v] = sets[v] | {k}
    return SetRepresentation(r.host, tuple(sets), r.ground_size + len(fresh))


def distinctness(r: SetRepresentation) -> DistinctnessReport:
    """Group vertices by exact set equality: each class ascending, classes
    in order of their first vertex."""
    groups: dict[frozenset[int], list[int]] = {}
    for v, s in enumerate(r.sets):
        groups.setdefault(s, []).append(v)
    classes = tuple(map(tuple, groups.values()))
    return DistinctnessReport(classes, len(classes) == len(r.sets))


def validate_representation(
    g: Graph, r: SetRepresentation, require_distinct: bool = False
) -> list[Violation]:
    """Check the representation contract; empty result iff valid.

    Reports every pair whose intersection size misses its adjacency value,
    empty sets, element ids outside 0..ground_size-1, unused element ids,
    and, when require_distinct is set, every duplicate class. An id that is
    not exactly an int is out of range, after the set's int ids in repr
    order. Intersections are counted over the members of every int id.
    One pass ORs each vertex's bit into its ids' member masks, and each
    vertex's list of its ids' masks goes through the per-vertex test that
    validate_partition shares (_wrong_pairs): pairs are counted only above
    the vertices that fail it. That is O((n + sum of |set|) * ceil(n/64))
    word operations, the order of building g.adj, plus one step per
    finding, in one mask of up to ceil(n/64) words per id; sets holding an
    id out of range are sorted. A ground size from_json rejects raises its
    ValueError.
    """
    _check_ground_size(r.ground_size, r.sets)
    if len(r.sets) != g.n:
        return [Violation("size_mismatch", observed=len(r.sets), expected=g.n)]
    out: list[Violation] = []
    ground = r.ground_size
    in_range = ({*map(type, chain.from_iterable(r.sets))} <= {int}
                and all(0 <= min(s) and max(s) < ground for s in r.sets if s))
    # Indexed by id when every id is an int in range; out-of-range ids count too.
    masks: list[int] | defaultdict[int, int] = [0] * ground if in_range else defaultdict(int)
    ids: list[Iterable[int]] = []
    for v, s in enumerate(r.sets):
        if not s:
            out.append(Violation("empty_set", vertex=v))
        elif not in_range:
            odd = () if {*map(type, s)} <= {int} else [e for e in s if type(e) is not int]
            s = sorted(s.difference(odd)) if odd else sorted(s)
            out.extend(Violation("element_out_of_range", vertex=v, element=e)
                       for e in s if not 0 <= e < ground)
            out.extend(Violation("element_out_of_range", vertex=v, element=e)
                       for e in sorted(odd, key=repr))
        ids.append(s)
        bit = 1 << v
        for e in s:
            masks[e] |= bit
    out.extend(Violation("unused_element", element=e) for e in range(ground) if not masks[e])
    out.extend(Violation("wrong_intersection", pair=pair, observed=c, expected=adjacent)
               for pair, c, adjacent in _wrong_pairs(
                   g.adj, ([*map(masks.__getitem__, s)] for s in ids)))
    if require_distinct:
        for cls in distinctness(r).classes:
            if len(cls) > 1:
                out.append(Violation("duplicate_sets", vertices=cls))
    return out
