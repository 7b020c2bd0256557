"""Brute-force ground truth at desk scale.

Exact clique-partition number and exact distinct-family intersection number
by branch and bound, exhaustive enumeration of all clique partitions of a
small graph, exhaustive bound sweeps over every labeled graph of a given
order, and the structural checks that duplicate-set pairs and 2-clique
neighborhoods are promised to satisfy.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .decompose import (
    CliquePartition,
    GreedyDecomposition,
    Violation,
    _check_partition,
    _cliques_through_edge,
    _duplicates_on_mask,
    _edge_partitions,
    _erdos_cliques,
    _greedy_run,
    _incidence,
    _min_distinct,
    _partition_findings,
    _vertex_order,
    quarter_square,
    validate_greedy,
)
from .graphs import ENUMERATION_MAX_N, Graph, _labeled_graphs, _Record, _relabel_mask, bits
from .represent import SetRepresentation

#: Search budgets, chosen so every run finishes in minutes on one machine.
#: CP_MAX_N caps both exact searches, cp and omega, which share one kernel.
CP_MAX_N = 10
#: Sweeps cover SWEEP_MIN_N <= n <= ENUMERATION_MAX_N.
SWEEP_MIN_N = 4

THREADS_ENV = "CLIQUEREP_THREADS"
#: Every sweep worker gets at least this many masks, so small sweeps run
#: in-process.
_MIN_CHUNK_MASKS = 4096


class BoundViolation(_Record):
    """One bound breach found by a sweep: which graph (edge bitmask), which
    strategy ("erdos" for the edge/triangle partition), which check, and the
    observed value against its bound."""

    graph: int
    strategy: str
    check: str
    observed: int
    bound: int

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


class BoundReport(_Record):
    """Aggregate of one exhaustive sweep over all labeled graphs on n vertices."""

    n: int
    graphs_checked: int
    strategies: tuple[str, ...]
    max_cliques_seen: int
    max_elements_seen: int
    violations: tuple[BoundViolation, ...]

    @property
    def bound(self) -> int:
        return quarter_square(self.n)

    def to_json(self) -> dict:
        doc = {name: getattr(self, name) for name in self._fields}
        doc.update(bound=self.bound, strategies=list(self.strategies),
                   violations=[v.to_json() for v in self.violations])
        return doc


def min_clique_partition(g: Graph) -> tuple[int, CliquePartition]:
    """Exact clique-partition number with a minimum witness.

    Branch and bound on the lexicographically smallest uncovered edge,
    trying every residual clique through it, largest first. The kernel
    prices a partition at its size, so the witness is the first smallest
    partition in branching order (see _edge_partitions for the cut).
    Isolated vertices each contribute one trivial clique, which the search
    chooses at its root.
    """
    if g.n > CP_MAX_N:
        raise ValueError(f"n={g.n} exceeds the n<={CP_MAX_N} search budget")
    for chosen in _edge_partitions(g.adj, _cliques_through_edge, len):
        best = chosen.copy()
    # The kernel's cliques are sorted tuples, so sorting the list gives
    # from_cliques' normal form without re-sorting each clique.
    witness = CliquePartition(g, tuple(sorted(best)))
    return len(witness.cliques), witness


def all_clique_partitions(g: Graph) -> Iterator[CliquePartition]:
    """Every clique partition of g, deterministically.

    Starts from the forced trivial cliques of the isolated vertices, and no
    other vertex gets one. Branches on the smallest uncovered edge over all
    residual cliques containing it, so each edge partition is produced
    exactly once. Exhaustive, so meant for small n only.
    """
    for chosen in _edge_partitions(g.adj, _cliques_through_edge):
        # In normal form, as in min_clique_partition.
        yield CliquePartition(g, tuple(sorted(chosen)))


def min_distinct_representation(g: Graph) -> tuple[int, SetRepresentation]:
    """Exact distinct-family intersection number with a minimum witness.

    Trivial cliques are the only way to enlarge a vertex's element set
    without touching any pairwise intersection, so the minimum is found by
    searching clique partitions, each priced at its cliques plus one for
    each extra member of a group of vertices with identical incidence sets
    (_min_distinct). The kernel's starting budget is one every partition
    beats, so the search never assumes the floor(n^2/4) bound that the
    tests check it against.
    """
    if g.n > CP_MAX_N:
        raise ValueError(f"n={g.n} exceeds the n<={CP_MAX_N} search budget")
    best = _min_distinct(g.adj, _cliques_through_edge)
    # Element k is the k-th clique in sorted order. The search yields each
    # clique as a sorted tuple, so sorting the list is CliquePartition's order.
    best.sort()
    # Vertex v's set as a mask: bit k is set when v is in the k-th clique.
    masks = [0] * g.n
    for k, cl in enumerate(best):
        for v in cl:
            masks[v] |= 1 << k
    if len(set(masks)) < g.n:
        raise RuntimeError("the minimum witness has duplicate sets")
    return len(best), SetRepresentation(g, tuple(map(_position_set, masks)), len(best))


@lru_cache(maxsize=512)
def _position_set(mask: int) -> frozenset[int]:
    """The positions of mask's set bits. Memoized in a bounded cache: the
    witnesses of all 32,768 labeled n=6 graphs use 115 masks."""
    return frozenset(bits(mask))


def check_rs_bound(g: Graph, d: GreedyDecomposition) -> list[Violation]:
    """For each 2-clique {x, y} of the sequence where x or y has degree > 1,
    the other members touching x or y must number at most n - 2. The
    degree-1/degree-1 case is exempt. Returns counterexamples (expected
    empty)."""
    problems = validate_greedy(g, d)
    if problems:
        raise ValueError(f"invalid decomposition: {problems[0].to_json()}")
    # A valid sequence has no repeated clique and puts the edge {x, y} in
    # clique j alone, so the other cliques touching x or y are those through
    # x plus those through y, less clique j counted once at each.
    cliques_at = [len(ks) for ks in _incidence(g.n, d.sequence)]
    out: list[Violation] = []
    for j, cl in enumerate(d.sequence):
        if len(cl) != 2:
            continue
        x, y = cl
        if g.adj[x].bit_count() <= 1 and g.adj[y].bit_count() <= 1:
            continue
        touching = cliques_at[x] + cliques_at[y] - 2
        if touching > g.n - 2:
            out.append(Violation("rs_bound", position=j, pair=(x, y),
                                 observed=touching, expected=g.n - 2))
    return out


def _worker_count(chunks: int) -> int:
    """Processes a sweep of `chunks` minimum-size mask ranges may use:
    CLIQUEREP_THREADS, which must be a positive integer, else every CPU,
    clamped to min(cpu_count, chunks) and at least 1."""
    workers = cpus = os.cpu_count() or 1
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"{THREADS_ENV} must be a positive integer, got {env!r}")
    return max(1, min(workers, cpus, chunks))


def _sweep_range(
    n: int, lo: int, hi: int
) -> tuple[int, int, list[tuple[int, str, int]], list[BoundViolation]]:
    """Check masks lo..hi-1, whose neighbour rows _labeled_graphs walks.
    Returns the largest clique and element counts seen, the lexicographic
    greedy findings as (mask, check, observed) and the edge/triangle
    partition's violations, both in mask order. The constructions run on
    each mask's rows (_greedy_run, _erdos_cliques), without their records,
    and no Graph is built. One pass per construction (_duplicates_on_mask)
    looks each clique up in the order's table of vertex masks and pair
    bits, checks the pairs against the mask, and counts the repeated
    incidence sets and the widest clique; only one that pass does not
    accept goes through the partition checks, on the same rows. The non-trivial cliques of a greedy
    run are counted only when its length breaches the bound, as their
    count never exceeds it."""
    bound = quarter_square(n)
    max_cliques = 0
    max_elements = 0
    findings: list[tuple[int, str, int]] = []
    violations: list[BoundViolation] = []
    for mask, rows in enumerate(_labeled_graphs(n, lo, hi), lo):
        sequence = _greedy_run(rows)
        checked = _duplicates_on_mask(n, mask, sequence)
        if checked is None:
            # Only an invalid run fails the one-pass check: raise the
            # ValueError the transform would.
            _check_partition(rows, sequence)
        duplicates, _ = checked
        total = len(sequence)
        if total > max_cliques:
            max_cliques = total
        if total > bound:
            nontrivial = sum(len(cl) > 1 for cl in sequence)
            if nontrivial > bound:
                findings.append((mask, "greedy_cliques", nontrivial))
            findings.append((mask, "greedy_cliques_with_trivial", total))
        elements = total + duplicates
        if elements > max_elements:
            max_elements = elements
        if elements > bound:
            findings.append((mask, "augmented_elements", elements))
        cliques = _erdos_cliques(rows)
        count = len(cliques)
        if count > max_cliques:
            max_cliques = count
        if count > bound:
            violations.append(BoundViolation(mask, "erdos", "erdos_cliques", count, bound))
        checked = _duplicates_on_mask(n, mask, cliques)
        if checked is None:
            widest = max(map(len, cliques), default=0)
        else:
            duplicates, widest = checked
        if widest > 3:
            violations.append(BoundViolation(mask, "erdos", "erdos_clique_size", widest, 3))
        if checked is None:
            # The one-pass check rejects exactly what validate_partition
            # finds at fault, so there is at least one finding.
            faults = _partition_findings(rows, cliques)
            violations.append(BoundViolation(mask, "erdos", "erdos_invalid", len(faults), 0))
            # An invalid partition may list a member twice in a clique or
            # name a non-vertex: count over each clique's set of vertices.
            duplicates = n - len(set(map(tuple, _incidence(n, (
                {v for v in cl if type(v) is int and 0 <= v < n} for cl in cliques)))))
        if duplicates:
            violations.append(BoundViolation(mask, "erdos", "erdos_distinctness",
                                             duplicates, 0))
    return max_cliques, max_elements, findings, violations


def exhaustive_bound_check(n: int, seeds: Iterable[int | None]) -> BoundReport:
    """Sweep every labeled graph on n vertices.

    Per graph and greedy seed (at least one; None for lexicographic): run the
    greedy decomposition and compare both its non-trivial clique count and
    its full length (trivial cliques included) against floor(n^2/4), then
    compare the ground size of its augmented representation,
    augment_to_distinct(representation_from_partition(d)).ground_size,
    against the same bound. That size is counted without building either:
    the run's length gains one element per vertex whose set of clique
    positions an earlier vertex already has. Per graph: run the
    edge/triangle partition and check its size, its <= 3 clique widths, its
    validity, and the distinctness of its incidence sets. Both
    constructions run on the graph's neighbour masks and build no record.
    One pass over a construction's cliques reads each clique's vertex mask
    and pairs from a table per order, tests that the pairs are the graph's
    edge bitmask, each pair once, and that the cliques cover every vertex,
    and counts the repeated incidence sets, from the vertices that lie in
    one clique only, and the widest clique; a construction that pass does
    not accept goes through the partition checks on the same rows, and an
    invalid greedy run raises the ValueError the transform would. The
    non-trivial cliques are counted only for a run whose length breaches
    the bound. The walk yields each mask's neighbour rows, and the sweep
    builds no Graph from them. max_cliques_seen is the largest clique count
    seen across greedy runs and edge/triangle partitions. The report names
    each run "lex" or "random:<seed>".

    Only the lexicographic greedy is run, once per graph. A seeded run uses
    the same procedure under its vertex order, so its run on g is the
    lexicographic run on the relabeled graph that moves order[i] to i, and
    relabeling is a bijection on the labeled graphs the sweep visits. So
    every seed sees the same multiset of counts, and a seeded run breaches
    a bound on g exactly when the lexicographic run breaches it on that
    relabeled graph; those findings are mapped back to g and reported under
    the run's name, per graph in the order the seeds were given, followed by
    the edge/triangle partition's.

    Work is split over bitmask ranges across processes (capped by the
    CLIQUEREP_THREADS environment variable and by the CPU count), each
    walked by _labeled_graphs. Chunk results merge in bitmask order, so the
    report is identical regardless of worker count.
    """
    if type(n) is not int or not SWEEP_MIN_N <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"sweeps support {SWEEP_MIN_N} <= n <= {ENUMERATION_MAX_N}, got {n}")
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("a sweep needs at least one greedy seed (None for lexicographic)")
    labels = tuple("lex" if s is None else f"random:{s}" for s in seeds)
    orders = [_vertex_order(n, s) for s in seeds]
    total = 1 << (n * (n - 1) // 2)
    nworkers = _worker_count(total // _MIN_CHUNK_MASKS)
    if nworkers == 1:
        parts = [_sweep_range(n, 0, total)]
    else:
        chunks = nworkers * 4
        bounds = [total * i // chunks for i in range(chunks + 1)]
        jobs = [(n, bounds[i], bounds[i + 1]) for i in range(chunks)]
        # Imported here: at module level it is a quarter of the CLI's start-up.
        from multiprocessing import get_context

        with get_context().Pool(nworkers) as pool:
            parts = pool.starmap(_sweep_range, jobs)
    bound = quarter_square(n)
    keyed: list[tuple[tuple[int, int], BoundViolation]] = []
    for _, _, findings, erdos in parts:
        for mask, check, observed in findings:
            for i, order in enumerate(orders):
                m = _relabel_mask(n, mask, order)
                keyed.append(((m, i), BoundViolation(m, labels[i], check, observed, bound)))
        keyed.extend(((v.graph, len(seeds)), v) for v in erdos)
    keyed.sort(key=lambda kv: kv[0])
    return BoundReport(
        n=n,
        graphs_checked=total,
        strategies=labels,
        max_cliques_seen=max(p[0] for p in parts),
        max_elements_seen=max(p[1] for p in parts),
        violations=tuple(v for _, v in keyed),
    )
