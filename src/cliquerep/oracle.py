"""Brute-force ground truth at desk scale.

Exact clique-partition number and exact distinct-family intersection number
by branch and bound, exhaustive enumeration of all clique partitions of a
small graph, exhaustive bound sweeps over every labeled graph of a given
order, and the structural checks that duplicate-set pairs and 2-clique
neighborhoods are promised to satisfy.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .decompose import (
    Clique,
    CliquePartition,
    GreedyDecomposition,
    Violation,
    _checked_duplicates,
    _cliques_through_edge,
    _edge_partitions,
    _incidence,
    _int_cliques,
    _min_distinct,
    _partition_cliques,
    _vertex_order,
    erdos_partition,
    greedy_decomposition,
    quarter_square,
    validate_greedy,
    validate_partition,
)
from .graphs import ENUMERATION_MAX_N, Graph, _relabel_mask, degree, graph_from_bitmask
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


@dataclass(frozen=True)
class BoundViolation:
    """One bound breach found by a sweep: which graph (edge bitmask), which
    strategy ("erdos" for the edge/triangle partition), which check, and the
    observed value against its bound."""

    graph: int
    strategy: str
    check: str
    observed: int
    bound: int

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundReport:
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
        return {
            "n": self.n,
            "graphs_checked": self.graphs_checked,
            "bound": self.bound,
            "strategies": list(self.strategies),
            "max_cliques_seen": self.max_cliques_seen,
            "max_elements_seen": self.max_elements_seen,
            "violations": [v.to_json() for v in self.violations],
        }


def min_clique_partition(g: Graph) -> tuple[int, CliquePartition]:
    """Exact clique-partition number with a minimum witness.

    Branch and bound on the lexicographically smallest uncovered edge,
    trying every residual clique through it, largest first. A branch is cut
    once it cannot strictly beat the incumbent: once the cliques chosen so
    far plus an independent-set lower bound on the cliques the uncovered
    edges still need (see _cliques_needed) reach its size. Isolated vertices
    each contribute one trivial clique.
    """
    if g.n > CP_MAX_N:
        raise ValueError(f"n={g.n} exceeds the n<={CP_MAX_N} search budget")
    iso = [(v,) for v in range(g.n) if g.adj[v] == 0]
    # One clique per edge always completes, so the first partition found
    # beats this starting budget and it cuts nothing. Each partition found
    # is smaller than the last, and lowers the budget to its size.
    best: list[Clique] = []
    budget = [sum(map(int.bit_count, g.adj)) // 2 + 1]
    for chosen in _edge_partitions(g.adj, _cliques_through_edge, budget):
        budget[0], best = len(chosen), chosen.copy()
    # The kernel's cliques are sorted tuples, so sorting the list gives
    # from_cliques' normal form without re-sorting each clique.
    witness = CliquePartition(g, tuple(sorted(best + iso)))
    return len(witness.cliques), witness


def all_clique_partitions(g: Graph) -> Iterator[CliquePartition]:
    """Every clique partition of g, deterministically.

    Branches on the smallest uncovered edge over all residual cliques
    containing it, so each edge partition is produced exactly once; isolated
    vertices carry their forced trivial cliques, and no other vertex gets
    one. Exhaustive, so meant for small n only.
    """
    iso = [(v,) for v in range(g.n) if g.adj[v] == 0]
    for chosen in _edge_partitions(g.adj, _cliques_through_edge):
        # In normal form, as in min_clique_partition.
        yield CliquePartition(g, tuple(sorted(chosen + iso)))


def min_distinct_representation(g: Graph) -> tuple[int, SetRepresentation]:
    """Exact distinct-family intersection number with a minimum witness.

    Trivial cliques are the only way to enlarge a vertex's element set
    without touching any pairwise intersection, so the minimum is found by
    searching clique partitions and charging, per completed partition, one
    trivial clique for each isolated vertex plus one for each extra member
    of a group of vertices with identical incidence sets. The search starts
    from a budget that every partition beats, so it never assumes the
    floor(n^2/4) bound that the tests check it against.
    """
    if g.n > CP_MAX_N:
        raise ValueError(f"n={g.n} exceeds the n<={CP_MAX_N} search budget")
    best = _min_distinct(g.adj, _cliques_through_edge)
    # Element k is the k-th clique in sorted order. The search yields each
    # clique as a sorted tuple, so sorting the list is CliquePartition's order.
    best.sort()
    members: list[list[int]] = [[] for _ in range(g.n)]
    for k, cl in enumerate(best):
        for v in cl:
            members[v].append(k)
    sets = tuple(map(frozenset, members))
    if len(set(sets)) < g.n:
        raise RuntimeError("the minimum witness has duplicate sets")
    return len(best), SetRepresentation(g, sets, len(best))


def check_rs_bound(g: Graph, d: GreedyDecomposition) -> list[Violation]:
    """For each 2-clique {x, y} of the sequence where x or y has degree > 1,
    the other members touching x or y must number at most n - 2. The
    degree-1/degree-1 case is exempt. Returns counterexamples (expected
    empty)."""
    problems = validate_greedy(g, d)
    if problems:
        raise ValueError(f"invalid decomposition: {problems[0].to_json()}")
    # Valid, so each member equals its vertex: count it as that int.
    sequence = _int_cliques(d.sequence)
    # A valid sequence has no repeated clique and puts the edge {x, y} in
    # clique j alone, so the other cliques touching x or y are those through
    # x plus those through y, less clique j counted once at each.
    cliques_at = [len(ks) for ks in _incidence(g.n, sequence)]
    out: list[Violation] = []
    for j, cl in enumerate(sequence):
        if len(cl) != 2:
            continue
        x, y = cl
        if degree(g, x) <= 1 and degree(g, y) <= 1:
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
    """Check masks lo..hi-1. Returns the largest clique and element counts
    seen, the lexicographic greedy findings as (mask, check, observed) and
    erdos_partition's violations, both in mask order.

    Only the graph of lo is built from its mask. Each later graph steps
    the neighbour masks of the one before: going from mask - 1 to mask
    toggles the pairs whose bits are set in mask ^ (mask - 1). Each
    construction is checked and its distinct sets counted in one pass
    (_checked_duplicates); only one that pass does not accept goes through
    the validators."""
    bound = quarter_square(n)
    max_cliques = 0
    max_elements = 0
    findings: list[tuple[int, str, int]] = []
    violations: list[BoundViolation] = []
    pairs = list(combinations(range(n), 2))
    adj: list[int] = []
    for mask in range(lo, hi):
        if mask == lo:
            adj = list(graph_from_bitmask(n, lo).adj)
        else:
            for u, v in pairs[:(mask ^ (mask - 1)).bit_length()]:
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
        g = Graph._from_adj(n, tuple(adj))
        d = greedy_decomposition(g)
        total = len(d.sequence)
        nontrivial = sum(1 for c in d.sequence if len(c) >= 2)
        if total > max_cliques:
            max_cliques = total
        if nontrivial > bound:
            findings.append((mask, "greedy_cliques", nontrivial))
        if total > bound:
            findings.append((mask, "greedy_cliques_with_trivial", total))
        duplicates = _checked_duplicates(g, d.sequence)
        if duplicates is None:
            duplicates = n - len(set(_incidence(n, _partition_cliques(g, d.sequence))))
        elements = total + duplicates
        if elements > max_elements:
            max_elements = elements
        if elements > bound:
            findings.append((mask, "augmented_elements", elements))
        p = erdos_partition(g)
        count = len(p.cliques)
        if count > max_cliques:
            max_cliques = count
        if count > bound:
            violations.append(BoundViolation(mask, "erdos", "erdos_cliques", count, bound))
        oversize = max(map(len, p.cliques), default=0)
        if oversize > 3:
            violations.append(BoundViolation(mask, "erdos", "erdos_clique_size", oversize, 3))
        duplicates = _checked_duplicates(g, p.cliques)
        if duplicates is None:
            problems = validate_partition(g, p)
            if problems:
                violations.append(BoundViolation(mask, "erdos", "erdos_invalid",
                                                 len(problems), 0))
            # An invalid partition may list a member twice in a clique or
            # name a non-vertex: count over each clique's set of vertices,
            # a member that equals a vertex (0.0, True) as that vertex.
            duplicates = n - len(set(_incidence(n, (
                {int(v) for v in cl if v in range(n)} for cl in p.cliques))))
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
    validity, and the distinctness of its incidence sets. One pass over a
    construction's cliques tests that they partition g exactly and counts
    its distinct sets; a construction that pass does not accept goes
    through the validators, and an invalid greedy run raises the
    ValueError the transform would. max_cliques_seen is the largest clique
    count seen across greedy runs and edge/triangle partitions. The report
    names each run "lex" or "random:<seed>".

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
    CLIQUEREP_THREADS environment variable and by the CPU count); each
    range builds its first graph from the mask and reaches every later one
    by toggling the pairs whose bits change. Chunk results merge in bitmask
    order, so the report is identical regardless of worker count.
    """
    if not SWEEP_MIN_N <= n <= ENUMERATION_MAX_N:
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
