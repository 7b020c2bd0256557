"""Brute-force ground truth at desk scale.

Exact clique-partition number and exact distinct-family intersection number
by branch and bound, exhaustive enumeration of all clique partitions of a
small graph, exhaustive bound sweeps over every labeled graph of a given
order, and the structural checks that duplicate-set pairs and 2-clique
neighborhoods are promised to satisfy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from multiprocessing import get_context
from typing import Iterable, Iterator

from .decompose import (
    Clique,
    CliquePartition,
    GreedyDecomposition,
    GreedyStrategy,
    Violation,
    _cliques_through_edge,
    _edge_partitions,
    _extension,
    _group_equal,
    _incidence,
    _min_distinct,
    erdos_partition,
    greedy_decomposition,
    quarter_square,
    validate_greedy,
    validate_partition,
)
from .graphs import Graph, _relabel_mask, degree, graph_from_bitmask
from .represent import (
    SetRepresentation,
    augment_to_distinct,
    representation_from_partition,
)

#: Search budgets, chosen so every verification run finishes in minutes on
#: one machine. Overridable per call at the caller's risk.
CP_MAX_N = 10
OMEGA_MAX_N = 6
SWEEP_MIN_N = 4
SWEEP_MAX_N = 7

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
        return {
            "graph": self.graph,
            "strategy": self.strategy,
            "check": self.check,
            "observed": self.observed,
            "bound": self.bound,
        }


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

    @classmethod
    def from_json(cls, doc: dict) -> "BoundReport":
        if not isinstance(doc, dict):
            raise ValueError("report must be a JSON object")
        for key in ("n", "graphs_checked", "bound", "strategies",
                    "max_cliques_seen", "max_elements_seen", "violations"):
            if key not in doc:
                raise ValueError(f"report is missing the {key!r} key")
        report = cls(
            n=doc["n"],
            graphs_checked=doc["graphs_checked"],
            strategies=tuple(doc["strategies"]),
            max_cliques_seen=doc["max_cliques_seen"],
            max_elements_seen=doc["max_elements_seen"],
            violations=tuple(
                BoundViolation(v["graph"], v["strategy"], v["check"],
                               v["observed"], v["bound"])
                for v in doc["violations"]
            ),
        )
        if doc["bound"] != report.bound:
            raise ValueError(f"report bound {doc['bound']} does not match n={report.n}")
        return report


def min_clique_partition(g: Graph, max_n: int = CP_MAX_N) -> tuple[int, CliquePartition]:
    """Exact clique-partition number with a minimum witness.

    Branch and bound on the lexicographically smallest uncovered edge,
    trying every residual clique through it, largest first; a branch is cut
    once it cannot strictly beat the incumbent. Isolated vertices each
    contribute one trivial clique.
    """
    if g.n > max_n:
        raise ValueError(f"n={g.n} exceeds the n<={max_n} search budget")
    iso = [(v,) for v in range(g.n) if g.adj[v] == 0]
    # One clique per edge always completes, so the first partition found
    # beats this starting bound and it prunes nothing.
    best: list[Clique] = []
    bound = len(g.edges) + 1
    for chosen in _edge_partitions(g.adj, _cliques_through_edge,
                                   lambda depth: depth + 1 >= bound):
        if len(chosen) < bound:
            bound, best = len(chosen), list(chosen)
    witness = CliquePartition.from_cliques(g, best + iso)
    return len(witness.cliques), witness


def all_clique_partitions(g: Graph, extra_trivial: bool = False) -> Iterator[CliquePartition]:
    """Every clique partition of g, deterministically.

    Branches on the smallest uncovered edge over all residual cliques
    containing it, so each edge partition is produced exactly once; isolated
    vertices carry their forced trivial cliques. With extra_trivial, every
    variant with additional trivial cliques on non-isolated vertices is
    produced as well. Exhaustive, so meant for small n only.
    """
    iso = [(v,) for v in range(g.n) if g.adj[v] == 0]
    non_iso = [v for v in range(g.n) if g.adj[v]]
    sizes = range(len(non_iso) + 1) if extra_trivial else (0,)
    for chosen in _edge_partitions(g.adj, _cliques_through_edge):
        for size in sizes:
            for extra in combinations(non_iso, size):
                yield CliquePartition.from_cliques(g, chosen + iso + [(v,) for v in extra])


def min_distinct_representation(g: Graph, max_n: int = OMEGA_MAX_N) -> tuple[int, SetRepresentation]:
    """Exact distinct-family intersection number with a minimum witness.

    Trivial cliques are the only way to enlarge a vertex's element set
    without touching any pairwise intersection, so the minimum is found by
    searching clique partitions and charging, per completed partition, one
    trivial clique for each isolated vertex plus one for each extra member
    of a group of vertices with identical incidence sets. For n >= 4 the
    search is pruned against the quarter-square budget, which the witness is
    known to meet.
    """
    if g.n > max_n:
        raise ValueError(f"n={g.n} exceeds the n<={max_n} search budget")
    budget = quarter_square(g.n) + 1 if g.n >= 4 else len(g.edges) + g.n + 1
    best = _min_distinct(g.adj, _cliques_through_edge, budget)
    if best is None:
        raise RuntimeError("search exhausted without meeting the quarter-square budget")
    witness = CliquePartition.from_cliques(g, best)
    sets = tuple(frozenset(ks) for ks in _incidence(g.n, witness.cliques))
    if len(set(sets)) < g.n:
        raise RuntimeError("the minimum witness has duplicate sets")
    return len(best), SetRepresentation(g, sets, len(best))


def check_lemma6(g: Graph, p: CliquePartition) -> list[Violation]:
    """For every pair of vertices with identical clique-incidence sets:
    their one shared clique must be maximal in g, and neither vertex may
    appear in any other clique. Returns counterexamples (expected empty)."""
    problems = validate_partition(g, p)
    if problems:
        raise ValueError(f"invalid partition: {problems[0].to_json()}")
    keys = _incidence(g.n, p.cliques)
    out: list[Violation] = []
    for members in sorted(_group_equal(keys), key=lambda m: keys[m[0]]):
        key = keys[members[0]]
        for u, v in combinations(members, 2):
            if len(key) != 1:
                out.append(Violation("multi_membership", pair=(u, v),
                                     observed=len(key), expected=1))
                continue
            shared = p.cliques[key[0]]
            witness = _extension(g.adj, shared)
            if witness is not None:
                out.append(Violation("not_maximal", pair=(u, v),
                                     vertices=shared, vertex=witness))
    return out


def check_rs_bound(g: Graph, d: GreedyDecomposition) -> list[Violation]:
    """For each 2-clique {x, y} of the sequence where x or y has degree > 1,
    the other members touching x or y must number at most n - 2. The
    degree-1/degree-1 case is exempt. Returns counterexamples (expected
    empty)."""
    problems = validate_greedy(g, d)
    if problems:
        raise ValueError(f"invalid decomposition: {problems[0].to_json()}")
    out: list[Violation] = []
    for j, cl in enumerate(d.sequence):
        if len(cl) != 2:
            continue
        x, y = cl
        if degree(g, x) <= 1 and degree(g, y) <= 1:
            continue
        touching = {c for i, c in enumerate(d.sequence)
                    if i != j and (x in c or y in c)}
        if len(touching) > g.n - 2:
            out.append(Violation("rs_bound", position=j, pair=(x, y),
                                 observed=len(touching), expected=g.n - 2))
    return out


def _worker_count(workers: int | None, chunks: int) -> int:
    """Processes a sweep of `chunks` minimum-size mask ranges may use: the
    workers argument, else CLIQUEREP_THREADS, else every CPU, clamped to
    min(cpu_count, chunks) and at least 1."""
    if workers is None:
        env = os.environ.get(THREADS_ENV)
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{THREADS_ENV} must be a positive integer, got {env!r}"
                ) from None
    cpus = os.cpu_count() or 1
    return max(1, min(cpus if workers is None else workers, cpus, chunks))


def _sweep_range(
    n: int, lo: int, hi: int, greedy: bool
) -> tuple[int, int, int, list[tuple[int, str, int]], list[BoundViolation]]:
    """Check masks lo..hi-1. Returns the graph count, the largest clique and
    element counts seen, the lexicographic greedy findings as (mask, check,
    observed) and erdos_partition's violations, both in mask order."""
    bound = quarter_square(n)
    max_cliques = 0
    max_elements = 0
    findings: list[tuple[int, str, int]] = []
    violations: list[BoundViolation] = []
    for mask in range(lo, hi):
        g = graph_from_bitmask(n, mask)
        if greedy:
            d = greedy_decomposition(g)
            total = len(d.sequence)
            nontrivial = sum(1 for c in d.sequence if len(c) >= 2)
            if total > max_cliques:
                max_cliques = total
            if nontrivial > bound:
                findings.append((mask, "greedy_cliques", nontrivial))
            if total > bound:
                findings.append((mask, "greedy_cliques_with_trivial", total))
            aug = augment_to_distinct(representation_from_partition(d))
            if aug.ground_size > max_elements:
                max_elements = aug.ground_size
            if aug.ground_size > bound:
                findings.append((mask, "augmented_elements", aug.ground_size))
        p = erdos_partition(g)
        count = len(p.cliques)
        if count > max_cliques:
            max_cliques = count
        if count > bound:
            violations.append(BoundViolation(mask, "erdos", "erdos_cliques", count, bound))
        oversize = max((len(c) for c in p.cliques), default=0)
        if oversize > 3:
            violations.append(BoundViolation(mask, "erdos", "erdos_clique_size", oversize, 3))
        problems = validate_partition(g, p)
        if problems:
            violations.append(BoundViolation(mask, "erdos", "erdos_invalid",
                                             len(problems), 0))
        duplicates = sum(len(group) - 1 for group in _group_equal(_incidence(n, p.cliques)))
        if duplicates:
            violations.append(BoundViolation(mask, "erdos", "erdos_distinctness",
                                             duplicates, 0))
    return hi - lo, max_cliques, max_elements, findings, violations


def exhaustive_bound_check(
    n: int,
    strategies: Iterable[GreedyStrategy] = (),
    workers: int | None = None,
) -> BoundReport:
    """Sweep every labeled graph on n vertices.

    Per graph and strategy: run the greedy decomposition and compare both
    its non-trivial clique count and its full length (trivial cliques
    included) against floor(n^2/4), then build the augmented representation
    and compare its ground size against the same bound. Per graph: run the
    edge/triangle partition and check its size, its <= 3 clique widths, its
    validity, and the distinctness of its incidence sets.
    max_cliques_seen is the largest clique count seen across greedy runs and
    edge/triangle partitions.

    Only the lexicographic greedy is run, once per graph. A seeded strategy
    runs the same procedure under its vertex order, so its run on g is the
    lexicographic run on the relabeled graph that moves order[i] to i, and
    relabeling is a bijection on the labeled graphs the sweep visits. So
    every strategy sees the same multiset of counts, and a strategy breaches
    a bound on g exactly when the lexicographic run breaches it on that
    relabeled graph; those findings are mapped back to g and reported under
    the strategy's name, per graph in the order the strategies were given,
    followed by the edge/triangle partition's.

    Work is split over bitmask ranges across processes (capped by the
    CLIQUEREP_THREADS environment variable or the workers argument, and by
    the CPU count); chunk results merge in bitmask order, so the report is
    identical regardless of worker count.
    """
    if not SWEEP_MIN_N <= n <= SWEEP_MAX_N:
        raise ValueError(f"sweeps support {SWEEP_MIN_N} <= n <= {SWEEP_MAX_N}, got {n}")
    strategies = tuple(strategies)
    greedy = bool(strategies)
    total = 1 << (n * (n - 1) // 2)
    nworkers = _worker_count(workers, total // _MIN_CHUNK_MASKS)
    if nworkers == 1:
        parts = [_sweep_range(n, 0, total, greedy)]
    else:
        chunks = nworkers * 4
        bounds = [total * i // chunks for i in range(chunks + 1)]
        jobs = [(n, bounds[i], bounds[i + 1], greedy) for i in range(chunks)]
        with get_context().Pool(nworkers) as pool:
            parts = pool.starmap(_sweep_range, jobs)
    bound = quarter_square(n)
    keyed: list[tuple[tuple[int, int], BoundViolation]] = []
    for _, _, _, findings, erdos in parts:
        for mask, check, observed in findings:
            for i, s in enumerate(strategies):
                m = _relabel_mask(n, mask, s.vertex_order(n))
                keyed.append(((m, i), BoundViolation(m, s.describe(), check,
                                                     observed, bound)))
        keyed.extend(((v.graph, len(strategies)), v) for v in erdos)
    keyed.sort(key=lambda kv: kv[0])
    return BoundReport(
        n=n,
        graphs_checked=sum(p[0] for p in parts),
        strategies=tuple(s.describe() for s in strategies),
        max_cliques_seen=max(p[1] for p in parts),
        max_elements_seen=max(p[2] for p in parts),
        violations=tuple(v for _, v in keyed),
    )
