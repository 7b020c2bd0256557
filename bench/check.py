"""Independent output checker.

Works on the JSON documents the program prints and on the benchmark's own
edge lists. It imports nothing from cliquerep, so a bug in the program's
validators cannot hide a wrong output. Each function returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

from itertools import combinations


def _int_lists(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(s, list) and all(type(e) is int for e in s) for s in value)


def check_partition(n: int, edges, doc) -> list[str]:
    """Cliques cover every edge exactly once and every vertex at least once."""
    if not isinstance(doc, dict) or doc.get("n") != n or not _int_lists(doc.get("cliques")):
        return ["not a partition document for this graph"]
    edge_set = set(edges)
    covered: set[tuple[int, int]] = set()
    seen_vertices: set[int] = set()
    problems: list[str] = []
    for k, clique in enumerate(doc["cliques"]):
        if not clique or len(set(clique)) != len(clique) or not all(0 <= v < n for v in clique):
            problems.append(f"clique {k} is empty, repeats a vertex or leaves 0..{n - 1}")
            continue
        seen_vertices.update(clique)
        for pair in combinations(sorted(clique), 2):
            if pair not in edge_set:
                problems.append(f"clique {k} contains the non-edge {pair}")
            elif pair in covered:
                problems.append(f"edge {pair} covered twice")
            covered.add(pair)
    missing = len(edge_set - covered)
    if missing:
        problems.append(f"{missing} edges not covered")
    if len(seen_vertices) != n:
        problems.append(f"{n - len(seen_vertices)} vertices in no clique")
    return problems


def check_representation(n: int, edges, doc, distinct: bool = False) -> list[str]:
    """Two sets share exactly one element when their vertices are adjacent
    and none otherwise; with distinct, no two sets are equal."""
    if (not isinstance(doc, dict) or doc.get("n") != n or type(doc.get("ground_size")) is not int
            or not _int_lists(doc.get("sets")) or len(doc["sets"]) != n):
        return ["not a representation document for this graph"]
    ground = doc["ground_size"]
    members: dict[int, list[int]] = {}
    problems: list[str] = []
    for v, s in enumerate(doc["sets"]):
        if not s:
            problems.append(f"vertex {v} has an empty set")
        for e in s:
            if not 0 <= e < ground:
                problems.append(f"element {e} outside 0..{ground - 1}")
            members.setdefault(e, []).append(v)
    if len(members) != ground:
        problems.append(f"{ground - len(members)} elements unused")
    shared: dict[tuple[int, int], int] = {}
    for vs in members.values():
        for pair in combinations(sorted(set(vs)), 2):
            shared[pair] = shared.get(pair, 0) + 1
    edge_set = set(edges)
    bad = [p for p, c in shared.items() if c != 1 or p not in edge_set]
    if bad:
        problems.append(f"{len(bad)} pairs share the wrong number of elements, e.g. {min(bad)}")
    unshared = len(edge_set - shared.keys())
    if unshared:
        problems.append(f"{unshared} adjacent pairs share no element")
    if distinct and len({tuple(sorted(s)) for s in doc["sets"]}) != n:
        problems.append("two vertices have equal sets")
    return problems


def check_verdict(doc, valid: bool) -> list[str]:
    """A verify report that says `valid`, with violations exactly when not."""
    if not isinstance(doc, dict) or doc.get("valid") is not valid:
        return [f"verify did not report valid={valid}"]
    if not isinstance(doc.get("violations"), list) or bool(doc["violations"]) == valid:
        return ["violations list disagrees with the verdict"]
    return []


def check_sweep(doc, golden: dict, strategies: list[str]) -> list[str]:
    """The report equals the recorded one, with this run's strategy labels."""
    want = dict(golden, strategies=strategies)
    if doc != want:
        return ["sweep report differs from the recorded report"]
    return []
