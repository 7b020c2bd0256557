"""Seeded inputs and operation lists for the three benchmark workloads.

Every input is a pure function of (workload, seed), built here with the
standard library only, so the program under test sees nothing but the
generated files and arguments. Nothing in this module imports cliquerep.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

WORKLOADS = ("sweep-n6", "large-graphs", "exact-search")

#: Nominal wall time of one round at the commit that defined the benchmark
#: (2-core x86 machine, Python 3.11). A run performs
#: max(1, round(seconds / NOMINAL_ROUND_S)) rounds, so the amount of work,
#: and with it every sample count and percentile rank, is set by --seconds
#: and does not drift with the speed of the code under test.
NOMINAL_ROUND_S = {"sweep-n6": 27.0, "large-graphs": 14.0, "exact-search": 21.0}

SWEEP_N = 6
SWEEP_SEEDS_PER_RUN = 10

#: exact-search corpus: (p, count) classes of G(10, m) with m = round(45 p).
#: A fixed edge count per class removes the edge-count variance of G(n, p):
#: one G(10, p) graph at p = 0.8 costs from 0.1 s to 15 s, so a corpus of a
#: few dozen sampled ones swung by 2x between seeds. Even at a fixed m the
#: cost of one dense graph spreads over 20x, so which dense graphs a seed
#: drew moved the slowest calls, and with them op_tail_ms, by 20%. The
#: dense class is therefore a fixed panel of 16 graphs, drawn once; the seed
#: draws the many cheaper p = 0.5 and 0.6 graphs.
CP_N = 10
CP_SEEDED = ((0.5, 300), (0.6, 300))
CP_PANEL = (0.8, 16)
OMEGA_N = 6
K7 = 7


def rng_for(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def gnm_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    return sorted(rng.sample(list(combinations(range(n), 2)), m))


def bipartite_edges(a: int, b: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(a) for v in range(a, a + b)]


def edge_list_text(n: int, edges) -> str:
    return "".join([f"n={n}\n"] + [f"{u} {v}\n" for u, v in edges])


def graph6_text(n: int, edges) -> str:
    """Short-form graph6: header byte 63+n, then the upper triangle column by
    column, six bits per byte offset by 63, most significant bit first."""
    present = set(edges)
    bits = [1 if (row, col) in present else 0 for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + body + "\n"


# -- sweep-n6 ---------------------------------------------------------------

def sweep_seeds(seed: int) -> list[int]:
    """Seed 0 gives 1..10, the acceptance gate's own strategy seeds."""
    return [seed * SWEEP_SEEDS_PER_RUN + k for k in range(1, SWEEP_SEEDS_PER_RUN + 1)]


def sweep_ops(seed: int) -> list[dict]:
    seeds = ",".join(map(str, sweep_seeds(seed)))
    return [{
        "name": "sweep-n6",
        "argv": ["sweep", "--n", str(SWEEP_N), "--seeds", seeds],
        "expect_rc": 0,
        "check": "sweep",
        "graphs": 1 << (SWEEP_N * (SWEEP_N - 1) // 2),
        "strategies": ["lex"] + [f"random:{s}" for s in sweep_seeds(seed)],
    }]


# -- large-graphs -----------------------------------------------------------

def large_graphs(seed: int) -> dict[str, tuple[int, list[tuple[int, int]]]]:
    """name -> (n, edges). K_{250,250} keeps its canonical labeling: the
    greedy's linear scans of the vertex order are slow exactly there."""
    w = "large-graphs"
    return {
        "g500": (500, gnp_edges(rng_for(w, seed, "g500"), 500, 0.5)),
        "k250": (500, bipartite_edges(250, 250)),
        "g200": (200, gnp_edges(rng_for(w, seed, "g200"), 200, 0.5)),
        "g62": (62, gnp_edges(rng_for(w, seed, "g62"), 62, 0.5)),
        "g1200": (1200, gnp_edges(rng_for(w, seed, "g1200"), 1200, 4 / 1200)),
    }


def edge_incidence_sets(n: int, edges) -> list[list[int]]:
    """Valid distinct-set representation built without the program: element
    k is edge k. A vertex whose set is empty, or equal to an earlier
    vertex's set, gets one fresh element of its own."""
    sets: list[list[int]] = [[] for _ in range(n)]
    for k, (u, v) in enumerate(edges):
        sets[u].append(k)
        sets[v].append(k)
    seen: set[tuple[int, ...]] = set()
    nxt = len(edges)
    for s in sets:
        if not s or tuple(s) in seen:
            s.append(nxt)
            nxt += 1
        seen.add(tuple(s))
    return sets


def tamper(sets: list[list[int]], edges, rng: random.Random) -> list[list[int]]:
    """Move the element of one edge {u, v} from u's set to a third vertex's
    set, so u and v no longer intersect."""
    out = [list(s) for s in sets]
    k = rng.randrange(len(edges))
    u, v = edges[k]
    dst = rng.choice([w for w in range(len(out)) if w not in (u, v)])
    out[u].remove(k)
    out[dst] = sorted(out[dst] + [k])
    return out


def representation_doc(n: int, sets: list[list[int]]) -> dict:
    return {"n": n, "ground_size": 1 + max((e for s in sets for e in s), default=-1),
            "sets": [sorted(s) for s in sets]}


def write_large_inputs(seed: int, work: Path) -> dict[str, tuple[int, list]]:
    """Write every input file of one large-graphs round; return the graphs."""
    graphs = large_graphs(seed)
    for name, (n, edges) in graphs.items():
        if name == "g62":
            (work / "g62.g6").write_text(graph6_text(n, edges))
        else:
            (work / f"{name}.el").write_text(edge_list_text(n, edges))
    n, edges = graphs["g500"]
    sets = edge_incidence_sets(n, edges)
    (work / "rep_valid.json").write_text(json.dumps(representation_doc(n, sets)))
    bad = tamper(sets, edges, rng_for("large-graphs", seed, "tamper"))
    (work / "rep_tampered.json").write_text(json.dumps(representation_doc(n, bad)))
    return graphs


def large_ops(seed: int) -> list[dict]:
    """One round: each entry is one cliquerep process, run in the directory
    that write_large_inputs filled."""
    g500, k250, g200, g62, g1200 = "g500.el", "k250.el", "g200.el", "g62.g6", "g1200.el"
    strategy_seed = str(rng_for("large-graphs", seed, "strategy").randrange(1, 10**6))

    def op(name, argv, graph, check, expect_rc=0):
        return {"name": name, "argv": argv, "graph": graph, "check": check,
                "expect_rc": expect_rc, "graphs": 1}

    return [
        op("partition-greedy-g500", ["partition", g500, "--method", "greedy"], "g500", "partition"),
        op("partition-erdos-g500", ["partition", g500, "--method", "erdos"], "g500", "partition"),
        op("represent-greedy-g500", ["represent", g500, "--method", "greedy"], "g500", "represent"),
        op("represent-greedy-augment-g500",
           ["represent", g500, "--method", "greedy", "--augment"], "g500", "represent-distinct"),
        op("represent-erdos-g500", ["represent", g500, "--method", "erdos"], "g500", "represent"),
        op("represent-erdos-augment-g500",
           ["represent", g500, "--method", "erdos", "--augment"], "g500", "represent-distinct"),
        op("partition-greedy-k250", ["partition", k250, "--method", "greedy"], "k250", "partition"),
        op("partition-greedy-seeded-g200",
           ["partition", g200, "--method", "greedy", "--strategy", "random",
            "--seed", strategy_seed], "g200", "partition"),
        op("partition-greedy-g62", ["partition", g62, "--method", "greedy"], "g62", "partition"),
        op("partition-greedy-g1200", ["partition", g1200, "--method", "greedy"], "g1200", "partition"),
        op("partition-erdos-g1200", ["partition", g1200, "--method", "erdos"], "g1200", "partition"),
        op("verify-valid-g500",
           ["verify", "representation", g500, "rep_valid.json", "--require-distinct"],
           "g500", "verify-valid"),
        op("verify-tampered-g500",
           ["verify", "representation", g500, "rep_tampered.json", "--require-distinct"],
           "g500", "verify-invalid", expect_rc=1),
    ]


# -- exact-search -----------------------------------------------------------

def cp_corpus(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    total = CP_N * (CP_N - 1) // 2

    def draw(rng, p, count):
        return [(CP_N, gnm_edges(rng, CP_N, round(total * p))) for _ in range(count)]

    rng = rng_for("exact-search", seed, "cp")
    seeded = [g for p, count in CP_SEEDED for g in draw(rng, p, count)]
    return seeded + draw(random.Random("exact-search:panel"), *CP_PANEL)


OMEGA_PAIRS = list(combinations(range(OMEGA_N), 2))
#: Every labeled graph on OMEGA_N vertices, one per edge bitmask.
OMEGA_COUNT = 1 << len(OMEGA_PAIRS)


def omega_graph(mask: int) -> tuple[int, list[tuple[int, int]]]:
    """The labeled OMEGA_N-vertex graph of one edge bitmask. Built one at a
    time, not held as a corpus: 32768 stored edge lists make each full
    garbage collection inside the program 7x slower (18 ms instead of 2.6)."""
    return OMEGA_N, [pair for k, pair in enumerate(OMEGA_PAIRS) if mask >> k & 1]


def cli_ops(workload: str, seed: int) -> list[dict]:
    if workload == "sweep-n6":
        return sweep_ops(seed)
    if workload == "large-graphs":
        return large_ops(seed)
    raise ValueError(f"{workload} has no CLI operations")
