"""Tests of the benchmark itself: the independent checker, the generated
inputs and the tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402

# A triangle 0-1-2 with a pendant edge 2-3, a separate edge 4-5 and an
# isolated vertex 6.
N = 7
EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5)]


def test_checker_accepts_a_partition_and_rejects_tampered_ones():
    good = {"n": N, "ordered": False, "cliques": [[0, 1, 2], [2, 3], [4, 5], [6]]}
    assert check.check_partition(N, EDGES, good) == []
    tampered = [
        [[0, 1, 2], [2, 3], [4, 5]],                  # isolated vertex left out
        [[0, 1, 2], [2, 3], [4, 5], [6], [0, 1]],     # edge 0-1 covered twice
        [[0, 1, 2], [4, 5], [6], [3]],                # edge 2-3 not covered
        [[0, 1, 2, 3], [4, 5], [6]],                  # 0-3 is not an edge
        [[0, 1], [0, 2], [1, 2], [2, 3], [4, 5], [6, 6]],  # repeated vertex
    ]
    for cliques in tampered:
        assert check.check_partition(N, EDGES, dict(good, cliques=cliques)), cliques
    assert check.check_partition(N + 1, EDGES, good)


def test_checker_accepts_the_edge_incidence_representation():
    sets = W.edge_incidence_sets(N, EDGES)
    doc = W.representation_doc(N, sets)
    assert check.check_representation(N, EDGES, doc, distinct=True) == []
    # Vertices 4 and 5 share only edge 4-5, so one of them needs a fresh element.
    assert sets[4] != sets[5] and sets[6]


def test_checker_rejects_a_tampered_representation():
    sets = W.edge_incidence_sets(N, EDGES)
    for seed in range(20):
        bad = W.tamper(sets, EDGES, random.Random(seed))
        assert check.check_representation(N, EDGES, W.representation_doc(N, bad))
    duplicate = {"n": N, "ground_size": 6,
                 "sets": [[0, 1], [0, 2], [1, 2, 3], [3], [4], [4], [5]]}
    assert check.check_representation(N, EDGES, duplicate) == []
    assert check.check_representation(N, EDGES, duplicate, distinct=True)
    assert check.check_representation(N, EDGES, dict(duplicate, ground_size=7))


def test_checker_agrees_with_the_program_on_valid_outputs():
    import cliquerep

    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(2, 12)
        edges = W.gnp_edges(rng, n, rng.random())
        g = cliquerep.graph(n, edges)
        d = cliquerep.greedy_decomposition(g)
        assert check.check_partition(n, edges, d.to_json()) == []
        rep = cliquerep.augment_to_distinct(cliquerep.representation_from_partition(d))
        assert check.check_representation(n, edges, rep.to_json(), distinct=True) == []
        assert check.check_partition(n, edges, cliquerep.erdos_partition(g).to_json()) == []


def test_verdict_and_sweep_checks():
    assert check.check_verdict({"valid": True, "violations": []}, True) == []
    assert check.check_verdict({"valid": False, "violations": [{"kind": "x"}]}, False) == []
    assert check.check_verdict({"valid": True, "violations": []}, False)
    assert check.check_verdict({"valid": False, "violations": []}, False)
    golden = {"n": 6, "violations": []}
    assert check.check_sweep({"n": 6, "violations": [], "strategies": ["lex"]}, golden, ["lex"]) == []
    assert check.check_sweep({"n": 6, "violations": [], "strategies": ["lex"]}, golden, ["x"])


def test_graph6_writer_matches_the_parser():
    import cliquerep

    rng = random.Random(3)
    for n in (1, 2, 7, 62):
        edges = W.gnp_edges(rng, n, 0.5)
        assert cliquerep.parse_graph6(W.graph6_text(n, edges)) == cliquerep.graph(n, edges)


def test_inputs_depend_only_on_the_seed():
    assert W.large_graphs(5) == W.large_graphs(5)
    assert W.large_graphs(5)["g500"] != W.large_graphs(6)["g500"]
    assert W.cp_corpus(5) == W.cp_corpus(5) != W.cp_corpus(6)
    assert W.sweep_seeds(0) == list(range(1, 11))


def test_tail_has_ten_samples_beyond_it():
    samples = [float(k) for k in range(100)]
    pct, value = run.tail(samples)
    assert value == 89.0 and sum(1 for s in samples if s > value) == 10 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_speed_scales_wall_time_by_the_probes_around_it():
    ref = speed.REFERENCE_S
    probes = [(t * 0.05, ref) for t in range(40)] + [(2.0 + t * 0.05, 2 * ref) for t in range(40)]
    s = speed.Speed(probes)
    assert abs(s.seconds(0.5, 1.0) - 0.5) < 1e-9        # nominal speed
    assert abs(s.seconds(2.5, 3.0) - 0.25) < 1e-9       # half speed: half the work
    assert abs(s.seconds(0.5, 1.0, stalled=0.1) - 0.4) < 1e-9
    assert abs(s.seconds(10.0, 10.001) - 0.0005) < 1e-9  # nearest probe


def test_speedometer_probes_while_the_process_works():
    meter = speed.Speedometer(period=0.01).start()
    t0 = speed.perf_counter()
    while speed.perf_counter() - t0 < 0.2:
        speed.reference()
    meter.stop()
    assert len(meter.samples) >= 5
    assert meter.stalled == sum(d for _, d in meter.samples)


TRACE_CHILD = """
import contextlib, io, json, sys
from time import perf_counter
sys.path[:0] = [{bench!r}, {src!r}]
from cliquerep import cli
from spans import Tracer
argv = ["sweep", "--n", "4", "--seeds", "1,2"]
def timed():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = perf_counter()
        rc = cli.run(argv)
        return perf_counter() - t0, rc, out.getvalue()
plain = timed()
tracer = Tracer()
tracer.install()
traced = timed()
print(json.dumps({{"plain": plain, "traced": traced, "spans": tracer.export()}}))
"""


def test_traced_run_matches_untraced_and_self_times_add_up():
    code = TRACE_CHILD.format(bench=str(BENCH), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=run.child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    (plain_s, plain_rc, plain_out), (traced_s, traced_rc, traced_out) = doc["plain"], doc["traced"]
    assert (plain_rc, plain_out) == (traced_rc, traced_out)
    sp = doc["spans"]
    self_sum = sum(s["total_s"] - s["child_s"] for s in sp)
    overhead = max(traced_s - plain_s, 0.0)
    assert abs(traced_s - self_sum) <= overhead + 1e-3
    graphs = spans.totals(sp, "graphs.graph_from_bitmask", "oracle.exhaustive_bound_check")
    greedy = spans.totals(sp, "decompose.greedy_decomposition", "oracle.exhaustive_bound_check")
    assert graphs["calls"] == 64 and greedy["calls"] == 3 * 64
    transform = spans.totals(sp, "represent.representation_from_partition")
    inner = sum(spans.totals(sp, name, "represent.representation_from_partition")["calls"]
                for name in ("decompose.validate_partition", "represent.validate_representation"))
    assert inner == 2 * transform["calls"] > 0


def test_generator_spans_count_items():
    tracer = spans.Tracer()

    def gen(k):
        yield from range(k)

    assert list(tracer.wrap_generator(gen, "g")(4)) == [0, 1, 2, 3]
    total = spans.totals(tracer.export(), "g")
    assert total["work"] == 4 and total["calls"] == 5 and total["failed"] == 0


def test_exits_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-n6",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
