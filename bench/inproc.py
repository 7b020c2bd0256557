"""Run one round of a workload inside this process, optionally traced.

    python3 bench/inproc.py WORKLOAD SEED OUT_DIR [--trace]

CLI workloads go through `cliquerep.cli.run(argv)` with stdout captured to
OUT_DIR/<op>.out; exact-search calls the oracles directly and checks each
result with the independent checker outside the timed span. The round's
record (per-operation latency, exit code and output digest, spans when
traced) goes to OUT_DIR/round.json. Operation times are put at the
reference speed of speed.py by a Speedometer running in this process; the
raw wall times are kept beside them. The package is imported from
PYTHONPATH; the caller runs this in a fresh process so that every memo
table the program builds is paid for inside the round.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

import check
import workloads as W
from spans import Tracer
from speed import Speed, Speedometer


def _cli_round(workload: str, seed: int, out_dir: Path, meter: Speedometer) -> list[dict]:
    from cliquerep import cli

    ops = []
    for op in W.cli_ops(workload, seed):
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0, stalled0 = perf_counter(), meter.stalled
            try:
                rc = cli.run(op["argv"])
            except Exception as exc:  # an uncaught error exits 1 from the real CLI
                rc, error = 1, f"{type(exc).__name__}: {exc}"
            t1, stalled1 = perf_counter(), meter.stalled
        data = out.getvalue().encode()
        (out_dir / f"{op['name']}.out").write_bytes(data)
        ops.append({"name": op["name"], "start": t0, "end": t1, "stalled": stalled1 - stalled0,
                    "rc": rc, "error": error,
                    "stdout_bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()})
    return ops


def exact_inputs(seed: int) -> dict[str, tuple[int, Callable]]:
    """kind -> (number of calls, index -> (n, edges or None for K_n))."""
    cp = W.cp_corpus(seed)
    return {"cp": (len(cp), cp.__getitem__), "omega": (W.OMEGA_COUNT, W.omega_graph),
            "k7": (1, lambda i: (W.K7, None))}


EXACT_FIELDS = ("name", "i", "start", "end", "stalled", "error")


def _exact_round(seed: int, tracer: Tracer | None,
                 meter: Speedometer) -> tuple[list[tuple], dict]:
    """Timed oracle calls, kind by kind in corpus order. Each graph is built
    just before its call and each result checked just after it, both outside
    the timed span; the round keeps one EXACT_FIELDS tuple per call and
    running digests, so the process holds one result at a time and its peak
    RSS is the program's."""
    import cliquerep

    make_graph, complete = cliquerep.graph, cliquerep.complete_graph  # never traced
    inputs = exact_inputs(seed)
    if tracer is not None:
        tracer.install()
    calls = {
        "cp": lambda g: cliquerep.min_clique_partition(g),
        "omega": lambda g: cliquerep.min_distinct_representation(g),
        "k7": lambda g: list(cliquerep.all_clique_partitions(g)),
    }
    values = {kind: [None] * count for kind, (count, _) in inputs.items()}
    digests = {kind: hashlib.sha256() for kind in inputs}
    timings = []
    for kind, (count, item) in inputs.items():
        for i in range(count):
            n, edges = item(i)
            g = complete(n) if edges is None else make_graph(n, edges)
            error = None
            t0, stalled0 = perf_counter(), meter.stalled
            try:
                result = calls[kind](g)
            except Exception as exc:
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1, stalled1 = perf_counter(), meter.stalled
            digest = ""
            if result is not None:
                values[kind][i], digest, problems = _check_exact(kind, n, edges, result)
                if problems:
                    error = "wrong: " + problems[0]
            digests[kind].update(digest.encode())
            timings.append((kind, i, t0, t1, stalled1 - stalled0, error))
    return timings, {"values": values,
                 "sha256": {kind: d.hexdigest() for kind, d in digests.items()}}


def _check_exact(kind: str, n: int, edges, result) -> tuple[int, str, list[str]]:
    """Value, digest of value and witness, and the checker's findings. The
    K7 partitions are checked one at a time, so that checking them does not
    raise the process's peak RSS above what the program's result takes."""
    if kind == "k7":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        problems, seen, digest = [], set(), hashlib.sha256()
        for partition in result:
            doc = partition.to_json()
            problems += check.check_partition(n, edges, doc)
            key = json.dumps(doc["cliques"])
            if key in seen:
                problems.append("a partition is listed twice")
            seen.add(key)
            digest.update(json.dumps(doc, sort_keys=True).encode())
        return len(result), digest.hexdigest(), problems
    value, obj = result
    witness = obj.to_json()
    if kind == "cp":
        problems = check.check_partition(n, edges, witness)
        size = len(witness["cliques"])
    else:
        problems = check.check_representation(n, edges, witness, distinct=True)
        size = witness["ground_size"]
    if size != value:
        problems.append(f"witness has {size} elements, value is {value}")
    digest = hashlib.sha256(json.dumps([value, witness], sort_keys=True).encode()).hexdigest()
    return value, digest, problems


def main(argv: list[str]) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    tracer = Tracer() if "--trace" in argv[3:] else None
    meter = Speedometer().start()
    record: dict = {"workload": workload, "seed": seed, "traced": tracer is not None}
    if workload == "exact-search":
        timings, record["exact"] = _exact_round(seed, tracer, meter)
    else:
        import cliquerep.cli  # noqa: F401  (imported before tracing, as a CLI process would)

        if tracer is not None:
            tracer.install()
        record["ops"] = _cli_round(workload, seed, out_dir, meter)
    meter.stop()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "exact-search":
        record["ops"] = [dict(zip(EXACT_FIELDS, t)) for t in timings]
    speed = Speed(meter.samples)
    for op in record["ops"]:
        op["raw_s"] = op["end"] - op["start"] - op["stalled"]
        op["s"] = speed.seconds(op.pop("start"), op.pop("end"), op.pop("stalled"))
    record["wall_s"] = sum(op["s"] for op in record["ops"])
    record["raw_wall_s"] = sum(op["raw_s"] for op in record["ops"])
    record["spans"] = tracer.export() if tracer is not None else []
    (out_dir / "round.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
