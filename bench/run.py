"""cliquerep benchmark: three closed-loop workloads driven from one client.

    python3 bench/run.py --workload sweep-n6|large-graphs|exact-search \
        --seed N --seconds S --trace 0|1

Run from a source checkout: the package is imported from ./src, byte-compiled
once, and every operation runs one at a time with CLIQUEREP_THREADS=1.

Workloads:
  sweep-n6      one `cliquerep sweep --n 6 --seeds ...` process, ten seeded
                strategies derived from --seed; ~360k construction,
                transform and validation calls on 6-vertex graphs.
  large-graphs  one cliquerep process per operation on edge-list and graph6
                files written from --seed: greedy and erdos partition and
                represent on G(500, 1/2), greedy on K_{250,250}, seeded
                greedy on G(200, 1/2), greedy on graph6 G(62, 1/2), greedy
                and erdos on sparse G(1200, 4/1200), and verify of an
                edge-incidence representation built here and of a tampered
                copy.
  exact-search  in-process oracle calls in a fresh process per round, kind
                by kind: min_clique_partition on G(10, m)
                graphs drawn from --seed plus a fixed dense panel,
                min_distinct_representation on every labeled 6-vertex
                graph, and all_clique_partitions(K7).

A run performs max(1, round(S / nominal round time)) rounds (see
workloads.NOMINAL_ROUND_S), so sample counts do not depend on the speed of
the code under test. Every output is checked by check.py, which calls no
cliquerep validator, and against golden.json where the seed has a record.
An operation fails on an unexpected exit code, a traceback, a timeout or a
wrong output.

Every time the benchmark reports is in seconds at the reference speed of
speed.py: each process that runs the package also runs a Speedometer, which
times a fixed loop every 20 ms on the same core, and a wall interval is
scaled by how much slower than nominal that loop ran around it. The
benchmark's cores are shared with other machines' work and slow down by up to
1.7x for seconds at a time, so raw wall times of identical runs spread by
25-30%; normalized ones by 1-5%. The raw wall time of each round goes to
the result file. CLI operations run through cli_child.py, which times from
the package import to the return of `cli.run`, so the interpreter's own
start-up (the same for every commit) is not counted. setup_s is the median
over SETUP_REPEATS fresh interpreters of the time `import cliquerep.cli`
takes, after the package is byte-compiled once.

--trace 0 prints the end-to-end metrics; --trace 1 re-runs one round in a
fresh process untraced and again traced (spans.py), checks that both give
identical outputs, and prints the per-layer metrics. The last line of
standard output is one JSON object; a fuller record with the machine, the
sample count of each metric and every failure goes to
bench/_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import check
import spans
import workloads as W
from speed import Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

#: Every operation of a run ends by this many seconds after the run starts,
#: so a hung program still yields a result inside the 180 s run limit.
RUN_DEADLINE_S = 165.0
SETUP_REPEATS = 15
TRACEBACK = b"Traceback (most recent call last)"


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["CLIQUEREP_THREADS"] = "1"
    return env


def run_child(cmd: list[str], cwd: Path, timeout: float, stdout_path: Path) -> dict:
    """Run one process to completion; wall time, exit code, peak RSS and
    stderr. It is killed once `timeout` passes, and always reaped."""
    killed = threading.Event()
    reaped = threading.Lock()
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill() -> None:
            with reaped:
                if proc.returncode is None:
                    os.kill(proc.pid, signal.SIGKILL)
                    killed.set()

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = perf_counter() - t0
            with reaped:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
    return {"rc": proc.returncode, "wall_s": wall, "timed_out": killed.is_set(),
            "maxrss_kb": usage.ru_maxrss,
            "stderr": stdout_path.with_suffix(".err").read_bytes()}


def timed_cli(argv: list[str], cwd: Path, timeout: float, stdout_path: Path) -> dict:
    """run_child on cli_child.py; adds `s`, the reference-speed seconds
    from the package import to the end of the command, or None when the
    child left no timing."""
    timing = stdout_path.with_suffix(".timing")
    timing.unlink(missing_ok=True)
    res = run_child([sys.executable, str(BENCH / "cli_child.py"), str(timing), *argv],
                    cwd, timeout, stdout_path)
    res["s"] = None
    if timing.is_file():
        doc = json.loads(timing.read_text())
        res["s"] = Speed(doc["samples"]).seconds(doc["start"], doc["end"], doc["stalled"])
    return res


def load_golden() -> dict:
    path = BENCH / "golden.json"
    return json.loads(path.read_text()) if path.exists() else {}


# -- set-up -----------------------------------------------------------------

def build_and_probe() -> list[float]:
    """Byte-compile the package once, then time SETUP_REPEATS fresh
    interpreters importing it: the set-up every CLI call pays."""
    if not (SRC / "cliquerep" / "__init__.py").is_file():
        raise SetupError(f"no cliquerep package under {SRC}")
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "cliquerep")],
                           capture_output=True, timeout=120)
    if build.returncode != 0:
        raise SetupError("byte-compiling src/cliquerep failed")
    times = []
    probe = WORK / "probe.out"
    for _ in range(SETUP_REPEATS):
        res = timed_cli([], WORK, 60, probe)
        if res["rc"] != 0 or res["s"] is None:
            raise SetupError("importing cliquerep failed: " + res["stderr"].decode()[-500:])
        times.append(res["s"])
    return times


# -- checking ---------------------------------------------------------------

def evaluate_cli(op: dict, rc: int, stdout: bytes, failure: str | None,
                 graphs: dict, golden: dict, seed: int) -> str | None:
    """Failure kind of one CLI operation, or None when it succeeded."""
    if failure:
        return failure
    if rc != op["expect_rc"]:
        return "exit"
    digest = golden.get("large-graphs", {}).get(str(seed), {}).get(op["name"])
    if digest and hashlib.sha256(stdout).hexdigest() != digest:
        return "wrong"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "wrong"
    kind = op["check"]
    if kind == "sweep":
        problems = check.check_sweep(doc, golden["sweep-n6"], op["strategies"]) \
            if "sweep-n6" in golden else []
    else:
        n, edges = graphs[op["graph"]]
        if kind == "partition":
            problems = check.check_partition(n, edges, doc)
        elif kind.startswith("represent"):
            problems = check.check_representation(n, edges, doc, kind == "represent-distinct")
        else:
            problems = check.check_verdict(doc, kind == "verify-valid")
    return "wrong" if problems else None


def evaluate_exact(record: dict, golden: dict, seed: int) -> list[str | None]:
    """Failure kind per oracle call of one exact-search round."""
    want = golden.get("exact-search", {})
    expected = {
        "cp": want.get("cp", {}).get(str(seed)),
        "omega": want.get("omega"),
        "k7": [want["k7"]] if "k7" in want else None,
    }
    expected = {k: [int(x) for x in v.split(",")] if isinstance(v, str) else v
                for k, v in expected.items()}
    values = record["exact"]["values"]
    out = []
    for op in record["ops"]:
        value, want_value = values[op["name"]][op["i"]], expected[op["name"]]
        if op["error"]:
            out.append("wrong" if op["error"].startswith("wrong") else "traceback")
        elif want_value is not None and want_value[op["i"]] != value:
            out.append("wrong")
        else:
            out.append(None)
    return out


# -- rounds -----------------------------------------------------------------

def cli_round(workload: str, seed: int, work: Path, graphs: dict, golden: dict,
              deadline: float) -> dict:
    """One round of CLI operations, each in its own process."""
    ops, outs = [], work / "out"
    outs.mkdir(exist_ok=True)
    for op in W.cli_ops(workload, seed):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            ops.append({"name": op["name"], "s": None, "raw_wall_s": None, "rc": None,
                        "failure": "timeout", "sha256": None, "maxrss_kb": 0})
            continue
        path = outs / f"{op['name']}.out"
        res = timed_cli(op["argv"], work, remaining, path)
        stdout = path.read_bytes()
        failure = "timeout" if res["timed_out"] else "crash" if res["s"] is None else (
            "traceback" if TRACEBACK in res["stderr"] else None)
        ops.append({
            "name": op["name"], "s": res["s"], "raw_wall_s": res["wall_s"], "rc": res["rc"],
            "failure": evaluate_cli(op, res["rc"], stdout, failure, graphs, golden, seed),
            "sha256": hashlib.sha256(stdout).hexdigest(), "maxrss_kb": res["maxrss_kb"],
            "graphs": op["graphs"]})
    return {"ops": ops, "wall_s": sum(o["s"] or 0.0 for o in ops),
            "raw_wall_s": sum(o["raw_wall_s"] or 0.0 for o in ops),
            "maxrss_kb": max(o["maxrss_kb"] for o in ops)}


def inproc_round(workload: str, seed: int, work: Path, label: str, traced: bool,
                 deadline: float) -> dict | None:
    """One round in a fresh process that runs the operations in-process."""
    out = work / label
    out.mkdir()
    cmd = [sys.executable, str(BENCH / "inproc.py"), workload, str(seed), str(out)]
    res = run_child(cmd + (["--trace"] if traced else []), work,
                    deadline - time.monotonic(), out / "child.out")
    if res["rc"] != 0 or not (out / "round.json").exists():
        sys.stderr.write(res["stderr"].decode(errors="replace")[-2000:])
        return None
    record = json.loads((out / "round.json").read_text())
    record["out_dir"] = str(out)
    return record


def exact_round(seed: int, work: Path, label: str, golden: dict, deadline: float) -> dict:
    record = inproc_round("exact-search", seed, work, label, False, deadline)
    if record is None:
        return {"ops": [{"name": "exact-search", "s": None, "failure": "traceback"}],
                "wall_s": None, "maxrss_kb": 0}
    for op, failure in zip(record["ops"], evaluate_exact(record, golden, seed)):
        op["failure"] = failure
        op["graphs"] = 1
    return record


# -- metrics ----------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; with ten or fewer samples, the maximum."""
    s = sorted(samples)
    if len(s) <= 10:
        return 100.0, s[-1]
    return 100.0 * (len(s) - 10) / len(s), s[len(s) - 11]


def end_to_end(rounds: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    ops = [op for r in rounds for op in r["ops"]]
    latencies = [op["s"] * 1000.0 for op in ops if op["s"] is not None]
    walls = [r["wall_s"] for r in rounds if r["wall_s"]]
    rates = [sum(op.get("graphs", 1) for op in r["ops"] if not op["failure"]) / r["wall_s"]
             for r in rounds if r["wall_s"]]
    failed = sum(1 for op in ops if op["failure"])
    pct, tail_ms = tail(latencies) if latencies else (100.0, 0.0)
    metrics = {
        "wall_s": (statistics.median(walls) if walls else 0.0, "s", len(walls)),
        "graphs_per_s": (statistics.median(rates) if rates else 0.0, "1/s", len(rates)),
        "op_p50_ms": (statistics.median(latencies) if latencies else 0.0, "ms", len(latencies)),
        "op_tail_ms": (tail_ms, "ms", len(latencies)),
        "ops_ok_ratio": ((len(ops) - failed) / len(ops), "ratio", len(ops)),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in rounds) / 1024.0, "MB", len(rounds)),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
    }
    by_name: dict[str, list[float]] = {}
    for op in ops:
        if op["s"] is not None:
            by_name.setdefault(op["name"], []).append(op["s"] * 1000.0)
    extra = {"op_tail_percentile": pct, "failed_ops": failed, "attempted_ops": len(ops),
             "raw_round_wall_s": [r.get("raw_wall_s") for r in rounds],
             "op_ms_by_name": {name: {"median": statistics.median(v), "max": max(v),
                                      "samples": len(v)} for name, v in by_name.items()},
             "ops_failed_ratio": failed / len(ops),
             "failures": sorted({f"{op['name']}: {op['failure']}" for op in ops if op["failure"]})}
    return metrics, extra


#: Layer boundaries reported as self time and call count.
COUNTED_SPANS = (
    "graphs.graph_from_bitmask", "decompose.greedy_decomposition",
    "decompose.erdos_partition", "decompose.validate_partition",
    "represent.validate_representation", "represent.representation_from_partition",
    "represent.augment_to_distinct", "oracle.min_clique_partition",
    "oracle.min_distinct_representation",
)


def per_layer(traced: dict, untraced: dict, subprocess_wall_s: float | None) -> dict:
    """Span times are scaled by the traced round's speed factor, so they are
    at the reference speed like every other time."""
    sp = traced["spans"]
    scale = traced["wall_s"] / traced["raw_wall_s"] if traced["raw_wall_s"] else 1.0

    def t(name, parent=...):
        out = spans.totals(sp, name, parent)
        out["self_s"] *= scale
        return out

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in COUNTED_SPANS:
        m[f"{name}.self_s"] = (t(name)["self_s"], "s")
        m[f"{name}.calls"] = (t(name)["calls"], "count")
    parse = [t(name) for name in spans.PARSERS]
    parse_self = sum(p["self_s"] for p in parse)
    m["graphs.parse.self_s"] = (parse_self, "s")
    m["graphs.parse.calls"] = (sum(p["calls"] for p in parse), "count")
    m["graphs.parse.mb_per_s"] = (ratio(sum(p["work"] for p in parse) / 1e6, parse_self), "MB/s")
    greedy = t("decompose.greedy_decomposition")
    m["decompose.greedy_decomposition.us_per_call"] = (
        ratio(greedy["self_s"] * 1e6, greedy["calls"]), "us")
    m["decompose.erdos_partition.failed"] = (t("decompose.erdos_partition")["failed"], "count")
    transform = "represent.representation_from_partition"
    inner = (t("decompose.validate_partition", transform)["calls"]
             + t("represent.validate_representation", transform)["calls"])
    m["represent.validations_per_transform"] = (ratio(inner, t(transform)["calls"]), "ratio")
    m["oracle.exhaustive_bound_check.self_s"] = (t("oracle.exhaustive_bound_check")["self_s"], "s")
    sweep = "oracle.exhaustive_bound_check"
    m["oracle.sweep.greedy_runs_per_graph"] = (ratio(
        t("decompose.greedy_decomposition", sweep)["calls"],
        t("graphs.graph_from_bitmask", sweep)["calls"]), "ratio")
    m["oracle.all_clique_partitions.self_s"] = (t("oracle.all_clique_partitions")["self_s"], "s")
    m["oracle.all_clique_partitions.yielded"] = (t("oracle.all_clique_partitions")["work"], "count")
    m["cli.run.self_s"] = (t("cli.run")["self_s"], "s")
    m["cli.stdout_mb"] = (sum(op.get("stdout_bytes", 0) for op in traced["ops"]) / 1e6, "MB")
    m["cli.startup_s"] = (subprocess_wall_s - untraced["wall_s"] if subprocess_wall_s else 0.0, "s")
    m["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    return {name: (value, unit, 1) for name, (value, unit) in m.items()}


# -- runs -------------------------------------------------------------------

def timed_run(args, work: Path, graphs: dict, golden: dict, deadline: float):
    rounds = []
    for r in range(max(1, round(args.seconds / W.NOMINAL_ROUND_S[args.workload]))):
        if args.workload == "exact-search":
            rounds.append(exact_round(args.seed, work, f"round{r}", golden, deadline))
        else:
            rounds.append(cli_round(args.workload, args.seed, work, graphs, golden, deadline))
    return rounds


def traced_run(args, work: Path, graphs: dict, golden: dict, deadline: float):
    """Untraced and traced in-process rounds (plus, for large-graphs, a
    subprocess round for start-up cost); outputs must agree."""
    w, seed = args.workload, args.seed
    reference = cli_round(w, seed, work, graphs, golden, deadline) \
        if w == "large-graphs" else None
    untraced = inproc_round(w, seed, work, "untraced", False, deadline)
    traced = inproc_round(w, seed, work, "traced", True, deadline)
    if untraced is None or traced is None:
        return None, {"failures": ["in-process round crashed"]}
    if w == "exact-search":
        failures = evaluate_exact(traced, golden, seed)
        same = traced["exact"] == untraced["exact"]
        failures = [f or (None if same else "wrong") for f in failures]
    else:
        failures = []
        for i, (op, a, b) in enumerate(zip(W.cli_ops(w, seed), untraced["ops"], traced["ops"])):
            stdout = (Path(traced["out_dir"]) / f"{op['name']}.out").read_bytes()
            failure = evaluate_cli(op, b["rc"], stdout, "traceback" if b["error"] else None,
                                   graphs, golden, seed)
            same = (a["rc"], a["sha256"]) == (b["rc"], b["sha256"])
            if reference is not None:
                ref = reference["ops"][i]
                same = same and (ref["rc"], ref["sha256"]) == (b["rc"], b["sha256"])
            failures.append(failure or (None if same else "wrong"))
    for op, failure in zip(traced["ops"], failures):
        op["failure"] = failure
    metrics = per_layer(traced, untraced, reference and reference["wall_s"])
    extra = {"attempted_ops": len(failures), "failed_ops": sum(1 for f in failures if f),
             "failures": sorted({f"{op['name']}: {op['failure']}"
                                 for op in traced["ops"] if op["failure"]}),
             "spans": traced["spans"], "untraced_wall_s": untraced["wall_s"],
             "traced_wall_s": traced["wall_s"]}
    return metrics, extra


# -- reporting ----------------------------------------------------------------

def machine_record(args, rounds: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    source = hashlib.sha256()
    for path in sorted((SRC / "cliquerep").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "commit": commit, "source_sha256": source.hexdigest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
            "threads": 1}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    WORK.mkdir(parents=True, exist_ok=True)
    work = WORK / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir()
    try:
        try:
            setup_times = build_and_probe()
        except (SetupError, OSError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        deadline = time.monotonic() + RUN_DEADLINE_S
        golden = load_golden()
        graphs = W.write_large_inputs(args.seed, work) if args.workload == "large-graphs" else {}
        if args.trace:
            metrics, extra = traced_run(args, work, graphs, golden, deadline)
            if metrics is None:
                print("error: " + "; ".join(extra["failures"]), file=sys.stderr)
                return 1
            rounds = 1
        else:
            done = timed_run(args, work, graphs, golden, deadline)
            metrics, extra = end_to_end(done, setup_times)
            rounds = len(done)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not any(f.endswith(": wrong") for f in extra["failures"])
    record = {"machine": machine_record(args, rounds), "correct": correct,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()},
              **extra}
    out_dir = WORK / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))

    for name, (value, unit, n) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit:6s} samples={n}")
    if "op_tail_percentile" in extra:
        print(f"op_tail_ms is p{extra['op_tail_percentile']:.3f} of "
              f"{metrics['op_tail_ms'][2]} operation latencies")
    for failure in extra["failures"]:
        print(f"failed: {failure}")
    print(json.dumps({"correct": correct, "attempted": extra["attempted_ops"],
                      "failed": extra["failed_ops"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, n) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
