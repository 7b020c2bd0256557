"""Record golden outputs of the current checkout into bench/golden.json.

    python3 bench/record_golden.py --seeds 0-63 [--workload large-graphs ...]

Records, per seed, the sha256 of every large-graphs stdout and the
exact-search clique-partition numbers; once, the seed-independent values:
the n=6 sweep report (strategy labels excepted: a seeded strategy is the lex
run on a relabeled graph, and the sweep visits every labeled graph, so the
maxima do not depend on the seeds), the distinct-representation number of
every labeled 6-vertex graph and the number of clique partitions of K7.
Each output must pass check.py first. An operation that fails is recorded
as null, so only the checker judges it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import time
from pathlib import Path

import run
import workloads as W


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_cli(workload: str, seed: int, work: Path) -> dict:
    graphs = W.write_large_inputs(seed, work) if workload == "large-graphs" else {}
    record = run.inproc_round(workload, seed, work, f"{workload}-{seed}", False,
                            time.monotonic() + 3600)
    if record is None:
        raise SystemExit(f"{workload} seed {seed}: in-process round crashed")
    out = {}
    for op, result in zip(W.cli_ops(workload, seed), record["ops"]):
        stdout = (Path(record["out_dir"]) / f"{op['name']}.out").read_bytes()
        failure = run.evaluate_cli(op, result["rc"], stdout,
                                   "traceback" if result["error"] else None, graphs, {}, seed)
        if failure == "wrong":
            raise SystemExit(f"{workload} seed {seed}: {op['name']} fails the checker")
        out[op["name"]] = None if failure else result["sha256"]
        if workload == "sweep-n6":
            out[op["name"]] = json.loads(stdout)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-63")
    parser.add_argument("--workload", action="append", choices=W.WORKLOADS)
    args = parser.parse_args()
    path = run.BENCH / "golden.json"
    golden = run.load_golden()
    run.WORK.mkdir(parents=True, exist_ok=True)
    work = run.WORK / "record"
    for workload in args.workload or W.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            if workload == "sweep-n6":
                report = record_cli(workload, 0, work)["sweep-n6"]
                del report["strategies"]
                golden["sweep-n6"] = report
                break
            if workload == "large-graphs":
                golden.setdefault(workload, {})[str(seed)] = record_cli(workload, seed, work)
            else:
                record = run.exact_round(seed, work, "exact", {}, time.monotonic() + 3600)
                if any(op["failure"] for op in record["ops"]):
                    raise SystemExit(f"exact-search seed {seed}: a call failed or was wrong")
                values = record["exact"]["values"]
                entry = golden.setdefault(workload, {})
                entry.setdefault("cp", {})[str(seed)] = ",".join(map(str, values["cp"]))
                entry["omega"] = ",".join(map(str, values["omega"]))
                entry["k7"] = values["k7"][0]
            path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            print(f"recorded {workload} seed {seed}", flush=True)
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
