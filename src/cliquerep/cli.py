"""Command-line front door.

Subcommands: partition, represent, verify, oracle, sweep. Graphs come in as
graph6 (.g6) or edge-list (.el) text, from a path or standard input ("-");
results go to standard output as JSON (or DOT for clique-shaped output).
Identical arguments produce byte-identical output.

Exit codes: 0 success or valid, 1 violation or bound breach found,
2 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations
from pathlib import Path

from .decompose import (
    LEXICOGRAPHIC,
    CliquePartition,
    GreedyDecomposition,
    erdos_partition,
    greedy_decomposition,
    seeded_strategy,
    validate_greedy,
    validate_partition,
)
from .graphs import Graph, GraphParseError, parse_edge_list, parse_graph6
from .oracle import (
    exhaustive_bound_check,
    min_clique_partition,
    min_distinct_representation,
)
from .represent import (
    SetRepresentation,
    augment_to_distinct,
    representation_from_partition,
    validate_representation,
)

_PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
    "#66a61e", "#e6ab02", "#a6761d", "#666666",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquerep",
        description="Clique partitions and set-family representations of simple graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("graph6", "edgelist"), default=None,
                       help="input format; inferred from .g6/.el when omitted")

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", choices=("json", "dot"), default="json")

    def add_strategy(p: argparse.ArgumentParser) -> None:
        p.add_argument("--strategy", choices=("lex", "random"), default="lex")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("partition", help="decompose a graph into cliques")
    p.add_argument("input")
    p.add_argument("--method", choices=("greedy", "erdos"), required=True)
    add_strategy(p)
    add_format(p)
    add_output(p)
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("represent", help="build a set-family representation")
    p.add_argument("input")
    p.add_argument("--method", choices=("greedy", "erdos"), required=True)
    p.add_argument("--augment", action="store_true",
                   help="attach fresh elements until all sets are distinct")
    add_strategy(p)
    add_format(p)
    add_output(p)
    p.set_defaults(handler=_cmd_represent)

    p = sub.add_parser("verify", help="validate a partition/representation artifact")
    p.add_argument("kind", choices=("partition", "representation", "greedy"))
    p.add_argument("graph")
    p.add_argument("artifact")
    p.add_argument("--require-distinct", action="store_true",
                   help="also reject duplicate sets (representation only)")
    add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("oracle", help="exact minimum search (desk-scale budgets)")
    p.add_argument("quantity", choices=("cp", "omega"))
    p.add_argument("input")
    add_format(p)
    add_output(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("sweep", help="exhaustive bound check over all graphs on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seeds", type=str, default=None,
                   help="comma-separated seeds; each adds a seeded-random strategy")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def _infer_format(path: str) -> str:
    if path.endswith(".g6"):
        return "graph6"
    if path.endswith(".el"):
        return "edgelist"
    raise ValueError(f"cannot infer format from {path!r}; pass --format")


def _load_graph(path: str, fmt: str | None) -> Graph:
    if path == "-":
        if fmt is None:
            raise ValueError("reading a graph from stdin needs --format")
        text = sys.stdin.read()
    else:
        text = Path(path).read_text()
        if fmt is None:
            fmt = _infer_format(path)
    return parse_graph6(text) if fmt == "graph6" else parse_edge_list(text)


def _load_json(path: str) -> dict:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("artifact JSON is nested too deeply") from None


def _strategy(args: argparse.Namespace):
    if args.strategy == "lex":
        if args.seed is not None:
            raise ValueError("--seed requires --strategy random")
        return LEXICOGRAPHIC
    if args.seed is None:
        raise ValueError("--strategy random requires --seed")
    return seeded_strategy(args.seed)


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _partition_dot(g: Graph, cliques) -> str:
    lines = ["graph cliques {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for k, cl in enumerate(cliques):
        color = _PALETTE[k % len(_PALETTE)]
        if len(cl) == 1:
            lines.append(f'  {cl[0]} [color="{color}", xlabel="c{k}"];')
        else:
            for u, v in combinations(cl, 2):
                lines.append(f'  {u} -- {v} [label="c{k}", color="{color}"];')
    lines.append("}")
    return "\n".join(lines)


def _representation_dot(g: Graph, rep: SetRepresentation) -> str:
    lines = ["graph sets {"]
    for v in range(g.n):
        body = ",".join(str(e) for e in sorted(rep.sets[v]))
        lines.append(f'  {v} [label="{v}: {{{body}}}"];')
    for u, v in sorted(g.edges):
        shared = sorted(rep.sets[u] & rep.sets[v])
        label = ",".join(f"e{e}" for e in shared)
        lines.append(f'  {u} -- {v} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def _reject_strategy_flags(args: argparse.Namespace) -> None:
    if args.strategy != "lex" or args.seed is not None:
        raise ValueError("--strategy/--seed apply to --method greedy only")


def _cmd_partition(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    if args.method == "greedy":
        d = greedy_decomposition(g, _strategy(args))
        doc, cliques = d.to_json(), d.sequence
    else:
        _reject_strategy_flags(args)
        p = erdos_partition(g)
        doc, cliques = p.to_json(), p.cliques
    if args.output == "dot":
        print(_partition_dot(g, cliques))
    else:
        _print_json(doc)
    return 0


def _cmd_represent(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    if args.method == "greedy":
        rep = representation_from_partition(greedy_decomposition(g, _strategy(args)))
    else:
        _reject_strategy_flags(args)
        rep = representation_from_partition(erdos_partition(g))
    if args.augment:
        rep = augment_to_distinct(rep)
    if args.output == "dot":
        print(_representation_dot(g, rep))
    else:
        _print_json(rep.to_json())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    doc = _load_json(args.artifact)
    if args.kind == "partition":
        problems = validate_partition(g, CliquePartition.from_json(doc, g))
    elif args.kind == "greedy":
        problems = validate_greedy(g, GreedyDecomposition.from_json(doc, g))
    else:
        rep = SetRepresentation.from_json(doc, g)
        problems = validate_representation(g, rep, require_distinct=args.require_distinct)
    _print_json({"valid": not problems, "violations": [v.to_json() for v in problems]})
    return 0 if not problems else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    if args.quantity == "cp":
        value, witness = min_clique_partition(g)
        witness_doc = witness.to_json()
        dot = lambda: _partition_dot(g, witness.cliques)  # noqa: E731
    else:
        value, rep = min_distinct_representation(g)
        witness_doc = rep.to_json()
        dot = lambda: _representation_dot(g, rep)  # noqa: E731
    if args.output == "dot":
        print(dot())
    else:
        _print_json({"value": value, "witness": witness_doc})
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    strategies = [LEXICOGRAPHIC]
    if args.seeds:
        for chunk in args.seeds.split(","):
            strategies.append(seeded_strategy(int(chunk.strip())))
    report = exhaustive_bound_check(args.n, strategies)
    _print_json(report.to_json())
    return 1 if report.violations else 0


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own usage diagnostics
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (GraphParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
