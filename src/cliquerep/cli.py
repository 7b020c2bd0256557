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

from .decompose import (
    CliquePartition,
    GreedyDecomposition,
    _cliques_doc,
    _incidence,
    _repeated,
    erdos_partition,
    greedy_decomposition,
    validate_greedy,
    validate_partition,
)
from .graphs import Graph, _clip, bits, parse_edge_list, parse_graph6
from .oracle import (
    exhaustive_bound_check,
    min_clique_partition,
    min_distinct_representation,
)
from .represent import SetRepresentation, validate_representation

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


def _read_text(path: str, what: str) -> str:
    """The text of path, decoded as UTF-8 whatever the locale, or of
    standard input for "-", in its own encoding, less one leading
    byte-order mark. A decoding error names the input as what."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} is not {exc.encoding.upper()}: {exc}") from None
    return text.removeprefix("\ufeff")


def _load_graph(path: str, fmt: str | None) -> Graph:
    if path == "-" and fmt is None:
        raise ValueError("reading a graph from stdin needs --format")
    text = _read_text(path, "graph input")
    if fmt is None:
        fmt = _infer_format(path)
    return parse_graph6(text) if fmt == "graph6" else parse_edge_list(text)


def _load_json(path: str) -> dict:
    text = _read_text(path, "artifact")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("artifact JSON is nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"artifact is not valid JSON: {exc}") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise ValueError("artifact JSON holds an integer with too many digits") from None


def _construct(args: argparse.Namespace, g: Graph) -> GreedyDecomposition | CliquePartition:
    if args.method == "erdos":
        if args.strategy != "lex" or args.seed is not None:
            raise ValueError("--strategy/--seed apply to --method greedy only")
        return erdos_partition(g)
    if args.strategy == "lex" and args.seed is not None:
        raise ValueError("--seed requires --strategy random")
    if args.strategy == "random" and args.seed is None:
        raise ValueError("--strategy random requires --seed")
    return greedy_decomposition(g, args.seed)


def _print_rows(doc: dict, rows: str | None = None) -> None:
    """Print doc, a dict with string keys, as json.dumps(doc, indent=2,
    sort_keys=True) would: each value is dumped so and indented two spaces
    more, except doc[rows] when rows is given, a list or tuple of integer
    lists or tuples (cliques or sets), written as arrays. With indent set,
    json.dumps runs CPython's pure-Python encoder, several times slower on
    a document of megabytes than the C encoder, which writes the rows here
    once with the indented item separator; one replace then opens and
    closes the rows at their boundaries. A list of integer lists cannot
    contain itself, so the rows are encoded without the encoder's
    circular-reference markers (check_circular=False), one insert and one
    delete per row saved; the text is the same."""
    out = sys.stdout
    for k, key in enumerate(sorted(doc)):
        out.write(("{" if k == 0 else ",") + f"\n  {json.dumps(key)}: ")
        if key == rows and doc[key]:
            text = json.dumps(doc[key], check_circular=False, separators=(",\n      ", ":"))
            # An empty row is marked [E] until every row has brackets of its
            # own; E cannot occur in the text of a list of integer lists.
            empty = not all(doc[key])
            if empty:
                text = text.replace("[]", "[E]")
            text = text[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
            text = "[\n    [\n      " + text + "\n    ]\n  ]"
            out.write(text.replace("[\n      E\n    ]", "[]") if empty else text)
        else:
            out.write(json.dumps(doc[key], indent=2, sort_keys=True).replace("\n", "\n  "))
    out.write("\n}\n")


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
    # Edges ascending, read off the neighbour masks.
    for u, row in enumerate(g.adj):
        for v in bits(row >> u + 1 << u + 1):
            shared = sorted(rep.sets[u] & rep.sets[v])
            label = ",".join(f"e{e}" for e in shared)
            lines.append(f'  {u} -- {v} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def _cmd_partition(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    doc = _cliques_doc(_construct(args, g))
    if args.output == "dot":
        print(_partition_dot(g, doc["cliques"]))
    else:
        _print_rows(doc, "cliques")
    return 0


def _cmd_represent(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    # The construction's own cliques, unchecked: see README "CLI". Element k
    # is clique k, so each vertex's set is its ascending incidence row, and
    # augment_to_distinct's fresh ids, above every other, go on its end.
    cliques = _cliques_doc(_construct(args, g))["cliques"]
    rows, ground = _incidence(g.n, cliques), len(cliques)
    if args.augment:
        fresh = _repeated(map(tuple, rows))
        for k, v in enumerate(fresh, start=ground):
            rows[v].append(k)
        ground += len(fresh)
    if args.output == "dot":
        print(_representation_dot(g, SetRepresentation(g, tuple(map(frozenset, rows)), ground)))
    else:
        _print_rows({"n": g.n, "ground_size": ground, "sets": rows}, "sets")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.graph == args.artifact == "-":
        raise ValueError("the graph and the artifact cannot both be read from stdin")
    if args.require_distinct and args.kind != "representation":
        raise ValueError("--require-distinct applies to verify representation only")
    g = _load_graph(args.graph, args.format)
    doc = _load_json(args.artifact)
    if args.kind != "representation":
        # File order, members sorted, so positions index the artifact's cliques.
        d = GreedyDecomposition.from_json(doc, g)
        problems = (validate_greedy(g, d) if args.kind == "greedy"
                    else validate_partition(g, CliquePartition(g, d.sequence)))
    else:
        rep = SetRepresentation.from_json(doc, g)
        problems = validate_representation(g, rep, require_distinct=args.require_distinct)
    _print_rows({"valid": not problems, "violations": [v.to_json() for v in problems]})
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
        _print_rows({"value": value, "witness": witness_doc})
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else []
    except ValueError:
        raise ValueError(
            f"--seeds must be comma-separated integers, got {_clip(args.seeds)}") from None
    report = exhaustive_bound_check(args.n, [None, *seeds])
    _print_rows(report.to_json())
    return 1 if report.violations else 0


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit code.

    The cyclic garbage collector is paused for the command and re-enabled
    on every way out if it was on. The package's values hold no reference
    cycles (tuples of ints, int masks, records of those), so reference
    counting frees them, and collections, which allocations trigger, would
    only scan a large document's containers again and again."""
    import gc

    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own usage diagnostics
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except OverflowError:  # a vertex count beyond any list index, so beyond memory
        print("error: input too large for this machine", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
