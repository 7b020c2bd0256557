"""The public names and settable values of the API, pinned so that a new
name, parameter, field, option, method or property shows up as a diff of
this file."""

import ast
import inspect
import re
import shlex
from pathlib import Path

import cliquerep
from cliquerep import cli, graphs, oracle

NAMES = [
    "BoundReport", "BoundViolation", "Clique", "CliquePartition", "DistinctnessReport",
    "Edge", "Graph", "GraphParseError", "GreedyDecomposition", "SetRepresentation",
    "Violation", "all_clique_partitions", "augment_to_distinct", "canonical_form",
    "check_rs_bound", "complete_bipartite", "complete_graph",
    "cycle_graph", "degree", "distinctness", "edge_bitmask", "empty_graph",
    "enumerate_labeled_graphs", "erdos_partition", "exhaustive_bound_check", "graph",
    "graph_from_bitmask", "greedy_decomposition", "induced_subgraph",
    "min_clique_partition", "min_distinct_representation", "parse_edge_list",
    "parse_graph6", "partition_from_representation", "path_graph", "quarter_square",
    "representation_from_partition", "to_edge_list", "to_graph6", "validate_greedy",
    "validate_partition", "validate_representation",
]

PARAMETERS = {
    "BoundReport": ["n", "graphs_checked", "strategies", "max_cliques_seen",
                    "max_elements_seen", "violations"],
    "BoundViolation": ["graph", "strategy", "check", "observed", "bound"],
    "CliquePartition": ["host", "cliques"],
    "DistinctnessReport": ["classes", "is_family"],
    "Graph": ["n", "edges"],
    "GreedyDecomposition": ["host", "sequence"],
    "SetRepresentation": ["host", "sets", "ground_size"],
    "Violation": ["kind", "position", "pair", "vertex", "vertices", "element",
                  "observed", "expected"],
    "all_clique_partitions": ["g"],
    "augment_to_distinct": ["r"],
    "canonical_form": ["g"],
    "check_rs_bound": ["g", "d"],
    "complete_bipartite": ["a", "b"],
    "complete_graph": ["n"],
    "cycle_graph": ["n"],
    "degree": ["g", "v"],
    "distinctness": ["r"],
    "edge_bitmask": ["g"],
    "empty_graph": ["n"],
    "enumerate_labeled_graphs": ["n"],
    "erdos_partition": ["g"],
    "exhaustive_bound_check": ["n", "seeds"],
    "graph": ["n", "edges"],
    "graph_from_bitmask": ["n", "mask"],
    "greedy_decomposition": ["g", "seed"],
    "induced_subgraph": ["g", "vertices"],
    "min_clique_partition": ["g"],
    "min_distinct_representation": ["g"],
    "parse_edge_list": ["text"],
    "parse_graph6": ["text"],
    "partition_from_representation": ["r"],
    "path_graph": ["n"],
    "quarter_square": ["n"],
    "representation_from_partition": ["p"],
    "to_edge_list": ["g"],
    "to_graph6": ["g"],
    "validate_greedy": ["g", "d"],
    "validate_partition": ["g", "p"],
    "validate_representation": ["g", "r", "require_distinct"],
}

#: Public attributes each public class defines beyond its fields: methods,
#: class methods and properties.
METHODS = {
    "BoundReport": ["bound", "to_json"],
    "BoundViolation": ["to_json"],
    "CliquePartition": ["from_cliques", "from_json", "to_json"],
    "DistinctnessReport": [],
    "Graph": ["adj"],
    "GraphParseError": [],
    "GreedyDecomposition": ["from_json", "to_json"],
    "SetRepresentation": ["from_json", "to_json"],
    "Violation": ["to_json"],
}

#: Module-level size caps and floors of the exhaustive machinery, so a cap
#: change is a diff of this file.
BUDGETS = {"CP_MAX_N": 10, "SWEEP_MIN_N": 4, "ENUMERATION_MAX_N": 7,
           "CANONICAL_MAX_N": 8, "GRAPH6_MAX_N": 62}


def test_public_parameters_are_pinned():
    found = {}
    for name in cliquerep.__all__:
        obj = getattr(cliquerep, name)
        if inspect.isfunction(obj) or (isinstance(obj, type) and issubclass(obj, graphs._Record)):
            found[name] = list(inspect.signature(obj).parameters)
    assert found == PARAMETERS


def test_public_names_are_pinned():
    assert sorted(cliquerep.__all__) == NAMES


def test_public_methods_are_pinned():
    found = {}
    for name in cliquerep.__all__:
        cls = getattr(cliquerep, name)
        if isinstance(cls, type):
            fields = cls._fields if issubclass(cls, graphs._Record) else ()
            found[name] = sorted(k for k in vars(cls) if not k.startswith("_") and k not in fields)
    assert found == METHODS


def test_budgets_are_pinned_and_named_in_the_readme():
    found = {name: value for module in (graphs, oracle) for name, value in vars(module).items()
             if re.fullmatch(r"[A-Z0-9_]+_(MAX|MIN)_N", name) and type(value) is int}
    assert found == BUDGETS
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Search budgets\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"\b[A-Z0-9_]+_(?:MAX|MIN)_N\b", section)) == set(BUDGETS)


def test_every_cli_line_in_the_readme_parses():
    # A renamed flag or choice leaves a README example that no longer runs.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\w*\n(.*?)^```", readme, re.M | re.S)
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("cliquerep ")]
    assert len(commands) >= 10
    parser = cli._build_parser()
    refused = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            refused.append(argv)
    assert refused == []


def test_the_readme_gives_wall_times_only_for_its_search_budgets():
    # Timings go stale with each change that speeds the code up, and
    # CHANGES.md records them per change, so the README keeps only the cost
    # of a run at each cap.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    before, section = readme.split("\n## Search budgets\n", 1)
    after = section.split("\n## ", 1)[1]
    timed = [line for line in (before + "\n" + after).splitlines()
             if re.search(r"\d ?(ms|s)\b|fastest of|in process", line)]
    assert timed == []


def test_every_import_is_used():
    # A removal that leaves its imports behind shows up here.
    unused = []
    for path in sorted(Path(cliquerep.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_every_private_helper_is_used():
    # A refactor that orphans a private top-level function or class, with
    # no reference to it left in the package outside its own body, shows
    # up here.
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(cliquerep.__file__).parent.glob("*.py"))}
    refs = [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                own = set(ast.walk(node))
                if not any(name == node.name and ref not in own for name, ref in refs):
                    unused.append(f"{module}: {node.name}")
    assert unused == []


def test_only_graphs_builds_a_graph_from_rows():
    # Graph._from_adj skips the edge checks, so only the module that walks
    # and checks the rows it wraps may call it; every other module hands
    # rows or a checked Graph to the code it calls.
    callers = {path.name
               for path in Path(cliquerep.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "_from_adj"}
    assert callers == {"graphs.py"}



def _functions_naming(name: str) -> set[tuple[str, str]]:
    """(file, function) of each library function whose body names name."""
    return {(path.name, node.name)
            for path in Path(cliquerep.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(ref, ast.Name) and ref.id == name for ref in ast.walk(node))}


def test_only_erdos_cliques_calls_the_erdos_base():
    # _erdos_cliques alone decides, from the vertex count, whether the base
    # search goes through the bounded table; the deletion loops only delete
    # down to the base.
    assert _functions_naming("_erdos_base") == {("decompose.py", "_erdos_cliques")}


def test_only_the_sweeps_one_pass_check_reads_the_clique_table():
    # The table has 2^n - 1 entries, so it stays behind the sweep's order
    # cap: the one-pass check runs only on the sweep's graphs.
    assert _functions_naming("_clique_bits") == {("decompose.py", "_duplicates_on_mask")}


def test_one_pair_counter_serves_both_validators():
    # A clique partition and a set representation check the same pair
    # property, clique k being element k: both validators find their wrong
    # pairs through the one per-vertex test, and it alone counts pairs.
    assert _functions_naming("_miscounted_above") == {("decompose.py", "_wrong_pairs")}
    assert _functions_naming("_wrong_pairs") == {("decompose.py", "_partition_findings"),
                                                 ("represent.py", "validate_representation")}


def test_one_walk_decides_partition_validity():
    # A partition is valid exactly when _partition_findings finds nothing:
    # the transforms' check and the sweep's fallback call it, no other test
    # of the cover stands beside it, and the shape pass serves it and the
    # greedy replay alone.
    assert _functions_naming("_shaped") == {("decompose.py", "_partition_findings"),
                                            ("decompose.py", "validate_greedy")}
    assert _functions_naming("_partition_findings") == {
        ("decompose.py", "validate_partition"), ("decompose.py", "_check_partition"),
        ("oracle.py", "_sweep_range")}


def test_one_rule_picks_the_vertices_that_gain_fresh_elements():
    # augment_to_distinct, represent's incidence rows and omega's trivial
    # cliques augment the same vertices, by the one rule decompose defines,
    # and the CLI prints rows it built, not a representation's.
    assert _functions_naming("_repeated") == {("represent.py", "augment_to_distinct"),
                                              ("cli.py", "_cmd_represent"),
                                              ("decompose.py", "_min_distinct")}
    assert {path.name for path in Path(cliquerep.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == "_repeated"} == {
                "decompose.py"}
    tree = ast.parse((Path(cliquerep.__file__).parent / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "_repeated" in imported and "_representation" not in imported


def test_one_printer_writes_every_cli_document():
    # Every JSON document the CLI prints goes through the row printer, so
    # the bytes of a row document and of any other document cannot drift.
    tree = ast.parse((Path(cliquerep.__file__).parent / "cli.py").read_text())
    dumpers = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                       and call.func.attr == "dumps" for call in ast.walk(node))}
    assert dumpers == {"_print_rows"}


def test_no_source_line_is_longer_than_99_characters():
    long = [f"{path.name}:{number}"
            for path in sorted(Path(cliquerep.__file__).parent.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 99]
    assert long == []


def test_every_cache_is_bounded():
    # A memo table without a bound grows with every input a process sees,
    # so each lru_cache in the package is called with an int maxsize, and
    # functools.cache, which has none, is not used.
    cached, unbounded = set(), []
    for path in sorted(Path(cliquerep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                cached |= {(path.name, node.name) for d in node.decorator_list
                           if isinstance(d, ast.Call) and getattr(d.func, "id", None) == "lru_cache"}
            # A Name has an id and an Attribute an attr; no other node has either.
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name not in ("lru_cache", "cache"):
                continue
            call = calls.get(id(node))
            size = call and next((k.value for k in call.keywords if k.arg == "maxsize"),
                                 call.args[0] if call.args else None)
            if name == "cache" or not (isinstance(size, ast.Constant)
                                       and type(size.value) is int):
                unbounded.append(f"{path.name}:{node.lineno}")
    assert unbounded == []
    assert cached == {("graphs.py", "_clique_bits"), ("decompose.py", "_greedy_tail"),
                      ("decompose.py", "_erdos_base"), ("decompose.py", "_cliques_in"),
                      ("oracle.py", "_position_set")}


def test_every_private_name_the_docs_give_is_defined():
    # A docstring, comment or README line that names a removed helper
    # misleads its reader, so every _name there must be defined in the
    # package, as a function, a class or an assigned name.
    package = Path(cliquerep.__file__).parent
    defined: set[str] = set()
    texts = [(package.parents[1] / "README.md").read_text()]
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
                texts.append(ast.get_docstring(node) or "")
        # A comment is what follows a '#' on its line.
        texts.extend(line.split("#", 1)[1] for line in source.splitlines() if "#" in line)
    named = {m for text in texts for m in re.findall(r"(?<![\w.])_[A-Za-z]\w*", text)}
    assert named - defined == set()


def test_sources_parse_at_the_python_floor():
    # Parsed as the oldest Python that pyproject.toml admits, syntax newer
    # than it, such as except*, fails here. Library features, such as the
    # possessive regex quantifiers of 3.11, are not syntax and pass.
    root = Path(__file__).parents[1]
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$',
                      (root / "pyproject.toml").read_text(), re.M)
    assert floor is not None
    for path in sorted(Path(cliquerep.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), path.name, feature_version=(3, int(floor[1])))
