"""What the eight value classes promise as values: equality within one class,
hashing, repr, immutability, and round trips through pickle and copy."""

import copy
import inspect
import pickle
import pydoc

import pytest

from cliquerep import (
    BoundReport,
    BoundViolation,
    CliquePartition,
    DistinctnessReport,
    GreedyDecomposition,
    SetRepresentation,
    Violation,
    graph,
)
from cliquerep.graphs import _Record


def _records():
    """Two independently built, equal instances of each class, by name."""
    def make():
        g = graph(3, [(0, 1)])
        bv = BoundViolation(5, "lex", "cliques", 4, 3)
        return {
            "Graph": g,
            "Violation": Violation("duplicate", position=1, pair=(0, 2)),
            "CliquePartition": CliquePartition(g, ((0, 1), (2,))),
            "GreedyDecomposition": GreedyDecomposition(g, ((0, 1), (2,))),
            "SetRepresentation": SetRepresentation(
                g, (frozenset({0}), frozenset({0}), frozenset({1})), 2),
            "DistinctnessReport": DistinctnessReport(((0, 1), (2,)), False),
            "BoundViolation": bv,
            "BoundReport": BoundReport(4, 64, ("lex",), 4, 4, (bv,)),
        }
    return make(), make()


RECORDS, TWINS = _records()
NAMES = sorted(RECORDS)


def test_all_eight_classes_are_covered():
    assert NAMES == sorted([
        "BoundReport", "BoundViolation", "CliquePartition", "DistinctnessReport",
        "Graph", "GreedyDecomposition", "SetRepresentation", "Violation"])


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_are_equal_with_equal_hashes(name):
    a, b = RECORDS[name], TWINS[name]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_other_types_are_never_equal(name):
    a = RECORDS[name]
    assert a != object()
    assert a != (a,)
    for other in NAMES:
        if other != name:
            assert a != RECORDS[other]


def test_same_fields_in_another_class_are_not_equal():
    g = graph(3, [(0, 1)])
    cliques = ((0, 1), (2,))
    assert CliquePartition(g, cliques) != GreedyDecomposition(g, cliques)
    assert GreedyDecomposition(g, cliques) != CliquePartition(g, cliques)


def test_different_values_are_not_equal():
    g = graph(3, [(0, 1)])
    assert CliquePartition(g, ((0, 1), (2,))) != CliquePartition(g, ((0, 1),))
    assert Violation("duplicate", position=1) != Violation("duplicate", position=2)
    assert graph(3, [(0, 1)]) != graph(4, [(0, 1)])


def test_reprs():
    assert repr(Violation("duplicate", position=1, pair=(0, 2))) == (
        "Violation(kind='duplicate', position=1, pair=(0, 2), vertex=None, "
        "vertices=None, element=None, observed=None, expected=None)")
    assert repr(CliquePartition(graph(3, [(1, 0)]), ((0, 1), (2,)))) == (
        "CliquePartition(host=Graph(n=3, edges=[(0, 1)]), cliques=((0, 1), (2,)))")


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    a = RECORDS[name]
    field = {"Graph": "n", "Violation": "kind", "CliquePartition": "cliques",
             "GreedyDecomposition": "sequence", "SetRepresentation": "sets",
             "DistinctnessReport": "is_family", "BoundViolation": "bound",
             "BoundReport": "n"}[name]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert getattr(a, field) == before
    assert a == TWINS[name]


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_round_trip(name):
    a = RECORDS[name]
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is type(a)
        assert b == a and hash(b) == hash(a)
        assert repr(b) == repr(a)


#: The defaults of each generated constructor, written beside the annotations.
DEFAULTS = {"Violation": dict.fromkeys(Violation._fields[1:])}


@pytest.mark.parametrize("name", NAMES)
def test_constructor_parameters_are_the_fields(name):
    cls = type(RECORDS[name])
    parameters = inspect.signature(cls).parameters
    assert tuple(parameters) == cls._fields
    if name != "Graph":
        assert cls.__init__.__code__.co_filename == "<string>"  # generated, not written
        defaults = {k: p.default for k, p in parameters.items() if p.default is not p.empty}
        assert defaults == DEFAULTS.get(name, {})
        assert all(vars(cls)[k] is v for k, v in defaults.items())


def test_every_record_class_is_covered():
    found = {c.__name__ for c in _Record.__subclasses__() if c.__module__.startswith("cliquerep.")}
    assert found == set(NAMES)


@pytest.mark.parametrize("first", ["signature", "call"])
def test_generated_constructor(first):
    # Compiled on first lookup, which may come from inspect or from a call.
    class Point(_Record):
        x: int
        y: int = 0

    if first == "call":
        assert repr(Point(1, y=2)) == "Point(x=1, y=2)"
    assert str(inspect.signature(Point)) == "(x, y=0)"
    assert Point(1) == Point(x=1, y=0) != Point(1, 2)
    assert inspect.isfunction(vars(Point)["__init__"])
    with pytest.raises(TypeError):
        Point()
    with pytest.raises(TypeError):
        Point(1, 2, 3)


def test_a_default_before_a_field_without_one_fails_at_class_creation():
    with pytest.raises(TypeError, match="^Bad: a field without a default follows a default$"):
        class Bad(_Record):
            x: int = 0
            y: int


def test_help_renders_every_record_and_the_base():
    # pydoc looks up __init__ on each class of the MRO, the base included.
    for cls in [_Record, *map(type, RECORDS.values())]:
        assert cls.__name__ in pydoc.render_doc(cls)
