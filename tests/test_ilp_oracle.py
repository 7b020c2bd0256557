"""The library's exact cp and omega against an integer program (tests/oracles.py),
on every isomorphism class with n <= 6 and on complete bipartite graphs."""

from cliquerep import complete_bipartite
from oracles import ilp_cp, ilp_omega
from test_greedy_classes import CLASSES, EXACT, _graph


def test_the_program_agrees_with_the_searches_on_every_class():
    # Values only: each search's witness is validated elsewhere.
    for (n, _, rows, _), (cp, omega) in zip(CLASSES, EXACT):
        g = _graph(n, rows)
        assert (ilp_cp(g), ilp_omega(g)) == (cp, omega), rows


def test_omega_of_a_complete_bipartite_graph_is_its_edge_count():
    # Each edge is its own clique and the stars already tell the vertices
    # apart, except in K_{1,1}, whose two ends share the one edge.
    for a in range(1, 6):
        for b in range(a, 11 - a):
            assert ilp_omega(complete_bipartite(a, b)) == (2 if a == b == 1 else a * b), (a, b)
