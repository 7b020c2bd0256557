"""cp and omega by integer programming, sharing no code with the library's
branch and bound.

There is one 0/1 variable x_C per clique C of at least two vertices, and
each edge lies in exactly one chosen clique; cp is the minimum of the sum
of x_C, plus one trivial clique per isolated vertex. omega adds a 0/1
variable t_v per vertex for the trivial clique {v}, fixed at 1 when v is
isolated, and one row per pair u < w: the cliques that hold exactly one of
u and w, plus t_u + t_w, sum to at least 1, so the two incidence sets
differ. omega is the minimum of the x_C and t_v together. The model never
charges one trivial clique per extra member of a group of equal incidence
sets, so it checks that reduction too. scipy.optimize.milp (HiGHS) solves
it; the library itself stays stdlib-only.
"""

from itertools import combinations

import pytest

np = pytest.importorskip("numpy")
pytest.importorskip("scipy")
from scipy.optimize import Bounds, LinearConstraint, milp


def _cliques(rows):
    """Masks of every clique of at least two vertices, each grown once from
    its lowest vertex by higher common neighbours."""
    found = []
    stack = [(1 << v, row >> v + 1 << v + 1) for v, row in enumerate(rows)]
    while stack:
        mask, cand = stack.pop()
        while cand:
            low = cand & -cand
            cand ^= low
            found.append(mask | low)
            stack.append((mask | low, cand & rows[low.bit_length() - 1]))
    return found


def _solve(rows, distinct):
    n = len(rows)
    cliques = _cliques(rows)
    isolated = [int(not row) for row in rows]
    # With no clique the model is empty, which milp rejects; every vertex
    # is then isolated and needs its own trivial clique.
    if not cliques:
        return sum(isolated)
    holds = np.array([[c >> v & 1 for c in cliques] for v in range(n)])
    edges = [(u, w) for u, w in combinations(range(n), 2) if rows[u] >> w & 1]
    cover = np.array([holds[u] & holds[w] for u, w in edges])
    if not distinct:
        res = milp(np.ones(len(cliques)), integrality=1, bounds=Bounds(0, 1),
                   constraints=LinearConstraint(cover, 1, 1))
        assert res.success, res.message
        return round(res.fun) + sum(isolated)
    trivial = np.eye(n, dtype=int)
    differ = np.array([np.concatenate([holds[u] ^ holds[w], trivial[u] + trivial[w]])
                       for u, w in combinations(range(n), 2)])
    cover = np.hstack([cover, np.zeros((len(edges), n), dtype=int)])
    res = milp(np.ones(len(cliques) + n), integrality=1,
               bounds=Bounds([0] * len(cliques) + isolated, 1),
               constraints=[LinearConstraint(cover, 1, 1), LinearConstraint(differ, 1, np.inf)])
    assert res.success, res.message
    return round(res.fun)


def ilp_cp(g):
    """The clique-partition number of g, trivial cliques of isolated
    vertices included."""
    return _solve(g.adj, distinct=False)


def ilp_omega(g):
    """The least number of cliques, trivial ones included, in a partition
    whose incidence sets are pairwise distinct."""
    return _solve(g.adj, distinct=True)
