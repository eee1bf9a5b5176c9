"""scipy's HiGHS MILP as an oracle for exact values that brute force cannot
reach: beta, betaE, betaM and N2 of the order-27 and order-36 selected
graphs, whose optimality the solver proves with orbital branching.

The covering programs are rebuilt here from BFS distances
(tests/bruteforce.py), independently of mixdim's pair masks, and milp
solves them to optimality.  Only the programs HiGHS solves in about a
second and a half are here; betaE and betaM of rook(6) and GQ(2,4) take it
4 to 9 s each, and the golden rows and the published values pin those.
"""
import itertools
from functools import cache

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from mixdim.bounds import lb_n2
from mixdim.dims import exact_dimensions
from mixdim.families import generate_named

from bruteforce import bfs_distances, masks, side_sets

GRAPHS = {"rook(6)": ("rook", 6), "GQ(2,4)": ("gq24",), "johnson(9,2)": ("johnson", 9, 2)}

CASES = [
    ("rook(6)", "beta"),
    ("GQ(2,4)", "beta"),
    ("johnson(9,2)", "beta"),
    ("rook(6)", "n2"),
    ("GQ(2,4)", "n2"),
    ("johnson(9,2)", "n2"),
    ("johnson(9,2)", "beta_e"),
    ("johnson(9,2)", "beta_m"),
]


def distinguisher_rows(n, edges, universe):
    """For every pair of items (vertices, edges or both), the mask of the
    vertices at different distances from the two."""
    dist = bfs_distances(n, edges)
    columns = []
    if universe in ("beta", "beta_m"):
        columns += [[dist[w][v] for w in range(n)] for v in range(n)]
    if universe in ("beta_e", "beta_m"):
        columns += [[min(dist[w][u], dist[w][v]) for w in range(n)] for u, v in edges]
    return [
        sum(1 << w for w in range(n) if a[w] != b[w]) for a, b in itertools.combinations(columns, 2)
    ]


def minimal_rows(rows):
    """The distinct rows that contain no other row: a covering program
    with only these has the same solutions and is far smaller."""
    kept = []
    for row in sorted(set(rows), key=lambda r: (r.bit_count(), r)):
        if not any(k & row == k for k in kept):
            kept.append(row)
    return kept


def milp_min_cover(n, rows):
    rows = minimal_rows(rows)
    A = np.array([[r >> v & 1 for v in range(n)] for r in rows], dtype=float)
    res = milp(np.ones(n), constraints=LinearConstraint(A, lb=1.0), integrality=np.ones(n), bounds=Bounds(0, 1))
    assert res.status == 0, res.message
    return round(res.fun)


@cache
def mixdim_values(label):
    G = generate_named(*GRAPHS[label])
    beta, beta_e, beta_m, _witness = exact_dimensions(G)
    return {"beta": beta, "beta_e": beta_e, "beta_m": beta_m, "n2": lb_n2(G)[0]}


@pytest.mark.parametrize("label, value", CASES, ids=[f"{g}-{v}" for g, v in CASES])
def test_value_matches_milp(label, value):
    G = generate_named(*GRAPHS[label])
    edges = list(G.edges)
    if value == "n2":
        rows = masks(itertools.chain.from_iterable(side_sets(G.n, edges)))
    else:
        rows = distinguisher_rows(G.n, edges, value)
    assert mixdim_values(label)[value] == milp_min_cover(G.n, rows)
