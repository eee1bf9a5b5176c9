import itertools
import random

import numpy as np
import pytest
from scipy.optimize import linprog

from mixdim.cover import min_hitting_set
from mixdim.dims import pair_cover_instance
from mixdim.families import connected_graphs_of_order
from mixdim.graphs import build_graph, distances
from mixdim.lp import CoveringLP, LPError, ceil_with_tolerance, solve_covering_lp, solve_covering_lp_primal

from bruteforce import masks

FIG1_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]


def _scipy_optimum(num_vars, rows):
    A = np.zeros((len(rows), num_vars))
    for i, r in enumerate(rows):
        for v in r:
            A[i, v] = 1.0
    res = linprog(
        c=np.ones(num_vars),
        A_ub=-A,
        b_ub=-np.ones(len(rows)),
        bounds=[(0, 1)] * num_vars,
        method="highs",
    )
    assert res.success
    return res.fun


def test_k2_instance():
    assert solve_covering_lp(CoveringLP.build(2, masks([{0}, {1}, {0, 1}]))) == pytest.approx(2.0)


def test_symmetric_fractional_optimum():
    rows = list(itertools.combinations(range(3), 2))
    assert solve_covering_lp(CoveringLP.build(3, masks(rows))) == pytest.approx(1.5)


def test_fig1_mixed_lp_in_interval():
    inst = pair_cover_instance(distances(build_graph(5, FIG1_EDGES)))
    val = solve_covering_lp(CoveringLP.build(5, inst.masks))
    assert 4.0 < val <= 5.0 + 1e-9
    assert ceil_with_tolerance(val) == 5


def test_empty_row_rejected():
    with pytest.raises(LPError):
        CoveringLP.build(3, masks([{0}, set()]))


def test_row_outside_variable_range_rejected():
    with pytest.raises(LPError):
        CoveringLP.build(3, [0b1000])
    with pytest.raises(LPError):
        CoveringLP.build(3, [-1])


def test_ceil_with_tolerance():
    assert ceil_with_tolerance(3.0000001) == 3
    assert ceil_with_tolerance(2.5) == 3
    assert ceil_with_tolerance(0.0) == 0
    with pytest.raises(ValueError):
        ceil_with_tolerance(-0.5)


def test_primal_is_feasible_and_matches_value():
    rng = random.Random(321)
    for _ in range(50):
        u = rng.randint(2, 12)
        rows = [frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 25))]
        lp = CoveringLP.build(u, masks(rows))
        val, y = solve_covering_lp_primal(lp)
        assert abs(float(y.sum()) - val) < 1e-6
        for r in rows:
            assert sum(y[v] for v in r) >= 1 - 1e-7


def test_matches_reference_solver():
    rng = random.Random(808)
    for _ in range(120):
        u = rng.randint(2, 14)
        rows = [frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 30))]
        mine = solve_covering_lp(CoveringLP.build(u, masks(rows)))
        # reference solves the raw, unreduced rows: also checks that
        # dropping duplicates and dominated rows never moves the optimum
        assert mine == pytest.approx(_scipy_optimum(u, rows), abs=1e-7)


def test_lp_below_integer_cover_on_order5():
    for g in connected_graphs_of_order(5):
        inst = pair_cover_instance(distances(g))
        lp_val = solve_covering_lp(CoveringLP.build(5, inst.masks))
        cover = min_hitting_set(inst)
        assert lp_val <= cover.size + 1e-9
