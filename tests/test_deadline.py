"""A timeout is one deadline for the whole public call.

A fake monotonic clock makes every hitting-set size solve take STEP seconds,
so each solve fits the budget alone while the call's solves together do not.
The clock runs ahead of the real one, so no deadline expires early.
"""
import time

import pytest

import mixdim.bounds as bounds
import mixdim.cover as cover
import mixdim.dims as dims
import mixdim.lp as lp
from mixdim.bounds import bounds_report
from mixdim.cli import EXIT_INVALID, main
from mixdim.cover import SolveTimeout
from mixdim.dims import GraphAnalysis, mixed_metric_dimension
from mixdim.families import generate_named
from mixdim.torus import torus_theorem_check

STEP = 10.0
BUDGET = 25.0  # two solves fit, three do not


@pytest.fixture
def solves(monkeypatch):
    """Each solve of a node that is not split (cover._leaf): every orbital
    branch of a size proof and every witness-pass trial, advances the
    clock by STEP; returns the list of their arguments (universe, masks,
    forced, cutoff, lower_bound, deadline)."""
    calls = []
    offset = [0.0]
    real = time.monotonic
    monkeypatch.setattr(time, "monotonic", lambda: real() + offset[0])
    leaf = cover._leaf

    def slow(*args):
        offset[0] += STEP
        calls.append(args)
        return leaf(*args)

    monkeypatch.setattr(cover, "_leaf", slow)
    return calls


def petersen():
    return generate_named("gen_petersen", 5, 2)


def test_each_solve_fits_alone(solves):
    # deepening from 3 to 6: four levels
    assert mixed_metric_dimension(petersen(), timeout=10 * BUDGET)[0] == 6
    assert len(solves) >= 3


def test_mixed_levels_share_one_deadline(solves):
    with pytest.raises(SolveTimeout):
        mixed_metric_dimension(petersen(), timeout=BUDGET)
    assert len(solves) <= 3  # stops at the first solve past the deadline


def test_bounds_report_solves_share_one_deadline(solves):
    with pytest.raises(SolveTimeout):
        bounds_report(petersen(), compute_exact=True, timeout=BUDGET)
    # stops at the first solve past the deadline; every solve carries it
    assert len([args for args in solves if args[5] is not None]) <= 3


def test_cli_dims_deadline_covers_beta_and_beta_e(solves, capsys):
    # betaM of path:5 takes one solve (level 2; L3 needs none), which fits
    # the budget alone; after beta and betaE the level runs past it
    assert main(["dims", "--family", "path:5", "--timeout", str(BUDGET)]) == EXIT_INVALID
    assert "past its deadline" in capsys.readouterr().err
    assert len(solves) == 3


def test_bounds_only_report_checks_its_deadline_after_l4(monkeypatch):
    # a bounds-only report whose L4 runs past the budget raises instead of
    # returning late
    offset = [0.0]
    real = time.monotonic
    monkeypatch.setattr(time, "monotonic", lambda: real() + offset[0])
    lp_bound = bounds._lp_bound

    def slow_lp_bound(*args):
        offset[0] += 2 * BUDGET
        return lp_bound(*args)

    monkeypatch.setattr(bounds, "_lp_bound", slow_lp_bound)
    assert bounds_report(petersen(), timeout=10 * BUDGET).l4 == 4
    with pytest.raises(SolveTimeout):
        bounds_report(petersen(), timeout=BUDGET)


def test_l4_simplex_checks_the_report_deadline(monkeypatch):
    # the covering LP checks the report's deadline once per batch of
    # pivots: a report whose simplex runs past the budget raises from
    # inside it, before the simplex returns, instead of after L4
    offset = [0.0]
    real = time.monotonic
    monkeypatch.setattr(time, "monotonic", lambda: real() + offset[0])
    simplex = lp._packing_dual_simplex
    finished = []

    def slow_simplex(*args):
        offset[0] += 2 * BUDGET
        finished.append(simplex(*args))
        return finished[-1]

    monkeypatch.setattr(lp, "_packing_dual_simplex", slow_simplex)
    assert bounds_report(petersen(), timeout=10 * BUDGET).l4 == 4
    assert len(finished) == 1  # Petersen's L4 runs the simplex
    with pytest.raises(SolveTimeout):
        bounds_report(petersen(), timeout=BUDGET)
    assert len(finished) == 1


def test_simplex_checks_between_batches_of_pivots():
    # Petersen's plain covering program takes more than one batch of
    # pivots (lp._CHECK_PIVOTS): a check that raises at its second call
    # stops the solve in its second batch
    calls = []

    def check():
        calls.append(None)
        if len(calls) == 2:
            raise SolveTimeout("exact solve ran past its deadline")

    program = lp.CoveringLP(10, GraphAnalysis(petersen()).mixed.masks)
    with pytest.raises(SolveTimeout):
        lp.solve_covering_lp(program, None, check)
    assert len(calls) == 2


def test_torus_check_deadline_covers_its_distances(monkeypatch):
    # the torus's all-pairs BFS advances the clock past the budget, and the
    # exact solve that follows it must see the call's deadline as passed
    offset = [0.0]
    real = time.monotonic
    monkeypatch.setattr(time, "monotonic", lambda: real() + offset[0])
    bfs = dims.distances

    def slow_bfs(G):
        offset[0] += 2 * BUDGET
        return bfs(G)

    monkeypatch.setattr(dims, "distances", slow_bfs)
    assert torus_theorem_check(3, 3, exact=True, timeout=10 * BUDGET).exact == 4
    with pytest.raises(SolveTimeout):
        torus_theorem_check(3, 3, exact=True, timeout=BUDGET)


def test_witness_trial_branches_share_one_deadline(monkeypatch):
    # every witness-pass trial of johnson(9,2)'s N2 family is split by
    # orbital branching, and each kernel call advances the clock by STEP.
    # The second trial's first branch runs past the deadline, and the
    # pass stops there instead of solving the trial's other branches
    monkeypatch.setattr(cover, "_SPLIT_MIN_SETS", 0)
    offset = [0.0]
    real = time.monotonic
    monkeypatch.setattr(time, "monotonic", lambda: real() + offset[0])
    G = generate_named("johnson", 9, 2)
    a = GraphAnalysis(G)
    inst = a.edge_sides
    proof = cover._search(G.n, inst._prepared, 0, 0, a.symmetry, (), None, 0, None)[1]
    kernel = cover._kernel(G.n)
    calls = []

    def slow_kernel(*args):
        offset[0] += STEP
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(cover, "_kernel", lambda universe: slow_kernel)
    masks = inst._prepared
    with pytest.raises(SolveTimeout):
        cover._lex_min_witness(masks, proof, G.n, time.monotonic() + 1.5 * STEP, a.symmetry)
    assert len(calls) == 2
