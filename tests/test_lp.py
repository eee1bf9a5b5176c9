import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linprog

import mixdim
from mixdim import lp as lp_module
from mixdim._cover_py import greedy_cover
from mixdim.bounds import _lp_bound, bounds_report, lb_l4
from mixdim.cover import CoverInstance, min_hitting_set
from mixdim.dims import GraphAnalysis
from mixdim.families import connected_graphs_of_order, encode_graph6, generate, generate_named
from mixdim.graphs import build_graph
from mixdim.lp import CoveringLP, LPError, ceil_with_tolerance, solve_covering_lp, solve_covering_lp_primal
from mixdim.masks import bits_of, rows_of_masks
from mixdim.tables import SELECTED_GRAPHS

from bruteforce import masks, mixed_pair_rows, random_connected_graph

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
    inst = GraphAnalysis(build_graph(5, FIG1_EDGES)).mixed
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


def _random_programs():
    """120 seeded random covering programs, as (variables, rows)."""
    rng = random.Random(808)
    for _ in range(120):
        u = rng.randint(2, 14)
        yield u, [frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 30))]


def test_matches_reference_solver():
    for u, rows in _random_programs():
        mine = solve_covering_lp(CoveringLP.build(u, masks(rows)))
        # reference solves the raw, unreduced rows: also checks that
        # dropping duplicates and dominated rows never moves the optimum
        assert mine == pytest.approx(_scipy_optimum(u, rows), abs=1e-7)


def test_bland_rule_matches_reference_solver(monkeypatch):
    # the simplex switches to Bland's rule for good after its first
    # degenerate pivot, which these programs reach
    monkeypatch.setattr(lp_module, "_DEGENERATE_STREAK", 1)
    programs = [*_random_programs()]
    programs += [(g.n, mixed_pair_rows(g.n, g.edges)) for g in connected_graphs_of_order(5)]
    for u, rows in programs:
        mine = solve_covering_lp(CoveringLP.build(u, masks(rows)))
        assert mine == pytest.approx(_scipy_optimum(u, rows), abs=1e-7)


@pytest.fixture
def simplex_calls(monkeypatch):
    """The incidence matrix of every tableau that lp builds from here on."""
    calls = []
    simplex = lp_module._packing_dual_simplex

    def counted(incidence, costs):
        calls.append(incidence)
        return simplex(incidence, costs)

    monkeypatch.setattr(lp_module, "_packing_dual_simplex", counted)
    return calls


def _random_corpus_graphs():
    """Seeded random connected graphs of order 8 to 24, two of each order,
    each a random spanning tree plus about 8% of the other vertex pairs."""
    rng = random.Random(4242)
    return [build_graph(n, random_connected_graph(rng, n, 0.08)) for n in range(8, 25) for _ in range(2)]


@pytest.mark.parametrize("order", [5, 6, "random"])
def test_l4_matches_highs_on_every_small_graph(order, simplex_calls):
    # rows from the brute-force BFS, not from mixdim's pair masks; tier-1
    # cannot afford the enumeration of order 7, so random graphs of order
    # 8 to 24 stand in for larger programs
    graphs = _random_corpus_graphs() if order == "random" else connected_graphs_of_order(order)
    reached = 0
    for g in graphs:
        rows = mixed_pair_rows(g.n, g.edges)
        reference = _scipy_optimum(g.n, rows)
        value = solve_covering_lp(CoveringLP.build(g.n, masks(rows)))
        assert value == pytest.approx(reference, abs=1e-7), encode_graph6(g)
        before = len(simplex_calls)
        assert lb_l4(g) == math.ceil(reference - 1e-6), encode_graph6(g)
        reached += len(simplex_calls) > before
        assert bounds_report(g).l4 == lb_l4(g), encode_graph6(g)
    # the bracket decides some programs and leaves the others to the
    # simplex, so both of _lp_bound's branches meet the oracle
    assert 0 < reached < len(graphs)


def test_lp_below_integer_cover_on_order5():
    for g in connected_graphs_of_order(5):
        inst = GraphAnalysis(g).mixed
        lp_val = solve_covering_lp(CoveringLP.build(5, inst.masks))
        cover = min_hitting_set(inst)
        assert lp_val <= cover.size + 1e-9


# --- the bracket: packings below, the greedy cover above -------------------


def test_bracket_matches_the_simplex_on_orders_5_and_6(simplex_calls):
    graphs = [*connected_graphs_of_order(5), *connected_graphs_of_order(6)]
    assert len(graphs) == 133
    reached = 0
    for g in graphs:
        a = GraphAnalysis(g)
        inst = a.mixed
        lp = CoveringLP(g.n, inst.masks, inst.masks)
        for orbits in (None, a.symmetry.orbits()):
            before = len(simplex_calls)
            value = _lp_bound(inst, orbits)
            reached += len(simplex_calls) > before
            assert value == ceil_with_tolerance(solve_covering_lp(lp, orbits)), encode_graph6(g)
    # each undecided graph reaches the simplex once with its orbits and once without
    assert reached == 2 * 16


def test_bracket_leaves_k4_edges_to_the_simplex(simplex_calls):
    # the packings reach g - 1 exactly, so without the margin the bracket
    # would answer the greedy cover's 3 for an optimum of 2
    rows = [1 << u | 1 << v for u, v in itertools.combinations(range(4), 2)]
    inst = CoverInstance.build(4, rows)
    assert len(inst.masks) == 6
    assert greedy_cover(list(inst.masks))[0] == 3
    assert lp_module._packing_lower_bound(inst.masks, 4) == pytest.approx(2.0)
    assert solve_covering_lp(CoveringLP.build(4, rows)) == pytest.approx(2.0)
    simplex_calls.clear()
    assert _lp_bound(inst, None) == 2
    assert len(simplex_calls) == 1


def test_packing_lower_bound_parts():
    # disjoint packing: {0, 1} and {2, 3} of the three rows; degree
    # packing: each of the triangle's vertices lies on two rows, 3 * 1/2
    assert lp_module._packing_lower_bound([0b0011, 0b0110, 0b1100], 4) == 2
    assert lp_module._packing_lower_bound([0b011, 0b110, 0b101], 3) == pytest.approx(1.5)
    assert lp_module._packing_lower_bound([], 3) == 0


# --- the program over automorphism orbits ------------------------------------


def _circulant(n, offsets):
    return build_graph(n, sorted({tuple(sorted((v, (v + d) % n))) for v in range(n) for d in offsets}))


def _trivial_group_graphs():
    """Random connected graphs whose automorphism group is trivial."""
    rng = random.Random(2024)
    found = []
    while len(found) < 4:
        n = rng.randint(9, 14)
        g = build_graph(n, random_connected_graph(rng, n))
        if len(GraphAnalysis(g).symmetry.orbits()) == n:
            found.append(pytest.param(g, id=f"random-{len(found)}"))
    return found


ORBIT_LP_GRAPHS = [
    *(pytest.param(generate(s.family), id=s.name) for s in SELECTED_GRAPHS if s.family is not None),
    *(
        pytest.param(_circulant(n, d), id=f"C{n}{list(d)}")
        for n, d in [(10, (1, 3)), (12, (1, 5)), (13, (1, 5)), (15, (1, 4, 6))]
    ),
    *_trivial_group_graphs(),
]


@pytest.mark.parametrize("g", ORBIT_LP_GRAPHS)
def test_orbit_program_matches_plain_and_highs(g):
    a = GraphAnalysis(g)
    inst = a.mixed
    lp = CoveringLP(g.n, inst.masks, inst.masks)
    orbits = a.symmetry.orbits()
    plain = solve_covering_lp(lp)
    value, y = solve_covering_lp_primal(lp, orbits)
    assert value == pytest.approx(plain, abs=1e-7)
    assert value == pytest.approx(_scipy_optimum(g.n, [bits_of(m) for m in inst.masks]), abs=1e-7)
    # the selection is constant on every orbit and covers every row
    assert all(len({y[v] for v in bits_of(o)}) == 1 for o in orbits)
    assert float(y.sum()) == pytest.approx(value, abs=1e-7)
    for m in inst.original_masks:
        assert sum(y[v] for v in bits_of(m)) >= 1 - 1e-7


def test_singleton_program_is_the_plain_program(simplex_calls):
    # with no orbits the simplex gets the incidence rows in order, so the
    # plain program's tableau and pivots are those of the orbit program
    # over single variables
    for g in [*connected_graphs_of_order(5), *connected_graphs_of_order(6)]:
        inst = GraphAnalysis(g).mixed
        lp = CoveringLP(g.n, inst.masks, inst.masks)
        simplex_calls.clear()
        solve_covering_lp(lp)
        [rows] = simplex_calls
        assert np.array_equal(rows, rows_of_masks(lp.masks, g.n)), encode_graph6(g)


def test_exact_reports_leave_numpy_ma_unloaded():
    # np.unique(axis=0) imports numpy.ma, about 1.6 MB of resident memory:
    # the orbit rows and the stabilizer generators are told apart by their
    # bytes instead.  Clebsch's N2 proof finds its one vertex orbit, so its
    # L4 runs the orbit program; Frucht's group is trivial, so its L4 runs
    # the program over single variables
    frucht = sorted(nx.frucht_graph().edges)
    script = textwrap.dedent(
        f"""
        import sys
        import numpy
        if "numpy.ma" in sys.modules:
            sys.exit(3)
        import mixdim.lp as lp
        from mixdim.bounds import bounds_report
        from mixdim.families import generate_named
        from mixdim.graphs import build_graph

        widths = []
        simplex = lp._packing_dual_simplex
        def counted(rows, *costs):
            widths.append(rows.shape[1])
            return simplex(rows, *costs)
        lp._packing_dual_simplex = counted
        bounds_report(generate_named("clebsch"), compute_exact=True)
        bounds_report(build_graph(12, {frucht!r}), compute_exact=True)
        assert widths == [1, 12], widths
        print("numpy.ma" in sys.modules)
        """
    )
    src = str(Path(mixdim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    if run.returncode == 3:
        pytest.skip("import numpy alone loads numpy.ma")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]


def test_orbit_program_of_a_built_program():
    # rows reduced by build are checked against the rows handed in; the
    # cyclic shift maps the rows of all pairs of Z_6 at distance <= 2 onto
    # themselves
    rows = [frozenset({i, (i + d) % 6}) for i in range(6) for d in (1, 2)] + [frozenset(range(6))]
    lp = CoveringLP.build(6, masks(rows))
    value = solve_covering_lp(lp, [0b111111])
    assert value == pytest.approx(_scipy_optimum(6, rows), abs=1e-7) == pytest.approx(3.0)


def test_hypercube_7_program_is_solved_over_orbits():
    # the dense tableau stalls on the 7-cube's 560 reduced rows over 128
    # variables; over its one orbit they are one row, and HiGHS agrees
    g = generate_named("hypercube", 7)
    assert lb_l4(g) == 2
    assert bounds_report(g).l4 == 2
    inst = GraphAnalysis(g).mixed
    assert len(inst.masks) == 560
    assert _scipy_optimum(g.n, [bits_of(m) for m in inst.masks]) == pytest.approx(2.0, abs=1e-7)
