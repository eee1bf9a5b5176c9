import itertools
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import mixdim
from mixdim import lp as lp_module
from mixdim._cover_py import greedy_cover
from mixdim.bounds import _lp_bound, bounds_report, lb_l4
from mixdim.cover import CoverInstance, min_hitting_set
from mixdim.dims import GraphAnalysis
from mixdim.families import connected_graphs_of_order, encode_graph6, generate, generate_named
from mixdim.graphs import build_graph
from mixdim.lp import CoveringLP, LPError, solve_covering_lp
from mixdim.masks import bits_of, rows_of_masks
from mixdim.tables import SELECTED_GRAPHS

from bruteforce import lp_optimum_scipy, masks, mixed_pair_rows, random_connected_graph

FIG1_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]


def _assert_at_highs(pair, num_vars, rows):
    """Both sides of solve_covering_lp's pair lie at HiGHS's optimum over
    rows, the packing value below the cover value."""
    lb, ub = pair
    reference = lp_optimum_scipy(num_vars, rows)
    assert lb <= ub
    assert float(lb) == pytest.approx(reference, abs=1e-7)
    assert float(ub) == pytest.approx(reference, abs=1e-7)


def test_k2_instance():
    rows = [{0}, {1}, {0, 1}]
    pair = solve_covering_lp(CoveringLP.build(2, masks(rows)))
    assert pair == (2, 2)
    _assert_at_highs(pair, 2, rows)


def test_symmetric_fractional_optimum():
    rows = list(itertools.combinations(range(3), 2))
    pair = solve_covering_lp(CoveringLP.build(3, masks(rows)))
    assert pair == (Fraction(3, 2), Fraction(3, 2))
    _assert_at_highs(pair, 3, rows)


def test_fig1_mixed_lp_in_interval():
    inst = GraphAnalysis(build_graph(5, FIG1_EDGES)).mixed
    lb, ub = solve_covering_lp(CoveringLP.build(5, inst.masks))
    assert 4 < lb <= ub <= 5
    assert math.ceil(lb) == math.ceil(ub) == 5
    _assert_at_highs((lb, ub), 5, mixed_pair_rows(5, FIG1_EDGES))


def test_empty_row_rejected():
    with pytest.raises(LPError):
        CoveringLP.build(3, masks([{0}, set()]))


def test_row_outside_variable_range_rejected():
    with pytest.raises(LPError):
        CoveringLP.build(3, [0b1000])
    with pytest.raises(LPError):
        CoveringLP.build(3, [-1])


def test_integer_optimum_is_returned_exactly():
    # no float noise such as 3.0000001 reaches a ceiling: both sides of the
    # pair are the integer optimum itself wherever HiGHS finds one
    integral = 0
    for g in connected_graphs_of_order(5):
        rows = mixed_pair_rows(g.n, g.edges)
        reference = lp_optimum_scipy(g.n, rows)
        if abs(reference - round(reference)) < 1e-7:
            assert solve_covering_lp(CoveringLP.build(g.n, masks(rows))) == (round(reference),) * 2, encode_graph6(g)
            integral += 1
    assert integral > 0


def test_primal_is_feasible_and_matches_value():
    # the cover read off the final basis, written over |det| of that basis,
    # covers every row handed in and costs exactly the packing's value
    rng = random.Random(321)
    for _ in range(50):
        u = rng.randint(2, 12)
        rows = [frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 25))]
        lp = CoveringLP.build(u, masks(rows))
        incidence = rows_of_masks(lp.masks, u)
        d, solution = lp_module._over_one_denominator(*lp_module._packing_dual_simplex(incidence, np.ones(u)))
        x, y = solution[: len(lp.masks)], solution[len(lp.masks) :]
        assert all(sum(int(y[v]) for v in r) >= d for r in rows)
        assert (x @ incidence <= d).all()
        assert solve_covering_lp(lp) == (Fraction(int(x.sum()), d), Fraction(int(y.sum()), d))
        assert x.sum() == y.sum()


def _random_programs():
    """120 seeded random covering programs, as (variables, rows)."""
    rng = random.Random(808)
    for _ in range(120):
        u = rng.randint(2, 14)
        yield u, [frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 30))]


def test_matches_reference_solver():
    for u, rows in _random_programs():
        # reference solves the raw, unreduced rows: also checks that
        # dropping duplicates and dominated rows never moves the optimum
        _assert_at_highs(solve_covering_lp(CoveringLP.build(u, masks(rows))), u, rows)


def test_bland_rule_matches_reference_solver(monkeypatch):
    # the simplex switches to Bland's rule for good after its first
    # degenerate pivot, which these programs reach
    monkeypatch.setattr(lp_module, "_DEGENERATE_STREAK", 1)
    programs = [*_random_programs()]
    programs += [(g.n, mixed_pair_rows(g.n, g.edges)) for g in connected_graphs_of_order(5)]
    for u, rows in programs:
        _assert_at_highs(solve_covering_lp(CoveringLP.build(u, masks(rows))), u, rows)


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
        _assert_at_highs(solve_covering_lp(CoveringLP.build(g.n, masks(rows))), g.n, rows)
        before = len(simplex_calls)
        assert lb_l4(g) == math.ceil(lp_optimum_scipy(g.n, rows) - 1e-6), encode_graph6(g)
        reached += len(simplex_calls) > before
        assert bounds_report(g).l4 == lb_l4(g), encode_graph6(g)
    # the bracket decides some programs and leaves the others to the
    # simplex, so both of _lp_bound's branches meet the oracle
    assert 0 < reached < len(graphs)


def test_lp_below_integer_cover_on_order5():
    for g in connected_graphs_of_order(5):
        inst = GraphAnalysis(g).mixed
        pair = solve_covering_lp(CoveringLP.build(5, inst.masks))
        _assert_at_highs(pair, 5, [bits_of(m) for m in inst.masks])
        assert pair[1] <= min_hitting_set(inst).size


# --- the checked certificates ------------------------------------------------


@pytest.fixture
def nudged(monkeypatch):
    """nudged(packing, cover): from here on the simplex's packing and cover
    reach the checks over a denominator 10**9 times theirs, the packing's
    first entry raised by packing and the cover's last entry by cover, in
    units of that denominator, so by at most 10**-9."""

    def nudge(packing=0, cover=0):
        snap = lp_module._over_one_denominator

        def nudged_snap(solution, det):
            d, v = snap(solution, det)
            v = v * 10**9
            v[0] += packing
            v[-1] += cover
            return d * 10**9, v

        monkeypatch.setattr(lp_module, "_over_one_denominator", nudged_snap)

    return nudge


def test_packing_past_a_capacity_is_scaled_down(nudged):
    # rows {0} and {1}: the packing 1 + 10**-9 on row {0} overloads
    # variable 0, and scaling by 1 / (1 + 10**-9) makes it feasible
    lp = CoveringLP.build(2, [0b01, 0b10])
    assert solve_covering_lp(lp) == (2, 2)
    nudged(packing=1)
    lb, ub = solve_covering_lp(lp)
    e = 10**9
    assert lb == Fraction(2 * e + 1, e) * Fraction(e, e + 1) < 2
    assert ub == 2


def test_cover_short_of_a_row_is_scaled_up(nudged):
    # rows {0} and {1}: the cover 1 - 10**-9 on variable 1 leaves row {1}
    # short, and scaling by 1 / (1 - 10**-9) covers it
    lp = CoveringLP.build(2, [0b01, 0b10])
    nudged(cover=-1)
    lb, ub = solve_covering_lp(lp)
    e = 10**9
    assert lb == 2
    assert ub == Fraction(2 * e - 1, e - 1) > 2


def test_cover_missing_a_row_raises(nudged):
    # a cover that scaling cannot repair: variable 1 drops to 0, so row {1}
    # sums to nothing
    nudged(cover=-(10**9))
    with pytest.raises(LPError, match="misses a row"):
        solve_covering_lp(CoveringLP.build(2, [0b01, 0b10]))


def test_undecided_pair_raises_naming_the_program(nudged):
    # K4's edges: the optimum 2 is an integer, so a cover scaled up by
    # 10**-9 puts the ceilings at 2 and 3, and _lp_bound will not guess
    rows = [1 << u | 1 << v for u, v in itertools.combinations(range(4), 2)]
    inst = CoverInstance.build(4, rows)
    assert _lp_bound(inst, None) == 2
    nudged(cover=-1)
    with pytest.raises(LPError, match=re.escape(f"L4 undecided on rows {list(inst.masks)} over 4 variables")):
        _lp_bound(inst, None)


def test_large_determinant_snaps_to_small_denominators():
    # past 2**31 the determinant is not used: the entries are snapped one by
    # one, over the lcm of their denominators, in Python ints once that lcm
    # is too large for int64 products
    d, v = lp_module._over_one_denominator(np.array([1 / 3, 2 / 3, 0.5, -1e-12]), 2.0**40)
    assert (d, v.tolist(), v.dtype) == (6, [2, 4, 3, 0], np.int64)
    p, q = 999_983, 999_979  # primes, so their lcm is their product
    d, v = lp_module._over_one_denominator(np.array([1 / p, 1 / q]), float("inf"))
    assert (d, v.tolist(), v.dtype) == (p * q, [q, p], object)


def test_python_int_vectors_give_the_same_pair(monkeypatch):
    # a denominator past int64 puts the checks on Python ints
    snap = lp_module._over_one_denominator

    def huge(solution, det):
        d, v = snap(solution, det)
        return d * 2**70, v.astype(object) * 2**70

    monkeypatch.setattr(lp_module, "_over_one_denominator", huge)
    assert solve_covering_lp(CoveringLP.build(3, [0b011, 0b110, 0b101])) == (Fraction(3, 2), Fraction(3, 2))


# --- the bracket: packings below, the greedy cover above -------------------


def test_bracket_matches_the_simplex_on_orders_5_and_6(simplex_calls):
    graphs = [*connected_graphs_of_order(5), *connected_graphs_of_order(6)]
    assert len(graphs) == 133
    reached = 0
    for g in graphs:
        a = GraphAnalysis(g)
        inst = a.mixed
        lp = CoveringLP(g.n, inst.masks)
        for orbits in (None, a.symmetry.orbits()):
            before = len(simplex_calls)
            value = _lp_bound(inst, orbits)
            reached += len(simplex_calls) > before
            lb, ub = solve_covering_lp(lp, orbits)
            assert value == math.ceil(lb) == math.ceil(ub), encode_graph6(g)
    # each undecided graph reaches the simplex once with its orbits and once without
    assert reached == 2 * 16


def test_bracket_leaves_k4_edges_to_the_simplex(simplex_calls):
    # the packings reach g - 1 = 2 exactly, so ceil(2) != 3 leaves the
    # greedy cover's 3 undecided, and the simplex settles the optimum 2
    rows = [1 << u | 1 << v for u, v in itertools.combinations(range(4), 2)]
    inst = CoverInstance.build(4, rows)
    assert len(inst.masks) == 6
    assert greedy_cover(list(inst.masks))[0] == 3
    assert lp_module._packing_lower_bound(inst.masks, 4) == 2
    assert solve_covering_lp(CoveringLP.build(4, rows)) == (2, 2)
    simplex_calls.clear()
    assert _lp_bound(inst, None) == 2
    assert len(simplex_calls) == 1


def test_packing_lower_bound_parts():
    # disjoint packing: {0, 1} and {2, 3} of the three rows; degree
    # packing: each of the triangle's vertices lies on two rows, 3 * 1/2,
    # an exact fraction
    assert lp_module._packing_lower_bound([0b0011, 0b0110, 0b1100], 4) == 2
    triangle = lp_module._packing_lower_bound([0b011, 0b110, 0b101], 3)
    assert type(triangle) is Fraction and triangle == Fraction(3, 2)
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
    lp = CoveringLP(g.n, inst.masks)
    plain = solve_covering_lp(lp)
    pair = solve_covering_lp(lp, a.symmetry.orbits())
    assert pair == plain
    _assert_at_highs(pair, g.n, [bits_of(m) for m in inst.original_masks])


def test_singleton_program_is_the_plain_program(simplex_calls):
    # with no orbits the simplex gets the incidence rows in order, so the
    # plain program's tableau and pivots are those of the orbit program
    # over single variables
    for g in [*connected_graphs_of_order(5), *connected_graphs_of_order(6)]:
        inst = GraphAnalysis(g).mixed
        lp = CoveringLP(g.n, inst.masks)
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
    # build reduces the rows, and HiGHS solves them as handed in; the
    # cyclic shift maps the rows of all pairs of Z_6 at distance <= 2 onto
    # themselves
    rows = [frozenset({i, (i + d) % 6}) for i in range(6) for d in (1, 2)] + [frozenset(range(6))]
    lp = CoveringLP.build(6, masks(rows))
    pair = solve_covering_lp(lp, [0b111111])
    assert pair == (3, 3)
    _assert_at_highs(pair, 6, rows)


def test_hypercube_7_program_is_solved_over_orbits():
    # the dense tableau stalls on the 7-cube's 560 reduced rows over 128
    # variables; over its one orbit they are one row, and HiGHS agrees
    g = generate_named("hypercube", 7)
    assert lb_l4(g) == 2
    assert bounds_report(g).l4 == 2
    inst = GraphAnalysis(g).mixed
    assert len(inst.masks) == 560
    assert lp_optimum_scipy(g.n, [bits_of(m) for m in inst.masks]) == pytest.approx(2.0, abs=1e-7)
