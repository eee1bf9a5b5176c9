"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  Budgets are asserted as stated; the independent
oracles live in bruteforce.py (scratch BFS, exhaustive enumeration, scipy
for the LP bound).

Run with `pytest tests/test_acceptance.py -v -s`.  The order-36 exact
solves run under a 60 s guard each: a timeout fails, as does a wrong value.
"""
import random
import time

from mixdim.bounds import bounds_report
from mixdim.cover import CoverInstance, min_hitting_set
from mixdim.dims import (
    GraphAnalysis,
    excluded_vertices,
    forced_vertices,
    mixed_metric_dimension,
)
from mixdim.families import connected_graphs_of_order, encode_graph6, generate_named, parse_graph6
from mixdim.graphs import build_graph
from mixdim.lp import CoveringLP, solve_covering_lp
from mixdim.tables import compare_order5, order5_rows
from mixdim.torus import torus_theorem_check

import bruteforce as bf

FIG1_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]


def _report(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {detail}")


def _corpus():
    """The property-suite corpus: all 21 order-5 graphs plus 50 seeded
    random connected graphs with at most 8 vertices."""
    graphs = list(connected_graphs_of_order(5))
    rng = random.Random(987123)
    while len(graphs) < 71:
        n = rng.randint(4, 8)
        graphs.append(build_graph(n, bf.random_connected_graph(rng, n)))
    return graphs


def test_criterion_1_reference_graph():
    start = time.monotonic()
    g = build_graph(5, FIG1_EDGES)
    rep = bounds_report(g, compute_exact=True, label="fig1")
    elapsed = time.monotonic() - start
    assert (rep.beta, rep.beta_e, rep.beta_m) == (3, 4, 5)
    assert rep.n1 == 3 and rep.n2 == 5 and rep.n3 == 2
    assert elapsed < 1.0
    _report(1, f"5-vertex reference graph dims 3/4/5, N1=3 N2=5 N3=2 in {elapsed:.2f}s")


def test_criterion_2_order5_table():
    start = time.monotonic()
    rows = order5_rows()
    matches, annotated = compare_order5(rows)
    assert len(annotated) == 21
    assert matches >= 18
    # every cell of every mismatching row must be confirmed by the
    # from-scratch oracle (exhaustive enumeration, scipy for the LP column)
    checked_cells = 0
    for row in annotated:
        if not row.cell_flags:
            continue
        g = parse_graph6(row.label)
        oracle_row = bf.bounds_row(g.n, list(g.edges))
        assert row.values == oracle_row, (
            f"computed row for {row.label} not confirmed by brute force"
        )
        checked_cells += len(row.cell_flags)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(
        2,
        f"{matches}/21 published rows matched; {checked_cells} discrepant cell(s) "
        f"oracle-confirmed in {elapsed:.1f}s",
    )


def test_criterion_3_torus_exact_small():
    start = time.monotonic()
    for m in range(3, 7):
        for n in range(3, 7):
            rep = torus_theorem_check(m, n, exact=True, timeout=1800)
            assert rep.candidate_valid, (m, n, rep.collision)
            assert rep.exact == 4, (m, n, rep.exact)
    elapsed = time.monotonic() - start
    assert elapsed < 1800.0
    _report(3, f"exact mixed dimension 4 on all 16 tori (3..6 squared) in {elapsed:.1f}s")


def test_criterion_3_torus_candidate_sweep():
    start = time.monotonic()
    for m in range(3, 16):
        for n in range(3, 16):
            rep = torus_theorem_check(m, n)
            assert rep.candidate_valid, (m, n, rep.collision)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(3, f"all 169 torus witness patterns (3..15 squared) verified in {elapsed:.1f}s")


SPOT_CHECKS = [
    ("Petersen", ("gen_petersen", 5, 2), {"bounds": (2, 3, 0, 4, 3, 4, 4), "beta_m": 6}),
    ("Mobius-Kantor", ("gen_petersen", 8, 3), {"bounds": (2, 3, 0, 2, 3, 3, 3), "beta_m": 4}),
    ("Q5", ("hypercube", 5), {"n1": 4, "n2": 2, "n3": 3, "beta_m": 4}),
    ("Paley-13", ("paley", 13), {"n1": 4, "n2": 5, "n3": 5, "beta_m": 6}),
    ("Hamming-3-3", ("hamming", 3, 3), {"n1": 4, "n3": 4, "beta_m": 6}),
]

# cells where the published table disagrees with the stated definitions;
# the computed value is the oracle-confirmed one (see decision log)
PUBLISHED_ANOMALIES = {("Q5", "l4"): (2, 2)}  # printed 2 actually matches: LP = 2.0


def test_criterion_4_selected_spot_checks():
    start = time.monotonic()
    details = []
    for label, (family, *params), expect in SPOT_CHECKS:
        g = generate_named(family, *params)
        t0 = time.monotonic()
        rep = bounds_report(g, compute_exact=True, label=label, timeout=1800)
        dt = time.monotonic() - t0
        assert dt < 1800.0
        if "bounds" in expect:
            assert rep.bound_tuple() == expect["bounds"], (label, rep.bound_tuple())
        for key in ("n1", "n2", "n3"):
            if key in expect:
                assert getattr(rep, key) == expect[key], (label, key)
        assert rep.beta_m == expect["beta_m"], (label, rep.beta_m)
        details.append(f"{label} betaM={rep.beta_m} ({dt:.1f}s)")
    elapsed = time.monotonic() - start
    _report(4, "; ".join(details) + f"; total {elapsed:.1f}s")


ORDER36 = [
    ("rook-6", ("rook", 6), 9),
    ("Hamming-2-6", ("hamming", 2, 6), 9),
    ("9-triangular", ("johnson", 9, 2), 32),
]


def test_criterion_5_order36_bounds():
    start = time.monotonic()
    details = []
    for label, (family, *params), _ in ORDER36:
        g = generate_named(family, *params)
        t0 = time.monotonic()
        rep = bounds_report(g, compute_exact=False, label=label)
        dt = time.monotonic() - t0
        assert dt < 300.0, f"{label} bounds took {dt:.0f}s"
        details.append(f"{label} {rep.bound_tuple()} ({dt:.1f}s)")
    _report(5, "bounds on order-36 graphs: " + "; ".join(details))


def test_criterion_5_order36_exact_extended():
    details = []
    for label, (family, *params), expected in ORDER36:
        g = generate_named(family, *params)
        t0 = time.monotonic()
        value, _ = mixed_metric_dimension(g, timeout=60)
        assert value == expected, (label, value, expected)
        details.append(f"{label} betaM={value} ({time.monotonic() - t0:.1f}s)")
    _report(5, "extended exact solves: " + "; ".join(details))


def test_criterion_6_property_suites():
    start = time.monotonic()
    corpus = _corpus()

    # (a) every bound <= beta_m and (b) beta_m >= max(beta, beta_e)
    for g in corpus:
        rep = bounds_report(g, compute_exact=True)
        assert all(b <= rep.beta_m for b in rep.bound_tuple()), encode_graph6(g)
        assert rep.beta_m >= max(rep.beta, rep.beta_e)

    # (c) structure of every minimum mixed basis and (d) per-member degree rule
    for g in corpus:
        fs = forced_vertices(g)
        sides = GraphAnalysis(g).edge_sides.original_masks
        bases = bf.min_dimension(g.n, list(g.edges))[1]
        assert bases
        size = len(bases[0])
        excl = excluded_vertices(g, size)
        for basis in bases:
            bset = set(basis)
            bmask = sum(1 << x for x in bset)
            assert fs.forced & ~bmask == 0
            # it misses at most one vertex of each false-twin class
            assert all((c & ~bmask).bit_count() <= 1 for c in fs.false_twins)
            assert not bmask & excl
            # the basis meets both side sets of every edge
            assert all(side & bmask for side in sides)
            for x in basis:
                assert size >= 1 + (g.degree(x)).bit_length()  # 1+ceil(log2(1+deg))

    # (e) engine optimum equals exhaustive enumeration on random instances
    rng = random.Random(55221)
    for _ in range(40):
        u = rng.randint(1, 12)
        sets = [frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 20))]
        res = min_hitting_set(CoverInstance.build(u, bf.masks(sets)))
        assert (res.size, res.witness) == bf.min_hitting_set(u, sets)

    # (f) LP relaxation, bracketed exactly at HiGHS's optimum, never exceeds
    # the integer cover optimum
    for g in corpus:
        inst = GraphAnalysis(g).mixed
        lb, ub = solve_covering_lp(CoveringLP.build(g.n, inst.masks))
        reference = bf.lp_optimum_scipy(g.n, bf.mixed_pair_rows(g.n, g.edges))
        assert lb <= ub <= min_hitting_set(inst).size
        assert abs(float(lb) - reference) < 1e-7 and abs(float(ub) - reference) < 1e-7

    # (g) graph6 roundtrip on every enumerated graph of order <= 6
    count = 0
    for k in range(1, 7):
        for g in connected_graphs_of_order(k):
            assert parse_graph6(encode_graph6(g)) == g
            count += 1
    elapsed = time.monotonic() - start
    _report(6, f"property suites (a)-(g) over {len(corpus)} graphs, {count} roundtrips, {elapsed:.1f}s")


def test_criterion_7_enumeration_counts():
    start = time.monotonic()
    counts = {k: len(connected_graphs_of_order(k)) for k in (3, 4, 5, 6)}
    assert counts == {3: 2, 4: 6, 5: 21, 6: 112}
    # the 21 is published; the others come from the scan-all-labeled oracle
    assert len(bf.canonical_codes_of_order(4)) == 6
    elapsed = time.monotonic() - start
    _report(7, f"connected graph counts {counts} in {elapsed:.1f}s")
