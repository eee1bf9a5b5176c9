import dataclasses

import pytest

import mixdim.dims as dims
import mixdim.torus as torus
from mixdim.dims import verify_mixed_resolving
from mixdim.families import generate_named
from mixdim.graphs import GraphError, build_graph
from mixdim.torus import (
    CASE_EVEN_EVEN,
    CASE_EVEN_ODD,
    CASE_ODD_ODD,
    TorusCase,
    TorusReport,
    torus_candidate,
    torus_theorem_check,
)

FIG1_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]


def test_candidate_odd_odd():
    c = torus_candidate(5, 5)
    assert c.case == CASE_ODD_ODD
    assert set(c.coords) == {(0, 0), (0, 2), (1, 3), (3, 3)}


def test_candidate_even_even():
    c = torus_candidate(4, 4)
    assert c.case == CASE_EVEN_EVEN
    assert set(c.coords) == {(0, 0), (0, 1), (1, 2), (2, 0)}


def test_candidate_even_odd():
    c = torus_candidate(4, 5)
    assert c.case == CASE_EVEN_ODD
    assert set(c.coords) == {(0, 0), (2, 0), (0, 1), (1, 3)}


def test_candidate_rejects_small():
    with pytest.raises(GraphError):
        torus_candidate(2, 5)


def test_vertex_ids_match_coordinates():
    c = torus_candidate(4, 5)
    assert c.vertices == tuple(i * 5 + j for i, j in c.coords)


def test_verify_collision_on_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    # vertex 0 and the edge (0, 1), item 3, are both at distance 0 from 0
    assert verify_mixed_resolving(g, [0]) == (0, 3)
    assert g.edges[0] == (0, 1)


def test_verify_full_vertex_set_fig1():
    g = build_graph(5, FIG1_EDGES)
    assert verify_mixed_resolving(g, range(5)) is None


def test_verify_candidate_5x5():
    g = generate_named("torus", 5, 5)
    assert verify_mixed_resolving(g, torus_candidate(5, 5).vertices) is None


def test_theorem_check_exact_3x3():
    rep = torus_theorem_check(3, 3, exact=True)
    assert rep.candidate_valid
    assert rep.exact == 4
    assert rep.verdict == 4


def test_exact_theorem_check_runs_one_bfs(monkeypatch):
    # the witness check and the exact solve read one distance table
    calls = []
    bfs = dims.distances
    monkeypatch.setattr(dims, "distances", lambda G: calls.append(G) or bfs(G))
    assert torus_theorem_check(3, 4, exact=True).exact == 4
    assert calls == [generate_named("torus", 3, 4)]


def test_invalid_candidate_reports_colliding_items(monkeypatch):
    # vertex 0 and the edge (0, 2) have the same vector over 0, 1, 3, 4
    square = TorusCase(3, 3, CASE_ODD_ODD, ((0, 0), (0, 1), (1, 0), (1, 1)))
    monkeypatch.setattr(torus, "torus_candidate", lambda m, n: square)
    rep = torus_theorem_check(3, 3)
    assert not rep.candidate_valid
    assert rep.collision == (0, (0, 2))
    assert rep.verdict is None


def test_theorem_check_6x7():
    rep = torus_theorem_check(6, 7)
    assert rep.candidate_valid
    assert rep.degree_bound == 4
    assert rep.verdict == 4


def test_verdict_needs_the_bounds_to_meet():
    # a valid size-4 witness against a degree bound of 3 leaves [3, 4] open
    rep = TorusReport(5, 5, CASE_ODD_ODD, (0, 2, 8, 18), True, None, degree_bound=3, exact=None)
    assert rep.verdict is None
    assert dataclasses.replace(rep, degree_bound=4).verdict == 4


def test_theorem_check_rejects_small():
    with pytest.raises(GraphError):
        torus_theorem_check(2, 5)


@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("n", range(3, 9))
def test_candidates_verify_small_sweep(m, n):
    assert torus_theorem_check(m, n).candidate_valid
