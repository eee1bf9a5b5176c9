import random

import networkx as nx
import pytest

import mixdim.dims as dims
import mixdim.graphs
from mixdim.bounds import (
    bounds_report,
    lb_l1,
    lb_l2,
    lb_l3,
    lb_l4,
    lb_n1,
    lb_n2,
    lb_n3,
)
from mixdim.dims import GraphAnalysis
from mixdim.families import generate_named, parse_graph6
from mixdim.graphs import build_graph

from bruteforce import l3_value, masks, random_connected_graph, side_sets

FIG1_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]


def fig1():
    return build_graph(5, FIG1_EDGES)


def test_l1_examples():
    assert lb_l1(generate_named("star", 4)) == 2
    assert lb_l1(generate_named("gen_petersen", 5, 2)) == 2
    assert lb_l1(parse_graph6("A_")) == 0


def test_l2_examples():
    assert lb_l2(generate_named("star", 4)) == 1
    assert lb_l2(generate_named("gen_petersen", 5, 2)) == 3
    assert lb_l2(generate_named("hypercube", 5)) == 4
    assert lb_l2(parse_graph6("A_")) == 1


def test_l3_examples():
    assert lb_l3(generate_named("complete", 5)) == 5
    assert lb_l3(generate_named("gen_petersen", 5, 2)) == 0
    assert lb_l3(fig1()) == 5


def test_l3_closed_form_matches_brute_force():
    # every connected graph of order 5 to 7 (networkx's atlas): the closed
    # form against the smallest set, found by enumeration, that holds the
    # forced vertices and meets every false-twin pair
    graphs = [
        build_graph(H.number_of_nodes(), H.edges)
        for H in nx.graph_atlas_g()
        if 5 <= H.number_of_nodes() and nx.is_connected(H)
    ]
    assert len(graphs) == 21 + 112 + 853
    for G in graphs:
        assert lb_l3(G) == l3_value(G.n, list(G.edges)), G.edges


def test_l4_examples():
    assert lb_l4(parse_graph6("A_")) == 2
    assert lb_l4(fig1()) == 5
    assert lb_l4(generate_named("gen_petersen", 5, 2)) == 4


def test_n1_examples():
    assert lb_n1(fig1()) == 3
    assert lb_n1(generate_named("hypercube", 5)) == 4
    assert lb_n1(parse_graph6("A_")) == 2
    # r-regular case
    for r, g in ((2, generate_named("cycle", 6)), (4, generate_named("torus", 3, 4))):
        assert lb_n1(g) == 1 + (r).bit_length()


def _side_sets(g):
    """(closer to u, closer to v) of every edge uv of g, in g.edges order,
    read from GraphAnalysis(g).edge_sides."""
    sides = GraphAnalysis(g).edge_sides.original_masks
    return sides[: g.m], sides[g.m :]


def test_side_sets_path3():
    closer_u, closer_v = _side_sets(build_graph(3, [(0, 1), (1, 2)]))
    assert closer_u[0] == 0b001
    assert closer_v[0] == 0b110


def test_side_sets_hypercube_halfspace():
    g = generate_named("hypercube", 5)
    closer_u, _ = _side_sets(g)
    for (u, v), less in zip(g.edges, closer_u):
        t = (u ^ v).bit_length() - 1
        assert less == sum(1 << w for w in range(32) if (w >> t) & 1 == (u >> t) & 1)


def test_side_sets_contain_endpoints():
    rng = random.Random(314)
    for _ in range(15):
        n = rng.randint(2, 9)
        g = build_graph(n, random_connected_graph(rng, n))
        closer_u, closer_v = _side_sets(g)
        for (u, v), less, greater in zip(g.edges, closer_u, closer_v):
            assert less >> u & 1 and greater >> v & 1
            assert not less & greater
        # matches the scratch-BFS recomputation
        want = side_sets(n, g.edges)
        assert (closer_u, closer_v) == tuple(tuple(masks(sides)) for sides in zip(*want))


def test_n2_examples():
    assert lb_n2(fig1())[0] == 5
    assert lb_n2(generate_named("hypercube", 5))[0] == 2
    assert lb_n2(generate_named("gen_petersen", 5, 2))[0] == 4


def test_n2_witness_hits_both_sides_of_every_edge():
    g = generate_named("gen_petersen", 5, 2)
    value, witness = lb_n2(g)
    wmask = sum(1 << w for w in witness)
    for less, greater in zip(*_side_sets(g)):
        assert less & wmask and greater & wmask


def test_n3_examples():
    assert lb_n3(fig1()) == 2
    assert lb_n3(generate_named("complete", 5)) == 3
    assert lb_n3(generate_named("gen_petersen", 5, 2)) == 4


def test_n3_is_minimal():
    for g in (fig1(), generate_named("complete", 5), generate_named("gen_petersen", 5, 2),
              generate_named("path", 5)):
        a = GraphAnalysis(g)
        diameter = int(a.table.max())
        k = lb_n3(g, a)
        items = g.n + g.m
        cap = g.max_degree + 1
        assert diameter ** k + k * cap >= items
        if k > 1:
            assert diameter ** (k - 1) + (k - 1) * cap < items


def test_degree_bounds_build_no_distance_oracle(monkeypatch):
    def no_bfs(G):
        raise AssertionError("a degree bound computed all-pairs distances")

    g = generate_named("torus", 15, 15)
    monkeypatch.setattr(dims, "distances", no_bfs)
    monkeypatch.setattr(mixdim.graphs, "distances", no_bfs)
    assert (lb_l1(g), lb_l2(g), lb_n1(g)) == (2, 3, 4)
    with pytest.raises(AssertionError):
        lb_n3(g)  # N3 reads the diameter


def test_exact_bounds_report_runs_one_bfs(monkeypatch):
    # every bound and exact solve of one report reads one distance table
    calls = []
    bfs = dims.distances
    monkeypatch.setattr(dims, "distances", lambda G: calls.append(G) or bfs(G))
    g = generate_named("gen_petersen", 5, 2)
    assert bounds_report(g, compute_exact=True).beta_m == 6
    assert calls == [g]


def test_n1_at_least_l2():
    rng = random.Random(2718)
    for _ in range(30):
        n = rng.randint(2, 9)
        g = build_graph(n, random_connected_graph(rng, n))
        assert lb_n1(g) >= lb_l2(g)


def test_bounds_report_fig1():
    rep = bounds_report(fig1(), compute_exact=True, label="fig1")
    assert rep.bound_tuple() == (2, 2, 5, 5, 3, 5, 2)
    assert (rep.beta, rep.beta_e, rep.beta_m) == (3, 4, 5)


def test_bounds_report_petersen():
    rep = bounds_report(generate_named("gen_petersen", 5, 2), compute_exact=True)
    assert rep.bound_tuple() == (2, 3, 0, 4, 3, 4, 4)
    assert rep.beta_m == 6


def test_bounds_report_mobius_kantor():
    rep = bounds_report(generate_named("gen_petersen", 8, 3), compute_exact=True)
    assert rep.bound_tuple() == (2, 3, 0, 2, 3, 3, 3)
    assert rep.beta_m == 4


def test_every_bound_below_beta_m_on_random_graphs():
    rng = random.Random(161803)
    for _ in range(10):
        n = rng.randint(3, 7)
        g = build_graph(n, random_connected_graph(rng, n))
        rep = bounds_report(g, compute_exact=True)
        assert all(b <= rep.beta_m for b in rep.bound_tuple())
        assert rep.beta_m >= max(rep.beta, rep.beta_e)


def test_mixed_deepening_starts_at_edge_dimension(monkeypatch):
    # Kneser(7,2): betaE = betaM = 12, so the mixed search needs one level
    levels = []
    excluded = dims.excluded_vertices

    def recording(G, k):
        levels.append(k)
        return excluded(G, k)

    monkeypatch.setattr(dims, "excluded_vertices", recording)
    rep = bounds_report(generate_named("kneser", 7, 2), compute_exact=True)
    assert (rep.beta_e, rep.beta_m) == (12, 12)
    assert levels == [12]
