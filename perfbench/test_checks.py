"""The benchmark's checks must pass the program's real answers and fail
corrupted ones.

    python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import dataclasses
import itertools

import env  # noqa: F401  (import paths)
import pytest

import checks
import mixdim


def _report(G, label=""):
    return dataclasses.asdict(mixdim.bounds_report(G, compute_exact=True, label=label))


def _graph(G):
    return G.n, list(G.edges)


@pytest.fixture(scope="module")
def petersen():
    G = mixdim.generate_named("gen_petersen", 5, 2)
    return G, _report(G, "Petersen graph")


@pytest.fixture(scope="module")
def small():
    # C6: order 6, so brute force decides every exact value, and it has
    # 14 minimum mixed bases, so the lex-min witness is a real choice
    G = mixdim.generate_named("cycle", 6)
    return G, _report(G)


def test_real_answers_pass(petersen, small):
    checker = checks.ReportChecker()
    G, rep = petersen
    checker.check(*_graph(G), rep, checks.PUBLISHED_DIMENSIONS["Petersen graph"])
    G, rep = small
    checker.check(*_graph(G), rep)


@pytest.mark.parametrize(
    "corruption",
    [
        pytest.param(lambda r: dict(r, beta_m_witness=r["beta_m_witness"][1:]), id="witness-drops-a-vertex"),
        pytest.param(lambda r: dict(r, beta_m=r["beta_m"] + 1), id="betaM-plus-one"),
        pytest.param(lambda r: dict(r, beta_m=r["beta_m"] - 1), id="betaM-minus-one"),
        pytest.param(lambda r: dict(r, n2=r["n2"] + 1), id="N2-plus-one"),
        pytest.param(lambda r: dict(r, n2_witness=r["n2_witness"][1:]), id="N2-witness-drops-a-vertex"),
        pytest.param(lambda r: dict(r, l4=r["l4"] + 1), id="L4-plus-one"),
        pytest.param(lambda r: dict(r, n3=r["beta_m"] + 1), id="bound-above-betaM"),
        pytest.param(lambda r: dict(r, beta=r["beta"] + 1), id="beta-plus-one"),
    ],
)
def test_corrupted_report_fails(petersen, small, corruption):
    for G, rep, published in ((*petersen, checks.PUBLISHED_DIMENSIONS["Petersen graph"]), (*small, None)):
        with pytest.raises(checks.CheckError):
            checks.ReportChecker().check(*_graph(G), corruption(rep), published)


def test_valid_but_not_lex_min_witness_fails(small):
    G, rep = small
    n, edges = _graph(G)
    dmix = checks.item_distances(n, edges)
    size = rep["beta_m"]
    other = next(
        c
        for c in itertools.combinations(range(n), size)
        if c != rep["beta_m_witness"] and checks.resolves(dmix, c)
    )
    with pytest.raises(checks.CheckError):
        checks.ReportChecker().check(n, edges, dict(rep, beta_m_witness=other))


def test_published_value_mismatch_fails(petersen):
    G, rep = petersen
    with pytest.raises(checks.CheckError):
        checks.ReportChecker().check(*_graph(G), rep, (3, 4, 7))


def _atlas(k):
    return [(g.number_of_nodes(), sorted(tuple(sorted(e)) for e in g.edges())) for g in checks.atlas_classes(k)]


def test_enumeration_check():
    classes = _atlas(5)
    checks.check_enumeration(5, classes)
    with pytest.raises(checks.CheckError):
        checks.check_enumeration(5, classes[1:])  # a missing class
    with pytest.raises(checks.CheckError):
        checks.check_enumeration(5, classes[1:] + [classes[2]])  # one class twice, one missing


def test_missing_order7_class_fails():
    classes = _atlas(7)
    assert len(classes) == 853
    with pytest.raises(checks.CheckError):
        checks.check_enumeration(7, classes[:-1])
    with pytest.raises(checks.CheckError):
        checks.check_enumeration(7, classes[:-1] + classes[:1])  # right count, one class twice


@pytest.mark.parametrize("m,n", [(4, 5), (6, 6), (7, 9)])
def test_torus_check(m, n):
    rep = mixdim.torus_theorem_check(m, n, exact=m <= 6 and n <= 6)
    fields = dict(dataclasses.asdict(rep), verdict=rep.verdict)
    checks.TorusChecker().check(m, n, fields)
    w = fields["witness"]
    for bad in (w[:3], w[:3] + (w[0],)):  # a vertex dropped, a vertex repeated
        with pytest.raises(checks.CheckError):
            checks.TorusChecker().check(m, n, dict(fields, witness=bad))
    with pytest.raises(checks.CheckError):
        checks.TorusChecker().check(m, n, dict(fields, degree_bound=3))
    if m <= 6 and n <= 6:
        with pytest.raises(checks.CheckError):
            checks.TorusChecker().check(m, n, dict(fields, exact=5))


def test_own_bfs_matches_networkx():
    import networkx as nx

    G = mixdim.generate_named("torus", 5, 7)
    dist = checks.bfs_distances(G.n, list(G.edges))
    ref = dict(nx.all_pairs_shortest_path_length(nx.Graph(list(G.edges))))
    assert all(dist[u, v] == ref[u][v] for u in range(G.n) for v in range(G.n))
