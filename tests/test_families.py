import itertools
import random

import networkx as nx
import pytest

from mixdim.families import (
    FamilySpec,
    canonical_code,
    connected_graphs_of_order,
    encode_graph6,
    generate,
    generate_named,
    graph_from_code,
    parse_family_spec,
    parse_graph6,
)
from mixdim.graphs import GraphError, build_graph, is_connected

from bruteforce import canonical_codes_of_order, random_connected_graph


def test_torus_33():
    g = generate_named("torus", 3, 3)
    assert (g.n, g.m) == (9, 18)
    assert all(g.degree(v) == 4 for v in range(9))


def test_hypercube_5():
    g = generate_named("hypercube", 5)
    assert (g.n, g.m) == (32, 80)


def test_paley_13():
    g = generate_named("paley", 13)
    assert (g.n, g.m) == (13, 39)
    assert all(g.degree(v) == 6 for v in range(13))


@pytest.mark.parametrize(
    "spec,params",
    [
        ("gq24", (27, 10, 1, 5)),
        ("clebsch", (16, 5, 0, 2)),
        ("kneser:7,2", (21, 10, 3, 6)),
        ("johnson:9,2", (36, 14, 7, 4)),
        ("rook:6", (36, 10, 4, 2)),
        ("paley:13", (13, 6, 2, 3)),
    ],
)
def test_strongly_regular_families(spec, params):
    # srg(v, k, lambda, mu) has intersection array {k, k - 1 - lambda; 1, mu}
    g = generate(parse_family_spec(spec))
    h = nx.Graph(g.edges)
    assert nx.is_strongly_regular(h)
    v, k, lam, mu = params
    assert g.n == v
    assert nx.intersection_array(h) == ([k, k - 1 - lam], [1, mu])


def test_gq24_common_neighbor_counts():
    # independent recount of the srg parameters straight from adjacency sets
    g = generate_named("gq24")
    for u, v in itertools.combinations(range(g.n), 2):
        common = len(g.adj[u] & g.adj[v])
        assert common == (1 if g.has_edge(u, v) else 5)


def test_gen_petersen():
    pet = generate_named("gen_petersen", 5, 2)
    assert (pet.n, pet.m) == (10, 15)
    mk = generate_named("gen_petersen", 8, 3)
    assert (mk.n, mk.m) == (16, 24)


def test_generate_is_deterministic():
    a = generate_named("kneser", 7, 2)
    b = generate_named("kneser", 7, 2)
    assert a.edges == b.edges


def test_generated_graphs_connected():
    for spec in ["path:6", "cycle:5", "complete:4", "complete_bipartite:2,3", "star:4",
                 "torus:3,4", "hypercube:4", "hamming:2,4", "gen_petersen:6,2",
                 "kneser:5,2", "johnson:5,2", "paley:13", "clebsch", "rook:3", "gq24"]:
        assert is_connected(generate(parse_family_spec(spec)))


@pytest.mark.parametrize(
    "spec",
    ["torus:2,5", "paley:12", "paley:9", "kneser:4,2", "gen_petersen:6,3",
     "cycle:2", "hamming:0,3", "unknown:1", "torus:3", "complete_bipartite:0,2"],
)
def test_invalid_family_specs(spec):
    with pytest.raises(GraphError):
        generate(parse_family_spec(spec))


def test_star_without_leaves_names_the_star():
    with pytest.raises(GraphError, match="^star needs >= 1 leaf$"):
        generate(parse_family_spec("star:0"))


def test_generate_named_checks_the_name_and_the_arity():
    # library callers reach generate without parse_family_spec's checks
    with pytest.raises(GraphError, match="unknown family 'petersen'; known: clebsch, complete"):
        generate_named("petersen")
    with pytest.raises(GraphError, match="family 'cycle' takes 1 parameter"):
        generate_named("cycle")


def test_family_labels():
    assert parse_family_spec("path:5").label() == "path:5"
    assert parse_family_spec("torus:3,4").label() == "torus:3-4"
    assert FamilySpec("clebsch").label() == "clebsch"


# -- graph6 ------------------------------------------------------------------

def test_graph6_k2():
    # hand decode: header 'A' = n 2, payload '_' = 32+63 -> bits 100000
    g = parse_graph6("A_")
    assert (g.n, g.edges) == (2, ((0, 1),))


def test_graph6_matches_reference_tool():
    rng = random.Random(5150)
    for _ in range(20):
        n = rng.randint(2, 12)
        g = build_graph(n, random_connected_graph(rng, n))
        mine = encode_graph6(g)
        gx = nx.Graph()
        gx.add_nodes_from(range(n))  # graph6 bits follow node order
        gx.add_edges_from(g.edges)
        ref = nx.to_graph6_bytes(gx, header=False).decode().strip()
        assert mine == ref
        back = parse_graph6(mine)
        assert back == g


def test_graph6_roundtrip_enumerated():
    for k in (2, 3, 4, 5):
        for g in connected_graphs_of_order(k):
            assert parse_graph6(encode_graph6(g)) == g


def test_graph6_truncated_payload():
    with pytest.raises(GraphError):
        parse_graph6("A")


def test_graph6_byte_out_of_range():
    with pytest.raises(GraphError, match="offset"):
        parse_graph6("A" + chr(30))


def test_graph6_header_prefix_accepted():
    assert parse_graph6(">>graph6<<A_").m == 1


def test_graph6_rejects_long_form():
    with pytest.raises(GraphError):
        parse_graph6(chr(126) + "???")


# -- enumeration ---------------------------------------------------------------

@pytest.mark.parametrize("k,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)])
def test_connected_counts(k, count):
    assert len(connected_graphs_of_order(k)) == count


def test_enumeration_rejects_large_order():
    with pytest.raises(GraphError):
        connected_graphs_of_order(8)


def test_order3_is_path_and_triangle():
    graphs = connected_graphs_of_order(3)
    assert sorted(g.m for g in graphs) == [2, 3]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_enumeration_exhaustive_small(k):
    # scan of all labeled graphs with permutation dedup must agree exactly
    expected = canonical_codes_of_order(k)
    got = {canonical_code(g) for g in connected_graphs_of_order(k)}
    assert got == expected


def test_enumeration_order6_matches_atlas():
    # networkx's atlas holds every graph of order at most 7
    expected = {
        canonical_code(build_graph(6, H.edges))
        for H in nx.graph_atlas_g()
        if H.number_of_nodes() == 6 and nx.is_connected(H)
    }
    assert len(expected) == 112
    assert {canonical_code(g) for g in connected_graphs_of_order(6)} == expected


def test_order5_pairwise_non_isomorphic():
    codes = [canonical_code(g) for g in connected_graphs_of_order(5)]
    assert len(set(codes)) == 21


def test_enumeration_sorted_by_edges_then_code():
    graphs = connected_graphs_of_order(5)
    keys = [(g.m, canonical_code(g)) for g in graphs]
    assert keys == sorted(keys)


@pytest.mark.parametrize("k", range(1, 7))
def test_enumeration_is_decoded_canonical_codes(k):
    # each graph is the decode of its own canonical code, in (m, code) order
    graphs = connected_graphs_of_order(k)
    keys = sorted((g.m, canonical_code(g)) for g in graphs)
    assert graphs == [graph_from_code(k, c) for _, c in keys]
