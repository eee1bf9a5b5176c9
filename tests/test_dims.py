import functools
import itertools
import random
import tracemalloc

import networkx as nx

import pytest

import mixdim.cover as cover
from mixdim.cover import min_hitting_set
from mixdim.dims import (
    GraphAnalysis,
    edge_metric_dimension,
    excluded_vertices,
    forced_vertices,
    metric_dimension,
    mixed_metric_dimension,
    verify_mixed_resolving,
)
from mixdim.families import FamilySpec, generate, generate_named, parse_graph6
from mixdim.graphs import GraphError, build_graph, distances
from mixdim.masks import bits_of
from mixdim.tables import SELECTED_GRAPHS

from bruteforce import (
    item_vectors,
    lex_min_resolving_set,
    min_dimension,
    random_connected_graph,
    reference_forced_vertices,
)

FIG1_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]


def fig1():
    return build_graph(5, FIG1_EDGES)


def test_pair_instance_p3_mixed():
    inst = GraphAnalysis(build_graph(3, [(0, 1), (1, 2)])).mixed
    assert all(inst.masks)
    assert min_hitting_set(inst).size == 2


def test_pair_instance_k2_vertex():
    inst = GraphAnalysis(parse_graph6("A_")).vertex_pairs
    assert inst.original_masks == (0b11,)


def test_pair_instance_c4_mixed():
    # frozen from exhaustive enumeration over all vertex subsets of C4
    g = generate_named("cycle", 4)
    assert min_dimension(4, g.edges, "mixed")[0] == 3
    assert min_hitting_set(GraphAnalysis(g).mixed).size == 3


def test_fig1_dimensions():
    g = fig1()
    assert metric_dimension(g)[0] == 3
    assert edge_metric_dimension(g)[0] == 4
    size, witness = mixed_metric_dimension(g)
    assert (size, witness) == (5, (0, 1, 2, 3, 4))


def test_petersen_dimensions():
    g = generate_named("gen_petersen", 5, 2)
    assert metric_dimension(g)[0] == 3
    assert edge_metric_dimension(g)[0] == 4
    assert mixed_metric_dimension(g)[0] == 6


@pytest.mark.parametrize("n", range(2, 9))
def test_paths_mixed_dimension_two(n):
    g = generate_named("path", n)
    size, witness = mixed_metric_dimension(g)
    assert size == 2
    assert witness == (0, n - 1)  # the two leaves


def test_forced_vertices_complete():
    fs = forced_vertices(generate_named("complete", 5))
    assert fs.forced == 0b11111
    assert fs.simplicial == 0b11111


def test_forced_vertices_star():
    fs = forced_vertices(generate_named("star", 4))
    assert fs.forced == 0b11110
    assert fs.leaves == 0b11110


def _twin_pairs(classes):
    """Every pair (u, v), u < v, of one twin class, in lexicographic order."""
    return tuple(sorted(pair for c in classes for pair in itertools.combinations(bits_of(c), 2)))


def test_forced_vertices_fig1():
    fs = forced_vertices(fig1())
    assert fs.forced == 0b11111
    assert fs.true_twins == (0b110,)
    assert _twin_pairs(fs.true_twins) == ((1, 2),)
    assert fs.simplicial == 0b11001
    # a pair is never classified as both kinds of twin
    assert not set(_twin_pairs(fs.true_twins)) & set(_twin_pairs(fs.false_twins))


def test_forced_vertices_match_pairwise_reference():
    # every connected graph of order at most 7 (networkx's atlas) and every
    # selected graph: the twin classes hold the pairwise definition's
    # pairs, pair order included, and the other fields are its own.  Each
    # kind of class is in ascending order of its lowest vertex, and a
    # vertex is in at most one class of each kind
    graphs = [
        build_graph(H.number_of_nodes(), H.edges)
        for H in nx.graph_atlas_g()
        if H.number_of_nodes() and nx.is_connected(H)
    ]
    assert len(graphs) == 996
    graphs += [generate(sel.family) for sel in SELECTED_GRAPHS if sel.family is not None]
    for G in graphs:
        fs = forced_vertices(G)
        got = (fs.forced, _twin_pairs(fs.true_twins), _twin_pairs(fs.false_twins), fs.simplicial, fs.leaves)
        assert got == reference_forced_vertices(G.n, G.edges), G.edges
        for classes in (fs.true_twins, fs.false_twins):
            assert all(c.bit_count() >= 2 for c in classes), G.edges
            lowest = [c & -c for c in classes]
            assert lowest == sorted(lowest), G.edges
            assert sum(classes) == functools.reduce(int.__or__, classes, 0), G.edges


def test_excluded_vertices_path5():
    g = generate_named("path", 5)
    assert excluded_vertices(g, 2) == 0b01110


def test_excluded_vertices_threshold_above_max_degree():
    g = fig1()
    k = 1 + (g.max_degree + 1).bit_length()
    assert excluded_vertices(g, k) == 0
    assert excluded_vertices(g, 3) == 0b110


def test_min_mixed_bases_examples():
    # each graph has one minimum mixed basis, by exhaustive enumeration
    for g, basis in (
        (build_graph(3, [(0, 1), (1, 2)]), (0, 2)),
        (fig1(), (0, 1, 2, 3, 4)),
        (generate_named("complete", 3), (0, 1, 2)),
    ):
        assert min_dimension(g.n, list(g.edges)) == (len(basis), [basis])
        assert mixed_metric_dimension(g) == (len(basis), basis)


def test_dimensions_match_enumeration_on_random_graphs():
    rng = random.Random(6174)
    for _ in range(12):
        n = rng.randint(3, 7)
        edges = random_connected_graph(rng, n)
        g = build_graph(n, edges)
        for universe, solver in (
            ("vertex", metric_dimension),
            ("edge", edge_metric_dimension),
            ("mixed", mixed_metric_dimension),
        ):
            if universe == "edge" and g.m < 2:
                continue
            expected_size, expected_witnesses = min_dimension(n, edges, universe)
            size, witness = solver(g)
            assert size == expected_size
            assert witness == min(expected_witnesses)


@functools.cache
def _brute_lex_min(spec, universe):
    G = generate(spec)
    return lex_min_resolving_set(G.n, list(G.edges), universe)


# each has at least 12 free vertices, so the size proofs and witness passes
# of its vertex and edge families branch on automorphism orbits
ORBIT_SPLIT_GRAPHS = (FamilySpec("clebsch"), FamilySpec("gen_petersen", (8, 3)), FamilySpec("paley", (13,)))


@pytest.mark.parametrize("spec", ORBIT_SPLIT_GRAPHS, ids=FamilySpec.label)
def test_orbit_split_dimensions_match_brute_force(spec, backend, monkeypatch):
    splits = []
    split = cover._split

    def counted(*args):
        out = split(*args)
        splits.append(out is not None)
        return out

    monkeypatch.setattr(cover, "_split", counted)
    G = generate(spec)
    for universe, solver in (("vertex", metric_dimension), ("edge", edge_metric_dimension)):
        splits.clear()
        assert solver(G) == _brute_lex_min(spec, universe)
        assert any(splits), universe


def test_witness_is_resolving_and_superset_closed():
    rng = random.Random(4242)
    for _ in range(10):
        n = rng.randint(3, 8)
        g = build_graph(n, random_connected_graph(rng, n))
        table = distances(g)
        size, witness = mixed_metric_dimension(g)
        assert verify_mixed_resolving(g, witness, table) is None
        extra = [v for v in range(n) if v not in witness]
        if extra:
            assert verify_mixed_resolving(g, list(witness) + [extra[0]], table) is None
        # the mixed dimension is at least 2, and fewer landmarks cannot resolve
        assert verify_mixed_resolving(g, witness[1:], table) is not None
    with pytest.raises(GraphError):
        verify_mixed_resolving(fig1(), [])


def test_verify_mixed_resolving_rejects_out_of_range_landmarks():
    # numpy would read -1 as vertex 4, a collision, and 7 as an IndexError
    c5 = generate_named("cycle", 5)
    assert verify_mixed_resolving(c5, [4, 0]) is not None
    for bad in ([-1, 0], [7], [0, 5]):
        with pytest.raises(GraphError, match="outside 0..4"):
            verify_mixed_resolving(c5, bad)


def test_verify_mixed_resolving_matches_enumeration():
    # the first item whose vector repeats, paired with that vector's first item
    rng = random.Random(77)
    for _ in range(15):
        n = rng.randint(2, 7)
        g = build_graph(n, random_connected_graph(rng, n))
        table = distances(g)
        for k in range(1, n + 1):
            for comb in itertools.combinations(range(n), k):
                vecs = item_vectors(n, g.edges, comb)
                first = next(((vecs.index(v), j) for j, v in enumerate(vecs) if vecs.index(v) < j), None)
                assert verify_mixed_resolving(g, comb, table) == first


def test_disconnected_rejected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        mixed_metric_dimension(g)


@pytest.mark.parametrize(("name", "params", "peak"), [("johnson", (9, 2), 2_697_600), ("rook", (6,), 1_456_000)])
def test_analysis_memory_peak(name, params, peak):
    # tracemalloc peak, in bytes, of one graph's analysis when the pair
    # masks were built one item row at a time (CPython 3.11, numpy 2.4):
    # the temporaries of a block of pairs must stay small next to the
    # masks, or they add to the benchmark's peak RSS
    G = generate_named(name, *params)
    tracemalloc.start()
    try:
        GraphAnalysis(G).mixed
        got = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got <= 1.05 * peak
