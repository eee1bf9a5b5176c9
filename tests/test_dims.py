import random

import pytest

from mixdim.cover import min_hitting_set
from mixdim.dims import (
    EDGE_PAIRS,
    MIXED_PAIRS,
    VERTEX_PAIRS,
    GraphAnalysis,
    all_min_mixed_bases,
    distinguisher_masks,
    edge_metric_dimension,
    excluded_vertices,
    forced_vertices,
    is_resolving,
    metric_dimension,
    mixed_metric_dimension,
    pair_cover_instance,
)
from mixdim.families import generate_named, parse_graph6
from mixdim.graphs import GraphError, build_graph, distances

from bruteforce import min_dimension, random_connected_graph

FIG1_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]


def fig1():
    return build_graph(5, FIG1_EDGES)


def test_pair_instance_p3_mixed():
    inst = pair_cover_instance(distances(build_graph(3, [(0, 1), (1, 2)])), MIXED_PAIRS)
    assert all(s for s in inst.sets)
    assert min_hitting_set(inst).size == 2


def test_pair_instance_k2_vertex():
    inst = pair_cover_instance(distances(parse_graph6("A_")), VERTEX_PAIRS)
    assert inst.original_sets == (frozenset({0, 1}),)


def test_pair_instance_c4_mixed():
    # frozen from exhaustive enumeration over all vertex subsets of C4
    g = generate_named("cycle", 4)
    assert min_dimension(4, g.edges, "mixed")[0] == 3
    assert min_hitting_set(pair_cover_instance(distances(g))).size == 3


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
    assert fs.forced == frozenset(range(5))
    assert fs.simplicial == frozenset(range(5))


def test_forced_vertices_star():
    fs = forced_vertices(generate_named("star", 4))
    assert fs.forced == frozenset({1, 2, 3, 4})
    assert fs.leaves == frozenset({1, 2, 3, 4})


def test_forced_vertices_fig1():
    fs = forced_vertices(fig1())
    assert fs.forced == frozenset(range(5))
    assert fs.true_twin_pairs == ((1, 2),)
    assert fs.simplicial == frozenset({0, 3, 4})
    # a pair is never classified as both kinds of twin
    assert not set(fs.true_twin_pairs) & set(fs.false_twin_pairs)


def test_excluded_vertices_path5():
    g = generate_named("path", 5)
    assert excluded_vertices(g, 2) == frozenset({1, 2, 3})


def test_excluded_vertices_threshold_above_max_degree():
    g = fig1()
    k = 1 + (distances(g).max_degree + 1).bit_length()
    assert excluded_vertices(g, k) == frozenset()
    assert excluded_vertices(g, 3) == frozenset({1, 2})


def test_all_min_mixed_bases_examples():
    assert all_min_mixed_bases(build_graph(3, [(0, 1), (1, 2)])) == [(0, 2)]
    assert all_min_mixed_bases(fig1()) == [(0, 1, 2, 3, 4)]
    assert all_min_mixed_bases(generate_named("complete", 3)) == [(0, 1, 2)]


def test_all_min_mixed_bases_scale_guard():
    with pytest.raises(GraphError):
        all_min_mixed_bases(generate_named("cycle", 11))


def test_dimensions_match_enumeration_on_random_graphs():
    rng = random.Random(6174)
    for _ in range(12):
        n = rng.randint(3, 7)
        edges = random_connected_graph(rng, n)
        g = build_graph(n, edges)
        for universe, solver in (
            (VERTEX_PAIRS, metric_dimension),
            (EDGE_PAIRS, edge_metric_dimension),
            (MIXED_PAIRS, mixed_metric_dimension),
        ):
            if universe == EDGE_PAIRS and g.m < 2:
                continue
            expected_size, expected_witnesses = min_dimension(n, edges, universe)
            size, witness = solver(g)
            assert size == expected_size
            assert witness == min(expected_witnesses)


def test_witness_is_resolving_and_superset_closed():
    rng = random.Random(4242)
    for _ in range(10):
        n = rng.randint(3, 8)
        g = build_graph(n, random_connected_graph(rng, n))
        oracle = distances(g)
        size, witness = mixed_metric_dimension(g)
        assert is_resolving(oracle, witness, MIXED_PAIRS)
        extra = [v for v in range(n) if v not in witness]
        if extra:
            assert is_resolving(oracle, list(witness) + [extra[0]], MIXED_PAIRS)


def test_disconnected_rejected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        mixed_metric_dimension(g)


def test_analysis_sub_families_match_pair_instances():
    rng = random.Random(23)
    graphs = [fig1(), generate_named("gen_petersen", 5, 2), generate_named("path", 2)]
    for n in [rng.randint(2, 12) for _ in range(20)]:
        graphs.append(build_graph(n, random_connected_graph(rng, n)))
    for g in graphs:
        oracle = distances(g)
        a = GraphAnalysis(g, oracle)
        for universe in (VERTEX_PAIRS, EDGE_PAIRS, MIXED_PAIRS):
            assert a.pair_masks(universe) == distinguisher_masks(oracle, universe)
            want = pair_cover_instance(oracle, universe)
            got = a.instance(universe)
            assert got == want
            assert got.original_sets == want.original_sets
