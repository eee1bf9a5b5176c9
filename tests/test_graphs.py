import random

import numpy as np
import pytest

from mixdim.graphs import (
    DisconnectedGraphError,
    GraphError,
    ItemKind,
    MixedItem,
    build_graph,
    distances,
    flat_to_item,
    item_distance,
    item_to_flat,
    resolving_vector,
)
from mixdim.families import generate_named

from bruteforce import bfs_distances, random_connected_graph

FIG1_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]


def test_build_graph_canonical_form():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))


def test_build_graph_dedup_and_sort():
    g = build_graph(5, [(1, 0), (0, 1), (2, 1)])
    assert g.n == 5
    assert g.edges == ((0, 1), (1, 2))


def test_build_graph_rejects_self_loop():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 0)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 2)])


def test_distances_path3():
    o = distances(build_graph(3, [(0, 1), (1, 2)]))
    assert o.dv[0, 2] == 2
    assert item_distance(o, 2, MixedItem.edge(0)) == 1
    assert o.diameter == 2


def test_distances_fig1():
    g = build_graph(5, FIG1_EDGES)
    assert (distances(g).diameter, g.min_degree, g.max_degree) == (2, 2, 4)


def test_distances_torus44():
    o = distances(generate_named("torus", 4, 4))
    assert o.diameter == 4


@pytest.mark.parametrize("m,n", [(3, 3), (3, 6), (5, 4), (7, 7)])
def test_torus_diameter_formula(m, n):
    o = distances(generate_named("torus", m, n))
    assert o.diameter == m // 2 + n // 2


def test_disconnected_reports_pair():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError) as exc:
        distances(g)
    u, v = exc.value.pair
    assert {u, v} <= {0, 1, 2, 3}


def test_item_distance_incident_edge_is_zero():
    g = build_graph(5, FIG1_EDGES)
    o = distances(g)
    for idx, (u, v) in enumerate(g.edges):
        assert item_distance(o, u, MixedItem.edge(idx)) == 0
        assert item_distance(o, v, MixedItem.edge(idx)) == 0


def test_item_distance_c4():
    # frozen from the dict-BFS oracle: d(0, edge(2,3)) = min(2, 1) = 1
    g = generate_named("cycle", 4)
    o = distances(g)
    eid = g.edge_id(2, 3)
    dist = bfs_distances(4, g.edges)
    assert min(dist[2][0], dist[3][0]) == 1
    assert item_distance(o, 0, MixedItem.edge(eid)) == 1


def test_resolving_vector_examples():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    o = distances(p3)
    assert resolving_vector(o, MixedItem.vertex(1), [0, 2]) == (1, 1)
    assert resolving_vector(o, MixedItem.edge(0), [0, 2]) == (0, 1)
    c4 = generate_named("cycle", 4)
    oc = distances(c4)
    assert resolving_vector(oc, MixedItem.edge(c4.edge_id(1, 2)), [0, 3]) == (1, 1)


def test_edge_id_is_the_index_in_the_sorted_edge_list():
    g = generate_named("gen_petersen", 5, 2)
    for i, (u, v) in enumerate(g.edges):
        assert g.edge_id(u, v) == g.edge_id(v, u) == i
    # a missing edge before, between and past the edges
    for u, v in [(0, 2), (3, 0), (8, 9), (9, 9)]:
        assert not g.has_edge(u, v)
        with pytest.raises(GraphError, match="no edge"):
            g.edge_id(u, v)


def test_resolving_vector_rejects_bad_landmarks():
    o = distances(build_graph(3, [(0, 1), (1, 2)]))
    with pytest.raises(GraphError):
        resolving_vector(o, MixedItem.vertex(0), [])
    with pytest.raises(GraphError):
        resolving_vector(o, MixedItem.vertex(0), [1, 1])
    # numpy would read -1 as vertex 2 and 3 as an IndexError
    for bad in ([-1], [0, 3]):
        with pytest.raises(GraphError, match="outside 0..2"):
            resolving_vector(o, MixedItem.vertex(0), bad)


def test_item_order_and_flat_roundtrip():
    g = build_graph(3, [(0, 1), (1, 2)])
    items = [flat_to_item(g, i) for i in range(g.n + g.m)]
    assert items == sorted(items)
    assert [item_to_flat(g, it) for it in items] == list(range(5))
    assert items[0].kind is ItemKind.VERTEX and items[-1].kind is ItemKind.EDGE


def test_distance_invariants_random_graphs():
    rng = random.Random(1905)
    for _ in range(25):
        n = rng.randint(2, 9)
        edges = random_connected_graph(rng, n)
        g = build_graph(n, edges)
        o = distances(g)
        ref = np.array(bfs_distances(n, edges))
        assert (o.dv == ref).all()
        assert (o.dv == o.dv.T).all()
        assert (np.diag(o.dv) == 0).all()
        # triangle inequality
        dv = o.dv.astype(int)
        for w in range(n):
            assert (dv <= dv[:, [w]] + dv[[w], :]).all()
        for idx, (u, v) in enumerate(g.edges):
            assert abs(int(dv[0, u]) - int(dv[0, v])) <= 1
            assert (o.dmix[:, n + idx] == np.minimum(o.dv[:, u], o.dv[:, v])).all()
            assert (o.dmix[:, n + idx] <= o.dv[:, u]).all()


def test_vertex_in_landmarks_has_zero_coordinate():
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randint(2, 8)
        g = build_graph(n, random_connected_graph(rng, n))
        o = distances(g)
        S = rng.sample(range(n), rng.randint(1, n))
        for v in S:
            vec = resolving_vector(o, MixedItem.vertex(v), S)
            assert vec[S.index(v)] == 0
