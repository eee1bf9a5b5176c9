import random

import numpy as np
import pytest

from mixdim.graphs import DisconnectedGraphError, GraphError, build_graph, distances
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
    t = distances(build_graph(3, [(0, 1), (1, 2)]))
    assert (t.shape, t.dtype) == ((3, 5), np.uint16)
    assert t[0, 2] == 2
    assert t[2, 3] == 1  # item 3 is edge 0, (0, 1)
    assert t.max() == 2


def test_distances_fig1():
    g = build_graph(5, FIG1_EDGES)
    assert (distances(g).max(), g.min_degree, g.max_degree) == (2, 2, 4)


def test_distances_torus44():
    assert distances(generate_named("torus", 4, 4)).max() == 4


@pytest.mark.parametrize("m,n", [(3, 3), (3, 6), (5, 4), (7, 7)])
def test_torus_diameter_formula(m, n):
    assert distances(generate_named("torus", m, n)).max() == m // 2 + n // 2


def test_disconnected_reports_pair():
    # the pair is vertex 0 and the first vertex it does not reach
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError) as exc:
        distances(g)
    assert exc.value.pair == (0, 2)


def test_disconnected_isolated_vertex_zero():
    g = build_graph(4, [(1, 2), (2, 3)])
    with pytest.raises(DisconnectedGraphError) as exc:
        distances(g)
    assert exc.value.pair == (0, 1)


def test_item_distance_incident_edge_is_zero():
    g = build_graph(5, FIG1_EDGES)
    t = distances(g)
    for idx, (u, v) in enumerate(g.edges):
        assert t[u, g.n + idx] == t[v, g.n + idx] == 0


def test_item_distance_c4():
    # frozen from the dict-BFS oracle: d(0, edge(2,3)) = min(2, 1) = 1
    g = generate_named("cycle", 4)
    eid = g.edges.index((2, 3))
    dist = bfs_distances(4, g.edges)
    assert min(dist[2][0], dist[3][0]) == 1
    assert distances(g)[0, g.n + eid] == 1


def test_resolving_vector_examples():
    # the vector of an item over landmarks S is the item's column read at S
    p3 = build_graph(3, [(0, 1), (1, 2)])
    t = distances(p3)
    assert t[[0, 2], 1].tolist() == [1, 1]
    assert t[[0, 2], 3].tolist() == [0, 1]  # edge (0, 1)
    c4 = generate_named("cycle", 4)
    assert distances(c4)[[0, 3], 4 + c4.edges.index((1, 2))].tolist() == [1, 1]


def test_distance_invariants_random_graphs():
    rng = random.Random(1905)
    for _ in range(25):
        n = rng.randint(2, 9)
        edges = random_connected_graph(rng, n)
        g = build_graph(n, edges)
        t = distances(g)
        assert t.shape == (n, n + g.m)
        ref = np.array(bfs_distances(n, edges))
        assert (t[:, :n] == ref).all()
        assert (t[:, :n] == t[:, :n].T).all()
        assert (np.diag(t) == 0).all()
        # triangle inequality
        dv = t[:, :n].astype(int)
        for w in range(n):
            assert (dv <= dv[:, [w]] + dv[[w], :]).all()
        for idx, (u, v) in enumerate(g.edges):
            assert abs(int(dv[0, u]) - int(dv[0, v])) <= 1
            assert (t[:, n + idx] == np.minimum(t[:, u], t[:, v])).all()
            assert (t[:, n + idx] <= t[:, u]).all()


def test_vertex_in_landmarks_has_zero_coordinate():
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randint(2, 8)
        g = build_graph(n, random_connected_graph(rng, n))
        t = distances(g)
        S = rng.sample(range(n), rng.randint(1, n))
        for v in S:
            vec = t[S, v].tolist()
            assert vec[S.index(v)] == 0
