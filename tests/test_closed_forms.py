"""Exact betaM against closed forms, past brute force and past 64 vertices.

Kelenc, Kuziak, Taranenko and Yero ("Mixed metric dimension of graphs",
Appl. Math. Comput. 314, 2017) give betaM of a tree (its number of
leaves), of a grid P_s x P_t (3), of a path (2), of a cycle (3) and of K_n
(n).  These graphs are solved at the first deepening level, so they test
soundness at every mask width, not speed.  Each witness is also checked
with the brute-force BFS of tests/bruteforce.py.
"""
import pytest
from hypothesis import example, given, settings, strategies as st

from mixdim import build_graph, generate_named, mixed_metric_dimension

from bruteforce import is_resolving


def _check(G, value):
    got, witness = mixed_metric_dimension(G)
    assert got == value
    assert len(witness) == value
    assert is_resolving(G.n, list(G.edges), witness)


# a tree on n vertices: vertex i > 0 hangs from one of the vertices before it
trees = st.integers(3, 200).flatmap(lambda n: st.tuples(*(st.integers(0, i - 1) for i in range(1, n))))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(trees)
@example(tuple((i - 1) // 2 for i in range(1, 200)))  # the binary heap on 200 vertices
def test_tree_has_one_landmark_per_leaf(parents):
    n = len(parents) + 1
    degree = [0] * n
    for i, p in enumerate(parents, 1):
        degree[i] += 1
        degree[p] += 1
    _check(build_graph(n, [(p, i) for i, p in enumerate(parents, 1)]), degree.count(1))


@pytest.mark.parametrize("s, t", [(2, 2), (2, 12), (3, 3), (3, 11), (4, 7), (5, 5), (6, 10), (8, 8), (9, 12), (12, 12)])
def test_grid_has_three(s, t):
    def v(i, j):
        return i * t + j

    edges = [(v(i, j), v(i, j + 1)) for i in range(s) for j in range(t - 1)]
    edges += [(v(i, j), v(i + 1, j)) for i in range(s - 1) for j in range(t)]
    _check(build_graph(s * t, edges), 3)


@pytest.mark.parametrize("n", [*range(3, 12), 65, 128, 200])
def test_path_has_two_and_cycle_three(n):
    _check(generate_named("path", n), 2)
    _check(generate_named("cycle", n), 3)


@pytest.mark.parametrize("n", range(3, 12))
def test_complete_graph_has_n(n):
    _check(generate_named("complete", n), n)
