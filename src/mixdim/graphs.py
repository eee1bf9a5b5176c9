"""Graph container and the vertex-to-item distance table.

Vertices are labeled 0..n-1 and edges are numbered by their place in the
sorted edge list.  An item is a vertex or an edge, and items have one
numbering: vertex v is item v and edge e is item n + e.  distances(G) is
the n x (n + m) table of the distance from each vertex w to each item; the
distance from w to the edge uv is min(d(w,u), d(w,v)).
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

# distance-table entry of a vertex that BFS has not reached
_UNREACHED = np.iinfo(np.uint16).max


class GraphError(ValueError):
    """Invalid graph input: bad index, self-loop, malformed encoding or parameters."""


class DisconnectedGraphError(GraphError):
    """Distance computation requested on a graph with unreachable vertex pairs."""

    def __init__(self, u: int, v: int):
        super().__init__(f"graph is disconnected: no path joins vertices {u} and {v}")
        self.pair = (u, v)


class Graph:
    """Undirected simple graph with a canonical (sorted, deduplicated) edge list.

    Immutable after construction; safe for concurrent reads.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]], adj: Sequence[frozenset[int]]):
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(edges)
        self.adj: tuple[frozenset[int], ...] = tuple(adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def min_degree(self) -> int:
        return min(map(len, self.adj))

    @property
    def max_degree(self) -> int:
        return max(map(len, self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Validate and canonicalize: dedup edges, sort lexicographically, build adjacency.

    Raises GraphError on self-loops or out-of-range endpoints.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    seen: set[tuple[int, int]] = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u} is not allowed")
        seen.add((u, v) if u < v else (v, u))
    edges = sorted(seen)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n, edges, [frozenset(s) for s in nbrs])


def is_connected(G: Graph) -> bool:
    if G.n == 1:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in G.adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == G.n


def distances(G: Graph) -> np.ndarray:
    """The uint16 vertex-to-item distance table, one row per vertex and one
    column per item: its first n columns are the vertex distances and its
    maximum is the diameter.  BFS from every vertex; raises
    DisconnectedGraphError naming vertex 0 and the first vertex it does not
    reach.  A graph is connected when one vertex reaches all others, so only
    vertex 0's row is checked."""
    n = G.n
    dv = np.full((n, n), _UNREACHED, dtype=np.uint16)
    for src in range(n):
        dv[src, src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            du = dv[src, u]
            for w in G.adj[u]:
                if dv[src, w] == _UNREACHED:
                    dv[src, w] = du + 1
                    queue.append(w)
    unreached = np.nonzero(dv[0] == _UNREACHED)[0]
    if unreached.size:
        raise DisconnectedGraphError(0, int(unreached[0]))
    table = np.empty((n, n + G.m), dtype=np.uint16)
    table[:, :n] = dv
    ends = dv[:, np.array(G.edges, dtype=np.intp).reshape(-1, 2)]  # (n, m, 2)
    np.minimum(ends[:, :, 0], ends[:, :, 1], out=table[:, n:])
    return table
