"""Graph container, BFS distance tables and vertex-to-item distances.

Vertices are labeled 0..n-1.  An "item" is either a vertex or an edge; the
canonical item order is all vertices in ascending order followed by all
edges in sorted edge-list order.  The distance from a vertex w to an edge
uv is min(d(w,u), d(w,v)).
"""
from __future__ import annotations

import enum
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
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

    def edge_id(self, u: int, v: int) -> int:
        """Index of edge uv in the sorted edge list."""
        key = (u, v) if u < v else (v, u)
        i = bisect_left(self.edges, key)
        if self.edges[i : i + 1] != (key,):
            raise GraphError(f"no edge {key} in graph")
        return i

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


class ItemKind(enum.IntEnum):
    VERTEX = 0
    EDGE = 1


@dataclass(frozen=True, order=True)
class MixedItem:
    """A vertex or an edge, addressed by vertex index or edge-list index."""

    kind: ItemKind
    index: int

    @classmethod
    def vertex(cls, v: int) -> "MixedItem":
        return cls(ItemKind.VERTEX, v)

    @classmethod
    def edge(cls, edge_index: int) -> "MixedItem":
        return cls(ItemKind.EDGE, edge_index)


def item_to_flat(G: Graph, item: MixedItem) -> int:
    """Canonical flat item index: vertices first, then edges."""
    if item.kind is ItemKind.VERTEX:
        if not 0 <= item.index < G.n:
            raise GraphError(f"vertex index {item.index} out of range")
        return item.index
    if not 0 <= item.index < G.m:
        raise GraphError(f"edge index {item.index} out of range")
    return G.n + item.index


def flat_to_item(G: Graph, idx: int) -> MixedItem:
    if 0 <= idx < G.n:
        return MixedItem.vertex(idx)
    if G.n <= idx < G.n + G.m:
        return MixedItem.edge(idx - G.n)
    raise GraphError(f"flat item index {idx} out of range")


class DistanceOracle:
    """All-pairs hop distances plus derived vertex-to-item distances.

    dv[w][x] is the vertex distance, dmix[w][i] the distance from vertex w
    to flat item i (dmix[:, :n] equals dv, dmix[:, n+e] is the min over the
    endpoints of edge e).  Immutable after construction.
    """

    __slots__ = ("graph", "dv", "dmix", "diameter")

    def __init__(self, graph: Graph, dv: np.ndarray, dmix: np.ndarray):
        self.graph = graph
        self.dv = dv
        self.dmix = dmix
        self.diameter = int(dv.max()) if graph.n > 0 else 0


def distances(G: Graph) -> DistanceOracle:
    """BFS from every vertex; raises DisconnectedGraphError naming an unreachable pair."""
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
        unreached = np.nonzero(dv[src] == _UNREACHED)[0]
        if unreached.size:
            raise DisconnectedGraphError(src, int(unreached[0]))
    dmix = np.empty((n, n + G.m), dtype=np.uint16)
    dmix[:, :n] = dv
    ends = dv[:, np.array(G.edges, dtype=np.intp).reshape(-1, 2)]  # (n, m, 2)
    np.minimum(ends[:, :, 0], ends[:, :, 1], out=dmix[:, n:])
    return DistanceOracle(G, dv, dmix)


def item_distance(oracle: DistanceOracle, w: int, item: MixedItem) -> int:
    """Hop distance from vertex w to a vertex or edge item."""
    if not 0 <= w < oracle.graph.n:
        raise GraphError(f"vertex index {w} out of range")
    return int(oracle.dmix[w, item_to_flat(oracle.graph, item)])


def _check_landmarks(G: Graph, landmarks: Sequence[int]) -> None:
    """GraphError unless every landmark is a vertex of G: numpy would read
    -1 as the last vertex."""
    for w in landmarks:
        if not 0 <= w < G.n:
            raise GraphError(f"landmark vertex {w} outside 0..{G.n - 1}")


def resolving_vector(oracle: DistanceOracle, item: MixedItem, landmarks: Sequence[int]) -> tuple[int, ...]:
    """Distances from item to each landmark vertex, in landmark order."""
    if len(landmarks) == 0:
        raise GraphError("landmark list must be nonempty")
    if len(set(landmarks)) != len(landmarks):
        raise GraphError("landmark vertices must be distinct")
    _check_landmarks(oracle.graph, landmarks)
    col = item_to_flat(oracle.graph, item)
    return tuple(int(oracle.dmix[w, col]) for w in landmarks)
