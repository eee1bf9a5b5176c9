"""Exact metric, edge metric and mixed metric dimension with witnesses,
plus the structural vertex rules that constrain mixed resolving sets.

A vertex w distinguishes items x, y when d(w,x) != d(w,y).  Each dimension
is the optimum of a hitting-set instance: one constraint per item pair,
the mask of the vertices that distinguish it (bit v for vertex v, the form
of every vertex set here).  The mixed search forces vertices that belong
to every mixed resolving set (members of true-twin classes and simplicial
vertices, hence leaves) and excludes those whose degree is too large for
the candidate size k (deg_v > 2^(k-1) - 1).  A GraphAnalysis holds what
one graph's solves and bounds share, computed once.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cover import (
    CUTOFF_EXCEEDED,
    INFEASIBLE,
    OPTIMAL,
    CoverInstance,
    deadline_after,
    min_hitting_set,
    min_hitting_set_size,
)
from .graphs import Graph, GraphError, distances
from .masks import mask_of, masks_of_columns
from .symmetry import GraphSymmetry


# distinguisher_masks compares about this many (vertex, pair) entries per
# block of pairs: few numpy calls, and temporaries small next to the masks
_PAIR_BLOCK_ENTRIES = 1 << 15


def _pair_number(a, b, items):
    """The number of the pair (a, b), a < b, among the pairs of the items
    0 .. items - 1 in row-major order; a and b are ints or numpy arrays."""
    return a * (2 * items - a - 1) // 2 + b - a - 1


def distinguisher_masks(table: np.ndarray) -> list[int]:
    """Bitmask of distinguishing vertices for every unordered item pair of
    the distance table (graphs.distances), pairs (a, b), a < b, in
    row-major order (_pair_number)."""
    # one row of distances per item: a block gathers whole rows
    dm = np.ascontiguousarray(table.T)
    items, n = dm.shape
    rows = np.arange(items)
    starts = _pair_number(rows, rows + 1, items)  # pair number of (a, a + 1)
    shift = rows + 1 - starts  # b - pair number, on row a
    total = items * (items - 1) // 2
    block = max(1, _PAIR_BLOCK_ENTRIES // n)
    masks: list[int] = []
    for lo in range(0, total, block):
        pairs = np.arange(lo, min(lo + block, total))
        # row a of a pair: the rows past 0 that start at or before it
        a = starts[1:].searchsorted(pairs, side="right")
        masks.extend(masks_of_columns((dm[a] != dm[pairs + shift[a]]).T))
    return masks


@dataclass(frozen=True)
class ForcedStructure:
    """Vertices every mixed resolving set must contain, and the twin
    classes, all as masks.  A twin class holds two or more vertices with
    equal closed (true_twins) or equal open (false_twins) neighbourhoods;
    each kind is in ascending order of the classes' lowest vertices."""

    forced: int
    true_twins: tuple[int, ...]
    false_twins: tuple[int, ...]
    simplicial: int
    leaves: int


def forced_vertices(G: Graph) -> ForcedStructure:
    """Classify twins and simplicial vertices.

    True twins (equal closed neighborhoods) and simplicial vertices (the
    neighborhood induces a clique; degree-1 vertices are the special case)
    belong to every mixed resolving set; a mixed resolving set misses at
    most one vertex of each false-twin class (equal open neighborhoods).
    """
    open_masks = [0] * G.n
    for u, v in G.edges:
        open_masks[u] |= 1 << v
        open_masks[v] |= 1 << u
    closed_masks = [m | 1 << v for v, m in enumerate(open_masks)]
    # no pair has both equal open and equal closed neighbourhoods: u would
    # be its own neighbour
    false_twins = _classes_of_equal(open_masks)
    true_twins = _classes_of_equal(closed_masks)
    simplicial = leaves = 0
    for v, nbrs in enumerate(G.adj):
        # N(v) is a clique when every neighbour a sees all of N[v]
        for a in nbrs:
            if closed_masks[v] & ~closed_masks[a]:
                break
        else:
            simplicial |= 1 << v
        if len(nbrs) == 1:
            leaves |= 1 << v
    forced = sum(true_twins) | simplicial  # the classes are disjoint
    return ForcedStructure(forced, true_twins, false_twins, simplicial, leaves)


def _classes_of_equal(masks: list[int]) -> tuple[int, ...]:
    """The mask of each class of two or more vertices v with equal
    masks[v], in ascending order of the classes' lowest vertices."""
    classes: dict[int, int] = {}
    for v, m in enumerate(masks):
        classes[m] = classes.get(m, 0) | 1 << v
    return tuple(c for c in classes.values() if c & (c - 1))


def excluded_vertices(G: Graph, k: int) -> int:
    """The mask of the vertices that cannot sit in any mixed resolving set
    of size k: those with degree above 2^(k-1) - 1."""
    if k < 1:
        raise ValueError("candidate dimension must be >= 1")
    threshold = (1 << (k - 1)) - 1
    return mask_of(v for v, nbrs in enumerate(G.adj) if len(nbrs) > threshold)


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


class GraphAnalysis:
    """What the exact solves and the bounds of one graph share, each field
    computed on first use: the distance table, the automorphism group
    that proves the exact values, the forced structure, the distinguisher
    mask of every mixed item pair, the reduced pair-cover instances of
    the mixed, vertex and edge pairs and N2's edge side sets.

    Vertex pairs, edge pairs and the side sets are sub-families of the
    mixed pairs, so vertex_pairs, edge_pairs and edge_sides are cut from
    mixed_masks instead of recomputed: the side set of u in the edge
    e = uv is the mixed pair (v, e).  Each pair instance's original_masks
    are its pairs' masks in distinguisher_masks order.
    """

    def __init__(self, G: Graph):
        self.graph = G

    @cached_property
    def table(self) -> np.ndarray:
        """distances(self.graph), the vertex-to-item distance table."""
        return distances(self.graph)

    @cached_property
    def symmetry(self) -> GraphSymmetry:
        """The orbits of the graph's automorphism group and of its
        stabilizers, each found on first use and kept."""
        return GraphSymmetry(self.graph, self.table)

    @cached_property
    def forced(self) -> ForcedStructure:
        return forced_vertices(self.graph)

    @cached_property
    def mixed_masks(self) -> tuple[int, ...]:
        """distinguisher_masks(self.table), in the same order."""
        return tuple(distinguisher_masks(self.table))

    @cached_property
    def mixed(self) -> CoverInstance:
        """The mixed pair-cover instance, reduced without forced or
        excluded vertices: the family of every deepening level.  Pairs no
        vertex distinguishes become empty sets and surface as an
        infeasibility verdict when solving."""
        # a tuple is kept as the instance's original_masks without a copy
        return CoverInstance.build(self.graph.n, self.mixed_masks)

    @cached_property
    def vertex_pairs(self) -> CoverInstance:
        """The instance whose solutions are the resolving sets: the first
        n - 1 - a pairs of each row a of the mixed pairs (a, b), a < b."""
        n, items = self.graph.n, self.graph.n + self.graph.m
        family = []
        for a in range(n - 1):
            start = _pair_number(a, a + 1, items)
            family.extend(self.mixed_masks[start : start + n - 1 - a])
        return CoverInstance.build(n, tuple(family))

    @cached_property
    def edge_pairs(self) -> CoverInstance:
        """The instance whose solutions are the edge resolving sets: the
        mixed pairs from (n, n + 1) on, those of two edges."""
        n = self.graph.n
        return CoverInstance.build(n, self.mixed_masks[_pair_number(n, n + 1, n + self.graph.m) :])

    @cached_property
    def edge_sides(self) -> CoverInstance:
        """N2's instance: for each edge e = uv of graph.edges (u < v, item
        n + i) the vertices strictly closer to u, then for each edge those
        strictly closer to v, that is the mixed pairs (v, e), then (u, e)."""
        n, edges = self.graph.n, self.graph.edges
        sides = [_pair_number(e[end], n + i, n + len(edges)) for end in (1, 0) for i, e in enumerate(edges)]
        return CoverInstance.build(n, [self.mixed_masks[p] for p in sides])

    @cached_property
    def forced_lower_bound(self) -> int:
        """L3, the minimum size of a vertex set containing every forced
        vertex and meeting every false-twin pair: |F| + sum over C of
        max(0, |C \\ F| - 1), F the forced set and C the false-twin
        classes.  A set meets every pair of C exactly when it misses at
        most one vertex of C, and the classes are disjoint."""
        F = self.forced.forced
        return F.bit_count() + sum(max(0, (c & ~F).bit_count() - 1) for c in self.forced.false_twins)


def _pair_dimension(
    a: GraphAnalysis, inst: CoverInstance, solve, deadline: float | None
) -> tuple[int, tuple[int, ...] | None]:
    """(size, witness) of solve, min_hitting_set or min_hitting_set_size,
    on inst, one of a's pair-cover instances, proved with the graph's
    automorphism orbits; raises SolveTimeout past the absolute
    time.monotonic() deadline."""
    if not inst.masks:
        # a single item resolves itself; by convention a generator is nonempty
        return 1, (0,)
    res = solve(inst, deadline=deadline, sym=a.symmetry)
    assert res.status == OPTIMAL
    return res.size, res.witness


def metric_dimension(G: Graph, timeout: float | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact metric dimension and its lexicographically smallest basis."""
    if G.n < 2:
        raise GraphError("metric dimension needs at least 2 vertices")
    a = GraphAnalysis(G)
    return _pair_dimension(a, a.vertex_pairs, min_hitting_set, deadline_after(timeout))


def edge_metric_dimension(G: Graph, timeout: float | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact edge metric dimension and its lexicographically smallest basis."""
    if G.n < 2:
        raise GraphError("edge metric dimension needs at least 2 vertices")
    a = GraphAnalysis(G)
    return _pair_dimension(a, a.edge_pairs, min_hitting_set, deadline_after(timeout))


def mixed_metric_dimension(
    G: Graph,
    timeout: float | None = None,
    analysis: GraphAnalysis | None = None,
    deadline: float | None = None,
    lower_bound: int = 0,
) -> tuple[int, tuple[int, ...]]:
    """Exact mixed metric dimension and its lexicographically smallest basis.

    Iterative deepening on the candidate size k: each level forces the
    structurally mandatory vertices, excludes vertices with
    deg_v > 2^(k-1) - 1 (sound for solutions of size <= k) and solves the
    pair-cover instance with cutoff k.  The first feasible level is the
    optimum because exclusion thresholds only relax as k grows.  The
    reduced family is built once; levels differ only in forced/excluded.
    Each level is one min_hitting_set call with cutoff k, its verdict
    proved with the graph's automorphism orbits; the witness is the lex-min
    cover of size k.

    Deepening starts at the largest of N1, L3 and lower_bound, which must
    be a proven lower bound.  timeout is one budget for the whole call;
    deadline, an absolute time.monotonic() value, replaces it when a
    caller shares one budget across several solves.  analysis, when given,
    must belong to G.
    """
    if G.n < 2:
        raise GraphError("mixed metric dimension needs at least 2 vertices")
    deadline = deadline if deadline is not None else deadline_after(timeout)
    a = analysis or GraphAnalysis(G)
    k = max(1 + _ceil_log2(G.min_degree + 1), a.forced_lower_bound, lower_bound)
    while k <= G.n:
        excl = excluded_vertices(G, k)
        if a.forced.forced & excl:
            k += 1
            continue
        inst = replace(a.mixed, forced=a.forced.forced, excluded=excl)
        res = min_hitting_set(inst, cutoff=k, lower_bound=k, deadline=deadline, sym=a.symmetry)
        if res.status == OPTIMAL:
            return res.size, res.witness
        # CUTOFF_EXCEEDED, or INFEASIBLE when the level-k exclusion swallowed
        # a whole distinguisher set: either way no solution of size <= k exists
        assert res.status in (CUTOFF_EXCEEDED, INFEASIBLE)
        k += 1
    raise RuntimeError("internal error: no resolving set found up to n")


def exact_dimensions(
    G: Graph,
    analysis: GraphAnalysis | None = None,
    deadline: float | None = None,
    lower_bound: int = 0,
) -> tuple[int, int, int, tuple[int, ...]]:
    """(beta, betaE, betaM, lex-min mixed basis) of G, all three solves
    under one absolute time.monotonic() deadline.

    beta and betaE are solved for their values only, proved with the
    graph's automorphism orbits.  Every mixed resolving set resolves the
    vertices and the edges, so betaM >= max(beta, betaE): the mixed
    deepening starts there, or at lower_bound (a proven bound on betaM)
    when that is larger.  analysis, when given, must belong to G.
    """
    if G.n < 2:
        raise GraphError("exact dimensions need at least 2 vertices")
    a = analysis or GraphAnalysis(G)
    beta = _pair_dimension(a, a.vertex_pairs, min_hitting_set_size, deadline)[0]
    beta_e = _pair_dimension(a, a.edge_pairs, min_hitting_set_size, deadline)[0]
    start = max(lower_bound, beta, beta_e)
    beta_m, witness = mixed_metric_dimension(G, analysis=a, deadline=deadline, lower_bound=start)
    if beta_m < start:
        raise RuntimeError("internal error: mixed dimension below a proven lower bound")
    return beta, beta_e, beta_m, witness


def verify_mixed_resolving(G: Graph, landmarks, table: np.ndarray | None = None) -> tuple[int, int] | None:
    """None when every vertex and edge has a distinct distance vector over
    the landmarks; otherwise the first colliding item pair (a, b), a < b,
    as item numbers: b is the first item whose vector repeats, a the first
    item with that vector.  table, when given, is distances(G).  An empty
    landmark set, or a landmark that is not a vertex of G, is a GraphError:
    numpy would read -1 as the last vertex."""
    S = list(landmarks)
    if not S:
        raise GraphError("landmark set must be nonempty")
    for w in S:
        if not 0 <= w < G.n:
            raise GraphError(f"landmark vertex {w} outside 0..{G.n - 1}")
    table = table if table is not None else distances(G)
    seen: dict[tuple[int, ...], int] = {}
    for item, vec in enumerate(map(tuple, table[S].T.tolist())):
        if vec in seen:
            return seen[vec], item
        seen[vec] = item
    return None
