"""Exact metric, edge metric and mixed metric dimension with witnesses,
plus the structural vertex rules that constrain mixed resolving sets.

A vertex w distinguishes items x, y when d(w,x) != d(w,y).  Each dimension
is the optimum of a hitting-set instance: one constraint per item pair,
listing the vertices that distinguish the pair.  The mixed search is
seeded with vertices that provably belong to every mixed resolving set
(members of true-twin pairs, simplicial vertices, hence also leaves) and
prunes vertices whose degree is too large for the candidate set size
(deg_v > 2^(k-1) - 1).  A GraphAnalysis holds what one graph's solves and
bounds share, so each is computed once.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cover import (
    CUTOFF_EXCEEDED,
    INFEASIBLE,
    OPTIMAL,
    TIMEOUT,
    CoverInstance,
    deadline_after,
    min_hitting_set,
)
from .graphs import DistanceOracle, Graph, GraphError, distances

VERTEX_PAIRS = "vertex"
EDGE_PAIRS = "edge"
MIXED_PAIRS = "mixed"

MAX_ENUMERATE_BASES_N = 10


class SolveTimeout(RuntimeError):
    """An exact dimension computation exceeded its time budget."""


def _item_columns(oracle: DistanceOracle, universe: str) -> list[int]:
    n = oracle.graph.n
    m = oracle.graph.m
    if universe == VERTEX_PAIRS:
        return list(range(n))
    if universe == EDGE_PAIRS:
        return list(range(n, n + m))
    if universe == MIXED_PAIRS:
        return list(range(n + m))
    raise ValueError(f"unknown pair universe {universe!r}")


def distinguisher_masks(oracle: DistanceOracle, universe: str) -> list[int]:
    """Bitmask of distinguishing vertices for every unordered item pair."""
    cols = _item_columns(oracle, universe)
    n = oracle.graph.n
    dm = oracle.dmix[:, cols]
    masks: list[int] = []
    if n <= 62:
        weights = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
        for a in range(len(cols) - 1):
            diff = dm[:, a + 1 :] != dm[:, a : a + 1]
            masks.extend((diff.astype(np.int64).T @ weights).tolist())
    else:
        for a in range(len(cols) - 1):
            diff = dm[:, a + 1 :] != dm[:, a : a + 1]
            for colbits in diff.T:
                mask = 0
                for w in np.nonzero(colbits)[0]:
                    mask |= 1 << int(w)
                masks.append(mask)
    return masks


def pair_cover_instance(
    oracle: DistanceOracle,
    universe: str = MIXED_PAIRS,
    forced=(),
    excluded=(),
) -> CoverInstance:
    """Hitting-set instance whose solutions are exactly the resolving sets
    of the chosen item universe.  Pairs no vertex distinguishes become empty
    sets and surface as an infeasibility verdict when solving."""
    masks = distinguisher_masks(oracle, universe)
    return CoverInstance.build(oracle.graph.n, masks=masks, forced=forced, excluded=excluded)


@dataclass(frozen=True)
class ForcedStructure:
    """Vertices every mixed resolving set must contain, plus twin pairs."""

    forced: frozenset[int]
    true_twin_pairs: tuple[tuple[int, int], ...]
    false_twin_pairs: tuple[tuple[int, int], ...]
    simplicial: frozenset[int]
    leaves: frozenset[int]


def forced_vertices(G: Graph) -> ForcedStructure:
    """Classify twins and simplicial vertices.

    True twins (equal closed neighborhoods) and simplicial vertices (the
    neighborhood induces a clique; degree-1 vertices are the special case)
    belong to every mixed resolving set; each false-twin pair (equal open
    neighborhoods) must be intersected.
    """
    n = G.n
    true_pairs = []
    false_pairs = []
    for u, v in itertools.combinations(range(n), 2):
        if G.adj[u] == G.adj[v]:
            false_pairs.append((u, v))
        elif (G.adj[u] | {u}) == (G.adj[v] | {v}):
            true_pairs.append((u, v))
    simplicial = frozenset(
        v
        for v in range(n)
        if all(G.has_edge(a, b) for a, b in itertools.combinations(sorted(G.adj[v]), 2))
    )
    leaves = frozenset(v for v in range(n) if G.degree(v) == 1)
    forced = frozenset(itertools.chain.from_iterable(true_pairs)) | simplicial
    return ForcedStructure(forced, tuple(true_pairs), tuple(false_pairs), simplicial, leaves)


def excluded_vertices(G: Graph, k: int) -> frozenset[int]:
    """Vertices that cannot sit in any mixed resolving set of size k:
    those with degree above 2^(k-1) - 1."""
    if k < 1:
        raise ValueError("candidate dimension must be >= 1")
    threshold = (1 << (k - 1)) - 1
    return frozenset(v for v in range(G.n) if G.degree(v) > threshold)


def forced_structure_lower_bound(G: Graph, fs: ForcedStructure | None = None) -> int:
    """Minimum size of a vertex set containing every forced vertex and
    meeting every false-twin pair (an exact tiny hitting set)."""
    fs = fs or forced_vertices(G)
    pairs = [1 << u | 1 << v for u, v in fs.false_twin_pairs]
    inst = CoverInstance.build(G.n, masks=pairs, forced=fs.forced)
    res = min_hitting_set(inst)
    assert res.status == OPTIMAL
    return res.size


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


class GraphAnalysis:
    """What the exact solves and the bounds of one graph share, computed
    once: the distance oracle, the distinguisher mask of every mixed item
    pair, the forced structure and the reduced mixed pair-cover instance.

    Vertex pairs and edge pairs are sub-families of the mixed pairs, so
    their instances are cut from mixed_masks instead of recomputed.
    """

    def __init__(self, G: Graph, oracle: DistanceOracle | None = None):
        self.graph = G
        self.oracle = oracle or distances(G)
        self.mixed_masks = distinguisher_masks(self.oracle, MIXED_PAIRS)
        self.forced = forced_vertices(G)
        # reduced without forced/excluded: the family of every deepening level
        self.mixed = CoverInstance.build(G.n, masks=self.mixed_masks)

    def pair_masks(self, universe: str) -> list[int]:
        """distinguisher_masks(self.oracle, universe), in the same order."""
        if universe == MIXED_PAIRS:
            return self.mixed_masks
        n = self.graph.n
        items = n + self.graph.m
        # mixed pairs (a, b), a < b, row by row: row a starts here
        start = [a * (2 * items - a - 1) // 2 for a in range(n + 1)]
        if universe == EDGE_PAIRS:
            return self.mixed_masks[start[n]:]
        if universe == VERTEX_PAIRS:
            rows = (self.mixed_masks[start[a] : start[a] + n - 1 - a] for a in range(n - 1))
            return list(itertools.chain.from_iterable(rows))
        raise ValueError(f"unknown pair universe {universe!r}")

    def instance(self, universe: str) -> CoverInstance:
        """The same instance as pair_cover_instance(self.oracle, universe)."""
        if universe == MIXED_PAIRS:
            return self.mixed
        return CoverInstance.build(self.graph.n, masks=self.pair_masks(universe))

    @cached_property
    def forced_lower_bound(self) -> int:
        return forced_structure_lower_bound(self.graph, self.forced)


def pair_dimension(inst: CoverInstance, universe: str, deadline: float | None) -> tuple[int, tuple[int, ...]]:
    """Optimum and lex-min witness of a pair-cover instance of the universe;
    raises SolveTimeout past the absolute time.monotonic() deadline."""
    if inst.num_sets == 0:
        # a single item resolves itself; by convention a generator is nonempty
        return 1, (0,)
    res = min_hitting_set(inst, deadline=deadline)
    if res.status == TIMEOUT:
        raise SolveTimeout(f"{universe} dimension solve timed out")
    assert res.status == OPTIMAL
    return res.size, res.witness


def metric_dimension(G: Graph, timeout: float | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact metric dimension and its lexicographically smallest basis."""
    if G.n < 2:
        raise GraphError("metric dimension needs at least 2 vertices")
    deadline = deadline_after(timeout)
    return pair_dimension(pair_cover_instance(distances(G), VERTEX_PAIRS), VERTEX_PAIRS, deadline)


def edge_metric_dimension(G: Graph, timeout: float | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact edge metric dimension and its lexicographically smallest basis."""
    if G.n < 2:
        raise GraphError("edge metric dimension needs at least 2 vertices")
    deadline = deadline_after(timeout)
    return pair_dimension(pair_cover_instance(distances(G), EDGE_PAIRS), EDGE_PAIRS, deadline)


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

    Deepening starts at the largest of the structural bounds and
    lower_bound, which must be a proven lower bound.  timeout is one budget
    for the whole call; deadline, an absolute time.monotonic() value,
    replaces it when a caller shares one budget across several solves.
    analysis, when given, must belong to G.
    """
    if G.n < 2:
        raise GraphError("mixed metric dimension needs at least 2 vertices")
    deadline = deadline if deadline is not None else deadline_after(timeout)
    a = analysis or GraphAnalysis(G)
    fs = a.forced
    k = max(2, 1 + _ceil_log2(a.oracle.min_degree + 1), a.forced_lower_bound, len(fs.forced), lower_bound)
    while k <= G.n:
        excl = excluded_vertices(G, k)
        if fs.forced & excl:
            k += 1
            continue
        inst = replace(a.mixed, forced=fs.forced, excluded=excl)
        res = min_hitting_set(inst, cutoff=k, lower_bound=k, deadline=deadline)
        if res.status == TIMEOUT:
            raise SolveTimeout("mixed dimension solve timed out")
        if res.status == OPTIMAL:
            return res.size, res.witness
        # CUTOFF_EXCEEDED, or INFEASIBLE when the level-k exclusion swallowed
        # a whole distinguisher set: either way no solution of size <= k exists
        assert res.status in (CUTOFF_EXCEEDED, INFEASIBLE)
        k += 1
    raise RuntimeError("internal error: no resolving set found up to n")


def is_resolving(oracle: DistanceOracle, landmarks, universe: str = MIXED_PAIRS) -> bool:
    """Direct check: are all item vectors over the landmarks distinct?"""
    S = list(landmarks)
    if not S:
        return False
    cols = _item_columns(oracle, universe)
    vecs = {tuple(int(oracle.dmix[w, c]) for w in S) for c in cols}
    return len(vecs) == len(cols)


def all_min_mixed_bases(G: Graph) -> list[tuple[int, ...]]:
    """Every minimum mixed resolving set, by exhaustive enumeration
    (guarded to n <= 10)."""
    if G.n > MAX_ENUMERATE_BASES_N:
        raise GraphError(
            f"exhaustive basis enumeration is limited to n <= {MAX_ENUMERATE_BASES_N}, got n={G.n}"
        )
    a = GraphAnalysis(G)
    size, _ = mixed_metric_dimension(G, analysis=a)
    return [
        comb
        for comb in itertools.combinations(range(G.n), size)
        if is_resolving(a.oracle, comb, MIXED_PAIRS)
    ]
