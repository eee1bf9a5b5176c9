"""Vertex orbits of a graph's automorphism group, and orbital branching for
the exact solves' optimality proofs.

Orbits are found by colour refinement and individualization (McKay and
Piperno, "Practical graph isomorphism II", 2014).  A colouring is refined
with distance profiles until it is equitable: two vertices keep one colour
only while they see the same number of vertices of each colour at each
distance.  Refinement is label-free, so every automorphism maps each cell of
the equitable colouring onto itself and the orbits lie inside the cells.
Two vertices of one cell join an orbit only after individualizing them and
refining both sides down to a permutation that is_automorphism accepts.  A
merge that the bounded search misses leaves the orbits finer than Aut(G)'s,
which costs pruning but never soundness: the orbits found are always those
of a group of automorphisms.

Every automorphism maps each pair-cover family of the graph (vertex, edge
and mixed pairs, the N2 side sets) onto itself, and the forced and degree-
excluded vertices of the mixed search are unions of orbits.  So a cover of
size <= k exists if and only if, for some i, one exists that contains the
representative of orbit O_i and avoids O_1 .. O_{i-1} (Ostrowski, Linderoth,
Rossi and Smriglio, "Orbital branching", Math. Prog. 2011).  Branch i
forces a representative and excludes orbits of a larger group, which the
representative's stabilizer maps onto themselves, so each branch splits
again by the orbits of that stabilizer.  min_size uses these splits, at
every depth the split rule allows, to prove optimal values.

Witnesses still come from cover.lex_min_hitting_set, which takes a
GraphSymmetry too: after its pass refutes a candidate c, it refutes every
later candidate in c's orbit under the stabilizer of the vertices below c
(orbits(tuple(range(c)))), which cannot hold the lex-min witness either.
The witness is the same with symmetry as without it.
"""
from __future__ import annotations

from dataclasses import replace
from functools import cached_property

import numpy as np

from .cover import (
    CUTOFF_EXCEEDED,
    OPTIMAL,
    CoverInstance,
    CoverResult,
    _bits_of,
    _mask_of,
    min_hitting_set_size,
)

# refinements one orbit computation may spend searching for automorphisms,
# per vertex; a search cut off here merges nothing
_SEARCH_BUDGET_PER_VERTEX = 40
# below this many free elements the kernel's search is cheaper than finding
# orbits, so min_size runs it unsplit: splitting every instance of the
# connected graphs of order 5 to 7 raised their p90 exact-report time by
# about a quarter
_MIN_SPLIT_ELEMENTS = 12


def is_automorphism(graph, perm) -> bool:
    """True when perm (perm[v] is the image of v) is a permutation of the
    vertices that maps every edge of graph onto an edge."""
    if sorted(perm) != list(range(graph.n)):
        return False
    return all(graph.has_edge(perm[u], perm[v]) for u, v in graph.edges)


class GraphSymmetry:
    """Orbits of one graph's automorphism group and of its vertex
    stabilizers, computed on first use and kept.

    graph is a Graph and dv its distance matrix; nothing is computed at
    construction.
    """

    def __init__(self, graph, dv: np.ndarray):
        self.graph = graph
        self._dv = dv
        self._cells: dict[tuple[int, ...], np.ndarray] = {}
        self._orbits: dict[tuple[int, ...], list[int]] = {}

    @cached_property
    def _weights(self) -> np.ndarray:
        """A fixed pseudo-random uint64 weight for each (distance, colour)
        pair, flat: (d, c) at d * (n + 1) + c.  splitmix64 of that index
        plus one, so no random module is loaded."""
        size = (int(self._dv.max(initial=0)) + 1) * (self.graph.n + 1)
        x = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ x >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ x >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
        return x ^ x >> np.uint64(31)

    @cached_property
    def _row_offsets(self) -> np.ndarray:
        """dv * (n + 1): adding colours[None, :] gives each (vertex,
        vertex) entry's index in _weights."""
        return self._dv.astype(np.intp) * (self.graph.n + 1)

    def _refine(self, colors: np.ndarray) -> tuple[np.ndarray, bytes]:
        """The equitable colouring finer than colors, and a trace that
        colourings related by an automorphism share.  colors must use each
        of 0 .. max(colors).

        Each round gives a vertex the sum, modulo 2**64, of the weights of
        (distance, colour) over every vertex, itself included, and ranks
        the distinct sums.  The colours therefore do not depend on vertex
        labels; two distinct count profiles share a sum with probability
        about 2**-64, and such a clash coarsens the colouring, which
        is_automorphism makes harmless."""
        weights = self._weights
        offsets = self._row_offsets
        k = int(colors.max()) + 1
        trace = []
        while True:
            sums = weights[offsets + colors].sum(axis=1, dtype=np.uint64)
            # the distinct sums in ascending order, and each vertex's rank
            ordered = np.sort(sums)
            keys = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
            trace.append(keys.tobytes())
            if len(keys) == k:
                trace.append(np.bincount(colors).tobytes())
                return colors, b"".join(trace)
            colors, k = np.searchsorted(keys, sums), len(keys)

    def cells(self, fixed: tuple[int, ...] = ()) -> np.ndarray:
        """The equitable colouring with each vertex of fixed in a cell of
        its own; each orbit of the stabilizer of fixed lies in one cell."""
        if fixed not in self._cells:
            colors = np.zeros(self.graph.n, dtype=np.intp)
            for i, v in enumerate(fixed):
                colors[v] = i + 1
            self._cells[fixed] = self._refine(colors)[0]
        return self._cells[fixed]

    def orbits(self, fixed: tuple[int, ...] = ()) -> list[int]:
        """Orbits, as vertex masks in ascending order of their lowest
        vertex, of the automorphisms found that fix every vertex of fixed."""
        if fixed not in self._orbits:
            self._orbits[fixed] = self._find_orbits(fixed)
        return self._orbits[fixed]

    def _find_orbits(self, fixed: tuple[int, ...]) -> list[int]:
        n = self.graph.n
        base = self.cells(fixed)
        parent = list(range(n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        budget = [_SEARCH_BUDGET_PER_VERTEX * n]
        for color in range(int(base.max()) + 1):
            members = np.flatnonzero(base == color).tolist()
            if len(members) < 2:
                continue
            roots: list[tuple[int, np.ndarray, bytes]] = []
            for v in members:
                if any(find(v) == find(r) for r, _c, _t in roots):
                    continue
                cv, tv = self._refine(_individualize(base, v))
                for r, cr, tr in roots:
                    perm = self._match(cr, tr, cv, tv, fixed, budget)
                    if perm is not None:
                        for x, y in enumerate(perm):
                            parent[find(x)] = find(y)
                        break
                else:
                    roots.append((v, cv, tv))
        masks: dict[int, int] = {}
        for v in range(n):
            masks[find(v)] = masks.get(find(v), 0) | 1 << v
        return sorted(masks.values(), key=lambda m: m & -m)

    def _match(self, c1, t1, c2, t2, fixed, budget) -> list[int] | None:
        """An automorphism that fixes each vertex of fixed and maps the
        colouring c1 onto c2, or None; both are equitable and refined from
        colourings that the automorphism sought would relate.  Individualizes the
        first vertex of the smallest nontrivial cell of c1 against each
        vertex of that cell of c2 in turn, spending one unit of budget per
        refinement."""
        if t1 != t2:
            return None
        sizes = np.bincount(c1)
        if len(sizes) == len(c1):
            where = np.empty_like(c2)
            where[c2] = np.arange(len(c2))
            perm = where[c1].tolist()
            if all(perm[f] == f for f in fixed) and is_automorphism(self.graph, perm):
                return perm
            return None
        open_sizes = np.where(sizes > 1, sizes, len(c1) + 1)
        color = int(np.argmin(open_sizes))
        x = int(np.flatnonzero(c1 == color)[0])
        d1, s1 = self._refine(_individualize(c1, x))
        for y in np.flatnonzero(c2 == color).tolist():
            budget[0] -= 1
            if budget[0] < 0:
                return None
            d2, s2 = self._refine(_individualize(c2, y))
            perm = self._match(d1, s1, d2, s2, fixed, budget)
            if perm is not None:
                return perm
        return None

    def orbits_within(self, relevant: int, fixed: tuple[int, ...], limit: int) -> list[int] | None:
        """The orbits of the stabilizer of fixed that meet relevant, cut to
        relevant, largest first (ties: lowest vertex first); None when there
        are limit or more of them.  relevant must be a union of such orbits.

        Checks cheap invariants first: a vertex's degree and its distances
        to fixed, then the equitable cells, each of which is a union of
        orbits, so the automorphism search runs only when fewer than limit
        cells meet relevant."""
        if limit <= 1:  # relevant meets at least one orbit
            return None
        vertices = _bits_of(relevant)
        dv = self._dv
        if len({(self.graph.degree(v), *(dv[f, v] for f in fixed)) for v in vertices}) >= limit:
            return None
        cells = self.cells(fixed)
        if len({cells[v] for v in vertices}) >= limit:
            return None
        found = [o & relevant for o in self.orbits(fixed) if o & relevant]
        if len(found) >= limit:
            return None
        return sorted(found, key=lambda m: (-m.bit_count(), m & -m))


def _individualize(colors: np.ndarray, v: int) -> np.ndarray:
    out = colors.copy()
    out[v] = int(colors.max()) + 1
    return out


def _split(
    inst: CoverInstance,
    masks: list[int],
    sym: GraphSymmetry,
    fixed: tuple[int, ...],
) -> list[CoverInstance] | None:
    """Orbital branches of inst, whose sets left unhit by its forced
    elements are masks, under the stabilizer of fixed: the i-th forces the
    representative (lowest vertex) of orbit O_i and excludes O_1 .. O_{i-1},
    the orbits being those of the free elements, which lie in some of masks.
    Each branch is split again in the same way under the stabilizer of
    fixed and its representative, and is kept whole where that split is
    refused.

    None, leaving inst whole, unless there are at least _MIN_SPLIT_ELEMENTS
    free elements, at most as many orbits as the kernel's first branching
    has children (the size of the smallest of masks), and forced and
    excluded sets that are unions of the orbits found under the stabilizer
    of fixed.  The last condition holds when the orbits found are exact,
    because each excluded orbit came from a larger group.  A cut-off
    automorphism search can leave them finer, and then the automorphisms
    found need not map an excluded set onto itself.
    """
    free = 0
    for m in masks:
        free |= m
    if free.bit_count() < _MIN_SPLIT_ELEMENTS:
        return None
    orbits = sym.orbits_within(free, fixed, min(m.bit_count() for m in masks) + 1)
    if orbits is None:
        return None
    forced, excluded = _mask_of(inst.forced), _mask_of(inst.excluded)
    if any(o & forced not in (0, o) or o & excluded not in (0, o) for o in sym.orbits(fixed)):
        return None
    branches = []
    passed = 0
    for orbit in orbits:
        rep = (orbit & -orbit).bit_length() - 1
        branch = replace(inst, forced=inst.forced | {rep}, excluded=inst.excluded | frozenset(_bits_of(passed)))
        prep = branch._prepared
        deeper = None
        if not isinstance(prep, CoverResult) and prep[0]:
            deeper = _split(branch, prep[0], sym, (*fixed, rep))
        branches.extend(deeper or [branch])
        passed |= orbit
    return branches


def min_size(
    inst: CoverInstance,
    sym: GraphSymmetry,
    cutoff: int | None = None,
    lower_bound: int = 0,
    deadline: float | None = None,
) -> CoverResult:
    """min_hitting_set_size(inst, cutoff, lower_bound, deadline), proved by
    orbital branching where that splits inst into no more subproblems than
    the kernel's own first branching would, each split again where the
    same holds (_split); otherwise one plain kernel call.

    inst's family, forced and excluded sets must each be mapped onto
    themselves by every automorphism of sym's graph.  Each branch is solved
    with a cutoff one below the best size found so far, so the last size
    found is the minimum over the branches, which is the optimum.
    """
    prep = inst._prepared
    branches = None
    if not isinstance(prep, CoverResult) and prep[0]:
        branches = _split(inst, prep[0], sym, ())
    if branches is None:
        return min_hitting_set_size(inst, cutoff, lower_bound, deadline)
    best = None
    for branch in branches:
        res = min_hitting_set_size(branch, cutoff, lower_bound, deadline)
        if res.ok:
            best = res.size
            if best <= lower_bound:
                break
            cutoff = best - 1
    return CoverResult(CUTOFF_EXCEEDED) if best is None else CoverResult(OPTIMAL, best)
