"""Vertex orbits of a graph's automorphism group and of its vertex
stabilizers, which the exact solves' optimality proofs branch on
(cover._split).

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

Most keys need no search: a GraphSymmetry keeps the automorphisms that its
searches find, and each key tries those first.  A pointwise stabilizer
takes the generators of the longest prefix of fixed already known, through
one Schreier step per further vertex (Seress, "Permutation Group
Algorithms", 2003); a key with classes takes every known automorphism that
keeps its colouring.  The orbits of known automorphisms lie inside the
stabilizer's, which lie inside the equitable cells, so when they are as
many as the cells they are the stabilizer's orbits.  Otherwise the search
runs, starting from their merges.  Either way a key's orbits are read off
its generators alone, the known automorphisms and those its search found
(_orbit_roots), so every orbit is that of a recorded group.

The orbits that a proof has found also serve the covering LP
(found_orbits), which then needs one variable per orbit.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .masks import bits_of, mask_of

# refinements one orbit computation may spend searching for automorphisms,
# per vertex; a search cut off here merges nothing
_SEARCH_BUDGET_PER_VERTEX = 40


def is_automorphism(graph, perm) -> bool:
    """True when perm (perm[v] is the image of v) is a permutation of the
    vertices that maps every edge of graph onto an edge."""
    if sorted(perm) != list(range(graph.n)):
        return False
    return all(graph.has_edge(perm[u], perm[v]) for u, v in graph.edges)


class GraphSymmetry:
    """Orbits of one graph's automorphism group and of its vertex
    stabilizers, computed on first use and kept.

    graph is a Graph and table its vertex-to-item distance table
    (graphs.distances), of which only the vertex columns are read; nothing
    is computed at construction.
    """

    def __init__(self, graph, table: np.ndarray):
        self.graph = graph
        self._dv = table[:, : graph.n]
        # keyed by (fixed, classes), the initial colouring (_initial)
        self._cells: dict[tuple, np.ndarray] = {}
        self._orbits: dict[tuple, list[int]] = {}
        # automorphisms that keep the key's initial colouring, one
        # permutation per row: derived and found for a key without classes,
        # found for one with classes
        self._gens: dict[tuple, np.ndarray] = {}

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

    def _initial(self, fixed: tuple[int, ...], classes: tuple[int, ...]) -> np.ndarray:
        """The colouring that gives fixed[i] colour i + 1, the other
        vertices of each mask of classes the next colour and every other
        vertex colour 0, all less one when no vertex is left with colour 0,
        so that the colours are 0 .. k - 1.  An automorphism keeps it
        exactly when it fixes each vertex of fixed and maps each mask of
        classes onto itself."""
        colors = np.zeros(self.graph.n, dtype=np.intp)
        for i, v in enumerate(fixed):
            colors[v] = i + 1
        color = len(fixed)
        rest = ~mask_of(fixed)
        for mask in classes:
            if mask & rest:
                color += 1
                colors[list(bits_of(mask & rest))] = color
        return colors - 1 if colors.all() else colors

    def cells(self, fixed: tuple[int, ...] = (), classes: tuple[int, ...] = ()) -> np.ndarray:
        """The equitable colouring finer than _initial(fixed, classes); each
        orbit of the automorphisms that fix that colouring lies in one
        cell."""
        key = (fixed, classes)
        if key not in self._cells:
            self._cells[key] = self._refine(self._initial(fixed, classes))[0]
        return self._cells[key]

    def orbits(self, fixed: tuple[int, ...] = (), classes: tuple[int, ...] = ()) -> list[int]:
        """Orbits, as vertex masks in ascending order of their lowest
        vertex, of the automorphisms found that fix every vertex of fixed
        and map each vertex mask of classes onto itself.

        The automorphisms already known that do so (_known) come first.
        Their orbits lie inside the stabilizer's, which lie inside the
        equitable cells; so when they are as many as the cells, they are
        the stabilizer's orbits, and no search is made.  Otherwise the
        search starts from their merges.  The orbits are those of the known
        and found automorphisms together."""
        key = (fixed, classes)
        if key not in self._orbits:
            known = gens = self._known(fixed, classes)
            if (_orbit_roots(known) == np.arange(self.graph.n)).sum() > int(self.cells(fixed, classes).max()) + 1:
                gens = np.concatenate((known, self._find_orbits(fixed, classes, known)))
            self._orbits[key] = _masks_of_roots(_orbit_roots(gens).tolist())
            # a classes key keeps only what it found: the rest is stored already
            self._gens[key] = gens[len(known) :] if classes else gens
        return self._orbits[key]

    def _known(self, fixed: tuple[int, ...], classes: tuple[int, ...]) -> np.ndarray:
        """Automorphisms already known, one per row, that keep
        _initial(fixed, classes).

        With classes, every stored one that does.  Without, the generators
        of the longest prefix of fixed that has any, taken to the stabilizer
        of each further vertex of fixed by one Schreier step (_stabilizer),
        each stored under its prefix; none when no prefix has any."""
        n = self.graph.n
        none = np.empty((0, n), dtype=np.min_scalar_type(n - 1))
        if classes:
            pool = np.concatenate((none, *self._gens.values()))
            initial = self._initial(fixed, classes)
            return pool[(initial[pool] == initial).all(axis=1)]
        depth = next((i for i in range(len(fixed), -1, -1) if (fixed[:i], ()) in self._gens), None)
        if depth is None:
            return none
        gens = self._gens[(fixed[:depth], ())]
        for i in range(depth, len(fixed)):
            gens = _stabilizer(gens, fixed[i])
            self._gens[(fixed[: i + 1], ())] = gens
        return gens

    def found_orbits(self) -> list[int] | None:
        """orbits() if some proof has already computed them, else None;
        never searches."""
        return self._orbits.get(((), ()))

    def _find_orbits(self, fixed: tuple[int, ...], classes: tuple[int, ...], known: np.ndarray) -> np.ndarray:
        """The automorphisms, one per row, that a budgeted search finds
        keeping _initial(fixed, classes), starting from the orbits of
        known, automorphisms that keep it too: a vertex in the orbit of a
        cell's earlier root, under known and the automorphisms found so
        far, is not tried."""
        base = self.cells(fixed, classes)
        initial = self._initial(fixed, classes)
        found = known[:0]
        orbit = _orbit_roots(known).tolist()
        budget = [_SEARCH_BUDGET_PER_VERTEX * self.graph.n]
        for color in range(int(base.max()) + 1):
            members = np.flatnonzero(base == color).tolist()
            if len(members) < 2:
                continue
            roots: list[tuple[int, np.ndarray, bytes]] = []
            for v in members:
                if any(orbit[v] == orbit[r] for r, _c, _t in roots):
                    continue
                cv, tv = self._refine(_individualize(base, v))
                for r, cr, tr in roots:
                    perm = self._match(cr, tr, cv, tv, initial, budget)
                    if perm is not None:
                        found = np.concatenate((found, np.array([perm], dtype=found.dtype)))
                        orbit = _orbit_roots(np.concatenate((known, found))).tolist()
                        break
                else:
                    roots.append((v, cv, tv))
        return found

    def _match(self, c1, t1, c2, t2, initial, budget) -> list[int] | None:
        """An automorphism that keeps the colour of every vertex under the
        colouring initial and maps the colouring c1 onto c2, or None; both
        are equitable and refined from colourings that the automorphism
        sought would relate.  Individualizes the first vertex of the
        smallest nontrivial cell of c1 against each vertex of that cell of
        c2 in turn, spending one unit of budget per refinement."""
        if t1 != t2:
            return None
        sizes = np.bincount(c1)
        if len(sizes) == len(c1):
            where = np.empty_like(c2)
            where[c2] = np.arange(len(c2))
            perm = where[c1]
            if (initial[perm] == initial).all() and is_automorphism(self.graph, perm.tolist()):
                return perm.tolist()
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
            perm = self._match(d1, s1, d2, s2, initial, budget)
            if perm is not None:
                return perm
        return None

    def orbits_within(self, relevant: int, fixed: tuple[int, ...], limit: int) -> list[int] | None:
        """The orbits of the stabilizer of fixed that meet relevant, cut to
        relevant, largest first (ties: lowest vertex first): orbits of the
        stabilizer when relevant is a union of them.

        None, without a search for automorphisms, when cheap invariants
        already split relevant into limit or more classes, each a union of
        orbits: a vertex's degree and its distances to fixed, then the
        equitable cells.  Otherwise the orbits are found, however many."""
        if limit <= 1:  # relevant meets at least one orbit
            return None
        vertices = list(bits_of(relevant))
        degree = self.graph.degree
        profiles = self._dv[list(fixed)][:, vertices].T.tolist()
        if len({(degree(v), *p) for v, p in zip(vertices, profiles)}) >= limit:
            return None
        cells = self.cells(fixed)
        if len({cells[v] for v in vertices}) >= limit:
            return None
        found = [o & relevant for o in self.orbits(fixed) if o & relevant]
        return sorted(found, key=lambda m: (-m.bit_count(), m & -m))


def _individualize(colors: np.ndarray, v: int) -> np.ndarray:
    out = colors.copy()
    out[v] = int(colors.max()) + 1
    return out


def _orbit_roots(gens: np.ndarray) -> np.ndarray:
    """Each vertex's orbit, named by its lowest vertex, under the group
    that the rows of gens (permutations, row[v] the image of v) generate.

    Each round takes, for every vertex, the least name among itself and
    its images, then replaces each name by the name's own name.  Names
    stay inside orbits and never rise; once nothing changes, a name is
    never above its images' names, so it is constant along each cycle of
    each generator, hence on each orbit, where it is the lowest vertex."""
    roots = np.arange(gens.shape[1])
    if not len(gens):
        return roots
    while True:
        pulled = np.minimum(roots, roots[gens].min(axis=0))
        pulled = pulled[pulled]
        if (pulled == roots).all():
            return roots
        roots = pulled


def _masks_of_roots(roots) -> list[int]:
    """The orbits, as vertex masks in ascending order of their lowest
    vertex, that give vertex v the root roots[v]."""
    masks: dict[int, int] = {}
    for v, r in enumerate(roots):
        masks[r] = masks.get(r, 0) | 1 << v
    return sorted(masks.values(), key=lambda m: m & -m)


# _stabilizer forms this many permutation entries at a time, so that its
# temporaries stay small however many generators it takes
_SCHREIER_BLOCK_ENTRIES = 1 << 16


def _stabilizer(gens: np.ndarray, point: int) -> np.ndarray:
    """Generators of the stabilizer of point in the group that the rows of
    gens generate, by Schreier's lemma, without the identity or repeats.

    A breadth-first search over point's orbit finds, for each orbit point
    x, a group element u_x with u_x(point) = x; the generators are then
    u_{g(x)}^-1 g u_x for every generator g and orbit point x.  Rows are
    told apart by their bytes: np.unique(axis=0) would load numpy.ma."""
    k, n = gens.shape
    if not k:
        return gens
    where = np.full(n, -1, dtype=np.intp)  # x's row in trans
    trans = np.empty((n, n), dtype=gens.dtype)
    trans[0] = np.arange(n)
    where[point] = 0
    size = 1
    frontier = np.array([point])
    while len(frontier):
        # each new image y = g_i(x_j), first (i, j) first
        ys, first = np.unique(gens[:, frontier], return_index=True)
        new = where[ys] < 0
        ys, first = ys[new], first[new]
        i, j = np.divmod(first, len(frontier))
        trans[size : size + len(ys)] = gens[i[:, None], trans[where[frontier[j]]]]
        where[ys] = np.arange(size, size + len(ys))
        size += len(ys)
        frontier = ys
    trans = trans[:size]
    inverse = np.empty_like(trans)
    inverse[np.arange(size)[:, None], trans] = np.arange(n, dtype=gens.dtype)
    orbit = trans[:, point]
    width = n * gens.itemsize
    rows = dict.fromkeys([np.arange(n, dtype=gens.dtype).tobytes()])
    step = max(1, _SCHREIER_BLOCK_ENTRIES // (size * n))
    for lo in range(0, k, step):
        block = gens[lo : lo + step]
        schreier = inverse[where[block[:, orbit]][:, :, None], block[:, trans]]
        raw = schreier.tobytes()
        rows.update(dict.fromkeys(raw[s : s + width] for s in range(0, len(raw), width)))
    kept = list(rows)[1:]
    return np.frombuffer(b"".join(kept), dtype=gens.dtype).reshape(len(kept), n)
